#![warn(missing_docs)]
//! Baseline SimRank systems the paper compares CloudWalker against.
//!
//! * [`fmt`] — **FMT** (Fogaras & Rácz, WWW'05): precomputed coupled
//!   *fingerprint* walks, similarity from first-meeting times. Preprocessing
//!   stores `n·R·T` positions, which is why the paper's comparison table
//!   shows it `N/A` beyond the smallest graph — reproduced here with an
//!   explicit memory budget.
//! * [`lin`] — **LIN** (Maehara et al., CoRR'14): the same linearisation as
//!   CloudWalker but computed *exactly* — sparse propagation instead of
//!   Monte Carlo for both the diagonal solve and the queries. Fast and
//!   accurate on small graphs; preprocessing cost explodes with graph
//!   size/skew, which an explicit work budget makes visible instead of
//!   letting the harness run for hours.
//!
//! Both baselines share [`BaselineError`] so the comparison harness can
//! render honest `N/A` cells when a method cannot run — the same structure
//! as the paper's table.

pub mod error;
pub mod fmt;
pub mod lin;

pub use error::BaselineError;
pub use fmt::{Fmt, FmtConfig};
pub use lin::{Lin, LinConfig};
