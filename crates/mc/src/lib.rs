#![warn(missing_docs)]
// The panic gate of the serving closure: a site is rewritten or carries a reasoned `#[allow]`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]
//! Monte-Carlo random-walk engine for PASCO / CloudWalker.
//!
//! Everything CloudWalker computes reduces to simulating walks on the
//! SimRank chain and aggregating per-step visit counts:
//!
//! * offline indexing places `R` walkers on every node and needs the
//!   per-step empirical distributions `ûₜ ≈ Pᵗ eᵢ` ([`walks`]);
//! * MCSP runs two walker cohorts and intersects their step distributions;
//! * MCSS additionally propagates mass *forward* through the reverse chain
//!   with importance weights ([`forward`]).
//!
//! Determinism is a design requirement (tests compare Local, Broadcast and
//! RDD execution bit-for-bit), so all randomness flows from [`rng`]'s
//! counter-seeded generators: the walk of walker `w` from node `v` depends
//! only on `(master_seed, v, w)`, never on thread scheduling.

pub mod counts;
pub mod forward;
pub mod parallel;
pub mod rng;
pub mod stats;
pub mod walks;

pub use counts::CountMap;
pub use rng::{SplitMix64, Xoshiro256pp};
pub use walks::{StepDistributions, WalkParams};
