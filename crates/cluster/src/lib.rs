#![warn(missing_docs)]
// The panic gate of the serving closure: a site is rewritten or carries a reasoned `#[allow]`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]
//! A Spark-like cluster runtime, simulated in-process.
//!
//! The paper implements CloudWalker on a 10-machine Spark cluster and
//! contrasts two execution models:
//!
//! * **Broadcasting** — the graph is replicated to every machine; stages are
//!   embarrassingly parallel but the graph must fit in one machine's RAM
//!   (their clue-web graph at 401 GB did not fit in 377 GB, hence `N/A`).
//! * **RDD** — the graph lives partitioned across machines; every walk step
//!   shuffles walker state to the partition owning the next node. Slower,
//!   but the per-machine footprint is `O(|G| / workers)`.
//!
//! This crate reproduces that contrast without a real network: a
//! [`Cluster`] executes *stages* (one task per partition) on a thread pool,
//! [`Broadcast`] enforces the per-worker memory budget, and
//! [`DistVec`] is the RDD analogue whose [`DistVec::shuffle`] really
//! serialises records into per-destination byte buffers and decodes them on
//! the receiving side — so the broadcast-vs-RDD cost gap *emerges* from work
//! performed rather than being modelled. [`metrics`] additionally records
//! per-stage task times, shuffle bytes and an estimated makespan for a
//! configurable virtual cluster (workers × cores, NIC bandwidth), which the
//! scalability experiments report alongside real wall time.

pub mod cluster;
pub mod codec;
pub mod config;
pub mod distvec;
pub mod error;
pub mod metrics;

pub use cluster::{Broadcast, Cluster};
pub use codec::Codec;
pub use config::ClusterConfig;
pub use distvec::DistVec;
pub use error::ClusterError;
pub use metrics::{ClusterReport, MetricsLog, ShuffleMetrics, StageMetrics};
