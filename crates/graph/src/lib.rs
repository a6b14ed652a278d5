#![warn(missing_docs)]
// The panic gate of the serving closure: a site is rewritten or carries a reasoned `#[allow]`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]
//! Graph substrate for the PASCO / CloudWalker reproduction.
//!
//! SimRank operates on a directed graph and walks **backwards along
//! in-links**: from node `v`, a walker moves to a uniformly random element of
//! `In(v)`. Everything in this crate is organised around making that walk —
//! and the forward "reverse-chain" walk used by single-source queries — fast:
//!
//! * [`CsrGraph`] stores both out- and in-adjacency in compressed sparse row
//!   form, so a walk step is two array reads.
//! * [`GraphBuilder`] turns edge lists into a [`CsrGraph`] with counting sort.
//! * [`generators`] provides Erdős–Rényi, Barabási–Albert, R-MAT and
//!   Watts–Strogatz models plus analytic toy graphs used in tests.
//! * [`datasets`] is the registry of scaled stand-ins for the five graphs in
//!   the paper's evaluation (wiki-vote … clue-web).
//! * [`sampling::ReverseChainIndex`] precomputes, for every node `k`, prefix
//!   sums of `1/|In(j)|` over its out-edges `k→j`, so the mass-carrying
//!   forward walk of MCSS can sample an out-neighbour `j ∝ 1/|In(j)|` with a
//!   binary search — the `log d` factor in the paper's `O(T²R' log d)` bound.
//! * [`plan::SweepPlan`] orders the pull sweep by in-degree inside blocks.
//! * [`io`] reads/writes SNAP-style edge lists and a compact binary format.
//! * [`partition`] and [`stats`] support the distributed runtime and the
//!   dataset tables.

pub mod adjacency;
pub mod builder;
pub mod csr;
pub mod datasets;
pub mod error;
pub mod generators;
pub mod io;
pub mod partition;
pub mod plan;
pub mod sampling;
pub mod stats;

pub use adjacency::{ForwardSampler, GraphSampler, NoSampler, WalkAdjacency};
pub use builder::GraphBuilder;
pub use csr::{CsrGraph, InLinks, NodeId};
pub use error::GraphError;
pub use plan::SweepPlan;
pub use sampling::ReverseChainIndex;
