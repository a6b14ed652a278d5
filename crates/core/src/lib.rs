#![warn(missing_docs)]
// The panic gate of the serving closure: a site is rewritten or carries a reasoned `#[allow]`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]
//! **CloudWalker** — the paper's contribution: SimRank at scale via a
//! Monte-Carlo-estimated diagonal correction and constant-time MC queries.
//!
//! # The algorithm
//!
//! SimRank linearises as `S = Σ_{t≥0} cᵗ (Pᵗ)ᵀ D Pᵗ` for a diagonal
//! correction matrix `D = diag(x)` (`P` is the column-stochastic in-link
//! transition matrix). CloudWalker:
//!
//! 1. **Offline** ([`CloudWalker::build`]): estimates row
//!    `aᵢ = Σ_{t=0..T} cᵗ (Pᵗeᵢ)∘(Pᵗeᵢ)` for every node by placing `R`
//!    walkers on `i` and walking `T` steps along in-links, then solves
//!    `A x = 1` (from `s(i,i) = 1`) with `L` parallel Jacobi iterations.
//! 2. **Online**: single-pair queries ([`CloudWalker::try_single_pair`],
//!    *MCSP*), single-source queries ([`CloudWalker::try_single_source`],
//!    *MCSS*) and all-pair queries ([`CloudWalker::all_pairs_topk`],
//!    *MCAP*) are answered from `R'` fresh walks plus the stored diagonal —
//!    time independent of the graph size.
//!
//! # Execution modes
//!
//! [`ExecMode`] selects where the work runs: [`ExecMode::Local`] on a rayon
//! pool, [`ExecMode::Sharded`] on in-process graph shards (both — and the
//! mapped store behind [`CloudWalker::open_store`] — are the one generic
//! [`engine::KernelEngine`] over a different [`engine::Storage`]), the
//! simulated Spark cluster in the paper's two models —
//! [`ExecMode::Broadcast`] (graph replicated per worker; fails when it does
//! not fit the per-worker budget) and [`ExecMode::Rdd`] (graph partitioned;
//! walker state shuffled every step) — or [`ExecMode::Distributed`], real
//! `pasco_worker` processes over TCP with the build and every query routed
//! to the worker owning its source. Each implements the object-safe
//! [`SimRankEngine`] trait and [`CloudWalker`] dispatches every query
//! through `Box<dyn SimRankEngine>`. All produce **bitwise identical
//! results** for the same seed, because every walk step's randomness is a
//! pure function of `(seed, source, walker, step)`.
//!
//! # Serving
//!
//! [`QuerySession`] wraps an `Arc<CloudWalker>` into a `Send + Sync`
//! serving layer: queries take `&self`, cohorts are memoised in a sharded
//! O(1) LRU, and batch entry points fan out over rayon — one index serves
//! many concurrent clients with answers identical to the engine's.
//!
//! The [`api`] module is the typed front door over both layers: a
//! [`QueryRequest`]/[`QueryResponse`] protocol with a binary wire codec
//! ([`api::wire`]), typed [`QueryError`]s instead of panics, and the
//! object-safe [`QueryService`] trait implemented by [`QuerySession`] and
//! [`CloudWalker`].
//!
//! The [`exact`] module provides the `O(n²)` ground truth used by the
//! effectiveness experiments, and [`metrics`] the error/ranking measures.

pub mod ai;
pub mod api;
pub mod cloudwalker;
pub mod config;
pub mod diag;
pub mod engine;
pub mod error;
pub mod exact;
pub mod metrics;
pub mod persist;
pub mod queries;
pub mod session;

pub use api::envelope::{Envelope, FrameError, FrameKind, ServerInfo};
pub use api::{QueryError, QueryRequest, QueryResponse, QueryService};
pub use cloudwalker::{CloudWalker, IndexBuildStats};
pub use config::{AiStrategy, SimRankConfig};
pub use diag::DiagonalIndex;
pub use engine::{
    BuildOutcome, DistributedEngine, EngineFootprint, ExecMode, KernelEngine, LocalEngine,
    ShardedEngine, SimRankEngine,
};
pub use error::SimRankError;
pub use session::{CacheStats, QuerySession, SessionConfig};
