#![warn(missing_docs)]
//! # PASCO — *Walking in the Cloud: Parallel SimRank at Scale*
//!
//! A from-scratch Rust reproduction of the **CloudWalker** system
//! (Li, Fang, Liu, Cheng, Cheng, Lui — SoCC'15 / PVLDB'16): scalable SimRank
//! via a Monte-Carlo-estimated diagonal correction matrix, a parallel Jacobi
//! solve, and constant-time Monte-Carlo query engines, executed either on a
//! single shared-memory pool or on a simulated Spark-like cluster in both
//! *Broadcasting* and *RDD* modes.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`graph`] | `pasco-graph` | CSR graphs, generators, paper dataset stand-ins, I/O |
//! | [`mc`] | `pasco-mc` | deterministic RNGs, reverse/forward random-walk engines |
//! | [`solver`] | `pasco-solver` | sparse vectors, parallel Jacobi / Gauss-Seidel |
//! | [`cluster`] | `pasco-cluster` | Spark-like runtime: broadcast, DistVec, shuffles |
//! | [`simrank`] | `pasco-simrank` | CloudWalker indexing + MCSP/MCSS/MCAP queries, exact SimRank |
//! | [`server`] | `pasco-server` | TCP front door: envelope protocol server + blocking client |
//! | [`worker`] | `pasco-worker` | SimRank worker process: the distributed substrate's RPC half |
//! | [`baselines`] | `pasco-baselines` | FMT (Fogaras-Racz) and LIN (Maehara) competitors |
//!
//! ## Quickstart
//!
//! ```
//! use pasco::simrank::{CloudWalker, SimRankConfig, ExecMode};
//! use pasco::graph::generators;
//!
//! // A small scale-free graph.
//! let g = generators::barabasi_albert(500, 4, 42);
//! // Build the offline index (estimates the diagonal correction matrix D).
//! let cfg = SimRankConfig::default_paper().with_seed(7);
//! let cw = CloudWalker::build(g.into(), cfg, ExecMode::Local).unwrap();
//! // Online queries.
//! let s = cw.try_single_pair(3, 4).unwrap();
//! assert!((0.0..=1.0).contains(&s));
//! let scores = cw.try_single_source(3).unwrap();
//! assert_eq!(scores.len(), 500);
//! ```

pub use pasco_baselines as baselines;
pub use pasco_cluster as cluster;
pub use pasco_graph as graph;
pub use pasco_mc as mc;
pub use pasco_server as server;
pub use pasco_simrank as simrank;
pub use pasco_solver as solver;
pub use pasco_worker as worker;
