//! The typed query API: serializable requests and responses, typed
//! errors, and the object-safe [`QueryService`] front door.
//!
//! CloudWalker serves several query shapes (single-pair, single-source,
//! top-`k`, pairwise matrices, raw cohorts) from one shared index. This
//! module gives every shape a first-class value representation:
//!
//! * [`QueryRequest`] / [`QueryResponse`] — one enum variant per query
//!   kind, plus a one-level [`QueryRequest::Batch`] wrapper;
//! * [`QueryError`] — typed failures ([`QueryError::NodeOutOfRange`],
//!   [`QueryError::InvalidK`], …) instead of panics and hand-rolled
//!   bounds checks;
//! * [`QueryService`] — `fn execute(&self, QueryRequest) ->
//!   Result<QueryResponse, QueryError>`, implemented by the caching
//!   [`QuerySession`] serving layer and (as a thin adapter) by
//!   [`CloudWalker`] itself;
//! * [`wire`] — a compact binary codec with exact round-trip guarantees,
//!   so a network front-end and a real-cluster RPC engine share one wire
//!   format;
//! * [`envelope`] — the versioned frame wrapper around [`wire`] messages
//!   (magic + protocol version, request ids for pipelining, first-class
//!   error frames, frame-size limits) that the `pasco_server` TCP front
//!   end speaks.
//!
//! ```
//! use pasco_simrank::api::{QueryRequest, QueryResponse, QueryService};
//! use pasco_simrank::{CloudWalker, ExecMode, SimRankConfig};
//! use pasco_graph::generators;
//!
//! let g = generators::barabasi_albert(200, 3, 1);
//! let cw = CloudWalker::build(g.into(), SimRankConfig::fast(), ExecMode::Local).unwrap();
//! let svc: &dyn QueryService = &cw;
//! match svc.execute(QueryRequest::SinglePair { i: 3, j: 4 }).unwrap() {
//!     QueryResponse::Score(s) => assert!((0.0..=1.0).contains(&s)),
//!     other => panic!("unexpected response {other:?}"),
//! }
//! // Out-of-range nodes are typed errors, not panics.
//! assert!(svc.execute(QueryRequest::SinglePair { i: 0, j: 999 }).is_err());
//! ```

pub mod envelope;
pub mod transport;
pub mod wire;
pub mod worker;

use crate::cloudwalker::CloudWalker;
use crate::session::QuerySession;
use pasco_graph::NodeId;
use pasco_mc::walks::StepDistributions;
use std::fmt;

/// One typed query against a SimRank index.
///
/// Every serving entry point — [`CloudWalker`]'s checked methods, the
/// caching [`QuerySession`], the `pasco` CLI, and (via [`wire`]) any
/// network front-end — speaks this enum.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryRequest {
    /// MCSP: the similarity of one node pair.
    SinglePair {
        /// First node of the pair.
        i: NodeId,
        /// Second node of the pair.
        j: NodeId,
    },
    /// MCSS: the similarity of every node to `i` (dense row).
    SingleSource {
        /// The query node.
        i: NodeId,
    },
    /// The deterministic-push MCSS variant (ablation A1): exact sparse
    /// pushes instead of forward walks, dense row out.
    SingleSourcePush {
        /// The query node.
        i: NodeId,
    },
    /// Sparse top-`k` MCSS: only the `k` most similar nodes, ranked.
    SingleSourceTopK {
        /// The query node.
        i: NodeId,
        /// How many neighbours to return; must be positive.
        k: u64,
    },
    /// Pairwise similarity matrix over `rows × cols`.
    PairsMatrix {
        /// Row nodes of the matrix.
        rows: Vec<NodeId>,
        /// Column nodes of the matrix.
        cols: Vec<NodeId>,
    },
    /// The raw `R'`-walker query cohort of `v` (the building block both
    /// MCSP and MCSS start from; what [`QuerySession`] caches).
    Cohort {
        /// The cohort's source node.
        v: NodeId,
    },
    /// Several queries answered in one round trip. One level only:
    /// nesting a batch inside a batch is [`QueryError::NestedBatch`].
    Batch(Vec<QueryRequest>),
}

/// The answer to a [`QueryRequest`], variant-matched to the request kind.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryResponse {
    /// A single similarity score (from [`QueryRequest::SinglePair`]).
    Score(f64),
    /// A dense score row (from [`QueryRequest::SingleSource`] /
    /// [`QueryRequest::SingleSourcePush`]).
    Scores(Vec<f64>),
    /// A ranked `(node, score)` list (from
    /// [`QueryRequest::SingleSourceTopK`]).
    Ranked(Vec<(NodeId, f64)>),
    /// A `rows × cols` score matrix (from [`QueryRequest::PairsMatrix`]).
    Matrix(Vec<Vec<f64>>),
    /// Per-step walker distributions (from [`QueryRequest::Cohort`]).
    Cohort(StepDistributions),
    /// One response per request of a [`QueryRequest::Batch`], in order.
    Batch(Vec<QueryResponse>),
}

/// Typed failure of a query. The index itself never fails at query
/// time: every variant is either a caller error (bad node, bad `k`,
/// malformed batch) or a serving limit ([`QueryError::
/// ResponseTooLarge`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// A requested node is not a node of the indexed graph.
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
        /// How many nodes the indexed graph has.
        node_count: u32,
    },
    /// A top-`k` request with an unusable `k` (zero).
    InvalidK {
        /// The offending `k`.
        k: u64,
    },
    /// A [`QueryRequest::Batch`] with no requests in it.
    EmptyBatch,
    /// A [`QueryRequest::PairsMatrix`] with no rows or no columns.
    EmptyNodeSet,
    /// A [`QueryRequest::Batch`] nested inside another batch.
    NestedBatch,
    /// The answer was computed but its encoding exceeds the serving
    /// frame-size limit, so it cannot be shipped to this caller. Ask for
    /// less (top-`k` instead of a dense row, a smaller batch) or raise
    /// the server's limit.
    ResponseTooLarge {
        /// The encoded response size that was refused.
        bytes: u64,
        /// The frame-size limit in force.
        max_frame: u32,
    },
    /// A distributed-substrate query could not be answered because the
    /// worker owning the routed partition is gone or broke protocol.
    /// The index and the surviving workers are unaffected; retry once
    /// the worker set is restored.
    WorkerUnavailable {
        /// What failed, e.g. `"worker 1 (127.0.0.1:40551): connection
        /// closed"`.
        detail: String,
    },
    /// The query kind is not supported on this execution substrate —
    /// e.g. forward-push MCSS needs the resident CSR graph and cannot
    /// run over a mapped store. Ask a different substrate (or a
    /// supported kind); nothing is wrong with the index.
    Unsupported {
        /// What was asked and why this substrate cannot serve it.
        detail: String,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::NodeOutOfRange { node, node_count } => {
                write!(f, "node {node} out of range (graph has {node_count} nodes)")
            }
            QueryError::InvalidK { k } => write!(f, "invalid k = {k} (must be positive)"),
            QueryError::EmptyBatch => write!(f, "batch request contains no queries"),
            QueryError::EmptyNodeSet => write!(f, "pairs matrix needs at least one row and column"),
            QueryError::NestedBatch => write!(f, "batch requests cannot be nested"),
            QueryError::ResponseTooLarge { bytes, max_frame } => {
                write!(f, "response of {bytes} bytes exceeds the {max_frame}-byte frame limit")
            }
            QueryError::WorkerUnavailable { detail } => {
                write!(f, "distributed worker unavailable: {detail}")
            }
            QueryError::Unsupported { detail } => {
                write!(f, "unsupported on this substrate: {detail}")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// The one bounds check every layer (request validation, engine, session)
/// shares, so "in range" means the same thing everywhere.
#[inline]
pub(crate) fn check_node(v: NodeId, node_count: u32) -> Result<(), QueryError> {
    if v < node_count {
        Ok(())
    } else {
        Err(QueryError::NodeOutOfRange { node: v, node_count })
    }
}

/// Converts a wire-width `k` to an in-process count without truncation:
/// a `k` beyond `usize::MAX` (possible on 32-bit targets) clamps to
/// "effectively all", never silently wraps to a small number.
#[inline]
fn k_to_usize(k: u64) -> usize {
    usize::try_from(k).unwrap_or(usize::MAX)
}

impl QueryRequest {
    /// Checks this request against a graph of `node_count` nodes without
    /// executing it: every referenced node must be in range, top-`k`
    /// requests need a positive `k`, batches must be non-empty, flat and
    /// element-wise valid. [`QueryService`] implementations validate
    /// through here so the CLI, the session, and the engine adapter agree
    /// on what is acceptable.
    pub fn validate(&self, node_count: u32) -> Result<(), QueryError> {
        let check = |v: NodeId| check_node(v, node_count);
        match self {
            QueryRequest::SinglePair { i, j } => {
                check(*i)?;
                check(*j)
            }
            QueryRequest::SingleSource { i } | QueryRequest::SingleSourcePush { i } => check(*i),
            QueryRequest::SingleSourceTopK { i, k } => {
                check(*i)?;
                if *k == 0 {
                    return Err(QueryError::InvalidK { k: *k });
                }
                Ok(())
            }
            QueryRequest::PairsMatrix { rows, cols } => {
                if rows.is_empty() || cols.is_empty() {
                    return Err(QueryError::EmptyNodeSet);
                }
                rows.iter().chain(cols).try_for_each(|&v| check(v))
            }
            QueryRequest::Cohort { v } => check(*v),
            QueryRequest::Batch(reqs) => {
                if reqs.is_empty() {
                    return Err(QueryError::EmptyBatch);
                }
                reqs.iter().try_for_each(|r| match r {
                    QueryRequest::Batch(_) => Err(QueryError::NestedBatch),
                    other => other.validate(node_count),
                })
            }
        }
    }
}

/// The object-safe front door every query flows through.
///
/// Implemented by [`QuerySession`] (caching, batch-parallel serving) and
/// by [`CloudWalker`] (a thin adapter straight onto the engine). Holding
/// a `Box<dyn QueryService>` or `&dyn QueryService`, a caller — the CLI,
/// a test harness, a future HTTP/gRPC front-end — serves every query
/// kind without knowing which layer answers it.
///
/// Implementations validate with [`QueryRequest::validate`] before any
/// work: a malformed request returns its typed [`QueryError`] and never
/// panics. Batches fail as a whole on the first invalid member request.
pub trait QueryService: Send + Sync {
    /// Executes one request, returning the variant-matched response.
    fn execute(&self, req: QueryRequest) -> Result<QueryResponse, QueryError>;

    /// How many nodes the served graph has — the bound every node id in
    /// a request must respect. A network front door advertises this in
    /// its handshake ([`envelope::ServerInfo`]) so clients can
    /// pre-validate requests without a round trip.
    fn node_count(&self) -> u32;
}

/// Shared batch tail of both service implementations: `req` is already
/// validated (non-empty, flat), so just execute the members in order.
fn execute_batch<S: QueryService + ?Sized>(
    svc: &S,
    reqs: Vec<QueryRequest>,
) -> Result<QueryResponse, QueryError> {
    reqs.into_iter()
        .map(|r| svc.execute(r))
        .collect::<Result<Vec<_>, _>>()
        .map(QueryResponse::Batch)
}

impl QueryService for CloudWalker {
    /// Serves straight from the engine: no caching, every cohort is
    /// simulated fresh. Numerically identical to the direct checked
    /// methods ([`CloudWalker::try_single_pair`] and friends).
    fn execute(&self, req: QueryRequest) -> Result<QueryResponse, QueryError> {
        req.validate(CloudWalker::node_count(self))?;
        Ok(match req {
            QueryRequest::SinglePair { i, j } => QueryResponse::Score(self.try_single_pair(i, j)?),
            QueryRequest::SingleSource { i } => QueryResponse::Scores(self.try_single_source(i)?),
            QueryRequest::SingleSourcePush { i } => {
                QueryResponse::Scores(self.try_single_source_push(i)?)
            }
            QueryRequest::SingleSourceTopK { i, k } => {
                QueryResponse::Ranked(self.try_single_source_topk(i, k_to_usize(k))?)
            }
            QueryRequest::PairsMatrix { rows, cols } => {
                let m = rows
                    .iter()
                    .map(|&i| {
                        cols.iter().map(|&j| self.try_single_pair(i, j)).collect::<Result<_, _>>()
                    })
                    .collect::<Result<_, _>>()?;
                QueryResponse::Matrix(m)
            }
            QueryRequest::Cohort { v } => QueryResponse::Cohort(self.try_query_cohort(v)?),
            QueryRequest::Batch(reqs) => return execute_batch(self, reqs),
        })
    }

    fn node_count(&self) -> u32 {
        CloudWalker::node_count(self)
    }
}

impl QueryService for QuerySession {
    /// Serves through the session: single-pair, matrix and cohort
    /// requests go through the cohort cache, single-source requests fan
    /// out to the shared engine. Answers are bitwise identical to the
    /// [`CloudWalker`] adapter's (caching only removes re-simulation).
    fn execute(&self, req: QueryRequest) -> Result<QueryResponse, QueryError> {
        req.validate(self.walker().node_count())?;
        Ok(match req {
            QueryRequest::SinglePair { i, j } => QueryResponse::Score(self.try_single_pair(i, j)?),
            QueryRequest::SingleSource { i } => {
                QueryResponse::Scores(self.walker().try_single_source(i)?)
            }
            QueryRequest::SingleSourcePush { i } => {
                QueryResponse::Scores(self.walker().try_single_source_push(i)?)
            }
            QueryRequest::SingleSourceTopK { i, k } => {
                QueryResponse::Ranked(self.walker().try_single_source_topk(i, k_to_usize(k))?)
            }
            QueryRequest::PairsMatrix { rows, cols } => {
                QueryResponse::Matrix(self.try_pairs_matrix(&rows, &cols)?)
            }
            QueryRequest::Cohort { v } => {
                QueryResponse::Cohort(self.try_cohort(v)?.as_ref().clone())
            }
            QueryRequest::Batch(reqs) => return execute_batch(self, reqs),
        })
    }

    fn node_count(&self) -> u32 {
        self.walker().node_count()
    }
}

/// The `(Name, tag)` entries of one space (`framekind`, `queryerror`) of
/// the committed `WIRE_TAGS.manifest`, in file order.
#[cfg(test)]
pub(crate) fn manifest_tags(space: &str) -> Vec<(&'static str, u8)> {
    let lines = include_str!("../../../../WIRE_TAGS.manifest").lines();
    let entries = lines.filter(|l| !l.trim().is_empty() && !l.starts_with('#')).map(|l| {
        let words: Vec<&str> = l.split_whitespace().collect();
        assert_eq!(words.len(), 3, "manifest line {l:?}");
        (words[0], words[1], words[2].parse::<u8>().unwrap())
    });
    entries.filter(|&(s, ..)| s == space).map(|(_, name, tag)| (name, tag)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExecMode;
    use crate::SimRankConfig;
    use pasco_graph::generators;
    use std::sync::Arc;

    fn walker() -> Arc<CloudWalker> {
        let g = Arc::new(generators::barabasi_albert(90, 3, 7));
        Arc::new(CloudWalker::build(g, SimRankConfig::fast(), ExecMode::Local).unwrap())
    }

    #[test]
    fn validate_catches_every_malformed_shape() {
        let oob = |node| Err(QueryError::NodeOutOfRange { node, node_count: 10 });
        assert_eq!(QueryRequest::SinglePair { i: 3, j: 10 }.validate(10), oob(10));
        assert_eq!(QueryRequest::SingleSource { i: 11 }.validate(10), oob(11));
        assert_eq!(QueryRequest::SingleSourcePush { i: 99 }.validate(10), oob(99));
        assert_eq!(QueryRequest::SingleSourceTopK { i: 10, k: 5 }.validate(10), oob(10));
        assert_eq!(
            QueryRequest::SingleSourceTopK { i: 1, k: 0 }.validate(10),
            Err(QueryError::InvalidK { k: 0 })
        );
        assert_eq!(
            QueryRequest::PairsMatrix { rows: vec![1], cols: vec![] }.validate(10),
            Err(QueryError::EmptyNodeSet)
        );
        assert_eq!(
            QueryRequest::PairsMatrix { rows: vec![1, 12], cols: vec![2] }.validate(10),
            oob(12)
        );
        assert_eq!(QueryRequest::Cohort { v: 10 }.validate(10), oob(10));
        assert_eq!(QueryRequest::Batch(vec![]).validate(10), Err(QueryError::EmptyBatch));
        assert_eq!(
            QueryRequest::Batch(vec![QueryRequest::Batch(vec![QueryRequest::SingleSource {
                i: 1
            }])])
            .validate(10),
            Err(QueryError::NestedBatch)
        );
        assert_eq!(
            QueryRequest::Batch(vec![
                QueryRequest::SinglePair { i: 1, j: 2 },
                QueryRequest::Cohort { v: 3 },
            ])
            .validate(10),
            Ok(())
        );
    }

    #[test]
    fn engine_adapter_answers_match_direct_methods() {
        let cw = walker();
        let svc: &dyn QueryService = cw.as_ref();
        match svc.execute(QueryRequest::SinglePair { i: 3, j: 40 }).unwrap() {
            QueryResponse::Score(s) => assert_eq!(s, cw.try_single_pair(3, 40).unwrap()),
            other => panic!("wrong variant {other:?}"),
        }
        match svc.execute(QueryRequest::SingleSourceTopK { i: 3, k: 5 }).unwrap() {
            QueryResponse::Ranked(r) => assert_eq!(r, cw.try_single_source_topk(3, 5).unwrap()),
            other => panic!("wrong variant {other:?}"),
        }
        match svc.execute(QueryRequest::Cohort { v: 3 }).unwrap() {
            QueryResponse::Cohort(c) => assert_eq!(c, cw.try_query_cohort(3).unwrap()),
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn out_of_range_is_an_error_not_a_panic() {
        let cw = walker();
        let svc: &dyn QueryService = cw.as_ref();
        let err = svc.execute(QueryRequest::SinglePair { i: 0, j: 1_000 }).unwrap_err();
        assert_eq!(err, QueryError::NodeOutOfRange { node: 1_000, node_count: 90 });
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn batch_collects_in_order_and_fails_as_a_whole() {
        let cw = walker();
        let svc: &dyn QueryService = cw.as_ref();
        let resp = svc
            .execute(QueryRequest::Batch(vec![
                QueryRequest::SinglePair { i: 1, j: 2 },
                QueryRequest::SingleSourceTopK { i: 1, k: 3 },
            ]))
            .unwrap();
        match resp {
            QueryResponse::Batch(items) => {
                assert_eq!(items.len(), 2);
                assert!(matches!(items[0], QueryResponse::Score(_)));
                assert!(matches!(items[1], QueryResponse::Ranked(_)));
            }
            other => panic!("wrong variant {other:?}"),
        }
        let err = svc
            .execute(QueryRequest::Batch(vec![
                QueryRequest::SinglePair { i: 1, j: 2 },
                QueryRequest::SingleSource { i: 5_000 },
            ]))
            .unwrap_err();
        assert!(matches!(err, QueryError::NodeOutOfRange { node: 5_000, .. }));
    }

    #[test]
    fn query_service_is_object_safe_and_send_sync() {
        fn assert_send_sync<T: Send + Sync + ?Sized>() {}
        assert_send_sync::<dyn QueryService>();
        let cw = walker();
        let boxed: Box<dyn QueryService> = Box::new(QuerySession::new(cw, 16));
        assert!(boxed.execute(QueryRequest::SinglePair { i: 0, j: 1 }).is_ok());
    }
}
