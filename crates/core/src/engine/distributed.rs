//! The distributed substrate: real RPC workers behind the envelope
//! protocol.
//!
//! This is the paper's deployment made literal — no simulated runtime,
//! actual processes, actual sockets, actual serialised bytes:
//!
//! * [`DistributedEngine`] (the **coordinator**) range-partitions the
//!   graph with the same [`Partitioner`] the sharded storage uses, ships
//!   each partition's `PASCOSH1` shard image to `pasco worker` processes
//!   over TCP (or, given a store directory the workers can reach, just
//!   its path), routes the offline walk phase and every query to the
//!   worker owning its source, and finishes top-`k` with a k-way merge
//!   (`merge_ranked`) of the per-partition rankings the worker emits
//!   (`topk_lists`) — the one plan where only `k` candidates per
//!   partition cross the wire.
//! * [`ShardWorkerCore`] (the **worker half**, hosted by the
//!   `pasco_worker` crate's TCP shell) keeps **one storage, two ways to
//!   obtain its bytes**: shard images arriving in [`LoadPartition`]
//!   frames and shard files named by a [`LoadStore`] frame go through the
//!   store's one validator and end up as the same [`MappedStore`] the
//!   out-of-core engine runs on. It answers build/query/top-k requests
//!   through the *same* generic entry points as the in-process
//!   [`super::kernel::KernelEngine`] ([`queries::single_pair_on`],
//!   [`queries::single_source_on`], [`queries::query_cohort_on`]).
//!
//! ## Work partitions; adjacency replicates
//!
//! Walkers wander across partition boundaries, so every worker holds the
//! full partition set (the broadcast side of CloudWalker's design) while
//! *work* — rows built, cohorts simulated, queries answered — belongs
//! exclusively to the owner of the source node (the partition-by-source
//! side). Per-worker compute shrinks as `1/workers`; resident adjacency
//! does not. Per-step walker shuffling (the RDD model over real sockets)
//! is the road not taken here: it trades that memory for a network round
//! trip per walk step, which the simulated [`super::rdd`] engine already
//! quantifies as orders of magnitude more shuffle traffic.
//!
//! ## Bit-identity
//!
//! The offline build walks on workers and solves on the coordinator: the
//! walk phase (the `O(n·R·T)` term that dominates) distributes, the `L`
//! Jacobi sweeps (cheap, `O(nnz)` each) run over the assembled rows
//! through the very same [`solve_rows`] call as the in-process engine.
//! Since each walk step's randomness is a pure function of
//! `(seed, source, walker, step)` and workers execute the shared
//! kernels over a view that answers adjacency exactly like the resident
//! graph, every result — index, MCSP, dense MCSS, top-`k`, cohorts — is
//! **bit-identical** to Local and Sharded at every worker count
//! (`tests/distributed.rs` proves it over real loopback TCP).
//!
//! ## Accounting and failure
//!
//! The cluster accounting here records *real* encoded frame sizes and
//! measured transfer times, not the simulated estimates of the
//! broadcast/RDD engines ([`SimRankEngine::cluster_report`] parity), and
//! [`SimRankEngine::worker_stats`] polls live [`WorkerStats`] off each
//! worker. A faulted link retries its request once over a fresh
//! connection — worker state survives *connection* loss, so a network
//! blip heals transparently — and a worker that is truly gone surfaces
//! as [`QueryError::WorkerUnavailable`] (build faults wrap it in
//! [`SimRankError::Query`]): no hang, no panic, queries routed to
//! surviving workers keep answering, and a worker that *restarted*
//! empty keeps failing typed ("partition set not loaded") until the
//! engine is rebuilt to re-provision it.

use crate::ai::{RecomputedRows, StoredRows};
use crate::api::envelope::{Envelope, FrameKind, ServerInfo, DEFAULT_MAX_FRAME};
use crate::api::transport::{read_envelope, write_envelope};
use crate::api::wire::WireCodec;
use crate::api::worker::{
    diag_fingerprint, BuildShard, BuildShardReply, DiagPayload, Empty, LoadAck, LoadPartition,
    LoadStore, ShardQuery, ShardQueryKind, ShardTopK, ShardTopKReply, WorkerStats,
};
use crate::api::{check_node, QueryError, QueryResponse};
use crate::config::{AiStrategy, SimRankConfig};
use crate::diag::DiagonalIndex;
use crate::engine::kernel::solve_rows;
use crate::engine::{BuildOutcome, EngineFootprint, SimRankEngine};
use crate::error::SimRankError;
use crate::queries::{self, rank_topk, ranking_cmp, sparse_masses_on};
use pasco_cluster::metrics::{MetricsLog, ShuffleMetrics, StageMetrics};
use pasco_cluster::ClusterReport;
use pasco_graph::adjacency::WalkAdjacency;
use pasco_graph::partition::Partitioner;
use pasco_graph::partitioned::partition_graph;
use pasco_graph::{CsrGraph, NodeId};
use pasco_mc::walks::StepDistributions;
use pasco_solver::jacobi::RowSource;
use pasco_store::{write_partition, MappedShard, MappedStore, ShardHeader};
use rayon::prelude::*;
use std::io::{BufReader, Cursor};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// One sparse row of the linear system, sorted by column.
type Row = Vec<(u32, f64)>;

// ====================================================================
// Worker half
// ====================================================================

/// The worker-side compute core: everything a SimRank worker does
/// between frames, with the transport stripped away (the `pasco_worker`
/// crate wraps this in a TCP loop; tests drive it directly).
///
/// Lifecycle: constructed empty, then provisioned one of two ways — fed
/// [`LoadPartition`] images until the full shard set is held (the store
/// assembles on the last one), or handed a store directory in one
/// [`LoadStore`] message — after which it serves builds and routed
/// queries for its owned partition from the one [`MappedStore`] either
/// way.
#[derive(Debug, Default)]
pub struct ShardWorkerCore {
    /// Shard images received in this provisioning round, by partition.
    pending: Vec<Option<MappedShard>>,
    /// Set by the first load frame of a round: `(n, parts, owned)`.
    shape: Option<(u32, u32, u32)>,
    /// The assembled routed store, once every shard is held.
    view: Option<Arc<MappedStore>>,
    /// The diagonal last shipped to this worker, keyed by fingerprint.
    diag: Option<(u64, Vec<f64>)>,
    builds: u64,
    queries: u64,
    topk_queries: u64,
}

impl ShardWorkerCore {
    /// An empty worker awaiting its partition set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Node count of the (announced) graph; 0 before the first load.
    pub fn node_count(&self) -> u32 {
        self.shape.map_or(0, |(n, _, _)| n)
    }

    /// True once every announced partition is held and queries can be
    /// served.
    pub fn ready(&self) -> bool {
        self.view.is_some()
    }

    fn not_ready(&self, what: &str) -> QueryError {
        QueryError::WorkerUnavailable {
            detail: format!(
                "{what} before the partition set finished loading ({}/{} partitions resident)",
                self.pending.iter().flatten().count(),
                self.shape.map_or(0, |(_, parts, _)| parts),
            ),
        }
    }

    /// Accepts one [`LoadPartition`] frame. The image is validated exactly
    /// as a shard file is at open ([`MappedShard::from_bytes`]: header,
    /// section table, offset spines — not the `O(image)` payload
    /// checksum, which stays the explicit `verify` it is for files), and
    /// the complete set exactly as a store directory is
    /// ([`MappedStore::from_shards`]: shapes, indices, range tiling), so a
    /// coordinator/worker disagreement is a typed error at load time, not
    /// a wrong answer at query time.
    ///
    /// A frame on an already-ready core, or one whose `(n, parts,
    /// owned_part)` differs from the round in progress (a coordinator
    /// that died mid-provisioning left it behind), starts a *fresh*
    /// round: the old store, pending images and diagonal cache are
    /// dropped, the serving counters survive.
    pub fn load_partition(&mut self, msg: LoadPartition) -> Result<LoadAck, QueryError> {
        let invalid = |detail: String| QueryError::WorkerUnavailable { detail };
        let shard = MappedShard::from_bytes(&msg.image)
            .map_err(|e| invalid(format!("partition image: {e}")))?;
        // Validated: `n` fits u32 and `part_index < parts`.
        let ShardHeader { n, parts, part_index, .. } = *MappedShard::header(&shard);
        let n = n as u32;
        if n == 0 {
            return Err(invalid("empty partition set announced".into()));
        }
        if msg.owned_part >= parts {
            return Err(invalid(format!(
                "owned partition {} out of range for {parts} parts",
                msg.owned_part
            )));
        }
        let shape = Some((n, parts, msg.owned_part));
        if self.view.is_some() || self.shape != shape {
            self.view = None;
            self.diag = None;
            self.shape = shape;
            self.pending = (0..parts).map(|_| None).collect();
        }
        self.pending[part_index as usize] = Some(shard);
        let loaded = self.pending.iter().flatten().count() as u32;
        if loaded < parts {
            return Ok(LoadAck { resident_bytes: self.resident_bytes(), loaded });
        }
        // Every slot is occupied; end the round whatever the outcome, so a
        // refused set does not linger as a half-announced shape.
        self.shape = None;
        let shards = self.pending.drain(..).flatten().collect();
        let store =
            MappedStore::from_shards(shards).map_err(|e| invalid(format!("partition set: {e}")))?;
        Ok(self.install(store, msg.owned_part))
    }

    /// Accepts one [`LoadStore`] frame: maps the named store directory
    /// in place and becomes query-ready in a single exchange. The
    /// store's own validation (headers against file sizes, shard set
    /// against the range partitioner) is the shape check here, and its
    /// on-disk diagonal slice is composed and installed in the
    /// fingerprint cache — so neither the `O(E)` adjacency nor the
    /// `O(n)` diagonal ever crosses the wire.
    ///
    /// Whatever provisioning round was in progress or complete is
    /// replaced.
    pub fn load_store(&mut self, msg: LoadStore) -> Result<LoadAck, QueryError> {
        let invalid = |detail: String| QueryError::WorkerUnavailable { detail };
        let store =
            MappedStore::open(&msg.dir).map_err(|e| invalid(format!("store {}: {e}", msg.dir)))?;
        if store.node_count() == 0 {
            return Err(invalid(format!("store {} holds an empty graph", msg.dir)));
        }
        let parts = MappedStore::parts(&store);
        if msg.owned_part >= parts {
            return Err(invalid(format!(
                "owned partition {} out of range for a {parts}-shard store",
                msg.owned_part
            )));
        }
        Ok(self.install(store, msg.owned_part))
    }

    /// The tail both provisioning paths share: `store` becomes the one
    /// storage this worker serves from. A diagonal the shards carry is
    /// installed under its fingerprint; a graph-only store installs none.
    fn install(&mut self, store: MappedStore, owned_part: u32) -> LoadAck {
        let diag = store.compose_diag();
        self.diag = (!diag.is_empty()).then(|| (diag_fingerprint(&diag), diag));
        self.pending.clear();
        self.shape = Some((store.node_count(), store.parts(), owned_part));
        let ack = LoadAck { resident_bytes: store.mapped_bytes(), loaded: store.parts() };
        self.view = Some(Arc::new(store));
        ack
    }

    /// Image bytes held: the assembled store's, or the pending round's.
    fn resident_bytes(&self) -> u64 {
        match &self.view {
            Some(store) => store.mapped_bytes(),
            None => self.pending.iter().flatten().map(MappedShard::mapped_bytes).sum(),
        }
    }

    fn owned_range(&self) -> Result<(u32, u32), QueryError> {
        let Some((n, parts, owned)) = self.shape else {
            return Err(self.not_ready("owned range requested"));
        };
        #[allow(
            clippy::expect_used,
            reason = "`owned >= parts` is rejected at load time, and a range partitioner has a \
                      range for every index below `parts`"
        )]
        let range = Partitioner::range(n, parts).range_of(owned).expect("range partitioner");
        Ok(range)
    }

    /// The shard-local offline build: each owned source's row `aᵢ` from
    /// the row kernel every engine uses ([`RecomputedRows`]), walked
    /// through the routed view — rayon-parallel over sources, shipped as
    /// `(column, value)` rows.
    pub fn build(&mut self, cfg: &SimRankConfig) -> Result<BuildShardReply, QueryError> {
        let view = self.routed_view()?;
        let (start, end) = self.owned_range()?;
        let source = RecomputedRows::of(view, cfg);
        let rows: Vec<Row> = (start..end)
            .into_par_iter()
            .map_init(Default::default, |scratch, i| {
                let (cols, vals) = source.row(i, scratch);
                cols.iter().copied().zip(vals.iter().copied()).collect()
            })
            .collect();
        self.builds += 1;
        Ok(BuildShardReply { rows })
    }

    /// Installs a shipped diagonal and checks the requested fingerprint
    /// is resident. Split from [`ShardWorkerCore::cached_diag`] (the
    /// immutable re-borrow) so the hot query path never copies the
    /// `O(n)` vector just to appease the borrow checker.
    fn resolve_diag(&mut self, payload: DiagPayload) -> Result<(), QueryError> {
        if let Some(values) = payload.values {
            let fp = diag_fingerprint(&values);
            if fp != payload.fingerprint {
                return Err(QueryError::WorkerUnavailable {
                    detail: "shipped diagonal does not match its fingerprint".into(),
                });
            }
            self.diag = Some((fp, values));
        }
        match &self.diag {
            Some((fp, _)) if *fp == payload.fingerprint => Ok(()),
            _ => Err(QueryError::WorkerUnavailable {
                detail: format!(
                    "diagonal {:#018x} is not cached on this worker; re-ship it",
                    payload.fingerprint
                ),
            }),
        }
    }

    /// The diagonal a successful [`ShardWorkerCore::resolve_diag`] left
    /// resident.
    fn cached_diag(&self) -> Result<&[f64], QueryError> {
        match &self.diag {
            Some((_, values)) => Ok(values),
            None => Err(QueryError::WorkerUnavailable {
                detail: "query routed before its diagonal was resolved".into(),
            }),
        }
    }

    /// The routed view as a typed error when loading has not finished.
    fn routed_view(&self) -> Result<&MappedStore, QueryError> {
        match &self.view {
            Some(store) => Ok(store),
            None => Err(self.not_ready("request arrived")),
        }
    }

    /// What a scored query runs on: the routed view plus the diagonal
    /// `payload` names (installed first when it ships one).
    fn scored(&mut self, payload: DiagPayload) -> Result<(&MappedStore, &[f64]), QueryError> {
        self.resolve_diag(payload)?;
        Ok((self.routed_view()?, self.cached_diag()?))
    }

    /// Answers one routed [`ShardQuery`]: MCSP, dense MCSS, or a raw
    /// cohort — raw (unclamped) estimates through the same entry points
    /// as the in-process engine.
    pub fn query(&mut self, msg: ShardQuery) -> Result<QueryResponse, QueryError> {
        let n = WalkAdjacency::node_count(self.routed_view()?);
        let cfg = msg.cfg;
        let resp = match msg.kind {
            ShardQueryKind::SinglePair { i, j } => {
                check_node(i, n)?;
                check_node(j, n)?;
                let (view, diag) = self.scored(msg.diag)?;
                QueryResponse::Score(queries::single_pair_on(view, diag, &cfg, i, j))
            }
            ShardQueryKind::SingleSource { i } => {
                check_node(i, n)?;
                let (view, diag) = self.scored(msg.diag)?;
                QueryResponse::Scores(queries::single_source_on(view, diag, &cfg, i))
            }
            // Cohorts are score-free: the diagonal payload is ignored
            // (the coordinator sends a placeholder and leaves its
            // per-link cache state untouched).
            ShardQueryKind::Cohort { v } => {
                check_node(v, n)?;
                QueryResponse::Cohort(queries::query_cohort_on(self.routed_view()?, &cfg, v))
            }
        };
        self.queries += 1;
        Ok(resp)
    }

    /// Answers one [`ShardTopK`]: the owning worker's half of the
    /// distributed top-`k` plan — per-partition rankings out, the
    /// coordinator merges.
    pub fn topk(&mut self, msg: ShardTopK) -> Result<ShardTopKReply, QueryError> {
        check_node(msg.i, WalkAdjacency::node_count(self.routed_view()?))?;
        let (view, diag) = self.scored(msg.diag)?;
        let k = usize::try_from(msg.k).unwrap_or(usize::MAX);
        let lists = topk_lists(view, diag, &msg.cfg, msg.i, k);
        self.topk_queries += 1;
        Ok(ShardTopKReply { lists })
    }

    /// The worker's runtime report.
    pub fn stats(&self) -> WorkerStats {
        let owned_part = self.shape.map_or(0, |(_, _, owned)| owned);
        // `install` checked `owned < parts` against this very store.
        let owned = self.view.as_ref().and_then(|store| store.shards().get(owned_part as usize));
        let (owned_nodes, owned_bytes) = owned.map_or((0, 0), |s| (s.len(), s.mapped_bytes()));
        WorkerStats {
            owned_part,
            owned_nodes,
            resident_bytes: self.resident_bytes(),
            owned_bytes,
            builds: self.builds,
            queries: self.queries,
            topk_queries: self.topk_queries,
        }
    }
}

// ====================================================================
// The distributed top-k plan (worker ranks, coordinator merges)
// ====================================================================

/// The worker's stage: simulate `i`'s cohort on `view`, accumulate the
/// sparse masses, split the candidates by owning partition, and rank
/// each split with [`rank_topk`] — one already-sorted list per
/// partition, ready for [`merge_ranked`]. A single global `rank_topk`
/// gives the same answer (what the in-process engine does; the tests
/// assert the equality); the split-rank-merge shape exists so that only
/// `k` candidates per partition ever cross the wire.
fn topk_lists(
    view: &MappedStore,
    diag: &[f64],
    cfg: &SimRankConfig,
    i: NodeId,
    k: usize,
) -> Vec<Vec<(NodeId, f64)>> {
    let partitioner: Partitioner = view.partitioner();
    let dists = queries::query_cohort_on(view, cfg, i);
    let acc = sparse_masses_on(view, &dists, diag, cfg);
    let mut by_shard: Vec<Vec<(NodeId, f64)>> = vec![Vec::new(); partitioner.parts() as usize];
    for (node, mass) in acc.iter() {
        by_shard[partitioner.owner(node) as usize].push((node, mass));
    }
    by_shard.into_par_iter().map(|entries| rank_topk(entries, i, k)).collect()
}

/// The coordinator's stage: k-way merge of per-partition rankings, each
/// already sorted by [`ranking_cmp`]; picks the globally best head until
/// `k` entries are out. Equivalent to ranking the union through
/// [`rank_topk`] because the comparator is a total order over unique
/// node ids.
fn merge_ranked(lists: &[Vec<(NodeId, f64)>], k: usize) -> Vec<(NodeId, f64)> {
    let mut heads = vec![0usize; lists.len()];
    let mut out = Vec::with_capacity(k.min(lists.iter().map(Vec::len).sum()));
    while out.len() < k {
        let mut best: Option<usize> = None;
        for (s, list) in lists.iter().enumerate() {
            if heads[s] >= list.len() {
                continue;
            }
            best = match best {
                None => Some(s),
                Some(b) => {
                    if ranking_cmp(&list[heads[s]], &lists[b][heads[b]]).is_lt() {
                        Some(s)
                    } else {
                        Some(b)
                    }
                }
            };
        }
        match best {
            None => break,
            Some(b) => {
                out.push(lists[b][heads[b]]);
                heads[b] += 1;
            }
        }
    }
    out
}

// ====================================================================
// Coordinator half
// ====================================================================

/// Checks that a worker's cohort has the shape [`queries::query_cohort_on`]
/// gives `source` under `cfg` on `n` nodes before it is cached or scored:
/// [`queries::score_pair`] indexes the diagonal by node id and merges
/// histograms that must be strictly increasing.
fn check_cohort(
    d: &StepDistributions,
    source: NodeId,
    cfg: &SimRankConfig,
    n: u32,
) -> Result<(), String> {
    let walkers = u64::from(cfg.r_query);
    let (shape, want) = ((d.source, d.walkers, d.counts.len()), (source, cfg.r_query, cfg.t + 1));
    if shape != want || d.counts[0] != [(source, walkers)] {
        return Err(format!(
            "cohort (source, walkers, steps) {shape:?} for {want:?}, or a bad step 0"
        ));
    }
    for (t, step) in d.counts.iter().enumerate() {
        if !step.windows(2).all(|w| w[0].0 < w[1].0) {
            return Err(format!("cohort step {t}: node ids not strictly increasing"));
        }
        if let Some(&(v, _)) = step.last().filter(|&&(v, _)| v >= n) {
            return Err(format!("cohort step {t}: node {v} out of range for {n} nodes"));
        }
        let sum =
            step.iter().try_fold(0, |sum, &(_, c)| (1..=walkers).contains(&c).then_some(sum + c));
        if sum.is_none_or(|sum| sum > walkers) {
            return Err(format!("cohort step {t}: counts not in 1..={walkers} or summing past it"));
        }
    }
    Ok(())
}

/// Why a worker exchange failed: a typed answer (the connection stays
/// usable) or a dead/broken link (poisoned until reconnect).
enum CallError {
    Typed(QueryError),
    Link(String),
}

/// One coordinator → worker connection plus the per-link protocol state.
struct WorkerLink {
    addr: String,
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    info: ServerInfo,
    next_id: u64,
    /// Fingerprint of the diagonal this worker has acknowledged, so
    /// queries ship 8 bytes instead of `8n` once the worker is warm.
    diag_fp: Option<u64>,
    alive: bool,
}

impl WorkerLink {
    fn connect(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let _ = stream.set_nodelay(true);
        let reader_half = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        let mut link = WorkerLink {
            addr: addr.to_string(),
            stream,
            reader: BufReader::new(reader_half),
            info: ServerInfo { node_count: 0, max_frame_bytes: DEFAULT_MAX_FRAME },
            next_id: 1,
            diag_fp: None,
            alive: true,
        };
        write_envelope(&mut link.stream, &Envelope::hello()).map_err(|e| format!("hello: {e}"))?;
        let ack = read_envelope(&mut link.reader, DEFAULT_MAX_FRAME)
            .map_err(|e| format!("hello: {e}"))?;
        if ack.kind != FrameKind::HelloAck {
            return Err(format!("handshake answered with {:?}", ack.kind));
        }
        link.info = ack.decode_server_info().map_err(|e| format!("handshake: {e}"))?;
        Ok(link)
    }

    /// One request/reply exchange. Replies echo the request id and kind;
    /// an error frame decodes to the typed failure. Any transport or
    /// protocol fault kills the link. Returns the reply envelope plus
    /// the total wire bytes moved (request + reply, headers included).
    fn exchange(&mut self, kind: FrameKind, payload: &[u8]) -> Result<(Envelope, u64), CallError> {
        if !self.alive {
            return Err(CallError::Link("link is down after an earlier fault".into()));
        }
        if payload.len() as u64 > u64::from(self.info.max_frame_bytes) {
            // Nothing was written: the link stays usable.
            return Err(CallError::Link(format!(
                "request of {} bytes exceeds the worker's {}-byte frame limit",
                payload.len(),
                self.info.max_frame_bytes
            )));
        }
        let id = self.next_id;
        self.next_id += 1;
        let env = Envelope { kind, request_id: id, payload: payload.to_vec() };
        let mut bytes = env.encoded_len() as u64;
        if let Err(e) = write_envelope(&mut self.stream, &env) {
            self.alive = false;
            return Err(CallError::Link(format!("send: {e}")));
        }
        // The worker answers requests in order, so the next frame is ours;
        // anything else is a protocol fault.
        let reply = match read_envelope(&mut self.reader, self.info.max_frame_bytes) {
            Ok(reply) => reply,
            Err(e) => {
                self.alive = false;
                return Err(CallError::Link(format!("recv: {e}")));
            }
        };
        bytes += reply.encoded_len() as u64;
        if reply.request_id != id {
            self.alive = false;
            return Err(CallError::Link(format!(
                "reply for id {} while waiting on {id}",
                reply.request_id
            )));
        }
        if reply.kind == FrameKind::Error {
            return match reply.decode_error() {
                Ok(err) => Err(CallError::Typed(err)),
                Err(e) => {
                    self.alive = false;
                    Err(CallError::Link(format!("undecodable error frame: {e}")))
                }
            };
        }
        if reply.kind != kind {
            self.alive = false;
            return Err(CallError::Link(format!("{kind:?} answered with {:?}", reply.kind)));
        }
        Ok((reply, bytes))
    }

    /// One provisioning exchange: a load frame out, its [`LoadAck`] (plus
    /// the wire bytes moved) back, every failure flattened to text for the
    /// per-worker load report.
    fn load(&mut self, kind: FrameKind, payload: &[u8]) -> Result<(LoadAck, u64), String> {
        let (reply, bytes) = self.exchange(kind, payload).map_err(|e| match e {
            CallError::Typed(err) => err.to_string(),
            CallError::Link(detail) => detail,
        })?;
        let ack = LoadAck::from_bytes(&reply.payload).map_err(|e| format!("load ack: {e}"))?;
        Ok((ack, bytes))
    }
}

/// The 5th execution substrate: a coordinator over real `pasco worker`
/// processes. See the module docs for the architecture; see
/// [`DistributedEngine::connect`] for the partition-shipping handshake.
pub struct DistributedEngine {
    n: u32,
    partitioner: Partitioner,
    /// Owned-partition shard-image bytes per worker, in partition order
    /// (header and padding included, on both provisioning paths).
    owned_bytes: Vec<u64>,
    /// Largest full-shard-set footprint any worker reported.
    resident_bytes: u64,
    links: Vec<Mutex<WorkerLink>>,
    metrics: Mutex<MetricsLog>,
}

impl DistributedEngine {
    /// Connects to `addrs`, partitions `graph` one range per worker
    /// (capped so every worker owns at least one node — extra addresses
    /// are left untouched), and ships the full partition set to every
    /// worker as graph-only shard images (no index exists yet; queries
    /// ship the diagonal once per link through [`DiagPayload`]). The
    /// shipping is accounted as a real shuffle: encoded frame bytes, one
    /// record per shipped partition, measured wall time.
    ///
    /// # Errors
    /// [`SimRankError::Query`] wrapping [`QueryError::WorkerUnavailable`]
    /// when a worker cannot be reached, rejects a frame, or drops the
    /// connection mid-load.
    pub fn connect(graph: &CsrGraph, addrs: &[String]) -> Result<Self, SimRankError> {
        assert!(!addrs.is_empty(), "need at least one worker address");
        let n = graph.node_count();
        let partitioner: Partitioner = Partitioner::range_nonempty(n, addrs.len() as u32);
        let nparts = partitioner.parts();
        // Each partition serialises once, to the graph-only shard image
        // `pasco save-store` would write for it (no index exists yet);
        // the W provisioning threads frame the shared bytes.
        let images = partition_graph(graph, &partitioner)
            .iter()
            .enumerate()
            .map(|(q, part)| {
                let mut image = Cursor::new(Vec::new());
                write_partition(&mut image, (n, nparts), q as u32, part, &[])?;
                Ok(image.into_inner())
            })
            .collect::<Result<Vec<Vec<u8>>, SimRankError>>()?;
        let owned_bytes: Vec<u64> = images.iter().map(|image| image.len() as u64).collect();
        let frames = u64::from(nparts);
        Self::provision(
            n,
            partitioner,
            owned_bytes,
            addrs,
            "distribute/partitions",
            frames,
            |w, link| {
                let (mut bytes, mut resident) = (0u64, 0u64);
                for image in &images {
                    let msg = LoadPartition { owned_part: w, image: image.clone() };
                    let payload = WireCodec::to_bytes(&msg);
                    let (ack, moved) = link.load(FrameKind::LoadPartition, &payload)?;
                    bytes += moved;
                    resident = ack.resident_bytes;
                }
                Ok((bytes, resident))
            },
        )
    }

    /// Connects to `addrs` and provisions each worker from `store` by
    /// *path*: one [`LoadStore`] frame per worker instead of `parts`
    /// partition frames, so provisioning traffic is O(path length) and
    /// restart is O(1) in the graph's edge volume. The store directory
    /// must be reachable at the same path on every worker's filesystem
    /// (shared storage, or a prior copy) — the workers map it in place.
    ///
    /// The store carries the diagonal index too: every link starts with
    /// the store's diagonal fingerprint acknowledged, so queries never
    /// ship the `8n`-byte diagonal either.
    ///
    /// Needs at least `store.parts()` addresses (one worker per shard;
    /// extras are left untouched).
    ///
    /// # Errors
    /// [`SimRankError::InvalidConfig`] when too few addresses are given;
    /// [`SimRankError::Query`] wrapping [`QueryError::WorkerUnavailable`]
    /// when a worker cannot be reached or rejects the store.
    pub fn connect_store(store: &MappedStore, addrs: &[String]) -> Result<Self, SimRankError> {
        let n = store.node_count();
        let nparts = store.parts();
        if (addrs.len() as u32) < nparts {
            return Err(SimRankError::InvalidConfig(format!(
                "store has {nparts} shards but only {} worker addresses were given",
                addrs.len()
            )));
        }
        let partitioner = store.partitioner();
        let owned_bytes: Vec<u64> = store.shards().iter().map(|s| s.mapped_bytes()).collect();
        let fp = diag_fingerprint(&store.compose_diag());
        let dir = store.dir().to_string_lossy().into_owned();

        Self::provision(n, partitioner, owned_bytes, addrs, "distribute/store", 1, |w, link| {
            let payload = LoadStore { dir: dir.clone(), owned_part: w }.to_bytes();
            let (ack, bytes) = link.load(FrameKind::LoadStore, &payload)?;
            // The worker installed the store's own diagonal under this
            // fingerprint while acking the load.
            link.diag_fp = Some(fp);
            Ok((bytes, ack.resident_bytes))
        })
    }

    /// The scaffold both provisioning paths share: one thread per
    /// partition connects to its worker and runs `ship`, which returns
    /// the wire bytes it moved and the resident bytes the worker last
    /// acknowledged. A failed (or panicked) thread is a typed per-worker
    /// error, not a torn-down coordinator. The traffic is accounted as a
    /// real shuffle under `label`, `frames` load frames per worker.
    fn provision(
        n: u32,
        partitioner: Partitioner,
        owned_bytes: Vec<u64>,
        addrs: &[String],
        label: &str,
        frames: u64,
        ship: impl Fn(u32, &mut WorkerLink) -> Result<(u64, u64), String> + Sync,
    ) -> Result<Self, SimRankError> {
        let nparts = owned_bytes.len();
        let t0 = Instant::now();
        let results: Vec<Result<(WorkerLink, u64, u64), String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = addrs[..nparts]
                .iter()
                .enumerate()
                .map(|(w, addr)| {
                    let ship = &ship;
                    scope.spawn(move || {
                        let mut link = WorkerLink::connect(addr)?;
                        let (bytes, resident) = ship(w as u32, &mut link)?;
                        Ok((link, bytes, resident))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Err("load thread panicked".to_owned())))
                .collect()
        });

        let mut links = Vec::with_capacity(nparts);
        let mut total_bytes = 0u64;
        let mut resident_bytes = 0u64;
        for (w, result) in results.into_iter().enumerate() {
            let (link, bytes, resident) = result.map_err(|detail| {
                SimRankError::Query(QueryError::WorkerUnavailable {
                    detail: format!("worker {w} ({}): {detail}", addrs[w]),
                })
            })?;
            total_bytes += bytes;
            resident_bytes = resident_bytes.max(resident);
            links.push(Mutex::new(link));
        }

        let engine = DistributedEngine {
            n,
            partitioner,
            owned_bytes,
            resident_bytes,
            links,
            metrics: Mutex::new(MetricsLog::default()),
        };
        let records = frames * nparts as u64;
        engine.record_shuffle(label, total_bytes, records, records, t0.elapsed());
        Ok(engine)
    }

    /// How many workers (= partitions) this engine coordinates.
    pub fn workers(&self) -> usize {
        self.links.len()
    }

    /// Merges real wire traffic into the label's shuffle row (one row
    /// per label so per-query accounting stays O(1) in memory). Unlike
    /// the simulated engines, `est_network` here is *measured* transfer
    /// wall time.
    fn record_shuffle(&self, label: &str, bytes: u64, records: u64, messages: u64, wall: Duration) {
        let mut log = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(s) = log.shuffles.iter_mut().find(|s| s.label == label) {
            s.bytes += bytes;
            s.records += records;
            s.messages += messages;
            s.est_network += wall;
        } else {
            log.shuffles.push(ShuffleMetrics {
                label: label.to_string(),
                bytes,
                records,
                messages,
                est_network: wall,
            });
        }
    }

    /// One exchange with worker `w`, wire accounting included. `label`
    /// names the shuffle row; `make` builds the payload once the link's
    /// diagonal state is known (inside the lock).
    fn call(
        &self,
        w: usize,
        kind: FrameKind,
        label: &str,
        records: u64,
        make: impl FnOnce(&mut WorkerLink) -> Vec<u8>,
    ) -> Result<Envelope, QueryError> {
        let t0 = Instant::now();
        // A poisoned link lock means a caller panicked mid-protocol and
        // the stream may be desynced: fail this worker typed rather
        // than resume a half-written conversation.
        let mut link = self.links[w].lock().map_err(|_| QueryError::WorkerUnavailable {
            detail: format!("worker {w}: link poisoned by a panicked caller"),
        })?;
        if !link.alive {
            // The worker *process* may have outlived the broken
            // connection — its loaded partitions and diagonal cache
            // survive reconnects — so try one fresh connection before
            // declaring the partition unreachable. A worker that truly
            // died refuses the connect fast and the error stays typed.
            // (A worker that *restarted* accepts but answers queries
            // with a typed "partition set not loaded" error: rebuild
            // the engine to re-provision it.)
            let addr = link.addr.clone();
            match WorkerLink::connect(&addr) {
                Ok(fresh) => *link = fresh,
                Err(detail) => {
                    drop(link);
                    return Err(QueryError::WorkerUnavailable {
                        detail: format!("worker {w} ({addr}): reconnect failed: {detail}"),
                    });
                }
            }
        }
        let payload = make(&mut link);
        let mut result = link.exchange(kind, &payload);
        if matches!(result, Err(CallError::Link(_))) {
            // A fault on a previously-healthy link is most often a
            // network blip, not a dead worker: retry the same request
            // once over a fresh connection (queries and loads are pure,
            // so a replay is safe; the worker's loaded state survives
            // reconnects). A worker that truly died refuses the connect
            // fast and the original fault stands.
            if let Ok(fresh) = WorkerLink::connect(&link.addr) {
                *link = fresh;
                result = link.exchange(kind, &payload);
            }
        }
        if result.is_err() {
            // Forget the optimistic diagonal mark on *any* failure. A
            // typed reply may mean the worker's cache was wiped (a second
            // coordinator re-provisioned it) — without this, every retry
            // would send the cached fingerprint into the same "re-ship
            // it" error forever. A link fault clears it for the
            // reconnect path.
            link.diag_fp = None;
        }
        let addr = link.addr.clone();
        drop(link);
        match result {
            Ok((reply, bytes)) => {
                self.record_shuffle(label, bytes, records, 2, t0.elapsed());
                Ok(reply)
            }
            Err(CallError::Typed(err)) => Err(err),
            Err(CallError::Link(detail)) => Err(QueryError::WorkerUnavailable {
                detail: format!("worker {w} ({addr}): {detail}"),
            }),
        }
    }

    /// Builds the [`DiagPayload`] for a link: full on first contact with
    /// this diagonal, fingerprint-only once acknowledged. Optimistically
    /// marks the fingerprint shipped; [`DistributedEngine::call`] clears
    /// the mark again on any failed exchange.
    fn diag_payload(link: &mut WorkerLink, diag: &[f64]) -> DiagPayload {
        let fp = diag_fingerprint(diag);
        if link.diag_fp == Some(fp) {
            DiagPayload::cached(fp)
        } else {
            link.diag_fp = Some(fp);
            DiagPayload { fingerprint: fp, values: Some(diag.to_vec()) }
        }
    }

    fn owner(&self, v: NodeId) -> usize {
        self.partitioner.owner(v) as usize
    }

    /// Routes one [`ShardQuery`] to the owner of `route`. `diag` is
    /// `None` for score-free kinds ([`ShardQueryKind::Cohort`]): the
    /// worker ignores the diagonal payload there, so a placeholder is
    /// sent and the link's diagonal-cache state stays untouched —
    /// interleaving cohorts with scored queries must not force the
    /// `8n`-byte diagonal back onto the wire.
    fn routed_query(
        &self,
        diag: Option<&[f64]>,
        cfg: &SimRankConfig,
        route: NodeId,
        kind: ShardQueryKind,
    ) -> Result<QueryResponse, QueryError> {
        let w = self.owner(route);
        let reply = self.call(w, FrameKind::ShardQuery, "query/route", 1, |link| {
            let diag = match diag {
                Some(diag) => Self::diag_payload(link, diag),
                None => DiagPayload::cached(0),
            };
            ShardQuery { cfg: *cfg, diag, kind }.to_bytes()
        })?;
        QueryResponse::from_bytes(&reply.payload).map_err(|e| QueryError::WorkerUnavailable {
            detail: format!("worker {w}: bad response: {e}"),
        })
    }

    fn protocol_violation<T>(&self, w: usize, what: &str) -> Result<T, QueryError> {
        Err(QueryError::WorkerUnavailable { detail: format!("worker {w}: {what}") })
    }
}

impl SimRankEngine for DistributedEngine {
    fn name(&self) -> &'static str {
        "distributed"
    }

    fn build_diagonal(&self, cfg: &SimRankConfig) -> Result<BuildOutcome, SimRankError> {
        let t0 = Instant::now();
        // Every worker walks its owned sources concurrently; the rows
        // come back over the wire in partition order.
        let results: Vec<Result<(Vec<Row>, Duration), QueryError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.workers())
                .map(|w| {
                    scope.spawn(move || {
                        let tw = Instant::now();
                        let reply = self.call(w, FrameKind::BuildShard, "build/rows", 1, |_| {
                            BuildShard { cfg: *cfg }.to_bytes()
                        })?;
                        let rows = BuildShardReply::from_bytes(&reply.payload).map_err(|e| {
                            QueryError::WorkerUnavailable {
                                detail: format!("worker {w}: bad build reply: {e}"),
                            }
                        })?;
                        Ok((rows.rows, tw.elapsed()))
                    })
                })
                .collect();
            // A panicked build thread downgrades to a per-worker typed
            // error instead of tearing down the coordinator.
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        Err(QueryError::WorkerUnavailable {
                            detail: "build thread panicked".into(),
                        })
                    })
                })
                .collect()
        });

        let mut shard_rows = Vec::with_capacity(self.workers());
        let mut task_times = Vec::with_capacity(self.workers());
        for (w, result) in results.into_iter().enumerate() {
            let (rows, took) = result.map_err(SimRankError::Query)?;
            #[allow(
                clippy::expect_used,
                reason = "the engine's partitioner is `Partitioner::range` by construction and \
                          `w < workers() == parts`"
            )]
            let (start, end) = self.partitioner.range_of(w as u32).expect("range partitioner");
            if rows.len() != (end - start) as usize {
                return Err(SimRankError::Query(QueryError::WorkerUnavailable {
                    detail: format!(
                        "worker {w} returned {} rows for a {}-node partition",
                        rows.len(),
                        end - start
                    ),
                }));
            }
            shard_rows.push(rows);
            task_times.push(took);
        }

        // The cheap half stays on the coordinator: L Jacobi sweeps over
        // the assembled system — the identical solver call, so the
        // diagonal is bitwise the other engines'. Replies arrive in
        // partition order over a contiguous range partition, so
        // joining them *is* node order.
        let strategy = cfg.resolve_ai_strategy(self.n);
        let rows = StoredRows::from_parts(shard_rows);
        let result = solve_rows(&rows, cfg);
        // The workers materialised rows either way (they must, to ship
        // them); the reported footprint honours the strategy the other
        // engines would have used, keeping BuildOutcome comparable.
        let rows_bytes = match strategy {
            AiStrategy::Store | AiStrategy::Auto { .. } => Some(StoredRows::memory_bytes(&rows)),
            AiStrategy::Recompute => None,
        };

        let busy: Duration = task_times.iter().sum();
        let max_task = task_times.iter().copied().max().unwrap_or_default();
        {
            let mut log = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
            log.stages.push(StageMetrics {
                label: "build/walks".to_string(),
                tasks: self.workers(),
                wall: t0.elapsed(),
                busy,
                max_task,
                // No simulation on this substrate: the makespan is the
                // measured slowest worker.
                sim_makespan: max_task,
            });
        }

        Ok(BuildOutcome {
            diag: DiagonalIndex::new(result.x),
            strategy,
            residuals: result.residuals,
            rows_bytes,
            cluster: Some(self.metrics.lock().unwrap_or_else(PoisonError::into_inner).report()),
        })
    }

    fn query_cohort(
        &self,
        cfg: &SimRankConfig,
        source: NodeId,
    ) -> Result<StepDistributions, QueryError> {
        check_node(source, self.n)?;
        match self.routed_query(None, cfg, source, ShardQueryKind::Cohort { v: source })? {
            QueryResponse::Cohort(dists) => match check_cohort(&dists, source, cfg, self.n) {
                Ok(()) => Ok(dists),
                Err(why) => self.protocol_violation(self.owner(source), &why),
            },
            _ => self.protocol_violation(self.owner(source), "cohort answered with a non-cohort"),
        }
    }

    fn single_pair(
        &self,
        diag: &[f64],
        cfg: &SimRankConfig,
        i: NodeId,
        j: NodeId,
    ) -> Result<f64, QueryError> {
        check_node(i, self.n)?;
        check_node(j, self.n)?;
        if i == j {
            return Ok(1.0);
        }
        match self.routed_query(Some(diag), cfg, i, ShardQueryKind::SinglePair { i, j })? {
            QueryResponse::Score(s) => Ok(s),
            _ => self.protocol_violation(self.owner(i), "single-pair answered with a non-score"),
        }
    }

    fn single_source(
        &self,
        diag: &[f64],
        cfg: &SimRankConfig,
        i: NodeId,
    ) -> Result<Vec<f64>, QueryError> {
        check_node(i, self.n)?;
        match self.routed_query(Some(diag), cfg, i, ShardQueryKind::SingleSource { i })? {
            QueryResponse::Scores(scores) if scores.len() == self.n as usize => Ok(scores),
            QueryResponse::Scores(scores) => self.protocol_violation(
                self.owner(i),
                &format!("single-source row of {} entries for {} nodes", scores.len(), self.n),
            ),
            _ => self.protocol_violation(self.owner(i), "single-source answered with a non-row"),
        }
    }

    fn single_source_topk(
        &self,
        diag: &[f64],
        cfg: &SimRankConfig,
        i: NodeId,
        k: usize,
    ) -> Result<Vec<(NodeId, f64)>, QueryError> {
        check_node(i, self.n)?;
        let w = self.owner(i);
        let reply = self.call(w, FrameKind::ShardTopK, "query/topk", 1, |link| {
            ShardTopK { cfg: *cfg, diag: Self::diag_payload(link, diag), i, k: k as u64 }.to_bytes()
        })?;
        let lists = ShardTopKReply::from_bytes(&reply.payload).map_err(|e| {
            QueryError::WorkerUnavailable { detail: format!("worker {w}: bad top-k reply: {e}") }
        })?;
        // The coordinator's half of the plan, over lists that crossed
        // a real wire.
        Ok(merge_ranked(&lists.lists, k))
    }

    fn cluster_report(&self) -> Option<ClusterReport> {
        Some(self.metrics.lock().unwrap_or_else(PoisonError::into_inner).report())
    }

    fn memory_footprint(&self) -> EngineFootprint {
        // Adjacency replicates (each worker holds the full partition
        // set), so the per-worker demand does not shrink with workers —
        // `partitioned: false` is the honest flag; the owned-partition
        // breakdown below is what scales.
        EngineFootprint { per_worker_bytes: self.resident_bytes, partitioned: false }
    }

    fn shard_footprints(&self) -> Option<Vec<u64>> {
        Some(self.owned_bytes.clone())
    }

    fn worker_stats(&self) -> Option<Vec<Result<WorkerStats, QueryError>>> {
        let stats = (0..self.workers())
            .map(|w| {
                let reply =
                    self.call(w, FrameKind::WorkerStats, "control/stats", 1, |_| Empty.to_bytes())?;
                WorkerStats::from_bytes(&reply.payload).map_err(|e| QueryError::WorkerUnavailable {
                    detail: format!("worker {w}: bad stats: {e}"),
                })
            })
            .collect();
        Some(stats)
    }
}

impl std::fmt::Debug for DistributedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistributedEngine")
            .field("nodes", &self.n)
            .field("workers", &self.workers())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::kernel::build_diagonal_on;
    use pasco_graph::{generators, ReverseChainIndex};
    use pasco_store::{write_store, HEADER_LEN};

    /// The graph-only shard images `connect` ships for `g` at (at most)
    /// `workers` parts.
    fn images(g: &CsrGraph, workers: u32) -> Vec<Vec<u8>> {
        let n = g.node_count();
        let partitioner: Partitioner = Partitioner::range_nonempty(n, workers);
        let shape = (n, partitioner.parts());
        let parts = partition_graph(g, &partitioner);
        let image = |(q, part)| {
            let mut image = Cursor::new(Vec::new());
            write_partition(&mut image, shape, q as u32, part, &[]).unwrap();
            image.into_inner()
        };
        parts.iter().enumerate().map(image).collect()
    }

    /// One wire provisioning round; every frame must be acknowledged.
    fn ship(core: &mut ShardWorkerCore, owned_part: u32, images: &[Vec<u8>]) {
        for (q, image) in images.iter().enumerate() {
            let ack = core.load_partition(LoadPartition { owned_part, image: image.clone() });
            assert_eq!(ack.unwrap().loaded, q as u32 + 1);
            // Ready on the last frame, not before — whatever came earlier.
            assert_eq!(core.ready(), q + 1 == images.len(), "after frame {q}");
        }
    }

    /// Drives `ShardWorkerCore`s directly (no sockets): the wire-free
    /// half of the bit-identity proof. `tests/distributed.rs` repeats it
    /// over real loopback TCP.
    fn load_workers(g: &CsrGraph, workers: u32) -> Vec<ShardWorkerCore> {
        let images = images(g, workers);
        (0..images.len() as u32)
            .map(|w| {
                let mut core = ShardWorkerCore::new();
                ship(&mut core, w, &images);
                core
            })
            .collect()
    }

    /// SinglePair, dense MCSS, top-k lists and a cohort from `core`, the
    /// diagonal shipped as `payload` with the first of them.
    fn answers(
        core: &mut ShardWorkerCore,
        cfg: SimRankConfig,
        payload: DiagPayload,
        (i, j, k): (NodeId, NodeId, usize),
    ) -> (QueryResponse, QueryResponse, ShardTopKReply, QueryResponse) {
        let cached = DiagPayload::cached(payload.fingerprint);
        let mut ask = |diag, kind| core.query(ShardQuery { cfg, diag, kind }).unwrap();
        let pair = ask(payload, ShardQueryKind::SinglePair { i, j });
        let dense = ask(cached.clone(), ShardQueryKind::SingleSource { i });
        let cohort = ask(DiagPayload::cached(0), ShardQueryKind::Cohort { v: j });
        let lists = core.topk(ShardTopK { cfg, diag: cached, i, k: k as u64 }).unwrap();
        (pair, dense, lists, cohort)
    }

    #[test]
    fn worker_cores_rebuild_the_exact_rows_and_queries() {
        let g = generators::barabasi_albert(90, 3, 5);
        let rci = ReverseChainIndex::build(&g);
        let cfg = SimRankConfig::fast().with_seed(21);
        let out = build_diagonal_on(&g, &cfg);
        let diag = out.diag.as_slice();
        for workers in [1u32, 3] {
            let mut cores = load_workers(&g, workers);
            // Shipped rows, flattened in partition order, must solve to
            // the local diagonal.
            let rows: Vec<Row> =
                cores.iter_mut().flat_map(|c| c.build(&cfg).unwrap().rows).collect();
            let solved = solve_rows(&StoredRows::new(rows), &cfg);
            assert_eq!(DiagonalIndex::new(solved.x), out.diag, "{workers} workers");
            assert_eq!(solved.residuals, out.residuals, "{workers} workers");

            // Routed queries equal the resident kernels'; everything after
            // the first rides the cached fingerprint.
            let owner = Partitioner::range(g.node_count(), cores.len() as u32).owner(7) as usize;
            let (pair, dense, ShardTopKReply { lists }, cohort) =
                answers(&mut cores[owner], cfg, DiagPayload::full(diag), (7, 40, 8));
            assert_eq!(pair, QueryResponse::Score(queries::single_pair(&g, diag, &cfg, 7, 40)));
            assert_eq!(
                dense,
                QueryResponse::Scores(queries::single_source(&g, &rci, diag, &cfg, 7))
            );
            assert_eq!(cohort, QueryResponse::Cohort(queries::query_cohort(&g, &cfg, 40)));
            // Top-k lists merge to the global ranking.
            assert_eq!(lists.len(), cores.len(), "one ranking per partition");
            assert_eq!(
                merge_ranked(&lists, 8),
                queries::single_source_topk(&g, &rci, diag, &cfg, 7, 8)
            );
            let stats = cores[owner].stats();
            assert_eq!(stats.queries, 3);
            assert_eq!(stats.topk_queries, 1);
            assert!(stats.owned_bytes <= stats.resident_bytes);
        }
    }

    #[test]
    fn one_core_answers_identically_however_it_was_provisioned() {
        // wire → store → wire on ONE core: three rounds over the same
        // graph, the second from a saved store (which carries the
        // diagonal), every round bit-identical to the resident kernels.
        let g = generators::barabasi_albert(90, 3, 5);
        let rci = ReverseChainIndex::build(&g);
        let cfg = SimRankConfig::fast().with_seed(4);
        let diag = build_diagonal_on(&g, &cfg).diag;
        let diag = diag.as_slice();
        let fp = diag_fingerprint(diag);
        let ask = (11, 63, 6);
        let resident = (
            QueryResponse::Score(queries::single_pair(&g, diag, &cfg, 11, 63)),
            QueryResponse::Scores(queries::single_source(&g, &rci, diag, &cfg, 11)),
            queries::single_source_topk(&g, &rci, diag, &cfg, 11, 6),
            QueryResponse::Cohort(queries::query_cohort(&g, &cfg, 63)),
        );
        for parts in [1u32, 3, 7] {
            let images = images(&g, parts);
            let dir = std::env::temp_dir().join(format!("pasco_dist_rounds_{parts}"));
            let _ = std::fs::remove_dir_all(&dir);
            write_store(&dir, &g, diag, parts).unwrap();
            let mut core = ShardWorkerCore::new();
            for round in ["wire", "store", "wire again"] {
                let payload = if round == "store" {
                    let dir = dir.to_string_lossy().into_owned();
                    let ack = core.load_store(LoadStore { dir, owned_part: 0 }).unwrap();
                    assert_eq!(ack.loaded, parts);
                    // The store's own diagonal is already installed.
                    DiagPayload::cached(fp)
                } else {
                    ship(&mut core, 0, &images);
                    // A fresh wire round dropped whatever diagonal was cached.
                    let err = core
                        .topk(ShardTopK { cfg, diag: DiagPayload::cached(fp), i: 11, k: 6 })
                        .unwrap_err();
                    assert!(err.to_string().contains("not cached"), "{round}: {err}");
                    DiagPayload::full(diag)
                };
                let (pair, dense, ShardTopKReply { lists }, cohort) =
                    answers(&mut core, cfg, payload, ask);
                let got = (pair, dense, merge_ranked(&lists, 6), cohort);
                assert_eq!(got, resident, "{parts} parts, {round}");
                assert_eq!(lists.len(), parts as usize);
                // Both paths report the same quantity: image bytes. The
                // store's shards carry 8 more bytes per node, the diagonal.
                let graph_only: u64 = images.iter().map(|i| i.len() as u64).sum();
                let with_diag = if round == "store" { 8 * 90 } else { 0 };
                assert_eq!(core.stats().resident_bytes, graph_only + with_diag, "{round}");
            }
            assert_eq!(core.stats().queries, 9, "counters survive re-provisioning");
        }
    }

    #[test]
    fn an_abandoned_round_does_not_wedge_the_worker() {
        // A coordinator that died after 1 of 2 frames of graph A leaves a
        // half-announced shape behind; the next coordinator's different
        // shape must simply start over.
        let a = generators::cycle(10);
        let b = generators::barabasi_albert(60, 3, 9);
        let mut core = ShardWorkerCore::new();
        let first = images(&a, 2).swap_remove(0);
        assert_eq!(
            core.load_partition(LoadPartition { owned_part: 0, image: first }).unwrap().loaded,
            1
        );
        assert_eq!(core.node_count(), 10);
        ship(&mut core, 1, &images(&b, 3));
        assert_eq!(core.node_count(), 60);
        assert_eq!(core.stats().owned_part, 1);

        let rci = ReverseChainIndex::build(&b);
        let cfg = SimRankConfig::fast().with_seed(8);
        let diag = vec![0.6; 60];
        let (pair, _, ShardTopKReply { lists }, _) =
            answers(&mut core, cfg, DiagPayload::full(&diag), (5, 41, 4));
        assert_eq!(pair, QueryResponse::Score(queries::single_pair(&b, &diag, &cfg, 5, 41)));
        assert_eq!(
            merge_ranked(&lists, 4),
            queries::single_source_topk(&b, &rci, &diag, &cfg, 5, 4)
        );
    }

    #[test]
    fn merge_ranked_equals_global_ranking() {
        // Hand-built shard lists with a cross-shard tie: node ids break it.
        let lists =
            vec![vec![(0u32, 0.9), (2, 0.5), (4, 0.1)], vec![(5u32, 0.9), (1, 0.5), (3, 0.2)]];
        let merged = merge_ranked(&lists, 5);
        let all: Vec<(u32, f64)> = lists.concat();
        assert_eq!(merged, rank_topk(all, u32::MAX, 5));
        // Exhausting every list stops early.
        assert_eq!(merge_ranked(&lists, 100).len(), 6);
    }

    #[test]
    fn worker_core_rejects_unknown_fingerprints_and_early_queries() {
        let g = generators::cycle(12);
        let cfg = SimRankConfig::fast();
        let mut core = ShardWorkerCore::new();
        let err = core.build(&cfg).unwrap_err();
        assert!(matches!(err, QueryError::WorkerUnavailable { .. }), "{err}");
        let mut cores = load_workers(&g, 2);
        let err = cores[0]
            .query(ShardQuery {
                cfg,
                diag: DiagPayload::cached(0xdead),
                kind: ShardQueryKind::SingleSource { i: 0 },
            })
            .unwrap_err();
        assert!(err.to_string().contains("not cached"), "{err}");
        // A shipped diagonal whose fingerprint lies is refused.
        let err = cores[0]
            .query(ShardQuery {
                cfg,
                diag: DiagPayload { fingerprint: 1, values: Some(vec![0.5; 12]) },
                kind: ShardQueryKind::SingleSource { i: 0 },
            })
            .unwrap_err();
        assert!(err.to_string().contains("fingerprint"), "{err}");
        // Out-of-range nodes are typed errors, not worker panics.
        let err = cores[0]
            .query(ShardQuery {
                cfg,
                diag: DiagPayload::full(&[0.5; 12]),
                kind: ShardQueryKind::Cohort { v: 99 },
            })
            .unwrap_err();
        assert_eq!(err, QueryError::NodeOutOfRange { node: 99, node_count: 12 });
    }

    #[test]
    fn a_graph_only_store_installs_no_fingerprint() {
        // `LoadStore` of shards written before any index existed: the
        // worker is ready, but the diagonal has to be shipped, exactly as
        // after wire provisioning.
        let g = generators::cycle(12);
        let dir = std::env::temp_dir().join("pasco_dist_graph_only");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for (q, image) in images(&g, 2).iter().enumerate() {
            std::fs::write(dir.join(pasco_store::shard_file_name(q as u32)), image).unwrap();
        }
        let mut core = ShardWorkerCore::new();
        let dir = dir.to_string_lossy().into_owned();
        assert_eq!(core.load_store(LoadStore { dir, owned_part: 1 }).unwrap().loaded, 2);
        let cfg = SimRankConfig::fast();
        let empty = DiagPayload::cached(diag_fingerprint(&[]));
        let err = core.topk(ShardTopK { cfg, diag: empty, i: 3, k: 2 }).unwrap_err();
        assert!(err.to_string().contains("not cached"), "{err}");
        core.topk(ShardTopK { cfg, diag: DiagPayload::full(&[0.5; 12]), i: 3, k: 2 }).unwrap();
    }

    /// `LoadPartition { n: 6, parts: 2, owned_part: 0, part_index: 0,
    /// partition }.to_bytes()` for `cycle(6)` split two ways, recorded at
    /// the last commit whose tag 7 carried the field-by-field encoding.
    const OLD_TAG_7_PAYLOAD: [u8; 184] = [
        6, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 4, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0,
        3, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0,
        0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 1, 0, 0, 0,
        2, 0, 0, 0, 3, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 240, 63, 0, 0, 0, 0, 0, 0, 240, 63,
        0, 0, 0, 0, 0, 0, 240, 63, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 240, 63, 0, 0, 0, 0, 0, 0, 240,
        63, 0, 0, 0, 0, 0, 0, 240, 63,
    ];

    #[test]
    fn worker_core_validates_partition_shape() {
        let g = generators::cycle(10);
        let good = images(&g, 2);
        let mut core = ShardWorkerCore::new();
        // Every refusal is typed, carries the store's own error text, and
        // leaves the core unready.
        let refused = |core: &mut ShardWorkerCore, owned_part, image: &[u8], text: &str| {
            let err = core.load_partition(LoadPartition { owned_part, image: image.to_vec() });
            match err.unwrap_err() {
                QueryError::WorkerUnavailable { detail } => {
                    assert!(detail.contains(text), "wanted `{text}` in `{detail}`")
                }
                other => panic!("expected WorkerUnavailable, got {other}"),
            }
            assert!(!core.ready());
        };
        refused(&mut core, 0, &good[0][..good[0].len() - 1], "truncated");
        refused(&mut core, 0, &good[0][..HEADER_LEN - 1], "truncated");
        refused(&mut core, 0, &[], "truncated");
        let mut flipped = good[0].clone();
        flipped[33] ^= 0x10; // node count, not re-signed
        refused(&mut core, 0, &flipped, "header checksum mismatch");
        refused(&mut core, 2, &good[0], "owned partition 2 out of range for 2 parts");
        // The previous encoding of this very frame: its bytes 4..12 sit
        // where the magic belongs.
        let old: LoadPartition = WireCodec::from_bytes(&OLD_TAG_7_PAYLOAD).unwrap();
        assert_eq!((old.owned_part, old.image.len()), (6, 180));
        refused(&mut core, old.owned_part, &old.image, "bad store magic");

        // Part 1's image re-signed as part 0 passes every per-shard check
        // (its range lies inside the graph); the set as a whole does not
        // tile, which the last frame of the round reports.
        let mut header = ShardHeader::from_bytes(&good[1]).unwrap();
        header.part_index = 0;
        let mut forged = good[1].clone();
        forged[..HEADER_LEN].copy_from_slice(&ShardHeader::encode(&header));
        let ack = core.load_partition(LoadPartition { owned_part: 0, image: forged }).unwrap();
        assert_eq!(ack.loaded, 1);
        refused(&mut core, 0, &good[1], "part 0 covers [5, 10)");
        assert_eq!(core.node_count(), 0, "the refused round is over");

        // A correct set sent afterwards succeeds.
        ship(&mut core, 0, &good);
        assert_eq!(core.stats().owned_nodes, 5);
    }
}
