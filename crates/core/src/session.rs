//! Query sessions: a thread-safe serving layer with cohort caching and
//! parallel batch APIs on top of a shared [`CloudWalker`].
//!
//! Both MCSP and MCSS start by simulating the `R'`-walker cohort of the
//! query node — and the cohort depends only on `(seed, node)`. A workload
//! that touches the same nodes repeatedly (pairwise matrices, top-k
//! fan-out, A/B probes) re-simulates identical walks over and over.
//! [`QuerySession`] memoises cohorts so repeated queries pay only the
//! scoring merge, and exposes batch entry points that exploit sharing
//! explicitly (`try_pairs_matrix` warms each distinct node through the cache
//! at most once per block).
//!
//! The session is `Send + Sync` and every query takes `&self`: one session
//! serves many concurrent clients. The cohort cache is one exact LRU under
//! one lock — two ordered maps, node → (last use, cohort) and last use →
//! node, so a hit restamps in O(log n) and an insert past capacity pops the
//! oldest stamp — and the same lock guards a single-flight registry that
//! makes concurrent misses on the *same* node simulate its cohort exactly
//! once. Simulation runs outside the lock. Results are bitwise identical to
//! the underlying engine's; caching and concurrency only remove
//! re-simulation.
//!
//! The cache is flat, and so is every cohort from birth: a miss caches the
//! [`CohortBlock`] the engine answers with (one `u32` allocation, at most
//! 5 B an entry where the nested [`StepDistributions`] spend 16: a
//! one-byte count, counts of 255 or more kept exact in an escape list, and
//! each step's nodes as `u32` ids or as a bitmap, whichever is smaller) as
//! is. On the in-process engines that is the block the walk kernel writes on
//! the serving thread's scratch (≈ 1 MB a thread at `R′ = 10 000`, sized by
//! the configured `R′`, never shrunk), so a miss builds no nested histograms
//! and flattens nothing. Single-pair and matrix queries score straight from
//! the blocks through the one generic [`score_pair`] — the same products
//! in the same order, so the same bits, as over nested cohorts — and
//! [`QuerySession::try_cohort`] expands a block into a fresh
//! `StepDistributions`.
//!
//! A session bounds its cache by entry count alone ([`SessionConfig`]): a
//! cohort is a pure function of `(seed, source, R′, T)` and the walker
//! never changes, so an entry never goes stale. [`CacheStats`] accounts
//! every eviction alongside hits and misses, and
//! [`QuerySession::cached_bytes`] reports the resident cohorts' wire size.

use crate::api::wire::cohort_wire_len;
use crate::api::QueryError;
use crate::cloudwalker::CloudWalker;
use crate::queries::{pair_from_cohorts, score_pair};
use pasco_graph::NodeId;
use pasco_mc::walks::{CohortBlock, StepDistributions};
use rayon::prelude::*;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Splits `0..len` into consecutive index ranges of at most `block`.
fn chunked_indices(
    len: usize,
    block: usize,
) -> impl Iterator<Item = std::ops::Range<usize>> + Clone {
    (0..len.div_ceil(block)).map(move |b| (b * block)..((b + 1) * block).min(len))
}

/// Everything the session's one lock guards: the LRU over cohort blocks
/// and the single-flight registry.
#[derive(Default)]
struct Cache {
    /// Node → (last use, cohort).
    entries: BTreeMap<NodeId, (u64, Arc<CohortBlock>)>,
    /// Last use → node; the first entry is the least recently used.
    by_use: BTreeMap<u64, NodeId>,
    /// The last use stamp handed out.
    clock: u64,
    /// Entries evicted at capacity.
    evictions: u64,
    /// At most one simulation per node is ever in flight; concurrent
    /// misses on the same node wait for it instead of simulating again.
    inflight: BTreeMap<NodeId, Arc<InFlight>>,
}

impl Cache {
    fn get(&mut self, node: NodeId) -> Option<Arc<CohortBlock>> {
        let (stamp, value) = self.entries.get_mut(&node)?;
        self.by_use.remove(stamp);
        self.clock += 1;
        *stamp = self.clock;
        self.by_use.insert(self.clock, node);
        Some(Arc::clone(value))
    }

    /// Inserts `node` as the most recently used, evicting the least
    /// recently used past `capacity`.
    fn insert(&mut self, node: NodeId, value: Arc<CohortBlock>, capacity: usize) {
        self.clock += 1;
        if let Some((stamp, _)) = self.entries.insert(node, (self.clock, value)) {
            self.by_use.remove(&stamp);
        }
        self.by_use.insert(self.clock, node);
        if self.entries.len() > capacity {
            if let Some((_, oldest)) = self.by_use.pop_first() {
                self.entries.remove(&oldest);
                self.evictions += 1;
            }
        }
    }
}

/// Where one in-flight cohort simulation stands.
#[derive(Default)]
enum FlightState {
    /// The leader is still simulating.
    #[default]
    Pending,
    /// The leader published its cohort.
    Done(Arc<CohortBlock>),
    /// The leader unwound without publishing; waiters must retry.
    Abandoned,
}

/// One in-flight cohort simulation: the leader publishes the result and
/// notifies; followers block on the condvar instead of re-simulating. If
/// the leader panics, its drop guard marks the flight [`FlightState::
/// Abandoned`] and wakes the followers so a panicking engine can never
/// wedge a node's lookups.
#[derive(Default)]
struct InFlight {
    state: Mutex<FlightState>,
    ready: Condvar,
}

/// Unwind protection for a single-flight leader: unless disarmed by a
/// successful publish, dropping the guard abandons the flight (waking all
/// followers into a retry) and clears the registry entry.
struct FlightGuard<'a> {
    session: &'a QuerySession,
    node: NodeId,
    flight: &'a Arc<InFlight>,
    published: bool,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if self.published {
            return;
        }
        // Unwinding: never double-panic on a poisoned lock here.
        *self.flight.state.lock().unwrap_or_else(|e| e.into_inner()) = FlightState::Abandoned;
        self.flight.ready.notify_all();
        self.session.cache().inflight.remove(&self.node);
    }
}

/// Cohort-cache accounting since a session started.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Cohort lookups answered without simulating: cache hits plus
    /// lookups coalesced onto a concurrent in-flight simulation.
    pub hits: u64,
    /// Cohort lookups that ran a simulation. With the single-flight
    /// guard, concurrent misses on one node cost exactly one miss.
    pub misses: u64,
    /// Entries the LRU evicted at capacity.
    pub evictions: u64,
}

impl CacheStats {
    /// Total cohort lookups (`hits + misses`).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from the cache (0.0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({:.1}% hit rate, {} evictions)",
            self.hits,
            self.misses,
            100.0 * self.hit_rate(),
            self.evictions
        )
    }
}

/// How a [`QuerySession`] caches: its entry-count capacity.
///
/// ```
/// use pasco_simrank::SessionConfig;
///
/// let cfg = SessionConfig::new(4096);
/// assert_eq!(cfg.capacity, 4096);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionConfig {
    /// Maximum number of cached cohorts. Must be positive.
    pub capacity: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self { capacity: 1024 }
    }
}

impl SessionConfig {
    /// A config caching up to `capacity` cohorts.
    pub fn new(capacity: usize) -> Self {
        Self { capacity }
    }
}

/// A thread-safe, bounded cohort cache wrapping a shared [`CloudWalker`]
/// for read-heavy query workloads. Cheap to create (cost independent of
/// graph size) and safe to share: queries take `&self`.
pub struct QuerySession {
    walker: Arc<CloudWalker>,
    /// The LRU and the single-flight registry, under one lock.
    cache: Mutex<Cache>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl QuerySession {
    /// A session caching up to `capacity` cohorts (each ≈ `T·R'` entries).
    pub fn new(walker: Arc<CloudWalker>, capacity: usize) -> Self {
        Self::with_config(walker, SessionConfig::new(capacity))
    }

    /// A session from a full [`SessionConfig`].
    pub fn with_config(walker: Arc<CloudWalker>, cfg: SessionConfig) -> Self {
        assert!(cfg.capacity > 0, "cache capacity must be positive");
        Self {
            walker,
            cache: Mutex::new(Cache::default()),
            capacity: cfg.capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The shared engine this session serves from.
    pub fn walker(&self) -> &Arc<CloudWalker> {
        &self.walker
    }

    fn cache(&self) -> MutexGuard<'_, Cache> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Hit/miss/eviction accounting since the session started.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.cache().evictions,
        }
    }

    /// Number of cohorts currently resident.
    pub fn cached_cohorts(&self) -> usize {
        self.cache().entries.len()
    }

    /// Wire-encoded bytes of the cohorts currently resident: what they
    /// would take as [`crate::api::wire::WireCodec`] `Cohort` values.
    pub fn cached_bytes(&self) -> usize {
        self.cache().entries.values().map(|(_, c)| cohort_wire_len(&**c)).sum()
    }

    /// The cached cohort of `v`, fallible end to end: an engine failure
    /// (a distributed worker dying mid-query) propagates as its typed
    /// [`QueryError`] instead of panicking a serving thread.
    fn cohort(&self, v: NodeId) -> Result<Arc<CohortBlock>, QueryError> {
        loop {
            if let Some(c) = self.cohort_once(v)? {
                return Ok(c);
            }
            // The flight this lookup joined was abandoned (its leader
            // panicked or failed); retry — the next round hits the cache,
            // joins a newer flight, or becomes the leader itself (and
            // surfaces the leader's error as its own, if it persists).
        }
    }

    /// One attempt at a cached cohort lookup; `Ok(None)` when the joined
    /// in-flight simulation was abandoned by a panicking or failing
    /// leader.
    fn cohort_once(&self, v: NodeId) -> Result<Option<Arc<CohortBlock>>, QueryError> {
        // Hit, or join the in-flight simulation for this node, or become
        // it — one critical section, so a leader's publish (which inserts
        // and clears its flight under the same lock) is never missed.
        let (flight, leader) = {
            let mut cache = self.cache();
            if let Some(c) = cache.get(v) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Some(c));
            }
            match cache.inflight.entry(v) {
                Entry::Occupied(e) => (Arc::clone(e.get()), false),
                Entry::Vacant(e) => (Arc::clone(e.insert(Arc::default())), true),
            }
        };
        if !leader {
            let mut state = flight.state.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                match &*state {
                    FlightState::Done(c) => {
                        // Coalesced onto the in-flight simulation: no walk
                        // work done by this lookup, so it counts as a hit.
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Ok(Some(Arc::clone(c)));
                    }
                    FlightState::Abandoned => return Ok(None),
                    FlightState::Pending => {
                        state = flight.ready.wait(state).unwrap_or_else(PoisonError::into_inner);
                    }
                }
            }
        }
        // Leader: simulate outside every lock so concurrent misses on other
        // nodes never serialise behind the walk simulation. The simulation
        // runs on the configured engine, so cluster modes account cohort
        // work in their ClusterReport. The guard abandons the flight if
        // anything below unwinds — or if the engine fails typed (`?`):
        // followers wake into a retry either way. The engine's block is
        // cached and scored as is.
        let mut guard = FlightGuard { session: self, node: v, flight: &flight, published: false };
        self.misses.fetch_add(1, Ordering::Relaxed);
        let c = Arc::new(self.walker.try_query_block(v)?);
        {
            let mut cache = self.cache();
            cache.insert(v, Arc::clone(&c), self.capacity);
            cache.inflight.remove(&v);
        }
        *flight.state.lock().unwrap_or_else(PoisonError::into_inner) =
            FlightState::Done(Arc::clone(&c));
        flight.ready.notify_all();
        guard.published = true;
        Ok(Some(c))
    }

    #[inline]
    fn check_node(&self, v: NodeId) -> Result<(), QueryError> {
        crate::api::check_node(v, self.walker.node_count())
    }

    /// Both nodes already checked; `s(i, i) = 1` by definition.
    fn single_pair_unchecked(&self, i: NodeId, j: NodeId) -> Result<f64, QueryError> {
        let (diag, c) = (self.walker.diagonal().as_slice(), self.walker.config().c);
        Ok(pair_from_cohorts(diag, c, (i, j), |v| self.cohort(v))?.clamp(0.0, 1.0))
    }

    /// MCSP through the cache; numerically identical to
    /// [`CloudWalker::try_single_pair`]. Fails with
    /// [`QueryError::NodeOutOfRange`] on a bad node (including when
    /// `i == j`).
    pub fn try_single_pair(&self, i: NodeId, j: NodeId) -> Result<f64, QueryError> {
        self.check_node(i)?;
        self.check_node(j)?;
        self.single_pair_unchecked(i, j)
    }

    /// The (cached) query cohort of `v` — checked access to the building
    /// block both MCSP and MCSS start from, expanded from its cached block.
    pub fn try_cohort(&self, v: NodeId) -> Result<Arc<StepDistributions>, QueryError> {
        Ok(Arc::new(StepDistributions::from(&*self.try_cohort_block(v)?)))
    }

    /// [`QuerySession::try_cohort`] as the cache holds it: the flat block.
    pub(crate) fn try_cohort_block(&self, v: NodeId) -> Result<Arc<CohortBlock>, QueryError> {
        self.check_node(v)?;
        self.cohort(v)
    }

    /// Scores every pair from `rows × cols` in parallel. Each distinct
    /// cohort is warmed through the cache at most once per block (when
    /// everything fits one block, that is exactly once); larger requests
    /// are processed in cache-sized blocks so pinned cohorts never exceed
    /// the session's configured capacity. Entry `[r][c]` is `s(rows[r], cols[c])`.
    ///
    /// Every node of `rows` and `cols` is validated before any cohort is
    /// simulated, both sets must be non-empty
    /// ([`QueryError::EmptyNodeSet`]), and an engine failure during any
    /// cohort warm-up (a distributed worker dying) aborts the matrix with
    /// its typed error.
    pub fn try_pairs_matrix(
        &self,
        rows: &[NodeId],
        cols: &[NodeId],
    ) -> Result<Vec<Vec<f64>>, QueryError> {
        if rows.is_empty() || cols.is_empty() {
            return Err(QueryError::EmptyNodeSet);
        }
        rows.iter().chain(cols).try_for_each(|&v| self.check_node(v))?;
        let capacity = self.capacity;
        let mut out = vec![vec![0.0f64; cols.len()]; rows.len()];
        // Block the matrix so at most ~capacity cohorts are pinned at once.
        let block = (capacity / 2).max(1);
        for row_block in chunked_indices(rows.len(), block) {
            for col_block in chunked_indices(cols.len(), block) {
                // Warm each distinct cohort of this block once, in
                // parallel, then score from the pinned Arcs so eviction
                // during the scoring pass cannot force a re-simulation.
                let distinct: Vec<NodeId> = row_block
                    .clone()
                    .map(|r| rows[r])
                    .chain(col_block.clone().map(|c| cols[c]))
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .collect();
                // `cohorts[x]` is the cohort of `distinct[x]`, found by
                // binary search: `distinct` is sorted.
                let cohorts: Vec<Arc<CohortBlock>> =
                    distinct.par_iter().map(|&v| self.cohort(v)).collect::<Result<_, _>>()?;
                let cohort = |v: NodeId| &*cohorts[distinct.partition_point(|&d| d < v)];
                let diag = self.walker.diagonal().as_slice();
                let c = self.walker.config().c;
                let scored: Vec<Vec<f64>> = row_block
                    .clone()
                    .collect::<Vec<_>>()
                    .par_iter()
                    .map(|&r| {
                        let i = rows[r];
                        col_block
                            .clone()
                            .map(|cc| {
                                let j = cols[cc];
                                if i == j {
                                    1.0
                                } else {
                                    score_pair(cohort(i), cohort(j), diag, c).clamp(0.0, 1.0)
                                }
                            })
                            .collect()
                    })
                    .collect();
                for (r, row_scores) in row_block.clone().zip(scored) {
                    for (cc, s) in col_block.clone().zip(row_scores) {
                        out[r][cc] = s;
                    }
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::wire::WireCodec;
    use crate::api::{QueryRequest, QueryService};
    use crate::engine::ExecMode;
    use crate::SimRankConfig;
    use pasco_graph::generators;

    fn engine() -> Arc<CloudWalker> {
        let g = Arc::new(generators::barabasi_albert(120, 3, 5));
        Arc::new(CloudWalker::build(g, SimRankConfig::fast(), ExecMode::Local).unwrap())
    }

    #[test]
    fn answers_are_bitwise_the_same_at_every_thread_count() {
        // The rayon shim cuts work into 8 pieces per thread: a float
        // reduction that adds in piece or scheduler order would show here.
        // A parallel call nested inside a pool worker runs at the
        // machine's width, not the pool's; the single pair runs
        // `score_pair` at top level, where the pool's width applies.
        let g = generators::rmat(10, 8_000, generators::RmatParams::default(), 4);
        let cw =
            Arc::new(CloudWalker::build(g.into(), SimRankConfig::fast(), ExecMode::Local).unwrap());
        let nodes = [0u32, 1, 3, 7, 12];
        let bits = |rows: &[Vec<f64>]| -> Vec<u64> {
            rows.iter().flatten().map(|s| s.to_bits()).collect()
        };
        let batch =
            QueryRequest::Batch(nodes.iter().map(|&i| QueryRequest::SingleSource { i }).collect());
        let runs = [1, 2, 3].map(|threads| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            pool.install(|| {
                let session = QuerySession::new(Arc::clone(&cw), 16);
                let topk = cw.try_single_source_topk(nodes[1], 10).unwrap();
                (
                    session.try_single_pair(nodes[0], nodes[3]).unwrap().to_bits(),
                    bits(&[cw.try_single_source(nodes[0]).unwrap()]),
                    topk.iter().map(|&(v, s)| (v, s.to_bits())).collect::<Vec<_>>(),
                    bits(&session.try_pairs_matrix(&nodes, &nodes[1..]).unwrap()),
                    session.execute(batch.clone()).unwrap().to_bytes(),
                )
            })
        });
        assert!(runs.iter().all(|run| *run == runs[0]));
    }

    #[test]
    fn cached_answers_match_engine_answers() {
        let cw = engine();
        let session = QuerySession::new(Arc::clone(&cw), 16);
        for &(i, j) in &[(1u32, 2u32), (5, 80), (2, 1), (80, 5), (7, 7)] {
            assert_eq!(
                session.try_single_pair(i, j).unwrap(),
                cw.try_single_pair(i, j).unwrap(),
                "({i},{j})"
            );
        }
    }

    #[test]
    fn repeated_queries_hit_the_cache() {
        let session = QuerySession::new(engine(), 16);
        session.try_single_pair(1, 2).unwrap(); // 2 misses
        session.try_single_pair(1, 3).unwrap(); // 1 hit (1), 1 miss (3)
        session.try_single_pair(2, 3).unwrap(); // 2 hits
        let stats = session.cache_stats();
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.lookups(), 6);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        assert!(stats.to_string().contains("50.0% hit rate"), "{stats}");
    }

    #[test]
    fn eviction_respects_lru_order() {
        let session = QuerySession::new(engine(), 2);
        session.try_single_pair(1, 2).unwrap(); // cache {1, 2}
        session.try_single_pair(1, 3).unwrap(); // touch 1, insert 3 -> evict 2
        let misses_before = session.cache_stats().misses;
        session.try_single_pair(1, 3).unwrap(); // both cached
        let misses_mid = session.cache_stats().misses;
        assert_eq!(misses_before, misses_mid, "no new misses for cached pair");
        // 2 was evicted: miss on 2, whose insertion evicts 1, so 1 misses
        // too — a capacity-2 cache thrashes on a 3-node working set.
        session.try_single_pair(2, 1).unwrap();
        let misses_after = session.cache_stats().misses;
        assert_eq!(misses_after, misses_mid + 2);
    }

    #[test]
    fn small_capacity_hot_set_stays_resident() {
        // A hot set within capacity must reach 100% hits: each hot node is
        // simulated once, however small the cache.
        let session = QuerySession::new(engine(), 8);
        for _ in 0..3 {
            session.try_single_pair(1, 2).unwrap();
            session.try_single_pair(3, 4).unwrap();
        }
        let stats = session.cache_stats();
        assert_eq!(stats.misses, 4, "each hot node simulated once");
        assert_eq!(stats.hits, 8);
    }

    #[test]
    fn pairs_matrix_larger_than_cache_is_correct_and_bounded() {
        let cw = engine();
        let session = QuerySession::new(Arc::clone(&cw), 8);
        let nodes: Vec<u32> = (0..30).collect();
        let m = session.try_pairs_matrix(&nodes, &nodes).unwrap();
        // Pinned cohorts are blocked by cache size, never beyond capacity.
        assert!(session.cached_cohorts() <= 8);
        for (r, &i) in nodes.iter().enumerate() {
            for (c, &j) in nodes.iter().enumerate() {
                assert_eq!(m[r][c], cw.try_single_pair(i, j).unwrap(), "({i},{j})");
            }
        }
    }

    #[test]
    fn cache_stays_within_capacity() {
        let session = QuerySession::new(engine(), 32);
        for i in 0..120u32 {
            session.try_single_pair(i, (i + 1) % 120).unwrap();
        }
        assert!(session.cached_cohorts() <= 32);
        assert_eq!(session.cache_stats().lookups(), 240);
    }

    #[test]
    fn pairs_matrix_matches_pointwise_queries() {
        let cw = engine();
        let session = QuerySession::new(Arc::clone(&cw), 32);
        let rows = [1u32, 5, 9];
        let cols = [2u32, 5];
        let m = session.try_pairs_matrix(&rows, &cols).unwrap();
        for (r, &i) in rows.iter().enumerate() {
            for (c, &j) in cols.iter().enumerate() {
                assert_eq!(m[r][c], cw.try_single_pair(i, j).unwrap());
            }
        }
        // 4 distinct nodes simulated once each.
        assert_eq!(session.cache_stats().misses, 4);
        // A matrix whose distinct nodes fit one block simulates each of
        // them exactly once, however the nodes fall.
        let fresh = QuerySession::new(Arc::clone(&cw), 32);
        let nodes: Vec<u32> = (40..56).collect();
        fresh.try_pairs_matrix(&nodes, &nodes).unwrap();
        assert_eq!(fresh.cache_stats().misses, nodes.len() as u64);
    }

    #[test]
    fn concurrent_misses_on_one_node_simulate_once() {
        // Regression: without the single-flight guard, N concurrent misses
        // on the same node simulated the cohort N times before the first
        // insert landed.
        let cw = engine();
        let session = QuerySession::new(Arc::clone(&cw), 16);
        let clients = 8;
        let barrier = std::sync::Barrier::new(clients);
        let cohorts: Vec<Arc<_>> = std::thread::scope(|scope| {
            (0..clients)
                .map(|_| {
                    let session = &session;
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        session.try_cohort(7).unwrap()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        let stats = session.cache_stats();
        assert_eq!(stats.misses, 1, "one simulation for {clients} concurrent misses");
        assert_eq!(stats.lookups(), clients as u64);
        for c in &cohorts {
            assert_eq!(**c, cw.try_query_cohort(7).unwrap(), "coalesced answers match the engine");
        }
    }

    #[test]
    fn single_flight_does_not_leak_registry_entries() {
        let session = QuerySession::new(engine(), 8);
        for v in 0..20u32 {
            session.try_cohort(v).unwrap();
        }
        assert_eq!(session.cache().inflight.len(), 0, "registry drains after each flight");
    }

    #[test]
    fn failing_leader_does_not_wedge_the_node() {
        // Regression: a leader whose simulation fails — typed engine
        // error (a dead distributed worker) or unwind — must abandon its
        // flight through the same guard (waking followers into a retry)
        // and clear its registry entry, not leave the node permanently
        // in flight. The private `cohort` path bypasses the serving
        // bounds check, so an out-of-range node makes the engine fail
        // exactly where a dead worker would.
        let session = QuerySession::new(engine(), 8);
        let err = session.cohort(10_000).unwrap_err();
        assert!(matches!(err, QueryError::NodeOutOfRange { .. }), "{err}");
        assert_eq!(session.cache().inflight.len(), 0, "no stale flight entry");
        // The session still serves: a fresh lookup becomes a fresh leader.
        session.try_cohort(5).unwrap();
        assert_eq!(session.cache_stats().misses, 2, "failed flight counted, then a clean one");
    }

    #[test]
    fn checked_session_queries_surface_typed_errors() {
        let session = QuerySession::new(engine(), 8);
        let oob = QueryError::NodeOutOfRange { node: 500, node_count: 120 };
        assert_eq!(session.try_single_pair(1, 500).unwrap_err(), oob);
        // Regression: the i == j shortcut must not skip the bounds check.
        assert_eq!(session.try_single_pair(500, 500).unwrap_err(), oob);
        assert_eq!(session.try_cohort(500).unwrap_err(), oob);
        assert_eq!(session.try_pairs_matrix(&[1, 500], &[2]).unwrap_err(), oob);
        assert_eq!(session.try_pairs_matrix(&[], &[2]).unwrap_err(), QueryError::EmptyNodeSet);
        // Validation happens before simulation: no cohort was cached.
        assert_eq!(session.cached_cohorts(), 0);
    }

    #[test]
    fn session_cohorts_route_through_the_engine() {
        use pasco_cluster::ClusterConfig;
        let g = Arc::new(generators::barabasi_albert(80, 3, 4));
        let cw = Arc::new(
            CloudWalker::build(
                g,
                SimRankConfig::fast(),
                ExecMode::Broadcast(ClusterConfig::local(2)),
            )
            .unwrap(),
        );
        let before = cw.cluster_report().unwrap().stages;
        let session = QuerySession::new(Arc::clone(&cw), 8);
        let s = session.try_single_pair(1, 2).unwrap();
        let after = cw.cluster_report().unwrap().stages;
        assert!(after > before, "cohort simulation must be accounted: {before} -> {after}");
        assert_eq!(s, cw.try_single_pair(1, 2).unwrap(), "cached answer still matches the engine");
    }

    #[test]
    fn session_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QuerySession>();
    }

    #[test]
    fn cached_blocks_are_flat_and_budgeted_in_wire_bytes() {
        let cw = engine();
        let session = QuerySession::new(Arc::clone(&cw), 16);
        let steps = cw.config().t;
        let mut wire = 0;
        for v in [0u32, 1, 7, 50, 119] {
            let nested = cw.try_query_cohort(v).unwrap();
            assert_eq!(*session.try_cohort(v).unwrap(), nested, "node {v} expands exactly");
            wire += WireCodec::encoded_len(&nested);
            let block = session.cache().get(v).unwrap();
            let entries: usize = nested.counts.iter().map(Vec::len).sum();
            let escapes = nested.counts.iter().flatten().filter(|&&(_, c)| c >= 255).count();
            // Entry and key offsets and a bitmap base a step, then at most
            // an id and a count byte an entry (a bitmap step holds fewer).
            let bound = 5 * entries + 8 * escapes + (3 * steps + 5) * 4 + 3;
            assert!(block.heap_bytes() <= bound, "node {v}");
        }
        assert!(std::mem::size_of::<CohortBlock>() <= 32, "a fixed header");
        assert_eq!(session.cached_bytes(), wire, "cached_bytes counts wire bytes");
    }
}
