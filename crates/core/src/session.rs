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
//! serves many concurrent clients. The cohort cache is sharded — each
//! shard is an independently locked O(1) LRU (hash-indexed doubly linked
//! list, no per-hit scans, no O(n)-in-graph-size allocation) — so
//! concurrent queries for different nodes rarely contend, and a
//! single-flight registry guarantees concurrent misses on the *same* node
//! simulate its cohort exactly once. Results are bitwise identical to the
//! underlying engine's; caching and concurrency only remove
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
use std::collections::hash_map::Entry;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// Node → slot index of one LRU shard. Keyed lookup only: recency order
/// lives in the slots' linked list, and nothing ever iterates this map,
/// so hasher nondeterminism cannot leak into eviction or results — which
/// is why a hash map is safe in a determinism-critical crate.
#[expect(clippy::disallowed_types, reason = "keyed lookup only, never iterated")]
type SlotIndex = std::collections::HashMap<NodeId, usize>;

/// Node → in-flight simulation registry for single-flight misses. Keyed
/// insert/remove only, never iterated, so hasher order is unobservable.
#[expect(clippy::disallowed_types, reason = "keyed insert/remove only, never iterated")]
type InFlightIndex = std::collections::HashMap<NodeId, Arc<InFlight>>;

const NONE: usize = usize::MAX;

/// Splits `0..len` into consecutive index ranges of at most `block`.
fn chunked_indices(
    len: usize,
    block: usize,
) -> impl Iterator<Item = std::ops::Range<usize>> + Clone {
    (0..len.div_ceil(block)).map(move |b| (b * block)..((b + 1) * block).min(len))
}

struct Slot {
    node: NodeId,
    value: Arc<CohortBlock>,
    prev: usize,
    next: usize,
}

/// One independently locked O(1) LRU over cohort blocks: a slot slab
/// threaded into a doubly linked recency list, indexed by a `HashMap`.
/// Hits relink in O(1); an insert past the entry-count capacity pops the
/// list tail in O(1).
struct LruShard {
    capacity: usize,
    /// Entries evicted at capacity.
    evictions: u64,
    map: SlotIndex,
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
}

/// The one place a list index is turned into its slot.
#[allow(
    clippy::expect_used,
    reason = "a linked index always names an occupied slot: `remove` is the only writer of \
              `None` and unlinks first"
)]
impl LruShard {
    fn slot(&self, slot: usize) -> &Slot {
        self.slots[slot].as_ref().expect("linked slot must be occupied")
    }

    fn slot_mut(&mut self, slot: usize) -> &mut Slot {
        self.slots[slot].as_mut().expect("linked slot must be occupied")
    }
}

impl LruShard {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            evictions: 0,
            map: SlotIndex::with_capacity(capacity.min(1024)),
            slots: Vec::new(),
            free: Vec::new(),
            head: NONE,
            tail: NONE,
        }
    }

    fn detach(&mut self, slot: usize) {
        let (prev, next) = (self.slot(slot).prev, self.slot(slot).next);
        if prev == NONE {
            self.head = next;
        } else {
            self.slot_mut(prev).next = next;
        }
        if next == NONE {
            self.tail = prev;
        } else {
            self.slot_mut(next).prev = prev;
        }
    }

    fn attach_front(&mut self, slot: usize) {
        let head = self.head;
        let s = self.slot_mut(slot);
        s.prev = NONE;
        s.next = head;
        if head != NONE {
            self.slot_mut(head).prev = slot;
        }
        self.head = slot;
        if self.tail == NONE {
            self.tail = slot;
        }
    }

    /// Unlinks and frees a slot, releasing its value.
    fn remove(&mut self, slot: usize) {
        self.detach(slot);
        if let Some(s) = self.slots[slot].take() {
            self.map.remove(&s.node);
            self.free.push(slot);
        }
    }

    fn get(&mut self, node: NodeId) -> Option<Arc<CohortBlock>> {
        let slot = *self.map.get(&node)?;
        self.detach(slot);
        self.attach_front(slot);
        Some(Arc::clone(&self.slot(slot).value))
    }

    fn insert(&mut self, node: NodeId, value: Arc<CohortBlock>) {
        if let Some(&slot) = self.map.get(&node) {
            // Raced with another miss on the same node; keep the resident
            // entry (identical by determinism) and refresh its recency.
            self.detach(slot);
            self.attach_front(slot);
            return;
        }
        let slot_value = Slot { node, value, prev: NONE, next: NONE };
        let slot = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(slot_value);
                i
            }
            None => {
                self.slots.push(Some(slot_value));
                self.slots.len() - 1
            }
        };
        self.map.insert(node, slot);
        self.attach_front(slot);
        if self.map.len() > self.capacity {
            self.remove(self.tail);
            self.evictions += 1;
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    /// The wire-encoded bytes of the resident cohorts.
    fn wire_bytes(&self) -> usize {
        self.slots.iter().flatten().map(|s| cohort_wire_len(&*s.value)).sum()
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
        self.session.inflight.lock().unwrap_or_else(|e| e.into_inner()).remove(&self.node);
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

/// How a [`QuerySession`] caches: entry-count capacity and shard count.
///
/// ```
/// use pasco_simrank::SessionConfig;
///
/// let cfg = SessionConfig::new(4096).with_shards(1);
/// assert_eq!((cfg.capacity, cfg.shards), (4096, Some(1)));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionConfig {
    /// Maximum number of cached cohorts (split across shards, rounded
    /// up per shard). Must be positive.
    pub capacity: usize,
    /// Explicit shard count, or `None` to derive one from `capacity`
    /// (at most [`QuerySession::DEFAULT_SHARDS`], keeping every shard at
    /// least 4 entries deep). `1` gives exact global-LRU eviction.
    pub shards: Option<usize>,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self { capacity: 1024, shards: None }
    }
}

impl SessionConfig {
    /// A config caching up to `capacity` cohorts.
    pub fn new(capacity: usize) -> Self {
        Self { capacity, ..Self::default() }
    }

    /// Sets an explicit shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
        self
    }
}

/// A thread-safe, bounded cohort cache wrapping a shared [`CloudWalker`]
/// for read-heavy query workloads. Cheap to create (cost independent of
/// graph size) and safe to share: queries take `&self`.
pub struct QuerySession {
    walker: Arc<CloudWalker>,
    shards: Vec<Mutex<LruShard>>,
    /// Effective total capacity (`shards × per-shard`, ≥ the requested
    /// capacity after round-up).
    capacity: usize,
    /// Single-flight registry: at most one simulation per node is ever in
    /// flight; concurrent misses on the same node wait for it instead of
    /// simulating again. Only touched on the miss path, so one map (not
    /// per-shard) is enough — simulation time dwarfs the lock.
    inflight: Mutex<InFlightIndex>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl QuerySession {
    /// Default shard count for [`QuerySession::new`].
    pub const DEFAULT_SHARDS: usize = 16;

    /// Minimum per-shard capacity [`QuerySession::new`] maintains, so a
    /// small total capacity never degenerates into one-entry shards where
    /// hash-colliding hot nodes would evict each other on every query.
    const MIN_SHARD_CAPACITY: usize = 4;

    /// A session caching up to `capacity` cohorts (each ≈ `T·R'` entries)
    /// across up to [`QuerySession::DEFAULT_SHARDS`] shards (fewer when
    /// `capacity` is smaller, keeping each shard at least
    /// `MIN_SHARD_CAPACITY` (4) deep).
    pub fn new(walker: Arc<CloudWalker>, capacity: usize) -> Self {
        Self::with_config(walker, SessionConfig::new(capacity))
    }

    /// A session with an explicit shard count. `shards = 1` gives exact
    /// global-LRU eviction; more shards trade eviction exactness for lower
    /// lock contention. Total capacity is split evenly (rounded up).
    pub fn with_shards(walker: Arc<CloudWalker>, capacity: usize, shards: usize) -> Self {
        Self::with_config(walker, SessionConfig::new(capacity).with_shards(shards))
    }

    /// A session from a full [`SessionConfig`]: capacity and shard count.
    pub fn with_config(walker: Arc<CloudWalker>, cfg: SessionConfig) -> Self {
        assert!(cfg.capacity > 0, "cache capacity must be positive");
        let shards = cfg.shards.unwrap_or_else(|| {
            (cfg.capacity / Self::MIN_SHARD_CAPACITY).clamp(1, Self::DEFAULT_SHARDS)
        });
        assert!(shards > 0, "need at least one shard");
        let per_shard = cfg.capacity.div_ceil(shards);
        Self {
            walker,
            shards: (0..shards).map(|_| Mutex::new(LruShard::new(per_shard))).collect(),
            capacity: per_shard * shards,
            inflight: Mutex::new(InFlightIndex::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The shared engine this session serves from.
    pub fn walker(&self) -> &Arc<CloudWalker> {
        &self.walker
    }

    /// Hit/miss/eviction accounting since the session started.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self
                .shards
                .iter()
                .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).evictions)
                .sum(),
        }
    }

    /// Number of cohorts currently resident across all shards.
    pub fn cached_cohorts(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).len()).sum()
    }

    /// Wire-encoded bytes of the cohorts currently resident: what they
    /// would take as [`crate::api::wire::WireCodec`] `Cohort` values.
    pub fn cached_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).wire_bytes())
            .sum()
    }

    #[inline]
    fn shard_of(&self, v: NodeId) -> &Mutex<LruShard> {
        // Fibonacci hashing spreads consecutive node ids across shards.
        let h = (v as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        &self.shards[(h >> 32) as usize % self.shards.len()]
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
        let shard = self.shard_of(v);
        if let Some(c) = shard.lock().unwrap_or_else(PoisonError::into_inner).get(v) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Some(c));
        }
        // Miss: join the in-flight simulation for this node, or become it.
        // Without this guard, N concurrent misses on one node simulated
        // the cohort N times before the first insert landed.
        let (flight, leader) = {
            let mut inflight = self.inflight.lock().unwrap_or_else(PoisonError::into_inner);
            // Re-check the cache under the registry lock: a completing
            // leader inserts into the cache *before* clearing its entry, so
            // an empty registry here means the cache check below is
            // authoritative.
            if let Some(c) = shard.lock().unwrap_or_else(PoisonError::into_inner).get(v) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Some(c));
            }
            match inflight.entry(v) {
                Entry::Occupied(e) => (Arc::clone(e.get()), false),
                Entry::Vacant(e) => {
                    let f = Arc::new(InFlight::default());
                    e.insert(Arc::clone(&f));
                    (f, true)
                }
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
        // Publish to the cache first (insert keeps a raced resident entry
        // and just refreshes recency), then release the followers and
        // clear the registry entry.
        shard.lock().unwrap_or_else(PoisonError::into_inner).insert(v, Arc::clone(&c));
        *flight.state.lock().unwrap_or_else(PoisonError::into_inner) =
            FlightState::Done(Arc::clone(&c));
        flight.ready.notify_all();
        self.inflight.lock().unwrap_or_else(PoisonError::into_inner).remove(&v);
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
    /// everything fits one block and no shard overflows from hash skew,
    /// that is exactly once); larger requests are processed in cache-sized
    /// blocks so pinned cohorts never exceed the session's configured
    /// capacity. Entry `[r][c]` is `s(rows[r], cols[c])`.
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
        // One shard = exact global LRU, the easiest shape to reason about.
        let session = QuerySession::with_shards(engine(), 2, 1);
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
        // Regression: capacity <= DEFAULT_SHARDS used to degenerate into
        // one-entry shards, so hash-colliding hot nodes evicted each other
        // on every query. A hot set within capacity must reach 100% hits.
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
    fn sharded_cache_stays_within_capacity() {
        let session = QuerySession::new(engine(), 32);
        for i in 0..120u32 {
            session.try_single_pair(i, (i + 1) % 120).unwrap();
        }
        assert!(session.cached_cohorts() <= 32 + QuerySession::DEFAULT_SHARDS);
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
        assert_eq!(session.inflight.lock().unwrap().len(), 0, "registry drains after each flight");
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
        assert_eq!(session.inflight.lock().unwrap().len(), 0, "no stale flight entry");
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
            let block = session.shard_of(v).lock().unwrap().get(v).unwrap();
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
