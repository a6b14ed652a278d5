//! Online query kernels: MCSP, MCSS and MCAP.
//!
//! All queries evaluate the truncated series
//! `s(i,j) = Σ_{t=0..T} cᵗ (Pᵗeᵢ)ᵀ D (Pᵗeⱼ)` from fresh `R'`-walker
//! cohorts plus the stored diagonal `D`:
//!
//! * **MCSP** intersects the two cohorts' per-step histograms —
//!   `O(T·R')` after simulation. A cached block keeps each step as sorted
//!   ids or as a bitmap ([`pasco_mc::walks::CohortBlock`]); [`score_pair`]
//!   merges two id lists, ANDs two bitmaps' words, or probes ids against a
//!   bitmap, and adds the same products in the same order whichever.
//! * **MCSS** propagates `D ûₜ` forward `t` steps. Its forward stage has
//!   two arms, picked by one rule ([`sweeps_pay`]) from `(n, m, T, R_f)`:
//!   the series evaluated *exactly* by Horner's rule, `T` pull sweeps over
//!   the in-links (`O(T·(n + m))`, [`swept_series_on`]), or mass-carrying
//!   forward walks (`O(T²·R_f·log d)`, the paper's bound), which win only
//!   on graphs past the rule's point.
//! * **MCAP** runs MCSS from every node.
//!
//! Query randomness derives from a *different* stream than indexing (salted
//! master seed) so query estimates do not correlate with the index's own
//! sampling error.
//!
//! The walks arm is step-synchronous: `mcss_series` hands out each
//! term's launches as one slice, and `forward_term` puts all their walkers
//! on one frontier that [`forward_walk_frontier`] advances a step per pass.
//! Landed mass comes back in launch order — `(t, support node, walker)`,
//! the order a walker-at-a-time loop adds in — so the dense vector and the
//! [`MassMap`] receive every floating-point sum in the same order, bit for
//! bit, whatever the storage.

use crate::config::SimRankConfig;
use pasco_graph::{
    CsrGraph, ForwardSampler, GraphSampler, NodeId, ReverseChainIndex, WalkAdjacency,
};
use pasco_mc::counts::MassMap;
use pasco_mc::forward::{forward_walk_frontier, ForwardWalker};
use pasco_mc::rng::{mix, mix_extend};
use pasco_mc::walks::{
    reverse_walk_block_on, BitStep, BlockStep, CohortBlock, IdList, StepDistributions,
};
use std::cell::{Cell, RefCell};
use std::convert::Infallible;

/// Salt distinguishing query walks from index walks.
pub const QUERY_SALT: u64 = 0x0009_a5c0_9e71;
/// Salt for MCSS forward-propagation walks.
pub const FORWARD_SALT: u64 = 0x0009_a5c0_f0c4;

/// The seed for all query cohorts under `cfg`.
#[inline]
pub fn query_seed(cfg: &SimRankConfig) -> u64 {
    mix(&[cfg.seed, QUERY_SALT])
}

/// The seed for the forward-walk stage of an MCSS query from `source` at
/// series term `t`.
#[inline]
pub fn forward_seed(cfg: &SimRankConfig, source: NodeId, t: usize) -> u64 {
    mix(&[cfg.seed, FORWARD_SALT, source as u64, t as u64])
}

/// Simulates the query cohort (`R'` walkers, `T` steps) for `source` on
/// any adjacency source, as the kernel writes it: one block, on this
/// thread's scratch — the one cohort entry point behind every in-process
/// storage and the RPC worker, so their bit-equality is structural.
pub fn query_block_on<A: WalkAdjacency>(
    adj: &A,
    cfg: &SimRankConfig,
    source: NodeId,
) -> CohortBlock {
    reverse_walk_block_on(adj, source, 0..cfg.r_query, cfg.t, query_seed(cfg))
}

/// [`query_block_on`], expanded into nested step histograms.
pub fn query_cohort_on<A: WalkAdjacency>(
    adj: &A,
    cfg: &SimRankConfig,
    source: NodeId,
) -> StepDistributions {
    StepDistributions::from(&query_block_on(adj, cfg, source))
}

/// [`query_cohort_on`] over the resident graph.
pub fn query_cohort(graph: &CsrGraph, cfg: &SimRankConfig, source: NodeId) -> StepDistributions {
    query_cohort_on(graph, cfg, source)
}

/// A cohort's step histograms, nested ([`StepDistributions`]) or flat
/// ([`CohortBlock`]), or an `Arc` of either: what [`score_pair`] merges.
pub trait CohortLayout {
    /// The source node all walkers started from.
    fn source(&self) -> NodeId;
    /// Cohort size used for normalisation.
    fn walkers(&self) -> u32;
    /// Every step's histogram, `t = 0..=T`.
    fn histograms(&self) -> impl Iterator<Item = BlockStep<'_, impl IdList>>;
}

impl CohortLayout for StepDistributions {
    fn source(&self) -> NodeId {
        self.source
    }
    fn walkers(&self) -> u32 {
        self.walkers
    }
    fn histograms(&self) -> impl Iterator<Item = BlockStep<'_, impl IdList>> {
        self.counts.iter().map(|step| BlockStep::Ids(step.as_slice()))
    }
}

impl CohortLayout for CohortBlock {
    fn source(&self) -> NodeId {
        self.source
    }
    fn walkers(&self) -> u32 {
        self.walkers
    }
    fn histograms(&self) -> impl Iterator<Item = BlockStep<'_, impl IdList>> {
        CohortBlock::histograms(self)
    }
}

impl<C: CohortLayout + ?Sized> CohortLayout for std::sync::Arc<C> {
    fn source(&self) -> NodeId {
        (**self).source()
    }
    fn walkers(&self) -> u32 {
        (**self).walkers()
    }
    fn histograms(&self) -> impl Iterator<Item = BlockStep<'_, impl IdList>> {
        (**self).histograms()
    }
}

/// Scores a pair from two cohorts' distributions, in either layout:
/// `Σ_t cᵗ Σ_k x_k ûₜ(k) v̂ₜ(k)`. Each step's shared keys are found by the
/// pairing of its forms — a branch-free lane merge of two id lists, the
/// AND of two bitmaps' words, an id list probed against a bitmap — and
/// their products are added in ascending key order, as a two-pointer merge
/// adds them, so every layout and form gives the same bits. Histograms
/// must be sorted by node id, without duplicates, as the walk kernel
/// writes them.
pub fn score_pair<C: CohortLayout + ?Sized>(di: &C, dj: &C, diag: &[f64], c: f64) -> f64 {
    let ri = f64::from(di.walkers());
    let rj = f64::from(dj.walkers());
    // Taken, not borrowed: a nested call would find an empty scratch.
    let mut hits = HITS.take();
    let need = di.histograms().map(BlockStep::entries).max().unwrap_or(0);
    if hits.len() < need {
        hits.resize(need, (0, 0));
    }
    let product =
        |k: NodeId, ca: u64, cb: u64| diag[k as usize] * (ca as f64 / ri) * (cb as f64 / rj);
    let mut score = 0.0;
    let mut ct = 1.0;
    for (u, v) in di.histograms().zip(dj.histograms()) {
        let term = match (u, v) {
            (BlockStep::Ids(u), BlockStep::Ids(v)) => {
                let mut term = 0.0;
                for lane in merge_lanes(u, v, &mut hits) {
                    for &(a, b) in &hits[lane.first..lane.hit] {
                        let (a, b) = (a as usize, b as usize);
                        term += product(u.node(a), u.count(a), v.count(b));
                    }
                }
                term
            }
            (BlockStep::Bits(u), BlockStep::Bits(v)) => and_words(u, v, product),
            (BlockStep::Ids(u), BlockStep::Bits(v)) => probe(u, v, product),
            (BlockStep::Bits(u), BlockStep::Ids(v)) => probe(v, u, |k, cv, cu| product(k, cu, cv)),
        };
        score += ct * term;
        ct *= c;
    }
    HITS.set(hits);
    score
}

thread_local! {
    /// [`score_pair`]'s hit pairs: sized by the longest step it merged on
    /// this thread, never shrunk.
    static HITS: Cell<Vec<(u32, u32)>> = const { Cell::new(Vec::new()) };
}

/// The sum of `product(k, count in u, count in v)` over the nodes `k` two
/// bitmap steps share, added in ascending `k`: the AND of their
/// overlapping words, each count's rank taken from the popcounts of the
/// words and bits below it.
#[inline(always)]
fn and_words(u: BitStep<'_>, v: BitStep<'_>, product: impl Fn(NodeId, u64, u64) -> f64) -> f64 {
    let (su, sv) = (u.span(), v.span());
    let both = su.start.max(sv.start)..su.end.min(sv.end);
    let mut term = 0.0;
    if both.is_empty() {
        return term;
    }
    let below = |s: BitStep<'_>, from| (from..both.start).map(|w| s.word(w).count_ones()).sum();
    let (mut ru, mut rv): (u32, u32) = (below(u, su.start), below(v, sv.start));
    for w in both {
        let (wu, wv) = (u.word(w), v.word(w));
        let mut shared = wu & wv;
        while shared != 0 {
            let bit = shared.trailing_zeros();
            let under = (1u64 << bit) - 1;
            let cu = u.count((ru + (wu & under).count_ones()) as usize);
            let cv = v.count((rv + (wv & under).count_ones()) as usize);
            term += product((64 * w) as NodeId + bit, cu.into(), cv.into());
            shared &= shared - 1;
        }
        ru += wu.count_ones();
        rv += wv.count_ones();
    }
    term
}

/// The sum of `product(k, count in ids, count in bits)` over the nodes `k`
/// of the id list that the bitmap step holds, added in ascending `k`: each
/// id's bit is tested, its count's rank taken from the running popcount of
/// the words below.
#[inline(always)]
fn probe<L: IdList>(ids: L, bits: BitStep<'_>, product: impl Fn(NodeId, u64, u64) -> f64) -> f64 {
    let span = bits.span();
    let (mut w, mut rank, mut term) = (span.start, 0, 0.0);
    for i in ids.rank((64 * span.start) as NodeId)..ids.entries() {
        let k = ids.node(i);
        let kw = k as usize / 64;
        if kw >= span.end {
            break;
        }
        while w < kw {
            rank += bits.word(w).count_ones();
            w += 1;
        }
        let word = bits.word(kw);
        if word >> (k % 64) & 1 == 1 {
            let at = rank + (word & ((1u64 << (k % 64)) - 1)).count_ones();
            term += product(k, ids.count(i), bits.count(at as usize).into());
        }
    }
    term
}

/// Key ranges [`merge_lanes`] merges interleaved, so that their serial
/// load → compare → advance chains overlap (eight run out of registers).
const LANES: usize = 4;
/// Below this many entries in either list a step is merged as one lane.
const LANE_MIN: usize = 64;

/// A merge lane: cursors into the two lists, their ends, and its hits
/// `hits[first..hit]`.
#[derive(Clone, Copy, Default)]
struct Lane {
    a: usize,
    a_end: usize,
    b: usize,
    b_end: usize,
    first: usize,
    hit: usize,
}

impl Lane {
    #[inline(always)]
    fn live(&self) -> bool {
        self.a < self.a_end && self.b < self.b_end
    }

    /// A branch-free merge step: `(a, b)` is written, and kept if the keys
    /// match; the smaller side advances, both on a match.
    #[inline(always)]
    fn step<S: IdList>(&mut self, u: S, v: S, hits: &mut [(u32, u32)]) {
        let (ka, kb) = (u.node(self.a), v.node(self.b));
        hits[self.hit] = (self.a as u32, self.b as u32);
        self.hit += usize::from(ka == kb);
        self.a += usize::from(ka <= kb);
        self.b += usize::from(kb <= ka);
    }
}

/// Writes the index pairs of the keys the sorted lists `u` and `v` share
/// into `hits` (`≥ u.len()` long). Lane `l` takes the `l`-th quarter of `u`
/// and the part of `v` below the next quarter's first key, and writes from
/// its first `u` index on: read lane by lane, the hits ascend by key.
fn merge_lanes<S: IdList>(u: S, v: S, hits: &mut [(u32, u32)]) -> [Lane; LANES] {
    let mut lanes = [Lane::default(); LANES];
    let (u_len, v_len) = (u.entries(), v.entries());
    if u_len < LANE_MIN || v_len < LANE_MIN {
        lanes[0] = Lane { a_end: u_len, b_end: v_len, ..Lane::default() };
    } else {
        let mut b = 0;
        for (l, lane) in lanes.iter_mut().enumerate() {
            let (a, a_end) = (l * u_len / LANES, (l + 1) * u_len / LANES);
            let b_end = if a_end < u_len { v.rank(u.node(a_end)) } else { v_len };
            *lane = Lane { a, a_end, b, b_end, first: a, hit: a };
            b = b_end;
        }
        while lanes.iter().all(Lane::live) {
            lanes.iter_mut().for_each(|lane| lane.step(u, v, hits));
        }
    }
    for lane in &mut lanes {
        while lane.live() {
            lane.step(u, v, hits);
        }
    }
    lanes
}

/// MCSP over whatever produces cohorts: `s(i, i)` is 1 by definition,
/// otherwise the two cohorts scored by [`score_pair`]. The one spelling
/// behind [`single_pair_on`] (kernel cohorts, cannot fail), the provided
/// `SimRankEngine::single_pair` (an engine's cohort dataflow, owned
/// values) and the session (cached blocks).
#[inline]
pub(crate) fn pair_from_cohorts<D: CohortLayout, E>(
    diag: &[f64],
    c: f64,
    (i, j): (NodeId, NodeId),
    mut cohort: impl FnMut(NodeId) -> Result<D, E>,
) -> Result<f64, E> {
    if i == j {
        return Ok(1.0);
    }
    let (di, dj) = (cohort(i)?, cohort(j)?);
    Ok(score_pair(&di, &dj, diag, c))
}

/// MCSP: the single-pair query on any adjacency source.
pub fn single_pair_on<A: WalkAdjacency>(
    adj: &A,
    diag: &[f64],
    cfg: &SimRankConfig,
    i: NodeId,
    j: NodeId,
) -> f64 {
    let kernel = |v| Ok::<_, Infallible>(query_block_on(adj, cfg, v));
    let Ok(score) = pair_from_cohorts(diag, cfg.c, (i, j), kernel);
    score
}

/// [`single_pair_on`] over the resident graph.
pub fn single_pair(
    graph: &CsrGraph,
    diag: &[f64],
    cfg: &SimRankConfig,
    i: NodeId,
    j: NodeId,
) -> f64 {
    single_pair_on(graph, diag, cfg, i, j)
}

/// Calls `f` on the entries `(k, D_kk·ûₜ(k))` of the weighted support
/// `yₜ = D ûₜ` of a cohort's step-`t` histogram, in either layout (none
/// past the last step), ascending by node.
fn for_each_support(
    dists: &impl CohortLayout,
    t: usize,
    diag: &[f64],
    mut f: impl FnMut(NodeId, f64),
) {
    let r = f64::from(dists.walkers());
    if let Some(step) = dists.histograms().nth(t) {
        step.for_each(|k, c| f(k, diag[k as usize] * c as f64 / r));
    }
}

/// The weighted support `yₜ = D ûₜ` of a cohort's step-`t` histogram, in
/// either layout (empty past the last step).
pub fn weighted_support(dists: &impl CohortLayout, t: usize, diag: &[f64]) -> Vec<(NodeId, f64)> {
    let mut y = Vec::new();
    for_each_support(dists, t, diag, |k, v| y.push((k, v)));
    y
}

/// Adds the weighted support `yₜ` into the dense `z`, in place.
pub(crate) fn add_support(dists: &impl CohortLayout, t: usize, diag: &[f64], z: &mut [f64]) {
    for_each_support(dists, t, diag, |k, y| z[k as usize] += y);
}

/// Mass-proportional walker allocation for the forward stage: entry `k`
/// with mass `y_k` receives `max(1, round(total · y_k / Σy))` walkers, so
/// the per-term budget is ≈ `total` (the paper's `R'` in its `O(T²R′ log d)`
/// bound) and concentrated where the mass is — a fixed per-entry count
/// under-samples hub-heavy supports and wrecks ranking quality.
///
/// Deterministic: identical inputs yield identical allocations on every
/// engine, preserving cross-mode trajectory equality.
pub fn forward_allocation(y: &[(NodeId, f64)], total: u32) -> Vec<(NodeId, f64, u32)> {
    let sum: f64 = y.iter().map(|&(_, v)| v).sum();
    if sum <= 0.0 {
        return Vec::new();
    }
    y.iter()
        .filter(|&&(_, v)| v > 0.0)
        .map(|&(k, v)| {
            let n = ((total as f64 * v / sum).round() as u32).max(1);
            (k, v, n)
        })
        .collect()
}

/// One launch of the MCSS series: `n` mass-carrying walkers leave support
/// node `k` of term `t`, each with mass `y / n`, and whatever lands after
/// `t` forward steps is weighted by `cᵗ`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct ForwardItem {
    /// Series term `t ≥ 1` — also the number of forward steps.
    pub(crate) t: usize,
    /// The term's weight `cᵗ`.
    pub(crate) ct: f64,
    /// [`forward_seed`] of the query source at term `t`.
    seed: u64,
    /// Support node the walkers start from.
    pub(crate) k: NodeId,
    /// Its mass `y_k = D_kk · ûₜ(k)`.
    pub(crate) y: f64,
    /// Walkers allotted by [`forward_allocation`].
    pub(crate) n: u32,
}

impl ForwardItem {
    /// The RNG keys of the item's walkers `0..n` — each a pure function of
    /// the query source, the term, the support node and the walker, so the
    /// walk can run (or, in the RDD model, resume) on any executor. The
    /// rounds of the shared `(seed, k)` prefix are mixed once.
    #[inline]
    pub(crate) fn keys(&self) -> impl Iterator<Item = u64> {
        let prefix = mix(&[self.seed, self.k as u64]);
        let t = self.t as u64;
        (0..self.n).map(move |w| mix_extend(prefix, &[w as u64, t]))
    }
}

/// The forward stage of one series term (`items` share `t`): all their
/// walkers, `y / n` of mass each, are launched onto `frontier` (scratch,
/// overwritten) in `(item, walker)` order and walk `t` steps there;
/// `emit(node, cᵗ·mass)` sees every one that lands, in that order.
#[inline]
pub(crate) fn forward_term<S: ForwardSampler>(
    sampler: &S,
    items: &[ForwardItem],
    frontier: &mut Vec<ForwardWalker>,
    mut emit: impl FnMut(NodeId, f64),
) {
    let Some(&ForwardItem { t, ct, .. }) = items.first() else { return };
    debug_assert!(items.iter().all(|item| item.t == t), "one term per launch");
    frontier.clear();
    for item in items {
        let per = item.y / item.n as f64;
        frontier.extend(item.keys().map(|key| (item.k, per, key)));
    }
    forward_walk_frontier(sampler, frontier, t);
    frontier.iter().for_each(|&(node, mass, _)| emit(node, ct * mass));
}

/// One piece of the MCSS series, as [`mcss_series`] enumerates it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum SeriesTerm<'a> {
    /// The `t = 0` term: `(Pᵀ)⁰ = I`, so `mass` lands on `node` as is.
    Landed(NodeId, f64),
    /// Every launch of one term `t ≥ 1`, in support-node order.
    Launch(&'a [ForwardItem]),
}

/// The one enumeration of the MCSS series `s_i = Σ_t cᵗ (Pᵀ)ᵗ (D ûₜ)` for a
/// cohort: the `t = 0` term, then term by term the launch items, in support
/// node order, with their mass-proportional walker allocation. Every
/// substrate consumes this — in process into a dense vector or a
/// [`MassMap`], the Broadcasting model by batching the items into a stage,
/// the RDD model by turning each item into shuffled walker records.
#[inline]
pub(crate) fn mcss_series(
    dists: &impl CohortLayout,
    diag: &[f64],
    cfg: &SimRankConfig,
    mut each: impl FnMut(SeriesTerm<'_>),
) {
    let mut ct = 1.0;
    for t in 0..=cfg.t {
        let support = weighted_support(dists, t, diag);
        if t == 0 {
            for &(k, m) in &support {
                each(SeriesTerm::Landed(k, ct * m));
            }
        } else {
            let seed = forward_seed(cfg, dists.source(), t);
            let items: Vec<ForwardItem> = forward_allocation(&support, cfg.r_forward)
                .into_iter()
                .map(|(k, y, n)| ForwardItem { t, ct, seed, k, y, n })
                .collect();
            each(SeriesTerm::Launch(&items));
        }
        ct *= cfg.c;
    }
}

/// Evaluates the whole series on `sampler`, handing every landed mass to
/// `emit` in series order — the in-process sinks (a dense vector, a
/// [`MassMap`]) differ only in that closure.
#[inline]
fn mcss_accumulate<S: ForwardSampler>(
    sampler: &S,
    dists: &impl CohortLayout,
    diag: &[f64],
    cfg: &SimRankConfig,
    mut emit: impl FnMut(NodeId, f64),
) {
    let mut frontier = Vec::new();
    mcss_series(dists, diag, cfg, |term| match term {
        SeriesTerm::Landed(node, mass) => emit(node, mass),
        SeriesTerm::Launch(items) => forward_term(sampler, items, &mut frontier, &mut emit),
    });
}

/// What one weighted walker step costs, in swept in-links (see
/// [`sweeps_pay`]), fitted where the rule's answer matters. On R-MAT
/// graphs near its point (2¹⁸–2¹⁹ nodes, 2.4–6.9 M in-links, paper
/// parameters, a 2-core Xeon) a walker step took 155–250 ns and a swept
/// in-link 2.2–4.3 ns, a ratio of 46–84, median 67. On cache-resident
/// graphs a step costs 5–45 ns, so the rule sweeps a few of them that the
/// walks would finish first — in milliseconds, and the sweeps are exact.
/// To refit, time both arms (`walked_masses_on`, `swept_series_on`) from
/// one cohort on the `uk-union-sim` and `clue-web-sim` stand-ins, either
/// side of the point: the constant is their time ratio over their work
/// ratio. The paper scorecard's A1 rows time both arms at smaller scale.
pub const WALK_STEP_EDGES: u64 = 67;

/// The one rule that picks the forward stage's arm. The exact sweeps take
/// `T` passes over `n` nodes and `m` in-links; the walks take
/// `R_f·T(T+1)/2` weighted steps (`R_f` walkers per term `t`, each walking
/// `t` steps). Sweeps when they cost less, counting a walker step as
/// [`WALK_STEP_EDGES`] swept in-links; walks past that point (and at
/// `T = 0`, where there is no forward stage).
pub fn sweeps_pay(n: u64, m: u64, t: usize, r_forward: u32) -> bool {
    let t = t as u128;
    let sweeps = t * (u128::from(n) + u128::from(m));
    let steps = u128::from(r_forward) * t * (t + 1) / 2;
    sweeps < steps * u128::from(WALK_STEP_EDGES)
}

/// [`sweeps_pay`] for `cfg` on `adj`.
#[inline]
pub(crate) fn sweeps_on<A: WalkAdjacency>(adj: &A, cfg: &SimRankConfig) -> bool {
    sweeps_pay(u64::from(adj.node_count()), adj.edge_count(), cfg.t, cfg.r_forward)
}

/// `c` times the mean of a node's pulled in-link masses, whose running sum
/// (from `0.0`, in in-link order) is `sum`; 0 without in-links. The
/// pull sweep and the RDD model's out-edge shuffle both finish a node here.
#[inline]
pub(crate) fn pulled(sum: f64, c: f64, in_degree: usize) -> f64 {
    if in_degree == 0 {
        0.0
    } else {
        c * sum / in_degree as f64
    }
}

/// One application of `c·Pᵀ` by pulling over the in-links:
/// `out[j − first] = c·Σ_{k∈In(j)} z[k] / |In(j)|` for the nodes
/// `first..first + out.len()`. The one sweep behind every engine's exact
/// arm; the Broadcasting model runs it one node range per task.
/// Nodes go in [`pasco_graph::SweepPlan`] order, dead ones to `0.0`; each
/// sum still starts at `0.0` and adds its in-links in in-link order, so
/// every bit is node order's.
pub fn pull_sweep<A: WalkAdjacency>(adj: &A, z: &[f64], c: f64, first: NodeId, out: &mut [f64]) {
    let range = first..first + out.len() as NodeId;
    let chain = |ins: &[NodeId], sum: f64| ins.iter().fold(sum, |sum, &k| sum + z[k as usize]);
    let one = |out: &mut [f64], j: NodeId| {
        let ins = adj.in_neighbors(j);
        out[(j - first) as usize] = pulled(chain(ins, 0.0), c, ins.len());
    };
    out.fill(0.0);
    for (singles, lanes) in adj.sweep_plan().blocks(range.clone()) {
        singles.iter().filter(|j| range.contains(j)).for_each(|&j| one(out, j));
        // Lanes of four from the top, so a leftover one to three are the
        // block's smallest lane nodes, not its hubs.
        let quads = lanes.rchunks_exact(4);
        quads.remainder().iter().for_each(|&j| one(out, j));
        for quad in quads {
            let ins = [0, 1, 2, 3].map(|l| adj.in_neighbors(quad[l]));
            let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
            for (((&k0, &k1), &k2), &k3) in ins[0].iter().zip(ins[1]).zip(ins[2]).zip(ins[3]) {
                s0 += z[k0 as usize];
                s1 += z[k1 as usize];
                s2 += z[k2 as usize];
                s3 += z[k3 as usize];
            }
            let even = ins.iter().map(|i| i.len()).min().unwrap_or(0);
            for ((&j, ins), sum) in quad.iter().zip(ins).zip([s0, s1, s2, s3]) {
                out[(j - first) as usize] = pulled(chain(&ins[even..], sum), c, ins.len());
            }
        }
    }
}

thread_local! {
    /// The sweeps' two `n`-length buffers: sized by the largest graph swept
    /// on this thread, never shrunk.
    static SWEEP: RefCell<[Vec<f64>; 2]> = RefCell::default();
}

/// The MCSS series evaluated exactly, by Horner's rule: `z_T = D û_T`,
/// then `z_t = D ûₜ + c·Pᵀ z_{t+1}` by `pull_sweep`, so `s = z_0` after
/// `T` sweeps. `read` gets `z_0` (the query node not yet pinned to 1). Runs
/// on this thread's two reused buffers. Generic over [`WalkAdjacency`], so
/// every storage and every worker sums the same in-links in the same order.
pub fn swept_series_on<A: WalkAdjacency, R>(
    adj: &A,
    dists: &impl CohortLayout,
    diag: &[f64],
    cfg: &SimRankConfig,
    read: impl FnOnce(&[f64]) -> R,
) -> R {
    let n = adj.node_count() as usize;
    SWEEP.with(|cell| {
        let mut own = None;
        let mut shared = cell.try_borrow_mut().ok();
        // Re-entered from inside `read`: buffers of its own.
        let [z, next] = match shared.as_deref_mut() {
            Some(bufs) => bufs,
            None => own.insert(<[Vec<f64>; 2]>::default()),
        };
        z.clear();
        z.resize(n, 0.0);
        next.resize(n, 0.0);
        add_support(dists, cfg.t, diag, z);
        for t in (0..cfg.t).rev() {
            pull_sweep(adj, z, cfg.c, 0, &mut next[..n]);
            add_support(dists, t, diag, next);
            std::mem::swap(z, next);
        }
        read(&z[..n])
    })
}

/// The walks arm, dense: `s_i = Σ_t cᵗ (Pᵀ)ᵗ (D ûₜ)`, the transpose
/// powers estimated by mass-carrying forward walks keyed by
/// [`forward_seed`], accumulated into a length-`n` vector with the query
/// node pinned to 1 — the dense walks kernel behind every storage.
pub fn walked_scores_on<S: ForwardSampler>(
    n: usize,
    sampler: &S,
    dists: &impl CohortLayout,
    diag: &[f64],
    cfg: &SimRankConfig,
) -> Vec<f64> {
    let mut out = vec![0.0f64; n];
    mcss_accumulate(sampler, dists, diag, cfg, |node, mass| out[node as usize] += mass);
    out[dists.source() as usize] = 1.0;
    out
}

/// The walks arm, sparse: the reached-node masses of the series as a
/// [`MassMap`] over the (at most `O(T²·R_f)`) nodes any walker lands on.
pub fn walked_masses_on<S: ForwardSampler>(
    sampler: &S,
    dists: &impl CohortLayout,
    diag: &[f64],
    cfg: &SimRankConfig,
) -> MassMap {
    let mut acc = MassMap::with_capacity(cfg.r_forward as usize);
    mcss_accumulate(sampler, dists, diag, cfg, |node, mass| acc.add(node, mass));
    acc
}

/// The forward stage's two arms, as [`sweeps_pay`] picks them for a query:
/// the exact sweeps over the in-links, or the weighted walks drawing from a
/// sampler. Only the walks take one, so a storage that holds no out-links
/// (its sampler [`pasco_graph::NoSampler`], which has no values) can only
/// ever run the sweeps.
#[derive(Debug)]
pub enum ForwardArm<'a, S> {
    /// `T` pull sweeps over the in-links ([`swept_series_on`]).
    Sweeps,
    /// Mass-carrying forward walks on the sampler ([`walked_masses_on`]).
    Walks(&'a S),
}

impl<'a, A: WalkAdjacency + ForwardSampler> ForwardArm<'a, A> {
    /// The arm [`sweeps_pay`] picks on a storage that samples its own
    /// out-edges.
    pub fn of(adj: &'a A, cfg: &SimRankConfig) -> Self {
        if sweeps_on(adj, cfg) {
            ForwardArm::Sweeps
        } else {
            ForwardArm::Walks(adj)
        }
    }
}

/// The forward stage of one cohort on `arm`, its masses handed to `read`
/// as `(node, mass)` pairs: the non-zero entries of the exact series in
/// node order, or the walks' landed masses in no order. Every ranking path
/// reads it, so they all take the same arm.
pub(crate) fn forward_masses_on<A: WalkAdjacency, S: ForwardSampler, R>(
    adj: &A,
    arm: ForwardArm<'_, S>,
    dists: &impl CohortLayout,
    diag: &[f64],
    cfg: &SimRankConfig,
    read: impl FnOnce(&mut dyn Iterator<Item = (NodeId, f64)>) -> R,
) -> R {
    match arm {
        ForwardArm::Sweeps => swept_series_on(adj, dists, diag, cfg, |z| {
            let entries = z.iter().enumerate().filter(|&(_, &m)| m != 0.0);
            read(&mut entries.map(|(v, &m)| (v as NodeId, m)))
        }),
        ForwardArm::Walks(sampler) => read(&mut walked_masses_on(sampler, dists, diag, cfg).iter()),
    }
}

/// MCSS: the single-source query on any storage, its forward stage on
/// `arm` ([`ForwardArm::of`] on a storage that samples). Query node pinned
/// to 1.
pub fn single_source_on<A: WalkAdjacency, S: ForwardSampler>(
    adj: &A,
    arm: ForwardArm<'_, S>,
    diag: &[f64],
    cfg: &SimRankConfig,
    i: NodeId,
) -> Vec<f64> {
    let ForwardArm::Walks(sampler) = arm else {
        return single_source_push(adj, diag, cfg, i);
    };
    let block = query_block_on(adj, cfg, i);
    walked_scores_on(adj.node_count() as usize, sampler, &block, diag, cfg)
}

/// [`single_source_on`] over the resident graph and its sampling index.
pub fn single_source(
    graph: &CsrGraph,
    rci: &ReverseChainIndex,
    diag: &[f64],
    cfg: &SimRankConfig,
    i: NodeId,
) -> Vec<f64> {
    let sampler = GraphSampler::new(graph, rci);
    single_source_on(&sampler, ForwardArm::of(&sampler, cfg), diag, cfg, i)
}

/// MCSS on its exact arm, the one [`single_source_on`] takes where
/// [`sweeps_pay`] holds: the series swept by [`swept_series_on`] on any
/// storage. Exact *given the cohort*; costs `T` sweeps over every in-link.
pub fn single_source_push<A: WalkAdjacency>(
    adj: &A,
    diag: &[f64],
    cfg: &SimRankConfig,
    i: NodeId,
) -> Vec<f64> {
    let block = query_block_on(adj, cfg, i);
    let mut out = swept_series_on(adj, &block, diag, cfg, <[f64]>::to_vec);
    out[i as usize] = 1.0;
    out
}

/// Top-`k` MCSS: the top `k` scoring nodes (query node excluded), sorted
/// by descending score with node-id tie-breaks, ranked straight from the
/// masses of the forward stage on `arm`.
pub fn single_source_topk_on<A: WalkAdjacency, S: ForwardSampler>(
    adj: &A,
    arm: ForwardArm<'_, S>,
    diag: &[f64],
    cfg: &SimRankConfig,
    i: NodeId,
    k: usize,
) -> Vec<(NodeId, f64)> {
    let block = query_block_on(adj, cfg, i);
    forward_masses_on(adj, arm, &block, diag, cfg, |masses| rank_topk(masses, i, k))
}

/// [`single_source_topk_on`] over the resident graph and its sampling
/// index.
pub fn single_source_topk(
    graph: &CsrGraph,
    rci: &ReverseChainIndex,
    diag: &[f64],
    cfg: &SimRankConfig,
    i: NodeId,
    k: usize,
) -> Vec<(NodeId, f64)> {
    let sampler = GraphSampler::new(graph, rci);
    single_source_topk_on(&sampler, ForwardArm::of(&sampler, cfg), diag, cfg, i, k)
}

/// The forward stage of one cohort as a [`MassMap`] of its non-zero
/// masses, on the arm [`sweeps_pay`] picks.
pub fn sparse_masses_on<A: WalkAdjacency + ForwardSampler>(
    adj: &A,
    dists: &impl CohortLayout,
    diag: &[f64],
    cfg: &SimRankConfig,
) -> MassMap {
    forward_masses_on(adj, ForwardArm::of(adj, cfg), dists, diag, cfg, |masses| {
        let mut acc = MassMap::with_capacity(cfg.r_forward as usize);
        masses.for_each(|(v, m)| acc.add(v, m));
        acc
    })
}

/// The total order every ranking path sorts by: descending score, node-id
/// tie-break. Uses [`f64::total_cmp`] so a NaN score (e.g. from a poisoned
/// diagonal entry) can never panic a query; NaN orders above every finite
/// score under `total_cmp`, deterministically. [`rank_topk`] and the
/// distributed coordinator's check of a worker's ranking share this
/// comparator — the cross-engine ranking-equality guarantee depends on
/// there being exactly one.
#[inline]
pub(crate) fn ranking_cmp(a: &(NodeId, f64), b: &(NodeId, f64)) -> std::cmp::Ordering {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
}

/// The shared ranking tail of every top-`k` path: clamp into `[0, 1]`,
/// drop the query node, unreached (zero-score) and NaN entries, select the
/// first `k` by [`ranking_cmp`] and sort only those — a strict total order
/// over distinct nodes, so the list a full sort would truncate. Candidates
/// are cut back to the best `k` whenever `2k` (at least 64) pile up, so a
/// dense input of `n` scores never holds more than that, and after the
/// first cut only those that rank before the `k`-th kept one are pushed.
/// In-process, worker and cluster dense top-`k` all rank
/// through here, so the cross-mode ranking-equality guarantee depends on
/// exactly one tie-break implementation.
pub(crate) fn rank_topk(
    items: impl IntoIterator<Item = (NodeId, f64)>,
    exclude: NodeId,
    k: usize,
) -> Vec<(NodeId, f64)> {
    let keep_best = |out: &mut Vec<(NodeId, f64)>| {
        if let Some(kth) = k.checked_sub(1).filter(|&kth| kth < out.len()) {
            out.select_nth_unstable_by(kth, ranking_cmp);
        }
        out.truncate(k);
    };
    let cut = k.saturating_mul(2).max(64);
    let mut out = Vec::new();
    let mut bar = None; // the k-th best kept at the last cut
    let candidates = items
        .into_iter()
        .map(|(v, s)| (v, s.clamp(0.0, 1.0)))
        .filter(|&(v, s)| v != exclude && s > 0.0);
    for item in candidates {
        if bar.is_some_and(|bar| ranking_cmp(&item, &bar).is_gt()) {
            continue;
        }
        out.push(item);
        if out.len() >= cut {
            keep_best(&mut out);
            bar = out.last().copied();
        }
    }
    keep_best(&mut out);
    out.sort_unstable_by(ranking_cmp);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{exact_diagonal, ExactSimRank};
    use pasco_graph::generators;

    fn setup(g: &CsrGraph, cfg: &SimRankConfig) -> (ReverseChainIndex, Vec<f64>) {
        let rci = ReverseChainIndex::build(g);
        let diag = exact_diagonal(g, cfg.c, cfg.t, 50);
        (rci, diag.as_slice().to_vec())
    }

    #[test]
    fn the_arm_rule_sweeps_below_its_point_and_walks_past_it() {
        let (t, r_f) = (10, 10_000);
        // rmat16 (the spine), twitter-sim and uk-union-sim sweep;
        // clue-web-sim walks.
        assert!(sweeps_pay(65_536, 913_573, t, r_f));
        assert!(sweeps_pay(131_072, 1_500_802, t, r_f));
        assert!(sweeps_pay(262_144, 3_219_991, t, r_f));
        assert!(!sweeps_pay(524_288, 6_873_938, t, r_f));
        // The point: T·(n + m) against 67·R_f·T(T+1)/2, strictly below.
        let point = WALK_STEP_EDGES * u64::from(r_f) * 11 / 2;
        assert!(sweeps_pay(point - 1, 0, t, r_f));
        assert!(!sweeps_pay(point, 0, t, r_f));
        // No forward stage at T = 0; a handful of walkers beats any sweep.
        assert!(!sweeps_pay(10, 10, 0, r_f));
        assert!(!sweeps_pay(2_000, 12_000, 5, 20));
    }

    #[test]
    fn identical_nodes_score_one() {
        let g = generators::barabasi_albert(100, 3, 1);
        let cfg = SimRankConfig::fast();
        let (_, diag) = setup(&g, &cfg);
        assert_eq!(single_pair(&g, &diag, &cfg, 5, 5), 1.0);
    }

    #[test]
    fn shared_parent_pair_close_to_exact() {
        // 2 -> 0, 2 -> 1 ⇒ s(0,1) = c = 0.6 exactly.
        let g = CsrGraph::from_edges(3, &[(2, 0), (2, 1)]);
        let cfg = SimRankConfig::default_paper().with_r_query(20_000);
        let (_, diag) = setup(&g, &cfg);
        let s = single_pair(&g, &diag, &cfg, 0, 1);
        assert!((s - 0.6).abs() < 0.02, "s = {s}");
    }

    #[test]
    fn mcsp_approximates_exact_simrank() {
        let g = generators::barabasi_albert(80, 3, 11);
        let cfg = SimRankConfig::default_paper().with_r_query(8_000).with_t(8);
        let (_, diag) = setup(&g, &cfg);
        let exact = ExactSimRank::compute(&g, cfg.c, 25);
        let mut worst = 0.0f64;
        for &(i, j) in &[(0u32, 1u32), (3, 40), (10, 60), (79, 2), (25, 26)] {
            let est = single_pair(&g, &diag, &cfg, i, j);
            worst = worst.max((est - exact.get(i, j)).abs());
        }
        assert!(worst < 0.06, "worst pair error {worst}");
    }

    #[test]
    fn mcss_and_push_variants_agree_with_exact() {
        let g = generators::barabasi_albert(80, 3, 13);
        let cfg = SimRankConfig::default_paper().with_r_query(4_000).with_t(8);
        let (rci, diag) = setup(&g, &cfg);
        let exact = ExactSimRank::compute(&g, cfg.c, 25);
        let i = 7u32;
        let mc = single_source(&g, &rci, &diag, &cfg, i);
        let push = single_source_push(&g, &diag, &cfg, i);
        let truth = exact.row(i);
        let mean_err_mc: f64 = mc.iter().zip(truth).map(|(a, b)| (a - b).abs()).sum::<f64>() / 80.0;
        let mean_err_push: f64 =
            push.iter().zip(truth).map(|(a, b)| (a - b).abs()).sum::<f64>() / 80.0;
        assert!(mean_err_mc < 0.03, "MC mean err {mean_err_mc}");
        assert!(mean_err_push < 0.03, "push mean err {mean_err_push}");
        // The push variant removes the forward-walk noise; it should not be
        // (much) worse than the MC variant.
        assert!(mean_err_push <= mean_err_mc + 0.01);
        assert_eq!(mc[i as usize], 1.0);
    }

    #[test]
    fn queries_are_deterministic() {
        let g = generators::rmat(8, 1200, generators::RmatParams::default(), 2);
        let cfg = SimRankConfig::fast();
        let (rci, diag) = setup(&g, &cfg);
        assert_eq!(single_pair(&g, &diag, &cfg, 3, 99), single_pair(&g, &diag, &cfg, 3, 99));
        assert_eq!(
            single_source(&g, &rci, &diag, &cfg, 3),
            single_source(&g, &rci, &diag, &cfg, 3)
        );
    }

    #[test]
    fn mcsp_is_symmetric_in_its_arguments() {
        let g = generators::barabasi_albert(60, 3, 3);
        let cfg = SimRankConfig::fast();
        let (_, diag) = setup(&g, &cfg);
        // The estimator reuses per-node cohorts, so swapping arguments uses
        // the same two cohorts and must give the identical score.
        assert_eq!(single_pair(&g, &diag, &cfg, 10, 20), single_pair(&g, &diag, &cfg, 20, 10));
    }

    #[test]
    fn sparse_topk_matches_dense_single_source() {
        let g = generators::barabasi_albert(100, 3, 21);
        let cfg = SimRankConfig::fast();
        let (rci, diag) = setup(&g, &cfg);
        let i = 8u32;
        let dense = single_source(&g, &rci, &diag, &cfg, i);
        let clamped: Vec<f64> = dense.iter().map(|s| s.clamp(0.0, 1.0)).collect();
        let expect = crate::metrics::top_k(&clamped, 10, Some(i));
        let got = single_source_topk(&g, &rci, &diag, &cfg, i, 10);
        assert_eq!(got.len(), expect.len());
        for ((gn, gs), (en, es)) in got.iter().zip(&expect) {
            assert_eq!(gn, en);
            assert!((gs - es).abs() < 1e-12, "{gs} vs {es}");
        }
    }

    #[test]
    fn rank_topk_tolerates_nan_scores() {
        // Regression: the comparator used `partial_cmp(..).unwrap()`, so a
        // single NaN score (e.g. a poisoned diagonal entry) could panic the
        // whole query. total_cmp ranks without panicking; NaN entries are
        // dropped by the zero-score filter after the clamp.
        let items = vec![(1u32, f64::NAN), (2, 0.5), (3, 0.5), (4, 0.9), (5, f64::NAN)];
        let ranked = rank_topk(items, 0, 10);
        assert_eq!(ranked, vec![(4, 0.9), (2, 0.5), (3, 0.5)]);
    }

    #[test]
    fn rank_topk_selects_the_list_a_full_sort_truncates() {
        // Ties on the score (broken by node id), NaNs (dropped after the
        // clamp), and k at 1, inside the list, at its length and past it.
        let items: Vec<(NodeId, f64)> = (0..200u32)
            .map(|v| (v, if v % 17 == 0 { f64::NAN } else { f64::from((v * 37) % 23) / 20.0 }))
            .collect();
        let mut full: Vec<(NodeId, f64)> =
            items.iter().map(|&(v, s)| (v, s.clamp(0.0, 1.0))).collect();
        full.retain(|&(v, s)| v != 5 && s > 0.0);
        full.sort_unstable_by(ranking_cmp);
        for k in [1, 2, 10, 57, full.len() - 1, full.len(), full.len() + 1, 1000] {
            let want = &full[..k.min(full.len())];
            assert_eq!(rank_topk(items.iter().copied(), 5, k), want, "k = {k}");
        }
        assert!(rank_topk(items, 5, 0).is_empty());
    }

    #[test]
    fn rank_topk_skips_only_candidates_that_cannot_place() {
        // Many cuts, runs of tied scores across the k-th entry, NaNs, the
        // query node among the best, and k past n — in the given order and
        // sorted best first or worst first (all skipped after the first
        // cut, or none).
        let items: Vec<(NodeId, f64)> = (0..5_000u32)
            .map(|v| match v % 29 {
                0 => (v, f64::NAN),
                1 => (v, 0.9),
                r => (v, f64::from((v * 7_919) % 97) / 96.0 * f64::from(r % 3)),
            })
            .collect();
        let exclude = 30;
        let mut full: Vec<(NodeId, f64)> =
            items.iter().map(|&(v, s)| (v, s.clamp(0.0, 1.0))).collect();
        full.retain(|&(v, s)| v != exclude && s > 0.0);
        full.sort_unstable_by(ranking_cmp);
        let mut best_first = items.clone();
        best_first.sort_by(|a, b| b.1.total_cmp(&a.1));
        let worst_first: Vec<_> = best_first.iter().rev().copied().collect();
        for input in [items, best_first, worst_first] {
            for k in [1, 3, 20, 64, 65, 171, 1_000, full.len(), full.len() + 1, 10_000] {
                let want = &full[..k.min(full.len())];
                assert_eq!(rank_topk(input.iter().copied(), exclude, k), want, "k = {k}");
            }
        }
    }

    #[test]
    fn queries_with_poisoned_diagonal_do_not_panic() {
        // End-to-end version of the NaN regression: a NaN diagonal entry
        // must degrade the ranking, never panic the serving path.
        let g = generators::barabasi_albert(60, 3, 17);
        let cfg = SimRankConfig::fast();
        let (rci, mut diag) = setup(&g, &cfg);
        diag[7] = f64::NAN;
        let ranked = single_source_topk(&g, &rci, &diag, &cfg, 3, 5);
        assert!(ranked.len() <= 5);
        assert!(ranked.iter().all(|&(_, s)| s.is_finite()));
        let scores = single_source(&g, &rci, &diag, &cfg, 3);
        let _ = crate::metrics::top_k(&scores, 5, Some(3)); // must not panic
    }

    #[test]
    fn topk_ranks_self_out_and_sorts_for_every_source() {
        let g = generators::two_communities(40, 150, 4, 5);
        let cfg = SimRankConfig::fast();
        let (rci, diag) = setup(&g, &cfg);
        for i in g.nodes() {
            let list = single_source_topk(&g, &rci, &diag, &cfg, i, 5);
            assert!(list.len() <= 5);
            assert!(list.iter().all(|&(j, _)| j != i), "self excluded");
            assert!(list.windows(2).all(|w| w[0].1 >= w[1].1), "sorted desc");
        }
    }
}
