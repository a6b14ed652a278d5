//! Reverse random walks along in-links — the SimRank chain.
//!
//! A walker at node `v` steps to a uniformly random in-neighbour; if `v` has
//! no in-neighbours the walker **dies** (the empirical distribution loses
//! mass, matching the sub-stochastic truncated series `Pᵗeᵢ`).
//!
//! Randomness is *stateless per step*: the uniform used by walker `w` from
//! source `s` at step `t` is a pure function of `(master_seed, s, w, t)`
//! (see [`step_u64`]). Walks therefore take identical trajectories whether
//! they are simulated locally, on a broadcast worker pool, or shuffled
//! across RDD partitions step by step — the property the cross-mode equality
//! tests rely on.
//!
//! It also makes loop order free, and the cohort kernel
//! ([`WalkScratch::counts_on`]) is **step-synchronous**: the live walkers'
//! positions and keys sit in two flat arrays, in walker order, and a pass
//! advances all of them by one step — independent iterations, so their cache
//! misses overlap, where a walker-major loop is a chain of `T` dependent
//! loads — compacting out the ones that die. A step's histogram is the
//! positions copied out, sorted and run-length encoded: sorted, exact-length
//! output with no hashing. Counts are integers, so the histograms are, entry
//! for entry, what a per-walker loop ([`reverse_walk_path`], the test
//! oracle) adds up. The offline build runs the same loop through
//! [`WalkScratch::visits_on`], which sorts the whole cohort's visits once
//! instead of once per step.

use crate::rng::{mix, mix_extend, SplitMix64};
use pasco_graph::{CsrGraph, NodeId, WalkAdjacency};
use std::ops::Range;

/// Walk-cohort parameters: `steps` is the paper's `T`, `walkers` its `R`
/// (indexing) or `R'` (queries).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalkParams {
    /// Number of steps `T` each walker takes.
    pub steps: usize,
    /// Cohort size (`R` / `R'`).
    pub walkers: u32,
}

impl WalkParams {
    /// Convenience constructor.
    pub fn new(steps: usize, walkers: u32) -> Self {
        assert!(walkers > 0, "need at least one walker");
        Self { steps, walkers }
    }
}

/// The per-walker RNG key; combine with a step index via [`step_u64`].
#[inline]
pub fn walker_key(seed: u64, source: NodeId, walker: u32) -> u64 {
    mix(&[seed, source as u64, walker as u64])
}

/// [`walker_key`] of every walker in `walkers`, in order, the rounds of the
/// shared `(seed, source)` prefix mixed once.
#[inline]
pub fn walker_keys(seed: u64, source: NodeId, walkers: Range<u32>) -> impl Iterator<Item = u64> {
    let prefix = mix(&[seed, source as u64]);
    walkers.map(move |w| mix_extend(prefix, &[w as u64]))
}

/// The 64 uniform bits consumed by one walk step — a pure function of the
/// walker key and step index, independent of where the step executes.
#[inline]
pub fn step_u64(walker_key: u64, t: u32) -> u64 {
    SplitMix64::new(walker_key ^ (t as u64).wrapping_mul(0xd1b5_4a32_d192_ed03)).next_u64()
}

/// Picks index `< len` from 64 uniform bits (Lemire multiply-shift).
#[inline]
pub fn pick(u: u64, len: usize) -> usize {
    (((u >> 32) * len as u64) >> 32) as usize
}

/// One reverse-walk step from `pos`; `None` when `pos` is dangling.
#[inline]
pub fn reverse_step<G: WalkAdjacency>(graph: &G, pos: NodeId, key: u64, t: u32) -> Option<NodeId> {
    let ins = graph.in_neighbors(pos);
    (!ins.is_empty()).then(|| ins[pick(step_u64(key, t), ins.len())])
}

/// Empirical per-step distributions of a walker cohort from one source:
/// `counts[t]` is the visit histogram at step `t` (sorted by node id),
/// normalising by `walkers` estimates `Pᵗ e_source`.
#[derive(Clone, Debug, PartialEq)]
pub struct StepDistributions {
    /// The source node all walkers started from.
    pub source: NodeId,
    /// Cohort size used for normalisation.
    pub walkers: u32,
    /// `counts[t]` for `t = 0..=steps`; `counts[0] = [(source, walkers)]`.
    pub counts: Vec<Vec<(NodeId, u64)>>,
}

impl StepDistributions {
    /// Number of steps simulated (`T`).
    pub fn steps(&self) -> usize {
        self.counts.len() - 1
    }

    /// The estimated probability `P̂ᵗe_s(v) = count / walkers` at step `t`.
    pub fn prob(&self, t: usize, v: NodeId) -> f64 {
        match self.counts[t].binary_search_by_key(&v, |&(k, _)| k) {
            Ok(i) => self.counts[t][i].1 as f64 / self.walkers as f64,
            Err(_) => 0.0,
        }
    }

    /// Surviving mass at step `t` (≤ 1; < 1 once walkers hit dangling nodes).
    pub fn mass(&self, t: usize) -> f64 {
        let total: u64 = self.counts[t].iter().map(|&(_, c)| c).sum();
        total as f64 / self.walkers as f64
    }
}

/// Frontiers of at least this many positions, and cohorts of at least this
/// many visit keys, are radix-sorted; below it `sort_unstable` is faster
/// (the build's `R = 100` frontiers never reach it, its cohorts' keys do).
const RADIX_MIN: usize = 256;
/// Most bits per radix pass: 2048 buckets, two passes up to 4M nodes.
const RADIX_BITS: u32 = 11;

/// Stable LSD radix sort of `keys`, all below `bound`, by their bits from
/// `low` up, through the buffer `tmp`: as few passes as digits of at most
/// `RADIX_BITS` allow, the bits split evenly between them.
fn radix_sort<K>(keys: &mut Vec<K>, tmp: &mut Vec<K>, low: u32, bound: u64)
where
    K: Copy + Default + Into<u64>,
{
    tmp.resize(keys.len(), K::default());
    let bits = (u64::BITS - bound.saturating_sub(1).leading_zeros()).saturating_sub(low);
    let passes = bits.div_ceil(RADIX_BITS);
    let digit = bits.div_ceil(passes.max(1));
    let mask = (1 << digit) - 1;
    let mut buckets = [0u32; 1 << RADIX_BITS];
    for pass in 0..passes {
        let shift = low + pass * digit;
        let next = &mut buckets[..1 << digit];
        next.fill(0);
        for &k in keys.iter() {
            next[((k.into() >> shift) & mask) as usize] += 1;
        }
        let mut start = 0;
        for slot in next.iter_mut() {
            let count = *slot;
            *slot = start;
            start += count;
        }
        for &k in keys.iter() {
            let slot = &mut next[((k.into() >> shift) & mask) as usize];
            tmp[*slot as usize] = k;
            *slot += 1;
        }
        std::mem::swap(keys, tmp);
    }
}

/// The cohort kernel's reusable state: the frontier of live walkers and the
/// buffers their positions are sorted in. A loop over many small cohorts
/// (the offline build) keeps one per thread and allocates them once.
#[derive(Debug, Default)]
pub struct WalkScratch {
    /// Position of every live walker, in walker order.
    pos: Vec<NodeId>,
    /// Their RNG keys, parallel to `pos`.
    key: Vec<u64>,
    /// The positions again, sorted for the step's histogram.
    sorted: Vec<NodeId>,
    /// The radix sort's second buffer.
    tmp: Vec<NodeId>,
    /// [`Self::visits_on`]'s visit keys.
    visits: Vec<u64>,
    /// Their radix sort's second buffer.
    visits_tmp: Vec<u64>,
}

impl WalkScratch {
    /// The full cohort from `source`, every step's distribution recorded:
    /// [`Self::counts_on`] over all walkers, plus the step-0 entry.
    pub fn distributions_on<G: WalkAdjacency>(
        &mut self,
        graph: &G,
        source: NodeId,
        params: WalkParams,
        seed: u64,
    ) -> StepDistributions {
        let mut counts = Vec::with_capacity(params.steps + 1);
        counts.push(vec![(source, params.walkers as u64)]);
        self.counts_on(graph, source, 0..params.walkers, params.steps, seed, &mut counts);
        StepDistributions { source, walkers: params.walkers, counts }
    }

    /// The cohort kernel, said once: walks the cohort members `walkers` of
    /// `source` for `steps` steps, the whole frontier one step at a time,
    /// and appends the visit histogram of each step `1..=steps` (sorted by
    /// node id, exact length) to `out`.
    pub fn counts_on<G: WalkAdjacency>(
        &mut self,
        graph: &G,
        source: NodeId,
        walkers: Range<u32>,
        steps: usize,
        seed: u64,
        out: &mut Vec<Vec<(NodeId, u64)>>,
    ) {
        let n = graph.node_count();
        self.start(n, source, walkers, seed);
        for t in 1..=steps as u32 {
            self.step(graph, t);
            out.push(self.histogram(n));
        }
    }

    /// The offline build's cohort kernel: the loop of [`Self::counts_on`]
    /// over the whole cohort, but each live walker's visit at step `t`
    /// (step 0 included) is recorded as one key `node·2ˢ + t`, `2ˢ > T`,
    /// and the `≤ R·(T+1)` keys are sorted once (radix-sorted on their node
    /// bits like a large frontier) — one sort per cohort instead of one
    /// histogram per step.
    /// Yields each visited node in id order with its `(t, count)` runs in
    /// `t` order: the node's entries of every step's histogram.
    pub fn visits_on<G: WalkAdjacency>(
        &mut self,
        graph: &G,
        source: NodeId,
        params: WalkParams,
        seed: u64,
    ) -> impl Iterator<Item = (NodeId, impl Iterator<Item = (usize, u64)> + '_)> + '_ {
        let shift = u64::BITS - (params.steps as u64).leading_zeros();
        self.start(graph.node_count(), source, 0..params.walkers, seed);
        self.visits.clear();
        self.visits.resize(self.pos.len(), u64::from(source) << shift);
        for t in 1..=params.steps as u32 {
            self.step(graph, t);
            self.visits.extend(self.pos.iter().map(|&v| u64::from(v) << shift | u64::from(t)));
        }
        if self.visits.len() < RADIX_MIN {
            self.visits.sort_unstable();
        } else {
            // Keys were appended in step order and the sort is stable: the
            // node bits alone order them as the whole keys would.
            let bound = u64::from(graph.node_count()) << shift;
            radix_sort(&mut self.visits, &mut self.visits_tmp, shift, bound);
        }
        let step_of = move |key: u64| (key & ((1 << shift) - 1)) as usize;
        self.visits.chunk_by(move |a, b| a >> shift == b >> shift).map(move |node| {
            let runs =
                node.chunk_by(|a, b| a == b).map(move |run| (step_of(run[0]), run.len() as u64));
            ((node[0] >> shift) as NodeId, runs)
        })
    }

    /// Places the cohort members `walkers` of `source` on `source`.
    fn start(&mut self, n: u32, source: NodeId, walkers: Range<u32>, seed: u64) {
        assert!(source < n, "source out of range");
        self.key.clear();
        self.key.extend(walker_keys(seed, source, walkers));
        self.pos.clear();
        self.pos.resize(self.key.len(), source);
    }

    /// One pass advances every live walker to step `t`; the survivors are
    /// compacted to the front, still in walker order.
    #[inline]
    fn step<G: WalkAdjacency>(&mut self, graph: &G, t: u32) {
        let mut live = 0;
        for i in 0..self.pos.len() {
            let key = self.key[i];
            if let Some(next) = reverse_step(graph, self.pos[i], key, t) {
                (self.pos[live], self.key[live]) = (next, key);
                live += 1;
            }
        }
        self.pos.truncate(live);
        self.key.truncate(live);
    }

    /// The visit histogram of the frontier's positions, all below `bound`.
    fn histogram(&mut self, bound: u32) -> Vec<(NodeId, u64)> {
        self.sorted.clear();
        self.sorted.extend_from_slice(&self.pos);
        if self.sorted.len() < RADIX_MIN {
            self.sorted.sort_unstable();
        } else {
            radix_sort(&mut self.sorted, &mut self.tmp, 0, bound.into());
        }
        let runs = self.sorted.windows(2).filter(|w| w[0] != w[1]).count();
        let distinct = runs + usize::from(!self.sorted.is_empty());
        let mut hist: Vec<(NodeId, u64)> = Vec::with_capacity(distinct);
        for &node in &self.sorted {
            match hist.last_mut() {
                Some((last, count)) if *last == node => *count += 1,
                _ => hist.push((node, 1)),
            }
        }
        hist
    }
}

/// Simulates the full cohort from `source` and records every step's
/// distribution. This is the building block of offline indexing (`R`
/// walkers per node) and of MCSP/MCSS (`R'` walkers per query node).
pub fn reverse_walk_distributions(
    graph: &CsrGraph,
    source: NodeId,
    params: WalkParams,
    seed: u64,
) -> StepDistributions {
    reverse_walk_distributions_on(graph, source, params, seed)
}

/// [`reverse_walk_distributions`] generic over the adjacency source — one
/// kernel behind every storage, so cross-engine bit-equality is structural:
/// [`WalkScratch::distributions_on`] on a scratch of its own.
pub fn reverse_walk_distributions_on<G: WalkAdjacency>(
    graph: &G,
    source: NodeId,
    params: WalkParams,
    seed: u64,
) -> StepDistributions {
    WalkScratch::default().distributions_on(graph, source, params, seed)
}

/// [`WalkScratch::counts_on`] on a scratch of its own. Walker `w`'s
/// trajectory depends only on `(seed, source, w, step)`, so histograms of
/// disjoint walker ranges sum to the whole cohort's — how the Broadcasting
/// model splits a cohort across tasks.
pub fn reverse_walk_counts_on<G: WalkAdjacency>(
    graph: &G,
    source: NodeId,
    walkers: Range<u32>,
    steps: usize,
    seed: u64,
) -> impl Iterator<Item = Vec<(NodeId, u64)>> {
    let mut counts = Vec::with_capacity(steps);
    WalkScratch::default().counts_on(graph, source, walkers, steps, seed, &mut counts);
    counts.into_iter()
}

/// The full trajectory of a single walker (positions after steps `1..=steps`;
/// shorter if the walker dies) — the per-walker oracle the cohort kernel is
/// tested against.
pub fn reverse_walk_path(
    graph: &CsrGraph,
    source: NodeId,
    walker: u32,
    steps: usize,
    seed: u64,
) -> Vec<NodeId> {
    let key = walker_key(seed, source, walker);
    let mut pos = source;
    let step = |t| {
        pos = reverse_step(graph, pos, key, t)?;
        Some(pos)
    };
    (1..=steps as u32).map_while(step).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasco_graph::generators;

    #[test]
    fn cycle_walks_are_deterministic_shifts() {
        // On a directed cycle every node has exactly one in-neighbour, so
        // the reverse walk is deterministic: position after t steps from s
        // is (s - t) mod n.
        let g = generators::cycle(7);
        let d = reverse_walk_distributions(&g, 3, WalkParams::new(5, 10), 42);
        for t in 0..=5 {
            let expected = ((3 + 7 - (t as u32 % 7)) % 7) as NodeId;
            assert_eq!(d.counts[t], vec![(expected, 10)], "step {t}");
            assert!((d.mass(t) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn walkers_die_on_dangling_nodes() {
        // Path 0 -> 1 -> 2: reverse walk from 2 reaches 0 at t=2 and dies
        // at t=3 (node 0 has no in-neighbours).
        let g = generators::path(3);
        let d = reverse_walk_distributions(&g, 2, WalkParams::new(4, 8), 1);
        assert_eq!(d.counts[1], vec![(1, 8)]);
        assert_eq!(d.counts[2], vec![(0, 8)]);
        assert!(d.counts[3].is_empty());
        assert!(d.counts[4].is_empty());
        assert_eq!(d.mass(3), 0.0);
    }

    #[test]
    fn distributions_are_seed_deterministic() {
        let g = generators::barabasi_albert(200, 3, 9);
        let a = reverse_walk_distributions(&g, 17, WalkParams::new(6, 50), 5);
        let b = reverse_walk_distributions(&g, 17, WalkParams::new(6, 50), 5);
        assert_eq!(a, b);
        let c = reverse_walk_distributions(&g, 17, WalkParams::new(6, 50), 6);
        assert_ne!(a, c);
    }

    #[test]
    fn radix_sort_sorts_at_every_pass_count() {
        // One, two and three 11-bit passes (the contract graph needs two),
        // a bound that is a power of two, and the degenerate single node.
        for bound in [1u32, 512, 2048, 2049, 70_000, 1 << 22, 5_000_000] {
            let mut keys: Vec<NodeId> = (0..3_000u64)
                .map(|i| (step_u64(bound as u64, i as u32) % bound as u64) as u32)
                .collect();
            // Visit keys `node·2⁴ + t` appended in step order, sorted on
            // the node bits alone: the whole keys' order.
            let mut visits: Vec<u64> = (0..11u64)
                .flat_map(|t| {
                    keys.chunks(11).map(move |c| u64::from(c[t as usize % c.len()]) << 4 | t)
                })
                .collect();
            let mut full = visits.clone();
            full.sort_unstable();
            radix_sort(&mut visits, &mut Vec::new(), 4, u64::from(bound) << 4);
            assert_eq!(visits, full, "visit keys, bound {bound}");
            let mut want = keys.clone();
            want.sort_unstable();
            radix_sort(&mut keys, &mut vec![7; 5], 0, bound.into());
            assert_eq!(keys, want, "bound {bound}");
        }
    }

    #[test]
    fn step_uniform_is_stateless() {
        let key = walker_key(3, 14, 2);
        assert_eq!(step_u64(key, 5), step_u64(key, 5));
        assert_ne!(step_u64(key, 5), step_u64(key, 6));
    }

    #[test]
    fn path_matches_distributions_for_single_walker() {
        let g = generators::barabasi_albert(100, 3, 4);
        let params = WalkParams::new(8, 1);
        let d = reverse_walk_distributions(&g, 30, params, 11);
        let p = reverse_walk_path(&g, 30, 0, 8, 11);
        for (t, &node) in p.iter().enumerate() {
            assert_eq!(d.counts[t + 1], vec![(node, 1)]);
        }
    }

    #[test]
    fn complete_graph_distribution_approaches_uniform() {
        // On K_n the reverse-walk distribution after any t >= 1 step is
        // uniform over the other n-1 nodes... in expectation. With many
        // walkers the empirical distribution should be close.
        let g = generators::complete(10);
        let d = reverse_walk_distributions(&g, 0, WalkParams::new(3, 20_000), 7);
        for &(node, c) in &d.counts[1] {
            assert_ne!(node, 0, "step away from source on K_n");
            let p = c as f64 / 20_000.0;
            assert!((p - 1.0 / 9.0).abs() < 0.01, "node {node}: {p}");
        }
    }

    #[test]
    fn prob_lookup_matches_counts() {
        let g = generators::complete(5);
        let d = reverse_walk_distributions(&g, 2, WalkParams::new(2, 100), 3);
        let total: f64 = (0..5).map(|v| d.prob(1, v)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(d.prob(0, 2), 1.0);
        assert_eq!(d.prob(0, 3), 0.0);
    }
}
