//! Construction of the linear-system rows `aᵢ`.
//!
//! Row `aᵢ = Σ_{t=0..T} cᵗ (Pᵗeᵢ) ∘ (Pᵗeᵢ)` encodes node `i`'s truncated
//! self-similarity series; the constraint `aᵢ · x = 1` pins the diagonal
//! correction. With `Pᵗeᵢ` estimated by an `R`-walker cohort, the row's
//! support is at most `T·R + 1` and the diagonal entry satisfies
//! `aᵢᵢ ≥ 1` (all walkers sit on `i` at `t = 0`), making the system
//! strongly diagonally dominant — the reason `L = 3` Jacobi sweeps suffice.
//!
//! Stored rows ([`StoredRows`]) code each entry as a `u32` column and a
//! `u16` index into a per-256-row value dictionary, 6 B, as an entry is
//! mostly one `cᵗ·(count/R)²` term and values repeat; regenerated rows
//! ([`RecomputedRows`]) are lent plain.

use crate::config::SimRankConfig;
use pasco_graph::{CsrGraph, NodeId, WalkAdjacency};
use pasco_mc::counts::MassMap;
use pasco_mc::walks::{StepDistributions, WalkParams, WalkScratch};
use pasco_solver::jacobi::{RowSource, RowValues};

/// Builds the sparse row `aᵢ` (sorted by column, exact length) from a
/// cohort's step distributions: `aᵢ(k) = Σ_t cᵗ (countₜ(k)/R)²`. The
/// oracle of [`RecomputedRows`], the row kernel every build path calls.
pub fn ai_row(dists: &StepDistributions, c: f64) -> Vec<(u32, f64)> {
    let r = dists.walkers as f64;
    let mut terms = Vec::with_capacity(dists.counts.iter().map(Vec::len).sum());
    let mut ct = 1.0;
    for step in &dists.counts {
        terms.extend(step.iter().map(|&(node, count)| {
            let p = count as f64 / r;
            (node, ct * p * p)
        }));
        ct *= c;
    }
    // Stable, so a node's terms stay in `t` order and fold, left to right,
    // in the order the series is written; the input is `T + 1` sorted runs,
    // which the sort merges.
    terms.sort_by_key(|&(node, _)| node);
    terms.dedup_by(|term, sum| {
        let same_node = term.0 == sum.0;
        if same_node {
            sum.1 += term.1;
        }
        same_node
    });
    terms.to_vec() // an exact-length copy: stored rows carry no slack
}

/// Builds `aᵢ` exactly, propagating `eᵢ` through `Pᵗ` by sparse pushes
/// instead of sampling. Used by the exact diagonal reference and the LIN
/// baseline; cost grows with the `t`-hop in-neighbourhood of `i`.
pub fn ai_row_exact(graph: &CsrGraph, i: NodeId, c: f64, t_max: usize) -> Vec<(u32, f64)> {
    let mut acc = MassMap::with_capacity(64);
    let mut u: Vec<(NodeId, f64)> = vec![(i, 1.0)];
    let mut ct = 1.0;
    for _ in 0..=t_max {
        for &(node, p) in &u {
            acc.add(node, ct * p * p);
        }
        ct *= c;
        u = pasco_mc::forward::reverse_push_measure(graph, &u);
        if u.is_empty() {
            break;
        }
    }
    acc.into_sorted_vec()
}

/// The `Store` strategy's [`RowSource`] — fully materialised, dictionary-
/// coded rows in node order; the solver crate's row store, under the path
/// the engines use.
pub use pasco_solver::jacobi::StoredRows;

/// The product row kernel, and the `Recompute` strategy's [`RowSource`]:
/// node `i`'s `R`-walker cohort over any adjacency source, folded straight
/// into `aᵢ` from its sorted visits ([`WalkScratch::visits_on`]) — no step
/// histograms, terms vector or copy. The terms are [`ai_row`]'s, folded
/// left to right in its order with `cᵗ` from the same repeated product,
/// so the rows are its rows bit for bit; and because walk randomness is a
/// pure function of `(seed, source, walker, step)`, regenerated rows are
/// identical to stored ones.
pub struct RecomputedRows<'a, A> {
    adj: &'a A,
    params: WalkParams,
    seed: u64,
    /// `cᵗ` for `t = 0..=T`.
    ct: Vec<f64>,
}

impl<'a, A: WalkAdjacency> RecomputedRows<'a, A> {
    /// The rows over `adj` of the index cohort `params` under `seed`,
    /// decay `c`.
    pub fn new(adj: &'a A, params: WalkParams, seed: u64, c: f64) -> Self {
        let ct = std::iter::successors(Some(1.0), |ct| Some(ct * c)).take(params.steps + 1);
        Self { adj, params, seed, ct: ct.collect() }
    }

    /// The rows of `cfg`'s offline phase (`T`, `R`, seed, `c`) over `adj`.
    pub fn of(adj: &'a A, cfg: &SimRankConfig) -> Self {
        Self::new(adj, WalkParams::new(cfg.t, cfg.r), cfg.seed, cfg.c)
    }

    /// Appends `aᵢ`, sorted by column, to `cols` / `vals`.
    pub fn push_row(
        &self,
        i: NodeId,
        walk: &mut WalkScratch,
        cols: &mut Vec<u32>,
        vals: &mut Vec<f64>,
    ) {
        let r = self.params.walkers as f64;
        let term = |(t, count): (usize, u64)| {
            let p = count as f64 / r;
            self.ct[t] * p * p
        };
        for (node, runs) in walk.visits_on(self.adj, i, self.params, self.seed) {
            cols.push(node);
            // `sum` starts at −0.0, which adds exactly: the fold is
            // `ai_row`'s, term by term from `t = 0`.
            vals.push(runs.map(term).sum());
        }
    }
}

impl<A: WalkAdjacency> RowSource for RecomputedRows<'_, A> {
    /// The walk scratch and the row's column / value buffers.
    type Scratch = (WalkScratch, Vec<u32>, Vec<f64>);

    fn dim(&self) -> usize {
        self.adj.node_count() as usize
    }

    fn row<'a>(&'a self, i: u32, scratch: &'a mut Self::Scratch) -> (&'a [u32], RowValues<'a>) {
        let (walk, cols, vals) = scratch;
        cols.clear();
        vals.clear();
        self.push_row(i, walk, cols, vals);
        (cols, RowValues::plain(vals))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasco_graph::generators;
    use pasco_mc::walks::reverse_walk_distributions;

    #[test]
    fn diagonal_entry_at_least_one() {
        let g = generators::barabasi_albert(200, 3, 7);
        for i in [0u32, 50, 199] {
            let d = reverse_walk_distributions(&g, i, WalkParams::new(10, 50), 3);
            let row = ai_row(&d, 0.6);
            let diag = row.iter().find(|&&(k, _)| k == i).map(|&(_, v)| v).unwrap();
            assert!(diag >= 1.0, "a[{i}][{i}] = {diag}");
        }
    }

    #[test]
    fn row_support_is_bounded_by_walk_budget() {
        let g = generators::barabasi_albert(500, 4, 1);
        let params = WalkParams::new(10, 20);
        let d = reverse_walk_distributions(&g, 17, params, 2);
        let row = ai_row(&d, 0.6);
        assert!(row.len() <= 10 * 20 + 1);
        assert!(row.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
        assert_eq!(row.capacity(), row.len(), "stored rows carry no slack");
    }

    #[test]
    fn exact_row_on_cycle_is_geometric() {
        // Cycle: P^t e_i is a point mass, so a_i(k) = Σ c^t [k = i - t].
        let g = generators::cycle(4);
        let row = ai_row_exact(&g, 0, 0.5, 3);
        // t=0: node 0 += 1; t=1: node 3 += 0.5; t=2: node 2 += 0.25;
        // t=3: node 1 += 0.125
        assert_eq!(row, vec![(0, 1.0), (1, 0.125), (2, 0.25), (3, 0.5)]);
    }

    #[test]
    fn exact_row_terminates_on_dangling() {
        let g = generators::path(3); // 0 -> 1 -> 2; node 0 dangling
        let row = ai_row_exact(&g, 2, 0.6, 10);
        // t=0 at 2 (1.0), t=1 at 1 (0.6·1), t=2 at 0 (0.36·1), then dies.
        assert_eq!(row, vec![(0, 0.36), (1, 0.6), (2, 1.0)]);
    }

    #[test]
    fn mc_row_converges_to_exact_row() {
        let g = generators::barabasi_albert(100, 3, 5);
        let exact = ai_row_exact(&g, 42, 0.6, 6);
        let d = reverse_walk_distributions(&g, 42, WalkParams::new(6, 60_000), 8);
        let mc = ai_row(&d, 0.6);
        // Compare the diagonal and total mass.
        let get = |row: &[(u32, f64)], k: u32| {
            row.iter().find(|&&(j, _)| j == k).map(|&(_, v)| v).unwrap_or(0.0)
        };
        assert!((get(&exact, 42) - get(&mc, 42)).abs() < 0.02);
        let sum_e: f64 = exact.iter().map(|&(_, v)| v).sum();
        let sum_m: f64 = mc.iter().map(|&(_, v)| v).sum();
        // Squared empirical frequencies are biased upward by Var/R per node,
        // so allow a generous but bounded gap.
        assert!((sum_e - sum_m).abs() / sum_e < 0.1, "{sum_e} vs {sum_m}");
    }

    #[test]
    fn stored_and_recomputed_rows_agree() {
        let g = generators::rmat(8, 1500, generators::RmatParams::default(), 3);
        let params = WalkParams::new(5, 30);
        let stored: Vec<Vec<(u32, f64)>> = (0..g.node_count())
            .map(|i| ai_row(&reverse_walk_distributions(&g, i, params, 11), 0.6))
            .collect();
        let stored = StoredRows::new(stored);
        let recomputed = RecomputedRows::new(&g, params, 11, 0.6);
        assert_eq!(stored.dim(), recomputed.dim());
        let mut scratch = Default::default();
        for i in (0..g.node_count()).step_by(37) {
            let (cols, vals) = stored.get(i);
            let (want_cols, want_vals) = recomputed.row(i, &mut scratch);
            assert_eq!(cols, want_cols, "row {i} columns");
            let bits = |v: RowValues| v.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(vals), bits(want_vals), "row {i}");
        }
    }
}
