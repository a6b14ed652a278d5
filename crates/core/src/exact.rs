//! Exact SimRank — the `O(n²)`-space ground truth.
//!
//! The Jeh–Widom iteration
//! `S₀ = I`, `S_{k+1} = c·Pᵀ S_k P` with the diagonal reset to 1 converges
//! geometrically (`‖S_k − S‖∞ ≤ cᵏ`). Feasible only on small graphs, which
//! is how the paper uses it: effectiveness is evaluated on wiki-vote. Also
//! provides the *exact truncated* diagonal solve (replacing Monte Carlo
//! rows with exact pushes) used to separate sampling error from truncation
//! error in the convergence experiment.

use crate::ai::ai_row_exact;
use crate::diag::DiagonalIndex;
use pasco_graph::{CsrGraph, NodeId};
use pasco_solver::dense::Matrix;
use pasco_solver::jacobi::{self, JacobiConfig, StoredRows};
use rayon::prelude::*;

/// Exact SimRank scores for every node pair.
#[derive(Clone, Debug)]
pub struct ExactSimRank {
    s: Matrix,
    iterations: usize,
    final_delta: f64,
}

impl ExactSimRank {
    /// Runs the Jeh–Widom iteration for `iterations` rounds (or until the
    /// max-change drops below `1e-12`).
    ///
    /// Cost per round is `O(n·m)` time and the matrices are `O(n²)` —
    /// intended for graphs of at most a few thousand nodes.
    pub fn compute(graph: &CsrGraph, c: f64, iterations: usize) -> Self {
        assert!(c > 0.0 && c < 1.0, "c must be in (0, 1)");
        let n = graph.node_count() as usize;
        let mut s = Matrix::identity(n);
        let mut iterations_done = 0;
        let mut final_delta = 0.0;
        for _ in 0..iterations {
            // A = S_k · P: column j of P averages over In(j).
            // A(i, j) = (1/|In(j)|) Σ_{k ∈ In(j)} S(i, k)
            let mut a = Matrix::zeros(n, n);
            {
                let s_ref = &s;
                a.par_rows_mut().for_each(|(i, row)| {
                    let si = s_ref.row(i);
                    for (j, slot) in row.iter_mut().enumerate() {
                        let ins = graph.in_neighbors(j as NodeId);
                        if ins.is_empty() {
                            continue;
                        }
                        let sum: f64 = ins.iter().map(|&k| si[k as usize]).sum();
                        *slot = sum / ins.len() as f64;
                    }
                });
            }
            // S' = c · Pᵀ A: row i of Pᵀ averages over In(i);
            // S'(i, j) = c/|In(i)| Σ_{k ∈ In(i)} A(k, j), then diag ← 1.
            let mut next = Matrix::zeros(n, n);
            {
                let a_ref = &a;
                next.par_rows_mut().for_each(|(i, row)| {
                    let ins = graph.in_neighbors(i as NodeId);
                    if ins.is_empty() {
                        return;
                    }
                    let scale = c / ins.len() as f64;
                    for &k in ins {
                        let ak = a_ref.row(k as usize);
                        for (slot, &v) in row.iter_mut().zip(ak) {
                            *slot += v;
                        }
                    }
                    for slot in row.iter_mut() {
                        *slot *= scale;
                    }
                });
            }
            next.fill_diagonal(1.0);
            final_delta = next.max_abs_diff(&s);
            s = next;
            iterations_done += 1;
            if final_delta < 1e-12 {
                break;
            }
        }
        Self { s, iterations: iterations_done, final_delta }
    }

    /// The exact similarity `s(i, j)`.
    #[inline]
    pub fn get(&self, i: NodeId, j: NodeId) -> f64 {
        self.s.get(i as usize, j as usize)
    }

    /// Row `i` — the exact single-source vector.
    pub fn row(&self, i: NodeId) -> &[f64] {
        self.s.row(i as usize)
    }

    /// Number of iterations performed.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Max-change of the final iteration (convergence witness).
    pub fn final_delta(&self) -> f64 {
        self.final_delta
    }

    /// The underlying matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.s
    }
}

/// Solves for the diagonal correction with *exact* rows (sparse pushes
/// instead of Monte-Carlo estimates) and a fully converged Jacobi solve.
/// Separates the two error sources of CloudWalker's index: with exact rows
/// only series truncation (`T`) remains.
pub fn exact_diagonal(graph: &CsrGraph, c: f64, t_max: usize, sweeps: usize) -> DiagonalIndex {
    let n = graph.node_count();
    let rows: Vec<Vec<(u32, f64)>> =
        (0..n).into_par_iter().map(|i| ai_row_exact(graph, i, c, t_max)).collect();
    let rows = StoredRows::new(rows);
    let b = vec![1.0; n as usize];
    let x0 = vec![1.0 - c; n as usize];
    let result = jacobi::solve(
        &rows,
        &b,
        &x0,
        &JacobiConfig { iterations: sweeps, tolerance: Some(1e-12), record_residuals: false },
    );
    DiagonalIndex::new(result.x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasco_graph::generators;

    #[test]
    fn simrank_properties_hold() {
        let g = generators::barabasi_albert(60, 3, 2);
        let ex = ExactSimRank::compute(&g, 0.6, 20);
        for i in 0..60u32 {
            assert_eq!(ex.get(i, i), 1.0, "unit diagonal");
            for j in 0..60u32 {
                let s = ex.get(i, j);
                assert!((0.0..=1.0).contains(&s), "s({i},{j}) = {s}");
                assert!((s - ex.get(j, i)).abs() < 1e-9, "symmetry at ({i},{j})");
            }
        }
    }

    #[test]
    fn two_node_mutual_graph_closed_form() {
        // 0 <-> 1: s(0,1) satisfies s = c·s(1,0)... In(0) = {1}, In(1) = {0}
        // s(0,1) = c · s(1,0) ⇒ s(0,1)·(1) = c·s(0,1)?? No:
        // s(0,1) = c/(1·1) · s(1, 0) = c · s(0,1) would force 0 — but the
        // sum pairs In(0)×In(1) = {(1,0)}, and s(1,0) = s(0,1). The fixpoint
        // equation s = c·s has solution 0 for the off-diagonal.
        let g = CsrGraph::from_edges(2, &[(0, 1), (1, 0)]);
        let ex = ExactSimRank::compute(&g, 0.6, 50);
        assert!(ex.get(0, 1).abs() < 1e-9);
    }

    #[test]
    fn shared_parent_pair_closed_form() {
        // 2 -> 0, 2 -> 1: In(0) = In(1) = {2} ⇒ s(0,1) = c·s(2,2) = c.
        let g = CsrGraph::from_edges(3, &[(2, 0), (2, 1)]);
        let ex = ExactSimRank::compute(&g, 0.6, 30);
        assert!((ex.get(0, 1) - 0.6).abs() < 1e-9, "{}", ex.get(0, 1));
        // Node 2 is dangling: similarity to anything else is 0.
        assert_eq!(ex.get(2, 0), 0.0);
    }

    #[test]
    fn complete_graph_closed_form() {
        // On K_n (no self loops) symmetry forces a single off-diagonal value
        // s. In(i) × In(j) for i≠j has (n-1)(n-2) + ... pairs:
        //   s = c/(n-1)² · [ (n-2)·1·2 + ((n-1)² - 2(n-2) - (n-2)... ]
        // Simpler: verify numerically against the fixpoint equation
        //   s = c/(n-1)² · (2(n-2)·1 + ((n-1)² - 2(n-2) - (n-2))·s + (n-2)s)
        // Instead of deriving the closed form, assert the fixpoint residual
        // of the computed value is ~0.
        let n = 6u32;
        let g = generators::complete(n);
        let ex = ExactSimRank::compute(&g, 0.6, 60);
        let s = ex.get(0, 1);
        // Recompute s(0,1) from the definition using the matrix itself.
        let ins0 = g.in_neighbors(0);
        let ins1 = g.in_neighbors(1);
        let mut acc = 0.0;
        for &a in ins0 {
            for &b in ins1 {
                acc += ex.get(a, b);
            }
        }
        let rhs = 0.6 * acc / (ins0.len() as f64 * ins1.len() as f64);
        assert!((s - rhs).abs() < 1e-9, "fixpoint violated: {s} vs {rhs}");
        // All off-diagonal entries equal by symmetry.
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    assert!((ex.get(i, j) - s).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn iteration_converges_geometrically() {
        let g = generators::barabasi_albert(80, 3, 9);
        let e5 = ExactSimRank::compute(&g, 0.6, 5);
        let e15 = ExactSimRank::compute(&g, 0.6, 15);
        let mut worst = 0.0f64;
        for i in 0..80 {
            for j in 0..80 {
                worst = worst.max((e5.get(i, j) - e15.get(i, j)).abs());
            }
        }
        // ‖S_5 − S‖∞ ≤ c⁵ ≈ 0.078.
        assert!(worst <= 0.6f64.powi(5) + 1e-9, "worst diff {worst}");
    }

    #[test]
    fn exact_diagonal_reproduces_unit_self_similarity() {
        // With exact rows and converged Jacobi, plugging x back into the
        // series must give s(i,i) ≈ 1 for the truncated series.
        let g = generators::barabasi_albert(50, 3, 4);
        let d = exact_diagonal(&g, 0.6, 8, 100);
        for i in 0..50u32 {
            let row = ai_row_exact(&g, i, 0.6, 8);
            let sii: f64 = row.iter().map(|&(k, v)| v * d.get(k)).sum();
            assert!((sii - 1.0).abs() < 1e-6, "s({i},{i}) = {sii}");
        }
    }

    #[test]
    fn diagonal_on_cycle_matches_hand_solution() {
        // Cycle: a_i has entries cᵗ at node (i - t) mod n. For n=4, T=3:
        // row i: x_i + 0.5·x_{i-1}... with c=0.5: a_i = [1, .5, .25, .125]
        // circulant; by symmetry x is constant: x·(1+.5+.25+.125) = 1.
        let g = generators::cycle(4);
        let d = exact_diagonal(&g, 0.5, 3, 200);
        let expected = 1.0 / 1.875;
        for v in 0..4 {
            assert!((d.get(v) - expected).abs() < 1e-9, "x[{v}] = {}", d.get(v));
        }
    }
}
