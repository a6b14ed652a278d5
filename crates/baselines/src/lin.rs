//! LIN — SimRank via linearization (Maehara et al., CoRR'14),
//! reimplemented.
//!
//! LIN uses the same decomposition as CloudWalker —
//! `S = Σ_t cᵗ (Pᵗ)ᵀ D Pᵗ` — but computes everything *exactly*:
//!
//! * **Preprocessing** materialises each row `aᵢ` by propagating `eᵢ`
//!   through `Pᵗ` with sparse pushes (pruned at [`LinConfig::prune_eps`])
//!   and solves `A x = 1` by Gauss–Seidel. Per-node cost grows with the
//!   `t`-hop in-neighbourhood, which explodes on large/skewed graphs — the
//!   scaling wall the paper's table shows (LIN prep: 187 ms on wiki-vote,
//!   14 376 s on twitter-2010). [`LinConfig::work_budget`] turns "hours of
//!   exact pushes" into an honest `N/A`.
//! * **Queries** evaluate the truncated series with exact pushes — no
//!   sampling noise, but per-query cost grows with the push frontier
//!   instead of staying `O(T·R')` like CloudWalker's.

use crate::error::BaselineError;
use pasco_graph::{CsrGraph, NodeId};
use pasco_mc::forward::{push_measure, reverse_push_measure};
use pasco_simrank::ai::ai_row_exact;
use pasco_simrank::diag::DiagonalIndex;
use pasco_solver::gauss_seidel::{self, GaussSeidelConfig};
use pasco_solver::jacobi::StoredRows;
use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// LIN parameters.
#[derive(Clone, Copy, Debug)]
pub struct LinConfig {
    /// Decay factor `c`.
    pub c: f64,
    /// Series truncation `T`.
    pub t: usize,
    /// Gauss–Seidel sweep cap.
    pub gs_sweeps: usize,
    /// Frontier pruning threshold during exact propagation (`0.0` = exact).
    pub prune_eps: f64,
    /// Preprocessing work budget in pushed entries.
    pub work_budget: u64,
}

impl LinConfig {
    /// Paper-like defaults: `c = 0.6`, `T = 10`, converged Gauss–Seidel,
    /// light pruning, and a work budget that admits small graphs only.
    pub fn default_paper() -> Self {
        Self { c: 0.6, t: 10, gs_sweeps: 30, prune_eps: 1e-6, work_budget: 2_000_000_000 }
    }
}

/// The LIN engine: exact diagonal plus exact query evaluation.
pub struct Lin {
    graph: Arc<CsrGraph>,
    cfg: LinConfig,
    diag: DiagonalIndex,
    /// Work units actually spent during preprocessing.
    prep_work: u64,
}

impl Lin {
    /// Runs LIN preprocessing: exact rows, Gauss–Seidel solve.
    ///
    /// # Errors
    /// [`BaselineError::WorkBudget`] once cumulative pushed entries exceed
    /// the budget — preprocessing is abandoned (the `N/A` of the paper's
    /// table, reached honestly instead of after hours of wall time).
    pub fn build(graph: Arc<CsrGraph>, cfg: LinConfig) -> Result<Self, BaselineError> {
        let n = graph.node_count();
        let work = AtomicU64::new(0);
        let abandoned = AtomicBool::new(false);
        let rows: Vec<Vec<(u32, f64)>> = (0..n)
            .into_par_iter()
            .map(|i| {
                if abandoned.load(Ordering::Relaxed) {
                    return Vec::new();
                }
                let row = exact_row_pruned(&graph, i, &cfg);
                let spent = work.fetch_add(row.1, Ordering::Relaxed) + row.1;
                if spent > cfg.work_budget {
                    abandoned.store(true, Ordering::Relaxed);
                }
                row.0
            })
            .collect();
        let spent = work.load(Ordering::Relaxed);
        if abandoned.load(Ordering::Relaxed) {
            return Err(BaselineError::WorkBudget { spent, budget: cfg.work_budget });
        }
        let rows = StoredRows::new(rows);
        let b = vec![1.0; n as usize];
        let x0 = vec![1.0 - cfg.c; n as usize];
        let result = gauss_seidel::solve(
            &rows,
            &b,
            &x0,
            &GaussSeidelConfig { iterations: cfg.gs_sweeps, tolerance: Some(1e-10) },
        );
        Ok(Self { graph, cfg, diag: DiagonalIndex::new(result.x), prep_work: spent })
    }

    /// The exact diagonal LIN solved for.
    pub fn diagonal(&self) -> &DiagonalIndex {
        &self.diag
    }

    /// Work units spent in preprocessing (pushed entries).
    pub fn prep_work(&self) -> u64 {
        self.prep_work
    }

    /// Exact single-pair query:
    /// `Σ_t cᵗ (Pᵗeᵢ)ᵀ D (Pᵗeⱼ)` with sparse propagation.
    pub fn single_pair(&self, i: NodeId, j: NodeId) -> f64 {
        if i == j {
            return 1.0;
        }
        let mut u: Vec<(u32, f64)> = vec![(i, 1.0)];
        let mut v: Vec<(u32, f64)> = vec![(j, 1.0)];
        let x = self.diag.as_slice();
        let mut score = 0.0;
        let mut ct = 1.0;
        for t in 0..=self.cfg.t {
            if t > 0 {
                u = self.step(&u);
                v = self.step(&v);
                if u.is_empty() || v.is_empty() {
                    break;
                }
                ct *= self.cfg.c;
            }
            score += ct * weighted_dot(&u, &v, x);
        }
        score
    }

    /// Exact single-source query:
    /// `sᵢ = Σ_t cᵗ (Pᵀ)ᵗ (D Pᵗeᵢ)` with sparse pushes both ways.
    pub fn single_source(&self, i: NodeId) -> Vec<f64> {
        let n = self.graph.node_count() as usize;
        let x = self.diag.as_slice();
        let mut out = vec![0.0f64; n];
        let mut u: Vec<(u32, f64)> = vec![(i, 1.0)];
        let mut ct = 1.0;
        for t in 0..=self.cfg.t {
            if t > 0 {
                u = self.step(&u);
                if u.is_empty() {
                    break;
                }
                ct *= self.cfg.c;
            }
            // y = D u, then z = (Pᵀ)ᵗ y by forward pushes.
            let mut z: Vec<(u32, f64)> = u.iter().map(|&(k, p)| (k, x[k as usize] * p)).collect();
            for _ in 0..t {
                z = push_measure(&self.graph, &z);
            }
            for &(k, m) in &z {
                out[k as usize] += ct * m;
            }
        }
        out[i as usize] = 1.0;
        out
    }

    fn step(&self, u: &[(u32, f64)]) -> Vec<(u32, f64)> {
        let mut next = reverse_push_measure(&self.graph, u);
        if self.cfg.prune_eps > 0.0 {
            next.retain(|&(_, p)| p >= self.cfg.prune_eps);
        }
        next
    }
}

/// Exact pruned row plus the work (pushed entries) it cost.
fn exact_row_pruned(graph: &CsrGraph, i: NodeId, cfg: &LinConfig) -> (Vec<(u32, f64)>, u64) {
    if cfg.prune_eps == 0.0 {
        let row = ai_row_exact(graph, i, cfg.c, cfg.t);
        let work = row.len() as u64 * cfg.t as u64;
        return (row, work);
    }
    let mut acc = pasco_mc::counts::MassMap::with_capacity(64);
    let mut u: Vec<(NodeId, f64)> = vec![(i, 1.0)];
    let mut ct = 1.0;
    let mut work = 0u64;
    for _ in 0..=cfg.t {
        for &(node, p) in &u {
            acc.add(node, ct * p * p);
        }
        work += u.len() as u64;
        ct *= cfg.c;
        let mut next = reverse_push_measure(graph, &u);
        work += next.len() as u64;
        next.retain(|&(_, p)| p >= cfg.prune_eps);
        u = next;
        if u.is_empty() {
            break;
        }
    }
    (acc.into_sorted_vec(), work)
}

fn weighted_dot(u: &[(u32, f64)], v: &[(u32, f64)], x: &[f64]) -> f64 {
    let (mut a, mut b) = (u.iter().peekable(), v.iter().peekable());
    let mut acc = 0.0;
    while let (Some(&&(ka, pa)), Some(&&(kb, pb))) = (a.peek(), b.peek()) {
        match ka.cmp(&kb) {
            std::cmp::Ordering::Less => {
                a.next();
            }
            std::cmp::Ordering::Greater => {
                b.next();
            }
            std::cmp::Ordering::Equal => {
                acc += pa * pb * x[ka as usize];
                a.next();
                b.next();
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasco_graph::generators;
    use pasco_simrank::exact::ExactSimRank;

    fn build(g: CsrGraph) -> Lin {
        Lin::build(Arc::new(g), LinConfig::default_paper()).unwrap()
    }

    #[test]
    fn shared_parent_pair_is_exactly_c() {
        let g = CsrGraph::from_edges(3, &[(2, 0), (2, 1)]);
        let lin = build(g);
        assert!((lin.single_pair(0, 1) - 0.6).abs() < 1e-9);
    }

    #[test]
    fn lin_matches_exact_simrank_closely() {
        // LIN's only error sources are series truncation (cᵀ ≈ 0.006) and
        // pruning; it should track the exact matrix far more tightly than
        // any Monte-Carlo method.
        let g = generators::barabasi_albert(80, 3, 6);
        let exact = ExactSimRank::compute(&g, 0.6, 25);
        let lin = build(g);
        for &(i, j) in &[(0u32, 1u32), (5, 44), (12, 70), (33, 34)] {
            let err = (lin.single_pair(i, j) - exact.get(i, j)).abs();
            assert!(err < 0.012, "({i},{j}): err {err}");
        }
        let row = lin.single_source(5);
        let mean: f64 =
            row.iter().zip(exact.row(5)).map(|(a, b)| (a - b).abs()).sum::<f64>() / 80.0;
        assert!(mean < 0.005, "mean SS error {mean}");
    }

    #[test]
    fn lin_diagonal_matches_exact_diagonal() {
        let g = generators::barabasi_albert(60, 3, 2);
        let lin = Lin::build(Arc::new(g.clone()), LinConfig::default_paper()).unwrap();
        let exact = pasco_simrank::exact::exact_diagonal(&g, 0.6, 10, 100);
        let worst = lin
            .diagonal()
            .as_slice()
            .iter()
            .zip(exact.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(worst < 1e-3, "worst diagonal error {worst}");
    }

    #[test]
    fn work_budget_aborts_large_graphs() {
        let g = Arc::new(generators::rmat(12, 40_000, generators::RmatParams::default(), 3));
        let cfg = LinConfig { work_budget: 10_000, ..LinConfig::default_paper() };
        match Lin::build(g, cfg) {
            Err(BaselineError::WorkBudget { spent, budget }) => {
                assert!(spent > budget);
            }
            other => panic!("expected work budget error, got ok={}", other.is_ok()),
        }
    }

    #[test]
    fn prep_work_is_reported() {
        let g = generators::barabasi_albert(50, 2, 1);
        let lin = build(g);
        assert!(lin.prep_work() > 0);
    }
}
