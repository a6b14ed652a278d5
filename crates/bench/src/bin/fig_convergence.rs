//! E3 — the paper's effectiveness figure: "CloudWalker converges quickly".
//!
//! On the wiki-vote stand-in we sweep the Jacobi iteration count `L` and
//! report (a) the linear-system residual `‖Ax−1‖∞`, (b) the distance of the
//! iterate from the fully converged solution, (c) similarity error against
//! exact SimRank on the *highest-similarity* pairs (where the diagonal
//! actually matters), and (d) ranking quality (NDCG@20). The paper picks
//! `L = 3`; the figure's shape is a steep drop that flattens by the third
//! iteration. A second sweep varies the indexing walker count `R` to
//! separate sampling error from solver error.

use pasco_bench::{datasets, table::Table, time};
use pasco_graph::NodeId;
use pasco_graph::ReverseChainIndex;
use pasco_simrank::engine::kernel::build_diagonal_on;
use pasco_simrank::exact::ExactSimRank;
use pasco_simrank::{metrics, queries, SimRankConfig};

fn main() {
    let ds = datasets::load("wiki-vote-sim");
    let g = &ds.graph;
    println!(
        "E3: convergence on {} (|V|={}, |E|={})\n",
        ds.spec.name,
        g.node_count(),
        g.edge_count()
    );

    let cfg = SimRankConfig::default_paper();
    let (exact, d_exact) = time(|| ExactSimRank::compute(g, cfg.c, 15));
    println!(
        "exact SimRank ground truth: {} iterations, {:.1}s\n",
        exact.iterations(),
        d_exact.as_secs_f64()
    );

    let rci = ReverseChainIndex::build(g);
    let sources: Vec<NodeId> = vec![1, 17, 101, 1001, 3000];
    // Evaluate on pairs that actually carry similarity mass: each source's
    // exact top-3 neighbours.
    let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
    for &s in &sources {
        for (j, _) in metrics::top_k(exact.row(s), 3, Some(s)) {
            pairs.push((s, j));
        }
    }

    // Fully converged reference solution for ‖x_L − x*‖∞.
    let x_star = build_diagonal_on(g.as_ref(), &cfg.with_l(50)).diag;

    // Sweep L at the paper's R.
    let mut t =
        Table::new(&["L", "residual", "|x_L - x*|inf", "pair max-err", "SS mean-err", "NDCG@20"]);
    for l in 0..=6usize {
        let out = build_diagonal_on(g.as_ref(), &cfg.with_l(l));
        let (diag, residuals) = (out.diag, out.residuals);
        let dist = metrics::max_abs_diff(diag.as_slice(), x_star.as_slice());
        let row = evaluate(g, &rci, &exact, diag.as_slice(), &cfg, &sources, &pairs);
        t.row(vec![
            l.to_string(),
            residuals.last().map(|r| format!("{r:.2e}")).unwrap_or_else(|| "-".into()),
            format!("{dist:.2e}"),
            format!("{:.2e}", row.0),
            format!("{:.2e}", row.1),
            format!("{:.4}", row.2),
        ]);
    }
    t.print();
    println!("\nPaper shape: the iterate and residual flatten by L = 3 (their default).\n");

    // Sweep R at L = 3, against the exact (MC-free) diagonal.
    let exact_diag = pasco_simrank::exact::exact_diagonal(g, cfg.c, cfg.t, 100);
    let mut t = Table::new(&["R", "|x - x_exact|inf", "pair max-err", "SS mean-err", "NDCG@20"]);
    for r in [10u32, 25, 50, 100, 200, 400] {
        let cfg_r = cfg.with_r(r);
        let out = build_diagonal_on(g.as_ref(), &cfg_r);
        let dist = metrics::max_abs_diff(out.diag.as_slice(), exact_diag.as_slice());
        let row = evaluate(g, &rci, &exact, out.diag.as_slice(), &cfg_r, &sources, &pairs);
        t.row(vec![
            r.to_string(),
            format!("{dist:.3}"),
            format!("{:.2e}", row.0),
            format!("{:.2e}", row.1),
            format!("{:.4}", row.2),
        ]);
    }
    t.print();
    println!("\nPaper shape: R = 100 suffices; returns diminish beyond it.");
}

/// (pair max error, single-source mean error, mean NDCG@20)
fn evaluate(
    g: &pasco_graph::CsrGraph,
    rci: &ReverseChainIndex,
    exact: &ExactSimRank,
    diag: &[f64],
    cfg: &SimRankConfig,
    sources: &[NodeId],
    pairs: &[(NodeId, NodeId)],
) -> (f64, f64, f64) {
    let mut pair_err = 0.0f64;
    for &(i, j) in pairs {
        let est = queries::single_pair(g, diag, cfg, i, j);
        pair_err = pair_err.max((est - exact.get(i, j)).abs());
    }
    let mut ss_err = 0.0;
    let mut ndcg = 0.0;
    for &s in sources {
        let est = queries::single_source(g, rci, diag, cfg, s);
        let truth = exact.row(s);
        ss_err += metrics::mean_abs_diff(&est, truth);
        let ranking: Vec<NodeId> =
            metrics::top_k(&est, 20, Some(s)).into_iter().map(|(i, _)| i).collect();
        ndcg += metrics::ndcg_at_k(truth, &ranking, 20, Some(s));
    }
    (pair_err, ss_err / sources.len() as f64, ndcg / sources.len() as f64)
}
