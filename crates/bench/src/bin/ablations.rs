//! A1–A3 — ablations of CloudWalker's design choices (DESIGN.md §6).
//!
//! Usage: `ablations [mcss|ai|walkers|all]` (default `all`).

use pasco_bench::{datasets, fmt_duration, table::Table, time};
use pasco_graph::ReverseChainIndex;
use pasco_simrank::engine::kernel::build_diagonal_on;
use pasco_simrank::exact::ExactSimRank;
use pasco_simrank::{metrics, queries, AiStrategy, SimRankConfig};

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    if which == "mcss" || which == "all" {
        mcss_ablation();
    }
    if which == "ai" || which == "all" {
        ai_ablation();
    }
    if which == "walkers" || which == "all" {
        walker_ablation();
    }
}

/// A1: MCSS estimator — mass-carrying forward walks (paper) vs exact
/// sparse push, accuracy and latency.
fn mcss_ablation() {
    let ds = datasets::load("wiki-vote-sim");
    let g = &ds.graph;
    let cfg = SimRankConfig::default_paper();
    println!("A1: MCSS estimator on {}\n", ds.spec.name);
    let out = build_diagonal_on(g.as_ref(), &cfg);
    let diag = out.diag.as_slice();
    let rci = ReverseChainIndex::build(g);
    let exact = ExactSimRank::compute(g, cfg.c, 15);

    let mut t = Table::new(&["estimator", "latency", "mean err", "NDCG@20"]);
    let sources = [3u32, 777, 2048, 5000];
    for (name, f) in [
        (
            "forward walks",
            Box::new(|s: u32| queries::single_source(g, &rci, diag, &cfg, s))
                as Box<dyn Fn(u32) -> Vec<f64>>,
        ),
        ("exact push", Box::new(|s: u32| queries::single_source_push(g, diag, &cfg, s))),
    ] {
        let mut lat = std::time::Duration::ZERO;
        let mut err = 0.0;
        let mut ndcg = 0.0;
        for &s in &sources {
            let (est, d) = time(|| f(s));
            lat += d;
            err += metrics::mean_abs_diff(&est, exact.row(s));
            let ranking: Vec<u32> =
                metrics::top_k(&est, 20, Some(s)).into_iter().map(|(i, _)| i).collect();
            ndcg += metrics::ndcg_at_k(exact.row(s), &ranking, 20, Some(s));
        }
        let k = sources.len() as f64;
        t.row(vec![
            name.into(),
            fmt_duration(lat / sources.len() as u32),
            format!("{:.5}", err / k),
            format!("{:.4}", ndcg / k),
        ]);
    }
    t.print();
    println!("\nTrade-off: the push variant removes forward-walk variance but its cost\ngrows with the push frontier; walks keep latency bounded by T²R'log d.\n");
}

/// A2: row strategy — Store vs Recompute (identical output, memory/time
/// trade).
fn ai_ablation() {
    let ds = datasets::load("wiki-talk-sim");
    let g = &ds.graph;
    let cfg = SimRankConfig::default_paper();
    println!("A2: aᵢ row strategy on {}\n", ds.spec.name);
    let mut t = Table::new(&["strategy", "D wall", "row memory", "identical x?"]);
    let (store, d_store) =
        time(|| build_diagonal_on(g.as_ref(), &cfg.with_ai_strategy(AiStrategy::Store)));
    let (recompute, d_rec) =
        time(|| build_diagonal_on(g.as_ref(), &cfg.with_ai_strategy(AiStrategy::Recompute)));
    let same = store.diag == recompute.diag;
    t.row(vec![
        "Store".into(),
        fmt_duration(d_store),
        format!("{:.1}MB", store.rows_bytes.unwrap_or(0) as f64 / 1e6),
        same.to_string(),
    ]);
    t.row(vec!["Recompute".into(), fmt_duration(d_rec), "O(n) only".into(), same.to_string()]);
    t.print();
    println!("\nSeed-replayed walks make the two strategies bit-identical, so the choice\nis purely memory vs (L+1)x walk time.\n");
}

/// A3: walker budgets — error vs R (indexing) and R' (queries).
fn walker_ablation() {
    let ds = datasets::load("wiki-vote-sim");
    let g = &ds.graph;
    let base = SimRankConfig::default_paper();
    println!("A3: query walker budget R' on {}\n", ds.spec.name);
    let out = build_diagonal_on(g.as_ref(), &base);
    let diag = out.diag.as_slice();
    let exact = ExactSimRank::compute(g, base.c, 15);
    let pairs = [(1u32, 2u32), (10, 400), (55, 56), (800, 4001)];
    let mut t = Table::new(&["R'", "MCSP latency", "pair max err"]);
    for rq in [100u32, 500, 2_000, 10_000, 40_000] {
        let cfg = base.with_r_query(rq);
        let mut worst = 0.0f64;
        let mut lat = std::time::Duration::ZERO;
        for &(i, j) in &pairs {
            let (est, d) = time(|| queries::single_pair(g, diag, &cfg, i, j));
            lat += d;
            worst = worst.max((est - exact.get(i, j)).abs());
        }
        t.row(vec![rq.to_string(), fmt_duration(lat / pairs.len() as u32), format!("{worst:.4}")]);
    }
    t.print();
    println!("\nError shrinks ~1/sqrt(R') while latency grows linearly — R' = 10,000 is the\npaper's accuracy/latency sweet spot.");
}
