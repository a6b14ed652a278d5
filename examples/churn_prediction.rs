//! Churn-prediction scenario from the paper's motivation: score subscribers
//! by their structural similarity to known churners.
//!
//! On a synthetic social network, a "churned" community is planted; each
//! remaining user's churn risk is their maximum SimRank similarity to any
//! churner (computed with a handful of MCSS queries from the churner side —
//! similarity is symmetric, so `s(churner, u)` read off the churner's
//! single-source vector is `s(u, churner)`).
//!
//! ```text
//! cargo run --release --example churn_prediction
//! ```

use pasco::graph::generators;
use pasco::simrank::{CloudWalker, ExecMode, SimRankConfig};

fn main() {
    // Community A (0..150) churned; community B (150..300) is healthy.
    // A few bridge users interact across.
    let n = 300u32;
    let graph = generators::two_communities(n, 1_800, 24, 11);
    let churned: Vec<u32> = (0..8).map(|k| k * 17 % 150).collect();
    println!(
        "social graph: {} users, {} edges; {} known churners (community A)",
        graph.node_count(),
        graph.edge_count(),
        churned.len()
    );

    let cfg = SimRankConfig::default_paper().with_r_query(4_000);
    let cw = CloudWalker::build(graph.into(), cfg, ExecMode::Local).unwrap();

    // Risk(u) = max over churners of s(churner, u).
    let mut risk = vec![0.0f64; n as usize];
    for &ch in &churned {
        let row = cw.try_single_source(ch).unwrap();
        for (u, &s) in row.iter().enumerate() {
            if u as u32 != ch {
                risk[u] = risk[u].max(s);
            }
        }
    }

    let mut ranked: Vec<(u32, f64)> =
        risk.iter().enumerate().map(|(u, &r)| (u as u32, r)).collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("\nhighest churn risk:");
    for &(u, r) in ranked.iter().take(10) {
        let comm = if u < 150 { "A (churned cohort)" } else { "B" };
        println!("  user {u:>4}  risk {r:.4}  community {comm}");
    }

    // Quantitative check: the at-risk cohort (A) must dominate the top
    // decile.
    let top30: Vec<u32> =
        ranked.iter().filter(|&&(u, _)| !churned.contains(&u)).take(30).map(|&(u, _)| u).collect();
    let in_a = top30.iter().filter(|&&u| u < 150).count();
    println!("\n{in_a}/30 of the highest-risk users are in the churned community");
    assert!(in_a >= 24, "churn risk should concentrate in community A");
}
