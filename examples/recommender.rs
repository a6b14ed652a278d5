//! Recommender-system scenario from the paper's motivation: "users who
//! interacted with similar items".
//!
//! Items form two product communities with a few cross-links (think
//! cameras vs. laptops with some accessories in both worlds). SimRank on
//! the co-interaction graph should rank same-community items far above
//! cross-community ones — which this example verifies quantitatively.
//!
//! ```text
//! cargo run --release --example recommender
//! ```

use pasco::graph::generators;
use pasco::simrank::api::{QueryRequest, QueryResponse, QueryService};
use pasco::simrank::{CloudWalker, ExecMode, QuerySession, SimRankConfig};
use std::sync::Arc;

fn main() {
    let n = 400u32;
    let graph = generators::two_communities(n, 2_400, 30, 7);
    println!(
        "item graph: {} items, {} interactions, 30 cross-community links",
        graph.node_count(),
        graph.edge_count()
    );

    let cfg = SimRankConfig::default_paper().with_r_query(4_000);
    let cw = Arc::new(CloudWalker::build(graph.into(), cfg, ExecMode::Local).unwrap());

    // Recommend for one item per community, served as one typed batch
    // request through the QueryService front door (one MCSS per item).
    let session = QuerySession::new(Arc::clone(&cw), 32);
    let half = n / 2;
    let items = [10u32, half + 10];
    let batch =
        QueryRequest::Batch(items.iter().map(|&i| QueryRequest::SingleSource { i }).collect());
    let QueryResponse::Batch(responses) = session.execute(batch).expect("items exist") else {
        panic!("Batch answers with Batch");
    };
    let rows: Vec<Vec<f64>> = responses
        .into_iter()
        .map(|r| match r {
            QueryResponse::Scores(row) => row,
            other => panic!("SingleSource answered with {other:?}"),
        })
        .collect();
    for (&item, scores) in items.iter().zip(&rows) {
        let mut ranked: Vec<(u32, f64)> = scores
            .iter()
            .enumerate()
            .filter(|&(i, _)| i as u32 != item)
            .map(|(i, &s)| (i as u32, s))
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        let community = if item < half { "A" } else { "B" };
        println!("\nrecommendations for item {item} (community {community}):");
        let mut same = 0;
        for &(other, s) in ranked.iter().take(10) {
            let oc = if other < half { "A" } else { "B" };
            if oc == community {
                same += 1;
            }
            println!("  item {other:>4} [{oc}]  s = {s:.4}");
        }
        println!("  -> {same}/10 recommendations stay in the community");
        assert!(same >= 8, "similarity should respect community structure");
    }

    // Aggregate check: mean within- vs cross-community similarity.
    let probe = cw.try_single_source(10).unwrap();
    let (mut within, mut cross, mut wn, mut cn) = (0.0, 0.0, 0, 0);
    for (i, &s) in probe.iter().enumerate() {
        if i as u32 == 10 {
            continue;
        }
        if (i as u32) < half {
            within += s;
            wn += 1;
        } else {
            cross += s;
            cn += 1;
        }
    }
    println!(
        "\nmean similarity to item 10: within community {:.5}, across {:.5}",
        within / wn as f64,
        cross / cn as f64
    );
}
