//! Quickstart: index a graph, ask the three query types — directly and
//! through the typed [`QueryService`] API.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use pasco::graph::generators;
use pasco::simrank::api::{QueryRequest, QueryResponse, QueryService};
use pasco::simrank::{CloudWalker, ExecMode, SimRankConfig};

fn main() {
    // 1. A graph. Any directed edge list works; here, a small scale-free
    //    network like the paper's wiki-vote.
    let graph = generators::barabasi_albert(2_000, 5, 42);
    println!("graph: {} nodes, {} edges", graph.node_count(), graph.edge_count());

    // 2. Offline indexing: estimate the diagonal correction matrix D with
    //    the paper's default parameters (c=0.6, T=10, L=3, R=100).
    let cfg = SimRankConfig::default_paper().with_r_query(2_000);
    let (cw, stats) = CloudWalker::build_with_stats(graph.into(), cfg, ExecMode::Local).unwrap();
    println!(
        "indexed in {:?} (strategy {:?}, final Jacobi residual {:.2e})",
        stats.wall,
        stats.strategy,
        stats.jacobi_residuals.last().copied().unwrap_or(0.0),
    );

    // 3a. Single-pair query (MCSP): how similar are nodes 10 and 11?
    let s = cw.try_single_pair(10, 11).unwrap();
    println!("s(10, 11) = {s:.4}");

    // 3b. Single-source query (MCSS): the most similar nodes to node 10.
    let scores = cw.try_single_source(10).unwrap();
    let mut top: Vec<(u32, f64)> = scores.iter().enumerate().map(|(i, &v)| (i as u32, v)).collect();
    top.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("top-5 similar to node 10:");
    for &(v, s) in top.iter().filter(|&&(v, _)| v != 10).take(5) {
        println!("  node {v:>5}  s = {s:.4}");
    }

    // 3c. All-pairs (MCAP): top-3 lists for every node (small graphs only).
    let all = cw.all_pairs_topk(3).unwrap();
    println!("node 0's top-3: {:?}", all[0]);

    // 4. The same queries as typed requests through the QueryService
    //    front door — the shape a network front-end would speak (the
    //    requests also serialize: see pasco::simrank::api::wire).
    let svc: &dyn QueryService = &cw;
    let resp = svc
        .execute(QueryRequest::Batch(vec![
            QueryRequest::SinglePair { i: 10, j: 11 },
            QueryRequest::SingleSourceTopK { i: 10, k: 5 },
        ]))
        .expect("nodes 10 and 11 exist");
    if let QueryResponse::Batch(items) = resp {
        if let [QueryResponse::Score(s2), QueryResponse::Ranked(top5)] = items.as_slice() {
            assert_eq!(*s2, s, "typed API answers match the direct calls");
            println!("via QueryService: s(10, 11) = {s2:.4}, top-5 = {top5:?}");
        }
    }
    // Malformed requests are typed errors, not panics.
    let err = svc.execute(QueryRequest::SingleSource { i: 1_000_000 }).unwrap_err();
    println!("out-of-range query -> {err}");
}
