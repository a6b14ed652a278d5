//! Information-retrieval scenario from the paper's motivation: "find pages
//! similar to this page" on a hyperlink graph.
//!
//! A synthetic web crawl (R-MAT, heavy-tailed like real link graphs) is
//! indexed once; then related-page queries run in milliseconds via MCSS,
//! and the index round-trips through disk the way the offline/online split
//! of a deployment would.
//!
//! ```text
//! cargo run --release --example web_search
//! ```

use pasco::graph::generators::{self, RmatParams};
use pasco::simrank::{persist, CloudWalker, DiagonalIndex, ExecMode, SimRankConfig};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // A synthetic "web crawl": 65k pages, heavy-tailed in-degrees (hubs).
    let web = Arc::new(generators::rmat(16, 400_000, RmatParams::default(), 0xB0B));
    println!("crawl: {} pages, {} links", web.node_count(), web.edge_count());

    // Offline phase (runs on the "cluster", ships an index file).
    let cfg = SimRankConfig::default_paper().with_r_query(5_000);
    let t0 = Instant::now();
    let cw = CloudWalker::build(Arc::clone(&web), cfg, ExecMode::Local).unwrap();
    println!("offline indexing: {:?}", t0.elapsed());

    let index_path = std::env::temp_dir().join("pasco_web_search.idx");
    persist::save_index(cw.diagonal(), &index_path).unwrap();
    println!(
        "index saved: {} ({} bytes)",
        index_path.display(),
        std::fs::metadata(&index_path).unwrap().len()
    );

    // Online phase: a fresh query server loads graph + index only.
    let loaded: DiagonalIndex = persist::load_index(&index_path).unwrap();
    let server = CloudWalker::from_index(web, cfg, loaded).unwrap();

    // "Related pages" for a few seeds.
    for seed in [42u32, 4_000, 30_000] {
        let t0 = Instant::now();
        let scores = server.try_single_source(seed).unwrap();
        let latency = t0.elapsed();
        let mut ranked: Vec<(u32, f64)> = scores
            .iter()
            .enumerate()
            .filter(|&(i, _)| i as u32 != seed)
            .map(|(i, &s)| (i as u32, s))
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        println!("\nrelated to page {seed} ({latency:?}):");
        for &(page, score) in ranked.iter().take(5) {
            println!("  page {page:>6}  s = {score:.4}");
        }
    }
}
