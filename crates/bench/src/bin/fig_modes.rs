//! E8 — "Broadcasting is more efficient, but RDD is more scalable".
//!
//! Quantifies the paper's two implementation models on one mid-size
//! dataset: wall time per phase, shuffle volume, and the per-worker memory
//! requirement that decides which graphs each model can even load.

use pasco_bench::{datasets, fmt_duration, table::Table, time};
use pasco_cluster::ClusterConfig;
use pasco_simrank::{CloudWalker, ExecMode, SimRankConfig};
use std::sync::Arc;

fn main() {
    let ds = datasets::load("wiki-talk-sim");
    let g = Arc::clone(&ds.graph);
    let cfg = SimRankConfig::default_paper().with_r_query(2_000);
    println!(
        "E8: broadcast vs RDD on {} (|V|={}, |E|={})\n",
        ds.spec.name,
        g.node_count(),
        g.edge_count()
    );

    let cluster = ClusterConfig::paper_like();
    let mut t = Table::new(&[
        "model",
        "D wall",
        "MCSP",
        "MCSS",
        "shuffled bytes",
        "shuffled records",
        "per-worker memory",
    ]);

    for mode_name in ["broadcast", "rdd"] {
        let mode = match mode_name {
            "rdd" => ExecMode::Rdd(cluster),
            _ => ExecMode::Broadcast(cluster),
        };
        let ((cw, stats), _) =
            time(|| CloudWalker::build_with_stats(Arc::clone(&g), cfg, mode).unwrap());
        let before = cw.cluster_report().unwrap();
        let (_, sp) = time(|| std::hint::black_box(cw.try_single_pair(11, 5000).unwrap()));
        let (_, ss) = time(|| std::hint::black_box(cw.try_single_source(11).unwrap()));
        let after = cw.cluster_report().unwrap();
        let mem = match mode_name {
            "rdd" => cw.max_partition_bytes().unwrap(),
            _ => g.memory_bytes(),
        };
        t.row(vec![
            mode_name.to_string(),
            fmt_duration(stats.wall),
            fmt_duration(sp),
            fmt_duration(ss),
            format!("{:.1}MB", after.shuffle_bytes as f64 / 1e6),
            after.shuffle_records.to_string(),
            format!("{:.1}MB", mem as f64 / 1e6),
        ]);
        let _ = before;
    }
    t.print();
    println!(
        "\nShape check (paper): the broadcast model is faster across the board and never\n\
         shuffles, but requires the whole graph per worker; the RDD model shuffles\n\
         heavily and is ~an order of magnitude slower, yet its per-worker footprint is\n\
         |G|/partitions — the model that reaches clue-web scale."
    );
}
