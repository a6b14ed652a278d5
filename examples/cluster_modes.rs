//! The paper's two Spark execution models, side by side, on the simulated
//! cluster: Broadcasting (fast, memory-bound) vs RDD (shuffling, scalable)
//! — including the broadcast failure when the graph outgrows a worker's
//! memory budget. Then the same workload once more on the **real**
//! cluster substrate: `pasco_worker` processes on loopback TCP, actual
//! bytes on an actual wire, bit-identical answers.
//!
//! ```text
//! cargo run --release --example cluster_modes
//! ```

use pasco::cluster::ClusterConfig;
use pasco::graph::generators::{self, RmatParams};
use pasco::simrank::{CloudWalker, ExecMode, SimRankConfig, SimRankError};
use pasco::worker::{PascoWorker, WorkerConfig};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let graph = Arc::new(generators::rmat(15, 250_000, RmatParams::default(), 3));
    println!(
        "graph: {} nodes, {} edges, {:.1} MB\n",
        graph.node_count(),
        graph.edge_count(),
        graph.memory_bytes() as f64 / 1e6
    );
    let cfg = SimRankConfig::default_paper().with_r(50).with_r_query(2_000);
    let cluster = ClusterConfig::local(4);

    for (name, mode) in
        [("broadcast", ExecMode::Broadcast(cluster)), ("rdd", ExecMode::Rdd(cluster))]
    {
        let t0 = Instant::now();
        let (cw, stats) = CloudWalker::build_with_stats(Arc::clone(&graph), cfg, mode).unwrap();
        let d_time = t0.elapsed();
        let t0 = Instant::now();
        let s = cw.try_single_pair(17, 912).unwrap();
        let q_time = t0.elapsed();
        let report = cw.cluster_report().unwrap();
        println!("[{name}]");
        println!("  D built in {d_time:?} ({} stages)", report.stages);
        println!("  s(17, 912) = {s:.4} in {q_time:?}");
        println!(
            "  shuffled: {:.1} MB / {} records across {} shuffles",
            report.shuffle_bytes as f64 / 1e6,
            report.shuffle_records,
            report.shuffles
        );
        if let Some(bytes) = cw.max_partition_bytes() {
            println!(
                "  per-worker memory: {:.1} MB (vs {:.1} MB full graph)",
                bytes as f64 / 1e6,
                graph.memory_bytes() as f64 / 1e6
            );
        }
        let _ = stats;
        println!();
    }

    // The broadcast memory wall, reproduced deliberately: a worker budget
    // below the graph size turns Broadcasting mode into the paper's N/A.
    let tiny = ClusterConfig::local(4).with_memory_per_worker(graph.memory_bytes() / 2);
    match CloudWalker::build(Arc::clone(&graph), cfg, ExecMode::Broadcast(tiny)) {
        Err(SimRankError::Cluster(e)) => {
            println!("[broadcast, small workers] fails as the paper's clue-web row did:");
            println!("  {e}");
        }
        _ => unreachable!("broadcast must fail under the reduced budget"),
    }
    match CloudWalker::build(Arc::clone(&graph), cfg, ExecMode::Rdd(tiny)) {
        Ok(cw) => println!(
            "[rdd, same small workers] still works: max partition {:.1} MB",
            cw.max_partition_bytes().unwrap() as f64 / 1e6
        ),
        Err(e) => panic!("RDD mode must not need full-graph memory: {e}"),
    }

    // ---- The real thing: worker processes behind actual sockets --------
    //
    // Two SimRank workers on ephemeral loopback ports (in one process
    // here; `pasco worker --addr` runs the same server standalone), a
    // coordinator that ships partitions and routes queries, and cluster
    // accounting counting real encoded frames instead of estimates.
    println!("\n[distributed] two real workers over loopback TCP");
    let mut addrs = Vec::new();
    let mut handles = Vec::new();
    let mut joins = Vec::new();
    for _ in 0..2 {
        let worker = PascoWorker::bind("127.0.0.1:0", WorkerConfig::default()).unwrap();
        addrs.push(worker.local_addr().to_string());
        handles.push(worker.handle());
        joins.push(std::thread::spawn(move || worker.run().unwrap()));
    }
    let t0 = Instant::now();
    let dist = CloudWalker::build(
        Arc::clone(&graph),
        cfg,
        ExecMode::Distributed { workers: addrs.clone() },
    )
    .unwrap();
    println!("  D built in {:?} across {}", t0.elapsed(), addrs.join(" + "));
    let t0 = Instant::now();
    let s = dist.try_single_pair(17, 912).unwrap();
    println!("  s(17, 912) = {s:.4} in {:?} (routed to the owner of node 17)", t0.elapsed());
    let local = CloudWalker::from_index(Arc::clone(&graph), cfg, dist.diagonal().clone()).unwrap();
    assert_eq!(
        dist.try_single_source_topk(17, 5).unwrap(),
        local.try_single_source_topk(17, 5).unwrap()
    );
    println!("  top-5 of node 17 bit-identical to local serving of the same index");
    let report = dist.cluster_report().unwrap();
    println!(
        "  wire: {:.1} MB in {} messages (real encoded frames, not simulated)",
        report.shuffle_bytes as f64 / 1e6,
        report.shuffle_records
    );
    for s in dist.worker_stats().unwrap() {
        let s = s.expect("both workers alive");
        println!(
            "  worker {}: owns {} nodes ({:.1} MB of {:.1} MB resident), {} queries served",
            s.owned_part,
            s.owned_nodes,
            s.owned_bytes as f64 / 1e6,
            s.resident_bytes as f64 / 1e6,
            s.queries + s.topk_queries
        );
    }
    drop(dist);
    for handle in &handles {
        handle.shutdown();
    }
    for join in joins {
        join.join().unwrap();
    }
    println!("  workers drained");
}
