//! `BENCH_distributed.json` — the distributed substrate's latency
//! snapshot: offline build, MCSP, and routed top-`k` at 1/2/4 real
//! loopback workers, against Local (the in-process reference; the spine's
//! `store.mapped_*` rows price routing without a wire). CI runs this and
//! archives the JSON so routing/serialisation regressions show up as
//! numbers, not vibes.
//!
//! ```text
//! cargo run --release -p pasco_bench --bin bench_distributed [out.json]
//! ```

use pasco_graph::generators;
use pasco_server::{PascoServer, ServerConfig, ServerHandle};
use pasco_simrank::{CloudWalker, ExecMode, SimRankConfig};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

const MCSP_QUERIES: u32 = 50;
const TOPK_QUERIES: u32 = 20;

struct Fleet {
    addrs: Vec<String>,
    handles: Vec<ServerHandle>,
    joins: Vec<JoinHandle<()>>,
}

fn spawn_fleet(count: usize) -> Fleet {
    let mut fleet = Fleet { addrs: Vec::new(), handles: Vec::new(), joins: Vec::new() };
    for _ in 0..count {
        let worker = PascoServer::bind_worker("127.0.0.1:0", ServerConfig::default()).unwrap();
        fleet.addrs.push(worker.local_addr().to_string());
        fleet.handles.push(worker.handle());
        fleet.joins.push(std::thread::spawn(move || worker.run().unwrap()));
    }
    fleet
}

impl Fleet {
    fn stop(self) {
        for handle in &self.handles {
            handle.shutdown();
        }
        for join in self.joins {
            let _ = join.join();
        }
    }
}

struct Snapshot {
    mode: String,
    workers: usize,
    build_ms: f64,
    mcsp_us: f64,
    topk_us: f64,
    wire_bytes: u64,
}

fn measure(g: &Arc<pasco_graph::CsrGraph>, cfg: SimRankConfig, mode: ExecMode) -> Snapshot {
    let (label, workers) = match &mode {
        ExecMode::Local => ("local".to_string(), 1),
        ExecMode::Distributed { workers } => ("distributed".to_string(), workers.len()),
        other => (format!("{other:?}"), 1),
    };
    let t0 = Instant::now();
    let cw = CloudWalker::build(Arc::clone(g), cfg, mode).unwrap();
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;

    let n = g.node_count();
    let t0 = Instant::now();
    for q in 0..MCSP_QUERIES {
        std::hint::black_box(cw.try_single_pair(q * 37 % n, (q * 101 + 7) % n).unwrap());
    }
    let mcsp_us = t0.elapsed().as_secs_f64() * 1e6 / f64::from(MCSP_QUERIES);

    let t0 = Instant::now();
    for q in 0..TOPK_QUERIES {
        std::hint::black_box(cw.try_single_source_topk(q * 53 % n, 10).unwrap());
    }
    let topk_us = t0.elapsed().as_secs_f64() * 1e6 / f64::from(TOPK_QUERIES);

    let wire_bytes = cw.cluster_report().map_or(0, |r| r.shuffle_bytes);
    Snapshot { mode: label, workers, build_ms, mcsp_us, topk_us, wire_bytes }
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_distributed.json".to_string());
    let g = Arc::new(generators::barabasi_albert(5_000, 8, 0xD157));
    let cfg = SimRankConfig::fast().with_r(32).with_r_query(1_000).with_seed(11);
    println!(
        "distributed bench: |V|={}, |E|={}, {} MCSP + {} top-k queries per mode",
        g.node_count(),
        g.edge_count(),
        MCSP_QUERIES,
        TOPK_QUERIES
    );

    let mut rows = Vec::new();
    rows.push(measure(&g, cfg, ExecMode::Local));
    for workers in [1usize, 2, 4] {
        let fleet = spawn_fleet(workers);
        rows.push(measure(&g, cfg, ExecMode::Distributed { workers: fleet.addrs.clone() }));
        fleet.stop();
    }

    // The engines must agree before the numbers mean anything.
    let reference = CloudWalker::build(Arc::clone(&g), cfg, ExecMode::Local).unwrap();
    let fleet = spawn_fleet(2);
    let dist = CloudWalker::build(
        Arc::clone(&g),
        cfg,
        ExecMode::Distributed { workers: fleet.addrs.clone() },
    )
    .unwrap();
    assert_eq!(reference.diagonal(), dist.diagonal(), "engines diverged; bench void");
    assert_eq!(
        reference.try_single_source_topk(3, 10).unwrap(),
        dist.try_single_source_topk(3, 10).unwrap()
    );
    fleet.stop();

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"nodes\": {},\n  \"edges\": {},\n  \"mcsp_queries\": {MCSP_QUERIES},\n  \"topk_queries\": {TOPK_QUERIES},\n  \"rows\": [\n",
        g.node_count(),
        g.edge_count()
    ));
    for (idx, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mode\": \"{}\", \"workers\": {}, \"build_ms\": {:.3}, \"mcsp_us\": {:.1}, \"topk_us\": {:.1}, \"wire_bytes\": {}}}{}\n",
            row.mode,
            row.workers,
            row.build_ms,
            row.mcsp_us,
            row.topk_us,
            row.wire_bytes,
            if idx + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).unwrap();

    println!(
        "{:<14} {:>7} {:>12} {:>10} {:>10} {:>12}",
        "mode", "workers", "build ms", "mcsp us", "topk us", "wire bytes"
    );
    for row in &rows {
        println!(
            "{:<14} {:>7} {:>12.2} {:>10.1} {:>10.1} {:>12}",
            row.mode, row.workers, row.build_ms, row.mcsp_us, row.topk_us, row.wire_bytes
        );
    }
    println!("wrote {out_path}");
}
