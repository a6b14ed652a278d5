//! `BENCH_serving.json` — the front door's connection-scalability
//! snapshot: a closed-loop load harness driving `PascoServer` with N
//! concurrent clients (N ∈ {1, 8, 64, 256}) over a fixed request mix
//! (sp / ss / topk / cohort round-robin) and reporting QPS plus
//! p50/p99/p999 latency per N.
//!
//! ```text
//! cargo run --release -p pasco_bench --bin bench_serving -- [out.json]
//!     [--smoke]               # CI mode: 64 clients, small graph, short run
//!     [--baseline FILE]       # fail (exit 1) if smoke p99 regresses >3x
//!     [--label NAME]          # row label for this run (default "reactor")
//! ```
//!
//! Closed loop means every client waits for its answer before sending
//! the next request: measured latency includes queueing, and QPS is the
//! service rate the server actually sustains at that concurrency.

use pasco_graph::generators;
use pasco_server::{PascoClient, PascoServer, ServerConfig};
use pasco_simrank::{
    CloudWalker, ExecMode, QueryRequest, QueryService, QuerySession, SimRankConfig,
};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Concurrency ladder of the full run.
const CLIENT_COUNTS: &[usize] = &[1, 8, 64, 256];
/// Measured seconds per concurrency level (after warmup).
const RUN_SECS: f64 = 1.5;
const WARMUP_SECS: f64 = 0.4;

/// Phases of the run, shared with every client thread.
const PHASE_WARMUP: u8 = 0;
const PHASE_MEASURE: u8 = 1;

struct Load {
    phase: AtomicU8,
    stop: AtomicBool,
}

/// Client `c`'s deterministic request mix: sp / ss / topk / cohort
/// round-robin over a hot set the cohort cache can actually serve.
fn mix(c: u32, q: u32, n: u32) -> QueryRequest {
    let i = (c * 13 + q * 7) % n.min(512);
    let j = (c * 29 + q * 11 + 1) % n.min(512);
    match q % 4 {
        0 => QueryRequest::SinglePair { i, j },
        1 => QueryRequest::SingleSource { i },
        2 => QueryRequest::SingleSourceTopK { i, k: 10 },
        _ => QueryRequest::Cohort { v: i },
    }
}

struct Row {
    server: String,
    clients: usize,
    qps: f64,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
    requests: u64,
}

fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx] as f64
}

/// One closed-loop run: `clients` threads hammer the server at `addr`
/// until the deadline, recording per-request microseconds during the
/// measurement phase only (the warmup fills the cohort cache).
fn run_load(addr: std::net::SocketAddr, clients: usize, n: u32, label: &str) -> Row {
    let load = Arc::new(Load { phase: AtomicU8::new(PHASE_WARMUP), stop: AtomicBool::new(false) });
    let lats: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..clients)
            .map(|c| {
                let load = Arc::clone(&load);
                scope.spawn(move || {
                    let mut client = PascoClient::connect(addr).expect("connect");
                    let mut lat = Vec::with_capacity(1 << 14);
                    let mut q = 0u32;
                    while !load.stop.load(Ordering::Relaxed) {
                        let req = mix(c as u32, q, n);
                        q += 1;
                        let measuring = load.phase.load(Ordering::Relaxed) == PHASE_MEASURE;
                        let t0 = Instant::now();
                        client.query(req).expect("query");
                        if measuring {
                            lat.push(t0.elapsed().as_micros() as u64);
                        }
                    }
                    lat
                })
            })
            .collect();
        std::thread::sleep(Duration::from_secs_f64(WARMUP_SECS));
        load.phase.store(PHASE_MEASURE, Ordering::Relaxed);
        std::thread::sleep(Duration::from_secs_f64(RUN_SECS));
        load.stop.store(true, Ordering::Relaxed);
        joins.into_iter().map(|j| j.join().expect("client thread")).collect()
    });

    let mut all: Vec<u64> = lats.into_iter().flatten().collect();
    all.sort_unstable();
    let requests = all.len() as u64;
    Row {
        server: label.to_string(),
        clients,
        qps: requests as f64 / RUN_SECS,
        p50_us: percentile(&all, 0.50),
        p99_us: percentile(&all, 0.99),
        p999_us: percentile(&all, 0.999),
        requests,
    }
}

fn write_json(path: &str, nodes: u32, edges: u64, smoke: bool, rows: &[Row]) {
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"nodes\": {nodes},\n  \"edges\": {edges},\n  \"run_secs\": {RUN_SECS},\n  \
         \"smoke\": {smoke},\n  \"mix\": \"sp/ss/topk/cohort round-robin\",\n  \"rows\": [\n"
    ));
    for (idx, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"server\": \"{}\", \"clients\": {}, \"qps\": {:.1}, \"p50_us\": {:.1}, \
             \"p99_us\": {:.1}, \"p999_us\": {:.1}, \"requests\": {}}}{}\n",
            row.server,
            row.clients,
            row.qps,
            row.p50_us,
            row.p99_us,
            row.p999_us,
            row.requests,
            if idx + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(path, &json).unwrap();
}

/// Pulls the committed smoke row's p99 out of a previous
/// `BENCH_serving.json` (the one committed to the repo) without a JSON
/// dependency: finds the first `"server": "<label>"` row and reads its
/// `"p99_us"` field.
fn committed_p99(path: &str, label: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let needle = format!("\"server\": \"{label}\"");
    let row_start = text.find(&needle)?;
    let row = &text[row_start..text[row_start..].find('}').map(|e| row_start + e)?];
    let field = row.find("\"p99_us\": ")?;
    let rest = &row[field + "\"p99_us\": ".len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let label = args
        .iter()
        .position(|a| a == "--label")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| if smoke { "reactor-smoke".into() } else { "reactor".into() });
    let baseline =
        args.iter().position(|a| a == "--baseline").and_then(|i| args.get(i + 1)).cloned();
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .filter(|a| {
            let flagged = |f: &str| {
                args.iter().position(|x| x == f).is_some_and(|i| args.get(i + 1) == Some(a))
            };
            !flagged("--label") && !flagged("--baseline")
        })
        .cloned()
        .unwrap_or_else(|| "BENCH_serving.json".to_string());

    let (nodes, counts): (u32, &[usize]) =
        if smoke { (1_000, &[64]) } else { (1_000, CLIENT_COUNTS) };
    let g = Arc::new(generators::barabasi_albert(nodes, 8, 0x5E11));
    let edges = g.edge_count() as u64;
    let cfg = SimRankConfig::fast().with_r(32).with_r_query(16).with_seed(11);
    let cw = CloudWalker::build(Arc::clone(&g), cfg, ExecMode::Local).unwrap();
    let session = Arc::new(QuerySession::new(Arc::new(cw), 2048));

    let threads = std::thread::available_parallelism().map_or(4, |p| p.get());
    let server_cfg = ServerConfig { workers: threads.min(8), ..ServerConfig::default() };
    let server =
        PascoServer::bind("127.0.0.1:0", session as Arc<dyn QueryService>, server_cfg).unwrap();
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().unwrap());
    println!(
        "serving bench: |V|={nodes}, |E|={edges}, {}s/level closed loop, label \"{label}\"",
        RUN_SECS
    );

    let mut rows = Vec::new();
    for &clients in counts {
        let row = run_load(addr, clients, nodes, &label);
        println!(
            "{:<14} {:>4} clients  {:>10.0} qps  p50 {:>8.1}us  p99 {:>8.1}us  p999 {:>8.1}us",
            row.server, row.clients, row.qps, row.p50_us, row.p99_us, row.p999_us
        );
        rows.push(row);
    }
    handle.shutdown();
    join.join().unwrap();

    write_json(&out_path, nodes, edges, smoke, &rows);
    println!("wrote {out_path}");

    if let Some(baseline_path) = baseline {
        let fresh = rows.last().expect("at least one row");
        match committed_p99(&baseline_path, &label) {
            Some(committed) => {
                // 3x the committed p99, with a small absolute floor so
                // CI-runner jitter on a sub-millisecond baseline does not
                // page anyone.
                let limit = (committed * 3.0).max(2_000.0);
                println!(
                    "regression gate: fresh p99 {:.1}us vs committed {:.1}us (limit {:.1}us)",
                    fresh.p99_us, committed, limit
                );
                if fresh.p99_us > limit {
                    eprintln!("p99 regression: {:.1}us > {limit:.1}us", fresh.p99_us);
                    std::process::exit(1);
                }
            }
            None => {
                eprintln!("no committed \"{label}\" row in {baseline_path}; gate skipped");
            }
        }
    }
}
