//! A serving-shaped workload, end to end over the network: a look at walk
//! survival, then a `PascoServer` on a loopback TCP
//! port serving one shared caching session, queried by real
//! `PascoClient`s — sequentially, pipelined, and from four concurrent
//! connections — with every answer checked against in-process serving.
//!
//! ```text
//! cargo run --release --example serving
//! ```

use pasco::graph::generators;
use pasco::mc::walks::{reverse_walk_distributions, WalkParams};
use pasco::server::{PascoClient, PascoServer, ServerConfig};
use pasco::simrank::api::{QueryRequest, QueryResponse, QueryService};
use pasco::simrank::{CloudWalker, ExecMode, QuerySession, SimRankConfig};
use std::sync::Arc;
use std::time::Instant;

/// Serves one single-pair request through a network client (what any
/// real caller of the front door does).
fn serve_pair(client: &mut PascoClient, i: u32, j: u32) -> f64 {
    match client.query(QueryRequest::SinglePair { i, j }) {
        Ok(QueryResponse::Score(s)) => s,
        Ok(other) => panic!("SinglePair answered with {other:?}"),
        Err(e) => panic!("in-range query refused: {e}"),
    }
}

fn main() {
    let graph = Arc::new(generators::rmat(14, 120_000, generators::RmatParams::default(), 9));
    let cfg = SimRankConfig::default_paper().with_r_query(4_000);

    // Before the expensive build: how fast does walk mass die on this graph?
    // Mean surviving mass by step over 32 evenly spaced sources.
    let params = WalkParams::new(cfg.t, cfg.r);
    let n = graph.node_count();
    let mut survival = vec![0.0; cfg.t + 1];
    for s in (0..32).map(|k| k * n / 32) {
        let d = reverse_walk_distributions(&graph, s, params, cfg.seed);
        survival.iter_mut().enumerate().for_each(|(t, m)| *m += d.mass(t) / 32.0);
    }
    println!(
        "survival by step: {:?}",
        survival.iter().map(|s| format!("{s:.2}")).collect::<Vec<_>>()
    );

    // Serve from a saved store: the graph range-partitioned into 4 shard
    // files, mapped in place, every lookup routed to the shard owning the
    // node, and answers bit-identical to the local engine's.
    let built = CloudWalker::build(Arc::clone(&graph), cfg, ExecMode::Local).unwrap();
    let store = std::env::temp_dir().join(format!("pasco_serving_example_{}", std::process::id()));
    built.save_store(&store, 4).unwrap();
    let cw = Arc::new(CloudWalker::open_store(&store, cfg).unwrap());
    let fp = cw.memory_footprint();
    println!("\nengine: {} ({} bytes/worker)", cw.mode_name(), fp.per_worker_bytes);
    if let Some(per_shard) = cw.shard_footprints() {
        println!("per-shard bytes: {per_shard:?}");
    }

    // One shared caching session behind the network front door. A cohort
    // never goes stale (the walker never changes), so the cache is bounded
    // by entry count alone.
    let session = Arc::new(QuerySession::new(Arc::clone(&cw), 64));
    let server = PascoServer::bind(
        "127.0.0.1:0",
        Arc::clone(&session) as Arc<dyn QueryService>,
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr();
    let server_thread = std::thread::spawn(move || server.run().unwrap());
    println!("\nserving on {addr} (versioned envelope protocol over TCP)");

    // A query stream with a skewed working set (hot nodes repeat).
    let hot: Vec<u32> = (0..8).map(|i| i * 1000 + 3).collect();
    let stream = |round: u32| {
        let i = hot[(round % 8) as usize];
        let j = hot[((round / 2 + 3) % 8) as usize];
        (i, j)
    };

    let mut client = PascoClient::connect(addr).unwrap();
    println!(
        "handshake: {} nodes, {}-byte frame limit",
        client.server_info().node_count,
        client.server_info().max_frame_bytes
    );
    let t0 = Instant::now();
    let mut checksum = 0.0;
    for round in 0..50u32 {
        let (i, j) = stream(round);
        checksum += serve_pair(&mut client, i, j);
    }
    let over_wire = t0.elapsed();
    println!(
        "\n50 pair queries over 8 hot nodes, one TCP client: {over_wire:?} (cache: {})",
        session.cache_stats()
    );

    // The same stream served in process: the network layer must be pure
    // transport — bit-identical sums.
    let t0 = Instant::now();
    let mut checksum2 = 0.0;
    for round in 0..50u32 {
        let (i, j) = stream(round);
        match session.execute(QueryRequest::SinglePair { i, j }).unwrap() {
            QueryResponse::Score(s) => checksum2 += s,
            other => panic!("SinglePair answered with {other:?}"),
        }
    }
    println!("same stream in process:                     {:?}", t0.elapsed());
    assert!(checksum == checksum2, "the wire must not change answers");

    // Pipelining: put a whole batch on the wire before reading anything;
    // responses come back in completion order and match up by id.
    let reqs: Vec<QueryRequest> =
        hot.iter().map(|&i| QueryRequest::SingleSourceTopK { i, k: 5 }).collect();
    let t0 = Instant::now();
    let outcomes = client.query_batch(&reqs).unwrap();
    println!("\npipelined top-5 for all {} hot nodes: {:?}", hot.len(), t0.elapsed());
    for (src, outcome) in hot.iter().zip(&outcomes).take(2) {
        match outcome {
            Ok(QueryResponse::Ranked(ranked)) => {
                println!("top-5 similar to node {src}: {ranked:?}")
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    // Four concurrent connections hammering the shared session: every
    // client runs the identical stream, so all four sums must equal the
    // sequential checksum exactly.
    let t0 = Instant::now();
    let sums: Vec<f64> = std::thread::scope(|scope| {
        (0..4)
            .map(|_| {
                scope.spawn(move || {
                    let mut c = PascoClient::connect(addr).unwrap();
                    let mut sum = 0.0;
                    for round in 0..50u32 {
                        let (i, j) = stream(round);
                        sum += serve_pair(&mut c, i, j);
                    }
                    sum
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    println!(
        "4 TCP clients × 50 queries, one shared session: {:?} (cache now: {}, sums {sums:?})",
        t0.elapsed(),
        session.cache_stats()
    );
    assert!(sums.iter().all(|&s| s == checksum), "shared serving must not change answers");

    // Typed errors cross the wire without closing anything.
    let err = client
        .query(QueryRequest::SingleSource { i: graph.node_count() + 1 })
        .expect_err("out of range");
    println!("\nout-of-range over the wire: {err}");
    assert!(client.is_open(), "typed errors leave the connection usable");

    // Drain: the shutdown frame finishes in-flight work, answers
    // goodbye, and `run()` returns.
    client.shutdown_server().unwrap();
    server_thread.join().unwrap();
    println!("server drained cleanly");
    std::fs::remove_dir_all(&store).unwrap();
}
