//! Integration: the distributed substrate over **real loopback TCP**.
//!
//! The acceptance bar for the 5th engine: with workers
//! (`PascoServer::bind_worker`) spawned in-process on ephemeral loopback
//! ports (same pattern as `tests/server.rs`), `ExecMode::Distributed`
//! must produce results
//! bit-identical to `ExecMode::Local` for every query kind — index,
//! MCSP, dense MCSS, top-`k`, raw cohorts — at worker counts 1, 2 and
//! 4, with the cluster accounting reporting real wire bytes. Worker
//! death is a typed error (`QueryError::WorkerUnavailable` /
//! `SimRankError::Query`), never a hang or a panic, and surviving
//! workers keep answering.

use pasco::graph::generators;
use pasco::server::{PascoServer, ServerConfig, ServerHandle};
use pasco::simrank::api::envelope::{Envelope, FrameKind, ServerInfo, DEFAULT_MAX_FRAME};
use pasco::simrank::api::transport::{
    read_envelope, write_envelope, TransportError, DEFAULT_IO_TIMEOUT,
};
use pasco::simrank::api::wire::WireCodec;
use pasco::simrank::api::worker::{
    BuildShard, BuildShardReply, Empty, LoadAck, LoadPartition, ShardQuery, ShardQueryKind,
    WorkerStats,
};
use pasco::simrank::{
    queries, CloudWalker, ExecMode, QueryError, QueryResponse, QuerySession, SimRankConfig,
    SimRankError,
};
use pasco_store::{partition_image, ShardHeader};
use proptest::prelude::*;
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A set of in-process loopback workers.
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
    fn mode(&self) -> ExecMode {
        ExecMode::Distributed { workers: self.addrs.clone() }
    }

    fn stop(self) {
        for handle in &self.handles {
            handle.shutdown();
        }
        for join in self.joins {
            let _ = join.join();
        }
    }
}

#[test]
fn distributed_is_bit_identical_to_local_at_worker_counts_1_2_4() {
    for (gname, g) in [
        ("ba", Arc::new(generators::barabasi_albert(150, 3, 7))),
        ("rmat", Arc::new(generators::rmat(8, 1_600, generators::RmatParams::default(), 5))),
    ] {
        // Both forward arms: the rule sweeps these graphs, and walks them
        // at one forward walker per term.
        let sweeps = SimRankConfig::fast().with_seed(17);
        for (arm, cfg) in [("sweeps", sweeps), ("walks", SimRankConfig { r_forward: 1, ..sweeps })]
        {
            let gname = format!("{gname} {arm}");
            let local = CloudWalker::build(Arc::clone(&g), cfg, ExecMode::Local).unwrap();
            for workers in [1usize, 2, 4] {
                let fleet = spawn_fleet(workers);
                let dist = CloudWalker::build(Arc::clone(&g), cfg, fleet.mode()).unwrap();
                assert_eq!(dist.mode_name(), "distributed");
                assert_eq!(local.diagonal(), dist.diagonal(), "{gname}: index, {workers} workers");
                for &(i, j) in &[(0u32, 1u32), (5, 70), (33, 32)] {
                    assert_eq!(
                        local.try_single_pair(i, j).unwrap(),
                        dist.try_single_pair(i, j).unwrap(),
                        "{gname}: MCSP ({i},{j}), {workers} workers"
                    );
                }
                for &s in &[0u32, 64, 149] {
                    assert_eq!(
                        local.try_single_source(s).unwrap(),
                        dist.try_single_source(s).unwrap(),
                        "{gname}: dense MCSS source {s}, {workers} workers"
                    );
                    assert_eq!(
                        local.try_single_source_topk(s, 10).unwrap(),
                        dist.try_single_source_topk(s, 10).unwrap(),
                        "{gname}: top-k source {s}, {workers} workers"
                    );
                    assert_eq!(
                        local.try_query_cohort(s).unwrap(),
                        dist.try_query_cohort(s).unwrap(),
                        "{gname}: cohort {s}, {workers} workers"
                    );
                }

                // Real-wire accounting: partitions and queries moved actual
                // encoded bytes.
                let report = dist.cluster_report().expect("distributed substrate is accounted");
                assert!(report.shuffle_bytes > 0, "wire bytes recorded");
                assert!(report.shuffle_records > 0);
                assert!(report.stages > 0, "build stage recorded");

                // Worker stats: one per worker, owned nodes partition the
                // graph, each served exactly one build.
                let stats: Vec<_> = dist
                    .worker_stats()
                    .expect("distributed substrate reports workers")
                    .into_iter()
                    .collect::<Result<_, _>>()
                    .expect("all workers alive");
                assert_eq!(stats.len(), workers.min(g.node_count() as usize));
                assert_eq!(
                    stats.iter().map(|s| u64::from(s.owned_nodes)).sum::<u64>(),
                    u64::from(g.node_count()),
                    "{gname}: owned nodes cover the graph"
                );
                assert!(stats.iter().all(|s| s.builds == 1));
                assert!(stats.iter().all(|s| s.owned_bytes <= s.resident_bytes));
                assert!(local.worker_stats().is_none());

                // The ownership breakdown matches the per-worker stats.
                let footprints = dist.shard_footprints().expect("ownership breakdown");
                assert_eq!(footprints.len(), stats.len());
                fleet.stop();
            }
        }
    }
}

#[test]
fn persisted_index_serves_distributed_bit_identically() {
    // The CLI query path: skip the build, serve a precomputed diagonal
    // from workers (`from_index_with_mode`).
    let g = Arc::new(generators::barabasi_albert(120, 3, 11));
    let cfg = SimRankConfig::fast().with_seed(3);
    let local = CloudWalker::build(Arc::clone(&g), cfg, ExecMode::Local).unwrap();
    let fleet = spawn_fleet(2);
    let dist = CloudWalker::from_index_with_mode(
        Arc::clone(&g),
        cfg,
        local.diagonal().clone(),
        fleet.mode(),
    )
    .unwrap();
    assert_eq!(
        local.try_single_source_topk(4, 8).unwrap(),
        dist.try_single_source_topk(4, 8).unwrap()
    );
    assert_eq!(local.try_single_pair(4, 90).unwrap(), dist.try_single_pair(4, 90).unwrap());
    // Several queries against one diagonal: after the first ships it,
    // the rest ride the fingerprint — and answers stay identical.
    for s in [1u32, 61, 119] {
        assert_eq!(
            local.try_single_source_topk(s, 5).unwrap(),
            dist.try_single_source_topk(s, 5).unwrap(),
            "source {s}"
        );
    }
    fleet.stop();
}

#[test]
fn store_backed_workers_serve_bit_identically_without_shipping_partitions() {
    // The out-of-core provisioning path: workers `mmap` their own shard
    // of a saved store (`FrameKind::LoadStore` ships a directory path),
    // so provisioning moves O(path) wire bytes instead of O(E), the
    // diagonal never crosses the wire, and every query kind still
    // answers bit-identically to the local engine.
    let g = Arc::new(generators::barabasi_albert(150, 3, 7));
    let cfg = SimRankConfig::fast().with_seed(17);
    let local = CloudWalker::build(Arc::clone(&g), cfg, ExecMode::Local).unwrap();
    for parts in [1u32, 2, 4] {
        let dir = std::env::temp_dir().join(format!("pasco_dist_store_{parts}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        local.save_store(&dir, parts).unwrap();

        let fleet = spawn_fleet(parts as usize);
        let dist = CloudWalker::open_store_distributed(&dir, cfg, &fleet.addrs).unwrap();
        assert_eq!(dist.mode_name(), "distributed");

        // Provisioning accounting, sampled before any query runs: the
        // load stage shipped one directory path + ack per worker — a few
        // hundred bytes, not the O(E) a partition transfer moves. (No
        // build ran, so there are no stage rows on this path.)
        let provisioning = dist.cluster_report().expect("store provisioning is accounted");
        assert!(provisioning.shuffle_bytes > 0, "load frames move real wire bytes");
        assert!(
            provisioning.shuffle_bytes < 1024 * u64::from(parts),
            "provisioning moved {} bytes for {parts} shards — that is not O(path)",
            provisioning.shuffle_bytes
        );
        assert_eq!(local.diagonal(), dist.diagonal(), "index, {parts} shards");
        for &(i, j) in &[(0u32, 1u32), (5, 70), (33, 32)] {
            assert_eq!(
                local.try_single_pair(i, j).unwrap(),
                dist.try_single_pair(i, j).unwrap(),
                "MCSP, {parts} shards"
            );
        }
        for &s in &[0u32, 64, 149] {
            assert_eq!(
                local.try_single_source(s).unwrap(),
                dist.try_single_source(s).unwrap(),
                "MCSS, {parts} shards"
            );
            assert_eq!(
                local.try_single_source_topk(s, 10).unwrap(),
                dist.try_single_source_topk(s, 10).unwrap(),
                "top-k, {parts} shards"
            );
            assert_eq!(
                local.try_query_cohort(s).unwrap(),
                dist.try_query_cohort(s).unwrap(),
                "cohort, {parts} shards"
            );
        }

        // Workers report their mapped shard as resident state.
        let stats: Vec<_> = dist
            .worker_stats()
            .expect("distributed substrate reports workers")
            .into_iter()
            .collect::<Result<_, _>>()
            .expect("all workers alive");
        assert_eq!(stats.len(), parts as usize);
        assert_eq!(
            stats.iter().map(|s| u64::from(s.owned_nodes)).sum::<u64>(),
            u64::from(g.node_count()),
            "owned nodes cover the graph"
        );
        fleet.stop();
    }

    // Fewer workers than shards is a typed config error, before any
    // connection is attempted.
    let dir = std::env::temp_dir().join("pasco_dist_store_short");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    local.save_store(&dir, 3).unwrap();
    let fleet = spawn_fleet(2);
    match CloudWalker::open_store_distributed(&dir, cfg, &fleet.addrs) {
        Err(SimRankError::InvalidConfig(msg)) => {
            assert!(msg.contains("3 shards"), "{msg}");
        }
        other => panic!("expected InvalidConfig, got ok={}", other.is_ok()),
    }
    fleet.stop();
}

/// The coordinator bounds a reply before it routes the query: a worker
/// that advertises a 4 KB frame limit is never asked for a 4.8 KB dense
/// row or a cohort, and its query count shows it; what fits still answers
/// bit-identically to local.
#[test]
fn the_coordinator_refuses_a_reply_past_the_workers_frame_limit_before_sending() {
    let g = Arc::new(generators::barabasi_albert(600, 3, 7));
    let cfg = SimRankConfig::fast().with_seed(17);
    let local = CloudWalker::build(Arc::clone(&g), cfg, ExecMode::Local).unwrap();
    let dir = std::env::temp_dir().join("pasco_dist_reply_bound");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    local.save_store(&dir, 1).unwrap();
    let small = ServerConfig { max_frame_bytes: 4096, ..ServerConfig::default() };
    let worker = PascoServer::bind_worker("127.0.0.1:0", small).unwrap();
    let (addr, handle) = (worker.local_addr().to_string(), worker.handle());
    let join = std::thread::spawn(move || worker.run().unwrap());
    let dist = CloudWalker::open_store_distributed(&dir, cfg, &[addr]).unwrap();
    let queries = || dist.worker_stats().unwrap()[0].as_ref().unwrap().queries;

    assert_eq!(dist.try_single_pair(0, 1).unwrap(), local.try_single_pair(0, 1).unwrap());
    let before = queries();
    assert_eq!(
        dist.try_single_source(5),
        Err(QueryError::ResponseTooLarge { bytes: 5 + 8 * 600, max_frame: 4096 })
    );
    assert!(matches!(dist.try_query_cohort(5), Err(QueryError::ResponseTooLarge { .. })));
    assert_eq!(queries(), before, "refused before the worker saw them");
    assert_eq!(
        dist.try_single_source_topk(5, 10).unwrap(),
        local.try_single_source_topk(5, 10).unwrap()
    );
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn the_coordinator_admits_a_top_k_past_n_whose_exact_reply_fits() {
    // k ≥ n: each partition's list holds at most its own nodes, so the
    // reply is bounded by n entries, not by k per partition.
    let g = Arc::new(generators::barabasi_albert(60, 3, 7));
    let cfg = SimRankConfig::fast().with_seed(17);
    let local = CloudWalker::build(Arc::clone(&g), cfg, ExecMode::Local).unwrap();
    let dir = std::env::temp_dir().join("pasco_dist_topk_bound");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    local.save_store(&dir, 2).unwrap();
    // Two lists, at most 60 entries: 4 + 2·4 + 12·60 = 732 bytes.
    let small = ServerConfig { max_frame_bytes: 1024, ..ServerConfig::default() };
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let worker = PascoServer::bind_worker("127.0.0.1:0", small).unwrap();
            let (addr, handle) = (worker.local_addr().to_string(), worker.handle());
            (addr, handle, std::thread::spawn(move || worker.run().unwrap()))
        })
        .collect();
    let addrs: Vec<String> = workers.iter().map(|(addr, _, _)| addr.clone()).collect();
    let dist = CloudWalker::open_store_distributed(&dir, cfg, &addrs).unwrap();
    assert_eq!(
        dist.try_single_source_topk(5, 1_000).unwrap(),
        local.try_single_source_topk(5, 1_000).unwrap()
    );
    for (_, handle, join) in workers {
        handle.shutdown();
        join.join().unwrap();
    }
}

#[test]
fn distributed_mode_rejects_empty_worker_list_and_dead_addresses() {
    let g = Arc::new(generators::cycle(8));
    let err = CloudWalker::build(
        Arc::clone(&g),
        SimRankConfig::fast(),
        ExecMode::Distributed { workers: vec![] },
    )
    .unwrap_err();
    assert!(matches!(err, SimRankError::InvalidConfig(_)), "{err}");

    // A worker that is not there: typed connect failure, no hang.
    let unused = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = unused.local_addr().unwrap().to_string();
    drop(unused);
    let err =
        CloudWalker::build(g, SimRankConfig::fast(), ExecMode::Distributed { workers: vec![addr] })
            .unwrap_err();
    match err {
        SimRankError::Query(QueryError::WorkerUnavailable { detail }) => {
            assert!(detail.contains("connect"), "{detail}");
        }
        other => panic!("expected WorkerUnavailable, got {other}"),
    }
}

/// A scripted rogue worker on one connection: speaks the protocol through
/// the load phase, then hands every other frame to `answer`, which replies
/// or (`None`) hangs up. It also stops when the coordinator hangs up; the
/// thread returns whether it was `answer` that hung up.
fn spawn_rogue(
    mut answer: impl FnMut(Envelope) -> Option<Envelope> + Send + 'static,
) -> (String, JoinHandle<bool>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let join = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let hello = read_envelope(&mut reader, DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(hello.kind, FrameKind::Hello);
        let info = ServerInfo { node_count: 0, max_frame_bytes: DEFAULT_MAX_FRAME };
        write_envelope(&mut writer, &Envelope::hello_ack(&info)).unwrap();
        while let Ok(env) = read_envelope(&mut reader, DEFAULT_MAX_FRAME) {
            let reply = if env.kind == FrameKind::LoadPartition {
                let msg = LoadPartition::from_bytes(&env.payload).unwrap();
                let part_index = ShardHeader::from_bytes(&msg.image).unwrap().part_index;
                let ack = LoadAck { resident_bytes: 0, loaded: part_index + 1 };
                Envelope::worker(FrameKind::LoadPartition, env.request_id, &ack)
            } else {
                match answer(env) {
                    Some(reply) => reply,
                    None => return true,
                }
            };
            write_envelope(&mut writer, &reply).unwrap();
        }
        false
    });
    (addr, join)
}

/// A rogue worker that drops the connection the moment the build starts —
/// the deterministic stand-in for "worker process died mid-build".
fn spawn_rogue_drops_on_build() -> (String, JoinHandle<bool>) {
    spawn_rogue(|env| match env.kind {
        FrameKind::BuildShard => None,
        other => panic!("rogue worker got {other:?}"),
    })
}

/// A rogue worker that completes the load phase, then holds every later
/// frame unanswered — a stalled process — until the returned sender fires
/// (or drops), and hangs up.
fn spawn_stalled_rogue() -> (String, JoinHandle<bool>, mpsc::Sender<()>) {
    let (release, held) = mpsc::channel::<()>();
    let (addr, join) = spawn_rogue(move |_| {
        let _ = held.recv();
        None
    });
    (addr, join, release)
}

/// Runs `work` on its own thread; the receiver yields its outcome and
/// wall time, so a hang fails the test at `recv_timeout` instead of
/// wedging the suite.
fn spawn_timed<T: Send + 'static>(
    work: impl FnOnce() -> T + Send + 'static,
) -> mpsc::Receiver<(T, Duration)> {
    let (done, outcome) = mpsc::channel();
    std::thread::spawn(move || {
        let started = Instant::now();
        let _ = done.send((work(), started.elapsed()));
    });
    outcome
}

#[test]
fn a_stalled_worker_is_a_typed_error_at_the_deadline_and_survivors_keep_answering() {
    // Regression: the coordinator's worker link had no deadline, so a
    // worker that accepted a query and never replied held the caller (and
    // every later query routed to it) forever.
    let g = Arc::new(generators::barabasi_albert(100, 3, 13));
    let cfg = SimRankConfig::fast().with_seed(9);
    let local = CloudWalker::build(Arc::clone(&g), cfg, ExecMode::Local).unwrap();
    let fleet = spawn_fleet(1);
    let (rogue, join, release) = spawn_stalled_rogue();
    let workers = vec![fleet.addrs[0].clone(), rogue];
    let dist = Arc::new(
        CloudWalker::from_index_with_mode(
            Arc::clone(&g),
            cfg,
            local.diagonal().clone(),
            ExecMode::Distributed { workers },
        )
        .unwrap(),
    );
    // Worker 1 owns [50, 100): the rogue holds this query's frame.
    let stalled = Arc::clone(&dist);
    let outcome = spawn_timed(move || stalled.try_single_pair(70, 3));
    // Meanwhile worker 0 answers bit-identically.
    for (i, j) in [(3u32, 70u32), (7, 40), (12, 99)] {
        assert_eq!(local.try_single_pair(i, j).unwrap(), dist.try_single_pair(i, j).unwrap());
    }
    assert_eq!(
        local.try_single_source_topk(7, 5).unwrap(),
        dist.try_single_source_topk(7, 5).unwrap()
    );
    let (result, waited) =
        outcome.recv_timeout(2 * DEFAULT_IO_TIMEOUT).expect("the stalled query hung");
    match result {
        Err(QueryError::WorkerUnavailable { detail }) => {
            assert!(detail.contains("worker 1") && detail.contains("no reply within"), "{detail}");
        }
        other => panic!("expected WorkerUnavailable, got {other:?}"),
    }
    // At the deadline, and not retried (a retry waits out a second one).
    let slack = Duration::from_secs(5);
    assert!(waited >= DEFAULT_IO_TIMEOUT && waited <= DEFAULT_IO_TIMEOUT + slack, "{waited:?}");
    release.send(()).unwrap();
    assert!(join.join().unwrap(), "the rogue was released holding its frame");
    fleet.stop();
}

#[test]
fn a_build_against_a_stalled_worker_fails_typed_within_its_scaled_deadline() {
    let g = Arc::new(generators::barabasi_albert(60, 3, 9));
    let cfg = SimRankConfig::fast();
    let fleet = spawn_fleet(1);
    let (rogue, join, release) = spawn_stalled_rogue();
    let workers = vec![fleet.addrs[0].clone(), rogue];
    // Worker 1 owns 30 nodes; its walk phase is granted 1 µs a step.
    let steps = 30 * u64::from(cfg.r) * cfg.t as u64;
    let deadline = DEFAULT_IO_TIMEOUT + Duration::from_micros(steps);
    let mode = ExecMode::Distributed { workers };
    let outcome = spawn_timed(move || CloudWalker::build(g, cfg, mode).map(|_| ()));
    let (result, waited) = outcome.recv_timeout(2 * deadline).expect("the build hung");
    match result {
        Err(SimRankError::Query(QueryError::WorkerUnavailable { detail })) => {
            assert!(detail.contains("worker 1") && detail.contains("no reply within"), "{detail}");
        }
        other => panic!("expected WorkerUnavailable, got {other:?}"),
    }
    let slack = Duration::from_secs(5);
    assert!(waited >= deadline && waited <= deadline + slack, "{waited:?} for {deadline:?}");
    release.send(()).unwrap();
    assert!(join.join().unwrap(), "the rogue was released holding its frame");
    fleet.stop();
}

#[test]
fn worker_dropping_mid_build_is_a_typed_error_not_a_hang() {
    let g = Arc::new(generators::barabasi_albert(60, 3, 9));
    let (addr, join) = spawn_rogue_drops_on_build();
    let err =
        CloudWalker::build(g, SimRankConfig::fast(), ExecMode::Distributed { workers: vec![addr] })
            .unwrap_err();
    match err {
        SimRankError::Query(QueryError::WorkerUnavailable { detail }) => {
            assert!(detail.contains("worker 0"), "{detail}");
        }
        other => panic!("expected WorkerUnavailable, got {other}"),
    }
    assert!(join.join().unwrap(), "the coordinator hung up before the build reached the rogue");
}

#[test]
fn a_rogue_workers_malformed_cohorts_are_typed_errors_not_scored() {
    // Regression: the coordinator cached and scored whatever cohort a
    // worker decoded, so a node id ≥ n panicked `score_pair`'s diagonal
    // lookup on a serving thread, and an unsorted histogram silently broke
    // its merge.
    let g = Arc::new(generators::complete(100));
    let cfg = SimRankConfig::fast().with_seed(2);
    let local = CloudWalker::build(Arc::clone(&g), cfg, ExecMode::Local).unwrap();
    let fleet = spawn_fleet(1);
    // Worker 1, owner of nodes [50, 100), corrupts a genuine cohort's
    // first step (every walker on one of the 99 other nodes): first a node
    // id past the graph, then two ids out of order, then a cohort of the
    // wrong size. Its top-3 rankings are one entry too long, then name a
    // node past the graph, then rank two entries out of order.
    let graph = Arc::clone(&g);
    let n = g.node_count();
    let mut rankings = vec![
        vec![(52, 0.25), (53, 0.5)],
        vec![(n, 0.5)],
        vec![(50, 0.5), (51, 0.4), (52, 0.3), (53, 0.2)],
    ];
    let mut served = 0;
    let (rogue, join) = spawn_rogue(move |env| {
        assert_eq!(env.kind, FrameKind::ShardQuery);
        let msg = ShardQuery::from_bytes(&env.payload).unwrap();
        let reply = match msg.kind {
            ShardQueryKind::Cohort { v } => {
                let mut cohort = queries::query_cohort(&graph, &msg.cfg, v);
                let step = &mut cohort.counts[1];
                match served {
                    0 => step.last_mut().unwrap().0 = graph.node_count(),
                    1 => step.swap(0, 1),
                    _ => cohort.walkers += 1,
                }
                served += 1;
                QueryResponse::Cohort(cohort)
            }
            ShardQueryKind::SingleSourceTopK { .. } => QueryResponse::Ranked(rankings.pop()?),
            other => panic!("rogue got {other:?}"),
        };
        Some(Envelope::worker(env.kind, env.request_id, &reply))
    });
    let workers = vec![fleet.addrs[0].clone(), rogue];
    let dist = CloudWalker::from_index_with_mode(
        Arc::clone(&g),
        cfg,
        local.diagonal().clone(),
        ExecMode::Distributed { workers },
    )
    .unwrap();
    let session = QuerySession::new(Arc::new(dist), 16);

    for (pair, says) in [((3, 60), "out of range"), ((3, 61), "strictly increasing")] {
        match session.try_single_pair(pair.0, pair.1).unwrap_err() {
            QueryError::WorkerUnavailable { detail } => {
                assert!(detail.contains("worker 1") && detail.contains(says), "{detail}");
            }
            other => panic!("expected WorkerUnavailable, got {other}"),
        }
    }
    let err = session.try_cohort(62).unwrap_err();
    assert!(matches!(err, QueryError::WorkerUnavailable { .. }), "{err}");
    for says in ["4 entries", "entry (100, 0.5)", "not strictly ranked"] {
        match session.walker().try_single_source_topk(60, 3).unwrap_err() {
            QueryError::WorkerUnavailable { detail } => {
                assert!(detail.contains("worker 1") && detail.contains(says), "{detail}");
            }
            other => panic!("expected WorkerUnavailable, got {other}"),
        }
    }
    // Nothing malformed was cached, and worker 0 keeps answering.
    assert_eq!(session.cached_cohorts(), 1, "only node 3's cohort is cached");
    assert_eq!(session.try_single_pair(1, 2).unwrap(), local.try_single_pair(1, 2).unwrap());
    assert_eq!(session.try_single_pair(3, 40).unwrap(), local.try_single_pair(3, 40).unwrap());
    drop(session);
    join.join().unwrap();
    fleet.stop();
}

#[test]
fn a_rogue_workers_malformed_rows_are_typed_errors_not_solved() {
    // Regression: the coordinator solved whatever rows a worker shipped, so
    // a column past the graph panicked the Jacobi sweep's iterate lookup and
    // a row without its own entry tripped the solver's assert.
    let g = Arc::new(generators::cycle(8));
    let n = g.node_count();
    let bad_rows = [
        (vec![(3, 1.0), (n, 0.5)], "column 8 out of range"),
        (vec![(4, 1.0)], "own column"),
        (vec![(4, 0.5), (3, 1.0)], "strictly increasing"),
    ];
    for (bad, says) in bad_rows {
        let (rogue, join) = spawn_rogue(move |env| {
            assert_eq!(env.kind, FrameKind::BuildShard);
            let mut rows: Vec<_> = (0..n).map(|i| vec![(i, 1.0)]).collect();
            rows[3] = bad.clone();
            Some(Envelope::worker(env.kind, env.request_id, &BuildShardReply { rows }))
        });
        let mode = ExecMode::Distributed { workers: vec![rogue] };
        match CloudWalker::build(Arc::clone(&g), SimRankConfig::fast(), mode).map(|_| ()) {
            Err(SimRankError::Query(QueryError::WorkerUnavailable { detail })) => {
                assert!(detail.contains("worker 0: row 3") && detail.contains(says), "{detail}");
            }
            other => panic!("expected WorkerUnavailable ({says}), got {other:?}"),
        }
        join.join().unwrap();
    }
}

#[test]
fn worker_dying_mid_serve_is_typed_and_survivors_keep_answering() {
    let g = Arc::new(generators::barabasi_albert(100, 3, 13));
    let cfg = SimRankConfig::fast().with_seed(9);
    let local = CloudWalker::build(Arc::clone(&g), cfg, ExecMode::Local).unwrap();
    let fleet = spawn_fleet(2);
    let dist = CloudWalker::build(Arc::clone(&g), cfg, fleet.mode()).unwrap();
    // Range partitioning over 100 nodes / 2 workers: worker 0 owns
    // [0, 50), worker 1 owns [50, 100).
    assert_eq!(
        local.try_single_source_topk(99, 5).unwrap(),
        dist.try_single_source_topk(99, 5).unwrap()
    );

    // Kill worker 1 hard (sockets torn down, as a dead process would).
    fleet.handles[1].kill();
    let err = dist.try_single_source(99).unwrap_err();
    assert!(matches!(err, QueryError::WorkerUnavailable { .. }), "{err}");
    let err = dist.try_single_source_topk(60, 5).unwrap_err();
    assert!(matches!(err, QueryError::WorkerUnavailable { .. }), "{err}");
    // The same failure again: the dead link reports immediately, it
    // does not retry into a hang.
    let err = dist.try_query_cohort(99).unwrap_err();
    assert!(matches!(err, QueryError::WorkerUnavailable { .. }), "{err}");

    // Worker 0 is untouched: its sources still answer, bit-identically.
    assert_eq!(local.try_single_source(7).unwrap(), dist.try_single_source(7).unwrap());
    assert_eq!(
        local.try_single_source_topk(7, 5).unwrap(),
        dist.try_single_source_topk(7, 5).unwrap()
    );
    fleet.stop();
}

#[test]
fn coordinator_reconnects_after_a_network_blip() {
    // A broken *connection* is not a dead *worker*: the worker process
    // keeps its loaded partitions and diagonal cache across reconnects,
    // so the coordinator retries a fresh connection on a dead link —
    // one typed failure, then service resumes bit-identically.
    let g = Arc::new(generators::barabasi_albert(80, 3, 5));
    let cfg = SimRankConfig::fast().with_seed(6);
    let local = CloudWalker::build(Arc::clone(&g), cfg, ExecMode::Local).unwrap();
    let fleet = spawn_fleet(2);
    let dist = CloudWalker::build(Arc::clone(&g), cfg, fleet.mode()).unwrap();
    assert_eq!(
        local.try_single_source_topk(70, 5).unwrap(),
        dist.try_single_source_topk(70, 5).unwrap()
    );

    // Sever the sockets (worker processes stay up, state resident). The
    // coordinator heals transparently: each link retries its request
    // once over a fresh connection, so the caller sees no error at all
    // — just bit-identical answers.
    fleet.handles[0].sever_connections();
    fleet.handles[1].sever_connections();
    assert_eq!(
        local.try_single_source_topk(70, 5).unwrap(),
        dist.try_single_source_topk(70, 5).unwrap()
    );
    assert_eq!(local.try_single_pair(3, 70).unwrap(), dist.try_single_pair(3, 70).unwrap());
    assert_eq!(local.try_single_source(12).unwrap(), dist.try_single_source(12).unwrap());
    fleet.stop();
}

#[test]
fn session_serving_path_stays_typed_when_a_worker_dies() {
    // The caching serving layer (what `pasco serve --mode distributed`
    // actually runs) must degrade the same way the engine does: a dead
    // worker is a typed error frame, never a panicked pool thread.
    let g = Arc::new(generators::barabasi_albert(100, 3, 21));
    let cfg = SimRankConfig::fast().with_seed(2);
    let fleet = spawn_fleet(2);
    let dist = Arc::new(CloudWalker::build(Arc::clone(&g), cfg, fleet.mode()).unwrap());
    let session = QuerySession::new(Arc::clone(&dist), 16);
    // Warm a worker-1-owned pair (nodes 50..100), then kill worker 1.
    let warm = session.try_single_pair(99, 98).unwrap();
    fleet.handles[1].kill();
    // A fresh worker-1 cohort is a typed error (the single-flight guard
    // abandons the flight instead of wedging followers)...
    let err = session.try_single_pair(60, 61).unwrap_err();
    assert!(matches!(err, QueryError::WorkerUnavailable { .. }), "{err}");
    let err = session.try_cohort(60).unwrap_err();
    assert!(matches!(err, QueryError::WorkerUnavailable { .. }), "{err}");
    // ...while cached cohorts and the surviving worker keep serving.
    assert_eq!(session.try_single_pair(99, 98).unwrap(), warm, "cache survives the fault");
    assert!(session.try_single_pair(1, 2).is_ok(), "worker 0 still answers");
    assert!(session.try_pairs_matrix(&[1, 60], &[2]).is_err(), "matrix fails typed too");
    fleet.stop();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The worker count of the distributed engine never changes any
    /// answer — the real-TCP mirror of PR 3's
    /// `shard_count_never_changes_results`. Few cases (each spawns a
    /// worker fleet), arbitrary graphs, seeds and worker counts.
    #[test]
    fn worker_count_never_changes_results(
        edges in prop::collection::vec((0u32..30, 0u32..30), 0..120),
        workers in 1usize..5,
        seed in 0u64..1000,
    ) {
        use pasco::graph::GraphBuilder;
        let mut b = GraphBuilder::new();
        b.ensure_nodes(30);
        for &(u, v) in &edges {
            b.add_edge(u, v);
        }
        let g = Arc::new(b.build());
        let cfg = SimRankConfig::fast().with_seed(seed).with_t(4).with_r(16).with_r_query(64);
        let l = CloudWalker::build(Arc::clone(&g), cfg, ExecMode::Local).unwrap();
        let fleet = spawn_fleet(workers);
        let d = CloudWalker::build(Arc::clone(&g), cfg, fleet.mode()).unwrap();
        prop_assert_eq!(l.diagonal(), d.diagonal());
        prop_assert_eq!(l.try_single_pair(3, 17).unwrap(), d.try_single_pair(3, 17).unwrap());
        prop_assert_eq!(l.try_single_source(5).unwrap(), d.try_single_source(5).unwrap());
        prop_assert_eq!(l.try_single_source_topk(9, 6).unwrap(), d.try_single_source_topk(9, 6).unwrap());
        fleet.stop();
    }
}

/// Raw-socket handshake + stats round trip: the worker speaks the
/// envelope protocol byte-for-byte.
#[test]
fn handshake_and_stats_over_raw_socket() {
    let fleet = spawn_fleet(1);
    let mut stream = TcpStream::connect(&fleet.addrs[0]).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    write_envelope(&mut stream, &Envelope::hello()).unwrap();
    let ack = read_envelope(&mut reader, DEFAULT_MAX_FRAME).unwrap();
    assert_eq!(ack.kind, FrameKind::HelloAck);
    let info = ack.decode_server_info().unwrap();
    assert_eq!(info.node_count, 0, "nothing loaded yet");

    write_envelope(&mut stream, &Envelope::worker(FrameKind::WorkerStats, 7, &Empty)).unwrap();
    let reply = read_envelope(&mut reader, DEFAULT_MAX_FRAME).unwrap();
    assert_eq!(reply.kind, FrameKind::WorkerStats);
    assert_eq!(reply.request_id, 7);
    let stats = WorkerStats::from_bytes(&reply.payload).unwrap();
    assert_eq!(stats, WorkerStats::default());

    // A build before any load is a typed error frame, not a hang.
    let msg = BuildShard { cfg: SimRankConfig::fast() };
    write_envelope(&mut stream, &Envelope::worker(FrameKind::BuildShard, 8, &msg)).unwrap();
    let reply = read_envelope(&mut reader, DEFAULT_MAX_FRAME).unwrap();
    assert_eq!(reply.kind, FrameKind::Error);
    assert_eq!(reply.request_id, 8);
    assert!(matches!(reply.decode_error().unwrap(), QueryError::WorkerUnavailable { .. }));
    fleet.stop();
}

#[test]
fn a_config_with_no_walkers_drops_the_link_and_the_worker_keeps_serving() {
    // Regression: `r = 0` reached the walk kernel's assert on a reactor
    // pool thread, which died without a reply, so the link hung forever.
    let fleet = spawn_fleet(1);
    let cfg = SimRankConfig::fast();
    CloudWalker::build(Arc::new(generators::cycle(10)), cfg, fleet.mode()).unwrap();
    let connect = || {
        let mut stream = TcpStream::connect(&fleet.addrs[0]).unwrap();
        stream.set_read_timeout(Some(std::time::Duration::from_secs(5))).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        write_envelope(&mut stream, &Envelope::hello()).unwrap();
        assert_eq!(
            read_envelope(&mut reader, DEFAULT_MAX_FRAME).unwrap().kind,
            FrameKind::HelloAck
        );
        (stream, reader)
    };
    let (mut stream, mut reader) = connect();
    let msg = BuildShard { cfg: cfg.with_r(0) };
    write_envelope(&mut stream, &Envelope::worker(FrameKind::BuildShard, 1, &msg)).unwrap();
    let closed = read_envelope(&mut reader, DEFAULT_MAX_FRAME);
    assert!(matches!(closed, Err(TransportError::Closed)), "{closed:?}");
    let (mut stream, mut reader) = connect();
    write_envelope(&mut stream, &Envelope::worker(FrameKind::BuildShard, 2, &BuildShard { cfg }))
        .unwrap();
    let reply = read_envelope(&mut reader, DEFAULT_MAX_FRAME).unwrap();
    assert_eq!((reply.kind, reply.request_id), (FrameKind::BuildShard, 2));
    fleet.stop();
}

#[test]
fn shutdown_frame_drains_the_worker() {
    let fleet = spawn_fleet(1);
    let mut stream = TcpStream::connect(&fleet.addrs[0]).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    write_envelope(&mut stream, &Envelope::hello()).unwrap();
    let _ = read_envelope(&mut reader, DEFAULT_MAX_FRAME).unwrap();
    write_envelope(&mut stream, &Envelope::shutdown()).unwrap();
    let goodbye = read_envelope(&mut reader, DEFAULT_MAX_FRAME).unwrap();
    assert_eq!(goodbye.kind, FrameKind::Goodbye);
    for join in fleet.joins {
        join.join().unwrap();
    }
}

/// A raw-socket conformance check: the worker's load/ack exchange emits
/// exactly the frames the protocol promises (kind echoed, id echoed,
/// loaded counter monotone).
#[test]
fn load_acks_echo_kind_and_id_over_a_raw_socket() {
    let g = generators::cycle(10);
    let partitioner = pasco::graph::partition::Partitioner::range(10, 2);

    let worker = PascoServer::bind_worker("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = worker.local_addr();
    let handle = worker.handle();
    let join = std::thread::spawn(move || worker.run().unwrap());

    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    write_envelope(&mut stream, &Envelope::hello()).unwrap();
    assert_eq!(read_envelope(&mut reader, DEFAULT_MAX_FRAME).unwrap().kind, FrameKind::HelloAck);

    for q in 0..2 {
        let msg =
            LoadPartition { owned_part: 0, image: partition_image(&g, &partitioner, q).unwrap() };
        let id = 100 + q as u64;
        write_envelope(&mut stream, &Envelope::worker(FrameKind::LoadPartition, id, &msg)).unwrap();
        let reply = read_envelope(&mut reader, DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(reply.kind, FrameKind::LoadPartition);
        assert_eq!(reply.request_id, id);
        let ack = LoadAck::from_bytes(&reply.payload).unwrap();
        assert_eq!(ack.loaded, q + 1);
        assert!(ack.resident_bytes > 0);
    }

    // A payload that is no shard image is answered typed, with the store's
    // own refusal, on the same connection: no panic, no hang-up.
    let msg = LoadPartition { owned_part: 0, image: b"PASCOSH9 is not a shard".to_vec() };
    write_envelope(&mut stream, &Envelope::worker(FrameKind::LoadPartition, 7, &msg)).unwrap();
    let reply = read_envelope(&mut reader, DEFAULT_MAX_FRAME).unwrap();
    assert_eq!((reply.kind, reply.request_id), (FrameKind::Error, 7));
    match reply.decode_error().unwrap() {
        QueryError::WorkerUnavailable { detail } => {
            assert!(detail.contains("bad store magic"), "{detail}")
        }
        other => panic!("expected WorkerUnavailable, got {other}"),
    }

    // The retired top-k frame kind still decodes, but no worker speaks it:
    // the connection is dropped, as for any kind a worker does not speak.
    stream.set_read_timeout(Some(DEFAULT_IO_TIMEOUT)).unwrap();
    write_envelope(&mut stream, &Envelope::worker(FrameKind::ShardTopK, 8, &Empty)).unwrap();
    assert!(read_envelope(&mut reader, DEFAULT_MAX_FRAME).is_err(), "ShardTopK must drop the link");
    handle.shutdown();
    join.join().unwrap();
}
