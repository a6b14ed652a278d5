//! Integration: the concurrent serving layer. One shared `QuerySession`
//! must (a) hand N threads exactly the answers a sequential replay gets,
//! (b) keep its hit/miss accounting consistent under races, and (c) run
//! its LRU hot path without scans or evictions-on-hit at serving-sized
//! capacities.

use pasco::graph::generators;
use pasco::simrank::{
    CloudWalker, ExecMode, QueryRequest, QueryResponse, QueryService, QuerySession, SimRankConfig,
};
use std::sync::Arc;

fn build(nodes: u32, seed: u64) -> Arc<CloudWalker> {
    let g = Arc::new(generators::barabasi_albert(nodes, 3, seed));
    Arc::new(CloudWalker::build(g, SimRankConfig::fast().with_seed(7), ExecMode::Local).unwrap())
}

/// Client `t`'s deterministic query stream: 120 pairs over a 24-node hot
/// set shifted by 8 per client, so neighbouring clients overlap on 16 hot
/// nodes and hammer the same cache entries.
fn client_stream(t: u32, n: u32) -> Vec<(u32, u32)> {
    (0..120u32)
        .map(|q| {
            let i = (t * 8 + q % 24) % n;
            let j = (t * 8 + (q * 7 + 5) % 24) % n;
            (i, j)
        })
        .collect()
}

#[test]
fn shared_session_matches_sequential_replay() {
    const CLIENTS: u32 = 8;
    let cw = build(300, 41);
    let n = cw.node_count();

    // Concurrent: all clients hammer one shared session.
    let shared = QuerySession::new(Arc::clone(&cw), 64);
    let concurrent: Vec<Vec<f64>> = std::thread::scope(|scope| {
        (0..CLIENTS)
            .map(|t| {
                let session = &shared;
                scope.spawn(move || {
                    client_stream(t, n)
                        .iter()
                        .map(|&(i, j)| session.try_single_pair(i, j).unwrap())
                        .collect()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });

    // Sequential replay on a fresh session: answers must be bitwise equal.
    let replay = QuerySession::new(Arc::clone(&cw), 64);
    let mut lookups = 0u64;
    for (t, answers) in concurrent.iter().enumerate() {
        for (q, (&(i, j), &got)) in client_stream(t as u32, n).iter().zip(answers).enumerate() {
            let expect = replay.try_single_pair(i, j).unwrap();
            assert_eq!(got, expect, "client {t} query {q} ({i},{j})");
            if i != j {
                lookups += 2;
            }
        }
    }

    // Counter consistency: every cohort lookup is either a hit or a miss,
    // and misses can never exceed the number of lookups that happened.
    let stats = shared.cache_stats();
    assert_eq!(stats.lookups(), lookups, "concurrent session counters");
    let replay_stats = replay.cache_stats();
    assert_eq!(replay_stats.lookups(), lookups, "replay session counters");
    // The replay is single-threaded, so its miss count is the working-set
    // optimum; racing clients may at worst duplicate a miss in flight.
    assert!(
        stats.misses >= replay_stats.misses,
        "concurrent misses {} < sequential {}",
        stats.misses,
        replay_stats.misses
    );
    assert!(stats.hit_rate() <= replay_stats.hit_rate() + 1e-12);
    // Answers equal the uncached engine too.
    let (i, j) = client_stream(0, n)[17];
    assert_eq!(shared.try_single_pair(i, j).unwrap(), cw.try_single_pair(i, j).unwrap());
}

#[test]
fn concurrent_batches_match_engine() {
    let cw = build(200, 23);
    let session = Arc::new(QuerySession::new(Arc::clone(&cw), 32));
    let sources: Vec<u32> = (0..16u32).map(|i| i * 11 % 200).collect();
    let batch =
        QueryRequest::Batch(sources.iter().map(|&i| QueryRequest::SingleSource { i }).collect());
    let expect = QueryResponse::Batch(
        sources.iter().map(|&s| QueryResponse::Scores(cw.try_single_source(s).unwrap())).collect(),
    );
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let session = Arc::clone(&session);
            let batch = batch.clone();
            let expect = &expect;
            scope.spawn(move || {
                let got = session.execute(batch).unwrap();
                assert_eq!(&got, expect, "batch answers must be identical");
            });
        }
    });
}

/// Regression for the old LRU hot path, which scanned a `VecDeque` on
/// every hit (O(capacity)) and allocated an O(graph-size) slot vector per
/// session. At serving-sized capacity the cache must serve hits without
/// evicting, evict exactly least-recently-used on overflow, and never
/// touch evicted entries' neighbours.
#[test]
fn lru_hit_path_regression_at_capacity_1024() {
    const CAP: usize = 1024;
    let cw = build(2100, 3);
    // An exact LRU, so eviction order is fully predictable.
    let session = QuerySession::new(Arc::clone(&cw), CAP);

    // Fill to exactly capacity: 512 disjoint pairs = 1024 distinct cohorts.
    for p in 0..(CAP as u32 / 2) {
        session.try_single_pair(2 * p, 2 * p + 1).unwrap();
    }
    let stats = session.cache_stats();
    assert_eq!((stats.hits, stats.misses), (0, CAP as u64));
    assert_eq!(session.cached_cohorts(), CAP);

    // Re-run the same stream: pure hits, nothing evicted, nothing re-simulated.
    for p in 0..(CAP as u32 / 2) {
        session.try_single_pair(2 * p, 2 * p + 1).unwrap();
    }
    let stats = session.cache_stats();
    assert_eq!((stats.hits, stats.misses), (CAP as u64, CAP as u64));
    assert_eq!(session.cached_cohorts(), CAP);

    // Two fresh nodes evict exactly the two least recently used (0 and 1).
    session.try_single_pair(2000, 2001).unwrap();
    assert_eq!(session.cache_stats().misses, CAP as u64 + 2);
    assert_eq!(session.cached_cohorts(), CAP);
    // 2 and 3 are still resident...
    let hits_before = session.cache_stats().hits;
    session.try_single_pair(2, 3).unwrap();
    let stats = session.cache_stats();
    assert_eq!(stats.hits, hits_before + 2);
    assert_eq!(stats.misses, CAP as u64 + 2);
    // ...while 0 and 1 were evicted and must re-simulate.
    session.try_single_pair(0, 1).unwrap();
    assert_eq!(session.cache_stats().misses, CAP as u64 + 4);
}

/// The typed front door under concurrency: N clients hammer one shared
/// `&dyn QueryService`, answers must equal the direct session calls, and
/// malformed requests come back as typed errors from every thread.
#[test]
fn shared_query_service_is_safe_and_consistent() {
    use pasco::simrank::api::{QueryError, QueryRequest, QueryResponse, QueryService};
    let cw = build(150, 9);
    let session = QuerySession::new(Arc::clone(&cw), 32);
    let svc: &dyn QueryService = &session;
    std::thread::scope(|scope| {
        for t in 0..4u32 {
            let cw = &cw;
            scope.spawn(move || {
                for q in 0..40u32 {
                    let i = (t * 17 + q) % 150;
                    let mut j = (q * 7 + 3) % 150;
                    if i == j {
                        // Distinct nodes keep the lookup count exact below.
                        j = (j + 1) % 150;
                    }
                    match svc.execute(QueryRequest::SinglePair { i, j }).unwrap() {
                        QueryResponse::Score(s) => assert_eq!(s, cw.try_single_pair(i, j).unwrap()),
                        other => panic!("wrong variant {other:?}"),
                    }
                    let bad = svc.execute(QueryRequest::Cohort { v: 150 + q }).unwrap_err();
                    assert_eq!(bad, QueryError::NodeOutOfRange { node: 150 + q, node_count: 150 });
                }
            });
        }
    });
    assert_eq!(session.cache_stats().lookups(), 4 * 40 * 2);
}
