//! Integration: the offline/online deployment split — build on one
//! "cluster", persist, serve queries from a fresh process image.

use pasco::graph::{generators, io};
use pasco::simrank::{persist, CloudWalker, ExecMode, SimRankConfig, SimRankError};
use std::sync::Arc;

/// `name` in a directory of this test's own (named from the process id and
/// the test), so concurrent test runs never share a scratch file.
fn tmp(name: &str) -> std::path::PathBuf {
    let test = std::thread::current().name().unwrap_or("main").replace("::", "_");
    let dir = std::env::temp_dir().join(format!("pasco_persistence_{}_{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn full_offline_online_roundtrip() {
    // Offline: generate graph, index, persist both artifacts.
    let g = Arc::new(generators::barabasi_albert(250, 4, 77));
    let cfg = SimRankConfig::fast().with_seed(8);
    let cw = CloudWalker::build(Arc::clone(&g), cfg, ExecMode::Local).unwrap();
    let graph_path = tmp("roundtrip.graph");
    let index_path = tmp("roundtrip.idx");
    io::write_binary(&g, &graph_path).unwrap();
    persist::save_index(cw.diagonal(), &index_path).unwrap();

    // Online: load everything back and verify identical answers.
    let g2 = Arc::new(io::read_binary(&graph_path).unwrap());
    assert_eq!(*g, *g2);
    let idx = persist::load_index(&index_path).unwrap();
    let server = CloudWalker::from_index(g2, cfg, idx).unwrap();
    for &(i, j) in &[(1u32, 2u32), (100, 200), (3, 249)] {
        assert_eq!(cw.try_single_pair(i, j).unwrap(), server.try_single_pair(i, j).unwrap());
    }
    assert_eq!(cw.try_single_source(42).unwrap(), server.try_single_source(42).unwrap());
}

#[test]
fn roundtripped_index_serves_identically_for_every_build_mode() {
    // The deployment contract behind persist: whichever substrate built the
    // index, a query server that loads it from disk must answer
    // single-pair and single-source queries bitwise-identically to the
    // freshly built engine.
    use pasco::cluster::ClusterConfig;
    let g = Arc::new(generators::barabasi_albert(180, 3, 55));
    let cfg = SimRankConfig::fast().with_seed(19);
    let modes = [
        ("local", ExecMode::Local),
        ("broadcast", ExecMode::Broadcast(ClusterConfig::local(3))),
        ("rdd", ExecMode::Rdd(ClusterConfig::local(4))),
    ];
    for (name, mode) in modes {
        let built = CloudWalker::build(Arc::clone(&g), cfg, mode).unwrap();
        let path = tmp(&format!("parity-{name}.idx"));
        persist::save_index(built.diagonal(), &path).unwrap();
        let loaded = persist::load_index(&path).unwrap();
        assert_eq!(&loaded, built.diagonal(), "{name}: index must roundtrip bitwise");
        let server = CloudWalker::from_index(Arc::clone(&g), cfg, loaded).unwrap();
        for &(i, j) in &[(0u32, 1u32), (17, 130), (90, 91), (179, 3)] {
            assert_eq!(
                built.try_single_pair(i, j).unwrap(),
                server.try_single_pair(i, j).unwrap(),
                "{name}: single_pair({i},{j})"
            );
        }
        for &s in &[5u32, 120] {
            let a = built.try_single_source(s).unwrap();
            let b = server.try_single_source(s).unwrap();
            for (v, (x, y)) in a.iter().zip(&b).enumerate() {
                assert!((x - y).abs() < 1e-12, "{name}: single_source({s}) node {v}: {x} vs {y}");
            }
        }
    }
}

#[test]
fn index_graph_mismatch_is_rejected() {
    let g = Arc::new(generators::cycle(10));
    let other = Arc::new(generators::cycle(12));
    let cfg = SimRankConfig::fast();
    let cw = CloudWalker::build(Arc::clone(&g), cfg, ExecMode::Local).unwrap();
    let path = tmp("mismatch.idx");
    persist::save_index(cw.diagonal(), &path).unwrap();
    let idx = persist::load_index(&path).unwrap();
    match CloudWalker::from_index(other, cfg, idx) {
        Err(SimRankError::BadIndex(msg)) => assert!(msg.contains("10")),
        other => panic!("expected BadIndex, got ok={}", other.is_ok()),
    }
}

#[test]
fn edge_list_graphs_work_end_to_end() {
    // Users will bring SNAP-style edge lists; exercise that path fully.
    let g = generators::two_communities(80, 400, 8, 2);
    let path = tmp("snap.txt");
    io::write_edge_list(&g, &path).unwrap();
    let loaded = Arc::new(io::read_edge_list(&path).unwrap());
    assert_eq!(g, *loaded);
    let cw = CloudWalker::build(loaded, SimRankConfig::fast(), ExecMode::Local).unwrap();
    assert!(cw.try_single_pair(0, 1).unwrap() >= 0.0);
}
