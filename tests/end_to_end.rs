//! End-to-end integration: CloudWalker against exact SimRank, across
//! crates — and the typed `QueryService` front door against the direct
//! engine methods.

use pasco::graph::generators;
use pasco::simrank::api::{QueryRequest, QueryResponse, QueryService};
use pasco::simrank::exact::ExactSimRank;
use pasco::simrank::{metrics, CloudWalker, ExecMode, QuerySession, SimRankConfig};
use std::sync::Arc;

/// The headline correctness property: with paper parameters, CloudWalker's
/// estimates track exact SimRank on a scale-free graph.
#[test]
fn cloudwalker_tracks_exact_simrank() {
    let g = Arc::new(generators::barabasi_albert(150, 4, 31));
    let cfg = SimRankConfig::default_paper().with_r(400).with_r_query(6_000).with_seed(3);
    let cw = CloudWalker::build(Arc::clone(&g), cfg, ExecMode::Local).unwrap();
    let exact = ExactSimRank::compute(&g, cfg.c, 25);

    // Pairs.
    let mut worst = 0.0f64;
    for i in (0..150).step_by(17) {
        for j in (1..150).step_by(29) {
            let est = cw.try_single_pair(i, j).unwrap();
            worst = worst.max((est - exact.get(i, j)).abs());
        }
    }
    assert!(worst < 0.06, "worst single-pair error {worst}");

    // Single-source rows: value error and ranking quality.
    for s in [0u32, 75, 149] {
        let est = cw.try_single_source(s).unwrap();
        let truth = exact.row(s);
        let mean = metrics::mean_abs_diff(&est, truth);
        assert!(mean < 0.03, "source {s}: mean error {mean}");
        let ranking: Vec<u32> =
            metrics::top_k(&est, 10, Some(s)).into_iter().map(|(i, _)| i).collect();
        let ndcg = metrics::ndcg_at_k(truth, &ranking, 10, Some(s));
        assert!(ndcg > 0.85, "source {s}: NDCG@10 = {ndcg}");
    }
}

/// The typed front door is a faithful façade: every query kind executed
/// through `QueryService` — on both the bare engine and a caching
/// session — answers bitwise-identically to the direct method calls.
#[test]
fn query_service_facade_matches_direct_methods_end_to_end() {
    let g = Arc::new(generators::barabasi_albert(120, 3, 17));
    let cw = Arc::new(
        CloudWalker::build(Arc::clone(&g), SimRankConfig::fast(), ExecMode::Local).unwrap(),
    );
    let session = QuerySession::new(Arc::clone(&cw), 32);
    let requests = vec![
        QueryRequest::SinglePair { i: 5, j: 80 },
        QueryRequest::SingleSource { i: 5 },
        QueryRequest::SingleSourcePush { i: 5 },
        QueryRequest::SingleSourceTopK { i: 5, k: 7 },
        QueryRequest::PairsMatrix { rows: vec![1, 5], cols: vec![5, 9] },
        QueryRequest::Cohort { v: 5 },
    ];
    for svc in [cw.as_ref() as &dyn QueryService, &session] {
        for req in &requests {
            match svc.execute(req.clone()).unwrap() {
                QueryResponse::Score(s) => assert_eq!(s, cw.try_single_pair(5, 80).unwrap()),
                QueryResponse::Scores(row) => {
                    let direct = match req {
                        QueryRequest::SingleSource { .. } => cw.try_single_source(5).unwrap(),
                        _ => cw.try_single_source_push(5).unwrap(),
                    };
                    assert_eq!(row, direct, "{req:?}");
                }
                QueryResponse::Ranked(list) => {
                    assert_eq!(list, cw.try_single_source_topk(5, 7).unwrap())
                }
                QueryResponse::Matrix(m) => {
                    for (r, &i) in [1u32, 5].iter().enumerate() {
                        for (c, &j) in [5u32, 9].iter().enumerate() {
                            assert_eq!(m[r][c], cw.try_single_pair(i, j).unwrap(), "({i},{j})");
                        }
                    }
                }
                QueryResponse::Cohort(d) => assert_eq!(d, cw.try_query_cohort(5).unwrap()),
                QueryResponse::Batch(_) => unreachable!("no batch request sent"),
            }
        }
    }
}

/// SimRank fundamentals survive the full pipeline: unit diagonal, [0, 1]
/// range, near-symmetry of the estimator.
#[test]
fn estimates_respect_simrank_axioms() {
    let g = Arc::new(generators::rmat(9, 3_000, generators::RmatParams::default(), 8));
    let cfg = SimRankConfig::fast();
    let cw = CloudWalker::build(Arc::clone(&g), cfg, ExecMode::Local).unwrap();
    for v in (0..g.node_count()).step_by(97) {
        assert_eq!(cw.try_single_pair(v, v).unwrap(), 1.0);
    }
    let scores = cw.try_single_source(100).unwrap();
    assert!(scores.iter().all(|&s| (0.0..=1.0 + 1e-9).contains(&s)));
    assert_eq!(scores[100], 1.0);
    // The estimator reuses per-node cohorts: exact argument symmetry.
    assert_eq!(cw.try_single_pair(5, 200).unwrap(), cw.try_single_pair(200, 5).unwrap());
}

/// Dangling nodes (no in-links) are only similar to themselves.
#[test]
fn dangling_nodes_have_zero_similarity() {
    let g = Arc::new(generators::star(40)); // leaves 1..40 are dangling
    let cfg = SimRankConfig::fast();
    let cw = CloudWalker::build(Arc::clone(&g), cfg, ExecMode::Local).unwrap();
    // Leaves have no in-neighbours: s(leaf, anything else) = 0.
    assert_eq!(cw.try_single_pair(1, 2).unwrap(), 0.0);
    assert_eq!(cw.try_single_pair(1, 0).unwrap(), 0.0);
    let row = cw.try_single_source(1).unwrap();
    assert_eq!(row[1], 1.0);
    assert!(row.iter().enumerate().all(|(i, &s)| i == 1 || s == 0.0));
}

/// The two-community structure that the examples rely on: within-community
/// similarity dominates cross-community similarity.
#[test]
fn community_structure_is_respected() {
    let g = Arc::new(generators::two_communities(200, 1_200, 16, 5));
    let cfg = SimRankConfig::fast();
    let cw = CloudWalker::build(Arc::clone(&g), cfg, ExecMode::Local).unwrap();
    let row = cw.try_single_source(10).unwrap();
    let within: f64 = (0..100).filter(|&i| i != 10).map(|i| row[i]).sum::<f64>() / 99.0;
    let cross: f64 = (100..200).map(|i| row[i]).sum::<f64>() / 100.0;
    assert!(within > 2.0 * cross, "within {within} should dominate cross {cross}");
}

/// MCAP output is consistent with individual MCSS calls. MCAP runs the
/// sparse top-k estimator per source, so its lists carry only nodes the
/// walks actually reached — the dense row's nonzero top-k, with scores
/// equal up to float accumulation order.
#[test]
fn all_pairs_is_consistent_with_single_source() {
    let g = Arc::new(generators::barabasi_albert(60, 3, 12));
    let cfg = SimRankConfig::fast();
    let cw = CloudWalker::build(Arc::clone(&g), cfg, ExecMode::Local).unwrap();
    let all = cw.all_pairs_topk(5).unwrap();
    for &s in &[0u32, 30, 59] {
        let row = cw.try_single_source(s).unwrap();
        let expect: Vec<(u32, f64)> = metrics::top_k(&row, 5, Some(s))
            .into_iter()
            .filter(|&(_, score)| score > 0.0)
            .collect();
        let got = &all[s as usize];
        assert_eq!(
            got.iter().map(|&(v, _)| v).collect::<Vec<_>>(),
            expect.iter().map(|&(v, _)| v).collect::<Vec<_>>(),
            "source {s}"
        );
        for ((gn, gs), (en, es)) in got.iter().zip(&expect) {
            assert_eq!(gn, en, "source {s}");
            assert!((gs - es).abs() < 1e-12, "source {s}: {gs} vs {es}");
        }
        assert_eq!(
            got,
            &cw.try_single_source_topk(s, 5).unwrap(),
            "MCAP row ≡ sparse top-k, source {s}"
        );
    }
}
