//! Cross-system integration: the three similarity engines (CloudWalker,
//! FMT, LIN) independently approximate the same ground truth, and their
//! failure modes match the paper's comparison table.

use pasco::baselines::{BaselineError, Fmt, FmtConfig, Lin, LinConfig};
use pasco::graph::generators;
use pasco::simrank::exact::ExactSimRank;
use pasco::simrank::{CloudWalker, ExecMode, SimRankConfig};
use std::sync::Arc;

#[test]
fn three_systems_approximate_the_same_truth() {
    let g = Arc::new(generators::barabasi_albert(90, 3, 17));
    let exact = ExactSimRank::compute(&g, 0.6, 25);

    let cw = CloudWalker::build(
        Arc::clone(&g),
        SimRankConfig::default_paper().with_r(300).with_r_query(6_000),
        ExecMode::Local,
    )
    .unwrap();
    let fmt =
        Fmt::build(Arc::clone(&g), FmtConfig { r: 3_000, ..FmtConfig::default_paper() }).unwrap();
    let lin = Lin::build(Arc::clone(&g), LinConfig::default_paper()).unwrap();

    for &(i, j) in &[(0u32, 1u32), (10, 50), (44, 45), (70, 3)] {
        let truth = exact.get(i, j);
        let e_cw = (cw.try_single_pair(i, j).unwrap() - truth).abs();
        let e_fmt = (fmt.single_pair(i, j) - truth).abs();
        let e_lin = (lin.single_pair(i, j) - truth).abs();
        assert!(e_cw < 0.06, "CloudWalker ({i},{j}): {e_cw}");
        assert!(e_fmt < 0.08, "FMT ({i},{j}): {e_fmt}");
        assert!(e_lin < 0.02, "LIN ({i},{j}): {e_lin}");
    }
}

#[test]
fn lin_is_the_most_accurate_but_cloudwalker_is_close() {
    // LIN computes the truncated series exactly — its only errors are
    // truncation and pruning. CloudWalker should be within sampling noise.
    let g = Arc::new(generators::rmat(8, 1_200, generators::RmatParams::default(), 9));
    let exact = ExactSimRank::compute(&g, 0.6, 25);
    let lin = Lin::build(Arc::clone(&g), LinConfig::default_paper()).unwrap();
    let cw = CloudWalker::build(
        Arc::clone(&g),
        SimRankConfig::default_paper().with_r(200).with_r_query(4_000),
        ExecMode::Local,
    )
    .unwrap();
    let (mut lin_err, mut cw_err) = (0.0f64, 0.0f64);
    let mut pairs = 0;
    for i in (0..g.node_count()).step_by(41) {
        for j in (1..g.node_count()).step_by(73) {
            let truth = exact.get(i, j);
            lin_err += (lin.single_pair(i, j) - truth).abs();
            cw_err += (cw.try_single_pair(i, j).unwrap() - truth).abs();
            pairs += 1;
        }
    }
    let (lin_err, cw_err) = (lin_err / pairs as f64, cw_err / pairs as f64);
    assert!(lin_err <= cw_err + 1e-6, "LIN {lin_err} vs CloudWalker {cw_err}");
    assert!(cw_err < 0.02, "CloudWalker mean error {cw_err}");
}

#[test]
fn failure_modes_match_the_papers_table() {
    // FMT dies on memory; LIN dies on work; CloudWalker keeps going — the
    // N/A structure of the comparison table.
    let g = Arc::new(generators::rmat(13, 60_000, generators::RmatParams::default(), 5));

    let fmt = Fmt::build(
        Arc::clone(&g),
        FmtConfig { memory_budget: 4 << 20, ..FmtConfig::default_paper() },
    );
    assert!(matches!(fmt, Err(BaselineError::MemoryBudget { .. })));

    let lin = Lin::build(
        Arc::clone(&g),
        LinConfig { work_budget: 100_000, ..LinConfig::default_paper() },
    );
    assert!(matches!(lin, Err(BaselineError::WorkBudget { .. })));

    let cw = CloudWalker::build(Arc::clone(&g), SimRankConfig::fast(), ExecMode::Local);
    assert!(cw.is_ok());
}

#[test]
fn fmt_single_source_agrees_with_its_single_pair() {
    let g = Arc::new(generators::barabasi_albert(60, 3, 3));
    let fmt = Fmt::build(g, FmtConfig { r: 500, ..FmtConfig::default_paper() }).unwrap();
    let row = fmt.single_source(7);
    for j in [0u32, 20, 59] {
        if j != 7 {
            assert_eq!(row[j as usize], fmt.single_pair(7, j));
        }
    }
}
