//! E4 / E5 — the paper's per-dataset timing tables: preprocessing (`D`) and
//! online query (MCSP, MCSS) times, in the Broadcasting model (E4) or the
//! RDD model (E5).
//!
//! Usage: `table_prep_query [--mode broadcast|rdd|local]` (default
//! broadcast).
//!
//! Paper values (Broadcasting): wiki-vote 7s/0.004s/0.042s · wiki-talk
//! 59s/0.046s/0.179s · twitter-2010 975s/0.049s/0.281s · uk-union
//! 3323s/0.025s/0.292s · clue-web N/A (401 GB > 377 GB RAM).
//! Paper values (RDD): wiki-vote 50s/2.7s/2.9s · wiki-talk 620s/8.5s/13.9s
//! · twitter 8424s/11.8s/22.3s · uk-union 6.4h/13.1s/27.2s · clue-web
//! 110.2h/64.0s/188.1s.

use pasco_bench::{datasets, fmt_duration, table::Table, time, Scale};
use pasco_cluster::ClusterConfig;
use pasco_simrank::{CloudWalker, ExecMode, SimRankConfig, SimRankError};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mode_name = args
        .iter()
        .position(|a| a == "--mode")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
        .unwrap_or("broadcast")
        .to_string();
    let scale = Scale::from_env();
    let cfg = SimRankConfig::default_paper().with_r_query(scale.r_query());
    println!("E4/E5: D + MCSP + MCSS per dataset — mode={mode_name}, PASCO_SCALE={scale:?}");
    println!("params: c={}, T={}, L={}, R={}, R'={}\n", cfg.c, cfg.t, cfg.l, cfg.r, cfg.r_query);

    let mut t =
        Table::new(&["Dataset", "D", "MCSP", "MCSS", "paper D", "paper MCSP", "paper MCSS"]);
    let paper: &[(&str, &str, &str)] = match mode_name.as_str() {
        "rdd" => &[
            ("50s", "2.7s", "2.9s"),
            ("620s", "8.5s", "13.9s"),
            ("8424s", "11.8s", "22.3s"),
            ("6.4h", "13.1s", "27.2s"),
            ("110.2h", "64.0s", "188.1s"),
        ],
        _ => &[
            ("7s", "0.004s", "0.042s"),
            ("59s", "0.046s", "0.179s"),
            ("975s", "0.049s", "0.281s"),
            ("3323s", "0.025s", "0.292s"),
            ("N/A", "N/A", "N/A"),
        ],
    };

    for (idx, ds) in datasets::load_first(scale.dataset_count()).into_iter().enumerate() {
        let g = ds.graph;
        let n = g.node_count();
        let mode = match mode_name.as_str() {
            "local" => ExecMode::Local,
            "rdd" => ExecMode::Rdd(ClusterConfig::paper_like()),
            _ => ExecMode::Broadcast(ClusterConfig::paper_like()),
        };
        let pv = paper.get(idx).copied().unwrap_or(("-", "-", "-"));
        eprintln!("[{}] building D ({} nodes)...", ds.spec.name, n);
        // Query nodes must be representative: many stand-in nodes are
        // dangling (in-degree 0) and their cohorts die instantly, so pick
        // the heaviest hub and a median-degree connected node.
        let qi = (0..n).max_by_key(|&v| g.in_degree(v)).unwrap_or(0);
        let qj = {
            let mut connected: Vec<u32> = (0..n).filter(|&v| g.in_degree(v) > 0).collect();
            connected.sort_by_key(|&v| g.in_degree(v));
            connected.get(connected.len() / 2).copied().unwrap_or(0)
        };
        match CloudWalker::build_with_stats(g, cfg, mode) {
            Ok((cw, stats)) => {
                let (_, sp) = time(|| {
                    for _ in 0..3 {
                        std::hint::black_box(cw.try_single_pair(qi, qj).unwrap());
                    }
                });
                let (_, ss) = time(|| {
                    for _ in 0..3 {
                        std::hint::black_box(cw.try_single_source(qi).unwrap());
                    }
                });
                t.row(vec![
                    ds.spec.paper_name.to_string(),
                    fmt_duration(stats.wall),
                    fmt_duration(sp / 3),
                    fmt_duration(ss / 3),
                    pv.0.into(),
                    pv.1.into(),
                    pv.2.into(),
                ]);
            }
            Err(SimRankError::Cluster(e)) => {
                eprintln!("[{}] {}", ds.spec.name, e);
                t.row(vec![
                    ds.spec.paper_name.to_string(),
                    "N/A".into(),
                    "N/A".into(),
                    "N/A".into(),
                    pv.0.into(),
                    pv.1.into(),
                    pv.2.into(),
                ]);
            }
            Err(e) => panic!("unexpected failure on {}: {e}", ds.spec.name),
        }
    }
    t.print();
    match mode_name.as_str() {
        "rdd" => println!(
            "\nShape check (paper): every dataset completes, but all columns are roughly an\n\
             order of magnitude slower than the Broadcasting table."
        ),
        _ => println!(
            "\nShape check (paper): query times stay near-constant as graphs grow, and the\n\
             largest dataset is N/A because the graph exceeds per-worker memory."
        ),
    }
}
