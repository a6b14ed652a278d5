//! E6 — the paper's state-of-the-art comparison: FMT \[2\] vs LIN \[3\] vs
//! CloudWalker (preprocessing, single-pair, single-source).
//!
//! Paper values:
//! ```text
//! dataset      FMT prep/SP/SS         LIN prep/SP/SS          CloudWalker prep/SP/SS
//! wiki-vote    43.4s/30.4ms/42.5s     187ms/0.61ms/5.3ms      7s/4ms/42ms
//! wiki-talk    N/A                    N/A                     59s/46ms/180ms
//! twitter      -                      14376s/3.17s/11.9s      975s/49ms/281ms
//! uk-union     -                      8291s/9.42s/21.7s       3323s/25ms/291ms
//! clue-web     -                      -                       110.2h/64.0s/188s
//! ```
//! FMT dies on memory (fingerprint store), LIN's prep explodes with graph
//! size; CloudWalker's queries stay near-constant. Our budgets reproduce
//! the N/A structure honestly (see `pasco-baselines`).

use pasco_baselines::{Fmt, FmtConfig, Lin, LinConfig};
use pasco_bench::{datasets, fmt_duration, table::Table, time, Scale};
use pasco_simrank::{CloudWalker, ExecMode, SimRankConfig};
use std::sync::Arc;
use std::time::Duration;

struct MethodCells {
    prep: String,
    sp: String,
    ss: String,
}

fn na() -> MethodCells {
    MethodCells { prep: "N/A".into(), sp: "N/A".into(), ss: "N/A".into() }
}

fn main() {
    let scale = Scale::from_env();
    let cfg = SimRankConfig::default_paper().with_r_query(scale.r_query());
    println!("E6: FMT vs LIN vs CloudWalker (PASCO_SCALE={scale:?})\n");

    let mut t = Table::new(&[
        "Dataset", "FMT prep", "FMT SP", "FMT SS", "LIN prep", "LIN SP", "LIN SS", "CW prep",
        "CW SP", "CW SS",
    ]);
    for ds in datasets::load_first(scale.dataset_count()) {
        let g = Arc::clone(&ds.graph);
        let n = g.node_count();
        // Representative query nodes: the heaviest hub and a median-degree
        // connected node (arbitrary ids often land on dangling nodes).
        let qi = (0..n).max_by_key(|&v| g.in_degree(v)).unwrap_or(0);
        let qj = {
            let mut connected: Vec<u32> = (0..n).filter(|&v| g.in_degree(v) > 0).collect();
            connected.sort_by_key(|&v| g.in_degree(v));
            connected.get(connected.len() / 2).copied().unwrap_or(0)
        };
        eprintln!("[{}] running three methods...", ds.spec.name);

        let fmt_cells = match time(|| Fmt::build(Arc::clone(&g), FmtConfig::default_paper())) {
            (Ok(fmt), prep) => {
                let (_, sp) = time(|| std::hint::black_box(fmt.single_pair(qi, qj)));
                let (_, ss) = time(|| std::hint::black_box(fmt.single_source(qi)));
                MethodCells { prep: fmt_duration(prep), sp: fmt_duration(sp), ss: fmt_duration(ss) }
            }
            (Err(e), _) => {
                eprintln!("[{}] FMT: {e}", ds.spec.name);
                na()
            }
        };

        let lin_cells = match time(|| Lin::build(Arc::clone(&g), LinConfig::default_paper())) {
            (Ok(lin), prep) => {
                let (_, sp) = time(|| std::hint::black_box(lin.single_pair(qi, qj)));
                let (_, ss) = time(|| std::hint::black_box(lin.single_source(qi)));
                MethodCells { prep: fmt_duration(prep), sp: fmt_duration(sp), ss: fmt_duration(ss) }
            }
            (Err(e), spent) => {
                eprintln!("[{}] LIN: {e} (abandoned after {})", ds.spec.name, fmt_duration(spent));
                na()
            }
        };

        // CloudWalker runs locally here — the comparison isolates the
        // algorithms; the cluster models are compared in E4/E5/E8.
        let cw_cells = {
            let (built, prep) = time(|| CloudWalker::build(Arc::clone(&g), cfg, ExecMode::Local));
            match built {
                Ok(cw) => {
                    let (_, sp) =
                        time(|| std::hint::black_box(cw.try_single_pair(qi, qj).unwrap()));
                    let (_, ss) = time(|| std::hint::black_box(cw.try_single_source(qi).unwrap()));
                    MethodCells {
                        prep: fmt_duration(prep),
                        sp: fmt_duration(sp),
                        ss: fmt_duration(ss),
                    }
                }
                Err(e) => panic!("CloudWalker failed on {}: {e}", ds.spec.name),
            }
        };

        t.row(vec![
            ds.spec.paper_name.to_string(),
            fmt_cells.prep,
            fmt_cells.sp,
            fmt_cells.ss,
            lin_cells.prep,
            lin_cells.sp,
            lin_cells.ss,
            cw_cells.prep,
            cw_cells.sp,
            cw_cells.ss,
        ]);
    }
    t.print();
    println!(
        "\nShape check (paper): FMT only answers the smallest dataset; LIN has the\n\
         cheapest prep on tiny graphs but its prep explodes with size while its query\n\
         latency grows; CloudWalker's query latency stays near-constant throughout."
    );
    let _ = Duration::ZERO;
}
