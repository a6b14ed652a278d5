//! The paper scorecard: runs E1, E3, E4/E5, E6, E7, E8, A1 and A3 on the
//! `PASCO_SCALE` stand-ins, prints the rows as a markdown table and writes
//! them to `BENCH_paper.json` at the workspace root (or to `OUT`).
//!
//! ```text
//! PASCO_SCALE=quick cargo run --release -p pasco_bench --bin paper -- [OUT]
//! ```

use pasco_baselines::{FmtConfig, LinConfig};
use pasco_bench::paper::{self, Dataset, Setup};
use pasco_bench::Scale;
use pasco_graph::datasets::SPECS;
use pasco_simrank::SimRankConfig;
use std::sync::Arc;

fn main() {
    let scale = std::env::var("PASCO_SCALE").ok();
    let scale = Scale::parse(scale.as_deref()).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    });
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_paper.json").into());
    let setup = Setup {
        datasets: SPECS[..scale.dataset_count()]
            .iter()
            .map(|spec| Dataset { name: spec.paper_name, graph: Arc::new(spec.generate()) })
            .collect(),
        cfg: SimRankConfig::default_paper().with_r_query(scale.r_query()),
        fmt: FmtConfig::default_paper(),
        lin: LinConfig::default_paper(),
    };
    let rows = paper::run(&setup);
    print!("{}", paper::markdown(&rows));
    let name = if scale == Scale::Quick { "quick" } else { "paper" };
    std::fs::write(&out, paper::json(name, &setup.cfg, &rows))
        .unwrap_or_else(|e| panic!("writing {out}: {e}"));
    eprintln!("wrote {out}");
}
