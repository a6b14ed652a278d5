//! Golden answers: "bit-identical to the parent commit" as a test.
//!
//! Every other equality suite compares two engines running the *same*
//! kernel, so a kernel change that shifted all answers consistently would
//! pass them all. These constants were printed by this very test and have
//! to survive any change that claims to alter no answer: FNV-1a over the
//! little-endian bits of the diagonal, three cohorts, five MCSP scores, one
//! dense MCSS vector and two top-20 lists, on the two graphs CI's byte-diff
//! jobs use (`--r 64 --t 5 --r-query 1000`), plus the same MCSS and top-20
//! lists on the forward walks arm (a small `r_forward`).
//!
//! The diagonal, cohort and MCSP columns date from the commit *before* the
//! walk kernels became step-synchronous frontiers. The walks column was
//! recorded at the parent of the exact forward sweeps and holds the walks
//! arm to it; the dense MCSS and top-20 columns were re-recorded when the
//! sweeps took over the forward stage on graphs this small.
//!
//! A PR that changes an answer on purpose re-records the columns it moves
//! (the failure message prints the new table) and says so.

use pasco::graph::{generators, CsrGraph, NodeId};
use pasco::simrank::{CloudWalker, ExecMode, SimRankConfig};
use std::sync::Arc;

/// FNV-1a, fed little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn float(&mut self, v: f64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// The digests of one graph's answers, in the order of [`GOLDEN`]'s columns.
fn digests(graph: CsrGraph) -> [u64; 6] {
    let graph = Arc::new(graph);
    let mut cfg = SimRankConfig::default_paper();
    (cfg.r, cfg.t, cfg.r_query) = (64, 5, 1000);
    // Sources with in-links, spread over the id range: a walker on an
    // in-degree-0 node dies at step one and would digest almost nothing.
    let live: Vec<NodeId> = graph.nodes().filter(|&v| graph.in_degree(v) > 0).collect();
    let src = |k: usize| live[k * (live.len() - 1) / 7];
    let cw = CloudWalker::build(Arc::clone(&graph), cfg, ExecMode::Local).unwrap();

    let mut diag = Fnv::new();
    cw.diagonal().as_slice().iter().for_each(|&x| diag.float(x));

    let mut cohorts = Fnv::new();
    for k in [0, 3, 7] {
        let d = cw.try_query_cohort(src(k)).unwrap();
        cohorts.u32(d.source);
        cohorts.u32(d.walkers);
        for step in &d.counts {
            cohorts.u64(step.len() as u64);
            for &(node, count) in step {
                cohorts.u32(node);
                cohorts.u64(count);
            }
        }
    }

    let mut mcsp = Fnv::new();
    for (a, b) in [(0, 1), (2, 5), (3, 4), (6, 7), (7, 0)] {
        mcsp.float(cw.try_single_pair(src(a), src(b)).unwrap());
    }

    let mut mcss = Fnv::new();
    cw.try_single_source(src(2)).unwrap().iter().for_each(|&s| mcss.float(s));

    let mut topk = Fnv::new();
    for k in [1, 6] {
        let ranked = cw.try_single_source_topk(src(k), 20).unwrap();
        topk.u64(ranked.len() as u64);
        for (node, score) in ranked {
            topk.u32(node);
            topk.float(score);
        }
    }

    // The forward walks at an `r_forward` so small that walking is cheaper
    // than sweeping on both graphs: this column is the walks arm itself.
    let walks_cfg = SimRankConfig { r_forward: WALKS_R_FORWARD, ..cfg };
    let walks = CloudWalker::build(Arc::clone(&graph), walks_cfg, ExecMode::Local).unwrap();
    let mut walked = Fnv::new();
    walks.try_single_source(src(2)).unwrap().iter().for_each(|&s| walked.float(s));
    for k in [1, 6] {
        for (node, score) in walks.try_single_source_topk(src(k), 20).unwrap() {
            walked.u32(node);
            walked.float(score);
        }
    }
    [diag.0, cohorts.0, mcsp.0, mcss.0, topk.0, walked.0]
}

/// Forward walkers per term for the walks column: at `T = 5` the rule
/// walks on both graphs below ≈ 37 (rmat10's `n + m` is 7 552).
const WALKS_R_FORWARD: u32 = 20;

/// `(graph, [diagonal, cohorts, MCSP, dense MCSS, top-20, walks-arm MCSS
/// and top-20])`; the first three recorded at the parent of the
/// step-synchronous kernels (commit `af263f8`).
const GOLDEN: [(&str, [u64; 6]); 2] = [
    (
        "ba2000",
        [
            0x7cdabadf38d88cb7,
            0xa5b945debb3b99e3,
            0x3ac7cb707e1c8ca6,
            0xbdd360c2f9a0d2a2,
            0x9546350772d9d95c,
            0x8a696549201f612a,
        ],
    ),
    (
        "rmat10",
        [
            0x52c4ee1aba2092be,
            0x32a292562a54bf54,
            0x8884146e9b238184,
            0x30d3a3fa6969d4cb,
            0xbeba15428b8893c9,
            0x357cdfe8257a4d31,
        ],
    ),
];

#[test]
fn answers_are_bit_identical_to_the_recorded_parent() {
    let got = [
        ("ba2000", digests(generators::barabasi_albert(2000, 6, 42))),
        ("rmat10", digests(generators::rmat(10, 8000, generators::RmatParams::default(), 7))),
    ];
    let table: Vec<String> = got
        .iter()
        .map(|(name, d)| {
            let cols: Vec<String> = d.iter().map(|h| format!("{h:#018x}")).collect();
            format!("    (\"{name}\", [{}]),", cols.join(", "))
        })
        .collect();
    assert_eq!(got, GOLDEN, "answers moved; the table now reads\n{}", table.join("\n"));
}
