//! Golden answers: "bit-identical to the parent commit" as a test.
//!
//! Every other equality suite compares two engines running the *same*
//! kernel, so a kernel change that shifted all answers consistently would
//! pass them all. These constants were printed by this very test at the
//! commit *before* the walk kernels became step-synchronous frontiers and
//! have to survive any change that claims to alter no answer: FNV-1a over
//! the little-endian bits of the diagonal, three cohorts, five MCSP
//! scores, one dense MCSS vector and two top-20 lists, on the two graphs
//! CI's byte-diff jobs use (`--r 64 --t 5 --r-query 1000`).
//!
//! A PR that changes an answer on purpose re-records them (the failure
//! message prints the new table) and says so.

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
fn digests(graph: CsrGraph) -> [u64; 5] {
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
    [diag.0, cohorts.0, mcsp.0, mcss.0, topk.0]
}

/// `(graph, [diagonal, cohorts, MCSP, dense MCSS, top-20])`, recorded at
/// the parent of the step-synchronous kernels (commit `af263f8`).
const GOLDEN: [(&str, [u64; 5]); 2] = [
    (
        "ba2000",
        [
            0x7cdabadf38d88cb7,
            0xa5b945debb3b99e3,
            0x3ac7cb707e1c8ca6,
            0x9d2399efbc05424c,
            0xc6f2e6cf452b008c,
        ],
    ),
    (
        "rmat10",
        [
            0x52c4ee1aba2092be,
            0x32a292562a54bf54,
            0x8884146e9b238184,
            0x271b671dbde202b3,
            0x59fdb6b49a09bd13,
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
