//! Registry of scaled stand-ins for the paper's evaluation datasets.
//!
//! The paper (Table "datasets") evaluates on five real graphs up to clue-web
//! (|V| = 1 B, |E| = 42.6 B, 401.1 GB). Real crawls of that size are neither
//! available nor tractable here, so each dataset is replaced by a seeded
//! synthetic graph whose *relative* size and skew are preserved (README's
//! "Paper vs this repo" sets them beside the paper's): sizes shrink
//! together, degree skew comes from R-MAT, and the broadcast-memory wall
//! (clue-web > per-machine RAM) re-emerges because the largest stand-in
//! exceeds the scaled per-worker budget in
//! `pasco_cluster::ClusterConfig::paper_like`.

use crate::csr::CsrGraph;
use crate::generators::{self, RmatParams};

/// Static description of one dataset stand-in.
#[derive(Clone, Copy, Debug)]
pub struct DatasetSpec {
    /// Registry key, e.g. `"wiki-vote-sim"`.
    pub name: &'static str,
    /// Name of the real graph it substitutes.
    pub paper_name: &'static str,
    /// |V| of the real graph (for the table's "paper" column).
    pub paper_nodes: u64,
    /// |E| of the real graph.
    pub paper_edges: u64,
    /// Reported size of the real graph in bytes.
    pub paper_bytes: u64,
    /// Generator seed (fixed: the registry is deterministic).
    pub seed: u64,
}

/// All five stand-ins, smallest to largest.
pub const SPECS: [DatasetSpec; 5] = [
    DatasetSpec {
        name: "wiki-vote-sim",
        paper_name: "wiki-vote",
        paper_nodes: 7_100,
        paper_edges: 103_000,
        paper_bytes: 488_243, // 476.8 KB
        seed: 0xB0A710AD,
    },
    DatasetSpec {
        name: "wiki-talk-sim",
        paper_name: "wiki-talk",
        paper_nodes: 2_400_000,
        paper_edges: 5_000_000,
        paper_bytes: 47_815_066, // 45.6 MB
        seed: 0x7A1C,
    },
    DatasetSpec {
        name: "twitter-sim",
        paper_name: "twitter-2010",
        paper_nodes: 42_000_000,
        paper_edges: 1_500_000_000,
        paper_bytes: 12_240_656_794, // 11.4 GB
        seed: 0x7817764,
    },
    DatasetSpec {
        name: "uk-union-sim",
        paper_name: "uk-union",
        paper_nodes: 131_000_000,
        paper_edges: 5_500_000_000,
        paper_bytes: 51_861_722_890, // 48.3 GB
        seed: 0x12B05,
    },
    DatasetSpec {
        name: "clue-web-sim",
        paper_name: "clue-web",
        paper_nodes: 1_000_000_000,
        paper_edges: 42_600_000_000,
        paper_bytes: 430_637_517_373, // 401.1 GB
        seed: 0xC1E3B,
    },
];

impl DatasetSpec {
    /// Generates the stand-in graph. Deterministic: two calls return equal
    /// graphs.
    ///
    /// Stand-in sizing: `wiki-vote-sim` keeps the paper's exact node count;
    /// larger graphs shrink to a 2-core budget while keeping the *ordering*
    /// and rough ratios of sizes.
    ///
    /// # Panics
    /// Panics if `name` is not one of the five [`SPECS`] keys.
    #[allow(
        clippy::panic,
        reason = "documented contract: `name` is one of the five `SPECS` keys, which only a \
                  hand-built spec can miss"
    )]
    pub fn generate(&self) -> CsrGraph {
        match self.name {
            // 7.1K nodes / ~103K edges, hubby like a voting graph.
            "wiki-vote-sim" => generators::barabasi_albert(7_115, 15, self.seed),
            // 2^16 nodes, sparse and skewed like a talk-page graph.
            "wiki-talk-sim" => generators::rmat(16, 140_000, RmatParams::default(), self.seed),
            // 2^17 nodes, denser, heavy-tailed.
            "twitter-sim" => generators::rmat(17, 1_600_000, RmatParams::default(), self.seed),
            // 2^18 nodes.
            "uk-union-sim" => generators::rmat(18, 3_400_000, RmatParams::default(), self.seed),
            // 2^19 nodes — the one that must exceed the broadcast budget.
            "clue-web-sim" => generators::rmat(19, 7_200_000, RmatParams::default(), self.seed),
            other => panic!("unknown dataset {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smallest_standin_matches_paper_scale() {
        let g = SPECS.iter().find(|s| s.paper_name == "wiki-vote").unwrap().generate();
        assert_eq!(g.node_count(), 7_115);
        // ~103K edges like the paper (BA: 15 per node minus seed clique).
        assert!(g.edge_count() > 95_000 && g.edge_count() < 115_000, "{}", g.edge_count());
    }

    #[test]
    fn sizes_are_strictly_increasing() {
        // Only the two smallest: generating the big ones is a bench concern.
        let sizes: Vec<u64> = SPECS.iter().take(2).map(|s| s.generate().memory_bytes()).collect();
        assert!(sizes[0] < sizes[1]);
    }

    #[test]
    fn generation_is_deterministic() {
        let s = SPECS.iter().find(|s| s.name == "wiki-talk-sim").unwrap();
        assert_eq!(s.generate(), s.generate());
    }
}
