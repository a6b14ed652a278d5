//! Inputs, all derived from `--seed`: the graph (through `pasco
//! generate`), the index and store built from it (through `pasco index`
//! and `pasco save-store`), and the request lists of the serving
//! workloads. The program under test only ever sees the generated files
//! and the requests.

use crate::cli::{self, PascoBin};
use pasco_graph::{CsrGraph, NodeId};
use pasco_simrank::QueryRequest;
use std::path::PathBuf;
use std::sync::Arc;

/// The contract rung: R-MAT 2^16 nodes, one million sampled edges.
pub const CONTRACT_SCALE: u32 = 16;
/// Sampled edges at the contract rung; other scales keep the density.
const CONTRACT_EDGES: u64 = 1_000_000;
/// `k` of every top-k request.
pub const TOPK_K: u64 = 20;
/// Hot-set size of `serve_hot`; fits its 512-entry cache with room.
pub const HOT_NODES: usize = 128;
/// `--cache` of the miss workloads: far below their source count.
pub const MISS_CACHE: usize = 64;
/// `--cache` of `serve_hot`.
pub const HOT_CACHE: usize = 512;
/// `pasco serve --workers` on every serving workload.
pub const SERVER_WORKERS: usize = 2;
/// Shards of the store `build` writes and `serve_mapped` opens.
pub const STORE_PARTS: u32 = 2;

const MISS_LIST_LEN: usize = 1600;
const MISS_ROUND_LEN: usize = 96;
const HOT_LIST_LEN: usize = 16_000;
const HOT_ROUND_LEN: usize = 2_000;

/// The four workloads, by their contract names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fresh `pasco index` processes, then `pasco save-store`.
    Build,
    /// Resident server, every cohort a cache miss.
    ServeMiss,
    /// Resident server, every cohort a cache hit.
    ServeHot,
    /// Store-backed server, the `serve_miss` traffic.
    ServeMapped,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] =
        [Workload::Build, Workload::ServeMiss, Workload::ServeHot, Workload::ServeMapped];

    /// The contract name.
    pub fn label(self) -> &'static str {
        match self {
            Workload::Build => "build",
            Workload::ServeMiss => "serve_miss",
            Workload::ServeHot => "serve_hot",
            Workload::ServeMapped => "serve_mapped",
        }
    }

    /// Looks a contract name up.
    pub fn from_label(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.label() == name)
    }

    /// Whether the traffic is the all-hit mix.
    pub fn is_hot(self) -> bool {
        self == Workload::ServeHot
    }
}

/// SplitMix64: the spine's own generator, so a change to the program's
/// RNG can never silently change the benchmark's inputs.
#[derive(Clone, Debug)]
pub struct SeedStream(u64);

impl SeedStream {
    /// A stream for one purpose (`tag`) under one `--seed`.
    pub fn for_purpose(seed: u64, tag: u64) -> Self {
        SeedStream(
            seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ tag.wrapping_mul(0xd1b5_4a32_d192_ed03),
        )
    }

    /// The next 64 bits.
    pub fn draw(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (`bound > 0`).
    pub fn draw_below(&mut self, bound: usize) -> usize {
        ((u128::from(self.draw()) * bound as u128) >> 64) as usize
    }
}

/// Nodes with at least one in-neighbour. A walker on an in-degree-0 node
/// dies at step one, so mixing such sources in would make query cost
/// bimodal; every source the spine sends is live.
pub fn live_nodes(graph: &CsrGraph) -> Vec<NodeId> {
    (0..CsrGraph::node_count(graph)).filter(|&v| CsrGraph::in_degree(graph, v) > 0).collect()
}

/// `k` distinct members of `pool`, in draw order (partial Fisher–Yates).
pub fn sample_distinct(rng: &mut SeedStream, pool: &[NodeId], k: usize) -> Vec<NodeId> {
    let mut deck = pool.to_vec();
    let k = k.min(deck.len());
    for slot in 0..k {
        let pick = slot + rng.draw_below(deck.len() - slot);
        deck.swap(slot, pick);
    }
    deck.truncate(k);
    deck
}

/// One serving workload's traffic: a fixed cyclic request list that the
/// clients walk round after round, `round_len` requests at a time.
#[derive(Clone, Debug)]
pub struct Traffic {
    /// The cyclic list.
    pub requests: Vec<QueryRequest>,
    /// Requests per round.
    pub round_len: usize,
    /// `pasco serve --cache`.
    pub cache: usize,
    /// Nodes whose cohorts are warmed during set-up (hot workload only).
    pub warm: Vec<NodeId>,
}

impl Traffic {
    /// The requests of round `round`, wrapping around the list.
    pub fn round_slice(&self, round: usize) -> Vec<QueryRequest> {
        let len = self.requests.len();
        (0..self.round_len)
            .map(|k| self.requests[(round * self.round_len + k) % len].clone())
            .collect()
    }

    /// How many distinct cohorts one pass over the list touches.
    pub fn distinct_sources(&self) -> usize {
        let mut all: Vec<NodeId> = self.requests.iter().flat_map(request_sources).collect();
        all.sort_unstable();
        all.dedup();
        all.len()
    }
}

/// The nodes whose cohorts a request needs.
pub fn request_sources(req: &QueryRequest) -> Vec<NodeId> {
    match req {
        QueryRequest::SinglePair { i, j } => vec![*i, *j],
        QueryRequest::SingleSourceTopK { i, .. } => vec![*i],
        QueryRequest::Cohort { v } => vec![*v],
        _ => Vec::new(),
    }
}

/// The miss mix: 75% `SinglePair`, 25% `SingleSourceTopK`, every source
/// in the list distinct, so a pass never meets a cached cohort and the
/// list — far longer than the cache — stays cold when it wraps.
pub fn miss_traffic(seed: u64, live: &[NodeId]) -> Traffic {
    let groups = (MISS_LIST_LEN / 4).min(live.len() / 7);
    let mut rng = SeedStream::for_purpose(seed, 1);
    let sources = sample_distinct(&mut rng, live, groups * 7);
    let mut requests = Vec::with_capacity(groups * 4);
    for g in sources.chunks_exact(7) {
        requests.push(QueryRequest::SinglePair { i: g[0], j: g[1] });
        requests.push(QueryRequest::SinglePair { i: g[2], j: g[3] });
        requests.push(QueryRequest::SinglePair { i: g[4], j: g[5] });
        requests.push(QueryRequest::SingleSourceTopK { i: g[6], k: TOPK_K });
    }
    let round_len = MISS_ROUND_LEN.min(requests.len());
    Traffic { requests, round_len, cache: MISS_CACHE, warm: Vec::new() }
}

/// The hot mix: 90% `SinglePair` over hot × hot (`i ≠ j`), 10%
/// `Cohort` — an 8-byte answer and a half-megabyte answer side by side.
pub fn hot_traffic(seed: u64, live: &[NodeId]) -> Traffic {
    let mut rng = SeedStream::for_purpose(seed, 2);
    let hot = sample_distinct(&mut rng, live, HOT_NODES);
    let mut requests = Vec::with_capacity(HOT_LIST_LEN);
    for slot in 0..HOT_LIST_LEN {
        let a = rng.draw_below(hot.len());
        if slot % 10 == 9 {
            requests.push(QueryRequest::Cohort { v: hot[a] });
        } else {
            // A shifted second draw can never land on the first.
            let b = (a + 1 + rng.draw_below(hot.len() - 1)) % hot.len();
            requests.push(QueryRequest::SinglePair { i: hot[a], j: hot[b] });
        }
    }
    Traffic { requests, round_len: HOT_ROUND_LEN, cache: HOT_CACHE, warm: hot }
}

/// Everything one run works from.
pub struct Inputs {
    /// `--seed`.
    pub seed: u64,
    /// R-MAT scale (16 is the contract).
    pub scale: u32,
    /// This run's scratch directory, under `<target>/spine/`.
    pub dir: PathBuf,
    /// The generated graph, as `pasco generate` wrote it.
    pub graph_path: String,
    /// `pasco index` output (present when the run asked for it).
    pub index_path: String,
    /// `pasco save-store` output directory (likewise).
    pub store_dir: String,
    /// The same graph, read back in-process for source selection and
    /// for the reference answers.
    pub graph: Arc<CsrGraph>,
    /// Nodes with in-degree > 0.
    pub live: Vec<NodeId>,
    /// Wall seconds of the `pasco index` that made `index_path`.
    pub index_wall_s: f64,
}

/// Sampled edge count at `scale`, keeping the contract rung's density.
pub fn edges_at_scale(scale: u32) -> u64 {
    ((CONTRACT_EDGES << scale) >> CONTRACT_SCALE).max(1)
}

/// The `pasco generate` argument list for this seed and scale.
pub fn generate_args(seed: u64, scale: u32, out: &str) -> Vec<String> {
    [
        "generate",
        "--model",
        "rmat",
        "--scale",
        &scale.to_string(),
        "--edges",
        &edges_at_scale(scale).to_string(),
        "--seed",
        &seed.to_string(),
        "--out",
        out,
    ]
    .map(String::from)
    .to_vec()
}

/// Borrows a `Vec<String>` as the `&[&str]` the CLI wrapper takes.
pub fn as_strs(args: &[String]) -> Vec<&str> {
    args.iter().map(String::as_str).collect()
}

impl Inputs {
    /// Generates the graph through the CLI and reads it back; with
    /// `with_index`, also builds the index and the store through the CLI.
    pub fn prepare(
        bin: &PascoBin,
        seed: u64,
        scale: u32,
        tag: &str,
        with_index: bool,
    ) -> Result<Inputs, String> {
        let dir = cli::target_dir().join("spine").join(format!("run-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path_of = |name: &str| dir.join(name).to_string_lossy().into_owned();
        let graph_path = path_of("g.bin");
        let index_path = path_of("g.idx");
        let store_dir = path_of("store");
        bin.run_to_exit(&as_strs(&generate_args(seed, scale, &graph_path)))?;
        let graph: CsrGraph =
            pasco_graph::io::read_binary(&graph_path).map_err(|e| format!("{graph_path}: {e}"))?;
        let live = live_nodes(&graph);
        if live.len() < 2 * HOT_NODES {
            return Err(format!("graph at scale {scale} has only {} live nodes", live.len()));
        }
        let mut inputs = Inputs {
            seed,
            scale,
            dir,
            graph_path,
            index_path,
            store_dir,
            graph: Arc::new(graph),
            live,
            index_wall_s: 0.0,
        };
        if with_index {
            let bill = bin.run_to_exit(&[
                "index",
                "--graph",
                &inputs.graph_path,
                "--out",
                &inputs.index_path,
            ])?;
            inputs.index_wall_s = bill.wall_s;
            inputs.write_store_via_cli(bin)?;
        }
        Ok(inputs)
    }

    /// `pasco save-store` from this run's graph and index.
    pub fn write_store_via_cli(&self, bin: &PascoBin) -> Result<cli::ExitBill, String> {
        let _ = std::fs::remove_dir_all(&self.store_dir);
        bin.run_to_exit(&[
            "save-store",
            "--graph",
            &self.graph_path,
            "--index",
            &self.index_path,
            "--out",
            &self.store_dir,
            "--parts",
            &STORE_PARTS.to_string(),
        ])
    }

    /// The traffic of a serving workload (`build` has none of its own;
    /// its trace replays the miss mix).
    pub fn traffic_for(&self, workload: Workload) -> Traffic {
        if workload.is_hot() {
            hot_traffic(self.seed, &self.live)
        } else {
            miss_traffic(self.seed, &self.live)
        }
    }

    /// Removes the scratch directory (best effort).
    pub fn discard(&self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &str) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| rd.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_live() -> Vec<NodeId> {
        (0..20_000).map(|v| v * 3 + 1).collect()
    }

    #[test]
    fn same_seed_same_lists_other_seed_other_lists() {
        let live = toy_live();
        assert_eq!(miss_traffic(11, &live).requests, miss_traffic(11, &live).requests);
        assert_ne!(miss_traffic(11, &live).requests, miss_traffic(12, &live).requests);
        assert_eq!(hot_traffic(11, &live).requests, hot_traffic(11, &live).requests);
        assert_ne!(hot_traffic(11, &live).requests, hot_traffic(12, &live).requests);
    }

    #[test]
    fn every_source_is_live() {
        let live = toy_live();
        for traffic in [miss_traffic(5, &live), hot_traffic(5, &live)] {
            for req in &traffic.requests {
                for v in request_sources(req) {
                    assert!(live.binary_search(&v).is_ok(), "{v} is not live");
                }
            }
        }
    }

    #[test]
    fn miss_list_outgrows_its_cache_and_never_repeats_a_source() {
        let t = miss_traffic(7, &toy_live());
        assert_eq!(t.requests.len(), MISS_LIST_LEN);
        let touched: usize = t.requests.iter().map(|r| request_sources(r).len()).sum();
        assert_eq!(t.distinct_sources(), touched, "a source repeats inside the list");
        assert!(t.distinct_sources() > 16 * t.cache);
        let topk = t.requests.iter().filter(|r| matches!(r, QueryRequest::SingleSourceTopK { .. }));
        assert_eq!(topk.count() * 4, t.requests.len());
        // Rounds tile the list and wrap.
        assert_eq!(t.round_slice(0), t.requests[..t.round_len].to_vec());
        let rounds = t.requests.len().div_ceil(t.round_len);
        assert_eq!(t.round_slice(rounds)[0], t.requests[(rounds * t.round_len) % t.requests.len()]);
    }

    #[test]
    fn hot_list_stays_inside_the_hot_set() {
        let t = hot_traffic(7, &toy_live());
        assert_eq!(t.warm.len(), HOT_NODES);
        assert!(t.distinct_sources() <= HOT_NODES && HOT_NODES < t.cache);
        let mut cohorts = 0;
        for req in &t.requests {
            match req {
                QueryRequest::SinglePair { i, j } => assert_ne!(i, j),
                QueryRequest::Cohort { .. } => cohorts += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(cohorts * 10, t.requests.len());
    }

    #[test]
    fn small_graphs_shrink_the_miss_list() {
        let live: Vec<NodeId> = (0..700).collect();
        let t = miss_traffic(3, &live);
        assert_eq!(t.requests.len(), 400);
        assert_eq!(t.distinct_sources(), 700);
    }

    #[test]
    fn draws_are_in_range_and_distinct_samples_are_distinct() {
        let mut rng = SeedStream::for_purpose(1, 9);
        assert!((0..1000).all(|_| rng.draw_below(7) < 7));
        let pool: Vec<NodeId> = (0..50).collect();
        let mut pick = sample_distinct(&mut rng, &pool, 50);
        pick.sort_unstable();
        assert_eq!(pick, pool);
        assert_eq!(sample_distinct(&mut rng, &pool, 80).len(), 50);
    }

    #[test]
    fn edge_budget_keeps_density_across_scales() {
        assert_eq!(edges_at_scale(16), 1_000_000);
        assert_eq!(edges_at_scale(10), 15_625);
        assert_eq!(Workload::from_label("serve_hot"), Some(Workload::ServeHot));
        assert_eq!(Workload::from_label("serve"), None);
    }
}
