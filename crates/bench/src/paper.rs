//! The paper scorecard: every experiment the paper backs a claim with, run
//! as one function over the graphs and config it is handed, each number a
//! [`Row`] beside the paper's own and the shape claim it supports.
//!
//! The `paper` binary runs [`run`] on the `PASCO_SCALE` stand-ins and writes
//! `BENCH_paper.json` plus a markdown table (README's "Paper vs this repo");
//! `tests/paper_shapes.rs` runs the same functions on smoke graphs and
//! asserts every claim through the predicates below.

use crate::{fmt_duration, time};
use pasco_baselines::{Fmt, FmtConfig, Lin, LinConfig};
use pasco_cluster::ClusterConfig;
use pasco_graph::datasets::SPECS;
use pasco_graph::stats::human_bytes;
use pasco_graph::{CsrGraph, GraphSampler, NodeId, ReverseChainIndex};
use pasco_mc::walks::StepDistributions;
use pasco_simrank::engine::kernel::build_diagonal_on;
use pasco_simrank::exact::ExactSimRank;
use pasco_simrank::{metrics, queries, CloudWalker, ExecMode, SimRankConfig, SimRankError};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

/// Whether a row's shape claim holds on this run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The claim holds.
    Holds,
    /// The claim is contradicted.
    Fails,
    /// This box cannot show it (the number, if any, is an estimate).
    NotShown,
}

/// One reproduced number.
#[derive(Clone, Debug)]
pub struct Row {
    /// Experiment id (`E1` … `E8`, `A1`, `A3`).
    pub experiment: &'static str,
    /// The paper dataset the graph stands in for.
    pub dataset: &'static str,
    /// What is measured.
    pub quantity: String,
    /// Unit of [`Row::ours`]: `s`, `bytes`, or `1` (errors, ratios).
    pub unit: &'static str,
    /// The paper's value as it prints it (`-`: none for this cell).
    pub paper: String,
    /// Our value; `None` is an N/A (a budget or memory wall was hit).
    pub ours: Option<f64>,
    /// The shape claim the row supports.
    pub claim: &'static str,
    /// Whether that claim holds here.
    pub verdict: Verdict,
}

/// A graph under test, named after the paper dataset it stands in for.
pub struct Dataset {
    /// Paper name (`wiki-vote`, …); paper values are looked up by it.
    pub name: &'static str,
    /// The graph.
    pub graph: Arc<CsrGraph>,
}

/// What the experiments run on.
pub struct Setup {
    /// Smallest first. The first is the accuracy graph (E3, A1, A3), the
    /// second (or the only one) the E7/E8 graph.
    pub datasets: Vec<Dataset>,
    /// CloudWalker parameters.
    pub cfg: SimRankConfig,
    /// FMT's parameters and memory budget (E6).
    pub fmt: FmtConfig,
    /// LIN's parameters and work budget (E6).
    pub lin: LinConfig,
}

type Claim = (&'static str, Verdict);

fn claim(text: &'static str, holds: bool) -> Claim {
    (text, if holds { Verdict::Holds } else { Verdict::Fails })
}

const E1: &str = "stand-ins grow in the paper's order";
const E3: &str = "the Jacobi residual keeps falling with L";
const E3_ACC: &str = "the error has flattened by L = 3";
const E45: &str = "Broadcasting beats RDD on prep and query time";
const E4_WALL: &str = "only RDD runs a graph past a worker's memory";
const E6: &str = "under this repo's FMT/LIN budgets, both answer only the smallest graph";
const E7: &str = "simulated makespan shrinks as workers are added";
const E8_MEM: &str = "RDD needs less memory per worker than Broadcasting";
const E8_SHUFFLE: &str = "RDD shuffles, Broadcasting does not";
const A1: &str = "at every R', the exact sweeps are at least as accurate as the forward walks";
const A3: &str = "MCSP error falls as ~1/sqrt(R')";

/// The paper's prep, MCSP and MCSS times, one entry per dataset in `SPECS`
/// order (`-`: the paper has no such cell).
type Times = [[&'static str; 3]; 5];
const BROADCAST: Times = [
    ["7s", "0.004s", "0.042s"],
    ["59s", "0.046s", "0.179s"],
    ["975s", "0.049s", "0.281s"],
    ["3323s", "0.025s", "0.292s"],
    ["N/A"; 3],
];
const RDD: Times = [
    ["50s", "2.7s", "2.9s"],
    ["620s", "8.5s", "13.9s"],
    ["8424s", "11.8s", "22.3s"],
    ["6.4h", "13.1s", "27.2s"],
    ["110.2h", "64.0s", "188.1s"],
];
const FMT: Times = [["43.4s", "30.4ms", "42.5s"], ["N/A"; 3], ["-"; 3], ["-"; 3], ["-"; 3]];
const LIN: Times = [
    ["187ms", "0.61ms", "5.3ms"],
    ["N/A"; 3],
    ["14376s", "3.17s", "11.9s"],
    ["8291s", "9.42s", "21.7s"],
    ["-"; 3],
];
const TIMES: [&str; 3] = ["prep", "MCSP", "MCSS"];

fn paper(table: &Times, dataset: &str, q: usize) -> &'static str {
    SPECS.iter().position(|s| s.paper_name == dataset).map_or("-", |i| table[i][q])
}

fn row(
    experiment: &'static str,
    dataset: &'static str,
    quantity: String,
    unit: &'static str,
    paper: &str,
    ours: Option<f64>,
    (claim, verdict): Claim,
) -> Row {
    Row { experiment, dataset, quantity, unit, paper: paper.into(), ours, claim, verdict }
}

// ---- shape predicates: the binary records them, the tests assert them ----

/// E1: the stand-ins' byte sizes strictly increase.
pub fn sizes_grow(bytes: &[u64]) -> bool {
    bytes.windows(2).all(|w| w[0] < w[1])
}

/// E3: over sweeps `1..=6` the residual falls, ≥ 10× from sweep 3 to 6.
pub fn residual_falls(residuals: &[f64]) -> bool {
    match residuals.get(..6) {
        Some(&[r1, _, r3, _, _, r6]) => r3 < r1 && r6 < 0.1 * r3,
        _ => false,
    }
}

/// E3: `at3`'s errors are within 5 % (plus 1e-4) of `at6`'s.
pub fn converged_by_3(at3: &Accuracy, at6: &Accuracy) -> bool {
    let close = |a: f64, b: f64| a <= 1.05 * b + 1e-4;
    close(at3.pair_max_err, at6.pair_max_err) && close(at3.ss_mean_err, at6.ss_mean_err)
}

/// E4/E5: `rdd` took more than `margin` × `broadcast`.
pub fn rdd_slower(broadcast: Duration, rdd: Duration, margin: f64) -> bool {
    rdd.as_secs_f64() > margin * broadcast.as_secs_f64()
}

/// E6: a baseline answers on the smallest graph (`index` 0) and on no other.
pub fn answers_only_smallest(index: usize, answered: bool) -> bool {
    answered == (index == 0)
}

/// E7: the makespan at many workers is shorter than at one by `margin`×.
pub fn makespan_shrinks(one: Duration, many: Duration, margin: f64) -> bool {
    one.as_secs_f64() > margin * many.as_secs_f64()
}

/// E8: an RDD worker holds fewer bytes than a Broadcasting one.
pub fn rdd_needs_less_memory(broadcast: &ModelRun, rdd: &ModelRun) -> bool {
    rdd.per_worker_bytes < broadcast.per_worker_bytes
}

/// E8: RDD shuffles and Broadcasting does not.
pub fn only_rdd_shuffles(broadcast: &ModelRun, rdd: &ModelRun) -> bool {
    broadcast.shuffle_bytes == 0 && rdd.shuffle_bytes > 0
}

/// A1: at every `R'` of the sweep, the sweeps' single-source error is no
/// larger than the walks' on the same cohorts.
pub fn sweeps_no_worse(walks: &[Accuracy], sweeps: &[Accuracy]) -> bool {
    !walks.is_empty()
        && walks.len() == sweeps.len()
        && walks.iter().zip(sweeps).all(|(w, s)| s.ss_mean_err <= w.ss_mean_err)
}

/// A3: over an `R'` sweep spanning 100×, the last error is under a third
/// of the first (1/√R' predicts a tenth).
pub fn error_falls_with_r_query(errors: &[f64]) -> bool {
    matches!((errors.first(), errors.last()), (Some(&a), Some(&b)) if errors.len() > 1 && 3.0 * b < a)
}

// ---- shared measurement ----

/// The connected node at in-degree quantile `q` (`1.0`: the heaviest hub,
/// `0.5`: a median-degree node). Dangling nodes are skipped: their cohorts
/// die at once.
pub fn by_in_degree(g: &CsrGraph, q: f64) -> NodeId {
    let mut connected: Vec<NodeId> = (0..g.node_count()).filter(|&v| g.in_degree(v) > 0).collect();
    connected.sort_by_key(|&v| g.in_degree(v));
    let at = ((connected.len() as f64 * q) as usize).min(connected.len().saturating_sub(1));
    connected.get(at).copied().unwrap_or(0)
}

/// The representative query pair: the heaviest hub and a median node.
pub fn query_nodes(g: &CsrGraph) -> (NodeId, NodeId) {
    (by_in_degree(g, 1.0), by_in_degree(g, 0.5))
}

/// Errors against exact SimRank.
#[derive(Clone, Copy, Debug, Default)]
pub struct Accuracy {
    /// Largest MCSP error over the mass-carrying pairs (0 when only a
    /// single-source estimator was scored).
    pub pair_max_err: f64,
    /// Single-source mean absolute error, averaged over the sources.
    pub ss_mean_err: f64,
    /// Mean NDCG@20 of the single-source rankings.
    pub ndcg20: f64,
}

/// Exact SimRank on the accuracy graph, with the sources and the
/// mass-carrying pairs (each source's exact top 3) every error is scored on.
pub struct Truth {
    exact: ExactSimRank,
    sources: Vec<NodeId>,
    pairs: Vec<(NodeId, NodeId)>,
}

impl Truth {
    /// Computes exact SimRank (15 iterations) and picks five sources across
    /// the in-degree range.
    pub fn new(g: &CsrGraph, c: f64) -> Self {
        let exact = ExactSimRank::compute(g, c, 15);
        let mut sources: Vec<NodeId> = [0.2, 0.4, 0.6, 0.8, 1.0].map(|q| by_in_degree(g, q)).into();
        sources.dedup();
        let pairs = sources
            .iter()
            .flat_map(|&s| {
                metrics::top_k(exact.row(s), 3, Some(s)).into_iter().map(move |(j, _)| (s, j))
            })
            .collect();
        Self { exact, sources, pairs }
    }

    /// The largest error of a pair estimator over the mass-carrying pairs.
    pub fn pair_max_err(&self, pair: impl Fn(NodeId, NodeId) -> f64) -> f64 {
        self.pairs
            .iter()
            .map(|&(i, j)| (pair(i, j) - self.exact.get(i, j)).abs())
            .fold(0.0, f64::max)
    }

    /// Scores a pair estimator and a single-source estimator; also returns
    /// the single-source estimator's mean time per call.
    pub fn evaluate(
        &self,
        pair: impl Fn(NodeId, NodeId) -> f64,
        source: impl Fn(NodeId) -> Vec<f64>,
    ) -> (Accuracy, Duration) {
        let (acc, spent) = self.single_source(source);
        (Accuracy { pair_max_err: self.pair_max_err(pair), ..acc }, spent)
    }

    /// Scores a single-source estimator alone (mean error and NDCG@20 over
    /// the sources) and returns its mean time per call.
    pub fn single_source(&self, source: impl Fn(NodeId) -> Vec<f64>) -> (Accuracy, Duration) {
        let mut acc = Accuracy::default();
        let mut spent = Duration::ZERO;
        for &s in &self.sources {
            let (est, t) = time(|| source(s));
            let truth = self.exact.row(s);
            spent += t;
            acc.ss_mean_err += metrics::mean_abs_diff(&est, truth);
            let ranking: Vec<NodeId> =
                metrics::top_k(&est, 20, Some(s)).into_iter().map(|(v, _)| v).collect();
            acc.ndcg20 += metrics::ndcg_at_k(truth, &ranking, 20, Some(s));
        }
        let k = self.sources.len() as f64;
        acc.ss_mean_err /= k;
        acc.ndcg20 /= k;
        (acc, spent / self.sources.len() as u32)
    }

    /// A1's two forward-stage arms on the same cohorts: each source's cohort
    /// at `cfg`'s `R'` is simulated once, then the walks (called directly,
    /// not through the arm rule) and the exact sweeps each finish it. The
    /// times are the forward stage's alone. Returns `[walks, sweeps]`.
    pub fn forward_arms(
        &self,
        g: &CsrGraph,
        rci: &ReverseChainIndex,
        diag: &[f64],
        cfg: &SimRankConfig,
    ) -> [(Accuracy, Duration); 2] {
        let cohorts: BTreeMap<NodeId, StepDistributions> =
            self.sources.iter().map(|&v| (v, queries::query_cohort(g, cfg, v))).collect();
        let cohort = |v: NodeId| &cohorts[&v];
        let sampler = GraphSampler::new(g, rci);
        let n = g.node_count() as usize;
        let walks =
            self.single_source(|v| queries::walked_scores_on(n, &sampler, cohort(v), diag, cfg));
        let sweeps = self.single_source(|v| {
            let mut s = queries::swept_series_on(g, cohort(v), diag, cfg, <[f64]>::to_vec);
            s[v as usize] = 1.0;
            s
        });
        [walks, sweeps]
    }
}

/// One Broadcasting or RDD build plus the representative queries.
#[derive(Clone, Copy, Debug)]
pub struct ModelRun {
    /// Offline build wall time (`D`).
    pub prep: Duration,
    /// Mean MCSP time over 3 calls.
    pub mcsp: Duration,
    /// Mean MCSS time over 3 calls.
    pub mcss: Duration,
    /// Bytes shuffled by the build and the queries.
    pub shuffle_bytes: u64,
    /// The engine's per-worker memory demand.
    pub per_worker_bytes: u64,
}

/// Builds and queries `g` under `mode`; `None` when the simulated cluster
/// refuses the graph (the paper's memory-wall N/A).
pub fn model_run(g: &Arc<CsrGraph>, cfg: SimRankConfig, mode: ExecMode) -> Option<ModelRun> {
    let (cw, stats) = match CloudWalker::build_with_stats(Arc::clone(g), cfg, mode) {
        Ok(built) => built,
        Err(SimRankError::Cluster(_)) => return None,
        Err(e) => panic!("build failed: {e}"),
    };
    let (i, j) = query_nodes(g);
    let timed = |f: &dyn Fn()| time(|| (0..3).for_each(|_| f())).1 / 3;
    let mcsp = timed(&|| {
        black_box(cw.try_single_pair(i, j).expect("in range"));
    });
    let mcss = timed(&|| {
        black_box(cw.try_single_source(i).expect("in range"));
    });
    Some(ModelRun {
        prep: stats.wall,
        mcsp,
        mcss,
        shuffle_bytes: cw.cluster_report().unwrap_or_default().shuffle_bytes,
        per_worker_bytes: cw.memory_footprint().per_worker_bytes,
    })
}

/// The Broadcasting and the RDD run of every dataset, shared by E4/E5 and E8.
pub fn model_runs(s: &Setup) -> Vec<[Option<ModelRun>; 2]> {
    let cluster = ClusterConfig::paper_like();
    s.datasets
        .iter()
        .map(|ds| {
            eprintln!("[{}] Broadcasting and RDD builds...", ds.name);
            [ExecMode::Broadcast(cluster), ExecMode::Rdd(cluster)]
                .map(|mode| model_run(&ds.graph, s.cfg, mode))
        })
        .collect()
}

/// E7's estimated makespan of a Broadcasting build on `workers` machines.
pub fn makespan(g: &Arc<CsrGraph>, cfg: SimRankConfig, workers: usize) -> Duration {
    let mode = ExecMode::Broadcast(ClusterConfig::local(workers));
    let (_, stats) = CloudWalker::build_with_stats(Arc::clone(g), cfg, mode).expect("build");
    stats.cluster.expect("broadcast reports its cluster").total_sim
}

// ---- the experiments ----

/// Every experiment on `s`, in the paper's order.
pub fn run(s: &Setup) -> Vec<Row> {
    let mut rows = datasets(s);
    rows.extend(accuracy(s));
    let runs = model_runs(s);
    rows.extend(models(s, &runs));
    rows.extend(comparison(s));
    rows.extend(scaling(s));
    rows
}

/// E1: the stand-ins against the graphs they replace.
pub fn datasets(s: &Setup) -> Vec<Row> {
    let bytes: Vec<u64> = s.datasets.iter().map(|ds| ds.graph.memory_bytes()).collect();
    let grow = claim(E1, sizes_grow(&bytes));
    let paper = |name| SPECS.iter().find(|spec| spec.paper_name == name).map(|s| s.paper_bytes);
    let rows = s.datasets.iter().zip(&bytes).map(|(ds, &b)| {
        let theirs = paper(ds.name).map_or("-".into(), human_bytes);
        row("E1", ds.name, "graph size".into(), "bytes", &theirs, Some(b as f64), grow)
    });
    rows.collect()
}

/// The E7/E8 graph's index: the second, or the only one.
fn mid(s: &Setup) -> usize {
    1.min(s.datasets.len() - 1)
}

/// MCSP on `g` as an estimator for [`Truth`].
fn pair<'a>(g: &'a CsrGraph, d: &'a [f64], cfg: SimRankConfig) -> impl Fn(u32, u32) -> f64 + 'a {
    move |i, j| queries::single_pair(g, d, &cfg, i, j)
}

/// The `R'` axis of A1 and A3.
const R_QUERIES: [u32; 3] = [100, 1_000, 10_000];

/// E3 (convergence in `L`), A1 (the forward stage's two arms against `R'`)
/// and A3 (MCSP error against `R'`), all scored by one [`Truth`] on the
/// first graph.
pub fn accuracy(s: &Setup) -> Vec<Row> {
    let ds = &s.datasets[0];
    let g = ds.graph.as_ref();
    let cfg = s.cfg;
    eprintln!("[{}] exact SimRank and the accuracy sweeps...", ds.name);
    let truth = Truth::new(g, cfg.c);
    let rci = ReverseChainIndex::build(g);
    let at6 = build_diagonal_on(g, &cfg.with_l(6)).expect("diagonal build");
    let at3 = build_diagonal_on(g, &cfg.with_l(3)).expect("diagonal build");
    let diag = at3.diag.as_slice();
    let scored =
        |d| truth.evaluate(pair(g, d, cfg), |v| queries::single_source(g, &rci, d, &cfg, v)).0;
    let (acc3, acc6) = (scored(diag), scored(at6.diag.as_slice()));
    let mut rows = Vec::new();
    let mut add = |exp, quantity: String, unit, ours: f64, claim| {
        rows.push(row(exp, ds.name, quantity, unit, "-", Some(ours), claim))
    };

    let falls = claim(E3, residual_falls(&at6.residuals));
    for l in [1, 3, 6] {
        let r = at6.residuals.get(l - 1).copied().unwrap_or(f64::NAN);
        add("E3", format!("residual ‖Ax−1‖∞, L = {l}"), "1", r, falls);
    }
    let flat = claim(E3_ACC, converged_by_3(&acc3, &acc6));
    add("E3", "MCSP max err, L = 3".into(), "1", acc3.pair_max_err, flat);
    add("E3", "MCSS mean err, L = 3".into(), "1", acc3.ss_mean_err, flat);

    let arms = R_QUERIES.map(|rq| truth.forward_arms(g, &rci, diag, &cfg.with_r_query(rq)));
    let a1 = claim(A1, sweeps_no_worse(&arms.map(|a| a[0].0), &arms.map(|a| a[1].0)));
    for (rq, arm) in R_QUERIES.into_iter().zip(arms) {
        for (name, (acc, t)) in ["forward walks", "exact sweeps"].into_iter().zip(arm) {
            add("A1", format!("MCSS mean err, {name}, R' = {rq}"), "1", acc.ss_mean_err, a1);
            add("A1", format!("NDCG@20, {name}, R' = {rq}"), "1", acc.ndcg20, a1);
            add("A1", format!("forward time, {name}, R' = {rq}"), "s", t.as_secs_f64(), a1);
        }
    }

    let sweep = R_QUERIES.map(|rq| {
        let (err, t) = time(|| truth.pair_max_err(pair(g, diag, cfg.with_r_query(rq))));
        (rq, err, t.as_secs_f64() / truth.pairs.len() as f64)
    });
    let a3 = claim(A3, error_falls_with_r_query(&sweep.map(|p| p.1)));
    for (rq, err, t) in sweep {
        add("A3", format!("MCSP max err, R' = {rq}"), "1", err, a3);
        add("A3", format!("MCSP time, R' = {rq}"), "s", t, a3);
    }
    rows
}

/// E4/E5 (prep and query times per model) and E8 (memory and shuffle on
/// the mid graph) from the shared [`model_runs`].
pub fn models(s: &Setup, runs: &[[Option<ModelRun>; 2]]) -> Vec<Row> {
    let mut rows = Vec::new();
    for (ds, [b, r]) in s.datasets.iter().zip(runs) {
        for (exp, model, run, table) in
            [("E4", "Broadcasting", b, &BROADCAST), ("E5", "RDD", r, &RDD)]
        {
            for (q, name) in TIMES.iter().enumerate() {
                let pick = |m: &ModelRun| [m.prep, m.mcsp, m.mcss][q];
                let holds = match (b, r) {
                    (Some(b), Some(r)) => claim(E45, rdd_slower(pick(b), pick(r), 1.0)),
                    _ => claim(E4_WALL, b.is_none() && r.is_some()),
                };
                let quantity = format!("{name}, {model}");
                let ours = run.map(|m| pick(&m).as_secs_f64());
                rows.push(row(exp, ds.name, quantity, "s", paper(table, ds.name, q), ours, holds));
            }
        }
    }
    let unshown = |claim| (claim, Verdict::NotShown);
    if !s.datasets.iter().any(|ds| ds.name == "clue-web") {
        let quantity = "prep, Broadcasting".into();
        rows.push(row("E4", "clue-web", quantity, "s", "N/A", None, unshown(E4_WALL)));
    }

    let at = mid(s);
    let bytes = |v: u64| Some(v as f64);
    let mid = s.datasets[at].name;
    if let [Some(b), Some(r)] = runs[at] {
        let mem = claim(E8_MEM, rdd_needs_less_memory(&b, &r));
        let shuffle = claim(E8_SHUFFLE, only_rdd_shuffles(&b, &r));
        for (model, m) in [("Broadcasting", b), ("RDD", r)] {
            let worker = format!("per-worker memory, {model}");
            let shuffled = format!("shuffled, {model}");
            rows.push(row("E8", mid, worker, "bytes", "-", bytes(m.per_worker_bytes), mem));
            rows.push(row("E8", mid, shuffled, "bytes", "-", bytes(m.shuffle_bytes), shuffle));
        }
    }
    // RDD's per-worker bytes past quick scale are the simulated cluster's
    // accounting, not a measured process (every partition shares one).
    for name in ["uk-union", "clue-web"] {
        let run = s.datasets.iter().zip(runs).find(|(ds, _)| ds.name == name);
        let estimate = run.and_then(|(_, [_, r])| r.and_then(|r| bytes(r.per_worker_bytes)));
        let quantity = "per-worker memory, RDD".into();
        rows.push(row("E8", name, quantity, "bytes", "-", estimate, unshown(E8_MEM)));
    }
    rows
}

/// E6: FMT and LIN on every dataset. CloudWalker's column is E4's.
pub fn comparison(s: &Setup) -> Vec<Row> {
    let mut rows = Vec::new();
    for (idx, ds) in s.datasets.iter().enumerate() {
        eprintln!("[{}] FMT and LIN...", ds.name);
        let g = &ds.graph;
        let (i, j) = query_nodes(g);
        let (fmt, fmt_prep) = time(|| Fmt::build(Arc::clone(g), s.fmt).ok());
        let fmt =
            fmt.map(|m| [fmt_prep, time(|| m.single_pair(i, j)).1, time(|| m.single_source(i)).1]);
        let (lin, lin_prep) = time(|| Lin::build(Arc::clone(g), s.lin).ok());
        let lin =
            lin.map(|m| [lin_prep, time(|| m.single_pair(i, j)).1, time(|| m.single_source(i)).1]);
        for (method, times, table) in [("FMT", fmt, &FMT), ("LIN", lin, &LIN)] {
            let holds = claim(E6, answers_only_smallest(idx, times.is_some()));
            // A method out of budget answers nothing: one N/A row stands for all three.
            for q in 0..times.map_or(1, |_| 3) {
                let quantity = format!("{}, {method}", TIMES[q]);
                let ours = times.map(|t| t[q].as_secs_f64());
                rows.push(row("E6", ds.name, quantity, "s", paper(table, ds.name, q), ours, holds));
            }
        }
    }
    rows
}

/// E7: the Broadcasting build's simulated makespan on 1 … 8 workers.
pub fn scaling(s: &Setup) -> Vec<Row> {
    let ds = &s.datasets[mid(s)];
    eprintln!("[{}] makespan against workers...", ds.name);
    let spans = [1, 2, 4, 8].map(|w| (w, makespan(&ds.graph, s.cfg, w)));
    let shrinks = claim(E7, makespan_shrinks(spans[0].1, spans[3].1, 1.0));
    let rows = spans.into_iter().map(|(w, t)| {
        let quantity = format!("simulated makespan, workers = {w}");
        row("E7", ds.name, quantity, "s", "-", Some(t.as_secs_f64()), shrinks)
    });
    rows.collect()
}

// ---- output ----

fn verdict_str(v: Verdict) -> &'static str {
    match v {
        Verdict::Holds => "yes",
        Verdict::Fails => "no",
        Verdict::NotShown => "not shown",
    }
}

fn value_str(unit: &str, v: Option<f64>, verdict: Verdict) -> String {
    match (unit, v) {
        (_, None) if verdict == Verdict::NotShown => "not run".into(),
        (_, None) => "N/A".into(),
        ("s", Some(v)) => fmt_duration(Duration::from_secs_f64(v)),
        ("bytes", Some(v)) => human_bytes(v as u64),
        (_, Some(v)) if v != 0.0 && v.abs() < 0.01 => format!("{v:.2e}"),
        (_, Some(v)) => format!("{v:.4}"),
    }
}

/// The rows as a markdown table.
pub fn markdown(rows: &[Row]) -> String {
    let mut out =
        String::from("| Exp | Dataset | Quantity | Paper | Ours | Shape claim | Holds |\n");
    out.push_str("|---|---|---|---|---|---|---|\n");
    for r in rows {
        let ours = value_str(r.unit, r.ours, r.verdict);
        let cells = [r.experiment, r.dataset, &r.quantity, &r.paper, &ours, r.claim];
        out.push_str(&format!("| {} | {} |\n", cells.join(" | "), verdict_str(r.verdict)));
    }
    out
}

/// The rows as `BENCH_paper.json`, headed by the scale and parameters.
pub fn json(scale: &str, cfg: &SimRankConfig, rows: &[Row]) -> String {
    let q = |v: &str| format!("\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\""));
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            let ours = r.ours.filter(|v| v.is_finite()).map_or("null".into(), |v| v.to_string());
            format!(
                "    {{\"experiment\": {}, \"dataset\": {}, \"quantity\": {}, \"unit\": {}, \
                 \"paper\": {}, \"ours\": {ours}, \"claim\": {}, \"holds\": {}}}",
                q(r.experiment),
                q(r.dataset),
                q(&r.quantity),
                q(r.unit),
                q(&r.paper),
                q(r.claim),
                q(verdict_str(r.verdict)),
            )
        })
        .collect();
    let params =
        format!("c = {}, T = {}, L = {}, R = {}, R' = {}", cfg.c, cfg.t, cfg.l, cfg.r, cfg.r_query);
    format!(
        "{{\n  \"scale\": {},\n  \"params\": {},\n  \"rows\": [\n{}\n  ]\n}}\n",
        q(scale),
        q(&params),
        body.join(",\n")
    )
}
