//! The traced pass: per-layer numbers, measured from outside by timing
//! the calls into each layer's public functions on the run's own graph
//! and request lists.
//!
//! Three parts. The *staged build* replays `pasco index` stage by stage
//! (`read_binary` → `ReverseChainIndex::build` → per-node walks + `ai_row`
//! → `jacobi::solve`) and must arrive at the CLI's index bit for bit —
//! the proof that the stages timed are the work `pasco index` did. The
//! *layer probes* time single calls (cohort kernel, `score_pair`, forward
//! stage, session hit and miss, codec, store) on shared inputs, the same
//! for every workload. The *staged replay* sends the workload's own
//! requests over TCP to an in-process `PascoServer`, then runs each
//! request again through `QuerySession::execute` and through the
//! engine-level calls underneath, and records the span tree.

use crate::answers;
use crate::cli;
use crate::e2e;
use crate::inputs::{self, Inputs, SeedStream, Traffic, Workload};
use crate::procfs;
use crate::report::RunReport;
use crate::stats;
use crate::trace::SpanLog;
use pasco_graph::{CsrGraph, GraphSampler, NodeId, ReverseChainIndex};
use pasco_mc::walks::{self, StepDistributions, WalkParams};
use pasco_server::transport::FrameDecoder;
use pasco_server::{PascoClient, PascoServer, ServerConfig, ServerHandle, ServerStats};
use pasco_simrank::ai::{self, StoredRows};
use pasco_simrank::api::envelope::{Envelope, DEFAULT_MAX_FRAME};
use pasco_simrank::api::wire::WireCodec;
use pasco_simrank::{
    queries, CacheStats, CloudWalker, ExecMode, QueryRequest, QueryResponse, QueryService,
    QuerySession, SessionConfig, SimRankConfig,
};
use pasco_solver::jacobi::{self, JacobiConfig};
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Nodes (in id order) the `R = 100` cohort kernel and `ai_row` are timed on.
const BUILD_KERNEL_NODES: u32 = 4096;
/// Live sources the `R′ = 10 000` cohort kernel is timed on.
const QUERY_KERNEL_SOURCES: usize = 128;
/// Sources the (much slower) top-k stages are timed on.
const TOPK_SOURCES: usize = 12;
/// Requests of the staged replay, and of the untraced pass before it.
const MISS_REPLAY_LEN: usize = 32;
const HOT_REPLAY_LEN: usize = 600;

/// Runs `f` and returns its result with the elapsed nanoseconds.
fn timed_ns<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_nanos() as f64)
}

/// Median of `reps` timings of `f`, in nanoseconds.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| timed_ns(&mut f).1).collect();
    stats::median_of(&samples)
}

/// Nanoseconds per call of a fast `f`: batches of 64 calls, median batch.
fn per_call_ns(mut f: impl FnMut()) -> f64 {
    median_ns(15, || (0..64).for_each(|_| f())) / 64.0
}

/// A fixed amount of integer work: how fast is this box right now?
fn spin_probe_ms() -> f64 {
    median_ns(5, || {
        let mut rng = SeedStream::for_purpose(1, 1);
        let mut acc = 0u64;
        for _ in 0..2_000_000 {
            acc = acc.wrapping_add(rng.draw());
        }
        black_box(acc);
    }) / 1e6
}

/// Everything the probes and the replay share.
struct Bench<'a> {
    inputs: &'a Inputs,
    cfg: SimRankConfig,
    /// Live sources for the probes: a seeded sample of its own, apart
    /// from every workload's list.
    sources: Vec<NodeId>,
    resident: Arc<CloudWalker>,
    mapped: Arc<CloudWalker>,
}

/// Runs the traced pass for `workload`. Returns the per-layer outcome and
/// the span log.
pub fn run_traced(inputs: &Inputs, workload: Workload) -> (RunReport, SpanLog) {
    let t0 = Instant::now();
    let mut out = RunReport::begin(workload, true);
    let mut log = SpanLog::begin_trace();
    if let Err(why) = traced_pass(inputs, workload, &mut out, &mut log) {
        out.tally(false, || why);
    }
    out.put("trace.spans", log.spans().len() as f64);
    out.put("trace.clamped_spans", log.clamped_spans() as f64);
    let nested = log.children_nest();
    out.tally(nested, || "a child span lies outside its parent".into());
    out.seal(t0.elapsed().as_secs_f64());
    (out, log)
}

fn traced_pass(
    inputs: &Inputs,
    workload: Workload,
    out: &mut RunReport,
    log: &mut SpanLog,
) -> Result<(), String> {
    out.put("env.nproc", std::thread::available_parallelism().map_or(1, usize::from) as f64);
    out.put("env.loadavg", procfs::read_loadavg());
    let probe_before = spin_probe_ms();
    out.put("env.probe_ms", probe_before);

    // Serving-side probes and the replay run first, on the heap a
    // freshly started `pasco serve` would have; the staged build, which
    // allocates and frees a few hundred megabytes of rows, goes last.
    let cfg = SimRankConfig::default_paper();
    let resident = Arc::new(answers::reference_walker(inputs)?);
    let mapped: CloudWalker =
        CloudWalker::open_store(&inputs.store_dir, cfg).map_err(|e| e.to_string())?;
    let mut rng = SeedStream::for_purpose(inputs.seed, 3);
    let sources = inputs::sample_distinct(&mut rng, &inputs.live, QUERY_KERNEL_SOURCES);
    let bench = Bench { inputs, cfg, sources, resident, mapped: Arc::new(mapped) };
    let cohorts = kernel_layers(&bench, out)?;
    session_layers(&bench, out)?;
    codec_layers(&bench, &cohorts, out)?;
    drop(cohorts);
    staged_replay(&bench, workload, out, log)?;
    store_layers(&bench, out)?;
    drop(bench);
    staged_build(inputs, &cfg, out, log)?;

    out.put("env.probe_drift", spin_probe_ms() / probe_before);
    Ok(())
}

// ---- staged build ---------------------------------------------------------

/// One row `aᵢ` of the linear system, sorted by column.
type SparseRow = Vec<(u32, f64)>;

/// All rows `aᵢ`, computed on `threads` threads that pull blocks of
/// nodes off a shared counter (R-MAT packs its heavy nodes at low ids,
/// so an even split of the id range is not an even split of the work).
/// Rows are a pure function of the node, so who computes which is free.
fn all_rows(graph: &CsrGraph, cfg: &SimRankConfig, threads: usize) -> Vec<SparseRow> {
    const BLOCK: u32 = 256;
    let n = CsrGraph::node_count(graph);
    let params = WalkParams::new(cfg.t, cfg.r);
    let next_block = AtomicU32::new(0);
    let mut blocks: Vec<(u32, Vec<SparseRow>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let lo = next_block.fetch_add(1, Ordering::Relaxed).saturating_mul(BLOCK);
                        if lo >= n {
                            break mine;
                        }
                        let rows = (lo..(lo + BLOCK).min(n))
                            .map(|i| {
                                let dists: StepDistributions =
                                    walks::reverse_walk_distributions(graph, i, params, cfg.seed);
                                ai::ai_row(&dists, cfg.c)
                            })
                            .collect();
                        mine.push((lo, rows));
                    }
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("row thread panicked")).collect()
    });
    blocks.sort_by_key(|&(lo, _)| lo);
    blocks.into_iter().flat_map(|(_, rows)| rows).collect()
}

fn staged_build(
    inputs: &Inputs,
    cfg: &SimRankConfig,
    out: &mut RunReport,
    log: &mut SpanLog,
) -> Result<(), String> {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let begin = log.now_ns();

    let read_ns = median_ns(3, || {
        black_box(pasco_graph::io::read_binary(&inputs.graph_path).ok());
    });
    out.put("graph.read_binary_ms", read_ns / 1e6);
    let graph: Arc<CsrGraph> = Arc::clone(&inputs.graph);
    let rci_ns = median_ns(3, || {
        black_box(ReverseChainIndex::build(&graph));
    });
    out.put("graph.rci_build_ms", rci_ns / 1e6);

    let (rows, walk_ns) = timed_ns(|| all_rows(&graph, cfg, threads));
    out.put("engine.walk_phase_ms", walk_ns / 1e6);
    let rows = StoredRows::new(rows);
    out.put("core.rows_bytes", StoredRows::memory_bytes(&rows) as f64);

    let n = CsrGraph::node_count(&graph) as usize;
    let (b, x0) = (vec![1.0; n], vec![1.0 - cfg.c; n]);
    let sweeps = JacobiConfig { iterations: cfg.l, tolerance: None, record_residuals: true };
    let (solved, jacobi_ns) = timed_ns(|| jacobi::solve(&rows, &b, &x0, &sweeps));
    drop(rows);
    out.put("solver.jacobi_sweep_ms", jacobi_ns / 1e6 / cfg.l.max(1) as f64);
    out.put("solver.residual_final", solved.residuals.last().copied().unwrap_or(0.0));
    out.put("engine.walk_phase_share", walk_ns / (walk_ns + jacobi_ns));

    // The staged replay timed the same work `pasco index` did only if it
    // arrives at the same diagonal, bit for bit.
    let cli_diag =
        pasco_simrank::persist::load_index(&inputs.index_path).map_err(|e| e.to_string())?;
    let same = answers::same_bits(&solved.x, cli_diag.as_slice());
    out.tally(same, || "staged build diagonal differs from the CLI index".into());

    let (built, _) =
        timed_ns(|| CloudWalker::build_with_stats(Arc::clone(&graph), *cfg, ExecMode::Local));
    let (walker, build_stats) = built.map_err(|e| e.to_string())?;
    let engine_ms = build_stats.wall.as_secs_f64() * 1e3;
    out.put("engine.build_diagonal_ms", engine_ms);
    out.put("cli.index_overhead_ms", inputs.index_wall_s * 1e3 - engine_ms);
    let same = answers::same_bits(CloudWalker::diagonal(&walker).as_slice(), cli_diag.as_slice());
    out.tally(same, || "in-process build diagonal differs from the CLI index".into());
    drop(walker);

    // The kernels of the walk phase, call by call, on a fixed node set.
    let params = WalkParams::new(cfg.t, cfg.r);
    let upto = BUILD_KERNEL_NODES.min(n as u32);
    let (mut walk_pass, mut row_pass) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let (mut walk_total, mut row_total) = (0.0, 0.0);
        for i in 0..upto {
            let (dists, w) =
                timed_ns(|| walks::reverse_walk_distributions(&graph, i, params, cfg.seed));
            let (row, r) = timed_ns(|| ai::ai_row(&dists, cfg.c));
            black_box(row);
            walk_total += w;
            row_total += r;
        }
        walk_pass.push(walk_total / f64::from(upto));
        row_pass.push(row_total / f64::from(upto));
    }
    out.put("mc.cohort_r_us", stats::median_of(&walk_pass) / 1e3);
    out.put("core.ai_row_us", stats::median_of(&row_pass) / 1e3);

    // Request 0 of the trace is the build: the CLI's wall as the root,
    // the stages as its children.
    let root = log.root_span(0, "cli.index", begin, (inputs.index_wall_s * 1e9) as u64);
    log.child_span(root, "graph.read_binary", read_ns as u64);
    log.child_span(root, "graph.rci_build", rci_ns as u64);
    log.child_span(root, "engine.walk_phase", walk_ns as u64);
    log.child_span(root, "solver.jacobi", jacobi_ns as u64);
    Ok(())
}

// ---- layer probes ---------------------------------------------------------

fn store_layers(bench: &Bench<'_>, out: &mut RunReport) -> Result<(), String> {
    let (inputs, cfg, resident) = (bench.inputs, &bench.cfg, &bench.resident);
    let dir = inputs.dir.join("store-traced").to_string_lossy().into_owned();
    let mut writes = Vec::new();
    for _ in 0..3 {
        let _ = std::fs::remove_dir_all(&dir);
        let (saved, ns) = timed_ns(|| CloudWalker::save_store(resident, &dir, inputs::STORE_PARTS));
        saved.map_err(|e| e.to_string())?;
        writes.push(ns);
    }
    out.put("store.write_ms", stats::median_of(&writes) / 1e6);
    let bytes = inputs::dir_bytes(&dir) as f64;
    out.put("store.bytes", bytes);
    out.put("store.bytes_per_edge", bytes / CsrGraph::edge_count(&inputs.graph) as f64);
    let same = inputs::dir_bytes(&inputs.store_dir) as f64 == bytes;
    out.tally(same, || "in-process store differs in size from the CLI's".into());

    let mut opens = Vec::new();
    for _ in 0..5 {
        let (opened, ns) = timed_ns(|| CloudWalker::open_store(&dir, *cfg));
        opened.map_err(|e| e.to_string())?;
        opens.push(ns);
    }
    out.put("store.open_us", stats::median_of(&opens) / 1e3);
    // First query through a fresh mapping: page-table faults included.
    let fresh: CloudWalker = CloudWalker::open_store(&dir, *cfg).map_err(|e| e.to_string())?;
    let pair = &bench.sources;
    let (first, ns) = timed_ns(|| CloudWalker::try_single_pair(&fresh, pair[0], pair[1]));
    out.put("store.first_touch_ms", ns / 1e6);
    let want = CloudWalker::try_single_pair(resident, pair[0], pair[1]);
    out.tally(first == want, || "mapped first-touch answer differs from resident".into());
    Ok(())
}

/// Times the query-side kernels and returns the cohorts it simulated.
fn kernel_layers(bench: &Bench<'_>, out: &mut RunReport) -> Result<Vec<StepDistributions>, String> {
    let cfg = &bench.cfg;
    let sources = &bench.sources;
    let params = WalkParams::new(cfg.t, cfg.r_query);
    let seed = queries::query_seed(cfg);
    let diag = CloudWalker::diagonal(&bench.resident).as_slice();

    let (mut cohorts, mut cohort_ns) = (Vec::new(), Vec::new());
    let (mut steps, mut entries) = (0u64, 0u64);
    for &v in sources {
        let (dists, ns) =
            timed_ns(|| walks::reverse_walk_distributions(&bench.inputs.graph, v, params, seed));
        steps += dists.counts[1..].iter().flatten().map(|&(_, c)| c).sum::<u64>();
        entries += dists.counts.iter().map(|s| s.len() as u64).sum::<u64>();
        cohort_ns.push(ns);
        cohorts.push(dists);
    }
    out.put("mc.cohort_rq_us", stats::median_of(&cohort_ns) / 1e3);
    out.put("mc.steps_per_us", steps as f64 / (cohort_ns.iter().sum::<f64>() / 1e3));
    out.put("mc.cohort_rq_steps", steps as f64);
    out.put("mc.cohort_rq_entries", entries as f64);

    let mut mapped_ns = Vec::new();
    for (k, &v) in sources.iter().enumerate() {
        let (got, ns) = timed_ns(|| CloudWalker::try_query_cohort(&bench.mapped, v));
        mapped_ns.push(ns);
        if k < 8 {
            out.tally(got.as_ref() == Ok(&cohorts[k]), || {
                format!("mapped cohort of {v} differs from resident")
            });
        }
    }
    out.put("store.mapped_cohort_rq_us", stats::median_of(&mapped_ns) / 1e3);
    out.put("store.mapped_slowdown", stats::median_of(&mapped_ns) / stats::median_of(&cohort_ns));

    let pair_ns: Vec<f64> = cohorts
        .windows(2)
        .map(|w| {
            median_ns(3, || {
                black_box(queries::score_pair(&w[0], &w[1], diag, cfg.c));
            })
        })
        .collect();
    out.put("queries.score_pair_us", stats::median_of(&pair_ns) / 1e3);
    let sp_ns: Vec<f64> = sources
        .chunks_exact(2)
        .take(32)
        .map(|p| {
            timed_ns(|| black_box(CloudWalker::try_single_pair(&bench.resident, p[0], p[1]).ok())).1
        })
        .collect();
    out.put("queries.single_pair_ms", stats::median_of(&sp_ns) / 1e6);

    // Top-k = cohort + forward stage + ranking. `rank_topk` is private,
    // so ranking is what is left of the whole call.
    let rci: &ReverseChainIndex = CloudWalker::reverse_chain_index(&bench.resident)
        .ok_or("resident walker has no sampling index")?;
    let sampler = GraphSampler::new(&bench.inputs.graph, rci);
    let (mut forward_ns, mut topk_ns, mut rank_ns, mut mapped_topk_ns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for &v in sources.iter().take(TOPK_SOURCES) {
        // The whole call first, cold, as a miss request meets it. Its
        // parts are then timed warm, and ranking is what a second, warm
        // whole call takes beyond them: a difference of a few hundred
        // microseconds between ~100 ms runs only shows when all of them
        // find the same cache lines.
        let topk =
            || CloudWalker::try_single_source_topk(&bench.resident, v, inputs::TOPK_K as usize);
        let (ranked, t_ns) = timed_ns(topk);
        let (dists, c_ns) = timed_ns(|| CloudWalker::try_query_cohort(&bench.resident, v));
        let dists: StepDistributions = dists.map_err(|e| e.to_string())?;
        let (masses, f_ns) = timed_ns(|| queries::sparse_masses_on(&sampler, &dists, diag, cfg));
        black_box(masses);
        let (_, warm_ns) = timed_ns(topk);
        topk_ns.push(t_ns);
        forward_ns.push(f_ns);
        rank_ns.push(warm_ns - f_ns - c_ns);
        let (mapped_ranked, m_ns) = timed_ns(|| {
            CloudWalker::try_single_source_topk(&bench.mapped, v, inputs::TOPK_K as usize)
        });
        mapped_topk_ns.push(m_ns);
        out.tally(ranked == mapped_ranked, || format!("mapped top-k of {v} differs from resident"));
    }
    out.put("queries.forward_stage_ms", stats::median_of(&forward_ns) / 1e6);
    out.put("queries.topk_ms", stats::median_of(&topk_ns) / 1e6);
    out.put("queries.rank_self_us", stats::median_of(&rank_ns) / 1e3);
    out.put("store.mapped_topk_ms", stats::median_of(&mapped_topk_ns) / 1e6);
    Ok(cohorts)
}

/// The session cache by itself: a resident cohort's lookup, and what a
/// miss costs on top of the bare engine cohort it wraps.
fn session_layers(bench: &Bench<'_>, out: &mut RunReport) -> Result<(), String> {
    let sources = &bench.sources;
    let session = QuerySession::new(Arc::clone(&bench.resident), inputs::HOT_CACHE);
    let mut over_ns = Vec::new();
    for (k, &v) in sources.iter().take(32).enumerate() {
        // Whichever call touches a node's neighbourhood first pays for
        // the cold cache lines; alternating the order cancels that out
        // of the median difference.
        let session_call = || timed_ns(|| QuerySession::try_cohort(&session, v));
        let bare_call = || timed_ns(|| CloudWalker::try_query_cohort(&bench.resident, v));
        let ((fresh, miss_ns), (bare, bare_ns)) = if k % 2 == 0 {
            let first = session_call();
            (first, bare_call())
        } else {
            let first = bare_call();
            (session_call(), first)
        };
        out.tally(fresh.as_deref() == bare.as_ref(), || format!("session cohort of {v} differs"));
        over_ns.push(miss_ns - bare_ns);
    }
    out.put("session.miss_overhead_us", stats::median_of(&over_ns) / 1e3);
    let hit_ns: Vec<f64> = sources
        .iter()
        .take(32)
        .map(|&v| per_call_ns(|| drop(black_box(QuerySession::try_cohort(&session, v).ok()))))
        .collect();
    out.put("session.hit_us", stats::median_of(&hit_ns) / 1e3);
    Ok(())
}

fn codec_layers(
    bench: &Bench<'_>,
    cohorts: &[StepDistributions],
    out: &mut RunReport,
) -> Result<(), String> {
    let sources = &bench.sources;
    let req = QueryRequest::SinglePair { i: sources[0], j: sources[1] };
    let ranked =
        CloudWalker::try_single_source_topk(&bench.resident, sources[0], inputs::TOPK_K as usize)
            .map_err(|e| e.to_string())?;
    let biggest = cohorts.iter().max_by_key(|c| WireCodec::encoded_len(*c)).ok_or("no cohorts")?;
    let (score, ranked, cohort) = (
        QueryResponse::Score(0.125),
        QueryResponse::Ranked(ranked),
        QueryResponse::Cohort(biggest.clone()),
    );

    let frame_of = |env: Envelope| -> Vec<u8> { Envelope::to_bytes(&env) };
    out.put(
        "api.encode_req_us",
        per_call_ns(|| drop(black_box(frame_of(Envelope::request(1, &req))))) / 1e3,
    );
    let req_frame = frame_of(Envelope::request(1, &req));
    let decode = |frame: &[u8]| -> Option<Envelope> {
        let mut decoder = FrameDecoder::new(DEFAULT_MAX_FRAME);
        FrameDecoder::feed(&mut decoder, frame).ok().and_then(|(_, env)| env)
    };
    out.put(
        "api.decode_req_us",
        per_call_ns(|| {
            drop(black_box(decode(&req_frame).and_then(|e| Envelope::decode_request(&e).ok())))
        }) / 1e3,
    );
    out.put(
        "api.encode_resp_score_us",
        per_call_ns(|| drop(black_box(frame_of(Envelope::response(1, &score))))) / 1e3,
    );
    out.put(
        "api.encode_resp_ranked_us",
        per_call_ns(|| drop(black_box(frame_of(Envelope::response(1, &ranked))))) / 1e3,
    );
    out.put("api.resp_bytes_ranked", frame_of(Envelope::response(1, &ranked)).len() as f64);
    let cohort_frame = frame_of(Envelope::response(1, &cohort));
    out.put("api.resp_bytes_cohort", cohort_frame.len() as f64);
    out.put(
        "api.encode_resp_cohort_us",
        median_ns(15, || drop(black_box(frame_of(Envelope::response(1, &cohort))))) / 1e3,
    );
    let mut back = None;
    out.put(
        "api.decode_resp_cohort_us",
        median_ns(15, || {
            back = decode(&cohort_frame).and_then(|e| Envelope::decode_response(&e).ok())
        }) / 1e3,
    );
    out.tally(back.as_ref() == Some(&cohort), || {
        "cohort response does not survive the codec".into()
    });
    Ok(())
}

// ---- staged replay --------------------------------------------------------

/// An in-process `PascoServer` on its own thread.
struct LocalServer {
    handle: ServerHandle,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl LocalServer {
    fn serve_on_thread(session: Arc<QuerySession>) -> Result<LocalServer, String> {
        let config = ServerConfig { workers: inputs::SERVER_WORKERS, ..ServerConfig::default() };
        let service: Arc<dyn QueryService> = session;
        let server: PascoServer =
            PascoServer::bind("127.0.0.1:0", service, config).map_err(|e| format!("bind: {e}"))?;
        let handle: ServerHandle = PascoServer::handle(&server);
        let thread = std::thread::spawn(move || PascoServer::run(server));
        Ok(LocalServer { handle, thread: Some(thread) })
    }

    fn bound_addr(&self) -> SocketAddr {
        ServerHandle::addr(&self.handle)
    }

    fn counters(&self) -> ServerStats {
        ServerHandle::stats(&self.handle)
    }
}

impl Drop for LocalServer {
    fn drop(&mut self) {
        ServerHandle::shutdown(&self.handle);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Latencies of one pass, split by request kind, in nanoseconds.
#[derive(Default)]
struct Latencies {
    primary: Vec<f64>,
    secondary: Vec<f64>,
}

impl Latencies {
    fn note(&mut self, req: &QueryRequest, ns: f64) {
        if e2e::is_secondary(req) {
            self.secondary.push(ns);
        } else {
            self.primary.push(ns);
        }
    }
}

fn quantile_ms(samples: &mut [f64], q: f64) -> f64 {
    stats::sort_samples(samples);
    stats::quantile_sorted(samples, q) / 1e6
}

fn warm_session(session: &QuerySession, traffic: &Traffic) -> Result<(), String> {
    for &v in &traffic.warm {
        QuerySession::try_cohort(session, v).map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn staged_replay(
    bench: &Bench<'_>,
    workload: Workload,
    out: &mut RunReport,
    log: &mut SpanLog,
) -> Result<(), String> {
    let traffic = bench.inputs.traffic_for(workload);
    let replay_len = if workload.is_hot() { HOT_REPLAY_LEN } else { MISS_REPLAY_LEN };
    let replay_len = replay_len.min(traffic.requests.len() / 2);
    let walker: &Arc<CloudWalker> =
        if workload == Workload::ServeMapped { &bench.mapped } else { &bench.resident };
    let session_cfg = SessionConfig::new(traffic.cache);
    // Two replicas of the serving session: one behind the server, one
    // called directly. They see the same requests in the same order, so
    // their caches go through the same states.
    let served = Arc::new(QuerySession::with_config(Arc::clone(walker), session_cfg));
    let direct = QuerySession::with_config(Arc::clone(walker), session_cfg);
    std::thread::scope(|scope| {
        let warming = scope.spawn(|| warm_session(&served, &traffic));
        warm_session(&direct, &traffic)?;
        warming.join().expect("warm-up thread panicked")
    })?;
    let warm_stats: CacheStats = QuerySession::cache_stats(&served);
    let server = LocalServer::serve_on_thread(Arc::clone(&served))?;
    let mut client: PascoClient = cli::open_client(server.bound_addr())?;

    // A request that does no work: the wire, the reactor and the pool.
    let node = traffic
        .requests
        .first()
        .map(inputs::request_sources)
        .and_then(|s| s.first().copied())
        .unwrap_or(0);
    let noop = QueryRequest::SinglePair { i: node, j: node };
    let mut solo: Vec<f64> = (0..400)
        .map(|_| timed_ns(|| PascoClient::query(&mut client, noop.clone()).ok()).1)
        .collect();
    stats::sort_samples(&mut solo);
    let solo_p50 = stats::quantile_sorted(&solo, 0.5);
    out.put("server.noop_rtt_us", solo_p50 / 1e3);
    let duo_p50 = noop_rtt_with_two_clients(&server, &noop)?;
    out.put("server.conc_slowdown", duo_p50 / solo_p50);

    // Untraced pass: the second stretch of the list, latency only.
    let mut plain = Latencies::default();
    for req in &traffic.requests[replay_len..2 * replay_len] {
        let (answer, ns) = timed_ns(|| PascoClient::query(&mut client, req.clone()));
        let checked =
            answer.map_err(|e| e.to_string()).and_then(|r| answers::check_answer(req, &r));
        out.tally(checked.is_ok(), || format!("untraced {req:?}: {}", checked.unwrap_err()));
        // The direct replica follows, to keep both caches in step.
        drop(QueryService::execute(&direct, req.clone()));
        plain.note(req, ns);
    }
    out.put("client.primary_p50_ms", quantile_ms(&mut plain.primary, 0.5));
    out.put("client.primary_p99_ms", quantile_ms(&mut plain.primary, 0.99));
    out.put("client.secondary_p50_ms", quantile_ms(&mut plain.secondary, 0.5));
    out.put("client.secondary_p95_ms", quantile_ms(&mut plain.secondary, 0.95));

    // Traced pass: the first stretch, every layer replayed.
    let before: ServerStats = server.counters();
    let mut traced = Latencies::default();
    let (mut wire_self, mut session_self) = (Vec::new(), Vec::new());
    for (k, req) in traffic.requests[..replay_len].iter().enumerate() {
        // The three stages of one request run at different times, and
        // whichever runs first meets the coldest CPU caches. Rotating
        // the order keeps that out of the median self times.
        let (mut wire, mut exec, mut parts) = (None, None, None);
        for turn in 0..3 {
            match (k + turn) % 3 {
                0 => {
                    let start = log.now_ns();
                    let (answer, ns) = timed_ns(|| PascoClient::query(&mut client, req.clone()));
                    wire = Some((start, answer.map_err(|e| format!("traced {req:?}: {e}"))?, ns));
                }
                1 => exec = Some(timed_ns(|| QueryService::execute(&direct, req.clone()))),
                _ => {
                    parts = Some(engine_calls(bench, walker, &direct, workload.is_hot(), req)?);
                }
            }
        }
        let (start, answer, rtt_ns) = wire.ok_or("stage rotation skipped the wire")?;
        let (replayed, exec_ns) = exec.ok_or("stage rotation skipped the session")?;
        traced.note(req, rtt_ns);
        out.tally(replayed.as_ref() == Ok(&answer), || {
            format!("{req:?}: TCP and direct answers differ")
        });

        let root = log.root_span(k as u32 + 1, "client.query", start, rtt_ns as u64);
        let (frame, ns) = timed_ns(|| Envelope::to_bytes(&Envelope::request(k as u64, req)));
        log.child_span(root, "api.encode_req", ns as u64);
        let mut codec_ns = ns;
        let (_, ns) = timed_ns(|| {
            Envelope::from_bytes(&frame, DEFAULT_MAX_FRAME)
                .and_then(|e| Envelope::decode_request(&e))
        });
        log.child_span(root, "api.decode_req", ns as u64);
        codec_ns += ns;
        let session_span = log.child_span(root, "session.execute", exec_ns as u64);
        let mut inner_ns = 0.0;
        for (name, ns) in parts.unwrap_or_default() {
            log.child_span(session_span, name, ns as u64);
            inner_ns += ns;
        }
        // Self times as measured, before the span layout cuts an
        // overlong child: the cut would floor every noisy difference at
        // zero and bias the median.
        session_self.push(exec_ns - inner_ns);
        let (frame, ns) = timed_ns(|| Envelope::to_bytes(&Envelope::response(k as u64, &answer)));
        log.child_span(root, "api.encode_resp", ns as u64);
        codec_ns += ns;
        let (_, ns) = timed_ns(|| {
            Envelope::from_bytes(&frame, DEFAULT_MAX_FRAME)
                .and_then(|e| Envelope::decode_response(&e))
        });
        log.child_span(root, "api.decode_resp", ns as u64);
        codec_ns += ns;
        wire_self.push(rtt_ns - exec_ns - codec_ns);
    }
    let after: ServerStats = server.counters();
    let served_requests = (after.requests - before.requests).max(1) as f64;
    out.put("server.reads_per_req", (after.reads - before.reads) as f64 / served_requests);
    out.put("server.wakeups_per_req", (after.wakeups - before.wakeups) as f64 / served_requests);
    out.put("server.wire_self_us", stats::median_of(&wire_self) / 1e3);
    out.put("session.self_us", stats::median_of(&session_self) / 1e3);
    let traced_p50 = quantile_ms(&mut traced.primary, 0.5);
    out.put(
        "trace.overhead_ratio",
        traced_p50 / out.value_of("client.primary_p50_ms").unwrap_or(traced_p50),
    );

    // The workload must do what it claims: all hits, or all misses.
    let end_stats: CacheStats = QuerySession::cache_stats(&served);
    let lookups = (end_stats.lookups() - warm_stats.lookups()).max(1) as f64;
    let hit_rate = (end_stats.hits - warm_stats.hits) as f64 / lookups;
    out.put("session.hit_rate", hit_rate);
    out.put("session.evictions", (end_stats.evictions - warm_stats.evictions) as f64);
    let resident_cohorts = QuerySession::cached_cohorts(&served).max(1) as f64;
    out.put(
        "session.bytes_per_cohort",
        QuerySession::cached_bytes(&served) as f64 / resident_cohorts,
    );
    let as_claimed = if workload.is_hot() { hit_rate >= 0.99 } else { hit_rate <= 0.01 };
    out.tally(as_claimed, || format!("{} ran at a cache hit rate of {hit_rate}", workload.label()));
    Ok(())
}

/// Median no-op round trip with two clients asking at once.
fn noop_rtt_with_two_clients(server: &LocalServer, noop: &QueryRequest) -> Result<f64, String> {
    let mut both = Vec::new();
    let lanes: Vec<Result<Vec<f64>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let mut client: PascoClient = cli::open_client(server.bound_addr())?;
                    Ok((0..400)
                        .map(|_| timed_ns(|| PascoClient::query(&mut client, noop.clone()).ok()).1)
                        .collect())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("no-op client panicked")).collect()
    });
    for lane in lanes {
        both.extend(lane?);
    }
    Ok(stats::median_of(&both))
}

/// The calls the session makes on a request's behalf, replayed one by
/// one and timed: cache lookups on the hit path, bare engine cohorts on
/// the miss path, then the scoring or forward stage. They become the
/// children of the request's `session.execute` span.
fn engine_calls(
    bench: &Bench<'_>,
    walker: &CloudWalker,
    direct: &QuerySession,
    hit_path: bool,
    req: &QueryRequest,
) -> Result<Vec<(&'static str, f64)>, String> {
    let diag = CloudWalker::diagonal(walker).as_slice();
    let mut calls: Vec<(&'static str, f64)> = Vec::new();
    let mut cohort_of = |v: NodeId| -> Result<Arc<StepDistributions>, String> {
        if hit_path {
            let (got, ns) = timed_ns(|| QuerySession::try_cohort(direct, v));
            calls.push(("session.cohort_hit", ns));
            got.map_err(|e| e.to_string())
        } else {
            let (got, ns) = timed_ns(|| CloudWalker::try_query_cohort(walker, v));
            calls.push(("engine.query_cohort", ns));
            got.map(Arc::new).map_err(|e| e.to_string())
        }
    };
    let last = match req {
        QueryRequest::SinglePair { i, j } => {
            let (di, dj) = (cohort_of(*i)?, cohort_of(*j)?);
            let (_, ns) = timed_ns(|| black_box(queries::score_pair(&di, &dj, diag, bench.cfg.c)));
            Some(("queries.score_pair", ns))
        }
        QueryRequest::SingleSourceTopK { i, .. } => {
            let dists = cohort_of(*i)?;
            // The forward stage needs the resident sampling index; on
            // the mapped walker it stays inside the parent's self time.
            match (CloudWalker::graph(walker), CloudWalker::reverse_chain_index(walker)) {
                (Some(graph), Some(rci)) => {
                    let sampler = GraphSampler::new(graph, rci);
                    let (masses, ns) =
                        timed_ns(|| queries::sparse_masses_on(&sampler, &dists, diag, &bench.cfg));
                    black_box(masses);
                    Some(("queries.forward_stage", ns))
                }
                _ => None,
            }
        }
        QueryRequest::Cohort { v } => {
            let dists = cohort_of(*v)?;
            let (copy, ns) = timed_ns(|| StepDistributions::clone(&dists));
            black_box(copy);
            Some(("session.cohort_clone", ns))
        }
        _ => None,
    };
    calls.extend(last);
    Ok(calls)
}
