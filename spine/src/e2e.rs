//! The end-to-end runs, tracing off: real `pasco` child processes, driven
//! the way a user drives them — the CLI for the offline build, TCP
//! through `PascoClient` for serving.
//!
//! Load is closed-loop: a SimRank caller (a recommender, a dedup pass)
//! waits for its answer before it asks again, so each client thread
//! sends its next request when the previous one returns. A round is a
//! fixed request list; every timing is a median inside the round, and
//! the run reports the median across rounds, so one scheduler stall on a
//! shared box costs one sample, not the result.

use crate::answers;
use crate::cli::{PascoBin, ServeChild};
use crate::inputs::{self, Inputs, Traffic, Workload};
use crate::procfs;
use crate::report::RunReport;
use crate::stats;
use pasco_server::PascoClient;
use pasco_simrank::{CloudWalker, QueryRequest, QueryResponse, SimRankConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Whether `setup_s` has enough samples: at least five set-ups, and —
/// because a resident server is up in 40 ms, where one scheduler hiccup
/// is a quarter of the number — more of the cheap ones, until two
/// seconds have gone into them or there are fifteen.
fn enough_setups(setups: &[f64]) -> bool {
    setups.len() >= 5 && (setups.len() >= 15 || setups.iter().sum::<f64>() >= 2.0)
}
/// How many leading answers are kept and compared, byte for byte, with
/// the in-process engine's.
pub const REFERENCE_ANSWERS: usize = 64;

/// Client threads (and connections) of the serving workloads.
pub fn client_count() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from).min(2)
}

/// Runs one workload end to end for about `seconds` of measurement.
pub fn run_end_to_end(
    bin: &PascoBin,
    inputs: &Inputs,
    workload: Workload,
    seconds: f64,
) -> RunReport {
    let t0 = Instant::now();
    let mut out = RunReport::begin(workload, false);
    let result = match workload {
        Workload::Build => measure_build(bin, inputs, seconds, &mut out),
        _ => measure_serving(bin, inputs, workload, seconds, &mut out),
    };
    if let Err(why) = result {
        out.tally(false, || why);
    }
    out.seal(t0.elapsed().as_secs_f64());
    out
}

fn put_rounds(out: &mut RunReport, name: &'static str, per_round: &[f64]) {
    out.put(name, stats::median_of(per_round));
    out.put_detail(name, stats::summarize(per_round));
}

// ---- build ----------------------------------------------------------------

fn measure_build(
    bin: &PascoBin,
    inputs: &Inputs,
    seconds: f64,
    out: &mut RunReport,
) -> Result<(), String> {
    let n = f64::from(pasco_graph::CsrGraph::node_count(&inputs.graph));
    let graph_bytes = std::fs::read(&inputs.graph_path).map_err(|e| e.to_string())?;

    // Set-up of the offline pipeline is getting the graph onto disk.
    let again = inputs.dir.join("g-setup.bin").to_string_lossy().into_owned();
    let mut setups = Vec::new();
    while !enough_setups(&setups) {
        let bill = bin.run_to_exit(&inputs::as_strs(&inputs::generate_args(
            inputs.seed,
            inputs.scale,
            &again,
        )))?;
        setups.push(bill.wall_s);
        let same = std::fs::read(&again).is_ok_and(|b| b == graph_bytes);
        out.tally(same, || "pasco generate wrote different bytes for the same seed".into());
    }
    put_rounds(out, "setup_s", &setups);

    let (mut wall_ms, mut store_ms, mut nodes_per_s, mut cpu_ms_per_node, mut rss_mb) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut first_index: Option<Vec<u8>> = None;
    let t0 = Instant::now();
    while wall_ms.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        let bill = bin.run_to_exit(&[
            "index",
            "--graph",
            &inputs.graph_path,
            "--out",
            &inputs.index_path,
        ])?;
        out.tally(bill.stdout.contains("indexed"), || {
            format!("pasco index said `{}`", bill.stdout)
        });
        wall_ms.push(bill.wall_s * 1e3);
        nodes_per_s.push(n / bill.wall_s);
        cpu_ms_per_node.push(bill.cpu_s * 1e3 / n);
        rss_mb.push(bill.peak_rss_kb as f64 / 1024.0);
        // Every build of the same graph must write the same index.
        let bytes = std::fs::read(&inputs.index_path).map_err(|e| e.to_string())?;
        let same = first_index.as_ref().is_none_or(|first| *first == bytes);
        out.tally(same, || "pasco index wrote different bytes on a rerun".into());
        first_index.get_or_insert(bytes);
        // `save-store` is a tenth of a second: three per round, so its
        // median rests on more than a handful of samples.
        for _ in 0..3 {
            let stored = inputs.write_store_via_cli(bin)?;
            out.tally(stored.stdout.contains("saved"), || {
                format!("pasco save-store said `{}`", stored.stdout)
            });
            store_ms.push(stored.wall_s * 1e3);
        }
    }
    put_rounds(out, "primary_p50_ms", &wall_ms);
    put_rounds(out, "secondary_p50_ms", &store_ms);
    put_rounds(out, "ops_per_s", &nodes_per_s);
    put_rounds(out, "cpu_ms_per_op", &cpu_ms_per_node);
    put_rounds(out, "peak_rss_mb", &rss_mb);

    // The artefacts must be usable: the index loads, every entry is a
    // diagonal correction in (0, 1], and the store reopens to the same
    // diagonal bit for bit.
    let diag = pasco_simrank::persist::load_index(&inputs.index_path).map_err(|e| e.to_string())?;
    let plausible =
        diag.len() == n as usize && diag.as_slice().iter().all(|&x| x > 0.0 && x <= 1.0);
    out.tally(plausible, || "index diagonal outside (0, 1] or of the wrong length".into());
    let mapped: CloudWalker =
        CloudWalker::open_store(&inputs.store_dir, SimRankConfig::default_paper())
            .map_err(|e| e.to_string())?;
    let same = answers::same_bits(CloudWalker::diagonal(&mapped).as_slice(), diag.as_slice());
    out.tally(same, || "store diagonal differs from the index it was saved from".into());
    let edges = pasco_graph::CsrGraph::edge_count(&inputs.graph) as f64;
    let store_bytes = inputs::dir_bytes(&inputs.store_dir) as f64;
    out.put_detail("store_bytes_per_edge", stats::summarize(&[store_bytes / edges]));
    Ok(())
}

// ---- serving --------------------------------------------------------------

fn server_args(inputs: &Inputs, workload: Workload, cache: usize) -> Vec<String> {
    let mut args: Vec<String> = match workload {
        Workload::ServeMapped => vec!["--store".into(), inputs.store_dir.clone()],
        _ => vec![
            "--graph".into(),
            inputs.graph_path.clone(),
            "--index".into(),
            inputs.index_path.clone(),
        ],
    };
    args.extend(["--cache".into(), cache.to_string()]);
    args.extend(["--workers".into(), inputs::SERVER_WORKERS.to_string()]);
    args
}

/// One request's outcome inside a round.
#[derive(Clone, Copy, Debug)]
struct Shot {
    secondary: bool,
    latency_ms: f64,
    digest: u64,
    ok: bool,
}

/// One round's raw results.
struct Round {
    wall_s: f64,
    shots: Vec<Shot>,
    kept: Vec<(usize, QueryResponse)>,
    faults: Vec<String>,
}

/// Whether a request is the workload's second, heavier kind.
pub fn is_secondary(req: &QueryRequest) -> bool {
    !matches!(req, QueryRequest::SinglePair { .. })
}

/// Sends `requests` through the clients. Each client is closed-loop and
/// takes the next unsent request when its previous answer arrives, so a
/// client that drew a run of cheap requests does not sit idle while the
/// other works through expensive ones. Answers to the first `keep`
/// requests are retained for the reference comparison.
fn play_round(clients: &mut [PascoClient], requests: &[QueryRequest], keep: usize) -> Round {
    let gate = Barrier::new(clients.len() + 1);
    let next = AtomicUsize::new(0);
    let (t0, lanes_out) = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let (gate, next) = (&gate, &next);
                scope.spawn(move || {
                    let mut shots = Vec::new();
                    let mut kept = Vec::new();
                    let mut faults = Vec::new();
                    Barrier::wait(gate);
                    loop {
                        let at = next.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = requests.get(at) else { break };
                        let wire_req = req.clone();
                        let sent = Instant::now();
                        let answer = PascoClient::query(client, wire_req);
                        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
                        let (digest, ok) = match &answer {
                            Ok(resp) => match answers::check_answer(req, resp) {
                                Ok(digest) => (digest, true),
                                Err(why) => {
                                    faults.push(format!("request {at} {req:?}: {why}"));
                                    (0, false)
                                }
                            },
                            Err(e) => {
                                faults.push(format!("request {at} {req:?}: {e}"));
                                (0, false)
                            }
                        };
                        shots.push((
                            at,
                            Shot { secondary: is_secondary(req), latency_ms, digest, ok },
                        ));
                        if let (true, Ok(resp)) = (at < keep, answer) {
                            kept.push((at, resp));
                        }
                    }
                    (shots, kept, faults)
                })
            })
            .collect();
        Barrier::wait(&gate);
        let t0 = Instant::now();
        let lanes_out: Vec<_> =
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
        (t0, lanes_out)
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut indexed: Vec<(usize, Shot)> = Vec::with_capacity(requests.len());
    let mut round = Round { wall_s, shots: Vec::new(), kept: Vec::new(), faults: Vec::new() };
    for (shots, kept, faults) in lanes_out {
        indexed.extend(shots);
        round.kept.extend(kept);
        round.faults.extend(faults);
    }
    indexed.sort_by_key(|&(at, _)| at);
    round.kept.sort_by_key(|&(at, _)| at);
    round.shots = indexed.into_iter().map(|(_, shot)| shot).collect();
    round
}

/// Spawns the server, connects the clients and waits for the first real
/// answer (and, on the hot workload, warms the hot set): everything a
/// restarted deployment pays before it is useful. Returns the elapsed
/// seconds with the live server and clients.
fn set_up_server(
    bin: &PascoBin,
    args: &[String],
    traffic: &Traffic,
) -> Result<(f64, ServeChild, Vec<PascoClient>), String> {
    let t0 = Instant::now();
    let serve: ServeChild = bin.spawn_server(&inputs::as_strs(args))?;
    let mut clients: Vec<PascoClient> = Vec::new();
    for _ in 0..client_count() {
        clients.push(serve.connect_client()?);
    }
    PascoClient::query(&mut clients[0], traffic.requests[0].clone())
        .map_err(|e| format!("first request: {e}"))?;
    if !traffic.warm.is_empty() {
        // Pairs warm two cohorts per 8-byte answer.
        let warmers: Vec<QueryRequest> = traffic
            .warm
            .chunks(2)
            .map(|p| QueryRequest::SinglePair { i: p[0], j: p[p.len() - 1] })
            .collect();
        let warm = play_round(&mut clients, &warmers, 0);
        if let Some(fault) = warm.faults.first() {
            return Err(format!("warm-up: {fault}"));
        }
    }
    Ok((t0.elapsed().as_secs_f64(), serve, clients))
}

fn measure_serving(
    bin: &PascoBin,
    inputs: &Inputs,
    workload: Workload,
    seconds: f64,
    out: &mut RunReport,
) -> Result<(), String> {
    let traffic = inputs.traffic_for(workload);
    let args = server_args(inputs, workload, traffic.cache);
    // A workload must be what it claims before it is worth timing: the
    // hot list fits its cache, the miss lists dwarf theirs.
    let sources = traffic.distinct_sources();
    let shaped =
        if workload.is_hot() { sources <= traffic.cache } else { sources >= 8 * traffic.cache };
    out.tally(shaped, || format!("{sources} sources against a cache of {}", traffic.cache));

    let mut setups = Vec::new();
    let mut live: Option<(ServeChild, Vec<PascoClient>)> = None;
    while !enough_setups(&setups) {
        if let Some((serve, clients)) = live.take() {
            drop(clients);
            let drained = serve.drain_and_reap();
            out.tally(drained.is_ok(), || drained.unwrap_err());
        }
        let (setup_s, serve, clients) = set_up_server(bin, &args, &traffic)?;
        setups.push(setup_s);
        live = Some((serve, clients));
    }
    put_rounds(out, "setup_s", &setups);
    let (serve, mut clients) = live.ok_or("no server was set up")?;
    let pid = serve.server_pid();

    let (mut qps, mut primary, mut secondary, mut cpu_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut primary_p99, mut secondary_p95) = (Vec::new(), Vec::new());
    let mut reference: Vec<(usize, QueryResponse)> = Vec::new();
    let first_round = traffic.round_slice(0);
    let budget = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    let mut rounds = 0;
    while rounds == 0 || t0.elapsed() < budget {
        let requests = traffic.round_slice(rounds);
        let keep = if rounds == 0 { REFERENCE_ANSWERS } else { 0 };
        let cpu_before = procfs::read_stat_line(pid).ok_or("server vanished")?.cpu_seconds();
        let round = play_round(&mut clients, &requests, keep);
        let cpu_after = procfs::read_stat_line(pid).ok_or("server vanished")?.cpu_seconds();
        let count = requests.len() as f64;
        qps.push(count / round.wall_s);
        cpu_ms.push((cpu_after - cpu_before) * 1e3 / count);
        let mut lat = [Vec::new(), Vec::new()];
        for shot in &round.shots {
            lat[usize::from(shot.secondary)].push(shot.latency_ms);
        }
        for side in &mut lat {
            stats::sort_samples(side);
        }
        primary.push(stats::quantile_sorted(&lat[0], 0.5));
        secondary.push(stats::quantile_sorted(&lat[1], 0.5));
        primary_p99.push(stats::quantile_sorted(&lat[0], 0.99));
        secondary_p95.push(stats::quantile_sorted(&lat[1], 0.95));
        out.attempted += round.shots.len() as u64;
        let bad = round.shots.iter().filter(|s| !s.ok).count() as u64;
        out.failed += bad;
        out.failures.extend(round.faults.into_iter().take(4));
        if rounds == 0 {
            let mut fnv = stats::AnswerHash::offset_basis();
            for shot in &round.shots {
                fnv.absorb_word(shot.digest);
            }
            out.answers_fnv = Some(fnv.digest());
            reference = round.kept;
        }
        rounds += 1;
    }
    put_rounds(out, "primary_p50_ms", &primary);
    put_rounds(out, "secondary_p50_ms", &secondary);
    put_rounds(out, "ops_per_s", &qps);
    put_rounds(out, "cpu_ms_per_op", &cpu_ms);
    out.put_detail("primary_p99_ms", stats::summarize(&primary_p99));
    out.put_detail("secondary_p95_ms", stats::summarize(&secondary_p95));
    let peak_kb =
        procfs::read_peak_rss_kb(pid).ok_or("server vanished before its memory was read")?;
    out.put("peak_rss_mb", peak_kb as f64 / 1024.0);

    drop(clients);
    let drained = serve.drain_and_reap();
    out.tally(drained.is_ok(), || drained.unwrap_err());

    // The wire must not change an answer: the leading answers equal the
    // in-process resident engine's, byte for byte — on `serve_mapped`
    // that is also mapped == resident.
    let walker = answers::reference_walker(inputs)?;
    for (at, got) in &reference {
        let same = answers::same_as_engine(&walker, &first_round[*at], got);
        out.tally(same.is_ok(), || {
            format!("request {at} {:?}: {}", first_round[*at], same.unwrap_err())
        });
    }
    Ok(())
}
