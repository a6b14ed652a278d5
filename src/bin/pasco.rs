//! `pasco` — command-line interface to the CloudWalker reproduction.
//!
//! ```text
//! pasco generate --model rmat --scale 14 --edges 100000 --seed 7 --out g.bin
//! pasco stats    --graph g.bin
//! pasco index    --graph g.bin --out g.idx [--mode local|broadcast|rdd]
//!                [--seed N]
//! pasco sp       --graph g.bin --index g.idx --i 3 --j 99
//! pasco ss       --graph g.bin --index g.idx --i 3 [--top 10]
//! pasco topk     --graph g.bin --index g.idx --i 3 --k 10
//! pasco pairs    --graph g.bin --index g.idx --nodes 1,5,9 [--cache 1024]
//! pasco convert  --in edges.txt --out g.bin      (edge list -> binary, or back)
//! pasco save-store --graph g.bin --index g.idx --out store/ --parts 4
//! pasco sp       --store store/ --i 3 --j 99     (any query cmd; O(1) open)
//! pasco serve    --graph g.bin --index g.idx --addr 127.0.0.1:7878
//!                [--mode local|broadcast|rdd|distributed] [--cache N]
//!                [--workers N]
//! pasco query    --connect 127.0.0.1:7878 --kind sp --i 3 --j 99
//! pasco query    --connect 127.0.0.1:7878 --kind shutdown   (drain the server)
//! pasco worker   --addr 127.0.0.1:9000    (a SimRank worker process; drain it
//!                with `pasco query --connect 127.0.0.1:9000 --kind shutdown`)
//! ```
//!
//! Query subcommands also accept `--mode`, so a persisted index can be
//! served from any substrate (`--store <dir>` serves a saved shard store),
//! and `--mode distributed --workers host:port,host:port` runs the build
//! and every query on real worker processes over TCP — bit-identical
//! output. A flag that a subcommand's usage does not list is refused
//! before the subcommand runs.
//!
//! Graphs are read as the binary format when the file starts with the
//! `PASCOGR1` magic, otherwise as a whitespace edge list.
//!
//! Every query subcommand goes through the typed
//! [`QueryService`] front door: the CLI builds a [`QueryRequest`],
//! executes it, and matches the [`QueryResponse`] — bounds checking lives
//! in the API layer ([`pasco::simrank::QueryError`]), not here.

use pasco::cluster::ClusterConfig;
use pasco::graph::partition::Partitioner;
use pasco::graph::stats::{degree_stats, human_bytes, Direction};
use pasco::graph::{io, CsrGraph, InLinks, WalkAdjacency};
use pasco::server::{PascoClient, PascoServer, ServerConfig};
use pasco::simrank::api::{QueryRequest, QueryResponse, QueryService};
use pasco::simrank::engine::kernel::{build_diagonal_on, check_build};
use pasco::simrank::{persist, queries, CloudWalker, ExecMode, QuerySession, SimRankConfig};
use std::collections::BTreeMap;
use std::io::Read;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, flags)) = parse(&args) else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "help" | "--help" | "-h" => emit(format_args!("{USAGE}")),
        name => match COMMANDS.iter().find(|c| c.0 == name) {
            Some(&(_, run, known)) => {
                check_flags(name, &flags, known).and_then(|flags| run(&flags))
            }
            None => Err(format!("unknown command `{name}`\n{USAGE}")),
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
pasco — CloudWalker SimRank (PASCO reproduction)

USAGE:
  pasco generate --model <er|ba|rmat|ws> --out <file> [--nodes N] [--scale S]
                 [--edges M] [--edges-per-node N (ba)] [--k N (ws)] [--seed N]
  pasco stats    --graph <file>
  pasco index    --graph <file> --out <file>
                 [--mode local|broadcast|rdd|distributed]
                 [--workers host:port,...] CONFIG
  pasco sp       SOURCE CONFIG --i <node> --j <node>
  pasco ss       SOURCE CONFIG --i <node> [--top K]
  pasco topk     SOURCE CONFIG --i <node> --k <K>   (TSV out)
  pasco pairs    SOURCE CONFIG --nodes <a,b,c,...> [--cache N]
  pasco convert  --in <file> --out <file>   (.txt <-> .bin by extension)
  pasco save-store --graph <file> --out <dir> [--parts N] [--index <file>]
                 CONFIG   (omit --index to build one first)
  pasco serve    SOURCE CONFIG --addr <host:port> [--cache N] [--workers N]
                 [--max-frame BYTES] [--max-conns N] [--io-timeout SECS]
                 (distributed: --workers host:port,... and --pool N for the
                 server's execution pool)
  pasco query    --connect <host:port> --kind <sp|ss|topk|shutdown>
                 [--i N] [--j N] [--k K (topk)] [--top N (ss)]
  pasco worker   --addr <host:port> [--max-frame BYTES]

  SOURCE: --graph <file> --index <file> [--mode local|broadcast|rdd|distributed]
          [--workers host:port,...], or --store <dir> [--mode distributed
          --workers host:port,...]
  CONFIG: [--seed N] [--c F] [--t N] [--l N] [--r N] [--r-query N]
  A flag that a command does not list above is refused.

  Query subcommands (sp/ss/topk/pairs) take --mode to pick the serving
  substrate; results are bit-identical across substrates — including
  over the network: `pasco serve` + `pasco query --connect` speak the
  versioned envelope protocol over TCP.

  A real cluster: start `pasco worker` processes, then run index/sp/ss/
  topk/pairs/serve with `--mode distributed --workers host:port,host:port`.
  The coordinator ships one graph partition per worker and routes every
  query to its owner; answers stay bit-identical to --mode local. Drain a
  worker with `pasco query --connect <worker> --kind shutdown`.

  Out of core: `pasco save-store` writes one mmap-ready shard file per
  partition (diagonal included). Query/serve commands then take
  `--store <dir>` instead of --graph/--index: the store is mapped in
  place, reopen cost is O(1) in edge volume, and answers stay
  bit-identical. With `--mode distributed` each worker maps only its own
  shard of the same directory — no partition bytes cross the wire.
";

/// USAGE's SOURCE flags: where a query command's engine comes from.
const SOURCE: &[&str] = &["graph", "index", "store", "mode", "workers"];
/// USAGE's CONFIG flags: the SimRank parameters ([`sim_config`]).
const CONFIG: &[&str] = &["seed", "c", "t", "l", "r", "r-query"];

/// A subcommand: its name, its body, and the flags USAGE lists for it.
type Command = (&'static str, fn(&Flags) -> Result<(), String>, &'static [&'static [&'static str]]);

const COMMANDS: &[Command] = &[
    (
        "generate",
        cmd_generate,
        &[&["model", "out", "nodes", "scale", "edges", "edges-per-node", "k", "seed"]],
    ),
    ("stats", cmd_stats, &[&["graph"]]),
    ("index", cmd_index, &[&["graph", "out", "mode", "workers"], CONFIG]),
    ("save-store", cmd_save_store, &[&["graph", "out", "parts", "index"], CONFIG]),
    ("sp", cmd_sp, &[SOURCE, CONFIG, &["i", "j"]]),
    ("ss", cmd_ss, &[SOURCE, CONFIG, &["i", "top"]]),
    ("topk", cmd_topk, &[SOURCE, CONFIG, &["i", "k"]]),
    ("pairs", cmd_pairs, &[SOURCE, CONFIG, &["nodes", "cache"]]),
    ("convert", cmd_convert, &[&["in", "out"]]),
    (
        "serve",
        cmd_serve,
        &[SOURCE, CONFIG, &["addr", "cache", "pool", "max-frame", "max-conns", "io-timeout"]],
    ),
    ("query", cmd_query, &[&["connect", "kind", "i", "j", "k", "top"]]),
    ("worker", cmd_worker, &[&["addr", "max-frame"]]),
];

type Flags = BTreeMap<String, String>;

/// The command and its `--name value` pairs, in the order given.
fn parse(args: &[String]) -> Option<(String, Vec<(&str, &str)>)> {
    let cmd = args.first()?.clone();
    let mut flags = Vec::new();
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        flags.push((flag.strip_prefix("--")?, it.next()?.as_str()));
    }
    Some((cmd, flags))
}

/// The flags by name, or the first (by name) that `known` does not list or
/// that is given twice: a mistyped, retired or repeated flag fails before
/// any work instead of being ignored or silently overridden.
fn check_flags(cmd: &str, flags: &[(&str, &str)], known: &[&[&str]]) -> Result<Flags, String> {
    let mut checked = Flags::new();
    for &(name, value) in flags {
        if !known.iter().any(|set| set.contains(&name)) {
            return Err(format!("unknown flag --{name} for `pasco {cmd}` (see `pasco help`)"));
        }
        if checked.insert(name.to_string(), value.to_string()).is_some() {
            return Err(format!("flag --{name} given twice to `pasco {cmd}`"));
        }
    }
    Ok(checked)
}

/// Writes command output to stdout ([`out!`] and [`outln!`]). A reader that
/// closed it early (`pasco stats … | head -3`) ends the command quietly
/// with status 0; any other write error is the command's error.
fn emit(args: std::fmt::Arguments<'_>) -> Result<(), String> {
    use std::io::Write as _;
    match std::io::stdout().write_fmt(args) {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        other => other.map_err(|e| format!("stdout: {e}")),
    }
}

/// Writes a server's `listening on` line and flushes it, even when stdout
/// is a pipe: scripts discover an ephemeral port from it. Unlike [`emit`],
/// a closed stdout is an error here — a server nobody can find has not
/// succeeded.
fn announce(args: std::fmt::Arguments<'_>) -> Result<(), String> {
    use std::io::Write as _;
    let mut stdout = std::io::stdout().lock();
    stdout.write_fmt(args).and_then(|()| stdout.flush()).map_err(|e| format!("stdout: {e}"))
}

/// `print!` through [`emit`]: `?` it.
macro_rules! out {
    ($($arg:tt)*) => { emit(format_args!($($arg)*)) };
}

/// `println!` through [`emit`]: `?` it.
macro_rules! outln {
    () => { emit(format_args!("\n")) };
    ($($arg:tt)*) => { emit(format_args!("{}\n", format_args!($($arg)*))) };
}

fn get<'a>(flags: &'a Flags, key: &str) -> Result<&'a str, String> {
    flags.get(key).map(|s| s.as_str()).ok_or_else(|| format!("missing --{key}"))
}

fn get_num<T: std::str::FromStr>(flags: &Flags, key: &str, default: T) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(s) => s.parse().map_err(|_| format!("--{key}: cannot parse `{s}`")),
    }
}

/// [`get_num`] for a flag that must not be zero.
fn get_positive<T>(flags: &Flags, key: &str, default: T) -> Result<T, String>
where
    T: std::str::FromStr + PartialEq + From<u8>,
{
    let value = get_num(flags, key, default)?;
    if value == T::from(0) {
        return Err(format!("--{key} must be positive"));
    }
    Ok(value)
}

fn is_binary(path: &str) -> Result<bool, String> {
    let mut head = Vec::with_capacity(8);
    let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    file.take(8).read_to_end(&mut head).map_err(|e| format!("{path}: {e}"))?;
    Ok(head.starts_with(b"PASCOGR1"))
}

fn load_graph(path: &str) -> Result<CsrGraph, String> {
    if is_binary(path)? {
        io::read_binary(path).map_err(|e| e.to_string())
    } else {
        io::read_edge_list(path).map_err(|e| e.to_string())
    }
}

fn cmd_generate(flags: &Flags) -> Result<(), String> {
    use pasco::graph::generators as g;
    let model = get(flags, "model")?;
    let out = get(flags, "out")?;
    let seed: u64 = get_num(flags, "seed", 42)?;
    let graph = match model {
        "er" => {
            let n: u32 = get_num(flags, "nodes", 10_000)?;
            let m: u64 = get_num(flags, "edges", (n as u64) * 8)?;
            g::erdos_renyi(n, m, seed)
        }
        "ba" => {
            let n: u32 = get_num(flags, "nodes", 10_000)?;
            let per: u32 = get_num(flags, "edges-per-node", 8)?;
            g::barabasi_albert(n, per, seed)
        }
        "rmat" => {
            let scale: u32 = get_num(flags, "scale", 14)?;
            let m: u64 = get_num(flags, "edges", (1u64 << scale) * 8)?;
            g::rmat(scale, m, g::RmatParams::default(), seed)
        }
        "ws" => {
            let n: u32 = get_num(flags, "nodes", 10_000)?;
            let k: u32 = get_num(flags, "k", 8)?;
            g::watts_strogatz(n, k, 0.1, seed)
        }
        other => return Err(format!("unknown model `{other}` (er|ba|rmat|ws)")),
    };
    io::write_binary(&graph, out).map_err(|e| e.to_string())?;
    outln!(
        "wrote {out}: {} nodes, {} edges, {}",
        graph.node_count(),
        graph.edge_count(),
        human_bytes(graph.memory_bytes())
    )?;
    Ok(())
}

fn cmd_stats(flags: &Flags) -> Result<(), String> {
    let graph = load_graph(get(flags, "graph")?)?;
    outln!("nodes:  {}", graph.node_count())?;
    outln!("edges:  {}", graph.edge_count())?;
    outln!("memory: {}", human_bytes(graph.memory_bytes()))?;
    for (label, dir) in [("in", Direction::In), ("out", Direction::Out)] {
        let s = degree_stats(&graph, dir);
        outln!(
            "{label}-degree: min {} p50 {} p90 {} p99 {} max {} mean {:.2} zeros {}",
            s.min,
            s.p50,
            s.p90,
            s.p99,
            s.max,
            s.mean,
            s.zeros
        )?;
    }
    Ok(())
}

fn sim_config(flags: &Flags) -> Result<SimRankConfig, String> {
    let mut cfg = SimRankConfig::default_paper();
    cfg.c = get_num(flags, "c", cfg.c)?;
    cfg.t = get_num(flags, "t", cfg.t)?;
    cfg.l = get_num(flags, "l", cfg.l)?;
    cfg.r = get_num(flags, "r", cfg.r)?;
    cfg.r_query = get_num(flags, "r-query", cfg.r_query)?;
    cfg.seed = get_num(flags, "seed", cfg.seed)?;
    cfg.validate().map_err(|e| e.to_string())?;
    Ok(cfg)
}

/// Parses `--mode` (with `--workers` for the distributed substrate).
fn exec_mode(flags: &Flags) -> Result<ExecMode, String> {
    match flags.get("mode").map(|s| s.as_str()).unwrap_or("local") {
        "local" => Ok(ExecMode::Local),
        "broadcast" => Ok(ExecMode::Broadcast(ClusterConfig::paper_like())),
        "rdd" => Ok(ExecMode::Rdd(ClusterConfig::paper_like())),
        "distributed" => {
            let workers: Vec<String> = get(flags, "workers")
                .map_err(|_| "--mode distributed needs --workers host:port,host:port,...")?
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect();
            if workers.is_empty() {
                return Err("--workers needs at least one address".into());
            }
            Ok(ExecMode::Distributed { workers })
        }
        other => Err(format!("unknown mode `{other}` (local|broadcast|rdd|distributed)")),
    }
}

fn cmd_index(flags: &Flags) -> Result<(), String> {
    let path = get(flags, "graph")?;
    let out = get(flags, "out")?;
    let cfg = sim_config(flags)?;
    let mode = exec_mode(flags)?;
    if let ExecMode::Local = mode {
        return index_local(path, out, &cfg);
    }
    let graph = Arc::new(load_graph(path)?);
    let t0 = Instant::now();
    let (cw, stats) = CloudWalker::build_with_stats(graph, cfg, mode).map_err(|e| e.to_string())?;
    persist::save_index(cw.diagonal(), out).map_err(|e| e.to_string())?;
    let residuals = &stats.jacobi_residuals;
    print_indexed(cw.diagonal().len(), t0, cw.mode_name(), residuals, out)?;
    if let Some(per_shard) = cw.shard_footprints() {
        let max = per_shard.iter().copied().max().unwrap_or(0);
        outln!(
            "shards: {} ({} total, {} max/shard)",
            per_shard.len(),
            human_bytes(per_shard.iter().sum()),
            human_bytes(max)
        )?;
    }
    if let Some(stats) = cw.worker_stats() {
        for (w, s) in stats.iter().enumerate() {
            match s {
                Ok(s) => outln!(
                    "worker {}: owns {} nodes ({}), {} resident, {} builds",
                    s.owned_part,
                    s.owned_nodes,
                    human_bytes(s.owned_bytes),
                    human_bytes(s.resident_bytes),
                    s.builds
                )?,
                Err(e) => outln!("worker {w}: UNREACHABLE ({e})")?,
            }
        }
        if let Some(report) = cw.cluster_report() {
            outln!(
                "wire: {} shuffled over {} messages",
                human_bytes(report.shuffle_bytes),
                report.shuffle_records
            )?;
        }
    }
    Ok(())
}

/// A graph file's in-links alone (an edge list is parsed whole, then
/// reduced).
fn load_in_links(path: &str) -> Result<InLinks, String> {
    match is_binary(path)? {
        true => io::read_in_links(path),
        false => io::read_edge_list(path).map(CsrGraph::into_in_links),
    }
    .map_err(|e| e.to_string())
}

/// Local `pasco index` holds only the in-links and the build kernel frees
/// them before its sweeps.
fn index_local(path: &str, out: &str, cfg: &SimRankConfig) -> Result<(), String> {
    let in_links = load_in_links(path)?;
    check_build(cfg, in_links.node_count()).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let built = build_diagonal_on(in_links, cfg).map_err(|e| e.to_string())?;
    persist::save_index(&built.diag, out).map_err(|e| e.to_string())?;
    print_indexed(built.diag.len(), t0, "local", &built.residuals, out)?;
    Ok(())
}

fn print_indexed(
    nodes: usize,
    t0: Instant,
    engine: &str,
    residuals: &[f64],
    out: &str,
) -> Result<(), String> {
    outln!(
        "indexed {nodes} nodes in {:.2?} on the {engine} engine (residual {:.2e}); index -> {out}",
        t0.elapsed(),
        residuals.last().copied().unwrap_or(0.0)
    )
}

fn load_engine(flags: &Flags) -> Result<CloudWalker, String> {
    let cfg = sim_config(flags)?;
    // `--store <dir>` serves straight from a mapped shard store: no
    // graph file, no index file, no resident CSR — the directory is the
    // index. Plain opens run on the mapped engine; `--mode distributed`
    // has each worker map its own shard of the same directory.
    if let Some(dir) = flags.get("store") {
        return match flags.get("mode").map(|s| s.as_str()) {
            None | Some("mapped") => CloudWalker::open_store(dir, cfg),
            Some("distributed") => {
                let ExecMode::Distributed { workers } = exec_mode(flags)? else {
                    unreachable!("mode `distributed` parses to Distributed");
                };
                CloudWalker::open_store_distributed(dir, cfg, &workers)
            }
            Some(other) => {
                return Err(format!(
                    "--store serves the mapped substrate (or distributed workers); \
                     `--mode {other}` needs --graph/--index instead"
                ))
            }
        }
        .map_err(|e| e.to_string());
    }
    let (path, mode) = (get(flags, "graph")?, exec_mode(flags)?);
    let index = || persist::load_index(get(flags, "index")?).map_err(|e| e.to_string());
    // Below the forward stage's arm point every local query reads the
    // in-links alone: hold nothing else. Past it the file is read again,
    // whole, for the walks' out-links and sampling index.
    if let ExecMode::Local = mode {
        let links = load_in_links(path)?;
        let (n, m) = (u64::from(links.node_count()), links.edge_count());
        if queries::sweeps_pay(n, m, cfg.t, cfg.r_forward) {
            return CloudWalker::from_in_links(links, cfg, index()?).map_err(|e| e.to_string());
        }
    }
    let graph = Arc::new(load_graph(path)?);
    CloudWalker::from_index_with_mode(graph, cfg, index()?, mode).map_err(|e| e.to_string())
}

/// Writes a graph + diagonal index as an out-of-core shard store: one
/// mmap-ready `PASCOSH1` file per shard, diagonal slices included, so
/// later commands serve it with `--store <dir>` — no graph file, no
/// index file, O(1) reopen. Reuses a persisted `--index` when given;
/// otherwise builds one first (same flags as `pasco index`).
fn cmd_save_store(flags: &Flags) -> Result<(), String> {
    let graph = Arc::new(load_graph(get(flags, "graph")?)?);
    let out = get(flags, "out")?;
    let parts: u32 = get_positive(flags, "parts", 1)?;
    let cfg = sim_config(flags)?;
    let t0 = Instant::now();
    let n = graph.node_count();
    let diag = match flags.get("index") {
        Some(path) => persist::load_index(path).map_err(|e| e.to_string())?,
        None => CloudWalker::build(Arc::clone(&graph), cfg, ExecMode::Local)
            .map_err(|e| e.to_string())?
            .diagonal()
            .clone(),
    };
    if diag.len() != n as usize {
        let detail = format!("index covers {} nodes but the graph has {n}", diag.len());
        return Err(pasco::simrank::SimRankError::BadIndex(detail).to_string());
    }
    pasco_store::write_store(out, &graph, diag.as_slice(), parts)
        .map_err(|e| pasco::simrank::SimRankError::from(e).to_string())?;
    // The writer caps the count so no shard file is empty.
    let parts = Partitioner::parts(&Partitioner::range_nonempty(n, parts));
    // Only the shard files written: `--out` may hold other files.
    let mut bytes = 0;
    for p in 0..parts {
        let shard = std::path::Path::new(out).join(pasco_store::shard_file_name(p));
        bytes += std::fs::metadata(&shard).map_err(|e| format!("{}: {e}", shard.display()))?.len();
    }
    outln!(
        "saved {n} nodes as {parts} shard(s) in {:.2?} ({}); serve with --store {out}",
        t0.elapsed(),
        human_bytes(bytes)
    )?;
    Ok(())
}

/// Executes one request through the typed front door; a `QueryError`
/// (out-of-range node, bad k, …) becomes the CLI's error string.
fn execute(svc: &dyn QueryService, req: QueryRequest) -> Result<QueryResponse, String> {
    svc.execute(req).map_err(|e| e.to_string())
}

fn cmd_sp(flags: &Flags) -> Result<(), String> {
    let cw = load_engine(flags)?;
    let i: u32 = get_num(flags, "i", u32::MAX)?;
    let j: u32 = get_num(flags, "j", u32::MAX)?;
    if i == u32::MAX || j == u32::MAX {
        return Err("sp needs --i and --j".into());
    }
    let t0 = Instant::now();
    let QueryResponse::Score(s) = execute(&cw, QueryRequest::SinglePair { i, j })? else {
        unreachable!("SinglePair answers with Score");
    };
    outln!("s({i}, {j}) = {s:.6}   [{:?}]", t0.elapsed())?;
    Ok(())
}

fn cmd_ss(flags: &Flags) -> Result<(), String> {
    let cw = load_engine(flags)?;
    let i: u32 = get_num(flags, "i", u32::MAX)?;
    if i == u32::MAX {
        return Err("ss needs --i".into());
    }
    let top: u64 = get_num(flags, "top", 10)?;
    let t0 = Instant::now();
    let QueryResponse::Ranked(ranked) = execute(&cw, QueryRequest::SingleSourceTopK { i, k: top })?
    else {
        unreachable!("SingleSourceTopK answers with Ranked");
    };
    let latency = t0.elapsed();
    outln!("top-{top} similar to {i}   [{latency:?}]")?;
    print_similar(&ranked)?;
    Ok(())
}

/// `pasco ss`'s rows: one `node  score` line per similar node.
fn print_similar(ranked: &[(u32, f64)]) -> Result<(), String> {
    ranked.iter().try_for_each(|(node, s)| outln!("  {node:>10}  {s:.6}"))
}

fn cmd_topk(flags: &Flags) -> Result<(), String> {
    let cw = load_engine(flags)?;
    let i: u32 = get_num(flags, "i", u32::MAX)?;
    if i == u32::MAX {
        return Err("topk needs --i".into());
    }
    let k: u64 = get_num(flags, "k", 10)?;
    let QueryResponse::Ranked(ranked) = execute(&cw, QueryRequest::SingleSourceTopK { i, k })?
    else {
        unreachable!("SingleSourceTopK answers with Ranked");
    };
    // Machine-readable: one `node<TAB>score` line per neighbour.
    for (node, s) in ranked {
        outln!("{node}\t{s:.6}")?;
    }
    Ok(())
}

fn cmd_pairs(flags: &Flags) -> Result<(), String> {
    let cw = Arc::new(load_engine(flags)?);
    let nodes: Vec<u32> = get(flags, "nodes")?
        .split(',')
        .map(|s| s.trim().parse().map_err(|_| format!("--nodes: cannot parse `{s}`")))
        .collect::<Result<_, _>>()?;
    let cache: usize = get_positive(flags, "cache", 1024)?;
    let session = QuerySession::new(Arc::clone(&cw), cache);
    let t0 = Instant::now();
    let req = QueryRequest::PairsMatrix { rows: nodes.clone(), cols: nodes.clone() };
    let QueryResponse::Matrix(m) = execute(&session, req)? else {
        unreachable!("PairsMatrix answers with Matrix");
    };
    let latency = t0.elapsed();
    let stats = session.cache_stats();
    outln!(
        "{}x{} similarity matrix   [{latency:?}, {} cohorts simulated, {} cache hits]",
        nodes.len(),
        nodes.len(),
        stats.misses,
        stats.hits
    )?;
    out!("{:>10}", "")?;
    for j in &nodes {
        out!(" {j:>8}")?;
    }
    outln!()?;
    for (r, &i) in nodes.iter().enumerate() {
        out!("{i:>10}")?;
        for v in &m[r] {
            out!(" {v:>8.5}")?;
        }
        outln!()?;
    }
    Ok(())
}

/// Boots the network front door: the engine (any substrate) wrapped in a
/// caching `QuerySession`, served by `PascoServer` until a client sends
/// the shutdown frame.
fn cmd_serve(flags: &Flags) -> Result<(), String> {
    let cw = Arc::new(load_engine(flags)?);
    let addr = get(flags, "addr")?;
    let cache: usize = get_positive(flags, "cache", 1024)?;
    // `--workers` means the execution pool size — except under
    // `--mode distributed`, where it is the worker address list and the
    // pool size moves to `--pool`.
    let pool_flag = match exec_mode(flags)? {
        ExecMode::Distributed { .. } => "pool",
        _ => "workers",
    };
    let workers: usize = get_positive(flags, pool_flag, ServerConfig::default().workers)?;
    let session = Arc::new(QuerySession::new(Arc::clone(&cw), cache));

    let defaults = ServerConfig::default();
    let io_timeout_secs: u64 = get_positive(flags, "io-timeout", defaults.io_timeout.as_secs())?;
    let server_cfg = ServerConfig {
        workers,
        max_frame_bytes: get_positive(flags, "max-frame", defaults.max_frame_bytes)?,
        max_conns: get_positive(flags, "max-conns", defaults.max_conns)?,
        io_timeout: std::time::Duration::from_secs(io_timeout_secs),
    };
    let server = PascoServer::bind(addr, session as Arc<dyn QueryService>, server_cfg)
        .map_err(|e| format!("bind {addr}: {e}"))?;
    announce(format_args!(
        "listening on {} ({} engine, {} nodes, cohort cache {cache})\n",
        server.local_addr(),
        cw.mode_name(),
        cw.node_count()
    ))?;
    server.run().map_err(|e| e.to_string())?;
    outln!("drained, shutting down")?;
    Ok(())
}

/// A network client for a running `pasco serve`: one typed query (or the
/// shutdown frame) over the envelope protocol.
fn cmd_query(flags: &Flags) -> Result<(), String> {
    let (addr, kind) = (get(flags, "connect")?, get(flags, "kind")?);
    let top: u64 = get_num(flags, "top", 10)?;
    if kind == "ss" && top == 0 {
        // Refused before connecting, as `pasco ss` refuses it.
        return Err(pasco::simrank::QueryError::InvalidK { k: 0 }.to_string());
    }
    let mut client = PascoClient::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    match kind {
        "sp" => {
            let i: u32 = get_num(flags, "i", u32::MAX)?;
            let j: u32 = get_num(flags, "j", u32::MAX)?;
            if i == u32::MAX || j == u32::MAX {
                return Err("--kind sp needs --i and --j".into());
            }
            // Unlike the in-process commands, the response variant here
            // is network input: a nonconforming server is a clean error,
            // not a panic.
            match client.query(QueryRequest::SinglePair { i, j }).map_err(|e| e.to_string())? {
                QueryResponse::Score(s) => outln!("s({i}, {j}) = {s:.6}")?,
                other => return Err(format!("server answered SinglePair with {other:?}")),
            }
        }
        "ss" => {
            let i: u32 = get_num(flags, "i", u32::MAX)?;
            if i == u32::MAX {
                return Err("--kind ss needs --i".into());
            }
            // `pasco ss`'s ranking: clamped scores, reached nodes only.
            let request = QueryRequest::SingleSourceTopK { i, k: top };
            match client.query(request).map_err(|e| e.to_string())? {
                QueryResponse::Ranked(ranked) => {
                    outln!("top-{top} similar to {i}")?;
                    print_similar(&ranked)?;
                }
                other => return Err(format!("server answered SingleSourceTopK with {other:?}")),
            }
        }
        "topk" => {
            let i: u32 = get_num(flags, "i", u32::MAX)?;
            if i == u32::MAX {
                return Err("--kind topk needs --i".into());
            }
            let k: u64 = get_num(flags, "k", 10)?;
            match client
                .query(QueryRequest::SingleSourceTopK { i, k })
                .map_err(|e| e.to_string())?
            {
                // Same TSV as `pasco topk`: serving over the wire is
                // byte-identical to serving in process.
                QueryResponse::Ranked(ranked) => {
                    for (node, s) in ranked {
                        outln!("{node}\t{s:.6}")?;
                    }
                }
                other => return Err(format!("server answered SingleSourceTopK with {other:?}")),
            }
        }
        "shutdown" => {
            client.shutdown_server().map_err(|e| e.to_string())?;
            outln!("server drained")?;
        }
        other => return Err(format!("unknown query kind `{other}` (sp|ss|topk|shutdown)")),
    }
    Ok(())
}

/// Boots a SimRank worker process: one partition owner of the
/// distributed substrate, serving worker-control frames until a
/// shutdown frame drains it.
fn cmd_worker(flags: &Flags) -> Result<(), String> {
    let addr = get(flags, "addr")?;
    let defaults = ServerConfig::default();
    let cfg = ServerConfig {
        max_frame_bytes: get_positive(flags, "max-frame", defaults.max_frame_bytes)?,
        ..defaults
    };
    let worker = PascoServer::bind_worker(addr, cfg).map_err(|e| format!("bind {addr}: {e}"))?;
    announce(format_args!("worker listening on {}\n", worker.local_addr()))?;
    worker.run().map_err(|e| e.to_string())?;
    outln!("worker drained, shutting down")?;
    Ok(())
}

fn cmd_convert(flags: &Flags) -> Result<(), String> {
    let input = get(flags, "in")?;
    let output = get(flags, "out")?;
    let graph = load_graph(input)?;
    if output.ends_with(".txt") || output.ends_with(".el") {
        io::write_edge_list(&graph, output).map_err(|e| e.to_string())?;
    } else {
        io::write_binary(&graph, output).map_err(|e| e.to_string())?;
    }
    outln!("{input} -> {output} ({} nodes, {} edges)", graph.node_count(), graph.edge_count())?;
    Ok(())
}
