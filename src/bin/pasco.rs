//! `pasco` — command-line interface to the CloudWalker reproduction.
//!
//! ```text
//! pasco generate --model rmat --scale 14 --edges 100000 --seed 7 --out g.bin
//! pasco stats    --graph g.bin
//! pasco index    --graph g.bin --out g.idx [--mode local|sharded|broadcast|rdd]
//!                [--shards N] [--seed N]
//! pasco sp       --graph g.bin --index g.idx --i 3 --j 99
//! pasco ss       --graph g.bin --index g.idx --i 3 [--top 10] [--estimator walk|push]
//! pasco topk     --graph g.bin --index g.idx --i 3 --k 10
//! pasco pairs    --graph g.bin --index g.idx --nodes 1,5,9 [--cache 1024]
//! pasco convert  --in edges.txt --out g.bin      (edge list -> binary, or back)
//! pasco save-store --graph g.bin --index g.idx --out store/ --parts 4
//! pasco sp       --store store/ --i 3 --j 99     (any query cmd; O(1) open)
//! pasco serve    --graph g.bin --index g.idx --addr 127.0.0.1:7878
//!                [--mode local|sharded|broadcast|rdd|distributed] [--cache N]
//!                [--workers N]
//! pasco query    --connect 127.0.0.1:7878 --kind sp --i 3 --j 99
//! pasco query    --connect 127.0.0.1:7878 --kind shutdown   (drain the server)
//! pasco worker   --addr 127.0.0.1:9000    (a SimRank worker process; drain it
//!                with `pasco query --connect 127.0.0.1:9000 --kind shutdown`)
//! ```
//!
//! Query subcommands also accept `--mode`/`--shards`, so a persisted index
//! can be served from any substrate (e.g. `--mode sharded --shards 8`), and
//! `--mode distributed --workers host:port,host:port` runs the build and
//! every query on real worker processes over TCP — bit-identical output.
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
use pasco::graph::{io, CsrGraph};
use pasco::server::{PascoClient, PascoServer, ServerConfig};
use pasco::simrank::api::{QueryRequest, QueryResponse, QueryService};
use pasco::simrank::{
    metrics, persist, CloudWalker, ExecMode, QuerySession, SessionConfig, SimRankConfig,
};
use pasco::worker::{PascoWorker, WorkerConfig};
use std::collections::HashMap;
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
        "generate" => cmd_generate(&flags),
        "stats" => cmd_stats(&flags),
        "index" => cmd_index(&flags),
        "save-store" => cmd_save_store(&flags),
        "sp" => cmd_sp(&flags),
        "ss" => cmd_ss(&flags),
        "topk" => cmd_topk(&flags),
        "pairs" => cmd_pairs(&flags),
        "convert" => cmd_convert(&flags),
        "serve" => cmd_serve(&flags),
        "query" => cmd_query(&flags),
        "worker" => cmd_worker(&flags),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
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
                 [--edges M] [--seed N]
  pasco stats    --graph <file>
  pasco index    --graph <file> --out <file>
                 [--mode local|sharded|broadcast|rdd|distributed]
                 [--shards N] [--workers host:port,...]
                 [--seed N] [--c F] [--t N] [--l N] [--r N]
  pasco sp       --graph <file> --index <file> --i <node> --j <node>
  pasco ss       --graph <file> --index <file> --i <node> [--top K]
                 [--estimator walk|push]
  pasco topk     --graph <file> --index <file> --i <node> --k <K>   (TSV out)
  pasco pairs    --graph <file> --index <file> --nodes <a,b,c,...> [--cache N]
  pasco convert  --in <file> --out <file>   (.txt <-> .bin by extension)
  pasco save-store --graph <file> --out <dir> [--parts N] [--index <file>]
                 (omit --index to build one first; same flags as index)
  pasco serve    --graph <file> --index <file> --addr <host:port>
                 [--mode local|sharded|broadcast|rdd|distributed] [--shards N]
                 [--cache N] [--cache-ttl-secs S] [--cache-bytes B]
                 [--workers N] [--max-frame BYTES] [--max-conns N]
                 [--io-timeout SECS]
                 (distributed: --workers host:port,... and --pool N for the
                 server's execution pool)
  pasco query    --connect <host:port> --kind <sp|ss|topk|shutdown>
                 [--i N] [--j N] [--k K (topk)] [--top N (ss)]
  pasco worker   --addr <host:port> [--max-frame BYTES]

  Query subcommands (sp/ss/topk/pairs) also accept --mode/--shards to pick
  the serving substrate; results are bit-identical across substrates —
  including over the network: `pasco serve` + `pasco query --connect`
  speak the versioned envelope protocol over TCP.

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

type Flags = HashMap<String, String>;

fn parse(args: &[String]) -> Option<(String, Flags)> {
    let cmd = args.first()?.clone();
    let mut flags = HashMap::new();
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let name = flag.strip_prefix("--")?;
        let value = it.next()?;
        flags.insert(name.to_string(), value.clone());
    }
    Some((cmd, flags))
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

fn load_graph(path: &str) -> Result<CsrGraph, String> {
    let mut head = Vec::with_capacity(8);
    let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    file.take(8).read_to_end(&mut head).map_err(|e| format!("{path}: {e}"))?;
    if head.starts_with(b"PASCOGR1") {
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
    println!(
        "wrote {out}: {} nodes, {} edges, {}",
        graph.node_count(),
        graph.edge_count(),
        human_bytes(graph.memory_bytes())
    );
    Ok(())
}

fn cmd_stats(flags: &Flags) -> Result<(), String> {
    let graph = load_graph(get(flags, "graph")?)?;
    println!("nodes:  {}", graph.node_count());
    println!("edges:  {}", graph.edge_count());
    println!("memory: {}", human_bytes(graph.memory_bytes()));
    for (label, dir) in [("in", Direction::In), ("out", Direction::Out)] {
        let s = degree_stats(&graph, dir);
        println!(
            "{label}-degree: min {} p50 {} p90 {} p99 {} max {} mean {:.2} zeros {}",
            s.min, s.p50, s.p90, s.p99, s.max, s.mean, s.zeros
        );
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

/// Parses `--mode` (with `--shards` for the sharded substrate).
fn exec_mode(flags: &Flags) -> Result<ExecMode, String> {
    match flags.get("mode").map(|s| s.as_str()).unwrap_or("local") {
        "local" => Ok(ExecMode::Local),
        "broadcast" => Ok(ExecMode::Broadcast(ClusterConfig::paper_like())),
        "rdd" => Ok(ExecMode::Rdd(ClusterConfig::paper_like())),
        "sharded" => {
            let shards: u32 = get_num(flags, "shards", 4)?;
            if shards == 0 {
                return Err("--shards must be positive".into());
            }
            Ok(ExecMode::Sharded { shards })
        }
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
        other => Err(format!("unknown mode `{other}` (local|sharded|broadcast|rdd|distributed)")),
    }
}

fn cmd_index(flags: &Flags) -> Result<(), String> {
    let graph = Arc::new(load_graph(get(flags, "graph")?)?);
    let out = get(flags, "out")?;
    let cfg = sim_config(flags)?;
    let mode = exec_mode(flags)?;
    let t0 = Instant::now();
    let (cw, stats) = CloudWalker::build_with_stats(graph, cfg, mode).map_err(|e| e.to_string())?;
    persist::save_index(cw.diagonal(), out).map_err(|e| e.to_string())?;
    println!(
        "indexed {} nodes in {:.2?} on the {} engine (strategy {:?}, residual {:.2e}); index -> {out}",
        cw.diagonal().len(),
        t0.elapsed(),
        cw.mode_name(),
        stats.strategy,
        stats.jacobi_residuals.last().copied().unwrap_or(0.0)
    );
    if let Some(per_shard) = cw.shard_footprints() {
        let max = per_shard.iter().copied().max().unwrap_or(0);
        println!(
            "shards: {} ({} total, {} max/shard)",
            per_shard.len(),
            human_bytes(per_shard.iter().sum()),
            human_bytes(max)
        );
    }
    if let Some(stats) = cw.worker_stats() {
        for (w, s) in stats.iter().enumerate() {
            match s {
                Ok(s) => println!(
                    "worker {}: owns {} nodes ({}), {} resident, {} builds",
                    s.owned_part,
                    s.owned_nodes,
                    human_bytes(s.owned_bytes),
                    human_bytes(s.resident_bytes),
                    s.builds
                ),
                Err(e) => println!("worker {w}: UNREACHABLE ({e})"),
            }
        }
        if let Some(report) = cw.cluster_report() {
            println!(
                "wire: {} shuffled over {} messages",
                human_bytes(report.shuffle_bytes),
                report.shuffle_records
            );
        }
    }
    Ok(())
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
    let graph = Arc::new(load_graph(get(flags, "graph")?)?);
    let index = persist::load_index(get(flags, "index")?).map_err(|e| e.to_string())?;
    let mode = exec_mode(flags)?;
    CloudWalker::from_index_with_mode(graph, cfg, index, mode).map_err(|e| e.to_string())
}

/// Writes a graph + diagonal index as an out-of-core shard store: one
/// mmap-ready `PASCOSH1` file per shard, diagonal slices included, so
/// later commands serve it with `--store <dir>` — no graph file, no
/// index file, O(1) reopen. Reuses a persisted `--index` when given;
/// otherwise builds one first (same flags as `pasco index`).
fn cmd_save_store(flags: &Flags) -> Result<(), String> {
    let graph = Arc::new(load_graph(get(flags, "graph")?)?);
    let out = get(flags, "out")?;
    let parts: u32 = get_num(flags, "parts", 1)?;
    if parts == 0 {
        return Err("--parts must be positive".into());
    }
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
    let bytes: u64 = std::fs::read_dir(out)
        .map_err(|e| format!("{out}: {e}"))?
        .filter_map(|e| e.ok())
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum();
    println!(
        "saved {n} nodes as {parts} shard(s) in {:.2?} ({}); serve with --store {out}",
        t0.elapsed(),
        human_bytes(bytes)
    );
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
    println!("s({i}, {j}) = {s:.6}   [{:?}]", t0.elapsed());
    Ok(())
}

fn cmd_ss(flags: &Flags) -> Result<(), String> {
    let cw = load_engine(flags)?;
    let i: u32 = get_num(flags, "i", u32::MAX)?;
    if i == u32::MAX {
        return Err("ss needs --i".into());
    }
    let top: usize = get_num(flags, "top", 10)?;
    if top == 0 {
        // Same typed error for both estimators (the push path would
        // otherwise run a full query just to rank nothing).
        return Err(pasco::simrank::QueryError::InvalidK { k: 0 }.to_string());
    }
    let t0 = Instant::now();
    let ranked = match flags.get("estimator").map(|s| s.as_str()).unwrap_or("walk") {
        "walk" => {
            let resp = execute(&cw, QueryRequest::SingleSourceTopK { i, k: top as u64 })?;
            let QueryResponse::Ranked(ranked) = resp else {
                unreachable!("SingleSourceTopK answers with Ranked");
            };
            ranked
        }
        "push" => {
            let resp = execute(&cw, QueryRequest::SingleSourcePush { i })?;
            let QueryResponse::Scores(scores) = resp else {
                unreachable!("SingleSourcePush answers with Scores");
            };
            metrics::top_k(&scores, top, Some(i))
        }
        other => return Err(format!("unknown estimator `{other}` (walk|push)")),
    };
    let latency = t0.elapsed();
    println!("top-{top} similar to {i}   [{latency:?}]");
    for (node, s) in ranked {
        println!("  {node:>10}  {s:.6}");
    }
    Ok(())
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
        println!("{node}\t{s:.6}");
    }
    Ok(())
}

fn cmd_pairs(flags: &Flags) -> Result<(), String> {
    let cw = Arc::new(load_engine(flags)?);
    let nodes: Vec<u32> = get(flags, "nodes")?
        .split(',')
        .map(|s| s.trim().parse().map_err(|_| format!("--nodes: cannot parse `{s}`")))
        .collect::<Result<_, _>>()?;
    let cache: usize = get_num(flags, "cache", 1024)?;
    if cache == 0 {
        return Err("--cache must be positive".into());
    }
    let session = QuerySession::new(Arc::clone(&cw), cache);
    let t0 = Instant::now();
    let req = QueryRequest::PairsMatrix { rows: nodes.clone(), cols: nodes.clone() };
    let QueryResponse::Matrix(m) = execute(&session, req)? else {
        unreachable!("PairsMatrix answers with Matrix");
    };
    let latency = t0.elapsed();
    let stats = session.cache_stats();
    println!(
        "{}x{} similarity matrix   [{latency:?}, {} cohorts simulated, {} cache hits]",
        nodes.len(),
        nodes.len(),
        stats.misses,
        stats.hits
    );
    print!("{:>10}", "");
    for j in &nodes {
        print!(" {j:>8}");
    }
    println!();
    for (r, &i) in nodes.iter().enumerate() {
        print!("{i:>10}");
        for v in &m[r] {
            print!(" {v:>8.5}");
        }
        println!();
    }
    Ok(())
}

/// Boots the network front door: the engine (any substrate) wrapped in a
/// caching `QuerySession`, served by `PascoServer` until a client sends
/// the shutdown frame.
fn cmd_serve(flags: &Flags) -> Result<(), String> {
    use std::io::Write as _;
    let cw = Arc::new(load_engine(flags)?);
    let addr = get(flags, "addr")?;
    let cache: usize = get_num(flags, "cache", 1024)?;
    if cache == 0 {
        return Err("--cache must be positive".into());
    }
    let mut session_cfg = SessionConfig::new(cache);
    // `--workers` means the execution pool size — except under
    // `--mode distributed`, where it is the worker address list and the
    // pool size moves to `--pool`.
    let pool_flag = match exec_mode(flags)? {
        ExecMode::Distributed { .. } => "pool",
        _ => "workers",
    };
    let workers: usize = get_num(flags, pool_flag, ServerConfig::default().workers)?;
    if workers == 0 {
        return Err(format!("--{pool_flag} must be positive"));
    }
    if flags.contains_key("cache-ttl-secs") {
        let secs: u64 = get_num(flags, "cache-ttl-secs", 0)?;
        session_cfg = session_cfg.with_ttl(std::time::Duration::from_secs(secs));
    }
    if flags.contains_key("cache-bytes") {
        session_cfg = session_cfg.with_max_bytes(get_num(flags, "cache-bytes", 0)?);
    }
    let session = Arc::new(QuerySession::with_config(Arc::clone(&cw), session_cfg));

    let defaults = ServerConfig::default();
    let max_conns: usize = get_num(flags, "max-conns", defaults.max_conns)?;
    if max_conns == 0 {
        return Err("--max-conns must be positive".into());
    }
    let io_timeout_secs: u64 = get_num(flags, "io-timeout", defaults.io_timeout.as_secs())?;
    if io_timeout_secs == 0 {
        return Err("--io-timeout must be positive".into());
    }
    let server_cfg = ServerConfig {
        workers,
        max_frame_bytes: get_num(flags, "max-frame", defaults.max_frame_bytes)?,
        max_conns,
        io_timeout: std::time::Duration::from_secs(io_timeout_secs),
    };
    let server = PascoServer::bind(addr, session as Arc<dyn QueryService>, server_cfg)
        .map_err(|e| format!("bind {addr}: {e}"))?;
    println!(
        "listening on {} ({} engine, {} nodes, cohort cache {cache})",
        server.local_addr(),
        cw.mode_name(),
        cw.node_count()
    );
    // The line above is how scripts discover an ephemeral port: make sure
    // it is on the wire even when stdout is a pipe.
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    server.run().map_err(|e| e.to_string())?;
    println!("drained, shutting down");
    Ok(())
}

/// A network client for a running `pasco serve`: one typed query (or the
/// shutdown frame) over the envelope protocol.
fn cmd_query(flags: &Flags) -> Result<(), String> {
    let addr = get(flags, "connect")?;
    let mut client = PascoClient::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    match get(flags, "kind")? {
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
                QueryResponse::Score(s) => println!("s({i}, {j}) = {s:.6}"),
                other => return Err(format!("server answered SinglePair with {other:?}")),
            }
        }
        "ss" => {
            let i: u32 = get_num(flags, "i", u32::MAX)?;
            if i == u32::MAX {
                return Err("--kind ss needs --i".into());
            }
            let top: usize = get_num(flags, "top", 10)?;
            match client.query(QueryRequest::SingleSource { i }).map_err(|e| e.to_string())? {
                QueryResponse::Scores(scores) => {
                    println!("top-{top} similar to {i}");
                    for (node, s) in metrics::top_k(&scores, top, Some(i)) {
                        println!("  {node:>10}  {s:.6}");
                    }
                }
                other => return Err(format!("server answered SingleSource with {other:?}")),
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
                        println!("{node}\t{s:.6}");
                    }
                }
                other => return Err(format!("server answered SingleSourceTopK with {other:?}")),
            }
        }
        "shutdown" => {
            client.shutdown_server().map_err(|e| e.to_string())?;
            println!("server drained");
        }
        other => return Err(format!("unknown query kind `{other}` (sp|ss|topk|shutdown)")),
    }
    Ok(())
}

/// Boots a SimRank worker process: one partition owner of the
/// distributed substrate, serving worker-control frames until a
/// shutdown frame drains it.
fn cmd_worker(flags: &Flags) -> Result<(), String> {
    use std::io::Write as _;
    let addr = get(flags, "addr")?;
    let defaults = WorkerConfig::default();
    let cfg = WorkerConfig {
        max_frame_bytes: get_num(flags, "max-frame", defaults.max_frame_bytes)?,
        ..defaults
    };
    let worker = PascoWorker::bind(addr, cfg).map_err(|e| format!("bind {addr}: {e}"))?;
    println!("worker listening on {}", worker.local_addr());
    // Scripts discover an ephemeral port from the line above: flush it
    // even when stdout is a pipe.
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    worker.run().map_err(|e| e.to_string())?;
    println!("worker drained, shutting down");
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
    println!("{input} -> {output} ({} nodes, {} edges)", graph.node_count(), graph.edge_count());
    Ok(())
}
