//! Integration: the `pasco` command-line binary, invoked as a subprocess.

use pasco::graph::io;
use pasco::simrank::{persist, CloudWalker, ExecMode, SimRankConfig};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pasco"))
}

/// `name` in a directory of this test's own (named from the process id and
/// the test), so concurrent test runs never share a scratch file.
fn tmp(name: &str) -> PathBuf {
    let test = std::thread::current().name().unwrap_or("main").replace("::", "_");
    let dir = std::env::temp_dir().join(format!("pasco_cli_{}_{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn generate_index_query_pipeline() {
    let graph = tmp("pipeline.bin");
    let index = tmp("pipeline.idx");

    let out = bin()
        .args(["generate", "--model", "ba", "--nodes", "500", "--edges-per-node", "4"])
        .args(["--out", graph.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("500 nodes"));

    let out = bin()
        .args(["index", "--graph", graph.to_str().unwrap()])
        .args(["--out", index.to_str().unwrap()])
        .args(["--r-query", "500", "--r", "32", "--t", "5"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let out = bin()
        .args(["sp", "--graph", graph.to_str().unwrap()])
        .args(["--index", index.to_str().unwrap()])
        .args(["--i", "3", "--j", "99", "--r-query", "500", "--t", "5"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("s(3, 99)"));

    let out = bin()
        .args(["ss", "--graph", graph.to_str().unwrap()])
        .args(["--index", index.to_str().unwrap()])
        .args(["--i", "3", "--top", "3", "--r-query", "500", "--t", "5"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("top-3 similar to 3"), "{stdout}");

    let out = bin()
        .args(["topk", "--graph", graph.to_str().unwrap()])
        .args(["--index", index.to_str().unwrap()])
        .args(["--i", "3", "--k", "4", "--r-query", "500", "--t", "5"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // TSV: every line is `node<TAB>score`, at most k of them.
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(!lines.is_empty() && lines.len() <= 4, "{stdout}");
    for line in &lines {
        let (node, score) = line.split_once('\t').expect("tab-separated");
        node.parse::<u32>().unwrap();
        score.parse::<f64>().unwrap();
    }

    let out = bin()
        .args(["pairs", "--graph", graph.to_str().unwrap()])
        .args(["--index", index.to_str().unwrap()])
        .args(["--nodes", "1,5,9", "--r-query", "500", "--t", "5"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("3x3 similarity matrix"), "{stdout}");
    assert!(stdout.contains("3 cohorts simulated"), "{stdout}");
}

/// Range shards end to end: serving a saved store of any shard count
/// yields byte-identical TSV output to local serving.
#[test]
fn sharded_pipeline_matches_local_output() {
    let graph = tmp("sharded.bin");
    let idx_local = tmp("sharded_local.idx");
    assert!(bin()
        .args(["generate", "--model", "ba", "--nodes", "400", "--edges-per-node", "4"])
        .args(["--out", graph.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let cheap = ["--r", "16", "--t", "4", "--r-query", "400"];
    let out = bin()
        .args(["index", "--graph", graph.to_str().unwrap()])
        .args(["--out", idx_local.to_str().unwrap()])
        .args(cheap)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // Serve the same top-k from the graph and from saved stores: the TSV
    // output must match byte for byte.
    let query = |source: &[&str]| {
        let out = bin()
            .arg("topk")
            .args(source)
            .args(["--i", "7", "--k", "5"])
            .args(cheap)
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        out.stdout
    };
    let local =
        query(&["--graph", graph.to_str().unwrap(), "--index", idx_local.to_str().unwrap()]);
    for parts in ["2", "5"] {
        let store = tmp(&format!("sharded_store_{parts}"));
        let _ = std::fs::remove_dir_all(&store);
        let out = bin()
            .args(["save-store", "--graph", graph.to_str().unwrap()])
            .args(["--index", idx_local.to_str().unwrap()])
            .args(["--out", store.to_str().unwrap(), "--parts", parts])
            .args(cheap)
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        assert_eq!(local, query(&["--store", store.to_str().unwrap()]), "{parts} parts");
    }
}

/// `pasco index` spills its rows under `TMPDIR`: the directory is honoured
/// and left empty, and one that does not exist is a typed I/O error that
/// names it — no panic, no index written.
#[test]
fn index_spills_under_tmpdir_and_fails_typed_without_it() {
    let graph = tmp("spill.bin");
    assert!(bin()
        .args(["generate", "--model", "ba", "--nodes", "600", "--edges-per-node", "4"])
        .args(["--out", graph.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let index = |out: &std::path::Path, tmpdir: Option<&std::path::Path>| {
        let mut cmd = bin();
        cmd.args(["index", "--graph", graph.to_str().unwrap(), "--out", out.to_str().unwrap()]);
        cmd.args(["--r", "16", "--t", "4"]);
        if let Some(dir) = tmpdir {
            cmd.env("TMPDIR", dir);
        }
        cmd.output().unwrap()
    };
    let spill = tmp("spill_dir");
    let _ = std::fs::remove_dir_all(&spill);
    std::fs::create_dir(&spill).unwrap();
    let (here, default) = (tmp("spill_here.idx"), tmp("spill_default.idx"));
    for (out, tmpdir) in [(&here, Some(spill.as_path())), (&default, None)] {
        let run = index(out, tmpdir);
        assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
    }
    assert_eq!(std::fs::read(&here).unwrap(), std::fs::read(&default).unwrap());
    assert_eq!(std::fs::read_dir(&spill).unwrap().count(), 0, "the spill file is gone");

    let missing = tmp("spill_missing");
    let _ = std::fs::remove_dir_all(&missing);
    let failed = tmp("spill_failed.idx");
    let _ = std::fs::remove_file(&failed);
    let run = index(&failed, Some(&missing));
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(!run.status.success(), "{stderr}");
    assert!(stderr.contains("I/O error") && stderr.contains(missing.to_str().unwrap()), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!failed.exists(), "no index for a failed build");
}

/// Local `pasco index` reads only the in-links and calls the build kernel
/// itself; its index is byte for byte the broadcast CLI build's and the
/// in-process `CloudWalker` build's, from a binary graph and from the
/// same graph as an edge list.
#[test]
fn local_index_on_in_links_matches_every_build() {
    let graph = tmp("in_links.bin");
    let text = tmp("in_links.txt");
    let run = |args: &[&str]| {
        let out = bin().args(args).output().unwrap();
        assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
    };
    let (g, t) = (graph.to_str().unwrap(), text.to_str().unwrap());
    // Every BA node has an edge, so the edge list keeps every node id.
    run(&["generate", "--model", "ba", "--nodes", "700", "--edges-per-node", "4", "--out", g]);
    run(&["convert", "--in", g, "--out", t]);
    let cheap = ["--r", "16", "--t", "4", "--seed", "5"];
    let cfg = SimRankConfig::default_paper().with_r(16).with_t(4).with_seed(5);
    let want = tmp("in_links_cloudwalker.idx");
    let cw = CloudWalker::build(io::read_binary(&graph).unwrap().into(), cfg, ExecMode::Local);
    persist::save_index(cw.unwrap().diagonal(), &want).unwrap();
    let want = std::fs::read(&want).unwrap();
    for input in [g, t] {
        for (name, mode) in [("local", &[][..]), ("broadcast", &["--mode", "broadcast"])] {
            let idx = tmp(&format!("in_links_{name}.idx"));
            let _ = std::fs::remove_file(&idx);
            run(&[&["index", "--graph", input, "--out", idx.to_str().unwrap()], mode, &cheap[..]]
                .concat());
            assert!(std::fs::read(&idx).unwrap() == want, "{name} index from {input}");
        }
    }
}

/// `PASCOGR1` bytes of raw arrays, laid out as `pasco generate` writes them.
fn pascogr1(n: u64, out: (&[u64], &[u32]), ins: (&[u64], &[u32])) -> Vec<u8> {
    let mut bytes = b"PASCOGR1".to_vec();
    bytes.extend(n.to_le_bytes());
    for (offsets, ids) in [out, ins] {
        bytes.extend((offsets.len() as u64).to_le_bytes());
        bytes.extend(offsets.iter().flat_map(|x| x.to_le_bytes()));
        bytes.extend((ids.len() as u64).to_le_bytes());
        bytes.extend(ids.iter().flat_map(|x| x.to_le_bytes()));
    }
    bytes
}

fn fails_without_panic(args: &[&str], graph: &Path, says: &str) -> Output {
    let out = bin().args(args).args(["--graph", graph.to_str().unwrap()]).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{args:?} on {graph:?} must fail");
    assert!(stderr.contains(says), "{args:?} on {graph:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?} on {graph:?} panicked: {stderr}");
    out
}

/// A malformed graph file is a typed format error for every command that
/// loads it — never a panic, and never a build over out-of-range ids.
#[test]
fn malformed_graph_files_fail_typed_without_panicking() {
    let idx = tmp("malformed.idx");
    let idx = idx.to_str().unwrap();
    let shapes = [
        ("counts", pascogr1(3, (&[0, 1, 2, 2], &[1, 2]), (&[0, 0, 1, 1], &[0]))),
        ("id", pascogr1(3, (&[0, 1, 2, 2], &[1, 2]), (&[0, 0, 1, 2], &[0, 7]))),
        ("offsets", pascogr1(3, (&[0, 2, 1, 2], &[1, 2]), (&[0, 0, 1, 2], &[0, 1]))),
    ];
    for (name, bytes) in shapes {
        let graph = tmp(&format!("malformed_{name}.bin"));
        std::fs::write(&graph, bytes).unwrap();
        fails_without_panic(&["stats"], &graph, "bad graph file");
        fails_without_panic(&["index", "--out", idx], &graph, "bad graph file");
        let serve = ["serve", "--index", idx, "--addr", "127.0.0.1:0"];
        fails_without_panic(&serve, &graph, "bad graph file");
    }
    // An empty edge list parses to 0 nodes: `stats` refuses it before
    // printing anything, as the other commands do.
    let empty = tmp("malformed_empty.txt");
    std::fs::write(&empty, "").unwrap();
    let out = fails_without_panic(&["stats"], &empty, "graph has no nodes");
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "{}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn zero_node_graphs_are_refused() {
    let (empty_bin, empty_txt) = (tmp("zero.bin"), tmp("zero.txt"));
    std::fs::write(&empty_bin, pascogr1(0, (&[0], &[]), (&[0], &[]))).unwrap();
    std::fs::write(&empty_txt, "# no edges\n").unwrap();
    let idx = tmp("zero.idx");
    for graph in [empty_bin, empty_txt] {
        fails_without_panic(
            &["index", "--out", idx.to_str().unwrap()],
            &graph,
            "graph has no nodes",
        );
    }
}

/// Out-of-range nodes surface as the typed `QueryError` rendered on
/// stderr — a clean nonzero exit, never the old panic/abort.
#[test]
fn out_of_range_queries_fail_cleanly_with_typed_errors() {
    let graph = tmp("oob.bin");
    let index = tmp("oob.idx");
    assert!(bin()
        .args(["generate", "--model", "er", "--nodes", "50", "--edges", "200"])
        .args(["--out", graph.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    assert!(bin()
        .args(["index", "--graph", graph.to_str().unwrap()])
        .args(["--out", index.to_str().unwrap(), "--r", "16", "--t", "4"])
        .status()
        .unwrap()
        .success());
    let common = [
        "--graph".to_string(),
        graph.to_str().unwrap().to_string(),
        "--index".to_string(),
        index.to_str().unwrap().to_string(),
        "--t".to_string(),
        "4".to_string(),
    ];
    for args in [
        vec!["sp", "--i", "0", "--j", "50"],
        vec!["ss", "--i", "50"],
        vec!["topk", "--i", "99", "--k", "5"],
        vec!["pairs", "--nodes", "1,50"],
    ] {
        let out = bin().args(&args).args(&common).output().unwrap();
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("out of range"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    }
    // InvalidK is typed too.
    let out = bin().args(["topk", "--i", "1", "--k", "0"]).args(&common).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("invalid k"));
}

#[test]
fn stats_and_convert_roundtrip() {
    let bin_path = tmp("conv.bin");
    let txt_path = tmp("conv.txt");
    assert!(bin()
        .args(["generate", "--model", "er", "--nodes", "100", "--edges", "400"])
        .args(["--out", bin_path.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    assert!(bin()
        .args(["convert", "--in", bin_path.to_str().unwrap()])
        .args(["--out", txt_path.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let out = bin().args(["stats", "--graph", txt_path.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("edges:  400"), "{stdout}");
}

/// The network pipeline end to end as a user runs it: `pasco serve` on
/// an ephemeral port, `pasco query --connect` round trips (byte-identical
/// TSV to in-process serving), then a clean drain on the shutdown frame.
#[test]
fn serve_and_query_over_loopback_with_clean_drain() {
    use std::io::BufRead;

    let graph = tmp("serve.bin");
    let index = tmp("serve.idx");
    let fast = ["--r", "32", "--t", "5", "--r-query", "500"];
    assert!(bin()
        .args(["generate", "--model", "ba", "--nodes", "400", "--edges-per-node", "4"])
        .args(["--out", graph.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    assert!(bin()
        .args(["index", "--graph", graph.to_str().unwrap()])
        .args(["--out", index.to_str().unwrap()])
        .args(fast)
        .status()
        .unwrap()
        .success());

    let store = tmp("serve_store");
    let _ = std::fs::remove_dir_all(&store);
    assert!(bin()
        .args(["save-store", "--graph", graph.to_str().unwrap()])
        .args(["--index", index.to_str().unwrap()])
        .args(["--out", store.to_str().unwrap(), "--parts", "2"])
        .args(fast)
        .status()
        .unwrap()
        .success());

    // Boot the server on port 0 and read the bound address off its
    // first stdout line (flushed before the accept loop starts).
    let mut server = bin()
        .args(["serve", "--store", store.to_str().unwrap()])
        .args(["--addr", "127.0.0.1:0"])
        .args(fast)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut lines = std::io::BufReader::new(server.stdout.take().unwrap()).lines();
    let banner = lines.next().unwrap().unwrap();
    let addr = banner
        .strip_prefix("listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_string();

    // A pair query over the wire answers in the usual format.
    let out = bin()
        .args(["query", "--connect", &addr, "--kind", "sp", "--i", "3", "--j", "99"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("s(3, 99)"));

    // Top-k over the wire is byte-identical to in-process top-k.
    let net = bin()
        .args(["query", "--connect", &addr, "--kind", "topk", "--i", "3", "--k", "4"])
        .output()
        .unwrap();
    assert!(net.status.success(), "{}", String::from_utf8_lossy(&net.stderr));
    let local = bin()
        .args(["topk", "--graph", graph.to_str().unwrap()])
        .args(["--index", index.to_str().unwrap()])
        .args(["--i", "3", "--k", "4"])
        .args(fast)
        .output()
        .unwrap();
    assert!(local.status.success());
    assert_eq!(net.stdout, local.stdout, "wire TSV must equal in-process TSV");

    // Shutdown frame: the server drains and exits 0.
    let out = bin().args(["query", "--connect", &addr, "--kind", "shutdown"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("server drained"));
    let status = server.wait().unwrap();
    assert!(status.success(), "server must exit cleanly after a drain");
    let rest: Vec<String> = lines.map_while(Result::ok).collect();
    assert!(rest.iter().any(|l| l.contains("drained")), "{rest:?}");
}

/// `pasco query --kind ss` ranks as `pasco ss` does — clamped scores,
/// reached nodes only — and refuses `--top 0` before it connects.
#[test]
fn query_ss_over_the_wire_prints_the_rows_of_local_ss() {
    use std::io::BufRead;

    let (graph, index) = (tmp("wire_ss.bin"), tmp("wire_ss.idx"));
    let (g, idx) = (graph.to_str().unwrap(), index.to_str().unwrap());
    let fast = ["--r", "16", "--t", "4"];
    let generate = ["generate", "--model", "ba", "--nodes", "300", "--edges-per-node", "4"];
    assert!(bin().args(generate).args(["--seed", "3", "--out", g]).status().unwrap().success());
    assert!(bin()
        .args(["index", "--graph", g, "--out", idx])
        .args(fast)
        .status()
        .unwrap()
        .success());
    let mut server = bin()
        .args(["serve", "--graph", g, "--index", idx, "--addr", "127.0.0.1:0"])
        .args(fast)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut lines = std::io::BufReader::new(server.stdout.take().unwrap()).lines();
    let banner = lines.next().unwrap().unwrap();
    let addr = banner.strip_prefix("listening on ").unwrap().split_whitespace().next().unwrap();

    let rows = |out: Output| -> Vec<String> {
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).unwrap().lines().skip(1).map(String::from).collect()
    };
    let ss = ["--i", "3", "--top", "300"];
    let net =
        rows(bin().args(["query", "--connect", addr, "--kind", "ss"]).args(ss).output().unwrap());
    let local = bin().args(["ss", "--graph", g, "--index", idx]).args(ss).args(fast).output();
    let local = rows(local.unwrap());
    assert!(!local.is_empty() && local.len() < 299, "only reached nodes: {}", local.len());
    assert_eq!(net, local, "wire ss rows must equal local ss rows");

    // `--top 0` is refused typed, even where no server listens.
    for at in [addr, "127.0.0.1:1"] {
        let zero = ["query", "--connect", at, "--kind", "ss", "--i", "3", "--top", "0"];
        let out = bin().args(zero).output().unwrap();
        assert!(!out.status.success(), "--top 0 at {at} must fail");
        assert!(String::from_utf8_lossy(&out.stderr).contains("invalid k = 0"), "at {at}");
    }
    let out = bin().args(["query", "--connect", addr, "--kind", "shutdown"]).output().unwrap();
    assert!(out.status.success());
    assert!(server.wait().unwrap().success());
}

/// Generates a 300-node BA graph and indexes it with cheap parameters;
/// returns the two paths.
fn small_indexed_graph(name: &str) -> (PathBuf, PathBuf) {
    let (graph, index) = (tmp(&format!("{name}.bin")), tmp(&format!("{name}.idx")));
    assert!(bin()
        .args(["generate", "--model", "ba", "--nodes", "300", "--edges-per-node", "4"])
        .args(["--out", graph.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    assert!(bin()
        .args(["index", "--graph", graph.to_str().unwrap()])
        .args(["--out", index.to_str().unwrap(), "--r", "16", "--t", "4"])
        .status()
        .unwrap()
        .success());
    (graph, index)
}

/// `--cache 0` would leave the session nothing to cache, and `--max-frame
/// 0` would answer every request with an error: `pasco serve` refuses
/// each. A server that starts anyway is killed and fails the test instead
/// of hanging it.
#[test]
fn serve_refuses_zero_valued_flags() {
    let (graph, index) = small_indexed_graph("zero_flags");
    for flag in ["--cache", "--max-frame"] {
        let mut server = bin()
            .args(["serve", "--graph", graph.to_str().unwrap()])
            .args(["--index", index.to_str().unwrap(), "--addr", "127.0.0.1:0"])
            .args(["--r", "16", "--t", "4", flag, "0"])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .unwrap();
        let started = std::time::Instant::now();
        while server.try_wait().unwrap().is_none() {
            if started.elapsed() > std::time::Duration::from_secs(60) {
                server.kill().unwrap();
                panic!("`serve {flag} 0` started a server");
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let out = server.wait_with_output().unwrap();
        assert!(!out.status.success(), "`serve {flag} 0` must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("{flag} must be positive")), "{flag}: {stderr}");
    }
}

/// `pasco save-store` reports the bytes of the shard files it wrote, not
/// of everything else kept in `--out`.
#[test]
fn save_store_reports_only_its_shard_bytes() {
    let (graph, index) = small_indexed_graph("save_store_size");
    let out_dir = tmp("save_store_size_dir");
    let _ = std::fs::remove_dir_all(&out_dir);
    std::fs::create_dir_all(&out_dir).unwrap();
    std::fs::write(out_dir.join("kept.idx"), vec![7u8; 3 << 20]).unwrap();
    let out = bin()
        .args(["save-store", "--graph", graph.to_str().unwrap()])
        .args(["--index", index.to_str().unwrap(), "--out", out_dir.to_str().unwrap()])
        .args(["--parts", "3", "--r", "16", "--t", "4"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let shard_bytes: u64 = (0..3)
        .map(|p| std::fs::metadata(out_dir.join(pasco_store::shard_file_name(p))).unwrap().len())
        .sum();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let want = format!("({})", pasco::graph::stats::human_bytes(shard_bytes));
    assert!(stdout.contains(&want), "want {want}: {stdout}");
    assert!(out_dir.join("kept.idx").exists(), "the other file is left alone");
}

#[test]
fn bad_invocations_fail_cleanly() {
    // Unknown command.
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
    // Missing required flag.
    let out = bin().args(["stats"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--graph"));
    // Nonexistent file.
    let out = bin().args(["stats", "--graph", "/nonexistent/g.bin"]).output().unwrap();
    assert!(!out.status.success());
    // Bad parameter value.
    let graph = tmp("badparam.bin");
    bin()
        .args(["generate", "--model", "er", "--nodes", "50", "--edges", "100"])
        .args(["--out", graph.to_str().unwrap()])
        .status()
        .unwrap();
    let out = bin()
        .args(["index", "--graph", graph.to_str().unwrap()])
        .args(["--out", tmp("x.idx").to_str().unwrap(), "--c", "1.5"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("decay factor"));
    // A flag the command does not list (a typo, a retired flag) is refused
    // by name before any work: no index is written, and `serve` fails on
    // the flag, not on its missing index file.
    let (g, idx) = (graph.to_str().unwrap(), tmp("typo.idx"));
    let idx = idx.to_str().unwrap();
    let _ = std::fs::remove_file(idx);
    let serve = vec!["serve", "--graph", g, "--index", idx, "--addr", "127.0.0.1:0"];
    let retired = "--cache-bytes"; // the one line CI's "No unselected options" check admits
    for (args, flag) in [(vec!["index", "--graph", g, "--out", idx], "--tyop"), (serve, retired)] {
        let out = bin().args(&args).args([flag, "1"]).output().unwrap();
        assert!(!out.status.success(), "{args:?} {flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown flag {flag}")), "{flag}: {stderr}");
        assert!(out.stdout.is_empty() && !std::path::Path::new(idx).exists(), "{flag}");
    }
    // A flag given twice is refused by name before any work, whichever
    // value comes last: no stats are printed and no index is written.
    let twice = [
        vec!["stats", "--graph", "/nonexistent.bin", "--graph", g],
        vec!["index", "--graph", g, "--out", idx, "--out", idx],
    ];
    for args in twice {
        let out = bin().args(&args).output().unwrap();
        assert!(!out.status.success(), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let flag = if args[0] == "stats" { "--graph" } else { "--out" };
        assert!(stderr.contains(&format!("flag {flag} given twice")), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty() && !std::path::Path::new(idx).exists(), "{args:?}");
    }
}

#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    let graph = tmp("closed_stdout.bin");
    let status = bin()
        .args(["generate", "--model", "ba", "--nodes", "200", "--edges-per-node", "3"])
        .args(["--out", graph.to_str().unwrap()])
        .output()
        .unwrap()
        .status;
    assert!(status.success());
    // The reading end is closed before `pasco` starts: its first line
    // meets a broken pipe, as under `pasco stats … | head -0`.
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = bin()
        .args(["stats", "--graph", graph.to_str().unwrap()])
        .stdout(writer)
        .stderr(std::process::Stdio::piped())
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
    // A server's `listening on` line is the only way to find its port: one
    // that cannot write it exits 1, not 0, and does not serve.
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let mut worker = bin()
        .args(["worker", "--addr", "127.0.0.1:0"])
        .stdout(writer)
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let status = loop {
        if let Some(status) = worker.try_wait().unwrap() {
            break Some(status);
        }
        if std::time::Instant::now() > deadline {
            worker.kill().unwrap();
            worker.wait().unwrap();
            break None;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut worker.stderr.take().unwrap(), &mut stderr).unwrap();
    assert_eq!(status.and_then(|s| s.code()), Some(1), "{stderr}");
    assert!(stderr.starts_with("error: stdout: "), "{stderr}");
    // Any other stdout error is still the command's error.
    let Ok(full) = std::fs::OpenOptions::new().write(true).open("/dev/full") else {
        return;
    };
    let out = bin()
        .args(["stats", "--graph", graph.to_str().unwrap()])
        .stdout(full)
        .stderr(std::process::Stdio::piped())
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("error: stdout: "), "{stderr}");
}
