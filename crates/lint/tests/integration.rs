//! End-to-end tests for `pasco-lint`: each rule is exercised through the
//! public [`run_workspace`] entry point against a scratch workspace on
//! disk, exactly the way the CI gate runs it — bad fixture fires, clean
//! fixture stays silent, and a pragma round-trips the finding into the
//! suppressed bucket. The final test self-hosts: it lints the real
//! workspace at `HEAD` and asserts `--deny-all` would pass.

#![forbid(unsafe_code)]

use pasco_lint::{find_workspace_root, run_workspace, Report};
use std::fs;
use std::path::{Path, PathBuf};

/// Creates an empty scratch workspace (unique per test) and returns its
/// root. Re-runs wipe any leftover from a previous invocation.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pasco-lint-it-{}-{name}", std::process::id()));
    if dir.exists() {
        fs::remove_dir_all(&dir).unwrap();
    }
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join("Cargo.toml"), "[workspace]\n").unwrap();
    dir
}

fn put(root: &Path, rel: &str, contents: &str) {
    let path = root.join(rel);
    fs::create_dir_all(path.parent().unwrap()).unwrap();
    fs::write(path, contents).unwrap();
}

/// A minimal wire-clean baseline: one frame kind, one error tag, a
/// matching manifest, and a golden fixture for the one kind. Every rule
/// test starts from this so only the seeded violation shows up.
fn seed_wire_baseline(root: &Path) {
    put(
        root,
        "crates/core/src/api/envelope.rs",
        "pub enum FrameKind { Hello = 0 }\n\
         pub const GOLDEN_HELLO: &str =\n    \
         \"50 53 43 4f 01 00 00 00 01 00 00 00 00 00 00 00 00 00 00 00\";\n",
    );
    put(root, "crates/core/src/api/wire.rs", "pub const ERR_A: u8 = 0;\n");
    put(root, "WIRE_TAGS.manifest", "framekind Hello 0\nqueryerror ERR_A 0\n");
}

fn lint(root: &Path) -> Report {
    run_workspace(root).unwrap()
}

fn rules_of(report: &Report) -> Vec<&'static str> {
    report.findings.iter().map(|f| f.rule).collect()
}

#[test]
fn wire_clean_baseline_is_clean() {
    let root = scratch("baseline");
    seed_wire_baseline(&root);
    let report = lint(&root);
    assert!(report.is_clean(), "{}", report.to_human());
    assert_eq!(report.files_scanned, 2);
}

// ---- nondeterministic-iteration ------------------------------------------

#[test]
fn hash_collection_in_determinism_crate_fires_and_pragma_silences() {
    let root = scratch("nondet");
    seed_wire_baseline(&root);
    put(&root, "crates/graph/src/gen.rs", "use std::collections::HashSet;\n");
    let report = lint(&root);
    assert_eq!(rules_of(&report), vec!["nondeterministic-iteration"]);
    assert_eq!(report.findings[0].file, "crates/graph/src/gen.rs");
    assert_eq!(report.findings[0].line, 1);

    // Same site with a trailing justification pragma: suppressed, not gone.
    put(
        &root,
        "crates/graph/src/gen.rs",
        "use std::collections::HashSet; // pasco-lint: allow(nondeterministic-iteration)\n",
    );
    let report = lint(&root);
    assert!(report.is_clean(), "{}", report.to_human());
    assert_eq!(report.suppressed.len(), 1);
}

#[test]
fn hash_collection_outside_determinism_crates_is_fine() {
    let root = scratch("nondet-scope");
    seed_wire_baseline(&root);
    put(&root, "crates/solver/src/x.rs", "use std::collections::HashMap;\n");
    assert!(lint(&root).is_clean());
}

// ---- float-ordering ------------------------------------------------------

#[test]
fn partial_cmp_fires_even_in_examples() {
    let root = scratch("float");
    seed_wire_baseline(&root);
    put(
        &root,
        "examples/rank.rs",
        "fn main() { let mut v = vec![1.0f64]; v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n",
    );
    let report = lint(&root);
    assert_eq!(rules_of(&report), vec!["float-ordering"]);

    put(
        &root,
        "examples/rank.rs",
        "fn main() { let mut v = vec![1.0f64]; v.sort_by(|a, b| a.total_cmp(b)); }\n",
    );
    assert!(lint(&root).is_clean());
}

// ---- unsafe-confinement --------------------------------------------------

#[test]
fn unsafe_outside_shim_fires_inside_shim_does_not() {
    let root = scratch("unsafe");
    seed_wire_baseline(&root);
    let body = "pub fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
    put(&root, "crates/worker/src/util.rs", body);
    let report = lint(&root);
    assert_eq!(rules_of(&report), vec!["unsafe-confinement"]);

    fs::remove_file(root.join("crates/worker/src/util.rs")).unwrap();
    put(&root, "crates/server/src/sys.rs", body);
    assert!(lint(&root).is_clean());

    // The mmap shim is the second sanctioned unsafe module...
    put(&root, "crates/store/src/sys.rs", body);
    assert!(lint(&root).is_clean());

    // ...and the sanction is the allowlist, not the file name: a third
    // `sys.rs` in an unsanctioned crate still fires.
    put(&root, "crates/worker/src/sys.rs", body);
    assert_eq!(rules_of(&lint(&root)), vec!["unsafe-confinement"]);
}

#[test]
fn crate_root_without_deny_unsafe_fires() {
    let root = scratch("unsafe-root");
    seed_wire_baseline(&root);
    put(&root, "crates/worker/src/lib.rs", "pub fn f() {}\n");
    let report = lint(&root);
    assert_eq!(rules_of(&report), vec!["unsafe-confinement"]);

    put(&root, "crates/worker/src/lib.rs", "#![forbid(unsafe_code)]\npub fn f() {}\n");
    assert!(lint(&root).is_clean());
}

// ---- bad-pragma ----------------------------------------------------------

#[test]
fn pragma_naming_unknown_rule_fires_bad_pragma() {
    let root = scratch("bad-pragma");
    seed_wire_baseline(&root);
    put(&root, "crates/solver/src/x.rs", "// pasco-lint: allow(no-such-rule)\nfn f() {}\n");
    let report = lint(&root);
    assert_eq!(rules_of(&report), vec!["bad-pragma"]);

    // A retired slug is unknown too: a pragma left behind for a rule that
    // no longer runs is reported, not silently carried.
    put(
        &root,
        "crates/solver/src/x.rs",
        "// pasco-lint: allow(panic-reachable-in-serving)\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
    );
    let report = lint(&root);
    assert_eq!(rules_of(&report), vec!["bad-pragma"]);
    assert!(
        report.findings[0].message.contains("panic-reachable-in-serving"),
        "{}",
        report.findings[0].message
    );
}

// ---- wire-tag-discipline -------------------------------------------------

#[test]
fn renumbered_tag_against_manifest_fires() {
    let root = scratch("wire-renumber");
    seed_wire_baseline(&root);
    // Doctor the manifest: the committed registry says Hello was 1.
    put(&root, "WIRE_TAGS.manifest", "framekind Hello 1\nqueryerror ERR_A 0\n");
    let report = lint(&root);
    assert_eq!(rules_of(&report), vec!["wire-tag-discipline"]);
    assert!(report.findings[0].message.contains("renumbered"), "{}", report.findings[0].message);
}

#[test]
fn new_variant_not_appended_to_manifest_fires() {
    let root = scratch("wire-append");
    seed_wire_baseline(&root);
    put(
        &root,
        "crates/core/src/api/envelope.rs",
        "pub enum FrameKind { Hello = 0, Fresh = 1 }\n\
         pub const G0: &str = \"50 53 43 4f 01 00 00\";\n\
         pub const G1: &str = \"50 53 43 4f 01 00 01\";\n",
    );
    let report = lint(&root);
    assert_eq!(rules_of(&report), vec!["wire-tag-discipline"]);
    assert!(
        report.findings[0].message.contains("must be appended"),
        "{}",
        report.findings[0].message
    );
}

#[test]
fn frame_kind_without_golden_fixture_fires() {
    let root = scratch("wire-fixture");
    seed_wire_baseline(&root);
    // Drop the fixture string but keep the declaration and manifest.
    put(&root, "crates/core/src/api/envelope.rs", "pub enum FrameKind { Hello = 0 }\n");
    let report = lint(&root);
    assert_eq!(rules_of(&report), vec!["wire-tag-discipline"]);
    assert!(
        report.findings[0].message.contains("no golden-bytes fixture"),
        "{}",
        report.findings[0].message
    );
}

#[test]
fn missing_manifest_fires() {
    let root = scratch("wire-missing");
    seed_wire_baseline(&root);
    fs::remove_file(root.join("WIRE_TAGS.manifest")).unwrap();
    let report = lint(&root);
    assert_eq!(rules_of(&report), vec!["wire-tag-discipline"]);
    assert!(report.findings[0].file == "WIRE_TAGS.manifest");
}

// ---- fp-reduction-order --------------------------------------------------

#[test]
fn parallel_float_sum_fires_sequential_and_minmax_are_fine() {
    let root = scratch("fp-order");
    seed_wire_baseline(&root);
    put(
        &root,
        "crates/graph/src/score.rs",
        "pub fn total(xs: &[f64]) -> f64 {\n\
             xs.par_iter().map(|x| x * 2.0).sum()\n\
         }\n",
    );
    let report = lint(&root);
    assert_eq!(rules_of(&report), vec!["fp-reduction-order"]);
    assert_eq!(report.findings[0].line, 2);

    put(
        &root,
        "crates/graph/src/score.rs",
        "pub fn total(xs: &[f64]) -> f64 {\n\
             xs.iter().sum()\n\
         }\n\
         pub fn peak(xs: &[f64]) -> f64 {\n\
             xs.par_iter().copied().reduce(|| f64::MIN, f64::max)\n\
         }\n",
    );
    assert!(lint(&root).is_clean(), "{}", lint(&root).to_human());
}

// ---- self-hosting --------------------------------------------------------

/// The gate CI enforces: the workspace at `HEAD` must be `--deny-all`
/// clean. Every suppression present must be a deliberate pragma, so the
/// suppressed set is pinned: the four `nondeterministic-iteration`
/// pragmas of the session cache and nothing else.
#[test]
fn real_workspace_is_deny_all_clean_at_head() {
    let start = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = find_workspace_root(start.parent().unwrap().parent().unwrap())
        .expect("workspace root above crates/lint");
    let report = run_workspace(&root).unwrap();
    assert!(report.is_clean(), "workspace lint regressions:\n{}", report.to_human());
    assert!(report.files_scanned > 50, "walked only {} files", report.files_scanned);
    let suppressed: Vec<_> = report.suppressed.iter().map(|f| f.rule).collect();
    assert_eq!(suppressed, vec!["nondeterministic-iteration"; 4], "{:?}", report.suppressed);

    // One lexical stage, six rules: the interprocedural ones are retired
    // (see README §Static analysis for what succeeded each).
    assert_eq!(pasco_lint::RULES.len(), 6);
    assert!(!root.join("CALLGRAPH.baseline").exists());
}

/// Every `FrameKind` variant declared in the real envelope module is
/// pinned by a golden-bytes fixture somewhere in the real tree — the
/// self-run above would fail otherwise, but this asserts the positive
/// direction too: the fixture scan actually finds all committed kinds.
#[test]
fn real_workspace_golden_fixtures_cover_all_frame_kinds() {
    let start = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = find_workspace_root(start.parent().unwrap().parent().unwrap()).unwrap();
    let manifest = fs::read_to_string(root.join("WIRE_TAGS.manifest")).unwrap();
    let committed: Vec<&str> = manifest
        .lines()
        .filter(|l| l.starts_with("framekind "))
        .map(|l| l.split_whitespace().nth(1).unwrap())
        .collect();
    // The envelope declares 12 frame kinds as of this PR; the manifest
    // must list them all, and the lint run (clean, above) proves each has
    // a fixture. Appending new kinds should grow this list.
    assert!(committed.len() >= 12, "manifest lists only {} frame kinds", committed.len());
    for name in ["Hello", "LoadPartition", "BuildShard", "ShardQuery", "ShardTopK", "WorkerStats"] {
        assert!(committed.contains(&name), "`{name}` missing from manifest");
    }
}
