//! The rule registry and the per-file rules.
//!
//! Every rule here is grounded in a bug this repository actually shipped
//! (see `README.md` §Static analysis for the table):
//!
//! * [`NONDETERMINISTIC_ITERATION`] — PR 1 fixed `barabasi_albert`
//!   feeding `HashSet` iteration order into sampling, which broke
//!   deterministic-in-seed reproducibility across processes.
//! * [`FLOAT_ORDERING`] — PR 3 fixed rankings panicking on a
//!   NaN-poisoned diagonal via `partial_cmp().unwrap()`; score paths
//!   must use `total_cmp`.
//! * [`UNSAFE_CONFINEMENT`] — PR 6 confined `unsafe` to the epoll shim
//!   `crates/server/src/sys.rs` by convention; this makes it structural.
//! * [`WIRE_TAG_DISCIPLINE`] (in [`crate::wire`]) — wire tags are
//!   append-only and every frame kind needs a golden-bytes fixture.
//! * [`FP_REDUCTION_ORDER`] — a parallel float `sum` / `product` /
//!   `reduce` / `fold` adds in scheduler order, which breaks the
//!   cross-substrate bit-identity every engine suite asserts; `min` /
//!   `max` combiners are associative and exempt.
//! * [`BAD_PRAGMA`] — a suppression naming no known rule (a typo, or a
//!   rule that has since been retired) is itself a finding.
//!
//! Every rule is a scan over one file's token stream. Whatever needs to
//! know what a call *resolves to* — panic-freedom of the serving closure
//! above all — is left to the compiler: the serving crates deny
//! `clippy::unwrap_used` / `expect_used` / `panic` & co. at their roots
//! (see `README.md` §Static analysis for the retired rules and what
//! succeeded each).

use crate::lexer::Token;
use crate::source::SourceFile;

/// One reported violation.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule slug.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

/// Rule slug: hash-ordered collections in determinism-critical crates.
pub const NONDETERMINISTIC_ITERATION: &str = "nondeterministic-iteration";
/// Rule slug: `partial_cmp` on score paths.
pub const FLOAT_ORDERING: &str = "float-ordering";
/// Rule slug: `unsafe` outside the syscall shim / missing crate-root deny.
pub const UNSAFE_CONFINEMENT: &str = "unsafe-confinement";
/// Rule slug: wire-tag uniqueness, manifest sync, fixture coverage.
pub const WIRE_TAG_DISCIPLINE: &str = "wire-tag-discipline";
/// Rule slug: malformed pragma or pragma naming an unknown rule.
pub const BAD_PRAGMA: &str = "bad-pragma";
/// Rule slug: a parallel float reduction whose addition order is
/// scheduler-dependent.
pub const FP_REDUCTION_ORDER: &str = "fp-reduction-order";

/// Every rule `pasco-lint` knows, with a one-line summary (shown by
/// `--list-rules` and used in the README table).
pub const RULES: &[(&str, &str)] = &[
    (
        NONDETERMINISTIC_ITERATION,
        "no HashSet/HashMap in pasco_graph/pasco_mc/pasco_simrank production code: hasher order \
         must never feed sampling or generation",
    ),
    (
        FLOAT_ORDERING,
        "no partial_cmp anywhere in the workspace: rankings sort with f64::total_cmp so NaN \
         cannot panic or reorder",
    ),
    (
        UNSAFE_CONFINEMENT,
        "unsafe only in the sanctioned syscall shims (crates/server/src/sys.rs epoll, \
         crates/store/src/sys.rs mmap); every other crate root carries #![deny(unsafe_code)] \
         or #![forbid(unsafe_code)]",
    ),
    (
        WIRE_TAG_DISCIPLINE,
        "FrameKind/QueryError wire tags are unique, never renumbered against WIRE_TAGS.manifest, \
         and every frame kind has a golden-bytes fixture",
    ),
    (BAD_PRAGMA, "a pasco-lint pragma must be allow(...) and name only known rules"),
    (
        FP_REDUCTION_ORDER,
        "no parallel f64/f32 sum/product/reduce/fold in determinism crates: FP addition is \
         non-associative, so scheduler-dependent order breaks cross-substrate bit-equality \
         (min/max combiners are associative and exempt)",
    ),
];

/// The slugs alone, for pragma validation.
pub fn rule_slugs() -> Vec<&'static str> {
    RULES.iter().map(|(slug, _)| *slug).collect()
}

/// Crates whose sampling / generation / scoring must be deterministic in
/// the seed: hash-ordered collections are banned in their production code.
const DETERMINISM_DIRS: &[&str] = &["crates/graph/src/", "crates/mc/src/", "crates/core/src/"];

/// Crates whose float results must be bit-identical across substrates
/// and thread counts: a parallel float reduction there (test code
/// included — the oracles must be deterministic too) is a finding.
const FP_DIRS: &[&str] =
    &["crates/graph/src/", "crates/mc/src/", "crates/core/src/", "crates/solver/src/"];

/// The sanctioned `unsafe` shim modules — raw syscall bindings wrapped
/// behind safe interfaces. Exactly two exist: the epoll shim behind the
/// reactor and the mmap shim behind the out-of-core store. Growing this
/// allowlist is a reviewed act, the same way raising a wire tag is.
pub const UNSAFE_SHIMS: &[&str] = &["crates/server/src/sys.rs", "crates/store/src/sys.rs"];
/// The crate-root gates allowed to carry `#[allow(unsafe_code)]` — one
/// per shim, each admitting its `mod sys` into an otherwise
/// `deny(unsafe_code)` crate.
pub const UNSAFE_GATES: &[&str] = &["crates/server/src/lib.rs", "crates/store/src/lib.rs"];

/// True when `rel` sits under one of `dirs`.
fn in_dirs(rel: &str, dirs: &[&str]) -> bool {
    dirs.iter().any(|d| rel.starts_with(d))
}

/// Runs every per-file rule over one source file. (The workspace-level
/// wire-tag rule lives in [`crate::wire`].)
pub fn check_file(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    nondeterministic_iteration(file, &mut out);
    float_ordering(file, &mut out);
    unsafe_confinement(file, &mut out);
    fp_reduction_order(file, &mut out);
    bad_pragmas(file, &mut out);
    out
}

fn push(out: &mut Vec<Finding>, file: &SourceFile, line: u32, rule: &'static str, msg: String) {
    out.push(Finding { file: file.rel.clone(), line, rule, message: msg });
}

fn nondeterministic_iteration(file: &SourceFile, out: &mut Vec<Finding>) {
    if !in_dirs(&file.rel, DETERMINISM_DIRS) {
        return;
    }
    for t in &file.lexed.tokens {
        let Some(w) = t.word() else { continue };
        if (w == "HashSet" || w == "HashMap") && !file.is_test_line(t.line) {
            push(
                out,
                file,
                t.line,
                NONDETERMINISTIC_ITERATION,
                format!(
                    "`{w}` is hash-ordered: iteration order depends on hasher state and can leak \
                     into sampling, generation, or rankings (the PR 1 `barabasi_albert` \
                     regression class). Use `BTreeMap`/`BTreeSet`/a sorted `Vec`, or — if order \
                     provably never escapes — add `// pasco-lint: allow({NONDETERMINISTIC_ITERATION})` \
                     with a comment saying why"
                ),
            );
        }
    }
}

fn float_ordering(file: &SourceFile, out: &mut Vec<Finding>) {
    for t in &file.lexed.tokens {
        if t.is_word("partial_cmp") {
            push(
                out,
                file,
                t.line,
                FLOAT_ORDERING,
                format!(
                    "`partial_cmp` on a score path panics or misorders on NaN (the PR 3 \
                     NaN-poisoned-diagonal ranking bug). Sort floats with `f64::total_cmp`, or \
                     justify with `// pasco-lint: allow({FLOAT_ORDERING})`"
                ),
            );
        }
    }
}

fn unsafe_confinement(file: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &file.lexed.tokens;
    // 1. `unsafe` tokens only in the sanctioned syscall shims.
    if !UNSAFE_SHIMS.contains(&file.rel.as_str()) {
        for t in toks {
            if t.is_word("unsafe") {
                push(
                    out,
                    file,
                    t.line,
                    UNSAFE_CONFINEMENT,
                    format!(
                        "`unsafe` is confined to the sanctioned syscall shims ({}); wrap the \
                         unsafety behind a safe interface in one of them instead",
                        UNSAFE_SHIMS.join(", ")
                    ),
                );
            }
        }
    }
    // 2. `allow(unsafe_code)` only at a shim's gate in its crate root.
    if !UNSAFE_GATES.contains(&file.rel.as_str()) {
        // Three tokens, not four: `allow(unsafe_code, reason = "…")` counts.
        for win in toks.windows(3) {
            if win[0].is_word("allow") && win[1].is_punct('(') && win[2].is_word("unsafe_code") {
                push(
                    out,
                    file,
                    win[0].line,
                    UNSAFE_CONFINEMENT,
                    format!(
                        "`#[allow(unsafe_code)]` appears only in the shim gates ({}) that admit \
                         a `mod sys`; nothing else may reopen unsafe",
                        UNSAFE_GATES.join(", ")
                    ),
                );
            }
        }
    }
    // 3. Every crate root must deny (or forbid) unsafe_code.
    let is_crate_root = file.rel == "src/lib.rs"
        || (file.rel.starts_with("crates/") && file.rel.ends_with("/src/lib.rs"));
    if is_crate_root {
        let denies = toks.windows(4).any(|w| {
            (w[0].is_word("deny") || w[0].is_word("forbid"))
                && w[1].is_punct('(')
                && w[2].is_word("unsafe_code")
                && w[3].is_punct(')')
        });
        if !denies {
            push(
                out,
                file,
                1,
                UNSAFE_CONFINEMENT,
                "crate root is missing `#![deny(unsafe_code)]` (or `#![forbid(unsafe_code)]`); \
                 every non-shim crate must refuse unsafe at the root"
                    .to_owned(),
            );
        }
    }
}

fn is_par_adapter(w: &str) -> bool {
    w == "into_par_iter" || w == "par_bridge" || w.starts_with("par_")
}

fn opens(t: &Token) -> bool {
    t.is_punct('(') || t.is_punct('[') || t.is_punct('{')
}

fn closes(t: &Token) -> bool {
    t.is_punct(')') || t.is_punct(']') || t.is_punct('}')
}

/// One past the last token of the `;`-delimited statement holding token
/// `from`: the first `;` at `from`'s nesting depth, or the delimiter that
/// closes the group `from` sits in (a tail expression).
fn statement_end(toks: &[Token], from: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(from) {
        if opens(t) {
            depth += 1;
        } else if closes(t) {
            match depth.checked_sub(1) {
                Some(d) => depth = d,
                None => return i,
            }
        } else if depth == 0 && t.is_punct(';') {
            return i;
        }
    }
    toks.len()
}

/// An `f64` / `f32` type word, a `…f64` literal suffix, or a `1.5`-shaped
/// literal (which lexes as digits `.` digits).
fn float_evidence(toks: &[Token]) -> bool {
    let digits = |t: Option<&Token>| {
        t.and_then(Token::word).is_some_and(|w| w.starts_with(|c: char| c.is_ascii_digit()))
    };
    toks.iter().enumerate().any(|(i, t)| {
        t.word().is_some_and(|w| w.ends_with("f64") || w.ends_with("f32"))
            || (digits(Some(t))
                && toks.get(i + 1).is_some_and(|t| t.is_punct('.'))
                && digits(toks.get(i + 2)))
    })
}

/// The order-sensitive reduction (`sum` / `product`, or a `reduce` /
/// `fold` whose arguments name neither `max` nor `min`) chained onto the
/// parallel adapter at `toks[par]`, at the adapter's own nesting depth —
/// a sequential `.sum()` inside a `map` closure is not the parallel one.
fn par_reduction(toks: &[Token], par: usize, end: usize) -> Option<&Token> {
    let mut depth = 0usize;
    let mut k = par + 1;
    while k < end {
        if opens(&toks[k]) {
            depth += 1;
        } else if closes(&toks[k]) {
            depth = depth.checked_sub(1)?;
        } else if depth == 0 && toks[k].is_punct('.') {
            let method = toks.get(k + 1)?;
            if method.is_word("sum") || method.is_word("product") {
                return Some(method);
            }
            if method.is_word("reduce") || method.is_word("fold") {
                // The argument list follows, possibly after a turbofish.
                let open = (k + 2..end).find(|&t| toks[t].is_punct('('))?;
                let close = statement_end(toks, open + 1);
                let associative =
                    toks[open..close].iter().any(|t| t.is_word("max") || t.is_word("min"));
                if !associative {
                    return Some(method);
                }
                k = close;
                continue;
            }
        }
        k += 1;
    }
    None
}

fn fp_reduction_order(file: &SourceFile, out: &mut Vec<Finding>) {
    if !in_dirs(&file.rel, FP_DIRS) {
        return;
    }
    let toks = &file.lexed.tokens;
    for par in 0..toks.len() {
        if !toks[par].word().is_some_and(is_par_adapter) {
            continue;
        }
        // The statement around the adapter: back to the previous `;` or
        // brace, forward to the `;` (or closing delimiter) that ends it.
        let start = toks[..par]
            .iter()
            .rposition(|t| t.is_punct(';') || t.is_punct('{') || t.is_punct('}'))
            .map_or(0, |i| i + 1);
        let end = statement_end(toks, par);
        if !float_evidence(&toks[start..end]) {
            continue;
        }
        let Some(method) = par_reduction(toks, par, end) else { continue };
        if out.iter().any(|f| f.rule == FP_REDUCTION_ORDER && f.line == method.line) {
            continue;
        }
        let m = method.word().unwrap_or_default();
        push(
            out,
            file,
            method.line,
            FP_REDUCTION_ORDER,
            format!(
                "parallel float `.{m}(…)` — FP addition is non-associative, so the scheduler's \
                 reduction order changes the result; reduce with min/max or collect and fold \
                 sequentially"
            ),
        );
    }
}

fn bad_pragmas(file: &SourceFile, out: &mut Vec<Finding>) {
    for (line, what) in &file.bad_pragmas {
        push(
            out,
            file,
            *line,
            BAD_PRAGMA,
            format!(
                "pragma names no known rule (`{what}`): the only form is `pasco-lint: \
                 allow(<rule>, …)` with slugs from `pasco-lint --list-rules` — a typo here would \
                 silently suppress nothing"
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn findings(rel: &str, src: &str) -> Vec<Finding> {
        let slugs = rule_slugs();
        check_file(&SourceFile::new(rel.to_owned(), src, &slugs))
    }

    #[test]
    fn hash_collections_flagged_only_in_determinism_crates() {
        let bad =
            "use std::collections::HashSet;\nfn f() { let s: HashSet<u32> = HashSet::new(); }\n";
        let hits = findings("crates/graph/src/gen.rs", bad);
        assert_eq!(hits.iter().filter(|f| f.rule == NONDETERMINISTIC_ITERATION).count(), 3);
        // Same source elsewhere: out of scope.
        assert!(findings("crates/server/src/x.rs", bad)
            .iter()
            .all(|f| f.rule != NONDETERMINISTIC_ITERATION));
        // In test code of a determinism crate: fine.
        let test_only = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
        assert!(findings("crates/core/src/x.rs", test_only).is_empty());
    }

    #[test]
    fn unsafe_flagged_outside_shim_allowlist() {
        let bad =
            "#![deny(unsafe_code)]\nfn f() { unsafe { std::hint::unreachable_unchecked() } }\n";
        let hits = findings("crates/core/src/x.rs", bad);
        assert_eq!(hits.iter().filter(|f| f.rule == UNSAFE_CONFINEMENT).count(), 1);
        // Both sanctioned shims are clean…
        assert!(findings("crates/server/src/sys.rs", bad).is_empty());
        assert!(findings("crates/store/src/sys.rs", bad).is_empty());
        // …but a third sys.rs elsewhere is NOT a shim: allowlist, not a
        // name pattern.
        let hits = findings("crates/worker/src/sys.rs", bad);
        assert_eq!(hits.iter().filter(|f| f.rule == UNSAFE_CONFINEMENT).count(), 1);
    }

    #[test]
    fn crate_root_must_deny_unsafe() {
        let hits = findings("crates/x/src/lib.rs", "pub fn f() {}\n");
        assert_eq!(hits.iter().filter(|f| f.rule == UNSAFE_CONFINEMENT).count(), 1);
        assert!(
            findings("crates/x/src/lib.rs", "#![forbid(unsafe_code)]\npub fn f() {}\n").is_empty()
        );
        assert!(
            findings("crates/x/src/lib.rs", "#![deny(unsafe_code)]\npub fn f() {}\n").is_empty()
        );
        // Non-root files need no attribute.
        assert!(findings("crates/x/src/util.rs", "pub fn f() {}\n").is_empty());
    }

    #[test]
    fn allow_unsafe_code_flagged_outside_gates() {
        let bad = "#![deny(unsafe_code)]\n#[allow(unsafe_code)]\nmod sys;\n";
        let hits = findings("crates/worker/src/lib.rs", bad);
        assert_eq!(hits.iter().filter(|f| f.rule == UNSAFE_CONFINEMENT).count(), 1);
        // A `reason` does not launder it.
        let reasoned = "#![deny(unsafe_code)]\n#[allow(unsafe_code, reason = \"x\")]\nmod sys;\n";
        let hits = findings("crates/worker/src/lib.rs", reasoned);
        assert_eq!(hits.iter().filter(|f| f.rule == UNSAFE_CONFINEMENT).count(), 1);
        assert!(findings("crates/server/src/lib.rs", bad).is_empty());
        assert!(findings("crates/store/src/lib.rs", bad).is_empty());
    }

    #[test]
    fn partial_cmp_flagged_everywhere_even_tests() {
        let bad = "fn f(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n";
        assert_eq!(findings("crates/core/src/x.rs", bad).len(), 1);
        assert_eq!(findings("tests/x.rs", bad).len(), 1);
        let ok = "fn f(v: &mut [f64]) { v.sort_by(f64::total_cmp); }\n";
        assert!(findings("crates/core/src/x.rs", ok).is_empty());
    }

    fn fp(rel: &str, src: &str) -> Vec<u32> {
        findings(rel, src).iter().filter(|f| f.rule == FP_REDUCTION_ORDER).map(|f| f.line).collect()
    }

    #[test]
    fn parallel_float_reduction_fires_and_max_is_exempt() {
        let src = "pub fn total(xs: &[f64]) -> f64 {\n\
                 xs.par_iter().map(|x| x * 2.0).sum()\n\
             }\n\
             pub fn maxi(xs: &[f64]) -> f64 {\n\
                 xs.par_iter().cloned().reduce(|| 0.0, f64::max)\n\
             }\n\
             pub fn seq(xs: &[f64]) -> f64 {\n\
                 xs.iter().sum()\n\
             }\n";
        assert_eq!(fp("crates/core/src/lib.rs", src), vec![2], "exactly the par sum");
        // Outside the determinism dirs the rule stays silent.
        assert!(fp("crates/lint/src/lib.rs", src).is_empty());
        // An integer reduction is order-insensitive: no float evidence.
        let ints = "fn n(xs: &[u64]) -> u64 { let t: u64 = xs.par_iter().sum(); t }\n";
        assert!(fp("crates/mc/src/x.rs", ints).is_empty());
        // `let`-bound with the type on the binding, combiner not min/max.
        let bound = "fn t(xs: &[f64]) -> f64 {\n\
                 let s: f64 = xs.par_iter().copied().reduce(|| 0.0, |a, b| a + b);\n\
                 s\n\
             }\n";
        assert_eq!(fp("crates/solver/src/x.rs", bound), vec![2]);
    }

    #[test]
    fn inner_sequential_sum_inside_par_closure_is_exempt() {
        // The solver's residual: sequential row sums folded by `max`.
        let src = "pub fn residual(rows: &[Vec<f64>]) -> f64 {\n\
                 rows.par_iter().map(|r| r.iter().map(|x| x * 1.0).sum::<f64>()).reduce(|| 0.0, \
             f64::max)\n\
             }\n";
        assert!(fp("crates/solver/src/lib.rs", src).is_empty());
    }

    #[test]
    fn prose_never_fires_rules() {
        let prose = "//! Uses `HashSet` and `.unwrap()` and `partial_cmp` and `unsafe`.\n\
                     const DOC: &str = \"thread::sleep(read_envelope)\";\n";
        assert!(findings("crates/graph/src/x.rs", prose).is_empty());
        assert!(findings("crates/server/src/server.rs", prose).is_empty());
    }

    #[test]
    fn pragma_suppression_is_not_a_rule_job() {
        // Suppression happens in the engine; rules report everything.
        let src =
            "use std::collections::HashSet; // pasco-lint: allow(nondeterministic-iteration)\n";
        assert_eq!(findings("crates/graph/src/x.rs", src).len(), 1);
    }
}
