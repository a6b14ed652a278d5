#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! **pasco-lint** — a workspace-native invariant checker that turns this
//! repository's past bugs into CI-enforced rules.
//!
//! rustc and clippy verify what the *language* promises; this crate
//! verifies what the *project* promises and no compiler lint can see:
//! determinism in the seed (no hash-ordered collections, no parallel
//! float reductions), NaN-safe rankings, `unsafe` confined to two syscall
//! shims, and append-only wire tags with golden-byte fixtures. Each rule
//! exists because its violation already shipped once (see the ledger in
//! `README.md` §Static analysis).
//!
//! There is one stage — every rule is a scan over a token stream:
//!
//! * [`lexer`] — a comment- and string-literal-aware Rust lexer, so rules
//!   match code, never prose;
//! * [`source`] — per-file classification: `#[cfg(test)]`/`#[test]`
//!   regions and `pasco-lint: allow(…)` suppression pragmas;
//! * [`rules`] + [`wire`] — the rules themselves, pure functions from
//!   lexed source and the committed `WIRE_TAGS.manifest` to
//!   [`rules::Finding`]s;
//! * [`engine`] — walks the workspace, applies suppressions, renders
//!   human or `--json` reports.
//!
//! What it deliberately does **not** do is resolve calls. The call-graph
//! and taint stages that once did (panic reachability, lock order,
//! reactor blocking, wire-length taint) were retired: panic-freedom of
//! the serving closure is the compiler's job now — the eight serving
//! crates deny `clippy::unwrap_used` / `expect_used` / `panic` & co. at
//! their roots — and hostile wire lengths are held by the adversarial
//! decode tests in `tests/api.rs` and `crates/store/tests/hostile.rs`.
//!
//! Run it as `cargo run -p pasco-lint -- --deny-all` (CI does, as a merge
//! gate). The library surface exists so the crate's own tests — and the
//! workspace self-run test — can drive the engine in-process.

pub mod engine;
pub mod lexer;
pub mod rules;
pub mod source;
pub mod wire;

pub use engine::{find_workspace_root, run_workspace, Report};
pub use rules::{Finding, RULES};
