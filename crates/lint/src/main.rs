#![forbid(unsafe_code)]
//! The `pasco-lint` binary: lints the workspace and reports.
//!
//! ```text
//! pasco-lint [--deny-all] [--json] [--root <dir>] [--list-rules]
//! ```
//!
//! * `--deny-all` — exit 1 when any unsuppressed finding remains (the CI
//!   merge-gate mode). Without it the run always exits 0 and just reports.
//! * `--json` — machine-readable output (findings, suppressed count,
//!   files scanned); CI uploads this as an artifact.
//! * `--root <dir>` — workspace root; defaults to walking upward from the
//!   current directory to the first `[workspace]` Cargo.toml.
//! * `--list-rules` — print the rule table and exit.

use pasco_lint::{engine, rules};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut deny_all = false;
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny-all" => deny_all = true,
            "--json" => json = true,
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage("--root needs a directory"),
            },
            "--list-rules" => {
                for (slug, summary) in rules::RULES {
                    println!("{slug}\n    {summary}");
                }
                return ExitCode::SUCCESS;
            }
            "-h" | "--help" => {
                println!(
                    "pasco-lint: the PASCO workspace invariant checker\n\n\
                     usage: pasco-lint [--deny-all] [--json] [--root <dir>] [--list-rules]\n\n\
                     Suppress a finding in code with `// pasco-lint: allow(<rule>)` on (or\n\
                     directly above) the offending line, with a comment justifying why the\n\
                     invariant holds there."
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let root = match root
        .or_else(|| std::env::current_dir().ok().and_then(|d| engine::find_workspace_root(&d)))
    {
        Some(r) => r,
        None => {
            eprintln!("pasco-lint: no workspace root found (pass --root <dir>)");
            return ExitCode::FAILURE;
        }
    };

    let report = match engine::run_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pasco-lint: failed to scan {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };

    if json {
        print!("{}", report.to_json());
    } else {
        print!("{}", report.to_human());
    }

    if deny_all && !report.is_clean() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!(
        "pasco-lint: {err}\nusage: pasco-lint [--deny-all] [--json] [--root <dir>] [--list-rules]"
    );
    ExitCode::FAILURE
}
