//! The driver: walks the workspace, runs every rule, applies pragma
//! suppressions, and renders the report (human or JSON).
//!
//! One pass, no cross-file analysis: each file is lexed once and handed
//! to the per-file rules; the only workspace-level rule (`wire-tag-
//! discipline`) reads two declaration files, the committed manifest, and
//! every string literal in the tree.
//!
//! ## What gets walked
//!
//! Every `.rs` file under the workspace root except:
//!
//! * `crates/shims/` — vendored dependency stand-ins, not this
//!   project's code (they hold the only sanctioned `unsafe` thread/Cell
//!   plumbing outside the two syscall shims);
//! * `target/`, `.git/`, and other dotted directories.
//!
//! Files under `tests/`, `benches/`, or `examples/` directories are
//! classified *whole-file test code*; rules that exempt test code skip
//! them entirely, while workspace-wide rules (like `float-ordering`)
//! still apply.

use crate::rules::{self, Finding};
use crate::source::SourceFile;
use crate::wire;
use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The outcome of one lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Unsuppressed findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Findings silenced by a `pasco-lint: allow(...)` pragma.
    pub suppressed: Vec<Finding>,
    /// How many files were scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when nothing (unsuppressed) was found.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the machine-readable JSON form (stable field order).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}",
                json_str(f.rule),
                json_str(&f.file),
                f.line,
                json_str(&f.message)
            ));
        }
        if !self.findings.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str(&format!(
            "],\n  \"suppressed\": {},\n  \"files_scanned\": {}\n}}\n",
            self.suppressed.len(),
            self.files_scanned
        ));
        s
    }

    /// Renders the human-readable form.
    pub fn to_human(&self) -> String {
        let mut s = String::new();
        for f in &self.findings {
            s.push_str(&format!("error[{}]: {}\n  --> {}:{}\n", f.rule, f.message, f.file, f.line));
        }
        s.push_str(&format!(
            "pasco-lint: {} finding{} ({} suppressed by pragmas) across {} files\n",
            self.findings.len(),
            if self.findings.len() == 1 { "" } else { "s" },
            self.suppressed.len(),
            self.files_scanned
        ));
        s
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Collects every workspace `.rs` file to lint, as
/// `(workspace-relative path, absolute path)`, sorted for deterministic
/// reports.
fn collect_files(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name.starts_with('.') || name == "target" {
                    continue;
                }
                let rel = rel_path(root, &path);
                if rel == "crates/shims" {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push((rel_path(root, &path), path));
            }
        }
    }
    out.sort();
    Ok(out)
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Lints the workspace rooted at `root`: every per-file rule, the
/// workspace-level wire-tag rule, then pragma suppression.
pub fn run_workspace(root: &Path) -> io::Result<Report> {
    let slugs = rules::rule_slugs();
    let mut files = Vec::new();
    for (rel, abs) in collect_files(root)? {
        let src = fs::read_to_string(&abs)?;
        files.push(SourceFile::new(rel, &src, &slugs));
    }

    let mut raw: Vec<Finding> = Vec::new();
    for file in &files {
        raw.extend(rules::check_file(file));
    }

    // The workspace-level wire-tag rule: parse the declarations, read the
    // manifest, scan every string literal in the tree for golden frames.
    let mut fixture_kinds = BTreeSet::new();
    for file in &files {
        // The linter's own test corpus contains frame-shaped hex strings;
        // they must not count as protocol fixtures.
        if file.rel.starts_with("crates/lint/") {
            continue;
        }
        for (_, value) in &file.lexed.strings {
            if let Some(kind) = wire::fixture_kind(value) {
                fixture_kinds.insert(kind);
            }
        }
    }
    let find = |rel: &str| files.iter().find(|f| f.rel == rel);
    let inputs = wire::WireInputs {
        frame_kinds: find(wire::ENVELOPE_PATH)
            .map(|f| wire::parse_enum_tags(&f.lexed, "FrameKind"))
            .unwrap_or_default(),
        error_tags: find(wire::WIRE_PATH)
            .map(|f| wire::parse_const_tags(&f.lexed, "ERR_"))
            .unwrap_or_default(),
        manifest: fs::read_to_string(root.join(wire::MANIFEST_PATH)).ok(),
        fixture_kinds,
    };
    raw.extend(wire::check(&inputs));

    // Pragma suppression.
    let mut report = Report { files_scanned: files.len(), ..Report::default() };
    for f in raw {
        let allowed =
            files.iter().find(|s| s.rel == f.file).is_some_and(|s| s.is_allowed(f.rule, f.line));
        if allowed {
            report.suppressed.push(f);
        } else {
            report.findings.push(f);
        }
    }
    report.findings.sort();
    report.suppressed.sort();
    Ok(report)
}

/// Walks upward from `start` to the first directory whose `Cargo.toml`
/// declares a `[workspace]` — how the binary finds the root when run
/// from a member crate.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn report_renders_both_forms() {
        let report = Report {
            findings: vec![Finding {
                file: "a.rs".into(),
                line: 3,
                rule: "float-ordering",
                message: "msg".into(),
            }],
            suppressed: vec![],
            files_scanned: 2,
        };
        let human = report.to_human();
        assert!(human.contains("error[float-ordering]: msg"));
        assert!(human.contains("a.rs:3"));
        assert!(human.contains("1 finding (0 suppressed by pragmas) across 2 files"));
        let json = report.to_json();
        assert!(json.contains("\"rule\": \"float-ordering\""));
        assert!(json.contains("\"files_scanned\": 2"));
    }

    #[test]
    fn empty_report_is_clean_and_valid_json() {
        let report = Report::default();
        assert!(report.is_clean());
        assert!(report.to_json().contains("\"findings\": []"));
    }
}
