//! Per-file analysis context: the lexed views plus two derived facts the
//! rules need — which lines are *test code*, and which findings are
//! suppressed by `pasco-lint: allow(...)` pragmas.
//!
//! ## Test regions
//!
//! Rules like `nondeterministic-iteration` apply to production code only:
//! a `HashMap` inside `#[cfg(test)] mod tests { … }` or a `#[test]` fn is
//! fine. Test regions are found by scanning the token stream for a
//! `#[…]` attribute containing the word `test` (`#[test]`,
//! `#[cfg(test)]`, `#[cfg(all(test, …))]`), skipping any further
//! attributes, and brace-matching the item that follows. Because the
//! lexer blanks strings and comments, brace matching cannot be fooled by
//! braces in prose.
//!
//! ## Pragmas
//!
//! ```text
//! // pasco-lint: allow(rule-a, rule-b)
//! ```
//!
//! A pragma suppresses findings of the named rules on its own line
//! (trailing-comment form) and on the next line that carries code
//! (standalone-comment form). Unknown rule names in a pragma are
//! themselves reported (rule `bad-pragma`), so a typo cannot silently
//! disable nothing. Pragmas live in plain `//` / `/* … */` comments
//! only: doc comments are documentation, so prose *about* the pragma
//! syntax (like this module header) never parses as a directive.

use crate::lexer::{lex, Lexed, Tok};
use std::collections::{BTreeMap, BTreeSet};

/// Marker in a comment introducing a suppression pragma.
pub const PRAGMA: &str = "pasco-lint:";

/// One lexed file plus derived line classifications.
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    /// The lexed views.
    pub lexed: Lexed,
    /// True when the whole file is test/bench/example code (under a
    /// `tests/`, `benches/`, or `examples/` directory).
    pub whole_file_test: bool,
    /// Inclusive `(start, end)` line spans of `#[cfg(test)]` / `#[test]`
    /// items.
    test_spans: Vec<(u32, u32)>,
    /// rule → lines on which that rule is suppressed.
    allows: BTreeMap<String, BTreeSet<u32>>,
    /// `(line, bad rule name)` for pragmas naming unknown rules.
    pub bad_pragmas: Vec<(u32, String)>,
}

impl SourceFile {
    /// Lexes and classifies one file. `known_rules` is the registry of
    /// valid rule slugs (for pragma validation).
    pub fn new(rel: String, src: &str, known_rules: &[&str]) -> Self {
        let whole_file_test = {
            let parts: Vec<&str> = rel.split('/').collect();
            parts[..parts.len().saturating_sub(1)]
                .iter()
                .any(|d| matches!(*d, "tests" | "benches" | "examples"))
        };
        let lexed = lex(src);
        let test_spans = find_test_spans(&lexed);
        let (allows, bad_pragmas) = find_pragmas(&lexed, known_rules);
        SourceFile { rel, lexed, whole_file_test, test_spans, allows, bad_pragmas }
    }

    /// True when `line` is inside test code (or the file is wholly test).
    pub fn is_test_line(&self, line: u32) -> bool {
        self.whole_file_test || self.test_spans.iter().any(|&(s, e)| s <= line && line <= e)
    }

    /// True when a pragma suppresses `rule` on `line`.
    pub fn is_allowed(&self, rule: &str, line: u32) -> bool {
        self.allows.get(rule).is_some_and(|lines| lines.contains(&line))
    }
}

/// Scans for attributes containing the word `test` and brace-matches the
/// annotated item to an inclusive line span.
fn find_test_spans(lexed: &Lexed) -> Vec<(u32, u32)> {
    let toks = &lexed.tokens;
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !(toks[i].is_punct('#') && i + 1 < toks.len() && toks[i + 1].is_punct('[')) {
            i += 1;
            continue;
        }
        let attr_start_line = toks[i].line;
        let (attr_end, is_test) = scan_attribute(lexed, i + 1);
        if !is_test {
            i = attr_end + 1;
            continue;
        }
        // Skip any further attributes stacked on the same item.
        let mut j = attr_end + 1;
        while j + 1 < toks.len() && toks[j].is_punct('#') && toks[j + 1].is_punct('[') {
            let (e, _) = scan_attribute(lexed, j + 1);
            j = e + 1;
        }
        // Find the item body: the first `{` (brace-match it) or `;`
        // (item ends there) — whichever comes first.
        let mut end_line = toks.get(j).map_or(attr_start_line, |t| t.line);
        while j < toks.len() {
            if toks[j].is_punct(';') {
                end_line = toks[j].line;
                break;
            }
            if toks[j].is_punct('{') {
                let mut depth = 1i32;
                let mut k = j + 1;
                while k < toks.len() && depth > 0 {
                    if toks[k].is_punct('{') {
                        depth += 1;
                    } else if toks[k].is_punct('}') {
                        depth -= 1;
                    }
                    k += 1;
                }
                end_line = toks.get(k.saturating_sub(1)).map_or(end_line, |t| t.line);
                j = k;
                break;
            }
            end_line = toks[j].line;
            j += 1;
        }
        spans.push((attr_start_line, end_line));
        i = j.max(attr_end + 1);
    }
    spans
}

/// From the index of the `[` of an attribute, returns the index of the
/// matching `]` (or the last token) and whether the attribute contains
/// the bare word `test`.
fn scan_attribute(lexed: &Lexed, open: usize) -> (usize, bool) {
    let toks = &lexed.tokens;
    let mut depth = 0i32;
    let mut is_test = false;
    let mut i = open;
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Punct('[') => depth += 1,
            Tok::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return (i, is_test);
                }
            }
            Tok::Word(w) if w == "test" => is_test = true,
            _ => {}
        }
        i += 1;
    }
    (toks.len().saturating_sub(1), is_test)
}

/// Rule slug → the set of source lines a pragma suppresses it on.
type AllowMap = BTreeMap<String, BTreeSet<u32>>;

/// Parses every `pasco-lint: allow(…)` pragma out of the comments.
fn find_pragmas(lexed: &Lexed, known_rules: &[&str]) -> (AllowMap, Vec<(u32, String)>) {
    let mut allows: AllowMap = AllowMap::new();
    let mut bad = Vec::new();
    for (line, text) in &lexed.comments {
        // Doc comments (`///…` lexes as `/…`, `//!…` as `!…`, and the
        // block forms as `*…` / `!…`) are prose, never directives.
        if matches!(text.chars().next(), Some('/' | '!' | '*')) {
            continue;
        }
        let Some(at) = text.find(PRAGMA) else { continue };
        let rest = text[at + PRAGMA.len()..].trim_start();
        let Some(args) = rest.strip_prefix("allow") else {
            bad.push((*line, rest.split_whitespace().next().unwrap_or("").to_owned()));
            continue;
        };
        let args = args.trim_start();
        let Some(inner) = args.strip_prefix('(').and_then(|a| a.split(')').next()) else {
            bad.push((*line, "allow".to_owned()));
            continue;
        };
        for rule in inner.split(',').map(str::trim).filter(|r| !r.is_empty()) {
            if !known_rules.contains(&rule) {
                bad.push((*line, rule.to_owned()));
                continue;
            }
            let lines = allows.entry(rule.to_owned()).or_default();
            lines.insert(*line);
            if let Some(next) = lexed.next_code_line(*line) {
                lines.insert(next);
            }
        }
    }
    (allows, bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    const RULES: &[&str] = &["rule-a", "rule-b"];

    #[test]
    fn cfg_test_mod_becomes_a_test_span() {
        let src = "fn prod() {}\n\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn after() {}\n";
        let f = SourceFile::new("crates/x/src/lib.rs".into(), src, RULES);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(3));
        assert!(f.is_test_line(5));
        assert!(f.is_test_line(6));
        assert!(!f.is_test_line(7));
    }

    #[test]
    fn test_fn_with_stacked_attrs() {
        let src = "#[test]\n#[should_panic]\nfn boom() {\n    panic!();\n}\nfn prod() {}\n";
        let f = SourceFile::new("a.rs".into(), src, RULES);
        assert!(f.is_test_line(1));
        assert!(f.is_test_line(4));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn non_test_attrs_do_not_span() {
        let src = "#[derive(Debug)]\nstruct S {\n    x: u32,\n}\n";
        let f = SourceFile::new("a.rs".into(), src, RULES);
        assert!(!f.is_test_line(2));
    }

    #[test]
    fn braces_in_strings_do_not_break_matching() {
        let src = "#[cfg(test)]\nmod tests {\n    const S: &str = \"}}}\";\n}\nfn prod() {}\n";
        let f = SourceFile::new("a.rs".into(), src, RULES);
        assert!(f.is_test_line(3));
        assert!(!f.is_test_line(5));
    }

    #[test]
    fn files_under_tests_are_wholly_test() {
        let f = SourceFile::new("tests/api.rs".into(), "fn x() {}", RULES);
        assert!(f.is_test_line(1));
        let f = SourceFile::new("crates/x/benches/b.rs".into(), "fn x() {}", RULES);
        assert!(f.is_test_line(1));
        let f = SourceFile::new("crates/x/src/lib.rs".into(), "fn x() {}", RULES);
        assert!(!f.is_test_line(1));
    }

    #[test]
    fn trailing_pragma_covers_its_own_line() {
        let src = "let x = 1; // pasco-lint: allow(rule-a)\nlet y = 2;\n";
        let f = SourceFile::new("a.rs".into(), src, RULES);
        assert!(f.is_allowed("rule-a", 1));
        assert!(f.is_allowed("rule-a", 2)); // next code line too
        assert!(!f.is_allowed("rule-b", 1));
    }

    #[test]
    fn standalone_pragma_covers_next_code_line() {
        let src = "// pasco-lint: allow(rule-a, rule-b)\n\nlet x = 1;\nlet y = 2;\n";
        let f = SourceFile::new("a.rs".into(), src, RULES);
        assert!(f.is_allowed("rule-a", 3));
        assert!(f.is_allowed("rule-b", 3));
        assert!(!f.is_allowed("rule-a", 4));
    }

    #[test]
    fn unknown_rule_in_pragma_is_reported() {
        let src = "// pasco-lint: allow(rule-a, no-such-rule)\nlet x = 1;\n";
        let f = SourceFile::new("a.rs".into(), src, RULES);
        assert!(f.is_allowed("rule-a", 2));
        assert_eq!(f.bad_pragmas, vec![(1, "no-such-rule".to_owned())]);
    }

    #[test]
    fn doc_comments_are_prose_not_directives() {
        let src = "//! Example: `// pasco-lint: allow(no-such-rule)`.\n/// Same: pasco-lint: allow(x).\nlet x = 1;\n";
        let f = SourceFile::new("a.rs".into(), src, RULES);
        assert!(f.bad_pragmas.is_empty());
        assert!(!f.is_allowed("rule-a", 3));
    }

    #[test]
    fn malformed_pragma_is_reported() {
        let src = "// pasco-lint: deny(rule-a)\nlet x = 1;\n";
        let f = SourceFile::new("a.rs".into(), src, RULES);
        assert_eq!(f.bad_pragmas.len(), 1);
    }
}
