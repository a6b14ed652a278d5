//! Spans of the traced pass, kept in memory and written out at exit.
//!
//! Nothing inside the program is instrumented yet, so a request's span
//! tree is built by *staged replay*: the TCP round trip is timed where
//! it happens (a root span with real timestamps), then the same request
//! is run again through each inner layer's public entry point and each
//! of those durations becomes a child span, laid end to end from its
//! parent's start. A replayed stage that ran longer than what is left of
//! its parent — noise, since both did the same work — is cut at the
//! parent's end and counted, so children always nest and self time
//! (span minus children) never goes negative.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One span: `{id, parent, req, name, start_ns, end_ns}`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index in the trace.
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Spans of one request share this.
    pub req: u32,
    /// `<module>.<call>`.
    pub name: &'static str,
    /// Nanoseconds since the trace began.
    pub start_ns: u64,
    /// Nanoseconds since the trace began.
    pub end_ns: u64,
}

impl Span {
    /// `end − start`.
    pub fn span_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The in-memory trace.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    /// Per span: where its next child starts.
    cursors: Vec<u64>,
    /// Children cut short to fit their parent.
    clamped: u64,
}

impl SpanLog {
    /// An empty trace whose clock starts now.
    pub fn begin_trace() -> SpanLog {
        SpanLog { origin: Instant::now(), spans: Vec::new(), cursors: Vec::new(), clamped: 0 }
    }

    /// Nanoseconds since the trace began.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(
        &mut self,
        parent: Option<u32>,
        req: u32,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span { id, parent, req, name, start_ns, end_ns });
        self.cursors.push(start_ns);
        id
    }

    /// Records a root span measured in place: it began at `start_ns` and
    /// took `took_ns`.
    pub fn root_span(&mut self, req: u32, name: &'static str, start_ns: u64, took_ns: u64) -> u32 {
        self.push(None, req, name, start_ns, start_ns + took_ns)
    }

    /// Records a replayed stage of `took_ns` as the next child of
    /// `parent`, cut at the parent's end if it does not fit.
    pub fn child_span(&mut self, parent: u32, name: &'static str, took_ns: u64) -> u32 {
        let (req, limit) = {
            let p = &self.spans[parent as usize];
            (p.req, p.end_ns)
        };
        let start = self.cursors[parent as usize];
        let end = (start + took_ns).min(limit);
        if start + took_ns > limit {
            self.clamped += 1;
        }
        self.cursors[parent as usize] = end;
        self.push(Some(parent), req, name, start, end)
    }

    /// Per span, in recording order: its duration minus the part its
    /// children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::span_ns).collect();
        for s in &self.spans {
            if let Some(parent) = s.parent {
                own[parent as usize] -= s.span_ns();
            }
        }
        own
    }

    /// Self time summed per span name, as `(name, spans, total self ns)`
    /// in name order: where the traced requests' time went.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, u64, u64)> {
        let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, own_ns) in self.spans.iter().zip(self.self_times()) {
            let slot = totals.entry(s.name).or_default();
            slot.0 += 1;
            slot.1 += own_ns;
        }
        totals.into_iter().map(|(name, (count, ns))| (name, count, ns)).collect()
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// How many children were cut to fit.
    pub fn clamped_spans(&self) -> u64 {
        self.clamped
    }

    /// True when every child lies inside its parent and shares its
    /// request id.
    pub fn children_nest(&self) -> bool {
        self.spans.iter().all(|s| match s.parent {
            None => true,
            Some(p) => {
                let p = &self.spans[p as usize];
                p.req == s.req && p.start_ns <= s.start_ns && s.end_ns <= p.end_ns
            }
        })
    }

    /// Writes one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {}, \"parent\": {parent}, \"req\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut log = SpanLog::begin_trace();
        let root = log.root_span(7, "client.query", 1_000, 500);
        let a = log.child_span(root, "api.encode_req", 40);
        let b = log.child_span(root, "session.execute", 300);
        let inner = log.child_span(b, "queries.score_pair", 120);
        let own = log.self_times();
        assert_eq!(own[root as usize], 500 - 40 - 300);
        assert_eq!(own[b as usize], 300 - 120);
        assert_eq!(own[inner as usize], 120);
        // Children are laid end to end from the parent's start.
        assert_eq!(
            (log.spans()[a as usize].start_ns, log.spans()[a as usize].end_ns),
            (1_000, 1_040)
        );
        assert_eq!(
            (log.spans()[b as usize].start_ns, log.spans()[b as usize].end_ns),
            (1_040, 1_340)
        );
        assert_eq!(log.spans()[inner as usize].start_ns, 1_040);
        assert!(log.spans().iter().all(|s| s.req == 7));
        assert_eq!(
            log.self_time_by_name(),
            vec![
                ("api.encode_req", 1, 40),
                ("client.query", 1, 160),
                ("queries.score_pair", 1, 120),
                ("session.execute", 1, 180),
            ]
        );
        assert!(log.children_nest());
        assert_eq!(log.clamped_spans(), 0);
    }

    #[test]
    fn an_overlong_child_is_cut_at_its_parents_end() {
        let mut log = SpanLog::begin_trace();
        let root = log.root_span(1, "client.query", 0, 100);
        log.child_span(root, "session.execute", 80);
        let late = log.child_span(root, "api.decode_resp", 50);
        assert_eq!(log.spans()[late as usize].end_ns, 100);
        assert_eq!(log.clamped_spans(), 1);
        assert_eq!(log.self_times()[root as usize], 0);
        assert!(log.children_nest());
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut log = SpanLog::begin_trace();
        let root = log.root_span(3, "cli.index", 5, 10);
        log.child_span(root, "solver.jacobi", 4);
        let dir = crate::cli::target_dir().join("spine");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("trace-test-{}.jsonl", std::process::id()));
        log.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"id\": 0, \"parent\": null, \"req\": 3, \"name\": \"cli.index\", \"start_ns\": 5, \"end_ns\": 15}"
        );
        assert!(
            lines[1].contains("\"parent\": 0") && lines[1].contains("\"name\": \"solver.jacobi\"")
        );
    }
}
