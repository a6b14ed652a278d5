//! Metric names, and what one run of one workload reports.
//!
//! The two tables below are the Rust half of `BENCHMARK.json`: a unit
//! test keeps them equal to the file, so a metric cannot be printed
//! under a name the contract does not list, or listed and never printed.

use crate::inputs::Workload;
use crate::stats::Summary;

/// Whether a smaller or a larger value is the better one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn direction_word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: reported by every workload, with tracing off.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Contract name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the reference median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics. What each means on each workload:
///
/// | metric | `build` | `serve_*` |
/// |---|---|---|
/// | `setup_s` | `pasco generate` | spawn `pasco serve` → first answer (+ warm-up on `serve_hot`) |
/// | `primary_p50_ms` | wall of one `pasco index` | `SinglePair` latency |
/// | `secondary_p50_ms` | wall of one `pasco save-store` | top-k latency (`serve_miss`, `serve_mapped`), `Cohort` latency (`serve_hot`) |
/// | `ops_per_s` | nodes indexed per second | requests per second |
/// | `cpu_ms_per_op` | `pasco index` CPU per node | server CPU per request |
/// | `peak_rss_mb` | `VmHWM` of `pasco index` | `VmHWM` of `pasco serve` |
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "primary_p50_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "secondary_p50_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "ops_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "cpu_ms_per_op", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.25 },
];

/// One per-layer metric: reported by the traced pass, never gated.
#[derive(Clone, Copy, Debug)]
pub struct Layer {
    /// Contract name, `<module>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

/// The per-layer metrics, grouped by the repo module they time.
pub const LAYERS: [Layer; 58] = [
    layer("graph.read_binary_ms", "ms", Better::Lower),
    layer("graph.rci_build_ms", "ms", Better::Lower),
    layer("mc.cohort_r_us", "us", Better::Lower),
    layer("mc.cohort_rq_us", "us", Better::Lower),
    layer("mc.steps_per_us", "1/us", Better::Higher),
    layer("mc.cohort_rq_steps", "count", Better::Lower),
    layer("mc.cohort_rq_entries", "count", Better::Lower),
    layer("core.ai_row_us", "us", Better::Lower),
    layer("core.rows_bytes", "bytes", Better::Lower),
    layer("solver.jacobi_sweep_ms", "ms", Better::Lower),
    layer("solver.residual_final", "ratio", Better::Lower),
    layer("engine.walk_phase_ms", "ms", Better::Lower),
    layer("engine.build_diagonal_ms", "ms", Better::Lower),
    layer("engine.walk_phase_share", "ratio", Better::Lower),
    layer("cli.index_overhead_ms", "ms", Better::Lower),
    layer("queries.score_pair_us", "us", Better::Lower),
    layer("queries.forward_stage_ms", "ms", Better::Lower),
    layer("queries.rank_self_us", "us", Better::Lower),
    layer("queries.single_pair_ms", "ms", Better::Lower),
    layer("queries.topk_ms", "ms", Better::Lower),
    layer("session.hit_us", "us", Better::Lower),
    layer("session.miss_overhead_us", "us", Better::Lower),
    layer("session.self_us", "us", Better::Lower),
    layer("session.hit_rate", "ratio", Better::Higher),
    layer("session.evictions", "count", Better::Lower),
    layer("session.bytes_per_cohort", "bytes", Better::Lower),
    layer("api.encode_req_us", "us", Better::Lower),
    layer("api.decode_req_us", "us", Better::Lower),
    layer("api.encode_resp_score_us", "us", Better::Lower),
    layer("api.encode_resp_ranked_us", "us", Better::Lower),
    layer("api.encode_resp_cohort_us", "us", Better::Lower),
    layer("api.decode_resp_cohort_us", "us", Better::Lower),
    layer("api.resp_bytes_cohort", "bytes", Better::Lower),
    layer("api.resp_bytes_ranked", "bytes", Better::Lower),
    layer("server.noop_rtt_us", "us", Better::Lower),
    layer("server.wire_self_us", "us", Better::Lower),
    layer("server.reads_per_req", "ratio", Better::Lower),
    layer("server.wakeups_per_req", "ratio", Better::Lower),
    layer("server.conc_slowdown", "ratio", Better::Lower),
    layer("client.primary_p50_ms", "ms", Better::Lower),
    layer("client.primary_p99_ms", "ms", Better::Lower),
    layer("client.secondary_p50_ms", "ms", Better::Lower),
    layer("client.secondary_p95_ms", "ms", Better::Lower),
    layer("store.write_ms", "ms", Better::Lower),
    layer("store.open_us", "us", Better::Lower),
    layer("store.bytes", "bytes", Better::Lower),
    layer("store.bytes_per_edge", "bytes", Better::Lower),
    layer("store.first_touch_ms", "ms", Better::Lower),
    layer("store.mapped_cohort_rq_us", "us", Better::Lower),
    layer("store.mapped_topk_ms", "ms", Better::Lower),
    layer("store.mapped_slowdown", "ratio", Better::Lower),
    layer("env.nproc", "count", Better::Higher),
    layer("env.loadavg", "ratio", Better::Lower),
    layer("env.probe_ms", "ms", Better::Lower),
    layer("env.probe_drift", "ratio", Better::Lower),
    layer("trace.spans", "count", Better::Lower),
    layer("trace.clamped_spans", "count", Better::Lower),
    layer("trace.overhead_ratio", "ratio", Better::Lower),
];

/// The unit and direction a metric name is declared with, in either
/// table.
pub fn declared(name: &str) -> Option<(&'static str, Better)> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better))
        .chain(LAYERS.iter().map(|m| (m.name, m.unit, m.better)))
        .find(|(n, _, _)| *n == name)
        .map(|(_, unit, better)| (unit, better))
}

/// The unit a metric name is declared with.
pub fn declared_unit(name: &str) -> Option<&'static str> {
    declared(name).map(|(unit, _)| unit)
}

/// What one run of one workload produced.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// The workload.
    pub workload: Workload,
    /// Whether this was the traced pass (per-layer metrics) or an
    /// end-to-end run (tracing off).
    pub traced: bool,
    /// Contract metrics, in the order they were measured.
    pub values: Vec<(&'static str, f64)>,
    /// Per-round detail behind the values: name → summary across rounds.
    pub detail: Vec<(String, Summary)>,
    /// Operations attempted: requests sent, child processes run, answers
    /// and invariants checked.
    pub attempted: u64,
    /// How many of those failed.
    pub failed: u64,
    /// The first few failures, in words.
    pub failures: Vec<String>,
    /// FNV-1a over the digests of the first round's answers.
    pub answers_fnv: Option<u64>,
    /// Wall seconds of the whole run, inputs included.
    pub wall_s: f64,
}

impl RunReport {
    /// An empty outcome.
    pub fn begin(workload: Workload, traced: bool) -> RunReport {
        RunReport {
            workload,
            traced,
            values: Vec::new(),
            detail: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            answers_fnv: None,
            wall_s: 0.0,
        }
    }

    /// Records a contract metric. The name must be declared in the table
    /// for this kind of run.
    pub fn put(&mut self, name: &'static str, value: f64) {
        debug_assert!(declared_unit(name).is_some(), "undeclared metric `{name}`");
        self.values.push((name, value));
    }

    /// Records the across-rounds summary behind a value.
    pub fn put_detail(&mut self, name: &str, summary: Summary) {
        self.detail.push((name.to_string(), summary));
    }

    /// Counts one attempted operation and, when `ok` is false, one
    /// failure with its reason.
    pub fn tally(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why());
            }
        }
    }

    /// The value recorded under `name`.
    pub fn value_of(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The metric names this kind of run must report.
    pub fn expected_names(&self) -> Vec<&'static str> {
        if self.traced {
            LAYERS.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        }
    }

    /// Closes the outcome: a contract metric that is missing, repeated
    /// or not a finite number is a failure of the run. End-to-end
    /// metrics must also be non-zero.
    pub fn seal(&mut self, wall_s: f64) {
        self.wall_s = wall_s;
        for name in self.expected_names() {
            let hits: Vec<f64> =
                self.values.iter().filter(|(n, _)| *n == name).map(|&(_, v)| v).collect();
            let ok = hits.len() == 1 && is_a_number(hits[0]) && (self.traced || hits[0] > 0.0);
            self.tally(ok, || format!("metric `{name}` reported {hits:?}"));
        }
    }

    /// True when nothing failed.
    pub fn is_correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The one-line JSON object the driver reads: exactly `correct`,
    /// `attempted`, `failed`, `metrics`.
    pub fn contract_line(&self) -> String {
        let mut metrics = String::new();
        for name in self.expected_names() {
            let value = self.value_of(name).filter(|&v| is_a_number(v)).unwrap_or(0.0);
            if !metrics.is_empty() {
                metrics.push_str(", ");
            }
            metrics.push_str(&format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                declared_unit(name).unwrap_or("")
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.is_correct(),
            self.attempted.max(1),
            self.failed
        )
    }

    /// Human-readable rows: `workload metric value unit`, then the
    /// per-round detail, then the failures.
    pub fn table(&self) -> String {
        let w = self.workload.label();
        let mut out = String::new();
        for &(name, value) in &self.values {
            out.push_str(&format!("{w} {name} {value} {}\n", declared_unit(name).unwrap_or("")));
        }
        for (name, s) in &self.detail {
            out.push_str(&format!(
                "{w} # {name}: median {} min {} max {} q1 {} q3 {} n {}\n",
                s.median, s.min, s.max, s.q1, s.q3, s.n
            ));
        }
        if let Some(fnv) = self.answers_fnv {
            out.push_str(&format!("{w} # answers_fnv {fnv:016x}\n"));
        }
        out.push_str(&format!(
            "{w} # attempted {} failed {} wall {:.1} s ({})\n",
            self.attempted,
            self.failed,
            self.wall_s,
            if self.traced { "traced pass" } else { "tracing off" }
        ));
        for f in &self.failures {
            out.push_str(&format!("{w} # FAILED: {f}\n"));
        }
        out
    }

    /// This outcome as one JSON object of `result.json`.
    pub fn json_object(&self) -> String {
        let values: Vec<String> = self
            .values
            .iter()
            .map(|&(n, v)| {
                let (unit, better) = declared(n).unwrap_or(("", Better::Lower));
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                    json_number(v),
                    better.direction_word()
                )
            })
            .collect();
        let detail: Vec<String> = self
            .detail
            .iter()
            .map(|(n, s)| {
                format!(
                    "\"{n}\": {{\"median\": {}, \"min\": {}, \"max\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
                    json_number(s.median),
                    json_number(s.min),
                    json_number(s.max),
                    json_number(s.q1),
                    json_number(s.q3),
                    s.n
                )
            })
            .collect();
        let failures: Vec<String> = self.failures.iter().map(|f| json_string(f)).collect();
        format!(
            "{{\"workload\": \"{}\", \"traced\": {}, \"wall_s\": {}, \"attempted\": {}, \
             \"failed\": {}, \"answers_fnv\": {}, \"metrics\": {{{}}}, \"rounds\": {{{}}}, \
             \"failures\": [{}]}}",
            self.workload.label(),
            self.traced,
            json_number(self.wall_s),
            self.attempted,
            self.failed,
            match self.answers_fnv {
                Some(fnv) => format!("\"{fnv:016x}\""),
                None => "null".to_string(),
            },
            values.join(", "),
            detail.join(", "),
            failures.join(", ")
        )
    }
}

/// Neither NaN nor infinite. (Spelt without `f64::is_finite`: the
/// workspace call-graph linter cannot resolve inherent methods of `f64`
/// and its unresolved-edge budget is full.)
fn is_a_number(v: f64) -> bool {
    v.abs() < f64::INFINITY
}

/// A JSON number; non-finite values have no JSON spelling and read null.
pub fn json_number(v: f64) -> String {
    if is_a_number(v) {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> =
            END_TO_END.iter().map(|m| m.name).chain(LAYERS.iter().map(|m| m.name)).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        assert!(END_TO_END.len() <= 16 && LAYERS.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        for n in names {
            assert!(
                n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repo root");
        for m in END_TO_END {
            let row = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.direction_word(),
                m.bound
            );
            assert!(text.contains(&row), "BENCHMARK.json lacks `{row}`");
        }
        for m in LAYERS {
            let row = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.direction_word()
            );
            assert!(text.contains(&row), "BENCHMARK.json lacks `{row}`");
        }
        assert_eq!(text.matches("\"better\"").count(), END_TO_END.len() + LAYERS.len());
        for w in Workload::ALL {
            assert!(text.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.label())));
        }
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_every_metric() {
        let mut o = RunReport::begin(Workload::ServeHot, false);
        for (k, m) in END_TO_END.iter().enumerate() {
            o.put(m.name, 1.5 + k as f64);
        }
        o.tally(true, String::new);
        o.seal(3.0);
        let line = o.contract_line();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"peak_rss_mb\": {\"value\": 6.5, \"unit\": \"MB\"}"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn a_missing_or_zero_metric_fails_the_run() {
        let mut o = RunReport::begin(Workload::Build, false);
        o.put("setup_s", 0.0);
        o.seal(1.0);
        assert!(!o.is_correct());
        assert_eq!(o.failed, END_TO_END.len() as u64);
        assert!(o.contract_line().contains("\"correct\": false"));
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_string("a\"b\n"), "\"a\\\"b\\n\"");
    }
}
