#![warn(missing_docs)]
//! Experiment harness: shared plumbing for the binaries that regenerate
//! every table and figure of the paper (see `DESIGN.md` §4 for the
//! experiment ↔ binary map).
//!
//! Conventions:
//! * datasets come from [`pasco_graph::datasets`] and are cached as binary
//!   files under `target/pasco-datasets/` so repeated harness runs skip
//!   generation;
//! * `PASCO_SCALE=quick|paper` trades fidelity for wall time (`paper` is
//!   the default and uses the paper's parameters end to end; `quick` trims
//!   walker counts and dataset sizes for smoke runs);
//! * each binary prints a self-contained table with the paper's values
//!   alongside, so `EXPERIMENTS.md` can be regenerated by rerunning them.

pub mod datasets;
pub mod table;

use std::time::{Duration, Instant};

/// Runs `f` once and returns its result with the elapsed wall time.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Harness fidelity level, from `PASCO_SCALE`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Trimmed walker counts / dataset list for smoke runs.
    Quick,
    /// The paper's parameters end to end (default).
    Paper,
}

impl Scale {
    /// Reads `PASCO_SCALE` (default [`Scale::Paper`]).
    pub fn from_env() -> Self {
        match std::env::var("PASCO_SCALE").as_deref() {
            Ok("quick") => Scale::Quick,
            _ => Scale::Paper,
        }
    }

    /// Number of datasets the scale admits (quick drops the two largest).
    pub fn dataset_count(self) -> usize {
        match self {
            Scale::Quick => 3,
            Scale::Paper => 5,
        }
    }

    /// Query cohort size `R'`.
    pub fn r_query(self) -> u32 {
        match self {
            Scale::Quick => 2_000,
            Scale::Paper => 10_000,
        }
    }
}

/// Formats a duration the way the paper's tables do (`7s`, `0.042s`,
/// `59s`, `6.4h`).
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 3600.0 {
        format!("{:.1}h", s / 3600.0)
    } else if s >= 100.0 {
        format!("{:.0}s", s)
    } else if s >= 1.0 {
        format!("{:.1}s", s)
    } else if s >= 1e-3 {
        format!("{:.0}ms", s * 1e3)
    } else {
        format!("{:.0}us", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_format_like_the_paper() {
        assert_eq!(fmt_duration(Duration::from_secs(7)), "7.0s");
        assert_eq!(fmt_duration(Duration::from_millis(42)), "42ms");
        assert_eq!(fmt_duration(Duration::from_secs(23040)), "6.4h");
        assert_eq!(fmt_duration(Duration::from_micros(250)), "250us");
    }

    #[test]
    fn scale_accessors() {
        assert_eq!(Scale::Quick.dataset_count(), 3);
        assert_eq!(Scale::Paper.r_query(), 10_000);
    }
}
