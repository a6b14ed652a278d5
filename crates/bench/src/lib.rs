#![warn(missing_docs)]
//! Experiment harness: the [`paper`] scorecard that reproduces the paper's
//! tables and figures (README's "Paper vs this repo") on the stand-ins of
//! [`pasco_graph::datasets`]. `PASCO_SCALE=quick|paper` trades fidelity for
//! wall time (`paper` is the default and uses the paper's parameters end to
//! end; `quick` trims walker counts and dataset sizes).

pub mod paper;

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
    /// Parses a `PASCO_SCALE` value (`None`: unset, [`Scale::Paper`]); any
    /// other value than `quick` or `paper` is an error naming both.
    pub fn parse(value: Option<&str>) -> Result<Self, String> {
        match value {
            Some("quick") => Ok(Scale::Quick),
            None | Some("paper") => Ok(Scale::Paper),
            Some(other) => Err(format!("PASCO_SCALE must be quick|paper, not {other:?}")),
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

    #[test]
    fn scale_parse_refuses_unknown_values() {
        assert_eq!(Scale::parse(None), Ok(Scale::Paper));
        assert_eq!(Scale::parse(Some("paper")), Ok(Scale::Paper));
        assert_eq!(Scale::parse(Some("quick")), Ok(Scale::Quick));
        let err = Scale::parse(Some("quik")).unwrap_err();
        assert!(err.contains("quick|paper") && err.contains("quik"), "{err}");
    }
}
