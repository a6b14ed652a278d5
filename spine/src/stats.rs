//! Order statistics over timing samples, and the FNV-1a answer checksum.
//!
//! Every timing the spine reports is a median: of the samples of one
//! round, then of the rounds of one run. Means are never reported — one
//! scheduler stall on a shared two-core box moves a mean by more than
//! any optimisation the benchmark is meant to resolve.

/// Sorts samples ascending with the NaN-safe total order.
pub fn sort_samples(samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of ascending `sorted`, linearly
/// interpolated between the two closest ranks. Empty input reads 0.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let frac = pos - lo as f64;
            sorted[lo] + (sorted[hi] - sorted[lo]) * frac
        }
    }
}

/// The median of unsorted samples.
pub fn median_of(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sort_samples(&mut sorted);
    quantile_sorted(&sorted, 0.5)
}

/// First and third quartile by the *exclusive* method — positions
/// `(n + 1)·k / 4`, extrapolating past the ends for tiny samples — which
/// is what Python's `statistics.quantiles(values, n=4)` computes, so the
/// spread the README quotes is the spread the acceptance rule sees.
pub fn quartiles_exclusive(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sort_samples(&mut sorted);
    let n = sorted.len();
    if n < 2 {
        let only = sorted.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let at = |k: usize| -> f64 {
        let pos = (n + 1) as f64 * k as f64 / 4.0;
        let below = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - below as f64;
        sorted[below - 1] + (sorted[below] - sorted[below - 1]) * frac
    };
    (at(1), at(3))
}

/// Median with the range and quartiles around it: what one metric of one
/// workload looks like across the rounds of a run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Median of the samples.
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// First quartile (exclusive method).
    pub q1: f64,
    /// Third quartile (exclusive method).
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

/// Summarises samples; all-zero for an empty slice.
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sort_samples(&mut sorted);
    let (q1, q3) = quartiles_exclusive(&sorted);
    Summary {
        median: quantile_sorted(&sorted, 0.5),
        min: sorted.first().copied().unwrap_or(0.0),
        max: sorted.last().copied().unwrap_or(0.0),
        q1,
        q3,
        n: sorted.len(),
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming 64-bit FNV-1a.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AnswerHash(u64);

impl AnswerHash {
    /// The empty-input state.
    pub fn offset_basis() -> Self {
        AnswerHash(FNV_OFFSET)
    }

    /// Folds bytes in.
    pub fn absorb(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds one little-endian word in.
    pub fn absorb_word(&mut self, word: u64) {
        self.absorb(&word.to_le_bytes());
    }

    /// The checksum so far.
    pub fn digest(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fnv1a_bytes(bytes: &[u8]) -> u64 {
        let mut h = AnswerHash::offset_basis();
        h.absorb(bytes);
        h.digest()
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 4.0);
        assert_eq!(quantile_sorted(&v, 0.5), 2.5);
        assert!((quantile_sorted(&v, 0.99) - 3.97).abs() < 1e-12);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
        assert_eq!(quantile_sorted(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median_of(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median_of(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,...,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles_exclusive(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12, "{q1} {q3}");
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles_exclusive(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles_exclusive(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn summary_carries_range_and_count() {
        let s = summarize(&[2.0, 8.0, 4.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (4.0, 2.0, 8.0, 3));
        assert_eq!(summarize(&[]).n, 0);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a_bytes(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_bytes(b"foobar"), 0x8594_4171_f739_67e8);
        let mut h = AnswerHash::offset_basis();
        h.absorb(b"foo");
        h.absorb(b"bar");
        assert_eq!(h.digest(), fnv1a_bytes(b"foobar"));
    }
}
