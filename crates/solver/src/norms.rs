//! Vector norms and error summaries shared by solvers and experiments.

/// `‖a − b‖∞`.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
}

/// Mean absolute difference `‖a − b‖₁ / n`.
pub fn mean_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    if a.is_empty() {
        return 0.0;
    }
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>() / a.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norms_on_known_vectors() {
        let a = [1.0, 2.0, 2.0];
        let b = [1.0, 0.0, 0.0];
        assert_eq!(max_abs_diff(&a, &b), 2.0);
        assert!((mean_abs_diff(&a, &b) - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_vectors_are_zero_error() {
        assert_eq!(mean_abs_diff(&[], &[]), 0.0);
    }
}
