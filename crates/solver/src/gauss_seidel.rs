//! Sequential Gauss–Seidel sweeps — the solver used by the LIN baseline.
//!
//! Gauss–Seidel consumes updates within the same sweep, so it usually needs
//! fewer sweeps than Jacobi but cannot be parallelised across rows — part of
//! why the paper's CloudWalker (parallel Jacobi) scales past LIN.

use crate::jacobi::{residual_inf, row_pass, RowSource};

/// Gauss–Seidel knobs; same semantics as [`crate::JacobiConfig`].
#[derive(Clone, Copy, Debug)]
pub struct GaussSeidelConfig {
    /// Maximum number of sweeps.
    pub iterations: usize,
    /// Early-stop tolerance on `‖Ax − b‖∞`, checked after each sweep.
    pub tolerance: Option<f64>,
}

impl Default for GaussSeidelConfig {
    fn default() -> Self {
        Self { iterations: 20, tolerance: Some(1e-10) }
    }
}

/// Outcome of a Gauss–Seidel solve.
#[derive(Clone, Debug)]
pub struct GaussSeidelResult {
    /// The final iterate.
    pub x: Vec<f64>,
    /// Sweeps actually performed.
    pub iterations: usize,
    /// Final `‖Ax − b‖∞` (always computed once at the end).
    pub residual: f64,
}

/// Runs Gauss–Seidel on `A x = b` from `x0`.
///
/// # Panics
/// Panics on dimension mismatch or a zero diagonal entry.
pub fn solve<R: RowSource>(
    rows: &R,
    b: &[f64],
    x0: &[f64],
    cfg: &GaussSeidelConfig,
) -> GaussSeidelResult {
    let n = rows.dim();
    assert_eq!(b.len(), n, "rhs length");
    assert_eq!(x0.len(), n, "initial guess length");
    let mut x = x0.to_vec();
    let mut scratch = R::Scratch::default();
    let mut done = 0;
    for _ in 0..cfg.iterations {
        for i in 0..n as u32 {
            // Jacobi's row update, reading this sweep's earlier rows.
            x[i as usize] = row_pass(rows, b, &x, i, &mut scratch).0;
        }
        done += 1;
        if let Some(tol) = cfg.tolerance {
            if residual_inf(rows, b, &x) < tol {
                break;
            }
        }
    }
    let residual = residual_inf(rows, b, &x);
    GaussSeidelResult { x, iterations: done, residual }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jacobi::StoredRows;

    #[test]
    fn converges_faster_than_jacobi_on_dominant_system() {
        let rows = StoredRows::new(vec![
            vec![(0, 4.0), (1, 1.0)],
            vec![(0, 1.0), (1, 5.0), (2, 2.0)],
            vec![(1, 2.0), (2, 6.0)],
        ]);
        let b = [3.0, 0.0, 10.0];
        let gs = solve(
            &rows,
            &b,
            &[0.0; 3],
            &GaussSeidelConfig { iterations: 100, tolerance: Some(1e-12) },
        );
        let jc = crate::jacobi::solve(
            &rows,
            &b,
            &[0.0; 3],
            &crate::JacobiConfig {
                iterations: 100,
                tolerance: Some(1e-12),
                record_residuals: false,
            },
        );
        assert!(gs.residual < 1e-12);
        assert!(
            gs.iterations <= jc.iterations,
            "GS {} sweeps vs Jacobi {}",
            gs.iterations,
            jc.iterations
        );
        for (a, e) in gs.x.iter().zip([1.0, -1.0, 2.0]) {
            assert!((a - e).abs() < 1e-9);
        }
    }

    #[test]
    fn respects_iteration_cap() {
        let rows = StoredRows::new(vec![vec![(0, 2.0), (1, 1.0)], vec![(0, 1.0), (1, 2.0)]]);
        let res = solve(
            &rows,
            &[1.0, 1.0],
            &[0.0, 0.0],
            &GaussSeidelConfig { iterations: 2, tolerance: None },
        );
        assert_eq!(res.iterations, 2);
    }
}
