//! Parallel Jacobi iteration over an implicit row-sparse system.
//!
//! CloudWalker solves `A x = 1` where row `aᵢ` has at most `T·R + 1`
//! non-zeros and is produced by Monte-Carlo simulation. `A` is strongly
//! diagonally dominant in practice (`aᵢᵢ ≥ 1` because all `R` walkers sit on
//! `i` at step 0, while off-diagonal mass is damped by `cᵗ` and split across
//! nodes), which is exactly the regime where Jacobi converges in a handful
//! of iterations — the paper uses `L = 3`.
//!
//! The update `xᵢ ← (bᵢ − Σ_{j≠i} aᵢⱼ xⱼ) / aᵢᵢ` reads only the previous
//! iterate, so all rows update in parallel — the "Update x In Parallel" box
//! on the paper's poster.

use rayon::prelude::*;

/// Produces rows of the implicit system. Implementations either replay
/// stored sparse rows or regenerate them from seeded walks.
pub trait RowSource: Sync {
    /// Dimension `n` of the square system.
    fn dim(&self) -> usize;

    /// Writes row `i` into `row` (cleared first), sorted by column index,
    /// including the diagonal entry.
    fn row(&self, i: u32, row: &mut Vec<(u32, f64)>);
}

/// A [`RowSource`] over fully materialised rows in row order — the `Store`
/// strategy, the shape worker-shipped and shuffled rows flatten into, and
/// the workhorse for tests.
#[derive(Clone, Debug)]
pub struct StoredRows {
    rows: Vec<Vec<(u32, f64)>>,
}

impl StoredRows {
    /// Wraps materialised rows (each sorted by column).
    pub fn new(rows: Vec<Vec<(u32, f64)>>) -> Self {
        debug_assert!(rows.iter().all(|r| r.windows(2).all(|w| w[0].0 < w[1].0)));
        Self { rows }
    }

    /// Approximate resident bytes (12 bytes per stored entry + vec headers).
    pub fn memory_bytes(&self) -> u64 {
        self.rows.iter().map(|r| 24 + 12 * r.len() as u64).sum()
    }

    /// Borrow a row.
    pub fn get(&self, i: u32) -> &[(u32, f64)] {
        &self.rows[i as usize]
    }
}

impl RowSource for StoredRows {
    fn dim(&self) -> usize {
        self.rows.len()
    }

    fn row(&self, i: u32, row: &mut Vec<(u32, f64)>) {
        row.clear();
        row.extend_from_slice(&self.rows[i as usize]);
    }
}

/// Jacobi solver knobs.
#[derive(Clone, Copy, Debug)]
pub struct JacobiConfig {
    /// Number of sweeps `L`. The paper's default is 3.
    pub iterations: usize,
    /// If set, computes `‖Ax − b‖∞` after every sweep (one extra pass per
    /// sweep) and stops early once below the tolerance.
    pub tolerance: Option<f64>,
    /// Record the residual after each sweep even without a tolerance —
    /// feeds the convergence figure (E3).
    pub record_residuals: bool,
}

impl Default for JacobiConfig {
    fn default() -> Self {
        Self { iterations: 3, tolerance: None, record_residuals: false }
    }
}

/// Outcome of a Jacobi solve.
#[derive(Clone, Debug)]
pub struct JacobiResult {
    /// The final iterate.
    pub x: Vec<f64>,
    /// Sweeps actually performed.
    pub iterations: usize,
    /// `‖Ax − b‖∞` after each sweep, when requested.
    pub residuals: Vec<f64>,
}

/// One Jacobi row update, `(bᵢ − Σ_{j≠i} aᵢⱼ xⱼ) / aᵢᵢ`, reading row `i`
/// through `buf` — the only spelling of the update: [`solve`] maps it over
/// all rows, the simulated cluster engines over a node range per task.
///
/// # Panics
/// Panics if the row's diagonal entry is zero or absent.
#[inline]
pub fn update_row(
    rows: &impl RowSource,
    b: &[f64],
    x: &[f64],
    i: u32,
    buf: &mut Vec<(u32, f64)>,
) -> f64 {
    rows.row(i, buf);
    let mut off = 0.0;
    let mut diag = 0.0;
    for &(j, a) in buf.iter() {
        if j == i {
            diag = a;
        } else {
            off += a * x[j as usize];
        }
    }
    assert!(diag != 0.0, "zero diagonal at row {i}");
    (b[i as usize] - off) / diag
}

/// Row `i`'s absolute residual `|aᵢ·x − bᵢ|`, reading the row through
/// `buf`; [`residual_inf`] is its maximum over all rows.
#[inline]
pub fn residual_row(
    rows: &impl RowSource,
    b: &[f64],
    x: &[f64],
    i: u32,
    buf: &mut Vec<(u32, f64)>,
) -> f64 {
    rows.row(i, buf);
    let ax: f64 = buf.iter().map(|&(j, a)| a * x[j as usize]).sum();
    (ax - b[i as usize]).abs()
}

/// Runs Jacobi on `A x = b` from initial guess `x0`.
///
/// # Panics
/// Panics if `b` or `x0` disagree with `rows.dim()`, or if a diagonal entry
/// is zero (the system is then not Jacobi-solvable; CloudWalker's rows
/// always carry `aᵢᵢ ≥ 1`).
pub fn solve(rows: &impl RowSource, b: &[f64], x0: &[f64], cfg: &JacobiConfig) -> JacobiResult {
    let n = rows.dim();
    assert_eq!(b.len(), n, "rhs length");
    assert_eq!(x0.len(), n, "initial guess length");
    let mut x = x0.to_vec();
    let mut residuals = Vec::new();
    let mut done = 0;
    for _ in 0..cfg.iterations {
        let next: Vec<f64> = (0..n as u32)
            .into_par_iter()
            .map_init(Vec::new, |buf, i| update_row(rows, b, &x, i, buf))
            .collect();
        x = next;
        done += 1;
        if cfg.tolerance.is_some() || cfg.record_residuals {
            let r = residual_inf(rows, b, &x);
            residuals.push(r);
            if let Some(tol) = cfg.tolerance {
                if r < tol {
                    break;
                }
            }
        }
    }
    JacobiResult { x, iterations: done, residuals }
}

/// `‖Ax − b‖∞`, computed in parallel.
pub fn residual_inf(rows: &impl RowSource, b: &[f64], x: &[f64]) -> f64 {
    let n = rows.dim();
    (0..n as u32)
        .into_par_iter()
        .map_init(Vec::new, |buf, i| residual_row(rows, b, x, i, buf))
        .reduce(|| 0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag_dominant_system() -> (StoredRows, Vec<f64>, Vec<f64>) {
        // A = [[4,1,0],[1,5,2],[0,2,6]], x* = [1, -1, 2]
        // b = A x* = [4-1, 1-5+4, -2+12] = [3, 0, 10]
        let rows = StoredRows::new(vec![
            vec![(0, 4.0), (1, 1.0)],
            vec![(0, 1.0), (1, 5.0), (2, 2.0)],
            vec![(1, 2.0), (2, 6.0)],
        ]);
        (rows, vec![3.0, 0.0, 10.0], vec![1.0, -1.0, 2.0])
    }

    #[test]
    fn converges_on_diagonally_dominant_system() {
        let (rows, b, x_star) = diag_dominant_system();
        let cfg = JacobiConfig { iterations: 60, tolerance: Some(1e-12), record_residuals: true };
        let res = solve(&rows, &b, &[0.0; 3], &cfg);
        for (xi, ti) in res.x.iter().zip(&x_star) {
            assert!((xi - ti).abs() < 1e-9, "{:?}", res.x);
        }
        assert!(res.iterations < 60, "early stop expected, took {}", res.iterations);
        // Residuals decrease monotonically for this system.
        for w in res.residuals.windows(2) {
            assert!(w[1] <= w[0] + 1e-15);
        }
    }

    #[test]
    fn identity_system_solves_in_one_sweep() {
        let rows = StoredRows::new(vec![vec![(0, 1.0)], vec![(1, 1.0)], vec![(2, 1.0)]]);
        let res = solve(
            &rows,
            &[5.0, -2.0, 0.5],
            &[0.0, 0.0, 0.0],
            &JacobiConfig { iterations: 1, ..Default::default() },
        );
        assert_eq!(res.x, vec![5.0, -2.0, 0.5]);
        assert_eq!(res.iterations, 1);
    }

    #[test]
    fn zero_iterations_returns_initial_guess() {
        let (rows, b, _) = diag_dominant_system();
        let res = solve(
            &rows,
            &b,
            &[9.0, 9.0, 9.0],
            &JacobiConfig { iterations: 0, ..Default::default() },
        );
        assert_eq!(res.x, vec![9.0, 9.0, 9.0]);
    }

    #[test]
    fn residual_measures_exact_solution_as_zero() {
        let (rows, b, x_star) = diag_dominant_system();
        assert!(residual_inf(&rows, &b, &x_star) < 1e-12);
        // Off the solution, the ∞-norm is the worst single-row residual.
        let x = [0.3, -0.7, 1.1];
        let mut buf = Vec::new();
        let per_row: Vec<f64> = (0..3).map(|i| residual_row(&rows, &b, &x, i, &mut buf)).collect();
        assert_eq!(per_row[0], (4.0 * 0.3 + 1.0 * -0.7 - 3.0f64).abs());
        assert_eq!(residual_inf(&rows, &b, &x), per_row.iter().copied().fold(0.0, f64::max));
    }

    #[test]
    #[should_panic(expected = "zero diagonal")]
    fn zero_diagonal_panics() {
        let rows = StoredRows::new(vec![vec![(1, 1.0)], vec![(0, 1.0), (1, 1.0)]]);
        solve(&rows, &[1.0, 1.0], &[0.0, 0.0], &JacobiConfig::default());
    }

    #[test]
    fn parallel_and_reference_sequential_agree() {
        // Cross-check one sweep against a hand-rolled sequential update.
        let (rows, b, _) = diag_dominant_system();
        let x0 = vec![0.3, -0.7, 1.1];
        let res = solve(&rows, &b, &x0, &JacobiConfig { iterations: 1, ..Default::default() });
        let expected = [
            (3.0 - 1.0 * -0.7) / 4.0,
            (0.0 - (1.0 * 0.3 + 2.0 * 1.1)) / 5.0,
            (10.0 - 2.0 * -0.7) / 6.0,
        ];
        let mut buf = Vec::new();
        for (i, (a, e)) in res.x.iter().zip(expected).enumerate() {
            assert!((a - e).abs() < 1e-14);
            // A sweep is exactly the row update mapped over the rows.
            assert_eq!(*a, update_row(&rows, &b, &x0, i as u32, &mut buf));
        }
    }
}
