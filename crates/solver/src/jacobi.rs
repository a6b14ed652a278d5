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
use std::ops::Range;

/// Produces rows of the implicit system. Implementations either replay
/// stored sparse rows or regenerate them from seeded walks.
pub trait RowSource: Sync {
    /// Per-task state a row is lent through (`()` when rows are stored).
    type Scratch: Default;

    /// Dimension `n` of the square system.
    fn dim(&self) -> usize;

    /// Row `i` as parallel column / value slices, sorted by column,
    /// including the diagonal entry.
    fn row<'a>(&'a self, i: u32, scratch: &'a mut Self::Scratch) -> (&'a [u32], &'a [f64]);
}

/// Rows per block of [`StoredRows::build`] (one parallel task fills one)
/// and of [`StoredRows::from_parts`].
const BLOCK_ROWS: u32 = 256;

/// Rows `start..start + ends.len()` in CSR form: row `start + k` is
/// `cols` / `vals` from `ends[k - 1]` (0 for `k = 0`) to `ends[k]`, every
/// array exact-length.
#[derive(Clone, Debug, Default)]
pub struct RowBlock {
    start: u32,
    ends: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

impl RowBlock {
    /// The block of rows `rows`, each appended in order by
    /// `push(i, cols, vals)` straight into the block's arrays.
    pub fn fill(rows: Range<u32>, mut push: impl FnMut(u32, &mut Vec<u32>, &mut Vec<f64>)) -> Self {
        let mut block =
            Self { start: rows.start, ends: Vec::with_capacity(rows.len()), ..Self::default() };
        for i in rows {
            push(i, &mut block.cols, &mut block.vals);
            block.ends.push(block.cols.len());
        }
        block.cols.shrink_to_fit();
        block.vals.shrink_to_fit();
        block
    }
}

/// A [`RowSource`] over fully materialised rows in row order — the `Store`
/// strategy, the shape worker-shipped and shuffled rows flatten into, and
/// the workhorse for tests. Rows sit in node-range CSR blocks, 12 bytes per
/// entry, lent in place.
#[derive(Clone, Debug)]
pub struct StoredRows {
    blocks: Vec<RowBlock>,
}

impl StoredRows {
    /// Wraps materialised rows (each sorted by column), as one part.
    pub fn new(rows: Vec<Vec<(u32, f64)>>) -> Self {
        Self::from_parts(vec![rows])
    }

    /// Wraps materialised rows arriving in node-order parts (one per
    /// partition) — the converting constructor: blocks of up to 256 rows,
    /// each row freed once copied, so the copy never holds more than a
    /// block twice and reuses the freed rows' memory.
    pub fn from_parts(parts: Vec<Vec<Vec<(u32, f64)>>>) -> Self {
        let mut start = 0;
        let mut blocks = Vec::new();
        for rows in parts {
            let mut rows = rows.into_iter();
            while rows.len() > 0 {
                let end = start + (rows.len() as u32).min(BLOCK_ROWS);
                blocks.push(RowBlock::fill(start..end, |_, cols, vals| {
                    let row = rows.next().unwrap_or_default();
                    debug_assert!(row.windows(2).all(|w| w[0].0 < w[1].0));
                    cols.extend(row.iter().map(|&(j, _)| j));
                    vals.extend(row.iter().map(|&(_, a)| a));
                }));
                start = end;
            }
        }
        Self::from_blocks(blocks)
    }

    /// Rows `0..n` generated in parallel, one task per block of 256 rows:
    /// `push(state, i, cols, vals)` appends row `i` to its block, `state`
    /// made by `init` once per worker piece.
    pub fn build<S, I, F>(n: u32, init: I, push: F) -> Self
    where
        I: Fn() -> S + Sync + Send,
        F: Fn(&mut S, u32, &mut Vec<u32>, &mut Vec<f64>) + Sync + Send,
    {
        let blocks = (0..n.div_ceil(BLOCK_ROWS))
            .into_par_iter()
            .map_init(init, |state, k| {
                let start = k * BLOCK_ROWS;
                let rows = start..n.min(start.saturating_add(BLOCK_ROWS));
                RowBlock::fill(rows, |i, cols, vals| push(state, i, cols, vals))
            })
            .collect();
        Self::from_blocks(blocks)
    }

    /// Joins blocks that tile `0..n` in node order.
    pub fn from_blocks(blocks: Vec<RowBlock>) -> Self {
        debug_assert!(blocks.first().is_none_or(|b| b.start == 0));
        debug_assert!(blocks
            .windows(2)
            .all(|w| w[0].start as usize + w[0].ends.len() == w[1].start as usize));
        Self { blocks }
    }

    /// Exact bytes of the row arrays: 12 per entry (a `u32` column and an
    /// `f64` value) plus 8 per row (its end offset) — a function of the
    /// row and entry counts alone, however the rows were blocked.
    pub fn memory_bytes(&self) -> u64 {
        let bytes = |b: &RowBlock| {
            size_of_val(&b.ends[..]) + size_of_val(&b.cols[..]) + size_of_val(&b.vals[..])
        };
        self.blocks.iter().map(|b| bytes(b) as u64).sum()
    }

    /// Borrow row `i` as column / value slices.
    pub fn get(&self, i: u32) -> (&[u32], &[f64]) {
        // The last block starting at or before `i`: never an empty one, as
        // the block after it starts where it does (or `i` is out of range).
        let block = &self.blocks[self.blocks.partition_point(|b| b.start <= i) - 1];
        let k = (i - block.start) as usize;
        let lo = k.checked_sub(1).map_or(0, |p| block.ends[p]);
        let hi = block.ends[k];
        (&block.cols[lo..hi], &block.vals[lo..hi])
    }
}

impl RowSource for StoredRows {
    type Scratch = ();

    fn dim(&self) -> usize {
        self.blocks.iter().map(|b| b.ends.len()).sum()
    }

    fn row<'a>(&'a self, i: u32, _: &'a mut ()) -> (&'a [u32], &'a [f64]) {
        self.get(i)
    }
}

/// Jacobi solver knobs.
#[derive(Clone, Copy, Debug)]
pub struct JacobiConfig {
    /// Number of sweeps `L`. The paper's default is 3.
    pub iterations: usize,
    /// If set, measures `‖Ax − b‖∞` after every sweep and stops early once
    /// below the tolerance.
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

/// One read of row `i` against `x`: the Jacobi update
/// `(bᵢ − Σ_{j≠i} aᵢⱼ xⱼ) / aᵢᵢ` and the residual `|aᵢ·x − bᵢ|` — the only
/// spelling of either. [`solve`] keeps both, Gauss–Seidel and the staged
/// sweeps the update, [`residual_inf`] the residual.
///
/// # Panics
/// Panics if the row's diagonal entry is zero or absent.
#[inline]
pub fn row_pass<R: RowSource>(
    rows: &R,
    b: &[f64],
    x: &[f64],
    i: u32,
    scratch: &mut R::Scratch,
) -> (f64, f64) {
    let (cols, vals) = rows.row(i, scratch);
    // Where `Iterator::<f64>::sum` starts (−0.0), so the residual is the
    // summed one bit for bit.
    let mut ax: f64 = std::iter::empty::<f64>().sum();
    let (mut off, mut diag) = (0.0, 0.0);
    for (&j, &a) in cols.iter().zip(vals) {
        let ajx = a * x[j as usize];
        ax += ajx;
        if j == i {
            diag = a;
        } else {
            off += ajx;
        }
    }
    assert!(diag != 0.0, "zero diagonal at row {i}");
    let bi = b[i as usize];
    ((bi - off) / diag, (ax - bi).abs())
}

/// Runs Jacobi on `A x = b` from initial guess `x0`.
///
/// One parallel [`row_pass`] per sweep: the pass reading `xₖ` yields
/// `xₖ₊₁` and `‖Axₖ − b‖∞` together, so when residuals are measured the
/// residual of sweep `k`'s iterate arrives with the next pass — `L + 1`
/// passes, the last one's update discarded.
///
/// # Panics
/// Panics if `b` or `x0` disagree with `rows.dim()`, or if a diagonal entry
/// is zero (the system is then not Jacobi-solvable; CloudWalker's rows
/// always carry `aᵢᵢ ≥ 1`).
pub fn solve<R: RowSource>(rows: &R, b: &[f64], x0: &[f64], cfg: &JacobiConfig) -> JacobiResult {
    let n = rows.dim();
    assert_eq!(b.len(), n, "rhs length");
    assert_eq!(x0.len(), n, "initial guess length");
    let measure = cfg.tolerance.is_some() || cfg.record_residuals;
    let (mut x, mut next) = (x0.to_vec(), vec![0.0; n]);
    let mut residuals = Vec::new();
    let mut done = 0;
    while done < cfg.iterations || (measure && done > 0) {
        let worst = next
            .par_iter_mut()
            .enumerate()
            .map_init(R::Scratch::default, |scratch, (i, slot)| {
                let (update, residual) = row_pass(rows, b, &x, i as u32, scratch);
                *slot = update;
                residual
            })
            .reduce(|| 0.0, f64::max);
        if measure && done > 0 {
            residuals.push(worst);
            if done == cfg.iterations || cfg.tolerance.is_some_and(|tol| worst < tol) {
                break;
            }
        }
        std::mem::swap(&mut x, &mut next);
        done += 1;
    }
    JacobiResult { x, iterations: done, residuals }
}

/// `‖Ax − b‖∞`, computed in parallel.
pub fn residual_inf<R: RowSource>(rows: &R, b: &[f64], x: &[f64]) -> f64 {
    (0..rows.dim() as u32)
        .into_par_iter()
        .map_init(R::Scratch::default, |scratch, i| row_pass(rows, b, x, i, scratch).1)
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
        let per_row: Vec<f64> = (0..3).map(|i| row_pass(&rows, &b, &x, i, &mut ()).1).collect();
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
        for (i, (a, e)) in res.x.iter().zip(expected).enumerate() {
            assert!((a - e).abs() < 1e-14);
            // A sweep is exactly the row update mapped over the rows.
            assert_eq!(*a, row_pass(&rows, &b, &x0, i as u32, &mut ()).0);
        }
    }

    type TupleRows = Vec<Vec<(u32, f64)>>;

    /// A seeded, strongly diagonally dominant `n × n` system with negative
    /// entries (off-diagonal and some diagonals), zeros in `b` and `x0`.
    fn random_system(n: u32, seed: u64) -> (TupleRows, Vec<f64>, Vec<f64>) {
        let mut state = seed;
        let mut unit = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        };
        let rows = (0..n)
            .map(|i| {
                let mut row: Vec<(u32, f64)> = (0..12)
                    .map(|_| (((unit() + 1.0) * 0.5 * n as f64) as u32 % n, unit()))
                    .collect();
                row.retain(|&(j, _)| j != i);
                row.sort_by_key(|&(j, _)| j);
                row.dedup_by_key(|&mut (j, _)| j);
                let dominance: f64 = row.iter().map(|&(_, a)| a.abs()).sum::<f64>() + 1.0;
                let sign = if i % 5 == 0 { -1.0 } else { 1.0 };
                let at = row.partition_point(|&(j, _)| j < i);
                row.insert(at, (i, sign * dominance * (1.0 + unit().abs())));
                row
            })
            .collect();
        let mut vector =
            |zero: u32| (0..n).map(|i| if i % zero == 0 { 0.0 } else { unit() }).collect();
        let b = vector(7);
        (rows, b, vector(3))
    }

    /// The unfused loop: `L` sweeps of the update spelled on tuple rows
    /// into a fresh iterate, each followed by a summed residual pass.
    fn unfused(
        rows: &[Vec<(u32, f64)>],
        b: &[f64],
        x0: &[f64],
        cfg: &JacobiConfig,
    ) -> JacobiResult {
        let update = |x: &[f64], i: usize| {
            let (mut off, mut diag) = (0.0, 0.0);
            for &(j, a) in &rows[i] {
                if j as usize == i {
                    diag = a;
                } else {
                    off += a * x[j as usize];
                }
            }
            (b[i] - off) / diag
        };
        let residual = |x: &[f64]| {
            let per_row = rows.iter().zip(b).map(|(row, bi)| {
                (row.iter().map(|&(j, a)| a * x[j as usize]).sum::<f64>() - bi).abs()
            });
            per_row.fold(0.0, f64::max)
        };
        let (mut x, mut residuals, mut iterations) = (x0.to_vec(), Vec::new(), 0);
        for _ in 0..cfg.iterations {
            x = (0..rows.len()).map(|i| update(&x, i)).collect();
            iterations += 1;
            if cfg.tolerance.is_some() || cfg.record_residuals {
                residuals.push(residual(&x));
                if cfg.tolerance.is_some_and(|tol| residuals[residuals.len() - 1] < tol) {
                    break;
                }
            }
        }
        JacobiResult { x, iterations, residuals }
    }

    #[test]
    fn one_pass_per_sweep_equals_the_unfused_loop_bitwise() {
        let bits = |v: &[f64]| v.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
        let cases = [
            JacobiConfig { iterations: 0, tolerance: None, record_residuals: true },
            JacobiConfig { iterations: 1, tolerance: None, record_residuals: true },
            JacobiConfig { iterations: 3, tolerance: None, record_residuals: true },
            JacobiConfig { iterations: 3, tolerance: None, record_residuals: false },
            JacobiConfig { iterations: 60, tolerance: Some(1e-9), record_residuals: false },
            JacobiConfig { iterations: 60, tolerance: Some(1e-6), record_residuals: true },
        ];
        for seed in 0..4 {
            let (tuples, b, x0) = random_system(300 + seed as u32 * 500, seed);
            let rows = StoredRows::new(tuples.clone());
            for cfg in &cases {
                let (got, want) = (solve(&rows, &b, &x0, cfg), unfused(&tuples, &b, &x0, cfg));
                let label = format!("seed {seed}, {cfg:?}");
                assert_eq!(bits(&got.x), bits(&want.x), "{label}: x");
                assert_eq!(bits(&got.residuals), bits(&want.residuals), "{label}: residuals");
                assert_eq!(got.iterations, want.iterations, "{label}: iterations");
                if cfg.tolerance.is_some() {
                    assert!(got.iterations < cfg.iterations, "{label}: stops early");
                }
            }
        }
    }

    #[test]
    fn memory_bytes_is_the_exact_csr_length_however_blocked() {
        let (tuples, _, _) = random_system(2_500, 9);
        let n = tuples.len() as u64;
        let entries: u64 = tuples.iter().map(|r| r.len() as u64).sum();
        let stored = StoredRows::new(tuples.clone());
        assert_eq!(stored.memory_bytes(), 12 * entries + 8 * n);
        // Blocks of `BLOCK_ROWS` from parallel tasks, and uneven blocks or
        // parts (one of them empty) cut by hand: the same rows, the same
        // bytes.
        let push = |_: &mut (), i: u32, cols: &mut Vec<u32>, vals: &mut Vec<f64>| {
            cols.extend(tuples[i as usize].iter().map(|&(j, _)| j));
            vals.extend(tuples[i as usize].iter().map(|&(_, a)| a));
        };
        let built = StoredRows::build(n as u32, || (), push);
        let cut = [0, 1, 700, 700, 2_499, 2_500];
        let blocks =
            cut.windows(2).map(|w| RowBlock::fill(w[0]..w[1], |i, c, v| push(&mut (), i, c, v)));
        let joined = StoredRows::from_blocks(blocks.collect());
        let parts = cut.windows(2).map(|w| tuples[w[0] as usize..w[1] as usize].to_vec());
        let parted = StoredRows::from_parts(parts.collect());
        for other in [&built, &joined, &parted] {
            assert_eq!(other.dim(), stored.dim());
            assert_eq!(other.memory_bytes(), stored.memory_bytes());
            for i in 0..n as u32 {
                assert_eq!(other.get(i), stored.get(i), "row {i}");
            }
        }
    }
}
