//! Small dense matrices for the exact-SimRank ground truth.
//!
//! Exact SimRank materialises `S ∈ ℝ^{n×n}` — only viable on the smallest
//! dataset, which is precisely how the paper uses it (effectiveness is
//! evaluated on wiki-vote). Row-major storage; row-parallel helpers.

use rayon::prelude::*;

/// Row-major dense `rows × cols` matrix of `f64`.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Identity (square).
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Parallel iterator over `(row_index, row_slice)` pairs for in-place
    /// row-wise computation.
    pub fn par_rows_mut(&mut self) -> impl IndexedParallelIterator<Item = (usize, &mut [f64])> {
        self.data.par_chunks_mut(self.cols).enumerate()
    }

    /// Sets every diagonal element to `v` (square matrices).
    pub fn fill_diagonal(&mut self, v: f64) {
        assert_eq!(self.rows, self.cols, "diagonal of non-square matrix");
        for i in 0..self.rows {
            self.set(i, i, v);
        }
    }

    /// `max_{r,c} |self − other|` — the convergence metric between SimRank
    /// iterates.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data
            .par_iter()
            .zip(other.data.par_iter())
            .map(|(a, b)| (a - b).abs())
            .reduce(|| 0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_and_accessors() {
        let mut m = Matrix::identity(3);
        assert_eq!(m.get(1, 1), 1.0);
        assert_eq!(m.get(0, 1), 0.0);
        m.set(0, 2, 5.0);
        assert_eq!(m.row(0), &[1.0, 0.0, 5.0]);
    }

    #[test]
    fn fill_diagonal_overwrites() {
        let mut m = Matrix::zeros(2, 2);
        m.set(0, 0, 9.0);
        m.fill_diagonal(1.0);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 1), 1.0);
    }

    #[test]
    fn diff_and_asymmetry() {
        let mut a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 2);
        a.set(0, 1, 0.25);
        assert_eq!(a.max_abs_diff(&b), 0.25);
    }

    #[test]
    fn par_rows_mut_visits_every_row_once() {
        let mut m = Matrix::zeros(4, 3);
        m.par_rows_mut().for_each(|(r, row)| {
            for v in row.iter_mut() {
                *v = r as f64;
            }
        });
        for r in 0..4 {
            assert!(m.row(r).iter().all(|&v| v == r as f64));
        }
    }
}
