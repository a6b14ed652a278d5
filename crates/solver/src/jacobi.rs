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
//!
//! Stored rows ([`StoredRows`]) are dictionary-coded. A Monte-Carlo row
//! entry is mostly a single `cᵗ·(count/R)²` term, so a group of 256 rows
//! holds a few thousand distinct values among its ~10⁵ entries. Each entry
//! is a `u32` column and a `u16` code into its group's dictionary: 6 bytes
//! instead of 12, decoded inline by the row pass.
//!
//! A coded group ([`RowBlock`]) can also be written out as one image of
//! 8-aligned arrays ([`GroupImage`]) and read back in place: the local
//! build sweeps its rows from a mapped temp file that way, not from the
//! heap. Either way a row is lent through one [`BlockView`].

use rayon::prelude::*;
use std::ops::Range;

/// Produces rows of the implicit system. Implementations either replay
/// stored sparse rows or regenerate them from seeded walks.
pub trait RowSource: Sync {
    /// Per-task state a row is lent through (`()` when rows are stored).
    type Scratch: Default;

    /// Dimension `n` of the square system.
    fn dim(&self) -> usize;

    /// Row `i`, sorted by column and including the diagonal entry: its
    /// columns and, in the same order, its values.
    fn row<'a>(&'a self, i: u32, scratch: &'a mut Self::Scratch) -> (&'a [u32], RowValues<'a>);
}

/// A lent row's values in column order. Entry `k` is `dict[codes[k]]`;
/// where that code is not in `dict` (the escape `u16::MAX` never is), or
/// `codes` has ended, it is the next of `literals`.
#[derive(Clone, Copy, Debug)]
pub struct RowValues<'a> {
    codes: &'a [u16],
    dict: &'a [f64],
    literals: &'a [f64],
}

impl<'a> RowValues<'a> {
    /// Values lent as they are, every entry a literal.
    pub fn plain(values: &'a [f64]) -> Self {
        Self { codes: &[], dict: &[], literals: values }
    }

    /// The values, in column order.
    #[inline]
    pub fn iter(self) -> impl Iterator<Item = &'a f64> {
        let (mut codes, mut literals) = (self.codes.iter(), self.literals.iter());
        std::iter::from_fn(move || match codes.next() {
            Some(&code) => self.dict.get(usize::from(code)).or_else(|| literals.next()),
            None => literals.next(),
        })
    }
}

/// Rows per aligned group: rows `k·256..(k + 1)·256` share one dictionary.
pub const BLOCK_ROWS: u32 = 256;
/// Codes a dictionary can hand out; `u16::MAX` is the literal escape.
const DICT_MAX: usize = u16::MAX as usize;
/// Bytes per stored entry: a `u32` column and a `u16` code.
pub const ENTRY_BYTES: u64 = (size_of::<u32>() + size_of::<u16>()) as u64;

/// Rows `start..start + ends.len()`, all inside one aligned group: row
/// `start + k` is `cols` / `codes` from `ends[k - 1]` (0 for `k = 0`) to
/// `ends[k]`, every array exact-length. `values` is the group's dictionary,
/// its distinct values (by bits) in first-seen order. Once it holds
/// `DICT_MAX`, a new value is coded `u16::MAX` and appended as a literal;
/// row `k`'s run from `literal_starts[k]` to `literal_starts[k + 1]`
/// (empty while the group has none).
#[derive(Clone, Debug, Default)]
#[cfg_attr(test, derive(PartialEq))]
pub struct RowBlock {
    start: u32,
    ends: Vec<usize>,
    cols: Vec<u32>,
    codes: Vec<u16>,
    values: Vec<f64>,
    literal_starts: Vec<usize>,
}

impl RowBlock {
    /// Rows `0..n` generated in parallel, one task per aligned group, as
    /// [`StoredRows::build`] takes them; `keep(state, block)` gets each
    /// coded group, and what it answers comes back in group order. A piece
    /// codes its groups into one reused block, so `keep` copies what it keeps.
    pub fn build_groups<S, T, I, F, K>(n: u32, init: I, push: F, keep: K) -> Vec<T>
    where
        T: Send,
        I: Fn() -> S + Sync + Send,
        F: Fn(&mut S, u32, &mut Vec<u32>, &mut Vec<f64>) + Sync + Send,
        K: Fn(&mut S, &RowBlock) -> T + Sync + Send,
    {
        (0..n.div_ceil(BLOCK_ROWS))
            .into_par_iter()
            .map_init(
                || (init(), Self::default()),
                |(state, block), k| {
                    let start = k * BLOCK_ROWS;
                    let rows = start..n.min(start.saturating_add(BLOCK_ROWS));
                    block.recode(rows, |i, cols, vals| push(state, i, cols, vals));
                    keep(state, block)
                },
            )
            .collect()
    }

    /// The rows `rows`, each appended in order by `push(i, cols, vals)` and
    /// coded, as one block per aligned group they touch.
    pub fn fill(
        rows: Range<u32>,
        mut push: impl FnMut(u32, &mut Vec<u32>, &mut Vec<f64>),
    ) -> Vec<Self> {
        let mut start = rows.start;
        std::iter::from_fn(|| {
            let end = rows.end.min((start | (BLOCK_ROWS - 1)).saturating_add(1));
            let block = (start < end).then(|| Self::encode(start..end, &mut push));
            start = end;
            block
        })
        .collect()
    }

    /// [`Self::fill`] for rows inside one aligned group.
    fn encode(rows: Range<u32>, push: impl FnMut(u32, &mut Vec<u32>, &mut Vec<f64>)) -> Self {
        let mut block = Self::default();
        block.recode(rows, push);
        block.cols.shrink_to_fit();
        block.codes.shrink_to_fit();
        block.values.shrink_to_fit();
        block
    }

    /// The encoder: codes the rows `rows`, all inside one aligned group,
    /// into this block, in place of what it held.
    fn recode(
        &mut self,
        rows: Range<u32>,
        mut push: impl FnMut(u32, &mut Vec<u32>, &mut Vec<f64>),
    ) {
        self.start = rows.start;
        self.ends.clear();
        self.ends.reserve(rows.len());
        self.cols.clear();
        self.codes.clear();
        self.values.clear();
        self.literal_starts.clear();
        self.literal_starts.push(DICT_MAX);
        // Open addressing over codes, `u16::MAX` marking a free slot: the
        // marker is no code, so every bit pattern of a value can be a key.
        let mut slots = vec![u16::MAX; 1024];
        let mut row = Vec::new();
        for i in rows {
            row.clear();
            push(i, &mut self.cols, &mut row);
            for &value in &row {
                let dict = self.values.len().min(DICT_MAX);
                if 2 * dict >= slots.len() {
                    slots = vec![u16::MAX; 2 * slots.len()];
                    for (code, &old) in self.values.iter().enumerate() {
                        let at = free_slot(&slots, &self.values, old);
                        slots[at] = code as u16;
                    }
                }
                // A new value takes the next code while there is one, and
                // is a literal (code `u16::MAX`) after.
                let at = free_slot(&slots, &self.values, value);
                if slots[at] == u16::MAX {
                    if dict < DICT_MAX {
                        slots[at] = dict as u16;
                    }
                    self.values.push(value);
                }
                self.codes.push(slots[at]);
            }
            self.ends.push(self.cols.len());
            self.literal_starts.push(self.values.len().max(DICT_MAX));
        }
        if self.values.len() <= DICT_MAX {
            self.literal_starts = Vec::new();
        }
    }

    fn end(&self) -> u32 {
        self.start + self.ends.len() as u32
    }

    /// The group, borrowed.
    fn view(&self) -> BlockView<'_> {
        let Self { start, ends, cols, codes, values, literal_starts } = self;
        BlockView { start: *start, ends, literal_starts, values, cols, codes }
    }

    /// Where [`Self::write_image`] puts each array.
    fn layout(&self) -> GroupImage {
        let Self { start, ends, cols, codes, values, literal_starts } = self;
        let lens = [ends.len(), literal_starts.len(), values.len(), cols.len(), codes.len()];
        GroupImage { start: *start, lens }
    }

    /// Replaces `out` with the group's image, its arrays as native-endian
    /// bytes, and answers where each one is.
    pub fn write_image(&self, out: &mut Vec<u8>) -> GroupImage {
        out.clear();
        put(out, &self.ends, usize::to_ne_bytes);
        put(out, &self.literal_starts, usize::to_ne_bytes);
        put(out, &self.values, f64::to_ne_bytes);
        put(out, &self.cols, u32::to_ne_bytes);
        put(out, &self.codes, u16::to_ne_bytes);
        self.layout()
    }
}

/// Appends `items`' bytes, zero-padded to a multiple of 8.
fn put<T: Copy, const B: usize>(out: &mut Vec<u8>, items: &[T], bytes: impl Fn(T) -> [u8; B]) {
    let at = out.len();
    out.resize(at + (items.len() * B).next_multiple_of(8), 0);
    for (to, &item) in out[at..].chunks_exact_mut(B).zip(items) {
        to.copy_from_slice(&bytes(item));
    }
}

/// Bytes per element of a group image's arrays, in image order.
const IMAGE_ELEM_BYTES: [usize; 5] = [size_of::<usize>(), size_of::<usize>(), 8, 4, 2];

/// The layout of a coded group's image ([`RowBlock::write_image`]): its first
/// row and the length of each array — `ends`, `literal_starts`, `values`,
/// `cols`, `codes` — each starting 8-aligned, so each can be read in place.
/// An image never leaves the process that wrote it, so it is not a
/// format: native widths and byte order.
#[derive(Clone, Copy, Debug)]
pub struct GroupImage {
    start: u32,
    lens: [usize; 5],
}

impl GroupImage {
    /// Each array's byte offset in the image and its element count.
    pub fn arrays(&self) -> [(usize, usize); 5] {
        let mut at = 0;
        std::array::from_fn(|k| {
            let array = (at, self.lens[k]);
            at += (self.lens[k] * IMAGE_ELEM_BYTES[k]).next_multiple_of(8);
            array
        })
    }

    /// The arrays' bytes, padding excluded: the group's share of
    /// [`StoredRows::memory_bytes`].
    pub fn coded_bytes(&self) -> u64 {
        self.lens.iter().zip(IMAGE_ELEM_BYTES).map(|(n, b)| (n * b) as u64).sum()
    }

    /// The group lent from its arrays, read back where [`Self::arrays`]
    /// says.
    pub fn view<'a>(
        &self,
        ends: &'a [usize],
        literal_starts: &'a [usize],
        values: &'a [f64],
        cols: &'a [u32],
        codes: &'a [u16],
    ) -> BlockView<'a> {
        let lens = [ends.len(), literal_starts.len(), values.len(), cols.len(), codes.len()];
        debug_assert_eq!(lens, self.lens);
        BlockView { start: self.start, ends, literal_starts, values, cols, codes }
    }
}

/// One coded group, borrowed wherever it lives — a [`RowBlock`]'s arrays
/// or its image read in place — and the one place a row is lent from.
#[derive(Clone, Copy, Debug)]
pub struct BlockView<'a> {
    start: u32,
    ends: &'a [usize],
    literal_starts: &'a [usize],
    values: &'a [f64],
    cols: &'a [u32],
    codes: &'a [u16],
}

impl<'a> BlockView<'a> {
    /// Row `i`, which this group holds: its columns and its values.
    #[inline]
    pub fn row(self, i: u32) -> (&'a [u32], RowValues<'a>) {
        let k = (i - self.start) as usize;
        let (lo, hi) = (k.checked_sub(1).map_or(0, |p| self.ends[p]), self.ends[k]);
        let literals =
            self.literal_starts.get(k..k + 2).map_or(&[][..], |w| &self.values[w[0]..w[1]]);
        let dict = &self.values[..self.values.len().min(DICT_MAX)];
        (&self.cols[lo..hi], RowValues { codes: &self.codes[lo..hi], dict, literals })
    }
}

/// The slot holding `value`'s code, or else the free slot ending its probe
/// sequence (linear probing from a multiplicative hash of its bits).
fn free_slot(slots: &[u16], values: &[f64], value: f64) -> usize {
    let bits = value.to_bits();
    let mask = slots.len() - 1;
    let shift = u64::BITS - slots.len().trailing_zeros();
    let mut at = (bits.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> shift) as usize;
    while slots[at] != u16::MAX && values[usize::from(slots[at])].to_bits() != bits {
        at = (at + 1) & mask;
    }
    at
}

/// A [`RowSource`] over fully materialised rows in row order, on the heap
/// — the shape broadcast's walk stage, worker-shipped and shuffled rows
/// flatten into, and the workhorse for tests. Rows sit in one
/// dictionary-coded [`RowBlock`] per aligned group of 256, lent in place.
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
    /// partition) — the converting constructor: the parts are read as one
    /// stream, so no group is split at a part's end, and each row is freed
    /// once coded, so the copy never holds more than a group twice and
    /// reuses the freed rows' memory.
    pub fn from_parts(parts: Vec<Vec<Vec<(u32, f64)>>>) -> Self {
        let n = parts.iter().map(Vec::len).sum::<usize>() as u32;
        let mut rows = parts.into_iter().flatten();
        Self::from_blocks(RowBlock::fill(0..n, |_, cols, vals| {
            let row = rows.next().unwrap_or_default();
            debug_assert!(row.windows(2).all(|w| w[0].0 < w[1].0));
            cols.extend(row.iter().map(|&(j, _)| j));
            vals.extend(row.iter().map(|&(_, a)| a));
        }))
    }

    /// Rows `0..n` generated in parallel, one task per aligned group:
    /// `push(state, i, cols, vals)` appends row `i`, `state` made by `init`
    /// once per worker piece.
    pub fn build<S, I, F>(n: u32, init: I, push: F) -> Self
    where
        I: Fn() -> S + Sync + Send,
        F: Fn(&mut S, u32, &mut Vec<u32>, &mut Vec<f64>) + Sync + Send,
    {
        Self::from_blocks(RowBlock::build_groups(n, init, push, |_, block| block.clone()))
    }

    /// Joins blocks that tile `0..n` in node order. A group split across
    /// a seam is merged by coding its rows again, at most 256, so the
    /// layout is one block per aligned group whatever the cuts were.
    pub fn from_blocks(blocks: impl IntoIterator<Item = RowBlock>) -> Self {
        let mut joined: Vec<RowBlock> = Vec::new();
        for block in blocks {
            debug_assert_eq!(block.start, joined.last().map_or(0, RowBlock::end));
            match joined.last_mut() {
                Some(last) if last.start / BLOCK_ROWS == block.start / BLOCK_ROWS => {
                    let rows = last.start..block.end();
                    *last = RowBlock::encode(rows, |i, cols, vals| {
                        let (c, v) =
                            if i < block.start { last.view() } else { block.view() }.row(i);
                        cols.extend_from_slice(c);
                        vals.extend(v.iter());
                    });
                }
                _ => joined.push(block),
            }
        }
        Self { blocks: joined }
    }

    /// Exact bytes of the row arrays: [`ENTRY_BYTES`] per entry, 8 per row
    /// (its end offset), 8 per dictionary value or literal, and, in a group
    /// with literals, 8 per row plus 8 (the literal starts) — a function of
    /// the rows alone, however they were blocked.
    pub fn memory_bytes(&self) -> u64 {
        self.blocks.iter().map(|b| b.layout().coded_bytes()).sum()
    }

    /// Borrow row `i`: its columns and its values.
    pub fn get(&self, i: u32) -> (&[u32], RowValues<'_>) {
        self.blocks[(i / BLOCK_ROWS) as usize].view().row(i)
    }
}

impl RowSource for StoredRows {
    type Scratch = ();

    fn dim(&self) -> usize {
        self.blocks.last().map_or(0, |b| b.end() as usize)
    }

    fn row<'a>(&'a self, i: u32, _: &'a mut ()) -> (&'a [u32], RowValues<'a>) {
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
    for (&j, &a) in cols.iter().zip(vals.iter()) {
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
    /// entries (off-diagonal and some diagonals), zeros in `b` and `x0`;
    /// each row draws `width` off-diagonal columns with replacement.
    fn random_system(n: u32, width: usize, seed: u64) -> (TupleRows, Vec<f64>, Vec<f64>) {
        let mut state = seed;
        let mut unit = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        };
        let rows = (0..n)
            .map(|i| {
                let mut row: Vec<(u32, f64)> = (0..width)
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

    fn bits<'a>(values: impl IntoIterator<Item = &'a f64>) -> Vec<u64> {
        values.into_iter().map(|a| a.to_bits()).collect()
    }

    #[test]
    fn one_pass_per_sweep_equals_the_unfused_loop_bitwise() {
        let cases = [
            JacobiConfig { iterations: 0, tolerance: None, record_residuals: true },
            JacobiConfig { iterations: 1, tolerance: None, record_residuals: true },
            JacobiConfig { iterations: 3, tolerance: None, record_residuals: true },
            JacobiConfig { iterations: 3, tolerance: None, record_residuals: false },
            JacobiConfig { iterations: 60, tolerance: Some(1e-9), record_residuals: false },
            JacobiConfig { iterations: 60, tolerance: Some(1e-6), record_residuals: true },
        ];
        // Seed 4's rows are ~380 wide: each group sees ~97k distinct values,
        // so past the first 65,535 its entries are escaped literals.
        for seed in 0..5 {
            let (n, width) = if seed < 4 { (300 + seed as u32 * 500, 12) } else { (600, 600) };
            let (tuples, b, x0) = random_system(n, width, seed);
            let rows = StoredRows::new(tuples.clone());
            let escaped = rows.blocks.iter().any(|b| !b.literal_starts.is_empty());
            assert_eq!(escaped, seed == 4, "seed {seed}: literals");
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

    /// `memory_bytes` spelled from the rows, per aligned group: 6 B per
    /// entry and 8 B per row; 8 B per distinct value while the dictionary
    /// has room, and per entry missing it after; 8 B per row, plus 8, once
    /// the group has a literal.
    fn coded_bytes(rows: &[Vec<(u32, f64)>]) -> u64 {
        let group_bytes = |group: &[Vec<(u32, f64)>]| {
            let mut dict = std::collections::BTreeSet::new();
            let mut values = 0;
            for &(_, a) in group.iter().flatten() {
                if !dict.contains(&a.to_bits()) {
                    if dict.len() < DICT_MAX {
                        dict.insert(a.to_bits());
                    }
                    values += 1;
                }
            }
            let entries: usize = group.iter().map(Vec::len).sum();
            let literal_starts = if values > dict.len() { group.len() + 1 } else { 0 };
            (6 * entries + 8 * (group.len() + values + literal_starts)) as u64
        };
        rows.chunks(BLOCK_ROWS as usize).map(group_bytes).sum()
    }

    #[test]
    fn memory_bytes_is_the_exact_csr_length_however_blocked() {
        // The narrow rows' values sit on a 1/16 grid, so they repeat within
        // a group and a group left split at a seam would code some twice;
        // the wide rows overflow their dictionaries into literals.
        for (n, width, grid) in [(2_500, 12, true), (600, 600, false)] {
            let (mut tuples, _, _) = random_system(n, width, 9);
            if grid {
                tuples.iter_mut().flatten().for_each(|(_, a)| *a = (*a * 16.0).round() / 16.0);
            }
            let stored = StoredRows::new(tuples.clone());
            assert_eq!(stored.memory_bytes(), coded_bytes(&tuples), "n {n}");
            for (i, row) in tuples.iter().enumerate() {
                let (cols, vals) = stored.get(i as u32);
                assert!(cols.iter().eq(row.iter().map(|(j, _)| j)), "n {n}: row {i} columns");
                assert_eq!(bits(vals.iter()), bits(row.iter().map(|(_, a)| a)), "n {n}: row {i}");
            }
            // Groups from parallel tasks, and uneven blocks or parts (one of
            // them empty) cut by hand: the same rows, the same layout.
            let push = |_: &mut (), i: u32, cols: &mut Vec<u32>, vals: &mut Vec<f64>| {
                cols.extend(tuples[i as usize].iter().map(|&(j, _)| j));
                vals.extend(tuples[i as usize].iter().map(|&(_, a)| a));
            };
            let built = StoredRows::build(n, || (), push);
            // At `n = 2500`: `[0, 1, 700, 700, 2_499, 2_500]`.
            let cut = [0, 1, 7 * n / 25, 7 * n / 25, n - 1, n];
            let blocks = cut
                .windows(2)
                .flat_map(|w| RowBlock::fill(w[0]..w[1], |i, c, v| push(&mut (), i, c, v)));
            let joined = StoredRows::from_blocks(blocks);
            let parts = cut.windows(2).map(|w| tuples[w[0] as usize..w[1] as usize].to_vec());
            let parted = StoredRows::from_parts(parts.collect());
            for (how, other) in [("built", &built), ("joined", &joined), ("parted", &parted)] {
                assert!(other.blocks == stored.blocks, "n {n}: {how} layout");
                assert_eq!(other.memory_bytes(), stored.memory_bytes(), "n {n}: {how}");
            }
        }
    }

    #[test]
    fn hostile_values_round_trip_bit_exactly() {
        let hostile = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(1),
            -f64::MIN_POSITIVE / 2.0,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
            f64::from_bits(0xfff8_0000_dead_beef),
            f64::from_bits(u64::MAX),
            f64::MAX,
        ];
        let rows: Vec<Vec<(u32, f64)>> = (0..300u32)
            .map(|i| {
                (0..i % 17 + 1).map(|j| (j, hostile[(i + j) as usize % hostile.len()])).collect()
            })
            .collect();
        let stored = StoredRows::new(rows.clone());
        for (i, row) in rows.iter().enumerate() {
            let (cols, vals) = stored.get(i as u32);
            assert!(cols.iter().eq(row.iter().map(|(j, _)| j)), "row {i} columns");
            assert_eq!(bits(vals.iter()), bits(row.iter().map(|(_, a)| a)), "row {i}");
        }
        // One code per bit pattern: no two patterns merged, none lost to
        // the free-slot marker.
        assert!(stored.blocks.iter().all(|b| b.values.len() == hostile.len()));
    }
}
