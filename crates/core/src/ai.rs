//! Construction of the linear-system rows `aᵢ`.
//!
//! Row `aᵢ = Σ_{t=0..T} cᵗ (Pᵗeᵢ) ∘ (Pᵗeᵢ)` encodes node `i`'s truncated
//! self-similarity series; the constraint `aᵢ · x = 1` pins the diagonal
//! correction. With `Pᵗeᵢ` estimated by an `R`-walker cohort, the row's
//! support is at most `T·R + 1` and the diagonal entry satisfies
//! `aᵢᵢ ≥ 1` (all walkers sit on `i` at `t = 0`), making the system
//! strongly diagonally dominant — the reason `L = 3` Jacobi sweeps suffice.
//!
//! Every build walks each row once and keeps it, coding each entry as a
//! `u32` column and a `u16` index into a per-256-row value dictionary,
//! 6 B, as an entry is mostly one `cᵗ·(count/R)²` term and values
//! repeat. The local build's rows live off
//! the heap ([`RowSpill`]): each coded group is written once to an
//! unlinked temp file under [`std::env::temp_dir`], and Jacobi sweeps
//! the groups out of the file's read-only mapping, a piece of a pass
//! dropping its group's pages when it leaves it ([`DropBehind`]): a sweep
//! holds about one group per thread. [`StoredRows`] keeps
//! them on the heap where rows arrive as data (broadcast, RDD, the
//! distributed coordinator).

use crate::config::SimRankConfig;
use pasco_graph::{CsrGraph, NodeId, WalkAdjacency};
use pasco_mc::counts::MassMap;
use pasco_mc::walks::{StepDistributions, WalkParams, WalkScratch};
use pasco_solver::jacobi::{BlockView, GroupImage, RowBlock, RowSource, RowValues, BLOCK_ROWS};
use pasco_store::Mmap;
use std::fs::File;
use std::io;
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Builds the sparse row `aᵢ` (sorted by column, exact length) from a
/// cohort's step distributions: `aᵢ(k) = Σ_t cᵗ (countₜ(k)/R)²`. The
/// oracle of [`RowKernel`], the row kernel every build path calls.
pub fn ai_row(dists: &StepDistributions, c: f64) -> Vec<(u32, f64)> {
    let r = dists.walkers as f64;
    let mut terms = Vec::with_capacity(dists.counts.iter().map(Vec::len).sum());
    let mut ct = 1.0;
    for step in &dists.counts {
        terms.extend(step.iter().map(|&(node, count)| {
            let p = count as f64 / r;
            (node, ct * p * p)
        }));
        ct *= c;
    }
    // Stable, so a node's terms stay in `t` order and fold, left to right,
    // in the order the series is written; the input is `T + 1` sorted runs,
    // which the sort merges.
    terms.sort_by_key(|&(node, _)| node);
    terms.dedup_by(|term, sum| {
        let same_node = term.0 == sum.0;
        if same_node {
            sum.1 += term.1;
        }
        same_node
    });
    terms.to_vec() // an exact-length copy: stored rows carry no slack
}

/// Builds `aᵢ` exactly, propagating `eᵢ` through `Pᵗ` by sparse pushes
/// instead of sampling. Used by the exact diagonal reference and the LIN
/// baseline; cost grows with the `t`-hop in-neighbourhood of `i`.
pub fn ai_row_exact(graph: &CsrGraph, i: NodeId, c: f64, t_max: usize) -> Vec<(u32, f64)> {
    let mut acc = MassMap::with_capacity(64);
    let mut u: Vec<(NodeId, f64)> = vec![(i, 1.0)];
    let mut ct = 1.0;
    for _ in 0..=t_max {
        for &(node, p) in &u {
            acc.add(node, ct * p * p);
        }
        ct *= c;
        u = pasco_mc::forward::reverse_push_measure(graph, &u);
        if u.is_empty() {
            break;
        }
    }
    acc.into_sorted_vec()
}

/// Fully materialised, dictionary-coded rows in node order, on the heap;
/// the solver crate's row store, under the path the engines use.
pub use pasco_solver::jacobi::StoredRows;

/// The in-process build's rows off the heap: coded per aligned group
/// exactly as [`StoredRows::build`] codes them, each group written once at
/// a page-aligned offset of a temp file, the file then mapped read-only.
/// Unlinked as soon as it is created, the file is private to the process
/// and gone with it, however it ends.
pub struct RowSpill {
    map: Mmap,
    /// Each group's bytes in the file and its layout, in group order.
    groups: Vec<(Range<usize>, GroupImage)>,
    n: u32,
}

impl RowSpill {
    /// Rows `0..n` generated in parallel, as [`StoredRows::build`] takes
    /// them, spilled under [`std::env::temp_dir`]. A failure to create,
    /// write or map the file names that directory.
    pub fn build<S, I, F>(n: u32, init: I, push: F) -> io::Result<Self>
    where
        I: Fn() -> S + Sync + Send,
        F: Fn(&mut S, u32, &mut Vec<u32>, &mut Vec<f64>) + Sync + Send,
    {
        let dir = std::env::temp_dir();
        let named = |e: io::Error| {
            io::Error::new(e.kind(), format!("row spill file in {}: {e}", dir.display()))
        };
        let file = unlinked_file(&dir).map_err(named)?;
        let end = AtomicUsize::new(0);
        // A piece writes its images through one buffer, as it codes its
        // groups into one block: fresh ≈ 0.7 MB ones per group had malloc
        // hand pages back and fault them in again, group after group.
        let init = || (init(), Vec::new());
        let push = |(state, _): &mut (S, Vec<u8>), i, cols: &mut _, vals: &mut _| {
            push(state, i, cols, vals);
        };
        let groups = RowBlock::build_groups(n, init, push, |(_, image), block| {
            let layout = block.write_image(image);
            // Relaxed: the counter publishes no data; the join at the end
            // of the parallel call orders every write before the mapping.
            let at = end.fetch_add(image.len().next_multiple_of(Mmap::PAGE), Ordering::Relaxed);
            file.write_all_at(image, at as u64).map(|()| (at..at + image.len(), layout))
        });
        let groups = groups.into_iter().collect::<io::Result<_>>().map_err(named)?;
        Ok(Self { map: Mmap::map_readonly(&file).map_err(named)?, groups, n })
    }

    /// The rows, each group's arrays viewed in place in the mapping.
    pub fn rows(&self) -> io::Result<SpilledRows<'_>> {
        let map = &self.map;
        let view = |(bytes, image): &(Range<usize>, GroupImage)| {
            let [ends, starts, values, cols, codes] =
                image.arrays().map(|(at, len)| (bytes.start + at, len));
            let view = image.view(
                map.slice_at(ends.0, ends.1)?,
                map.slice_at(starts.0, starts.1)?,
                map.slice_at(values.0, values.1)?,
                map.slice_at(cols.0, cols.1)?,
                map.slice_at(codes.0, codes.1)?,
            );
            Some((bytes.clone(), view))
        };
        let groups = self.groups.iter().map(view).collect::<Option<_>>().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "a spilled row group overruns its mapping")
        })?;
        Ok(SpilledRows { map, groups, n: self.n })
    }

    /// The coded bytes, padding excluded — [`StoredRows::memory_bytes`] of
    /// the same rows.
    pub fn memory_bytes(&self) -> u64 {
        self.groups.iter().map(|(_, image)| image.coded_bytes()).sum()
    }
}

/// A fresh file in `dir`, unlinked before it is written.
fn unlinked_file(dir: &Path) -> io::Result<File> {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let name =
        format!(".pasco-rows-{}-{}", std::process::id(), NEXT.fetch_add(1, Ordering::Relaxed));
    let path = dir.join(name);
    let file = File::options().read(true).write(true).create_new(true).open(&path)?;
    std::fs::remove_file(&path)?;
    Ok(file)
}

/// [`RowSpill`]'s rows, lent straight out of the mapping.
pub struct SpilledRows<'m> {
    map: &'m Mmap,
    /// Each group's byte range in the mapping and its view.
    groups: Vec<(Range<usize>, BlockView<'m>)>,
    n: u32,
}

impl<'m> RowSource for SpilledRows<'m> {
    type Scratch = DropBehind<'m>;

    fn dim(&self) -> usize {
        self.n as usize
    }

    fn row<'a>(&'a self, i: u32, piece: &'a mut DropBehind<'m>) -> (&'a [u32], RowValues<'a>) {
        let k = (i / BLOCK_ROWS) as usize;
        if piece.0.as_ref().is_none_or(|&(_, at, _)| at != k) {
            piece.leave();
            piece.0 = Some((self.map, k, self.groups[k].0.clone()));
        }
        self.groups[k].1.row(i)
    }
}

/// A pass piece's place in [`SpilledRows`]: the mapping and the index and
/// bytes of its group. A piece sweeps its rows in order, so it drops a
/// group's pages when it moves on to the next and when it ends.
#[derive(Default)]
pub struct DropBehind<'m>(Option<(&'m Mmap, usize, Range<usize>)>);

impl DropBehind<'_> {
    fn leave(&mut self) {
        if let Some((map, _, bytes)) = self.0.take() {
            map.drop_pages(bytes);
        }
    }
}

impl Drop for DropBehind<'_> {
    fn drop(&mut self) {
        self.leave();
    }
}

/// The product row kernel: node `i`'s `R`-walker cohort over any adjacency
/// source, folded straight into `aᵢ` from its sorted visits
/// ([`WalkScratch::visits_on`]) — no step histograms, terms vector or
/// copy. The terms are [`ai_row`]'s, folded left to right in its order
/// with `cᵗ` from the same repeated product, so the rows are its rows bit
/// for bit; and because walk randomness is a pure function of
/// `(seed, source, walker, step)`, every engine walks the same rows.
pub struct RowKernel<'a, A> {
    adj: &'a A,
    params: WalkParams,
    seed: u64,
    /// `cᵗ` for `t = 0..=T`.
    ct: Vec<f64>,
}

impl<'a, A: WalkAdjacency> RowKernel<'a, A> {
    /// The rows over `adj` of the index cohort `params` under `seed`,
    /// decay `c`.
    pub fn new(adj: &'a A, params: WalkParams, seed: u64, c: f64) -> Self {
        let ct = std::iter::successors(Some(1.0), |ct| Some(ct * c)).take(params.steps + 1);
        Self { adj, params, seed, ct: ct.collect() }
    }

    /// The rows of `cfg`'s offline phase (`T`, `R`, seed, `c`) over `adj`.
    pub fn of(adj: &'a A, cfg: &SimRankConfig) -> Self {
        Self::new(adj, WalkParams::new(cfg.t, cfg.r), cfg.seed, cfg.c)
    }

    /// Appends `aᵢ`, sorted by column, to `cols` / `vals`.
    pub fn push_row(
        &self,
        i: NodeId,
        walk: &mut WalkScratch,
        cols: &mut Vec<u32>,
        vals: &mut Vec<f64>,
    ) {
        let r = self.params.walkers as f64;
        let term = |(t, count): (usize, u64)| {
            let p = count as f64 / r;
            self.ct[t] * p * p
        };
        for (node, runs) in walk.visits_on(self.adj, i, self.params, self.seed) {
            cols.push(node);
            // `sum` starts at −0.0, which adds exactly: the fold is
            // `ai_row`'s, term by term from `t = 0`.
            vals.push(runs.map(term).sum());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasco_graph::generators;
    use pasco_mc::walks::reverse_walk_distributions;

    #[test]
    fn diagonal_entry_at_least_one() {
        let g = generators::barabasi_albert(200, 3, 7);
        for i in [0u32, 50, 199] {
            let d = reverse_walk_distributions(&g, i, WalkParams::new(10, 50), 3);
            let row = ai_row(&d, 0.6);
            let diag = row.iter().find(|&&(k, _)| k == i).map(|&(_, v)| v).unwrap();
            assert!(diag >= 1.0, "a[{i}][{i}] = {diag}");
        }
    }

    #[test]
    fn row_support_is_bounded_by_walk_budget() {
        let g = generators::barabasi_albert(500, 4, 1);
        let params = WalkParams::new(10, 20);
        let d = reverse_walk_distributions(&g, 17, params, 2);
        let row = ai_row(&d, 0.6);
        assert!(row.len() <= 10 * 20 + 1);
        assert!(row.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
        assert_eq!(row.capacity(), row.len(), "stored rows carry no slack");
    }

    #[test]
    fn exact_row_on_cycle_is_geometric() {
        // Cycle: P^t e_i is a point mass, so a_i(k) = Σ c^t [k = i - t].
        let g = generators::cycle(4);
        let row = ai_row_exact(&g, 0, 0.5, 3);
        // t=0: node 0 += 1; t=1: node 3 += 0.5; t=2: node 2 += 0.25;
        // t=3: node 1 += 0.125
        assert_eq!(row, vec![(0, 1.0), (1, 0.125), (2, 0.25), (3, 0.5)]);
    }

    #[test]
    fn exact_row_terminates_on_dangling() {
        let g = generators::path(3); // 0 -> 1 -> 2; node 0 dangling
        let row = ai_row_exact(&g, 2, 0.6, 10);
        // t=0 at 2 (1.0), t=1 at 1 (0.6·1), t=2 at 0 (0.36·1), then dies.
        assert_eq!(row, vec![(0, 0.36), (1, 0.6), (2, 1.0)]);
    }

    #[test]
    fn mc_row_converges_to_exact_row() {
        let g = generators::barabasi_albert(100, 3, 5);
        let exact = ai_row_exact(&g, 42, 0.6, 6);
        let d = reverse_walk_distributions(&g, 42, WalkParams::new(6, 60_000), 8);
        let mc = ai_row(&d, 0.6);
        // Compare the diagonal and total mass.
        let get = |row: &[(u32, f64)], k: u32| {
            row.iter().find(|&&(j, _)| j == k).map(|&(_, v)| v).unwrap_or(0.0)
        };
        assert!((get(&exact, 42) - get(&mc, 42)).abs() < 0.02);
        let sum_e: f64 = exact.iter().map(|&(_, v)| v).sum();
        let sum_m: f64 = mc.iter().map(|&(_, v)| v).sum();
        // Squared empirical frequencies are biased upward by Var/R per node,
        // so allow a generous but bounded gap.
        assert!((sum_e - sum_m).abs() / sum_e < 0.1, "{sum_e} vs {sum_m}");
    }

    fn bits(values: RowValues) -> Vec<u64> {
        values.iter().map(|a| a.to_bits()).collect()
    }

    /// [`RowSpill`] against [`StoredRows::build`] on the same rows: every
    /// row's column slice and value bits, and the coded bytes. Under two
    /// threads group 0 is held back until the last row has been pushed, so
    /// the groups land in the file out of index order.
    fn spill_matches_stored<F>(label: &str, n: u32, push: F)
    where
        F: Fn(u32, &mut Vec<u32>, &mut Vec<f64>) + Sync + Send,
    {
        let want = StoredRows::build(n, || (), |_, i, cols, vals| push(i, cols, vals));
        let (last_pushed, wake) = (std::sync::Mutex::new(false), std::sync::Condvar::new());
        let gated = |_: &mut (), i: u32, cols: &mut Vec<u32>, vals: &mut Vec<f64>| {
            if i + 1 == n {
                *last_pushed.lock().unwrap() = true;
                wake.notify_all();
            }
            if i == 0 && n > BLOCK_ROWS {
                let held = last_pushed.lock().unwrap();
                let ten_s = std::time::Duration::from_secs(10);
                drop(wake.wait_timeout_while(held, ten_s, |pushed| !*pushed).unwrap());
            }
            push(i, cols, vals);
        };
        let pool = rayon::ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let spill = pool.install(|| RowSpill::build(n, || (), gated)).unwrap();
        let got = spill.rows().unwrap();
        assert_eq!(got.dim(), want.dim(), "{label}: dim");
        assert_eq!(spill.memory_bytes(), want.memory_bytes(), "{label}: rows_bytes");
        let mut piece = DropBehind::default();
        for i in 0..n {
            let ((cols, vals), (want_cols, want_vals)) = (got.row(i, &mut piece), want.get(i));
            assert_eq!(cols, want_cols, "{label}: row {i} columns");
            assert_eq!(bits(vals), bits(want_vals), "{label}: row {i}");
        }
        drop(piece);
        // Each row again through a scratch dropped right after it, so every
        // read refaults pages its group dropped mid-sweep: same bits.
        for i in 0..n {
            let mut piece = DropBehind::default();
            let ((cols, vals), (want_cols, want_vals)) = (got.row(i, &mut piece), want.get(i));
            assert_eq!(cols, want_cols, "{label}: row {i} columns, refaulted");
            assert_eq!(bits(vals), bits(want_vals), "{label}: row {i}, refaulted");
        }
    }

    #[test]
    fn spilled_rows_are_the_stored_rows_row_for_row() {
        let g = generators::rmat(10, 8_000, generators::RmatParams::default(), 4);
        let kernel = RowKernel::of(&g, &SimRankConfig::fast());
        spill_matches_stored("rmat10", g.node_count(), |i, cols, vals| {
            kernel.push_row(i, &mut WalkScratch::default(), cols, vals);
        });
        // 600 distinct values a row, as in jacobi.rs' literal-overflow
        // system: ≈ 154k a group, so past 65,535 entries are escaped.
        spill_matches_stored("600 x 600, literals", 600, |i, cols, vals| {
            cols.extend(0..600);
            vals.extend((0..600).map(|j| f64::from(i * 600 + j) + 0.5));
        });
        // No rows, one, a short group, one row past a group, a ragged tail;
        // every seventh row empty.
        for n in [0, 1, 255, 257, 1_000] {
            spill_matches_stored(&format!("n = {n}"), n, |i, cols, vals| {
                cols.extend(0..i % 7);
                vals.extend((0..i % 7).map(|j| f64::from(i ^ j) / 8.0));
            });
        }
    }
}
