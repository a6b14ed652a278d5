//! Node partitioning schemes used by the RDD execution mode.
//!
//! The paper's RDD implementation stores the graph as a partitioned dataset;
//! a walker whose next node lives on another partition must be shuffled
//! there. The partitioner must therefore be computable by *every* worker in
//! O(1) without global state — these are.
//!
//! # The range router
//!
//! A range partitioner over `n` nodes and `parts` partitions owns nodes in
//! chunks of `chunk = max(1, ⌈n / parts⌉)`:
//! `owner(v) = min(⌊v / chunk⌋, parts − 1)` for **every** `u32` `v` — ids
//! `≥ n` clamp to the last part, which keeps routed storage total on
//! out-of-range lookups; `parts > n` (empty trailing parts) and `n` not
//! divisible by `parts` (a short last part) need nothing special. Every
//! walk step over routed storage evaluates it, so [`RangeRouter::new`]
//! divides once, for `m = ⌊(2⁶⁴ − 1) / chunk⌋`, after which
//! `⌊v / chunk⌋ = ⌊m · (v + 1) / 2⁶⁴⌋` is one widening multiply.
//!
//! The identity is exact for all `v` and `1 ≤ chunk` below `2³²`. Write
//! `v + 1 = q · chunk + r` with `0 ≤ r < chunk`: the quotient wanted is `q`
//! when `r ≥ 1` and `q − 1` when `r = 0`. `m · chunk = 2⁶⁴ − s` with
//! `1 ≤ s ≤ chunk` (`s = chunk` for powers of two, `chunk == 1` included,
//! so `m` never overflows), hence `m · (v + 1) / 2⁶⁴ = q + r / chunk − δ`
//! with `0 < δ = s · (v + 1) / (chunk · 2⁶⁴) ≤ 2⁻³² < 1 / chunk`: for
//! `r ≥ 1` the fraction stays in `[0, 1)`, for `r = 0` the floor is `q − 1`.

use crate::csr::NodeId;

/// The range router: contiguous chunks of node ids, `chunk` and its
/// reciprocal precomputed (module docs). [`Partitioner::Range`] is one, and
/// routed storage holds it bare, so that its per-step
/// [`RangeRouter::route`] is straight-line arithmetic with no partitioner
/// kind to branch on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RangeRouter {
    n: u32,
    parts: u32,
    /// Nodes per partition, `max(1, ⌈n / parts⌉)`.
    chunk: u32,
    /// `⌊(2⁶⁴ − 1) / chunk⌋`.
    recip: u64,
}

impl RangeRouter {
    /// The router of `n` nodes over `parts` partitions.
    pub fn new(n: u32, parts: u32) -> Self {
        assert!(parts > 0, "need at least one partition");
        let chunk = chunk_size(n, parts);
        RangeRouter { n, parts, chunk, recip: u64::MAX / chunk as u64 }
    }

    /// Number of partitions.
    #[inline]
    pub fn parts(&self) -> u32 {
        self.parts
    }

    /// Which partition owns node `v`: `min(⌊v / chunk⌋, parts − 1)`.
    #[inline]
    pub fn route(&self, v: NodeId) -> u32 {
        // ⌊v / chunk⌋ without dividing (module docs); ≤ v, so it fits.
        let q = (self.recip as u128 * (v as u128 + 1)) >> 64;
        (q as u32).min(self.parts - 1)
    }

    /// The `[start, end)` node range of partition `p`.
    pub fn part_range(&self, p: u32) -> (NodeId, NodeId) {
        // In u64: `(p + 1) * chunk` passes u32::MAX for the last parts of
        // a graph near the id limit.
        let bound = |p: u64| (p * self.chunk as u64).min(self.n as u64) as u32;
        (bound(p as u64), bound(p as u64 + 1))
    }
}

/// Maps nodes to partitions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Partitioner {
    /// Contiguous ranges of node ids: partition `p` owns
    /// `[p*ceil(n/parts), …)`. Preserves locality of id-clustered graphs.
    Range(RangeRouter),
    /// Multiplicative hash of the node id. Destroys locality, balances
    /// skewed id distributions.
    Hash {
        /// Number of partitions.
        parts: u32,
    },
}

impl Partitioner {
    /// A range partitioner over `n` nodes and `parts` partitions.
    pub fn range(n: u32, parts: u32) -> Self {
        Partitioner::Range(RangeRouter::new(n, parts))
    }

    /// A range partitioner over `n` nodes with **at most** `want` parts,
    /// capped so that every part owns at least one node: 4 parts of a
    /// 5-node graph become 3 parts of ⌈5/4⌉ = 2, 2 and 1 nodes rather
    /// than a fourth, empty one. The one shard-count rule shared by the
    /// sharded engine, the distributed coordinator and the store writer.
    pub fn range_nonempty(n: u32, want: u32) -> Self {
        assert!(want > 0, "need at least one partition");
        let chunk = chunk_size(n, want.min(n.max(1)));
        Partitioner::range(n, n.max(1).div_ceil(chunk))
    }

    /// A hash partitioner with `parts` partitions.
    pub fn hash(parts: u32) -> Self {
        assert!(parts > 0, "need at least one partition");
        Partitioner::Hash { parts }
    }

    /// Number of partitions.
    #[inline]
    pub fn parts(&self) -> u32 {
        match *self {
            Partitioner::Range(router) => router.parts,
            Partitioner::Hash { parts } => parts,
        }
    }

    /// Which partition owns node `v`.
    #[inline]
    pub fn owner(&self, v: NodeId) -> u32 {
        match *self {
            Partitioner::Range(router) => router.route(v),
            Partitioner::Hash { parts } => {
                // Fibonacci hashing: good avalanche for sequential ids.
                let h = (v as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                ((h >> 32) % parts as u64) as u32
            }
        }
    }

    /// For range partitioning, the `[start, end)` node range of partition
    /// `p`; hash partitioning has no contiguous range.
    pub fn range_of(&self, p: u32) -> Option<(NodeId, NodeId)> {
        match *self {
            Partitioner::Range(router) => Some(router.part_range(p)),
            Partitioner::Hash { .. } => None,
        }
    }
}

#[inline]
fn chunk_size(n: u32, parts: u32) -> u32 {
    n.div_ceil(parts).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_covers_all_nodes_exactly_once() {
        let p = Partitioner::range(10, 3);
        let mut counts = vec![0; 3];
        for v in 0..10 {
            counts[p.owner(v) as usize] += 1;
        }
        assert_eq!(counts.iter().sum::<u32>(), 10);
        // ceil(10/3)=4 -> partitions of size 4, 4, 2
        assert_eq!(counts, vec![4, 4, 2]);
    }

    #[test]
    fn range_of_matches_owner() {
        let p = Partitioner::range(100, 7);
        for part in 0..7 {
            let (s, e) = p.range_of(part).unwrap();
            for v in s..e {
                assert_eq!(p.owner(v), part);
            }
        }
    }

    /// The router's definition, with the division it no longer runs.
    fn owner_by_division(n: u32, parts: u32, v: u32) -> u32 {
        (v / chunk_size(n, parts)).min(parts - 1)
    }

    #[test]
    fn owner_equals_the_literal_division_on_every_tiling() {
        for n in [0u32, 1, 2, 5, 97, 512, 65_536, 1_000_003] {
            for parts in [1, 2, 3, 7, 64, n, n + 3] {
                if parts == 0 {
                    continue;
                }
                let p = Partitioner::range(n, parts);
                let stride = if n > 65_536 { 97 } else { 1 };
                let ids = (0..=n + 17).step_by(stride).chain([u32::MAX - 1, u32::MAX]);
                for v in ids {
                    assert_eq!(
                        p.owner(v),
                        owner_by_division(n, parts, v),
                        "n={n} parts={parts} v={v}"
                    );
                }
            }
        }
    }

    #[test]
    fn range_of_tiles_and_agrees_with_owner_at_the_id_limit() {
        // Regression: `(p + 1) * chunk` was computed in u32 — for
        // `n = u32::MAX, parts = 2` it panicked in debug builds and in
        // release wrapped the last part's range to `(2³¹, 0)`.
        for n in [u32::MAX, u32::MAX - 1] {
            for parts in [2u32, 3, 7] {
                let p = Partitioner::range(n, parts);
                let mut next = 0;
                for part in 0..parts {
                    let (s, e) = p.range_of(part).unwrap();
                    assert_eq!(s, next, "n={n} parts={parts} part={part}");
                    assert!(s < e, "n={n} parts={parts} part={part}");
                    assert_eq!((p.owner(s), p.owner(e - 1)), (part, part), "n={n} parts={parts}");
                    next = e;
                }
                assert_eq!(next, n, "n={n} parts={parts}");
                assert_eq!(p.owner(u32::MAX), parts - 1);
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn owner_equals_the_literal_division(
            n in proptest::any::<u32>(),
            parts in 1u32..u32::MAX,
            small_parts in 1u32..70_000,
            v in proptest::any::<u32>(),
        ) {
            // Chunks of every magnitude: huge part counts give chunk 1-2,
            // small ones chunks up to n.
            for parts in [parts, small_parts] {
                let p = Partitioner::range(n, parts);
                for v in [v, v % n.max(1), n.wrapping_sub(1), n] {
                    proptest::prop_assert_eq!(p.owner(v), owner_by_division(n, parts, v));
                }
            }
        }
    }

    #[test]
    fn range_handles_more_parts_than_nodes() {
        let p = Partitioner::range(2, 8);
        assert!(p.owner(0) < 8);
        assert!(p.owner(1) < 8);
        let total: u32 = (0..8).map(|part| p.range_of(part).map(|(s, e)| e - s).unwrap_or(0)).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn range_nonempty_leaves_no_part_empty() {
        // Regression: ceil-division range partitioning used to leave empty
        // trailing parts (4 parts of a 5-node graph -> [2, 2, 1, 0]).
        for (n, want) in [(5u32, 4u32), (7, 5), (9, 8), (3, 3), (100, 7), (3, 16), (5, 8)] {
            let p = Partitioner::range_nonempty(n, want);
            let parts = Partitioner::parts(&p);
            assert!(parts <= want, "n={n} want={want}");
            let owned: Vec<u32> =
                (0..parts).map(|q| p.range_of(q).map(|(s, e)| e - s).unwrap()).collect();
            assert!(owned.iter().all(|&c| c > 0), "n={n} want={want}: {owned:?}");
            assert_eq!(owned.iter().sum::<u32>(), n);
        }
        assert_eq!(Partitioner::range_nonempty(5, 4), Partitioner::range(5, 3));
        assert_eq!(Partitioner::range_nonempty(5, 8), Partitioner::range(5, 5));
        assert_eq!(Partitioner::range_nonempty(100, 4), Partitioner::range(100, 4));
    }

    #[test]
    fn hash_is_stable_and_in_range() {
        let p = Partitioner::hash(4);
        for v in 0..1000 {
            let o = p.owner(v);
            assert!(o < 4);
            assert_eq!(o, p.owner(v));
        }
    }

    #[test]
    fn hash_balances_sequential_ids() {
        let p = Partitioner::hash(8);
        let mut counts = vec![0u32; 8];
        for v in 0..80_000 {
            counts[p.owner(v) as usize] += 1;
        }
        for &c in &counts {
            assert!((c as i64 - 10_000).abs() < 1500, "imbalanced: {counts:?}");
        }
    }
}
