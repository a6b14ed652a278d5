//! Node partitioning schemes used by the RDD execution mode.
//!
//! The paper's RDD implementation stores the graph as a partitioned dataset;
//! a walker whose next node lives on another partition must be shuffled
//! there. The partitioner must therefore be computable by *every* worker in
//! O(1) without global state — these are.

use crate::csr::NodeId;

/// Maps nodes to partitions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Partitioner {
    /// Contiguous ranges of node ids: partition `p` owns
    /// `[p*ceil(n/parts), …)`. Preserves locality of id-clustered graphs.
    Range {
        /// Total node count.
        n: u32,
        /// Number of partitions.
        parts: u32,
    },
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
        assert!(parts > 0, "need at least one partition");
        Partitioner::Range { n, parts }
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
            Partitioner::Range { parts, .. } | Partitioner::Hash { parts } => parts,
        }
    }

    /// Which partition owns node `v`.
    #[inline]
    pub fn owner(&self, v: NodeId) -> u32 {
        match *self {
            Partitioner::Range { n, parts } => {
                let chunk = chunk_size(n, parts);
                (v / chunk).min(parts - 1)
            }
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
            Partitioner::Range { n, parts } => {
                let chunk = chunk_size(n, parts);
                let start = p * chunk;
                let end = ((p + 1) * chunk).min(n);
                Some((start.min(n), end))
            }
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
