//! The order the exact forward stage's pull sweep visits nodes in. In node
//! order trip counts change from node to node and hubs are long serial add
//! chains: the sweep is bound by control flow, not memory. A [`SweepPlan`]
//! sorts each block's live nodes by in-degree, so trip counts repeat, and
//! marks the hubs the sweep sums four at a time. Each storage caches its
//! plan in a [`SweepPlanCell`], built by the first sweep, never by a build
//! or a store's open.

use crate::adjacency::WalkAdjacency;
use crate::csr::NodeId;
use std::ops::Range;
use std::sync::OnceLock;

/// Live nodes grouped by aligned blocks, each block's sorted by
/// `(in-degree, id)`: about 4 B a live node plus 8 B a block.
#[derive(Debug)]
pub struct SweepPlan {
    /// Node count of the adjacency planned.
    n: u32,
    /// The live nodes, block after block.
    nodes: Vec<NodeId>,
    /// Per block `[end, lanes]`: its nodes are `nodes[previous end..end]`,
    /// those from `lanes` on have more than `LANE_DEGREE` in-links.
    blocks: Vec<[u32; 2]>,
}

impl SweepPlan {
    /// Nodes per block. One sweep of rmat16 (seed 11, real series iterates,
    /// a 2-core Xeon): node order 1.49 ms, blocks of 256 to 4 096 nodes
    /// 0.80–0.88 ms, alike within drift; one block of all 65 536 nodes kept
    /// little (1.58 against 1.77 ms): `out` and the in-links must still be
    /// walked nearly in sequence.
    pub const BLOCK: u32 = 1024;

    /// In-degree above which a node is summed in a lane of four. Measured
    /// as [`SweepPlan::BLOCK`] was: thresholds from 0 to 32 ran within 4 %
    /// of each other (1.23–1.28 ms a sweep). 8 leaves the low-degree bulk
    /// (26 k of rmat16's 40 k live nodes) to plain chains.
    pub const LANE_DEGREE: usize = 8;

    /// The plan of `adj`: one pass to count the live nodes, then the arrays
    /// allocated at their final size, filled block by block through one
    /// 8 KB sort buffer (no large buffer is freed while building).
    pub fn build<A: WalkAdjacency + ?Sized>(adj: &A) -> SweepPlan {
        let n = adj.node_count();
        let degree = |v: NodeId| adj.in_neighbors(v).len();
        let live = (0..n).filter(|&v| degree(v) > 0).count();
        let mut nodes = Vec::with_capacity(live);
        let mut blocks = Vec::with_capacity(n.div_ceil(Self::BLOCK) as usize);
        let mut keys: Vec<u64> = Vec::with_capacity(Self::BLOCK as usize);
        for lo in (0..n).step_by(Self::BLOCK as usize) {
            let hi = lo.saturating_add(Self::BLOCK).min(n);
            keys.clear();
            keys.extend((lo..hi).filter_map(|v| {
                let d = degree(v) as u64;
                (d > 0).then_some(d << 32 | u64::from(v))
            }));
            keys.sort_unstable();
            let singles = keys.partition_point(|&k| k >> 32 <= Self::LANE_DEGREE as u64);
            let lanes = nodes.len() + singles;
            nodes.extend(keys.iter().map(|&k| k as NodeId));
            blocks.push([nodes.len() as u32, lanes as u32]);
        }
        SweepPlan { n, nodes, blocks }
    }

    /// The blocks that meet `range`, in node order, as the nodes a sweep
    /// sums one chain at a time and those past [`SweepPlan::LANE_DEGREE`]
    /// in-links it sums four at a time. A block the range cuts has no
    /// lanes; the sweep keeps those of its nodes that are in the range.
    pub fn blocks(
        &self,
        range: Range<NodeId>,
    ) -> impl Iterator<Item = (&[NodeId], &[NodeId])> + '_ {
        let first = (range.start / Self::BLOCK) as usize;
        let last = (range.end.div_ceil(Self::BLOCK) as usize).min(self.blocks.len());
        (first..last.max(first)).map(move |b| {
            let start = b.checked_sub(1).map_or(0, |p| self.blocks[p][0]) as usize;
            let [end, lanes] = self.blocks[b].map(|i| i as usize);
            let lo = b as u32 * Self::BLOCK;
            let hi = lo.saturating_add(Self::BLOCK).min(self.n);
            let nodes = &self.nodes[start..end];
            if range.start <= lo && hi <= range.end {
                nodes.split_at(lanes - start)
            } else {
                (nodes, &[][..])
            }
        })
    }
}

/// A storage's lazily built [`SweepPlan`]. It is a cache, not part of the
/// storage's value: every cell compares equal to every other, and a clone
/// starts empty.
#[derive(Debug, Default)]
pub struct SweepPlanCell(OnceLock<SweepPlan>);

impl SweepPlanCell {
    /// The plan of `adj`, built on the first call.
    pub fn get_or_build<A: WalkAdjacency + ?Sized>(&self, adj: &A) -> &SweepPlan {
        self.0.get_or_init(|| SweepPlan::build(adj))
    }

    /// The plan, if a sweep has built it.
    pub fn get(&self) -> Option<&SweepPlan> {
        self.0.get()
    }
}

impl Clone for SweepPlanCell {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl PartialEq for SweepPlanCell {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for SweepPlanCell {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrGraph;

    #[test]
    fn a_plan_sorts_each_block_by_in_degree_and_splits_off_its_lanes() {
        // Node 1 has 10 in-links, node 3 has 2, node 1 025 has 1, node 0
        // and the rest of the 1 030 nodes none.
        let mut edges: Vec<(NodeId, NodeId)> = (10..20).map(|u| (u, 1)).collect();
        edges.extend([(5, 3), (6, 3), (7, 1_025)]);
        let g = CsrGraph::from_edges(1_030, &edges);
        let plan = SweepPlan::build(&g);
        let none: &[NodeId] = &[];
        let blocks: Vec<_> = plan.blocks(0..1_030).collect();
        assert_eq!(blocks, [(&[3][..], &[1][..]), (&[1_025][..], none)]);
        let cut: Vec<_> = plan.blocks(2..1_026).collect();
        assert_eq!(cut, [(&[3, 1][..], none), (&[1_025][..], none)]);
        assert_eq!(plan.blocks(1_024..1_024).count(), 0);
        assert_eq!(plan.blocks(1_024..1_030).count(), 1);
    }

    #[test]
    fn a_cell_is_a_cache_not_a_value() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let fresh = g.clone();
        assert_eq!(WalkAdjacency::sweep_plan(&g).nodes, [1, 2]);
        assert!(g.plan.get().is_some());
        assert_eq!(g, fresh, "a built plan does not change equality");
        assert!(g.clone().plan.get().is_none(), "a clone starts empty");
    }
}
