//! A whole shard set as one routed adjacency view.
//!
//! [`MappedStore::open`] maps every `shard-*.pasco` file in a directory
//! ([`MappedStore::from_shards`] takes shards already mapped — a worker's
//! wire images — and runs the same cross-check), checks that the shards
//! agree on shape and tile `[0, n)`
//! exactly the way [`Partitioner::range`] would (readers recompute the
//! partitioner, so the tiling *is* the routing table), and then serves
//! the [`pasco_graph::adjacency`] traits by routing each lookup to the
//! owning shard — the mmap'd twin of
//! [`pasco_graph::partitioned::PartitionedView`]. Because the walk and
//! MCSS kernels are generic over those traits, an engine driven by a
//! `MappedStore` takes bit-identical trajectories to one driven by the
//! resident graph.
//!
//! Everything a lookup needs is fixed at open: the [`RangeRouter`] (its
//! chunk size and reciprocal — a step routes with one multiply, no
//! division) and each shard's resolved sections. Open itself stays
//! `O(headers + spines)` per shard and touches no payload page.

use crate::format::{ShardHeader, StoreError};
use crate::shard::MappedShard;
use crate::writer::shard_file_name;
use pasco_graph::adjacency::{ForwardSampler, WalkAdjacency};
use pasco_graph::csr::NodeId;
use pasco_graph::partition::{Partitioner, RangeRouter};
use std::path::{Path, PathBuf};

/// Every shard of a store, mapped and routed.
pub struct MappedStore {
    shards: Vec<MappedShard>,
    router: RangeRouter,
    n: u32,
    dir: PathBuf,
}

impl MappedStore {
    /// Maps every shard in `dir` and validates the directory as a
    /// whole: at least one shard, file names the contiguous set
    /// `0..parts`, and the set itself as [`MappedStore::from_shards`]
    /// checks it.
    pub fn open(dir: impl AsRef<Path>) -> Result<MappedStore, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        let mut paths: Vec<PathBuf> = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("shard-") && name.ends_with(".pasco") {
                paths.push(entry.path());
            }
        }
        paths.sort();
        if paths.is_empty() {
            return Err(StoreError::BadLayout(format!(
                "no shard-*.pasco files in {}",
                dir.display()
            )));
        }
        let mut shards = Vec::with_capacity(paths.len());
        for (i, path) in paths.iter().enumerate() {
            if !path.ends_with(shard_file_name(i as u32)) {
                return Err(StoreError::BadLayout(format!(
                    "{} where {} belongs — shard files must be the contiguous set 0..parts",
                    path.display(),
                    shard_file_name(i as u32)
                )));
            }
            shards.push(MappedShard::open(path)?);
        }
        Ok(MappedStore { dir, ..Self::from_shards(shards)? })
    }

    /// Assembles shards that are already mapped — files or wire images —
    /// into one routed store, validating the set as a whole: at least one
    /// shard, all headers agreeing on `(n, parts)`, shard `i` holding part
    /// `i` and covering exactly the node range [`Partitioner::range`]
    /// assigns it, and all (non-empty) shards agreeing on whether they
    /// carry a diagonal slice.
    pub fn from_shards(shards: Vec<MappedShard>) -> Result<MappedStore, StoreError> {
        let Some(first) = shards.first() else {
            return Err(StoreError::BadLayout("a store needs at least one shard".into()));
        };
        let ShardHeader { n: n64, parts, .. } = *MappedShard::header(first);
        if shards.len() != parts as usize {
            return Err(StoreError::BadLayout(format!(
                "{} shards present but headers declare {parts} parts",
                shards.len()
            )));
        }
        // Validated per-shard: n fits u32.
        let n = n64 as u32;
        let router = RangeRouter::new(n, parts);
        let mut graph_only = None;
        for (i, shard) in shards.iter().enumerate() {
            let h: &ShardHeader = MappedShard::header(shard);
            if h.parts != parts || h.n != n64 {
                return Err(StoreError::BadLayout(format!(
                    "shard {i} declares shape ({}, {} parts), other shards ({n64}, {parts} parts)",
                    h.n, h.parts
                )));
            }
            if h.part_index != i as u32 {
                return Err(StoreError::BadLayout(format!(
                    "shard {i} holds part {} — a store is the contiguous set 0..parts",
                    h.part_index
                )));
            }
            let expected = router.part_range(i as u32);
            if (h.start, h.end) != expected {
                return Err(StoreError::BadLayout(format!(
                    "part {i} covers [{}, {}) but range partitioning of {n} nodes into \
                     {parts} parts assigns [{}, {})",
                    h.start, h.end, expected.0, expected.1
                )));
            }
            // A shard that owns no node has an empty slice either way.
            if !shard.is_empty()
                && *graph_only.get_or_insert(shard.diag().is_empty()) != shard.diag().is_empty()
            {
                return Err(StoreError::BadLayout(format!(
                    "shard {i} disagrees with the shards before it on carrying a diagonal slice"
                )));
            }
        }
        Ok(MappedStore { shards, router, n, dir: PathBuf::new() })
    }

    /// The directory this store was opened from; empty for a store
    /// assembled by [`MappedStore::from_shards`].
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Total node count across all shards.
    pub fn node_count(&self) -> u32 {
        self.n
    }

    /// Number of shards (= partitions = files).
    pub fn parts(&self) -> u32 {
        self.router.parts()
    }

    /// The shards, in partition order.
    pub fn shards(&self) -> &[MappedShard] {
        &self.shards
    }

    /// The partitioner that routes nodes to shards — identical to the
    /// one the in-memory sharded engine builds for the same `(n,
    /// parts)`.
    pub fn partitioner(&self) -> Partitioner {
        Partitioner::Range(self.router)
    }

    /// The shard owning node `v`.
    #[inline]
    pub fn shard_of(&self, v: NodeId) -> &MappedShard {
        // Range owners are always < parts (the partitioner clamps), and
        // open checked one shard per slot.
        &self.shards[self.router.route(v) as usize]
    }

    /// Concatenates the per-shard diagonal slices back into the full
    /// diagonal index, in node order — empty for a graph-only store.
    /// Grows from the mapped slices themselves, so a forged header cannot
    /// pick the allocation size.
    pub fn compose_diag(&self) -> Vec<f64> {
        let mut diag = Vec::new();
        for shard in &self.shards {
            diag.extend_from_slice(shard.diag());
        }
        diag
    }

    /// Total bytes of file mapped across all shards (page in lazily).
    pub fn mapped_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.mapped_bytes()).sum()
    }

    /// Total out-edge count across all shards, as declared by the
    /// validated headers.
    pub fn edge_count(&self) -> u64 {
        self.shards.iter().map(|s| s.header().out_edges).sum()
    }

    /// Verifies every shard's payload checksum — `O(total file bytes)`.
    pub fn verify(&self) -> Result<(), StoreError> {
        self.shards.iter().try_for_each(MappedShard::verify)
    }
}

impl std::fmt::Debug for MappedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedStore")
            .field("dir", &self.dir)
            .field("nodes", &self.n)
            .field("parts", &self.parts())
            .field("mapped_bytes", &self.mapped_bytes())
            .finish()
    }
}

impl WalkAdjacency for MappedStore {
    #[inline]
    fn node_count(&self) -> u32 {
        self.n
    }

    #[inline]
    fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.shard_of(v).in_neighbors(v)
    }
}

impl ForwardSampler for MappedStore {
    #[inline]
    fn outflow(&self, v: NodeId) -> f64 {
        self.shard_of(v).outflow(v)
    }

    #[inline]
    fn sample_out(&self, v: NodeId, r: f64) -> Option<NodeId> {
        self.shard_of(v).sample_out(v, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::write_store;
    use pasco_graph::generators;
    use pasco_graph::partitioned::{partition_graph, PartitionedView};
    use std::sync::Arc;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pasco_store_dir_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn store_routes_identically_to_a_partitioned_view() {
        let g = generators::rmat(9, 4_000, generators::RmatParams::default(), 8);
        let n = g.node_count();
        let diag: Vec<f64> = (0..n).map(|v| 1.0 / (1.0 + v as f64)).collect();
        for parts in [1u32, 2, 4] {
            let dir = scratch(&format!("route_{parts}"));
            write_store(&dir, &g, &diag, parts).unwrap();
            let store = MappedStore::open(&dir).unwrap();
            store.verify().unwrap();
            assert_eq!(store.node_count(), n);
            assert_eq!(store.parts(), parts);
            let p = Partitioner::range(n, parts);
            let view = PartitionedView::new(Arc::new(partition_graph(&g, &p)), p);
            for v in (0..n).step_by(13) {
                assert_eq!(WalkAdjacency::in_neighbors(&store, v), view.in_neighbors(v), "in {v}");
                assert_eq!(
                    ForwardSampler::outflow(&store, v).to_bits(),
                    view.outflow(v).to_bits(),
                    "W {v}"
                );
                for r in [0.0, 0.42, 0.999] {
                    assert_eq!(
                        ForwardSampler::sample_out(&store, v, r),
                        view.sample_out(v, r),
                        "sample {v} {r}"
                    );
                }
            }
            assert_eq!(store.compose_diag(), diag);
            assert_eq!(ForwardSampler::sample_out(&store, v_out_of_range(n), 0.5), None);
            assert_eq!(ForwardSampler::outflow(&store, v_out_of_range(n)), 0.0);
        }
    }

    // Out-of-range lookups must stay total (routing clamps, shard
    // answers empty) — walkers can only reach valid ids on an intact
    // store, but a corrupt payload must degrade to garbage answers,
    // never a panic.
    fn v_out_of_range(n: u32) -> u32 {
        n.saturating_add(17)
    }

    #[test]
    fn open_rejects_empty_and_inconsistent_directories() {
        let dir = scratch("empty");
        assert!(matches!(MappedStore::open(&dir), Err(StoreError::BadLayout(_))));

        // A store written at 3 parts with one file deleted must fail
        // the contiguity check.
        let g = generators::barabasi_albert(120, 3, 5);
        let diag = vec![1.0; 120];
        let dir = scratch("holey");
        write_store(&dir, &g, &diag, 3).unwrap();
        std::fs::remove_file(dir.join(shard_file_name(1))).unwrap();
        assert!(matches!(MappedStore::open(&dir), Err(StoreError::BadLayout(_))));

        // Mixing shards from stores of different shapes must fail too.
        let dir_a = scratch("mix_a");
        let dir_b = scratch("mix_b");
        write_store(&dir_a, &g, &diag, 2).unwrap();
        write_store(&dir_b, &g, &diag, 3).unwrap();
        std::fs::copy(dir_b.join(shard_file_name(1)), dir_a.join(shard_file_name(1))).unwrap();
        assert!(matches!(MappedStore::open(&dir_a), Err(StoreError::BadLayout(_))));
    }

    #[test]
    fn single_shard_store_is_the_whole_graph() {
        let g = generators::cycle(64);
        let diag = vec![0.75; 64];
        let dir = scratch("single");
        write_store(&dir, &g, &diag, 1).unwrap();
        let store = MappedStore::open(&dir).unwrap();
        assert_eq!(store.parts(), 1);
        for v in 0..64 {
            assert_eq!(WalkAdjacency::in_neighbors(&store, v), g.in_neighbors(v));
        }
    }
}
