//! One mapped shard image, used in place.
//!
//! A shard's bytes reach memory one of two ways — [`MappedShard::open`]
//! maps a file, [`MappedShard::from_bytes`] copies an image that arrived
//! over the wire into an anonymous mapping — and from there the two share
//! one tail: authenticate and validate the header, **resolve the seven
//! sections once** — each `(offset, len)` of the table goes through the
//! mapping's bounds and alignment check and is kept as a typed view next
//! to the mapping it was cut from ([`crate::sys::Sections`]; a refusal is
//! a typed [`StoreError`] from `open`, not a silently empty slice later) —
//! and check the two CSR offset *spines* (monotone, starting at 0, ending
//! at the edge counts).
//! That is `O(header + nodes-in-shard)` work which makes every subsequent
//! adjacency lookup provably in-bounds without touching a page of the
//! `O(edges)` payload: the edge arrays page in lazily on first access,
//! which is what makes restart O(1) in the graph's edge volume. Full
//! payload integrity (the FNV-1a checksum over every section byte) is an
//! explicit [`MappedShard::verify`] — tests and the CI round-trip job run
//! it; a serving restart does not have to, and neither does a worker
//! receiving an image (same contract: the transport's integrity is the
//! transport's business, the header checksum and the spines are checked).
//!
//! A lookup then costs what it costs in memory: [`MappedShard::slices`]
//! hands the resolved views to [`PartSlices`], the one accessor body
//! [`pasco_graph::partitioned::GraphPartition`] also runs (same offsets,
//! the same cumulative-weight `pick_weighted` sampling), which is what
//! makes walks over a mapped store bit-identical to walks over the
//! resident graph.

use crate::format::{
    ShardHeader, StoreError, HEADER_LEN, SECTION_COUNT, SECTION_NAMES, SEC_DIAG, SEC_IN_OFFSETS,
    SEC_IN_SOURCES, SEC_OUT_CUM, SEC_OUT_OFFSETS, SEC_OUT_TARGETS, SEC_OUT_TOTAL,
};
use crate::sys::{Mmap, Sections};
use pasco_graph::csr::NodeId;
use pasco_graph::partitioned::PartSlices;
use std::fs::File;
use std::path::Path;

/// A read-only graph partition served directly from its mapped image.
pub struct MappedShard {
    sections: Sections<SECTION_COUNT>,
    header: ShardHeader,
}

impl MappedShard {
    /// Maps and validates the shard at `path`.
    ///
    /// Open cost is the fixed-size header plus the two offset spines
    /// (`O(owned nodes)`); the edge payload is not touched. Every
    /// corruption this can detect is a typed [`StoreError`].
    pub fn open(path: impl AsRef<Path>) -> Result<MappedShard, StoreError> {
        Self::from_map(Mmap::map_readonly(&File::open(path)?)?)
    }

    /// Validates a shard image already in memory — byte for byte what
    /// [`crate::write_partition`] emits, i.e. the file `open` would map —
    /// exactly as [`MappedShard::open`] validates that file, and serves
    /// it from a private copy.
    pub fn from_bytes(image: &[u8]) -> Result<MappedShard, StoreError> {
        Self::from_map(Mmap::from_bytes(image)?)
    }

    /// The tail `open` and `from_bytes` share: everything after the bytes
    /// are mapped.
    fn from_map(map: Mmap) -> Result<MappedShard, StoreError> {
        let header = ShardHeader::from_bytes(map.as_bytes())?;
        header.validate(map.len() as u64)?;
        // `validate` proved the table against the file size in u64; the
        // mapping re-checks it against its own length and base address.
        let table = header.sections.map(|s| (s.offset as usize, s.len as usize));
        let sections = Sections::resolve(map, table).map_err(|sec| {
            let name = SECTION_NAMES[sec];
            StoreError::Corrupt(format!("section {name} does not lie aligned inside the mapping"))
        })?;
        let shard = MappedShard { sections, header };
        shard.check_spine(SEC_IN_OFFSETS, shard.header.in_edges, "in")?;
        shard.check_spine(SEC_OUT_OFFSETS, shard.header.out_edges, "out")?;
        // Walk lookups jump around the partition; readahead would only
        // evict pages the walk still needs.
        shard.sections.map().advise_random();
        Ok(shard)
    }

    /// An offset spine must start at 0, be monotone, and end at its
    /// adjacency section's element count — after this, slicing the
    /// adjacency arrays with spine values cannot go out of bounds.
    fn check_spine(&self, sec: usize, edges: u64, what: &str) -> Result<(), StoreError> {
        let spine = self.sections.u64s(sec);
        if spine.first() != Some(&0) {
            return Err(StoreError::Corrupt(format!("{what}-offsets spine does not start at 0")));
        }
        if spine.windows(2).any(|w| w[0] > w[1]) {
            return Err(StoreError::Corrupt(format!("{what}-offsets spine is not monotone")));
        }
        if spine.last() != Some(&edges) {
            return Err(StoreError::Corrupt(format!(
                "{what}-offsets spine ends at {:?}, expected the edge count {edges}",
                spine.last()
            )));
        }
        Ok(())
    }

    /// The validated header.
    pub fn header(&self) -> &ShardHeader {
        &self.header
    }

    /// First owned node id.
    pub fn start(&self) -> NodeId {
        self.header.start
    }

    /// One past the last owned node id.
    pub fn end(&self) -> NodeId {
        self.header.end
    }

    /// Number of owned nodes.
    pub fn len(&self) -> u32 {
        self.header.end - self.header.start
    }

    /// True when the shard owns no nodes.
    pub fn is_empty(&self) -> bool {
        self.header.start == self.header.end
    }

    /// True if this shard owns node `v`.
    #[inline]
    pub fn owns(&self, v: NodeId) -> bool {
        (self.header.start..self.header.end).contains(&v)
    }

    /// Bytes of image mapped (for a file not resident memory — pages
    /// materialise only as queries touch them).
    pub fn mapped_bytes(&self) -> u64 {
        self.sections.map().len() as u64
    }

    /// The adjacency sections as resolved at open, borrowed — every
    /// lookup below is [`PartSlices`]'s, total for nodes this shard does
    /// not own. The section lengths were tied to the node range and edge
    /// counts by `validate` and the spines checked at open, which is
    /// [`PartSlices`]'s layout contract.
    #[inline]
    pub fn slices(&self) -> PartSlices<'_> {
        PartSlices {
            start: self.header.start,
            in_offsets: self.sections.u64s(SEC_IN_OFFSETS),
            in_sources: self.sections.u32s(SEC_IN_SOURCES),
            out_offsets: self.sections.u64s(SEC_OUT_OFFSETS),
            out_targets: self.sections.u32s(SEC_OUT_TARGETS),
            out_cum: self.sections.f64s(SEC_OUT_CUM),
            out_total: self.sections.f64s(SEC_OUT_TOTAL),
        }
    }

    /// In-neighbours of owned node `v` (global ids); empty for nodes
    /// this shard does not own.
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.slices().in_neighbors(v)
    }

    /// Out-neighbours of owned node `v` (global ids); empty for nodes
    /// this shard does not own.
    #[inline]
    pub fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.slices().out_neighbors(v)
    }

    /// Total reverse-chain outflow `W_v` of owned node `v`; 0 for nodes
    /// this shard does not own.
    #[inline]
    pub fn outflow(&self, v: NodeId) -> f64 {
        self.slices().outflow(v)
    }

    /// Samples an out-neighbour of owned `v` with probability
    /// `∝ 1/|In(j)|` given uniform `r ∈ [0,1)`; `None` when `v` has no
    /// out-edges (or is not owned).
    #[inline]
    pub fn sample_out(&self, v: NodeId, r: f64) -> Option<NodeId> {
        self.slices().sample_out(v, r)
    }

    /// The partition's diagonal-index slice: one entry per owned node, or
    /// empty for a graph-only shard.
    pub fn diag(&self) -> &[f64] {
        self.sections.f64s(SEC_DIAG)
    }

    /// Verifies the payload checksum over every byte after the header —
    /// `O(file)`, the deep-integrity pass that open deliberately skips.
    pub fn verify(&self) -> Result<(), StoreError> {
        let map = self.sections.map();
        map.advise_willneed();
        // Validated: the file is at least HEADER_LEN long.
        let payload = map.as_bytes().get(HEADER_LEN..).unwrap_or(&[]);
        let actual = crate::format::fnv1a(payload);
        if actual != self.header.payload_checksum {
            return Err(StoreError::Checksum {
                kind: "payload",
                expected: self.header.payload_checksum,
                actual,
            });
        }
        Ok(())
    }
}

impl std::fmt::Debug for MappedShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedShard")
            .field("part_index", &self.header.part_index)
            .field("range", &(self.header.start..self.header.end))
            .field("mapped_bytes", &self.mapped_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{shard_file_name, StoreWriter};
    use pasco_graph::generators;
    use pasco_graph::partition::Partitioner;
    use pasco_graph::partitioned::partition_graph;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pasco_store_shard_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn mapped_shard_matches_the_partition_it_was_written_from() {
        let g = generators::barabasi_albert(300, 4, 7);
        let n = g.node_count();
        let p = Partitioner::range(n, 3);
        let parts = partition_graph(&g, &p);
        let diag: Vec<f64> = (0..n).map(|v| 0.5 + v as f64 / n as f64).collect();
        let dir = scratch("match");
        let mut w = StoreWriter::create(&dir, n, 3).unwrap();
        for (i, part) in parts.iter().enumerate() {
            w.write_partition(i as u32, part, &diag[part.start as usize..part.end as usize])
                .unwrap();
        }
        w.finish().unwrap();

        // Each shard twice: the file mapped, and its bytes as an image.
        let both = parts.iter().enumerate().flat_map(|(i, part)| {
            let path = dir.join(shard_file_name(i as u32));
            let image = std::fs::read(&path).unwrap();
            let shards: [MappedShard; 2] =
                [MappedShard::open(path).unwrap(), MappedShard::from_bytes(&image).unwrap()];
            shards.map(|shard| (part, shard, image.len() as u64))
        });
        for (part, shard, image_len) in both {
            let shard: MappedShard = shard;
            assert_eq!(shard.mapped_bytes(), image_len);
            shard.verify().unwrap();
            assert_eq!((shard.start(), shard.end()), (part.start, part.end));
            assert_eq!(shard.diag(), &diag[part.start as usize..part.end as usize]);
            for v in part.start..part.end {
                assert_eq!(shard.in_neighbors(v), part.in_neighbors(v), "in {v}");
                assert_eq!(shard.out_neighbors(v), part.out_neighbors(v), "out {v}");
                assert_eq!(shard.outflow(v).to_bits(), part.outflow(v).to_bits(), "W {v}");
                for r in [0.0, 0.25, 0.63, 0.999] {
                    assert_eq!(shard.sample_out(v, r), part.sample_out(v, r), "sample {v} {r}");
                }
            }
            // Unowned nodes answer deterministically, never panic.
            let outside = if part.start > 0 { 0 } else { part.end };
            if outside < n {
                assert_eq!(shard.in_neighbors(outside), &[] as &[u32]);
                assert_eq!(shard.sample_out(outside, 0.5), None);
                assert_eq!(shard.outflow(outside), 0.0);
            }
        }
    }

    #[test]
    fn open_is_typed_error_on_missing_file() {
        let dir = scratch("missing");
        match MappedShard::open(dir.join("shard-00000.pasco")) {
            Err(StoreError::Io(_)) => {}
            other => panic!("expected Io error, got {:?}", other.map(|_| ())),
        }
    }
}
