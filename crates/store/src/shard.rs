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
//! hands the resolved views to [`PartSlices`], the one accessor body of
//! every partitioned storage — a store directory, a worker's wire images
//! and the RDD model's partitions all hold
//! their partitions as shards. Its offsets and cumulative weights are the
//! resident graph's, sampled through the same
//! [`pasco_graph::sampling::pick_weighted`], which is what makes walks over
//! any of them bit-identical to walks over the resident graph.

use crate::format::{
    ShardHeader, StoreError, HEADER_LEN, SECTION_COUNT, SECTION_NAMES, SEC_DIAG, SEC_IN_OFFSETS,
    SEC_IN_SOURCES, SEC_OUT_CUM, SEC_OUT_OFFSETS, SEC_OUT_TARGETS, SEC_OUT_TOTAL,
};
use crate::sys::{Mmap, Sections};
use pasco_graph::adjacency::ForwardSampler;
use pasco_graph::csr::NodeId;
use pasco_graph::sampling::pick_weighted;
use std::fs::File;
use std::ops::Range;
use std::path::Path;

/// The arrays of one range partition, borrowed from a shard's resolved
/// sections: the one body of the four per-step lookups. Every partitioned
/// storage holds [`MappedShard`]s, so they all execute the same
/// instructions by construction.
///
/// Layout contract: for `count` owned nodes `start..start + count`, both
/// offset arrays have `count + 1` monotone entries ending at their
/// adjacency array's length, `out_cum` parallels `out_targets`,
/// `out_total` has `count` entries. The owned
/// range is read off those lengths, which makes every lookup total in
/// `v`: a node outside it has no neighbours and no outflow.
#[derive(Clone, Copy, Debug)]
struct PartSlices<'a> {
    /// First owned node id.
    start: NodeId,
    /// In-adjacency CSR offsets, local to the partition.
    in_offsets: &'a [u64],
    /// In-adjacency source ids (global).
    in_sources: &'a [NodeId],
    /// Out-adjacency CSR offsets, local to the partition.
    out_offsets: &'a [u64],
    /// Out-adjacency target ids (global).
    out_targets: &'a [NodeId],
    /// Per-out-edge cumulative reverse-chain weights.
    out_cum: &'a [f64],
    /// Per-owned-node total outflow `W_k`.
    out_total: &'a [f64],
}

impl<'a> PartSlices<'a> {
    // `inline(always)`: the 13-word struct must dissolve into the caller's
    // registers — left to the inliner's discretion, `sample_out` stayed a
    // call and every forward step spilled and reloaded all of it.

    /// `v`'s index in the partition; wraps past every length for `v < start`.
    #[inline(always)]
    fn local(&self, v: NodeId) -> usize {
        v.wrapping_sub(self.start) as usize
    }

    /// The local index and CSR span of `v` in `offsets`, when owned: an
    /// offset array is one longer than the owned range, so the first `get`
    /// is the ownership test and both bounds checks at once.
    #[inline(always)]
    fn span(&self, offsets: &[u64], v: NodeId) -> Option<(usize, Range<usize>)> {
        let l = self.local(v);
        let hi = *offsets.get(l + 1)?;
        Some((l, offsets[l] as usize..hi as usize))
    }

    /// In-neighbours of `v` (global ids).
    #[inline(always)]
    fn in_neighbors(&self, v: NodeId) -> &'a [NodeId] {
        self.span(self.in_offsets, v).map_or(&[], |(_, span)| &self.in_sources[span])
    }

    /// Out-neighbours of `v` (global ids).
    #[inline(always)]
    fn out_neighbors(&self, v: NodeId) -> &'a [NodeId] {
        self.span(self.out_offsets, v).map_or(&[], |(_, span)| &self.out_targets[span])
    }

    /// Total reverse-chain outflow `W_v`.
    #[inline(always)]
    fn outflow(&self, v: NodeId) -> f64 {
        self.out_total.get(self.local(v)).copied().unwrap_or(0.0)
    }

    /// Samples an out-neighbour of `v` with probability `∝ 1/|In(j)|`
    /// given uniform `r ∈ [0,1)`; `None` when `v` has no out-edges.
    #[inline(always)]
    fn sample_out(&self, v: NodeId, r: f64) -> Option<NodeId> {
        let (l, span) = self.span(self.out_offsets, v)?;
        pick_weighted(&self.out_targets[span.clone()], &self.out_cum[span], self.out_total[l], r)
    }
}

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
    fn slices(&self) -> PartSlices<'_> {
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

/// One shard samples for the nodes it owns — the RDD model steps a walker
/// on the partition its position was shuffled to.
impl ForwardSampler for MappedShard {
    #[inline]
    fn outflow(&self, v: NodeId) -> f64 {
        MappedShard::outflow(self, v)
    }

    #[inline]
    fn sample_out(&self, v: NodeId, r: f64) -> Option<NodeId> {
        MappedShard::sample_out(self, v, r)
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
    use pasco_graph::{generators, ReverseChainIndex};

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pasco_store_shard_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn mapped_shard_matches_the_partition_it_was_written_from() {
        let g = generators::barabasi_albert(300, 4, 7);
        let rci = ReverseChainIndex::build(&g);
        let n = g.node_count();
        let diag: Vec<f64> = (0..n).map(|v| 0.5 + v as f64 / n as f64).collect();
        let dir = scratch("match");
        let mut w = StoreWriter::create(&dir, n, 3).unwrap();
        let ranges = [(0, 100), (100, 200), (200, 300)];
        for (i, &(start, end)) in ranges.iter().enumerate() {
            w.write_partition(i as u32, &g, &diag[start as usize..end as usize]).unwrap();
        }
        w.finish().unwrap();

        // Each shard twice: the file mapped, and its bytes as an image.
        let both = ranges.iter().enumerate().flat_map(|(i, &range)| {
            let path = dir.join(shard_file_name(i as u32));
            let image = std::fs::read(&path).unwrap();
            let shards: [MappedShard; 2] =
                [MappedShard::open(path).unwrap(), MappedShard::from_bytes(&image).unwrap()];
            shards.map(|shard| (range, shard, image.len() as u64))
        });
        for ((start, end), shard, image_len) in both {
            let shard: MappedShard = shard;
            assert_eq!(shard.mapped_bytes(), image_len);
            shard.verify().unwrap();
            assert_eq!((shard.start(), shard.end()), (start, end));
            assert_eq!(shard.diag(), &diag[start as usize..end as usize]);
            for v in start..end {
                assert_eq!(shard.in_neighbors(v), g.in_neighbors(v), "in {v}");
                assert_eq!(shard.out_neighbors(v), g.out_neighbors(v), "out {v}");
                assert_eq!(shard.outflow(v).to_bits(), rci.outflow(v).to_bits(), "W {v}");
                for r in [0.0, 0.25, 0.63, 0.999] {
                    assert_eq!(shard.sample_out(v, r), rci.sample(&g, v, r), "sample {v} {r}");
                }
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
