//! Writing `PASCOSH1` images: one per range partition of a graph, into a
//! store directory or any other seekable sink.
//!
//! [`write_partition`] is the one serialisation of a partition, and the
//! only partitioned form of a graph there is: it streams the seven sections
//! straight out of the [`CsrGraph`]'s node range through a fixed-size chunk
//! buffer (no in-memory copy of the partition), hashing the payload as it
//! goes, then back-patches the finished header. [`StoreWriter`] points it
//! at files — written to a dot-temp name and renamed into place, so a
//! crashed save never leaves a half-written file that
//! [`crate::MappedStore::open`] could mistake for a shard;
//! [`partition_image`] points it at a `Vec<u8>`, the graph-only image the
//! distributed coordinator ships as a `LoadPartition` frame and
//! [`crate::MappedStore::of_graph`] serves in process.

use crate::format::{align_up, Fnv1a, Section, ShardHeader, StoreError, HEADER_LEN};
use pasco_graph::csr::{CsrGraph, NodeId};
use pasco_graph::partition::Partitioner;
use std::fs::File;
use std::io::{BufWriter, Cursor, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// The file name of shard `part_index` inside a store directory.
pub fn shard_file_name(part_index: u32) -> String {
    format!("shard-{part_index:05}.pasco")
}

/// Writes a complete store directory for `graph`: range-partitions it
/// into at most `parts` shards (the same
/// [`Partitioner::range_nonempty`] the distributed coordinator uses, so every
/// reader routes identically and no shard file is ever empty), slices
/// `diag` per-partition, and writes one shard file each.
pub fn write_store(
    dir: impl AsRef<Path>,
    graph: &CsrGraph,
    diag: &[f64],
    parts: u32,
) -> Result<(), StoreError> {
    let n = graph.node_count();
    if diag.len() != n as usize {
        return Err(StoreError::BadLayout(format!(
            "diagonal has {} entries for a {n}-node graph",
            diag.len()
        )));
    }
    if parts == 0 {
        return Err(StoreError::BadLayout("a store needs at least one shard".into()));
    }
    let partitioner: Partitioner = Partitioner::range_nonempty(n, parts);
    let mut writer = StoreWriter::create(dir, n, partitioner.parts())?;
    for p in 0..partitioner.parts() {
        let (start, end) = part_range(graph, &partitioner, p)?;
        writer.write_partition(p, graph, &diag[start as usize..end as usize])?;
    }
    writer.finish()
}

/// Streams partitions into a store directory, one shard file per
/// partition. Every partition of the store must be written before
/// [`StoreWriter::finish`] — a reader requires the ranges to tile
/// `[0, n)` exactly.
pub struct StoreWriter {
    dir: PathBuf,
    partitioner: Partitioner,
    written: Vec<bool>,
}

impl StoreWriter {
    /// Prepares `dir` for a store of `parts` shards over an `n`-node
    /// graph: creates the directory and removes any stale shard files
    /// and temp files from a previous save (a partially overwritten store
    /// must never mix generations).
    pub fn create(dir: impl AsRef<Path>, n: u32, parts: u32) -> Result<Self, StoreError> {
        if parts == 0 {
            return Err(StoreError::BadLayout("a store needs at least one shard".into()));
        }
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let shard = |name: &str| name.starts_with("shard-") && name.ends_with(".pasco");
            let tmp = name.strip_prefix('.').and_then(|name| name.strip_suffix(".tmp"));
            if shard(&name) || tmp.is_some_and(shard) {
                std::fs::remove_file(entry.path())?;
            }
        }
        let partitioner = Partitioner::range(n, parts);
        Ok(StoreWriter { dir, partitioner, written: vec![false; parts as usize] })
    }

    /// Writes partition `part_index` of `graph` as its shard file — the
    /// image [`write_partition`] streams, made durable and renamed into
    /// place. A failed write removes its temp file.
    pub fn write_partition(
        &mut self,
        part_index: u32,
        graph: &CsrGraph,
        diag: &[f64],
    ) -> Result<PathBuf, StoreError> {
        let final_path = self.dir.join(shard_file_name(part_index));
        let tmp_path = self.dir.join(format!(".{}.tmp", shard_file_name(part_index)));
        let written = File::create(&tmp_path).map_err(StoreError::from).and_then(|file| {
            let mut w = BufWriter::new(file);
            write_partition(&mut w, graph, &self.partitioner, part_index, diag)?;
            let file = w.into_inner().map_err(|e| StoreError::Io(e.into_error()))?;
            file.sync_all()?;
            drop(file);
            Ok(std::fs::rename(&tmp_path, &final_path)?)
        });
        if written.is_err() {
            let _ = std::fs::remove_file(&tmp_path);
        }
        written?;
        self.written[part_index as usize] = true;
        Ok(final_path)
    }

    /// Completes the save, failing if any partition was never written.
    pub fn finish(self) -> Result<(), StoreError> {
        for (p, done) in self.written.iter().enumerate() {
            if !done {
                return Err(StoreError::BadLayout(format!("partition {p} was never written")));
            }
        }
        Ok(())
    }
}

/// The graph-only `PASCOSH1` image of part `part_index`, in memory: what
/// the distributed coordinator ships in a `LoadPartition` frame before any
/// index exists.
pub fn partition_image(
    graph: &CsrGraph,
    partitioner: &Partitioner,
    part_index: u32,
) -> Result<Vec<u8>, StoreError> {
    let mut image = Cursor::new(Vec::new());
    write_partition(&mut image, graph, partitioner, part_index, &[])?;
    Ok(image.into_inner())
}

/// The `[start, end)` node range `partitioner` assigns part `part_index`
/// of `graph`, or why it cannot lay out a store: readers route lookups by
/// recomputing [`Partitioner::range`] from a header's `(n, parts)`, so
/// only a partitioner over the graph's own node count can write a shard.
fn part_range(
    graph: &CsrGraph,
    partitioner: &Partitioner,
    part_index: u32,
) -> Result<(NodeId, NodeId), StoreError> {
    let (n, parts) = (graph.node_count(), partitioner.parts());
    if part_index >= parts {
        return Err(StoreError::BadLayout(format!(
            "part index {part_index} out of range (parts {parts})"
        )));
    }
    if *partitioner != Partitioner::range(n, parts) {
        return Err(StoreError::BadLayout(format!(
            "the partitioner is not over the graph's {n} nodes"
        )));
    }
    Ok(partitioner.range_of(part_index))
}

/// Streams the `PASCOSH1` image of part `part_index` of `graph`, as the
/// range `partitioner` cuts it, into `sink`, which must stand at its start
/// (the header is back-patched at offset 0 once the payload checksum is
/// known): a temp file for a store directory, a `Cursor<Vec<u8>>` for a
/// `LoadPartition` frame — the same bytes either way. `diag` holds one
/// diagonal entry per owned node, or none at all for a graph-only image.
/// The reverse-chain weights are summed per node in out-edge order, as
/// [`pasco_graph::ReverseChainIndex::build`] sums them, so a shard samples
/// bit for bit like the resident graph.
pub fn write_partition<W: Write + Seek>(
    sink: &mut W,
    graph: &CsrGraph,
    partitioner: &Partitioner,
    part_index: u32,
    diag: &[f64],
) -> Result<(), StoreError> {
    let (start, end) = part_range(graph, partitioner, part_index)?;
    let count = (end - start) as usize;
    if !diag.is_empty() && diag.len() != count {
        return Err(StoreError::BadLayout(format!(
            "diagonal slice has {} entries for a {count}-node partition",
            diag.len()
        )));
    }
    let (lo, hi) = (start as usize, end as usize + 1);
    let (in_offsets, out_offsets) = (&graph.in_offsets()[lo..hi], &graph.out_offsets()[lo..hi]);
    let (in_base, out_base) = (in_offsets[0], out_offsets[0]);
    let in_sources = &graph.in_sources()[in_base as usize..in_offsets[count] as usize];
    let out_targets = &graph.out_targets()[out_base as usize..out_offsets[count] as usize];
    let cum = |v: NodeId| {
        graph.out_neighbors(v).iter().scan(0.0, |acc, &j| {
            *acc += 1.0 / graph.in_degree(j) as f64;
            Some(*acc)
        })
    };

    // Header placeholder; the real header is back-patched once the
    // payload checksum is known.
    sink.write_all(&[0u8; HEADER_LEN])?;
    let mut payload =
        Payload { sink, hasher: Fnv1a::new(), at: HEADER_LEN as u64, buf: Vec::new() };
    let sections = [
        payload.section(in_offsets.iter().map(|&o| o - in_base), u64::to_le_bytes)?,
        payload.section(in_sources.iter().copied(), u32::to_le_bytes)?,
        payload.section(out_offsets.iter().map(|&o| o - out_base), u64::to_le_bytes)?,
        payload.section(out_targets.iter().copied(), u32::to_le_bytes)?,
        payload.section((start..end).flat_map(cum), f64::to_le_bytes)?,
        payload.section((start..end).map(|v| cum(v).last().unwrap_or(0.0)), f64::to_le_bytes)?,
        payload.section(diag.iter().copied(), f64::to_le_bytes)?,
    ];
    let header = ShardHeader {
        part_index,
        parts: partitioner.parts(),
        start,
        end,
        n: u64::from(graph.node_count()),
        in_edges: in_sources.len() as u64,
        out_edges: out_targets.len() as u64,
        sections,
        payload_checksum: payload.hasher.finish(),
    };
    sink.seek(SeekFrom::Start(0))?;
    sink.write_all(&header.encode())?;
    Ok(())
}

/// Bytes the chunk buffer below collects before it writes.
const CHUNK_BYTES: usize = 64 << 10;

/// The payload of an image in the making: every byte after the header
/// goes through here, so it is hashed and counted exactly once.
struct Payload<'a, W> {
    sink: &'a mut W,
    hasher: Fnv1a,
    /// Offset of the next byte from the start of the image.
    at: u64,
    /// The chunk buffer, reused across sections.
    buf: Vec<u8>,
}

impl<W: Write> Payload<'_, W> {
    /// Pads to the next 8-byte boundary, then streams `xs` little-endian
    /// through the fixed-size chunk buffer; answers where the section
    /// landed.
    fn section<T, const B: usize>(
        &mut self,
        xs: impl IntoIterator<Item = T>,
        to_le: impl Fn(T) -> [u8; B],
    ) -> Result<Section, StoreError> {
        let offset = align_up(self.at);
        self.buf.resize((offset - self.at) as usize, 0);
        for x in xs {
            self.buf.extend_from_slice(&to_le(x));
            if self.buf.len() >= CHUNK_BYTES {
                self.emit()?;
            }
        }
        self.emit()?;
        Ok(Section { offset, len: self.at - offset })
    }

    /// Hashes, writes, counts and empties the chunk buffer.
    fn emit(&mut self) -> Result<(), StoreError> {
        self.hasher.update(&self.buf);
        self.sink.write_all(&self.buf)?;
        self.at += self.buf.len() as u64;
        self.buf.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasco_graph::generators;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pasco_store_writer_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn the_image_in_memory_is_the_file_on_disk() {
        let g = generators::barabasi_albert(60, 3, 5);
        let diag: Vec<f64> = (0..60).map(|v| 0.5 + f64::from(v) / 128.0).collect();
        let dir = scratch("cursor");
        let p = Partitioner::range(60, 3);
        // With the diagonal (what `save-store` writes) and graph-only (what
        // the coordinator ships): one body, so the same bytes either way.
        for with_diag in [true, false] {
            let mut writer = StoreWriter::create(&dir, 60, 3).unwrap();
            for q in 0..3 {
                let slice = if with_diag { &diag[q as usize * 20..][..20] } else { &[] };
                let path = writer.write_partition(q, &g, slice).unwrap();
                let mut image = Cursor::new(Vec::new());
                write_partition(&mut image, &g, &p, q, slice).unwrap();
                let image = image.into_inner();
                assert_eq!(image, std::fs::read(path).unwrap(), "part {q}");
                if !with_diag {
                    assert_eq!(image, partition_image(&g, &p, q).unwrap(), "part {q}");
                }
            }
            writer.finish().unwrap();
        }
        // A slice that is neither whole nor absent, a part past the end and
        // a partitioner over another node count are refused before a byte
        // is written.
        for (p, q, slice) in
            [(p, 0, &diag[..3]), (p, 3, &[][..]), (Partitioner::range(61, 3), 0, &[][..])]
        {
            let mut image = Cursor::new(Vec::new());
            let err = write_partition(&mut image, &g, &p, q, slice);
            assert!(matches!(err, Err(StoreError::BadLayout(_))), "{p:?} part {q}");
            assert!(image.into_inner().is_empty());
        }
    }

    #[test]
    fn a_failed_shard_write_leaves_no_temp_file() {
        let g = generators::barabasi_albert(60, 3, 5);
        let dir = scratch("failed");
        let mut writer = StoreWriter::create(&dir, 60, 3).unwrap();
        let err = writer.write_partition(0, &g, &[0.5; 3]);
        assert!(matches!(err, Err(StoreError::BadLayout(_))), "{err:?}");
        let left: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert!(left.is_empty(), "a failed write left {left:?}");
        assert!(matches!(writer.finish(), Err(StoreError::BadLayout(_))));

        // A temp file a crashed save left behind is cleared with the stale
        // shards when the directory is prepared again.
        std::fs::write(dir.join(".shard-00001.pasco.tmp"), b"torn").unwrap();
        std::fs::write(dir.join("notes.tmp"), b"kept").unwrap();
        StoreWriter::create(&dir, 60, 3).unwrap();
        let left: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(left, ["notes.tmp"]);
    }
}
