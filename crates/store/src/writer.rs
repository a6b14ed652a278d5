//! Writing `PASCOSH1` images: one per partition, into a store directory
//! or any other seekable sink.
//!
//! [`write_partition`] is the one serialisation of a partition: it
//! streams a [`GraphPartition`]'s arrays through a fixed-size chunk
//! buffer (no second in-memory copy of the partition), hashing the
//! payload as it goes, then back-patches the finished header.
//! [`StoreWriter`] points it at files — written to a dot-temp name and
//! renamed into place, so a crashed save never leaves a half-written file
//! that [`crate::MappedStore::open`] could mistake for a shard; the
//! distributed coordinator points it at a `Cursor<Vec<u8>>` and ships the
//! bytes as a `LoadPartition` frame.

use crate::format::{align_up, Fnv1a, Section, ShardHeader, StoreError, HEADER_LEN};
use pasco_graph::csr::CsrGraph;
use pasco_graph::partition::Partitioner;
use pasco_graph::partitioned::{partition_graph, GraphPartition};
use std::fs::File;
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// The file name of shard `part_index` inside a store directory.
pub fn shard_file_name(part_index: u32) -> String {
    format!("shard-{part_index:05}.pasco")
}

/// Writes a complete store directory for `graph`: range-partitions it
/// into at most `parts` shards (the same
/// [`Partitioner::range_nonempty`] the sharded engine uses, so every
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
    let partitions = partition_graph(graph, &partitioner);
    let mut writer = StoreWriter::create(dir, n, partitioner.parts())?;
    for (p, part) in partitions.iter().enumerate() {
        let slice = &diag[part.start as usize..part.end as usize];
        writer.write_partition(p as u32, part, slice)?;
    }
    writer.finish()
}

/// Streams partitions into a store directory, one shard file per
/// partition. Every partition of the store must be written before
/// [`StoreWriter::finish`] — a reader requires the ranges to tile
/// `[0, n)` exactly.
pub struct StoreWriter {
    dir: PathBuf,
    n: u32,
    parts: u32,
    written: Vec<bool>,
}

impl StoreWriter {
    /// Prepares `dir` for a store of `parts` shards over an `n`-node
    /// graph: creates the directory and removes any stale shard files
    /// from a previous save (a partially overwritten store must never
    /// mix generations).
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
            if name.starts_with("shard-") && name.ends_with(".pasco") {
                std::fs::remove_file(entry.path())?;
            }
        }
        Ok(StoreWriter { dir, n, parts, written: vec![false; parts as usize] })
    }

    /// Writes partition `part_index` as its shard file — the image
    /// [`write_partition`] streams, made durable and renamed into place.
    pub fn write_partition(
        &mut self,
        part_index: u32,
        part: &GraphPartition,
        diag: &[f64],
    ) -> Result<PathBuf, StoreError> {
        let final_path = self.dir.join(shard_file_name(part_index));
        let tmp_path = self.dir.join(format!(".{}.tmp", shard_file_name(part_index)));
        let mut w = BufWriter::new(File::create(&tmp_path)?);
        write_partition(&mut w, (self.n, self.parts), part_index, part, diag)?;
        let file = w.into_inner().map_err(|e| StoreError::Io(e.into_error()))?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp_path, &final_path)?;
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

/// Streams the `PASCOSH1` image of partition `part_index` of an
/// `(n, parts)`-shaped store into `sink`, which must stand at its start
/// (the header is back-patched at offset 0 once the payload checksum is
/// known): a temp file for a store directory, a `Cursor<Vec<u8>>` for a
/// `LoadPartition` frame — the same bytes either way. The partition's
/// node range must be exactly what [`Partitioner::range`]`(n, parts)`
/// assigns to that index (readers route lookups by recomputing the
/// partitioner); `diag` holds one diagonal entry per owned node, or none
/// at all for a graph-only image.
pub fn write_partition<W: Write + Seek>(
    sink: &mut W,
    (n, parts): (u32, u32),
    part_index: u32,
    part: &GraphPartition,
    diag: &[f64],
) -> Result<(), StoreError> {
    if part_index >= parts {
        return Err(StoreError::BadLayout(format!(
            "part index {part_index} out of range (parts {parts})"
        )));
    }
    let expected = Partitioner::range(n, parts).range_of(part_index).unwrap_or((0, 0));
    if (part.start, part.end) != expected {
        return Err(StoreError::BadLayout(format!(
            "partition {part_index} covers [{}, {}) but the range partitioner assigns [{}, {})",
            part.start, part.end, expected.0, expected.1
        )));
    }
    if !diag.is_empty() && diag.len() != part.len() as usize {
        return Err(StoreError::BadLayout(format!(
            "diagonal slice has {} entries for a {}-node partition",
            diag.len(),
            part.len()
        )));
    }
    let (in_offsets, in_sources, out_offsets, out_targets, out_cum, out_total) = part.raw_arrays();

    // Header placeholder; the real header is back-patched once the
    // payload checksum is known.
    sink.write_all(&[0u8; HEADER_LEN])?;
    let mut payload =
        Payload { sink, hasher: Fnv1a::new(), at: HEADER_LEN as u64, buf: Vec::new() };
    let sections = [
        payload.section(in_offsets, u64::to_le_bytes)?,
        payload.section(in_sources, u32::to_le_bytes)?,
        payload.section(out_offsets, u64::to_le_bytes)?,
        payload.section(out_targets, u32::to_le_bytes)?,
        payload.section(out_cum, f64::to_le_bytes)?,
        payload.section(out_total, f64::to_le_bytes)?,
        payload.section(diag, f64::to_le_bytes)?,
    ];
    let header = ShardHeader {
        part_index,
        parts,
        start: part.start,
        end: part.end,
        n: n as u64,
        in_edges: in_sources.len() as u64,
        out_edges: out_targets.len() as u64,
        sections,
        payload_checksum: payload.hasher.finish(),
    };
    sink.seek(SeekFrom::Start(0))?;
    sink.write_all(&header.encode())?;
    Ok(())
}

/// Chunk size (in elements) of the streaming converter below.
const CHUNK: usize = 8192;

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
    /// through the fixed-size chunk buffer (no second in-memory copy of
    /// the partition); answers where the section landed.
    fn section<T: Copy, const B: usize>(
        &mut self,
        xs: &[T],
        to_le: impl Fn(T) -> [u8; B],
    ) -> Result<Section, StoreError> {
        let offset = align_up(self.at);
        self.buf.clear();
        self.buf.resize((offset - self.at) as usize, 0);
        self.emit()?;
        for chunk in xs.chunks(CHUNK) {
            self.buf.clear();
            chunk.iter().for_each(|&x| self.buf.extend_from_slice(&to_le(x)));
            self.emit()?;
        }
        Ok(Section { offset, len: self.at - offset })
    }

    /// Hashes, writes and counts the chunk buffer.
    fn emit(&mut self) -> Result<(), StoreError> {
        self.hasher.update(&self.buf);
        self.sink.write_all(&self.buf)?;
        self.at += self.buf.len() as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasco_graph::generators;
    use std::io::Cursor;

    #[test]
    fn the_image_in_memory_is_the_file_on_disk() {
        let g = generators::barabasi_albert(60, 3, 5);
        let diag: Vec<f64> = (0..60).map(|v| 0.5 + f64::from(v) / 128.0).collect();
        let dir = std::env::temp_dir().join("pasco_store_writer_cursor");
        let _ = std::fs::remove_dir_all(&dir);
        let parts = partition_graph(&g, &Partitioner::range(60, 3));
        // With the diagonal (what `save-store` writes) and graph-only (what
        // the coordinator ships): one body, so the same bytes either way.
        for with_diag in [true, false] {
            let mut writer = StoreWriter::create(&dir, 60, 3).unwrap();
            for (q, part) in parts.iter().enumerate() {
                let range = part.start as usize..part.end as usize;
                let slice = if with_diag { &diag[range] } else { &[] };
                let path = writer.write_partition(q as u32, part, slice).unwrap();
                let mut image = Cursor::new(Vec::new());
                write_partition(&mut image, (60, 3), q as u32, part, slice).unwrap();
                assert_eq!(image.into_inner(), std::fs::read(path).unwrap(), "part {q}");
            }
            writer.finish().unwrap();
        }
        // A slice that is neither whole nor absent is refused before a byte
        // is written.
        let mut image = Cursor::new(Vec::new());
        let err = write_partition(&mut image, (60, 3), 0, &parts[0], &diag[..3]);
        assert!(matches!(err, Err(StoreError::BadLayout(_))));
        assert!(image.into_inner().is_empty());
    }
}
