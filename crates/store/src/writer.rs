//! Writing a store directory: one `PASCOSH1` file per partition.
//!
//! [`StoreWriter`] streams each [`GraphPartition`]'s arrays through a
//! fixed-size chunk buffer (no second in-memory copy of the partition),
//! hashing the payload as it goes, then back-patches the finished
//! header. Files are written to a dot-temp name and renamed into place,
//! so a crashed save never leaves a half-written file that
//! [`crate::MappedStore::open`] could mistake for a shard.

use crate::format::{align_up, Fnv1a, Section, ShardHeader, StoreError, HEADER_LEN, SECTION_COUNT};
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

    /// Writes partition `part_index`. The partition's node range must be
    /// exactly what [`Partitioner::range`]`(n, parts)` assigns to that
    /// index (readers route lookups by recomputing the partitioner), and
    /// `diag` must hold one diagonal entry per owned node.
    pub fn write_partition(
        &mut self,
        part_index: u32,
        part: &GraphPartition,
        diag: &[f64],
    ) -> Result<PathBuf, StoreError> {
        if part_index >= self.parts {
            return Err(StoreError::BadLayout(format!(
                "part index {part_index} out of range (parts {})",
                self.parts
            )));
        }
        let partitioner = Partitioner::range(self.n, self.parts);
        let expected = partitioner.range_of(part_index).unwrap_or((0, 0));
        if (part.start, part.end) != expected {
            return Err(StoreError::BadLayout(format!(
                "partition {part_index} covers [{}, {}) but the range partitioner assigns [{}, {})",
                part.start, part.end, expected.0, expected.1
            )));
        }
        if diag.len() != part.len() as usize {
            return Err(StoreError::BadLayout(format!(
                "diagonal slice has {} entries for a {}-node partition",
                diag.len(),
                part.len()
            )));
        }
        let (in_offsets, in_sources, out_offsets, out_targets, out_cum, out_total) =
            part.raw_arrays();

        // Lay out the section table: cursor walks the file, aligning
        // each section start to 8 bytes.
        let byte_lens: [u64; SECTION_COUNT] = [
            in_offsets.len() as u64 * 8,
            in_sources.len() as u64 * 4,
            out_offsets.len() as u64 * 8,
            out_targets.len() as u64 * 4,
            out_cum.len() as u64 * 8,
            out_total.len() as u64 * 8,
            diag.len() as u64 * 8,
        ];
        let mut sections = [Section::default(); SECTION_COUNT];
        let mut cursor = HEADER_LEN as u64;
        for (i, len) in byte_lens.iter().enumerate() {
            cursor = align_up(cursor);
            sections[i] = Section { offset: cursor, len: *len };
            cursor += len;
        }

        let final_path = self.dir.join(shard_file_name(part_index));
        let tmp_path = self.dir.join(format!(".{}.tmp", shard_file_name(part_index)));
        let file = File::create(&tmp_path)?;
        let mut w = BufWriter::new(file);

        // Header placeholder; the real header is back-patched once the
        // payload checksum is known.
        w.write_all(&[0u8; HEADER_LEN])?;
        let mut hasher = Fnv1a::new();
        let mut at = HEADER_LEN as u64;
        let pad_to =
            |w: &mut BufWriter<File>, hasher: &mut Fnv1a, at: &mut u64| -> Result<(), StoreError> {
                let aligned = align_up(*at);
                if aligned > *at {
                    let pad = vec![0u8; (aligned - *at) as usize];
                    hasher.update(&pad);
                    w.write_all(&pad)?;
                    *at = aligned;
                }
                Ok(())
            };
        pad_to(&mut w, &mut hasher, &mut at)?;
        write_u64s(&mut w, &mut hasher, &mut at, in_offsets)?;
        pad_to(&mut w, &mut hasher, &mut at)?;
        write_u32s(&mut w, &mut hasher, &mut at, in_sources)?;
        pad_to(&mut w, &mut hasher, &mut at)?;
        write_u64s(&mut w, &mut hasher, &mut at, out_offsets)?;
        pad_to(&mut w, &mut hasher, &mut at)?;
        write_u32s(&mut w, &mut hasher, &mut at, out_targets)?;
        pad_to(&mut w, &mut hasher, &mut at)?;
        write_f64s(&mut w, &mut hasher, &mut at, out_cum)?;
        pad_to(&mut w, &mut hasher, &mut at)?;
        write_f64s(&mut w, &mut hasher, &mut at, out_total)?;
        pad_to(&mut w, &mut hasher, &mut at)?;
        write_f64s(&mut w, &mut hasher, &mut at, diag)?;
        debug_assert_eq!(at, cursor, "layout cursor and write cursor agree");

        let header = ShardHeader {
            part_index,
            parts: self.parts,
            start: part.start,
            end: part.end,
            n: self.n as u64,
            in_edges: in_sources.len() as u64,
            out_edges: out_targets.len() as u64,
            sections,
            payload_checksum: hasher.finish(),
        };
        w.flush()?;
        let mut file = w.into_inner().map_err(|e| StoreError::Io(e.into_error()))?;
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&header.encode())?;
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

/// Chunk size (in elements) for the streaming converters below.
const CHUNK: usize = 8192;

fn write_u64s(
    w: &mut impl Write,
    hasher: &mut Fnv1a,
    at: &mut u64,
    xs: &[u64],
) -> Result<(), StoreError> {
    let mut buf = Vec::with_capacity(8 * CHUNK.min(xs.len().max(1)));
    for chunk in xs.chunks(CHUNK) {
        buf.clear();
        for &x in chunk {
            buf.extend_from_slice(&x.to_le_bytes());
        }
        hasher.update(&buf);
        w.write_all(&buf)?;
        *at += buf.len() as u64;
    }
    Ok(())
}

fn write_u32s(
    w: &mut impl Write,
    hasher: &mut Fnv1a,
    at: &mut u64,
    xs: &[u32],
) -> Result<(), StoreError> {
    let mut buf = Vec::with_capacity(4 * CHUNK.min(xs.len().max(1)));
    for chunk in xs.chunks(CHUNK) {
        buf.clear();
        for &x in chunk {
            buf.extend_from_slice(&x.to_le_bytes());
        }
        hasher.update(&buf);
        w.write_all(&buf)?;
        *at += buf.len() as u64;
    }
    Ok(())
}

fn write_f64s(
    w: &mut impl Write,
    hasher: &mut Fnv1a,
    at: &mut u64,
    xs: &[f64],
) -> Result<(), StoreError> {
    let mut buf = Vec::with_capacity(8 * CHUNK.min(xs.len().max(1)));
    for chunk in xs.chunks(CHUNK) {
        buf.clear();
        for &x in chunk {
            buf.extend_from_slice(&x.to_le_bytes());
        }
        hasher.update(&buf);
        w.write_all(&buf)?;
        *at += buf.len() as u64;
    }
    Ok(())
}
