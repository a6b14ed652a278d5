//! Graph serialization: SNAP-style edge lists and a compact binary format.
//!
//! The binary format (`PASCOGR1`) stores both CSR directions verbatim so a
//! load is four `Vec` reads — the loader the paper's offline phase would use
//! between the preprocessing and query stages.

use crate::csr::{CsrGraph, NodeId};
use crate::error::GraphError;
use crate::GraphBuilder;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"PASCOGR1";

/// Preallocation ceiling for length-prefixed vectors (1M elements, 8 MiB
/// of `u64`). A corrupt header must not pick the allocation size: reads
/// are incremental, so a huge declared length just hits EOF instead of
/// reserving the declared amount up front.
const PREALLOC_CAP: usize = 1 << 20;

/// Reads a whitespace-separated edge list (`u v` per line). Lines starting
/// with `#` or `%` are comments; blank lines are skipped.
pub fn read_edge_list(path: impl AsRef<Path>) -> Result<CsrGraph, GraphError> {
    let file = std::fs::File::open(path)?;
    read_edge_list_from(BufReader::new(file))
}

/// [`read_edge_list`] over any reader, for in-memory inputs and tests.
pub fn read_edge_list_from(reader: impl BufRead) -> Result<CsrGraph, GraphError> {
    let mut b = GraphBuilder::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut it = line.split_whitespace();
        let parse = |tok: Option<&str>, idx: usize| -> Result<NodeId, GraphError> {
            tok.ok_or_else(|| GraphError::Parse {
                line: idx + 1,
                msg: "expected two node ids".into(),
            })?
            .parse::<NodeId>()
            .map_err(|e| GraphError::Parse { line: idx + 1, msg: e.to_string() })
        };
        let u = parse(it.next(), idx)?;
        let v = parse(it.next(), idx)?;
        if it.next().is_some() {
            return Err(GraphError::Parse {
                line: idx + 1,
                msg: "trailing tokens after edge".into(),
            });
        }
        b.add_edge(u, v);
    }
    Ok(b.build())
}

/// Writes the graph as a `u v` edge list with a descriptive header comment.
pub fn write_edge_list(graph: &CsrGraph, path: impl AsRef<Path>) -> Result<(), GraphError> {
    let file = std::fs::File::create(path)?;
    let mut w = BufWriter::new(file);
    writeln!(w, "# pasco edge list: {} nodes, {} edges", graph.node_count(), graph.edge_count())?;
    for (u, v) in graph.edges() {
        writeln!(w, "{u} {v}")?;
    }
    w.flush()?;
    Ok(())
}

fn write_u64(w: &mut impl Write, x: u64) -> std::io::Result<()> {
    w.write_all(&x.to_le_bytes())
}

fn read_u64(r: &mut impl Read) -> std::io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

fn write_u64_slice(w: &mut impl Write, xs: &[u64]) -> std::io::Result<()> {
    write_u64(w, xs.len() as u64)?;
    for &x in xs {
        write_u64(w, x)?;
    }
    Ok(())
}

fn write_u32_slice(w: &mut impl Write, xs: &[u32]) -> std::io::Result<()> {
    write_u64(w, xs.len() as u64)?;
    // Chunked conversion keeps the write buffered without a full copy.
    let mut buf = Vec::with_capacity(4 * 8192);
    for chunk in xs.chunks(8192) {
        buf.clear();
        for &x in chunk {
            buf.extend_from_slice(&x.to_le_bytes());
        }
        w.write_all(&buf)?;
    }
    Ok(())
}

fn read_u64_vec(r: &mut impl Read) -> std::io::Result<Vec<u64>> {
    let len = read_u64(r)? as usize;
    let mut out = Vec::with_capacity(len.min(PREALLOC_CAP));
    for _ in 0..len {
        out.push(read_u64(r)?);
    }
    Ok(out)
}

fn read_u32_vec(r: &mut impl Read) -> std::io::Result<Vec<u32>> {
    let len = read_u64(r)? as usize;
    let mut out = Vec::with_capacity(len.min(PREALLOC_CAP));
    let mut buf = vec![0u8; 4 * 8192];
    let mut remaining = len;
    while remaining > 0 {
        let take = remaining.min(8192);
        let bytes = &mut buf[..take * 4];
        r.read_exact(bytes)?;
        for c in bytes.chunks_exact(4) {
            out.push(u32::from_le_bytes([c[0], c[1], c[2], c[3]]));
        }
        remaining -= take;
    }
    Ok(out)
}

/// Writes the compact binary CSR format.
pub fn write_binary(graph: &CsrGraph, path: impl AsRef<Path>) -> Result<(), GraphError> {
    let file = std::fs::File::create(path)?;
    let mut w = BufWriter::new(file);
    w.write_all(MAGIC)?;
    write_u64(&mut w, graph.node_count() as u64)?;
    write_u64_slice(&mut w, graph.out_offsets())?;
    write_u32_slice(&mut w, graph.out_targets())?;
    write_u64_slice(&mut w, graph.in_offsets())?;
    write_u32_slice(&mut w, graph.in_sources())?;
    w.flush()?;
    Ok(())
}

/// Reads the compact binary CSR format written by [`write_binary`].
pub fn read_binary(path: impl AsRef<Path>) -> Result<CsrGraph, GraphError> {
    let file = std::fs::File::open(path)?;
    let mut r = BufReader::new(file);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(GraphError::BadFormat(format!("bad magic {:?}, expected {:?}", magic, MAGIC)));
    }
    let n = read_u64(&mut r)?;
    if n > u32::MAX as u64 {
        return Err(GraphError::BadFormat(format!("node count {n} exceeds u32")));
    }
    let out_offsets = read_u64_vec(&mut r)?;
    let out_targets = read_u32_vec(&mut r)?;
    let in_offsets = read_u64_vec(&mut r)?;
    let in_sources = read_u32_vec(&mut r)?;
    if out_offsets.len() != n as usize + 1 || in_offsets.len() != n as usize + 1 {
        return Err(GraphError::BadFormat("offset array length mismatch".into()));
    }
    if out_offsets.last() != Some(&(out_targets.len() as u64))
        || in_offsets.last() != Some(&(in_sources.len() as u64))
    {
        return Err(GraphError::BadFormat("edge array length mismatch".into()));
    }
    Ok(CsrGraph::from_parts(n as u32, out_offsets, out_targets, in_offsets, in_sources))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use std::io::Cursor;

    #[test]
    fn edge_list_roundtrip() {
        let g = generators::erdos_renyi(50, 200, 4);
        let dir = std::env::temp_dir().join("pasco_io_test_el");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        write_edge_list(&g, &path).unwrap();
        let g2 = read_edge_list(&path).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn edge_list_parses_comments_and_blanks() {
        let text = "# comment\n% also comment\n\n0 1\n1 2\n";
        let g = read_edge_list_from(Cursor::new(text)).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn edge_list_rejects_garbage() {
        let err = read_edge_list_from(Cursor::new("0 x\n")).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
        let err = read_edge_list_from(Cursor::new("0\n")).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
        let err = read_edge_list_from(Cursor::new("0 1 2\n")).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn binary_roundtrip() {
        let g = generators::rmat(10, 5000, generators::RmatParams::default(), 11);
        let dir = std::env::temp_dir().join("pasco_io_test_bin");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.bin");
        write_binary(&g, &path).unwrap();
        let g2 = read_binary(&path).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let dir = std::env::temp_dir().join("pasco_io_test_magic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.bin");
        std::fs::write(&path, b"NOTAPGRF-and-some-junk").unwrap();
        assert!(matches!(read_binary(&path), Err(GraphError::BadFormat(_))));
    }
}
