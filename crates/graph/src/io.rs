//! Graph serialization: SNAP-style edge lists and a compact binary format.
//!
//! The binary format (`PASCOGR1`) stores both CSR directions verbatim so a
//! load is four `Vec` reads — the loader the paper's offline phase would use
//! between the preprocessing and query stages. [`read_in_links`] keeps only
//! the in-links the offline build walks. Both readers check lengths against
//! each other and the file size, offsets for monotonicity and ids against
//! `n`, so a malformed file is [`GraphError::BadFormat`], never a panic.

use crate::csr::{CsrGraph, InLinks, NodeId};
use crate::error::GraphError;
use crate::GraphBuilder;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"PASCOGR1";

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
///
/// # Errors
/// [`GraphError::BadFormat`] unless each side has `n + 1` monotone offsets
/// ending at its edge count and ids below `n`, both sides have the same
/// edge count, and no array runs past the end of the file.
pub fn read_binary(path: impl AsRef<Path>) -> Result<CsrGraph, GraphError> {
    let (n, [(out_offsets, out_targets), (in_offsets, in_sources)]) = read_sides(path, true)?;
    Ok(CsrGraph::from_parts(n, out_offsets, out_targets, in_offsets, in_sources))
}

/// [`read_binary`]'s in-link half ([`CsrGraph::into_in_links`]) without the
/// out side, whose ids stream past to be checked: the same files pass.
pub fn read_in_links(path: impl AsRef<Path>) -> Result<InLinks, GraphError> {
    let (n, [_, (offsets, sources)]) = read_sides(path, false)?;
    Ok(InLinks { n, offsets, sources, plan: Default::default() })
}

/// Values decoded per read.
const CHUNK: usize = 8192;

/// A file's node count and both its sides, checked, as `(offsets, ids)`:
/// out, whose ids are kept only when `keep_out`, then in.
type Sides = (u32, [(Vec<u64>, Vec<NodeId>); 2]);

fn read_sides(path: impl AsRef<Path>, keep_out: bool) -> Result<Sides, GraphError> {
    let file = std::fs::File::open(path)?;
    let mut input = Input { left: file.metadata()?.len(), r: BufReader::new(file) };
    let mut magic = [0u8; 8];
    input.read(&mut magic)?;
    if &magic != MAGIC {
        return Err(GraphError::BadFormat(format!("bad magic {magic:?}, expected {MAGIC:?}")));
    }
    let n = input.u64()?;
    let n = u32::try_from(n)
        .map_err(|_| GraphError::BadFormat(format!("node count {n} exceeds u32")))?;
    let mut side = |name: &str, keep: bool| {
        let len = input.len(name, 8)?;
        let mut offsets = Vec::with_capacity(len);
        input.chunks(len, u64::from_le_bytes, |c| offsets.extend_from_slice(c))?;
        let len = input.len(name, 4)?;
        let (mut ids, mut max) = (Vec::with_capacity(if keep { len } else { 0 }), None);
        input.chunks(len, u32::from_le_bytes, |c| {
            max = max.max(c.iter().max().copied());
            if keep {
                ids.extend_from_slice(c);
            }
        })?;
        let fault = if offsets.len() != n as usize + 1 {
            format!("offsets: {} for {n} nodes", offsets.len())
        } else if let Some(v) = offsets.windows(2).position(|w| w[0] > w[1]) {
            format!("offsets are not monotone at node {v}")
        } else if offsets.last() != Some(&(len as u64)) {
            format!("offsets end at {:?}, not at its {len} ids", offsets.last())
        } else if let Some(id) = max.filter(|&id| id >= n) {
            format!("neighbour id {id} is not below {n} nodes")
        } else {
            return Ok((offsets, ids, len));
        };
        Err(GraphError::BadFormat(format!("{name}-side {fault}")))
    };
    let (out_offsets, out_ids, out_len) = side("out", keep_out)?;
    let (in_offsets, in_ids, in_len) = side("in", true)?;
    if out_len != in_len {
        return Err(GraphError::BadFormat(format!("{out_len} out-edges but {in_len} in-edges")));
    }
    Ok((n, [(out_offsets, out_ids), (in_offsets, in_ids)]))
}

/// A `PASCOGR1` file read front to back with the count of its unread bytes,
/// which every read and length prefix is checked against first: a cut-short
/// file or an overlong prefix is [`GraphError::BadFormat`], never a read or
/// allocation past the end.
struct Input {
    r: BufReader<std::fs::File>,
    left: u64,
}

impl Input {
    fn read(&mut self, buf: &mut [u8]) -> Result<(), GraphError> {
        let left = self.left.checked_sub(buf.len() as u64);
        self.left = left.ok_or_else(|| GraphError::BadFormat("the file is cut short".into()))?;
        Ok(self.r.read_exact(buf)?)
    }

    fn u64(&mut self) -> Result<u64, GraphError> {
        let mut b = [0u8; 8];
        self.read(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// The length prefix of an array of `width`-byte values on side `name`,
    /// which must fit in the rest of the file.
    fn len(&mut self, name: &str, width: u64) -> Result<usize, GraphError> {
        let len = self.u64()?;
        let fits = len.checked_mul(width).is_some_and(|bytes| bytes <= self.left);
        let overrun =
            || GraphError::BadFormat(format!("{name}-side array of {len} overruns the file"));
        fits.then_some(len as usize).ok_or_else(overrun)
    }

    /// `len` values of `W` bytes each, decoded by `from` and handed to
    /// `sink` a chunk at a time.
    fn chunks<const W: usize, T>(
        &mut self,
        len: usize,
        from: impl Fn([u8; W]) -> T,
        mut sink: impl FnMut(&[T]),
    ) -> Result<(), GraphError> {
        let (mut bytes, mut values) = (vec![0u8; CHUNK * W], Vec::with_capacity(CHUNK));
        for done in (0..len).step_by(CHUNK) {
            let bytes = &mut bytes[..(len - done).min(CHUNK) * W];
            self.read(bytes)?;
            values.clear();
            values.extend(bytes.as_chunks::<W>().0.iter().map(|&word| from(word)));
            sink(&values);
        }
        Ok(())
    }
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

    /// A `PASCOGR1` image of raw arrays, as [`write_binary`] lays them out.
    fn image(n: u64, out: (&[u64], &[u32]), ins: (&[u64], &[u32])) -> Vec<u8> {
        let mut w = MAGIC.to_vec();
        write_u64(&mut w, n).unwrap();
        for (offsets, ids) in [out, ins] {
            write_u64_slice(&mut w, offsets).unwrap();
            write_u32_slice(&mut w, ids).unwrap();
        }
        w
    }

    fn at(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("pasco_io_test_shapes");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn in_links_are_read_binarys_in_side() {
        let graphs = [
            ("rmat", generators::rmat(10, 5000, generators::RmatParams::default(), 11)),
            ("ba", generators::barabasi_albert(300, 3, 5)),
            ("isolated", CsrGraph::from_edges(12, &[(2, 5), (5, 2), (9, 9)])),
            ("n1", CsrGraph::from_edges(1, &[(0, 0)])),
            ("m0", CsrGraph::from_edges(4, &[])),
        ];
        let dir = std::env::temp_dir().join("pasco_io_test_in_links");
        std::fs::create_dir_all(&dir).unwrap();
        for (name, g) in graphs {
            let path = dir.join(format!("{name}.bin"));
            write_binary(&g, &path).unwrap();
            let full = read_binary(&path).unwrap();
            assert_eq!(full, g, "{name}");
            assert_eq!(read_in_links(&path).unwrap(), full.into_in_links(), "{name}");
        }
    }

    #[test]
    fn both_readers_refuse_malformed_files_typed() {
        let ok = image(3, (&[0, 1, 2, 2], &[1, 2]), (&[0, 0, 1, 2], &[0, 1]));
        assert!(read_binary(at("ok.bin", &ok)).is_ok());
        let mut shapes = vec![
            ("edge counts", image(3, (&[0, 1, 2, 2], &[1, 2]), (&[0, 0, 1, 1], &[0]))),
            ("in id", image(3, (&[0, 1, 2, 2], &[1, 2]), (&[0, 0, 1, 2], &[0, 7]))),
            ("out id", image(3, (&[0, 1, 2, 2], &[1, 9]), (&[0, 0, 1, 2], &[0, 1]))),
            ("out offsets", image(3, (&[0, 2, 1, 2], &[1, 2]), (&[0, 0, 1, 2], &[0, 1]))),
            ("in offsets", image(3, (&[0, 1, 2, 2], &[1, 2]), (&[0, 2, 1, 2], &[0, 1]))),
            ("offset count", image(3, (&[0, 1, 2], &[1, 2]), (&[0, 0, 1, 2], &[0, 1]))),
            ("offset end", image(3, (&[0, 1, 1, 1], &[1, 2]), (&[0, 0, 1, 2], &[0, 1]))),
            ("node count", image(1 << 32, (&[0], &[]), (&[0], &[]))),
        ];
        // The out-ids' length prefix, claiming far more than the file holds.
        let mut past_end = ok.clone();
        past_end[56..64].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        shapes.push(("past the end", past_end));
        for cut in 0..ok.len() {
            shapes.push(("truncated", ok[..cut].to_vec()));
        }
        for (k, (name, bytes)) in shapes.iter().enumerate() {
            let path = at(&format!("bad{k}.bin"), bytes);
            let full = read_binary(&path).map(drop);
            let half = read_in_links(&path).map(drop);
            for got in [full, half] {
                assert!(matches!(got, Err(GraphError::BadFormat(_))), "{name} #{k}: {got:?}");
            }
        }
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
