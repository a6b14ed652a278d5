//! Index persistence: the offline phase's output (`D`) saved to disk.
//!
//! Little-endian binary: magic `PASCODX1`, node count as `u64`, then the
//! diagonal values. The index is the *only* state the online phase needs
//! besides the graph, so this file is what a deployment would ship from the
//! preprocessing cluster to the query servers.

use crate::diag::DiagonalIndex;
use crate::error::SimRankError;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"PASCODX1";

/// Writes the index to `path`, atomically: it is written to the sibling
/// `<path>.tmp.<pid>`, made durable and renamed over `path`, so a failed
/// or killed save leaves the old index (or none) whole, never a torn one.
pub fn save_index(index: &DiagonalIndex, path: impl AsRef<Path>) -> Result<(), SimRankError> {
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    let saved = write_index(index, &tmp).and_then(|()| std::fs::rename(&tmp, path));
    if saved.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    Ok(saved?)
}

fn write_index(index: &DiagonalIndex, path: &Path) -> io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    w.write_all(MAGIC)?;
    w.write_all(&(index.len() as u64).to_le_bytes())?;
    for &v in index.as_slice() {
        w.write_all(&v.to_le_bytes())?;
    }
    w.into_inner().map_err(io::IntoInnerError::into_error)?.sync_all()
}

/// Reads an index written by [`save_index`].
pub fn load_index(path: impl AsRef<Path>) -> Result<DiagonalIndex, SimRankError> {
    let file = std::fs::File::open(path)?;
    let file_size = file.metadata()?.len();
    let mut r = BufReader::new(file);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(SimRankError::BadIndex(format!("bad magic {magic:?}, expected {MAGIC:?}")));
    }
    let mut len_buf = [0u8; 8];
    r.read_exact(&mut len_buf)?;
    // The length header is untrusted: an index of `n` values is exactly
    // 16 + 8n bytes, so a count the file cannot hold is a malformed
    // index, not an allocation size. (Same unbounded-preallocation class
    // `graph::io` caps — here the real file size pins `n` exactly.)
    let n64 = u64::from_le_bytes(len_buf);
    let expected = n64.checked_mul(8).and_then(|b| b.checked_add(16));
    if expected != Some(file_size) {
        return Err(SimRankError::BadIndex(format!(
            "length header claims {n64} values but the file has {file_size} bytes"
        )));
    }
    let n = n64 as usize;
    let mut x = Vec::with_capacity(n);
    let mut buf = [0u8; 8];
    for _ in 0..n {
        r.read_exact(&mut buf)?;
        let v = f64::from_le_bytes(buf);
        if !v.is_finite() {
            return Err(SimRankError::BadIndex("non-finite diagonal value".into()));
        }
        x.push(v);
    }
    Ok(DiagonalIndex::new(x))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let dir = std::env::temp_dir().join("pasco_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("d.idx");
        let index = DiagonalIndex::new(vec![0.4, 0.61, 0.99, 1.0 - 0.6]);
        save_index(&index, &path).unwrap();
        let back = load_index(&path).unwrap();
        assert_eq!(index, back);
    }

    #[test]
    fn save_replaces_whole_and_leaves_no_temp_sibling() {
        let dir = std::env::temp_dir().join("pasco_persist_test5");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let siblings = || {
            let mut names: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            names
        };
        let path = dir.join("d.idx");
        save_index(&DiagonalIndex::new(vec![0.5; 1_000]), &path).unwrap();
        // Over an existing, longer index: the new one reads back whole.
        let index = DiagonalIndex::new(vec![0.25; 10]);
        save_index(&index, &path).unwrap();
        assert_eq!(load_index(&path).unwrap(), index);
        assert_eq!(siblings(), ["d.idx"]);
        // A target that is a directory fails, and takes its temp file along.
        std::fs::create_dir(dir.join("taken")).unwrap();
        assert!(matches!(save_index(&index, dir.join("taken")), Err(SimRankError::Io(_))));
        assert_eq!(siblings(), ["d.idx", "taken"]);
    }

    #[test]
    fn rejects_bad_magic() {
        let dir = std::env::temp_dir().join("pasco_persist_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("junk.idx");
        std::fs::write(&path, b"NOTANIDXjunkjunkjunk").unwrap();
        assert!(matches!(load_index(&path), Err(SimRankError::BadIndex(_))));
    }

    #[test]
    fn rejects_truncated_file() {
        let dir = std::env::temp_dir().join("pasco_persist_test3");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("short.idx");
        let index = DiagonalIndex::new(vec![0.5; 10]);
        save_index(&index, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
        // Truncation makes the length header disagree with the file
        // size — caught before a single value is read or allocated.
        assert!(matches!(load_index(&path), Err(SimRankError::BadIndex(_))));
    }

    #[test]
    fn forged_length_header_is_rejected_without_allocating() {
        let dir = std::env::temp_dir().join("pasco_persist_test4");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("forged.idx");
        let index = DiagonalIndex::new(vec![0.5; 4]);
        save_index(&index, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Forge the count to u64::MAX: the file cannot hold it (and the
        // byte-size computation must not overflow), so load_index has to
        // refuse before `Vec::with_capacity` sees the forged number.
        bytes[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(load_index(&path), Err(SimRankError::BadIndex(_))));
        // A merely-inflated (non-overflowing) count is refused the same way.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..16].copy_from_slice(&(1u64 << 40).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(load_index(&path), Err(SimRankError::BadIndex(_))));
    }
}
