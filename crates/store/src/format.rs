//! The `PASCOSH1` on-disk shard format: a validated fixed-size header
//! followed by 8-byte-aligned little-endian sections.
//!
//! One image is one range partition of a graph — the in- and
//! out-adjacency of its nodes and their reverse-chain sampling weights —
//! plus, once an index exists, its diagonal-index slice. It is the only
//! partitioned form of a graph: the same bytes as a shard file on disk, a
//! `LoadPartition` frame on the wire and an in-process shard in memory,
//! laid out so the arrays can be used *in place* through a read-only
//! mapping: no decode, no copy, no allocation proportional to the graph:
//!
//! | offset | field | bytes |
//! |-------:|-------|------:|
//! | 0   | magic `PASCOSH1`            | 8  |
//! | 8   | version (`=1`)              | 4  |
//! | 12  | flags (`=0`)                | 4  |
//! | 16  | part_index                  | 4  |
//! | 20  | parts                       | 4  |
//! | 24  | start node id               | 4  |
//! | 28  | end node id (exclusive)     | 4  |
//! | 32  | total node count `n`        | 8  |
//! | 40  | in-edge count               | 8  |
//! | 48  | out-edge count              | 8  |
//! | 56  | section table: 7 × (offset, byte length) | 112 |
//! | 168 | payload checksum (FNV-1a 64 of everything after the header) | 8 |
//! | 176 | header checksum (FNV-1a 64 of bytes 0..176) | 8 |
//!
//! The seven sections, in file order: `in_offsets` (u64), `in_sources`
//! (u32), `out_offsets` (u64), `out_targets` (u32), `out_cum` (f64),
//! `out_total` (f64), `diag` (f64). The first six have exactly the length
//! the header's node and edge counts dictate; `diag` is `8·count` bytes or
//! **empty** — a *graph-only* shard, what a coordinator ships before any
//! index has been built. Every section offset is 8-byte aligned (mappings
//! are page-aligned, so aligned offsets give aligned pointers), sections
//! are in order and non-overlapping, and the file ends exactly where the
//! last section does.
//!
//! Header fields are **untrusted input**: a corrupt or hostile file must
//! produce a typed [`StoreError`], never a panic, an over-allocation, or
//! an out-of-bounds read. [`ShardHeader::validate`] is the choke point —
//! every field is range-checked against the actual file size (in checked
//! arithmetic) before anything derived from it touches the mapping.

use std::fmt;

/// File magic, first 8 bytes of every shard.
pub const MAGIC: [u8; 8] = *b"PASCOSH1";

/// Current format version.
pub const VERSION: u32 = 1;

/// Fixed header size in bytes; all sections start at or after this.
pub const HEADER_LEN: usize = 184;

/// Number of sections in the table.
pub const SECTION_COUNT: usize = 7;

/// Required alignment of every section offset.
pub const SECTION_ALIGN: u64 = 8;

/// Section indices into [`ShardHeader::sections`], in file order.
pub const SEC_IN_OFFSETS: usize = 0;
/// In-adjacency global source ids (u32).
pub const SEC_IN_SOURCES: usize = 1;
/// Out-adjacency local CSR offsets (u64).
pub const SEC_OUT_OFFSETS: usize = 2;
/// Out-adjacency global target ids (u32).
pub const SEC_OUT_TARGETS: usize = 3;
/// Per-out-edge cumulative reverse-chain weights (f64).
pub const SEC_OUT_CUM: usize = 4;
/// Per-owned-node total outflow `W_k` (f64).
pub const SEC_OUT_TOTAL: usize = 5;
/// The partition's diagonal-index slice (f64).
pub const SEC_DIAG: usize = 6;

/// Human-readable section names, indexed like the table.
pub const SECTION_NAMES: [&str; SECTION_COUNT] =
    ["in_offsets", "in_sources", "out_offsets", "out_targets", "out_cum", "out_total", "diag"];

/// Element size in bytes of each section, indexed like the table.
pub const SECTION_ELEM_BYTES: [u64; SECTION_COUNT] = [8, 4, 8, 4, 8, 8, 8];

/// Every way a shard file can be unusable, as a typed error. Corrupt or
/// hostile bytes must land in exactly one of these — never a panic and
/// never an allocation sized by an unvalidated header field.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem or mapping syscall failed.
    Io(std::io::Error),
    /// The file is shorter than a structure it claims to contain.
    Truncated {
        /// Bytes the structure needs.
        expected: u64,
        /// Bytes the file actually has.
        actual: u64,
    },
    /// The first 8 bytes are not [`MAGIC`].
    BadMagic([u8; 8]),
    /// The version field names a format this build does not speak.
    BadVersion(u32),
    /// A section offset violates the 8-byte alignment contract.
    Misaligned {
        /// Which section (from [`SECTION_NAMES`]).
        section: &'static str,
        /// The offending file offset.
        offset: u64,
    },
    /// A checksum mismatch: the bytes are not what was written.
    Checksum {
        /// `"header"` or `"payload"`.
        kind: &'static str,
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the bytes actually present.
        actual: u64,
    },
    /// A structural inconsistency in the header or the offset spines
    /// (ranges, counts, section table, monotonicity).
    Corrupt(String),
    /// The store *directory* is malformed: missing shards, inconsistent
    /// shapes across files, or ranges that do not tile `[0, n)`.
    BadLayout(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Truncated { expected, actual } => {
                write!(f, "store file truncated: need {expected} bytes, have {actual}")
            }
            StoreError::BadMagic(m) => write!(f, "bad store magic {m:?}, expected {MAGIC:?}"),
            StoreError::BadVersion(v) => {
                write!(f, "unsupported store version {v}, expected {VERSION}")
            }
            StoreError::Misaligned { section, offset } => {
                write!(f, "section {section} at offset {offset} violates 8-byte alignment")
            }
            StoreError::Checksum { kind, expected, actual } => {
                write!(f, "{kind} checksum mismatch: header says {expected:#018x}, bytes hash to {actual:#018x}")
            }
            StoreError::Corrupt(msg) => write!(f, "corrupt store file: {msg}"),
            StoreError::BadLayout(msg) => write!(f, "malformed store directory: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// One entry of the section table: where a section's bytes live.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Section {
    /// Byte offset from the start of the file (8-aligned, ≥ header).
    pub offset: u64,
    /// Byte length (an exact multiple of the section's element size).
    pub len: u64,
}

/// The decoded fixed-size shard header. Every field came from the file
/// and is untrusted until [`ShardHeader::validate`] has accepted it
/// against the real file size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardHeader {
    /// This shard's index in `0..parts`.
    pub part_index: u32,
    /// Total number of shards in the store.
    pub parts: u32,
    /// First owned node id.
    pub start: u32,
    /// One past the last owned node id.
    pub end: u32,
    /// Total node count of the whole graph (all shards).
    pub n: u64,
    /// Number of in-edges stored in this shard.
    pub in_edges: u64,
    /// Number of out-edges stored in this shard.
    pub out_edges: u64,
    /// The section table, indexed by the `SEC_*` constants.
    pub sections: [Section; SECTION_COUNT],
    /// FNV-1a 64 of every byte after the header (sections + padding).
    pub payload_checksum: u64,
}

impl ShardHeader {
    /// Number of nodes this shard owns. Meaningful once `start <= end`
    /// has been validated; saturates instead of wrapping before that.
    pub fn count(&self) -> u64 {
        (self.end as u64).saturating_sub(self.start as u64)
    }

    /// The byte length each section must have, given the node and edge
    /// counts in this header (`diag` may also be empty), or an error when
    /// a count is so large the size computation itself would overflow.
    pub fn expected_section_bytes(&self) -> Result<[u64; SECTION_COUNT], StoreError> {
        let count = self.count();
        let spine = count
            .checked_add(1)
            .and_then(|c| c.checked_mul(8))
            .ok_or_else(|| StoreError::Corrupt("node count overflows section size".into()))?;
        let mul = |elems: u64, bytes: u64, what: &str| {
            elems
                .checked_mul(bytes)
                .ok_or_else(|| StoreError::Corrupt(format!("{what} count overflows section size")))
        };
        Ok([
            spine,
            mul(self.in_edges, 4, "in-edge")?,
            spine,
            mul(self.out_edges, 4, "out-edge")?,
            mul(self.out_edges, 8, "out-edge")?,
            mul(count, 8, "node")?,
            mul(count, 8, "node")?,
        ])
    }

    /// Encodes the header, computing and embedding the header checksum.
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let mut buf = [0u8; HEADER_LEN];
        buf[0..8].copy_from_slice(&MAGIC);
        buf[8..12].copy_from_slice(&VERSION.to_le_bytes());
        buf[12..16].copy_from_slice(&0u32.to_le_bytes()); // flags
        buf[16..20].copy_from_slice(&self.part_index.to_le_bytes());
        buf[20..24].copy_from_slice(&self.parts.to_le_bytes());
        buf[24..28].copy_from_slice(&self.start.to_le_bytes());
        buf[28..32].copy_from_slice(&self.end.to_le_bytes());
        buf[32..40].copy_from_slice(&self.n.to_le_bytes());
        buf[40..48].copy_from_slice(&self.in_edges.to_le_bytes());
        buf[48..56].copy_from_slice(&self.out_edges.to_le_bytes());
        for (i, s) in self.sections.iter().enumerate() {
            let at = 56 + i * 16;
            buf[at..at + 8].copy_from_slice(&s.offset.to_le_bytes());
            buf[at + 8..at + 16].copy_from_slice(&s.len.to_le_bytes());
        }
        buf[168..176].copy_from_slice(&self.payload_checksum.to_le_bytes());
        let header_checksum = fnv1a(&buf[..176]);
        buf[176..184].copy_from_slice(&header_checksum.to_le_bytes());
        buf
    }

    /// Decodes and authenticates a header from the front of `buf`:
    /// magic, length, version, flags, and the header checksum. Field
    /// *values* are still untrusted — run [`ShardHeader::validate`]
    /// against the file size before deriving anything from them.
    pub fn from_bytes(buf: &[u8]) -> Result<ShardHeader, StoreError> {
        // Magic first, as soon as its bytes are there: bytes that are not
        // a shard at all (another file, another wire encoding) say so even
        // when they are also shorter than a header.
        if let Some(magic) = buf.first_chunk::<8>().filter(|magic| **magic != MAGIC) {
            return Err(StoreError::BadMagic(*magic));
        }
        if buf.len() < HEADER_LEN {
            return Err(StoreError::Truncated {
                expected: HEADER_LEN as u64,
                actual: buf.len() as u64,
            });
        }
        let u32_at =
            |at: usize| u32::from_le_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]]);
        let u64_at = |at: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&buf[at..at + 8]);
            u64::from_le_bytes(b)
        };
        let version = u32_at(8);
        if version != VERSION {
            return Err(StoreError::BadVersion(version));
        }
        let flags = u32_at(12);
        if flags != 0 {
            return Err(StoreError::Corrupt(format!("unknown flags {flags:#010x}")));
        }
        let expected = u64_at(176);
        let actual = fnv1a(&buf[..176]);
        if expected != actual {
            return Err(StoreError::Checksum { kind: "header", expected, actual });
        }
        let mut sections = [Section::default(); SECTION_COUNT];
        for (i, s) in sections.iter_mut().enumerate() {
            s.offset = u64_at(56 + i * 16);
            s.len = u64_at(56 + i * 16 + 8);
        }
        Ok(ShardHeader {
            part_index: u32_at(16),
            parts: u32_at(20),
            start: u32_at(24),
            end: u32_at(28),
            n: u64_at(32),
            in_edges: u64_at(40),
            out_edges: u64_at(48),
            sections,
            payload_checksum: u64_at(168),
        })
    }

    /// Structural validation against the real `file_size`: ranges,
    /// counts, and the section table (alignment, order, bounds, exact
    /// lengths, and that the file ends where the last section does).
    /// After this returns `Ok`, every `(offset, len)` in the table is
    /// known to lie inside the file — slicing the mapping with them
    /// cannot go out of bounds.
    pub fn validate(&self, file_size: u64) -> Result<(), StoreError> {
        if self.parts == 0 {
            return Err(StoreError::Corrupt("zero shard count".into()));
        }
        if self.part_index >= self.parts {
            return Err(StoreError::Corrupt(format!(
                "part index {} out of range (parts {})",
                self.part_index, self.parts
            )));
        }
        if self.n > u32::MAX as u64 {
            return Err(StoreError::Corrupt(format!("node count {} exceeds u32", self.n)));
        }
        if self.start > self.end {
            return Err(StoreError::Corrupt(format!(
                "inverted node range [{}, {})",
                self.start, self.end
            )));
        }
        if (self.end as u64) > self.n {
            return Err(StoreError::Corrupt(format!(
                "node range end {} exceeds node count {}",
                self.end, self.n
            )));
        }
        let expected = self.expected_section_bytes()?;
        let mut cursor = HEADER_LEN as u64;
        for i in 0..SECTION_COUNT {
            let sec = self.sections[i];
            let name = SECTION_NAMES[i];
            // A graph-only shard carries no diagonal: exactly 0 bytes.
            if sec.len != expected[i] && !(i == SEC_DIAG && sec.len == 0) {
                return Err(StoreError::Corrupt(format!(
                    "section {name} length {} does not match the header counts (expected {})",
                    sec.len, expected[i]
                )));
            }
            if !sec.offset.is_multiple_of(SECTION_ALIGN) {
                return Err(StoreError::Misaligned { section: name, offset: sec.offset });
            }
            if sec.offset < cursor {
                return Err(StoreError::Corrupt(format!(
                    "section {name} at {} overlaps the previous section (ends {cursor})",
                    sec.offset
                )));
            }
            // Padding between sections is only ever alignment fill.
            if sec.offset - cursor >= SECTION_ALIGN {
                return Err(StoreError::Corrupt(format!(
                    "section {name} at {} leaves a {}-byte gap",
                    sec.offset,
                    sec.offset - cursor
                )));
            }
            let end = sec
                .offset
                .checked_add(sec.len)
                .ok_or_else(|| StoreError::Corrupt(format!("section {name} extent overflows")))?;
            if end > file_size {
                return Err(StoreError::Truncated { expected: end, actual: file_size });
            }
            cursor = end;
        }
        // The last section is 8-byte elements, so `cursor` is aligned;
        // trailing bytes would be invisible to the section table.
        if cursor != file_size {
            return Err(StoreError::Corrupt(format!(
                "file has {} trailing bytes after the last section",
                file_size - cursor
            )));
        }
        Ok(())
    }
}

/// Rounds `at` up to the next [`SECTION_ALIGN`] boundary.
pub fn align_up(at: u64) -> u64 {
    at.div_ceil(SECTION_ALIGN) * SECTION_ALIGN
}

/// FNV-1a 64 over `bytes` — dependency-free, deterministic, and fast
/// enough to hash a full shard at write and verify time.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

/// Streaming FNV-1a 64 state, for hashing a payload as it is written.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// Fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }

    /// The digest of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> ShardHeader {
        // A consistent 3-node shard: 2 in-edges, 2 out-edges.
        let mut sections = [Section::default(); SECTION_COUNT];
        let lens = [32u64, 8, 32, 8, 16, 24, 24];
        let mut cursor = HEADER_LEN as u64;
        for (i, len) in lens.iter().enumerate() {
            cursor = align_up(cursor);
            sections[i] = Section { offset: cursor, len: *len };
            cursor += len;
        }
        ShardHeader {
            part_index: 0,
            parts: 2,
            start: 0,
            end: 3,
            n: 6,
            in_edges: 2,
            out_edges: 2,
            sections,
            payload_checksum: 0x1234,
        }
    }

    fn file_size(h: &ShardHeader) -> u64 {
        let last = h.sections[SECTION_COUNT - 1];
        last.offset + last.len
    }

    #[test]
    fn encode_decode_roundtrip() {
        let h = sample_header();
        let bytes = h.encode();
        let h2 = ShardHeader::from_bytes(&bytes).unwrap();
        assert_eq!(h, h2);
        h2.validate(file_size(&h)).unwrap();
    }

    #[test]
    fn fnv_matches_known_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn header_checksum_detects_a_flipped_bit() {
        let mut bytes = sample_header().encode();
        bytes[17] ^= 0x40; // part_index, covered by the header checksum
        assert!(matches!(
            ShardHeader::from_bytes(&bytes),
            Err(StoreError::Checksum { kind: "header", .. })
        ));
    }

    #[test]
    fn rejects_magic_version_flags_and_truncation() {
        let good = sample_header().encode();
        let mut bad = good;
        bad[0] = b'X';
        assert!(matches!(ShardHeader::from_bytes(&bad), Err(StoreError::BadMagic(_))));
        let mut h = sample_header();
        h.payload_checksum = 9;
        let mut bytes = h.encode();
        bytes[8] = 99; // version (header checksum now stale, but version is checked first)
        assert!(matches!(ShardHeader::from_bytes(&bytes), Err(StoreError::BadVersion(99))));
        assert!(matches!(ShardHeader::from_bytes(&good[..100]), Err(StoreError::Truncated { .. })));
    }

    #[test]
    fn validate_rejects_bad_ranges_and_sections() {
        let size = file_size(&sample_header());
        let mut h = sample_header();
        h.parts = 0;
        assert!(matches!(h.validate(size), Err(StoreError::Corrupt(_))));
        let mut h = sample_header();
        h.part_index = 2;
        assert!(matches!(h.validate(size), Err(StoreError::Corrupt(_))));
        let mut h = sample_header();
        (h.start, h.end) = (3, 1);
        assert!(matches!(h.validate(size), Err(StoreError::Corrupt(_))));
        let mut h = sample_header();
        h.end = 7; // past n — and the section lengths no longer match
        assert!(matches!(h.validate(size), Err(StoreError::Corrupt(_))));
        // Misaligned section offset.
        let mut h = sample_header();
        h.sections[SEC_IN_SOURCES].offset += 4;
        assert!(matches!(
            h.validate(size),
            Err(StoreError::Misaligned { section: "in_sources", .. })
        ));
        // Section past the end of the file.
        let h = sample_header();
        assert!(matches!(h.validate(size - 8), Err(StoreError::Truncated { .. })));
        // Trailing bytes.
        assert!(matches!(h.validate(size + 8), Err(StoreError::Corrupt(_))));
        // Overlapping sections.
        let mut h = sample_header();
        h.sections[SEC_OUT_OFFSETS].offset = h.sections[SEC_IN_OFFSETS].offset;
        assert!(matches!(h.validate(size), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn expected_sizes_guard_against_overflow() {
        let mut h = sample_header();
        h.out_edges = u64::MAX / 2;
        assert!(matches!(h.expected_section_bytes(), Err(StoreError::Corrupt(_))));
    }
}
