//! Adversarial integration tests: hostile bytes against the store.
//!
//! The contract under attack is the one `format.rs` documents — a
//! corrupt, truncated, or deliberately forged shard file must produce a
//! typed [`StoreError`], and must never panic, read out of bounds, or
//! allocate memory sized by a forged header field. Each test corrupts a
//! *real* store on disk and re-opens it **both ways** — the file through
//! [`MappedShard::open`], the same bytes through
//! [`MappedShard::from_bytes`] as a worker receives them in a
//! `LoadPartition` frame — and the two must reach one verdict; the
//! proptest block fuzzes the header bytes and fields wholesale.

use pasco_store::{
    partition_image, shard_file_name, write_store, MappedShard, MappedStore, Section, ShardHeader,
    StoreError, HEADER_LEN, SECTION_COUNT, SEC_DIAG,
};
use proptest::prelude::*;

use pasco_graph::generators;
use pasco_graph::partition::Partitioner;
use std::mem::discriminant;
use std::path::{Path, PathBuf};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pasco_store_hostile_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes a small but non-trivial 2-shard store and returns its
/// directory; `shard_file_name(0)` inside it is the victim file.
fn victim_store(name: &str) -> PathBuf {
    let g = generators::barabasi_albert(150, 3, 11);
    let diag: Vec<f64> = (0..150).map(|v| 0.4 + (v as f64) / 400.0).collect();
    let dir = scratch(name);
    write_store(&dir, &g, &diag, 2).unwrap();
    dir
}

/// Re-encodes a forged header over the victim's first [`HEADER_LEN`]
/// bytes. `encode` recomputes the *header* checksum, so the forgery is
/// authenticated — exactly what an attacker controlling the file can
/// produce — and rejection has to come from structural validation, not
/// the checksum.
fn forge_header(dir: &Path, mutate: impl FnOnce(&mut ShardHeader)) {
    let path = dir.join(shard_file_name(0));
    let mut bytes = std::fs::read(&path).unwrap();
    let mut header = ShardHeader::from_bytes(&bytes).unwrap();
    mutate(&mut header);
    bytes[..HEADER_LEN].copy_from_slice(&header.encode());
    std::fs::write(&path, &bytes).unwrap();
}

/// Opens the victim through both entry points and insists on one
/// verdict: both accept, or both refuse with the same error variant.
fn open_shard(dir: &Path) -> Result<MappedShard, StoreError> {
    let path = dir.join(shard_file_name(0));
    let file = MappedShard::open(&path);
    let wire = MappedShard::from_bytes(&std::fs::read(&path).unwrap());
    match (&file, &wire) {
        (Ok(f), Ok(w)) => assert_eq!(MappedShard::header(f), MappedShard::header(w)),
        (Err(f), Err(w)) => assert_eq!(discriminant(f), discriminant(w), "`{f}` vs `{w}`"),
        (f, w) => panic!("open says {:?}, from_bytes {:?}", f.as_ref().err(), w.as_ref().err()),
    }
    file
}

#[test]
fn every_truncation_point_is_a_typed_error() {
    let dir = victim_store("truncate");
    let path = dir.join(shard_file_name(0));
    let full = std::fs::read(&path).unwrap();
    // Representative cut points: empty, sub-header, exactly the header
    // (payload gone), mid-payload, and one byte short.
    for cut in [0, 1, 7, HEADER_LEN - 1, HEADER_LEN, HEADER_LEN + 9, full.len() - 1] {
        std::fs::write(&path, &full[..cut]).unwrap();
        match open_shard(&dir) {
            Err(StoreError::Truncated { .. } | StoreError::Io(_)) => {}
            other => panic!("cut at {cut}: expected Truncated, got {:?}", other.map(|_| ())),
        }
        // The directory-level open must refuse the same way, typed.
        assert!(MappedStore::open(&dir).is_err(), "cut at {cut}: store open must fail");
    }
}

#[test]
fn corrupt_magic_version_and_flags_are_distinct_errors() {
    let dir = victim_store("magic");
    let path = dir.join(shard_file_name(0));
    let good = std::fs::read(&path).unwrap();

    let mut bad = good.clone();
    bad[0..8].copy_from_slice(b"PASCOSH9");
    std::fs::write(&path, &bad).unwrap();
    assert!(matches!(open_shard(&dir), Err(StoreError::BadMagic(_))));

    // Version and flags live *under* the header checksum, so a blind
    // byte-patch trips the checksum; a re-encoded (authenticated) patch
    // must still be refused by the field checks. Patch the raw version
    // byte first: version is checked before the checksum on purpose, so
    // a future-format file reports "wrong version", not "corrupt".
    let mut bad = good.clone();
    bad[8] = 99;
    std::fs::write(&path, &bad).unwrap();
    assert!(matches!(open_shard(&dir), Err(StoreError::BadVersion(99))));

    let mut bad = good;
    bad[12] = 1; // flags
    std::fs::write(&path, &bad).unwrap();
    match open_shard(&dir) {
        Err(StoreError::Corrupt(_) | StoreError::Checksum { kind: "header", .. }) => {}
        other => panic!("expected flags rejection, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn flipped_header_byte_fails_the_header_checksum() {
    let dir = victim_store("hdrsum");
    let path = dir.join(shard_file_name(0));
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[33] ^= 0x10; // node count, blind flip: not re-authenticated
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(open_shard(&dir), Err(StoreError::Checksum { kind: "header", .. })));
}

#[test]
fn forged_giant_counts_are_refused_without_allocating() {
    // Authenticated forgeries of the count fields. The refusal path
    // must be pure arithmetic — the format never allocates from header
    // counts, so even `u64::MAX` edges is just a Corrupt error.
    for (name, mutate) in [
        ("in_edges", (|h| h.in_edges = u64::MAX) as fn(&mut ShardHeader)),
        ("out_edges", |h| h.out_edges = u64::MAX / 2),
        ("n", |h| h.n = u64::MAX),
        ("end", |h| h.end = u32::MAX),
    ] {
        let dir = victim_store(&format!("giant_{name}"));
        forge_header(&dir, mutate);
        match open_shard(&dir) {
            Err(StoreError::Corrupt(_) | StoreError::Truncated { .. }) => {}
            other => panic!("forged {name}: expected Corrupt, got {:?}", other.map(|_| ())),
        }
    }
}

#[test]
fn forged_section_table_cannot_escape_the_file() {
    // Misalignment is its own error...
    let dir = victim_store("misalign");
    forge_header(&dir, |h| h.sections[1].offset += 4);
    assert!(matches!(open_shard(&dir), Err(StoreError::Misaligned { .. })));

    // ...an offset pointing past the end of the file is caught against
    // the real file size...
    let dir = victim_store("escape");
    forge_header(&dir, |h| h.sections[SECTION_COUNT - 1].offset = 1 << 40);
    match open_shard(&dir) {
        Err(StoreError::Corrupt(_) | StoreError::Truncated { .. }) => {}
        other => panic!("expected escape rejection, got {:?}", other.map(|_| ())),
    }

    // ...overlapping sections are refused...
    let dir = victim_store("overlap");
    forge_header(&dir, |h| h.sections[2].offset = h.sections[0].offset);
    assert!(matches!(open_shard(&dir), Err(StoreError::Corrupt(_))));

    // ...and so is a section length that disagrees with the counts.
    let dir = victim_store("length");
    forge_header(&dir, |h| h.sections[3].len += 8);
    assert!(matches!(open_shard(&dir), Err(StoreError::Corrupt(_))));
}

#[test]
fn a_section_the_mapping_would_refuse_is_a_typed_error_from_open() {
    // Sections are resolved into typed views once, at open — so a table
    // entry the mapping must refuse (misaligned, or reaching past the end
    // of the file) has to surface there, typed, for every one of the seven
    // sections, and never as an empty or wild slice at query time. Each
    // forgery is re-signed: the header checksum cannot be what refuses it.
    for sec in 0..SECTION_COUNT {
        for what in ["misaligned", "at the end of the file", "past the address space"] {
            let dir = victim_store("refuse");
            let file_len = std::fs::metadata(dir.join(shard_file_name(0))).unwrap().len();
            forge_header(&dir, |h| {
                h.sections[sec].offset = match what {
                    "misaligned" => h.sections[sec].offset + 4,
                    "at the end of the file" => file_len,
                    _ => u64::MAX - 7,
                }
            });
            match open_shard(&dir) {
                Err(
                    StoreError::Misaligned { .. }
                    | StoreError::Corrupt(_)
                    | StoreError::Truncated { .. },
                ) => {}
                other => panic!("section {sec} {what}: got {:?}", other.map(|_| ())),
            }
            assert!(MappedStore::open(&dir).is_err(), "section {sec} {what}: store open");
        }
    }
}

#[test]
fn corrupt_offset_spine_is_rejected_at_open() {
    // The spine check is open-time work: break monotonicity in the
    // in-offsets section (payload bytes, so fix no checksums — open
    // does not hash the payload, the spine check itself must catch it).
    let dir = victim_store("spine");
    let path = dir.join(shard_file_name(0));
    let mut bytes = std::fs::read(&path).unwrap();
    let header = ShardHeader::from_bytes(&bytes).unwrap();
    let spine: Section = header.sections[0];
    let at = (spine.offset + 8) as usize; // second entry
    bytes[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(open_shard(&dir), Err(StoreError::Corrupt(_))));
}

#[test]
fn payload_corruption_survives_open_but_fails_verify() {
    // Open is O(1) and deliberately does not hash the payload; deep
    // integrity is the explicit verify() pass.
    let dir = victim_store("payload");
    let path = dir.join(shard_file_name(0));
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff; // inside the diag section: no spine, no header
    std::fs::write(&path, &bytes).unwrap();
    let shard = open_shard(&dir).expect("lazy open must not read the diag payload");
    assert!(matches!(shard.verify(), Err(StoreError::Checksum { kind: "payload", .. })));
    let wire: MappedShard = MappedShard::from_bytes(&bytes).unwrap();
    assert!(matches!(wire.verify(), Err(StoreError::Checksum { kind: "payload", .. })));
    // And the store-level verify sweeps every shard.
    let store = MappedStore::open(&dir).unwrap();
    assert!(matches!(store.verify(), Err(StoreError::Checksum { kind: "payload", .. })));
}

#[test]
fn a_diag_section_is_whole_or_absent() {
    // Graph-only shards (what a coordinator ships before any index
    // exists) carry a 0-byte diag section; nothing in between is a shard.
    for (cut, accepted) in [(0u64, true), (8, false)] {
        let dir = victim_store("diaglen");
        let path = dir.join(shard_file_name(0));
        let bytes = std::fs::read(&path).unwrap();
        let diag = ShardHeader::from_bytes(&bytes).unwrap().sections[SEC_DIAG];
        std::fs::write(&path, &bytes[..(diag.offset + cut) as usize]).unwrap();
        forge_header(&dir, |h| h.sections[SEC_DIAG].len = cut);
        match open_shard(&dir) {
            Ok(shard) if accepted => assert_eq!(shard.diag(), &[] as &[f64]),
            Err(StoreError::Corrupt(_)) if !accepted => {}
            other => panic!("diag of {cut} bytes: got {:?}", other.map(|_| ())),
        }
    }

    // A set that disagrees on carrying one is refused as a whole, from a
    // directory and from images alike; and a short non-shard says what it
    // is (bad magic), not merely that it is short.
    let dir = victim_store("diagmix");
    let g = generators::barabasi_albert(150, 3, 11);
    let image = partition_image(&g, &Partitioner::range(150, 2), 0).unwrap();
    std::fs::write(dir.join(shard_file_name(0)), image).unwrap();
    assert!(matches!(MappedStore::open(&dir), Err(StoreError::BadLayout(_))));
    let shards = (0..2).map(|q| MappedShard::open(dir.join(shard_file_name(q))).unwrap());
    assert!(matches!(MappedStore::from_shards(shards.collect()), Err(StoreError::BadLayout(_))));
    assert!(matches!(MappedShard::from_bytes(b"not a shard"), Err(StoreError::BadMagic(_))));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary byte mutations anywhere in the victim's header region:
    /// `open` never panics, and either refuses with a typed error or —
    /// when the mutation landed on bytes the format ignores — yields a
    /// shard that still answers queries totally.
    #[test]
    fn fuzzed_header_bytes_never_panic(at in 0usize..HEADER_LEN, x in 1u64..256) {
        let dir = victim_store("fuzzbyte");
        let path = dir.join(shard_file_name(0));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[at] ^= x as u8;
        std::fs::write(&path, &bytes).unwrap();
        if let Ok(shard) = open_shard(&dir) {
            // Survivable mutations still serve total, in-bounds queries.
            for v in 0..shard.end() {
                let _ = shard.in_neighbors(v);
                let _ = shard.sample_out(v, 0.37);
            }
        }
    }

    /// Authenticated field-level forgeries: re-encode a header with one
    /// field swapped for a hostile value. Validation either rejects with
    /// a typed error or the value was the original one.
    #[test]
    fn fuzzed_header_fields_never_panic(field in 0usize..8, value in 0u64..u64::MAX) {
        let dir = victim_store("fuzzfield");
        let original = ShardHeader::from_bytes(
            &std::fs::read(dir.join(shard_file_name(0))).unwrap()
        ).unwrap();
        forge_header(&dir, |h| match field {
            0 => h.part_index = value as u32,
            1 => h.parts = value as u32,
            2 => h.start = value as u32,
            3 => h.end = value as u32,
            4 => h.n = value,
            5 => h.in_edges = value,
            6 => h.out_edges = value,
            _ => {
                h.sections[(value % SECTION_COUNT as u64) as usize].offset = value;
            }
        });
        let path = dir.join(shard_file_name(0));
        let forged = ShardHeader::from_bytes(&std::fs::read(&path).unwrap()).unwrap();
        match open_shard(&dir) {
            Ok(shard) => {
                // A forgery that slips past per-shard validation (e.g. a
                // part_index still below `parts`) must still serve total,
                // in-bounds queries — and the *directory* open, which
                // cross-checks shards against the range partitioner,
                // must reject anything that is not the original header.
                for v in [0, shard.start(), shard.end().saturating_sub(1)] {
                    let _ = shard.in_neighbors(v);
                    let _ = shard.sample_out(v, 0.37);
                }
                if forged == original {
                    prop_assert!(MappedStore::open(&dir).is_ok());
                } else {
                    prop_assert!(
                        matches!(MappedStore::open(&dir), Err(StoreError::BadLayout(_))),
                        "store open must catch shard-survivable forgeries"
                    );
                }
            }
            Err(
                StoreError::Corrupt(_)
                | StoreError::Truncated { .. }
                | StoreError::Misaligned { .. },
            ) => {}
            Err(e) => prop_assert!(false, "untyped rejection: {e}"),
        }
    }

    /// Completely random 184-byte headers (plus a little payload):
    /// `from_bytes` overwhelmingly refuses (magic/checksum), and the
    /// full open path stays panic-free.
    #[test]
    fn random_header_bytes_never_panic(words in prop::collection::vec(0u64..u64::MAX, 23usize..24)) {
        let dir = scratch("fuzzrandom");
        let path = dir.join(shard_file_name(0));
        let mut bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        bytes.resize(HEADER_LEN + 64, 0xAB);
        std::fs::write(&path, &bytes).unwrap();
        prop_assert!(open_shard(&dir).is_err());
    }
}
