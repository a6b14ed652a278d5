//! Compact binary codec for [`QueryRequest`] / [`QueryResponse`] /
//! [`QueryError`] — the one wire format a network front-end and a
//! real-cluster RPC engine share.
//!
//! Same style as `pasco_cluster::codec` (fixed-width little-endian
//! fields over the `bytes` shim), with one difference: that codec is
//! internal to a process, so its decoder panics on malformed input;
//! this one faces the network, so [`WireCodec::decode`] is fallible and
//! returns a typed [`WireError`] on truncated buffers, unknown tags, or
//! (via [`WireCodec::from_bytes`]) trailing garbage — it never panics
//! and never over-allocates on corrupt length prefixes.
//!
//! Encoding: one tag byte per enum variant, `u32` little-endian node
//! ids and collection lengths, `u64` counts/`k`, `f64` scores by IEEE
//! bit pattern. Round trips are exact: `decode(encode(x)) == x`
//! bit-for-bit, which `tests/api.rs` asserts by proptest for every
//! variant.
//!
//! ```
//! use pasco_simrank::api::wire::WireCodec;
//! use pasco_simrank::api::QueryRequest;
//!
//! let req = QueryRequest::SingleSourceTopK { i: 7, k: 10 };
//! let bytes = req.to_bytes();
//! assert_eq!(QueryRequest::from_bytes(&bytes).unwrap(), req);
//! ```

use super::{QueryError, QueryRequest, QueryResponse};
use crate::queries::CohortLayout;
use bytes::{Buf, BufMut};
use pasco_mc::walks::{BlockStep, IdList, StepDistributions};
use std::fmt;

/// A malformed wire buffer (the codec never panics on input bytes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before a complete value was read.
    Truncated {
        /// What was being decoded when the bytes ran out.
        decoding: &'static str,
    },
    /// An enum tag byte matching no known variant.
    UnknownTag {
        /// The enum being decoded.
        decoding: &'static str,
        /// The unrecognised tag value.
        tag: u8,
    },
    /// [`WireCodec::from_bytes`] decoded a full value but bytes remain.
    TrailingBytes {
        /// How many bytes were left over.
        remaining: usize,
    },
    /// Batches nested beyond [`MAX_BATCH_DEPTH`] — the service layer
    /// only accepts one level anyway ([`QueryError::NestedBatch`]), so a
    /// deeper wire value is corruption, and an unbounded recursive decode
    /// would let a hostile buffer overflow the stack.
    TooDeep,
    /// The bytes decoded to a value that violates the type's semantic
    /// invariants (e.g. a shipped graph partition whose offset arrays do
    /// not describe its adjacency arrays). Structurally readable,
    /// logically corrupt.
    Invalid {
        /// What was being decoded.
        decoding: &'static str,
        /// Which invariant failed.
        reason: &'static str,
    },
}

/// How many levels of batch nesting the decoder accepts. The service
/// layer allows one; the codec is slightly lenient so a round trip of a
/// (service-rejected but constructible) nested batch still succeeds.
pub const MAX_BATCH_DEPTH: usize = 8;

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { decoding } => write!(f, "truncated buffer decoding {decoding}"),
            WireError::UnknownTag { decoding, tag } => {
                write!(f, "unknown tag {tag} decoding {decoding}")
            }
            WireError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after a complete value")
            }
            WireError::TooDeep => {
                write!(f, "batches nested deeper than {MAX_BATCH_DEPTH} levels")
            }
            WireError::Invalid { decoding, reason } => {
                write!(f, "invalid {decoding}: {reason}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Binary encoding with exact, fallible round trips.
pub trait WireCodec: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut impl BufMut);

    /// Decodes one value, advancing `buf` past it.
    fn decode(buf: &mut impl Buf) -> Result<Self, WireError>;

    /// Exact encoded size in bytes (`to_bytes().len()`).
    fn encoded_len(&self) -> usize;

    /// Encodes into a fresh, exactly-sized buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.encode(&mut buf);
        debug_assert_eq!(buf.len(), self.encoded_len());
        buf
    }

    /// Decodes a buffer that must hold exactly one value.
    fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut slice = bytes;
        let value = Self::decode(&mut slice)?;
        if slice.is_empty() {
            Ok(value)
        } else {
            Err(WireError::TrailingBytes { remaining: slice.len() })
        }
    }
}

// ---- checked primitive reads ------------------------------------------

fn need(buf: &impl Buf, n: usize, decoding: &'static str) -> Result<(), WireError> {
    if buf.remaining() >= n {
        Ok(())
    } else {
        Err(WireError::Truncated { decoding })
    }
}

pub(super) fn read_u8(buf: &mut impl Buf, decoding: &'static str) -> Result<u8, WireError> {
    need(buf, 1, decoding)?;
    Ok(buf.get_u8())
}

pub(super) fn read_u32(buf: &mut impl Buf, decoding: &'static str) -> Result<u32, WireError> {
    need(buf, 4, decoding)?;
    Ok(buf.get_u32_le())
}

pub(super) fn read_u64(buf: &mut impl Buf, decoding: &'static str) -> Result<u64, WireError> {
    need(buf, 8, decoding)?;
    Ok(buf.get_u64_le())
}

pub(super) fn read_f64(buf: &mut impl Buf, decoding: &'static str) -> Result<f64, WireError> {
    need(buf, 8, decoding)?;
    Ok(buf.get_f64_le())
}

/// Reads a `u32` length prefix for elements of at least `elem_min` bytes,
/// refusing lengths the remaining buffer cannot possibly satisfy — a
/// corrupt prefix must fail cleanly, not allocate gigabytes.
///
/// INVARIANT (audited; enforced by the adversarial proptests in
/// `tests/api.rs`): every repeated-field decode in this module goes
/// through here with `elem_min` = the smallest possible encoding of one
/// element, *before* any collection is built. Collection allocations are
/// then bounded by `remaining / elem_min`, so a hostile peer can corrupt
/// a length prefix to at most "the rest of the buffer", never to an
/// OOM-sized reservation. The envelope layer upholds the same rule for
/// its payload length (`EnvelopeHeader::decode` checks the frame limit
/// and, when decoding from a buffer, the bytes actually present).
pub(super) fn read_len(
    buf: &mut impl Buf,
    elem_min: usize,
    decoding: &'static str,
) -> Result<usize, WireError> {
    let len = read_u32(buf, decoding)? as usize;
    need(buf, len.saturating_mul(elem_min), decoding)?;
    Ok(len)
}

/// UTF-8 string as a `u32` byte-length prefix plus the bytes; invalid
/// UTF-8 decodes lossily (the string fields are diagnostics, and a
/// replacement character beats failing the frame that reports a fault).
pub(super) fn encode_str(s: &str, buf: &mut impl BufMut) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

pub(super) fn decode_str(buf: &mut impl Buf, decoding: &'static str) -> Result<String, WireError> {
    let len = read_len(buf, 1, decoding)?;
    let mut bytes = vec![0u8; len];
    buf.copy_to_slice(&mut bytes);
    Ok(String::from_utf8_lossy(&bytes).into_owned())
}

// ---- repeated field shapes --------------------------------------------

pub(super) fn encode_nodes(nodes: &[u32], buf: &mut impl BufMut) {
    buf.put_u32_le(nodes.len() as u32);
    for &v in nodes {
        buf.put_u32_le(v);
    }
}

pub(super) fn decode_nodes(
    buf: &mut impl Buf,
    decoding: &'static str,
) -> Result<Vec<u32>, WireError> {
    let len = read_len(buf, 4, decoding)?;
    (0..len).map(|_| read_u32(buf, decoding)).collect()
}

pub(super) fn encode_scores(scores: &[f64], buf: &mut impl BufMut) {
    buf.put_u32_le(scores.len() as u32);
    for &s in scores {
        buf.put_f64_le(s);
    }
}

pub(super) fn decode_scores(
    buf: &mut impl Buf,
    decoding: &'static str,
) -> Result<Vec<f64>, WireError> {
    let len = read_len(buf, 8, decoding)?;
    (0..len).map(|_| read_f64(buf, decoding)).collect()
}

pub(super) fn encode_ranked(ranked: &[(u32, f64)], buf: &mut impl BufMut) {
    buf.put_u32_le(ranked.len() as u32);
    for &(v, s) in ranked {
        buf.put_u32_le(v);
        buf.put_f64_le(s);
    }
}

pub(super) fn decode_ranked(
    buf: &mut impl Buf,
    decoding: &'static str,
) -> Result<Vec<(u32, f64)>, WireError> {
    let len = read_len(buf, 12, decoding)?;
    (0..len).map(|_| Ok((read_u32(buf, decoding)?, read_f64(buf, decoding)?))).collect()
}

/// Histogram entries [`encode_cohort`] packs per `put_slice`.
const ENTRY_BLOCK: usize = 256;

/// A cohort in either layout, encoded as a [`StepDistributions`]: source,
/// walkers and step count, then each step's length and its 12-byte
/// `(id, count)` records in id order, [`ENTRY_BLOCK`] of them per
/// `put_slice`, whichever form the step keeps. The one spelling of the
/// record: a cached [`pasco_mc::walks::CohortBlock`] is encoded from here
/// as is, with no nested copy built first.
pub(crate) fn encode_cohort<C: CohortLayout + ?Sized>(cohort: &C, buf: &mut impl BufMut) {
    buf.put_u32_le(cohort.source());
    buf.put_u32_le(cohort.walkers());
    buf.put_u32_le(cohort.histograms().count() as u32);
    let mut block = [[0u8; 12]; ENTRY_BLOCK];
    let node = |record: &mut [u8; 12], v: u32| record[..4].copy_from_slice(&v.to_le_bytes());
    let count = |record: &mut [u8; 12], c: u64| record[4..].copy_from_slice(&c.to_le_bytes());
    for step in cohort.histograms() {
        let len = step.entries();
        buf.put_u32_le(len as u32);
        // Each block's nodes, then its counts, written into its records.
        let (mut first, mut word) = (0, 0);
        while first < len {
            let records = match step {
                BlockStep::Ids(s) => {
                    let records = &mut block[..ENTRY_BLOCK.min(len - first)];
                    records.iter_mut().zip(first..).for_each(|(r, e)| node(r, s.node(e)));
                    s.fill_counts(first, records, count);
                    records
                }
                BlockStep::Bits(s) => {
                    let (got, next) = s.ids_from(word.max(s.span().start), &mut block, node);
                    s.counts_into(first, &mut block[..got], |r, c| count(r, c.into()));
                    word = next;
                    &mut block[..got]
                }
            };
            buf.put_slice(records.as_flattened());
            first += records.len();
        }
    }
}

/// One histogram: a `u32` length, then 12-byte `(id, count)` records,
/// parsed in one pass once `read_len` has proven them present. Every
/// decoder input is a slice, whose `chunk` is all that remains; a buffer
/// held in pieces is refused rather than read a second way.
fn decode_step(buf: &mut impl Buf, what: &'static str) -> Result<Vec<(u32, u64)>, WireError> {
    let len = read_len(buf, 12, what)?;
    let Some(body) = buf.chunk().get(..12 * len) else {
        return Err(WireError::Invalid { decoding: what, reason: "histogram split across chunks" });
    };
    let record = |&[i0, i1, i2, i3, count @ ..]: &[u8; 12]| {
        (u32::from_le_bytes([i0, i1, i2, i3]), u64::from_le_bytes(count))
    };
    let step = body.as_chunks::<12>().0.iter().map(record).collect();
    buf.advance(12 * len);
    Ok(step)
}

impl WireCodec for StepDistributions {
    fn encode(&self, buf: &mut impl BufMut) {
        encode_cohort(self, buf);
    }

    fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        const WHAT: &str = "StepDistributions";
        let source = read_u32(buf, WHAT)?;
        let walkers = read_u32(buf, WHAT)?;
        let steps = read_len(buf, 4, WHAT)?;
        if steps == 0 {
            // `counts[0]` is the step-0 entry; `steps()` subtracts one.
            return Err(WireError::Invalid { decoding: WHAT, reason: "no step histograms" });
        }
        let counts = (0..steps).map(|_| decode_step(buf, WHAT)).collect::<Result<_, _>>()?;
        Ok(StepDistributions { source, walkers, counts })
    }

    fn encoded_len(&self) -> usize {
        cohort_wire_len(self)
    }
}

/// The bytes a cohort in either layout encodes to as a [`StepDistributions`].
pub(crate) fn cohort_wire_len<C: CohortLayout + ?Sized>(cohort: &C) -> usize {
    12 + cohort.histograms().map(|step| 4 + 12 * step.entries()).sum::<usize>()
}

/// A `Cohort` answer's payload from a cohort in either layout: the bytes
/// of [`QueryResponse::Cohort`] holding its nested form, `1 +`
/// [`cohort_wire_len`] of them.
pub(crate) fn encode_cohort_response<C: CohortLayout + ?Sized>(cohort: &C, buf: &mut impl BufMut) {
    buf.put_u8(RESP_COHORT);
    encode_cohort(cohort, buf);
}

// ---- requests ----------------------------------------------------------

const REQ_SINGLE_PAIR: u8 = 0;
const REQ_SINGLE_SOURCE: u8 = 1;
// Tag 2 is reserved (a retired request kind): it decodes as unknown.
const REQ_SINGLE_SOURCE_TOPK: u8 = 3;
const REQ_PAIRS_MATRIX: u8 = 4;
const REQ_COHORT: u8 = 5;
const REQ_BATCH: u8 = 6;

fn decode_request_at(buf: &mut impl Buf, depth: usize) -> Result<QueryRequest, WireError> {
    const WHAT: &str = "QueryRequest";
    Ok(match read_u8(buf, WHAT)? {
        REQ_SINGLE_PAIR => {
            QueryRequest::SinglePair { i: read_u32(buf, WHAT)?, j: read_u32(buf, WHAT)? }
        }
        REQ_SINGLE_SOURCE => QueryRequest::SingleSource { i: read_u32(buf, WHAT)? },
        REQ_SINGLE_SOURCE_TOPK => {
            QueryRequest::SingleSourceTopK { i: read_u32(buf, WHAT)?, k: read_u64(buf, WHAT)? }
        }
        REQ_PAIRS_MATRIX => QueryRequest::PairsMatrix {
            rows: decode_nodes(buf, WHAT)?,
            cols: decode_nodes(buf, WHAT)?,
        },
        REQ_COHORT => QueryRequest::Cohort { v: read_u32(buf, WHAT)? },
        REQ_BATCH => {
            if depth >= MAX_BATCH_DEPTH {
                return Err(WireError::TooDeep);
            }
            // Members are ≥ 1 byte each (their own tag).
            let len = read_len(buf, 1, WHAT)?;
            QueryRequest::Batch(
                (0..len).map(|_| decode_request_at(buf, depth + 1)).collect::<Result<_, _>>()?,
            )
        }
        tag => return Err(WireError::UnknownTag { decoding: WHAT, tag }),
    })
}

impl WireCodec for QueryRequest {
    fn encode(&self, buf: &mut impl BufMut) {
        match self {
            QueryRequest::SinglePair { i, j } => {
                buf.put_u8(REQ_SINGLE_PAIR);
                buf.put_u32_le(*i);
                buf.put_u32_le(*j);
            }
            QueryRequest::SingleSource { i } => {
                buf.put_u8(REQ_SINGLE_SOURCE);
                buf.put_u32_le(*i);
            }
            QueryRequest::SingleSourceTopK { i, k } => {
                buf.put_u8(REQ_SINGLE_SOURCE_TOPK);
                buf.put_u32_le(*i);
                buf.put_u64_le(*k);
            }
            QueryRequest::PairsMatrix { rows, cols } => {
                buf.put_u8(REQ_PAIRS_MATRIX);
                encode_nodes(rows, buf);
                encode_nodes(cols, buf);
            }
            QueryRequest::Cohort { v } => {
                buf.put_u8(REQ_COHORT);
                buf.put_u32_le(*v);
            }
            QueryRequest::Batch(reqs) => {
                buf.put_u8(REQ_BATCH);
                buf.put_u32_le(reqs.len() as u32);
                for r in reqs {
                    r.encode(buf);
                }
            }
        }
    }

    fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        decode_request_at(buf, 0)
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            QueryRequest::SinglePair { .. } => 8,
            QueryRequest::SingleSource { .. } | QueryRequest::Cohort { .. } => 4,
            QueryRequest::SingleSourceTopK { .. } => 12,
            QueryRequest::PairsMatrix { rows, cols } => 8 + 4 * (rows.len() + cols.len()),
            QueryRequest::Batch(reqs) => 4 + reqs.iter().map(Self::encoded_len).sum::<usize>(),
        }
    }
}

// ---- responses ---------------------------------------------------------

const RESP_SCORE: u8 = 0;
const RESP_SCORES: u8 = 1;
const RESP_RANKED: u8 = 2;
const RESP_MATRIX: u8 = 3;
const RESP_COHORT: u8 = 4;
const RESP_BATCH: u8 = 5;

fn decode_response_at(buf: &mut impl Buf, depth: usize) -> Result<QueryResponse, WireError> {
    const WHAT: &str = "QueryResponse";
    Ok(match read_u8(buf, WHAT)? {
        RESP_SCORE => QueryResponse::Score(read_f64(buf, WHAT)?),
        RESP_SCORES => QueryResponse::Scores(decode_scores(buf, WHAT)?),
        RESP_RANKED => QueryResponse::Ranked(decode_ranked(buf, WHAT)?),
        RESP_MATRIX => {
            // Rows are ≥ 4 bytes each (their own length prefix).
            let len = read_len(buf, 4, WHAT)?;
            QueryResponse::Matrix(
                (0..len).map(|_| decode_scores(buf, WHAT)).collect::<Result<_, _>>()?,
            )
        }
        RESP_COHORT => QueryResponse::Cohort(StepDistributions::decode(buf)?),
        RESP_BATCH => {
            if depth >= MAX_BATCH_DEPTH {
                return Err(WireError::TooDeep);
            }
            let len = read_len(buf, 1, WHAT)?;
            QueryResponse::Batch(
                (0..len).map(|_| decode_response_at(buf, depth + 1)).collect::<Result<_, _>>()?,
            )
        }
        tag => return Err(WireError::UnknownTag { decoding: WHAT, tag }),
    })
}

impl WireCodec for QueryResponse {
    fn encode(&self, buf: &mut impl BufMut) {
        match self {
            QueryResponse::Score(s) => {
                buf.put_u8(RESP_SCORE);
                buf.put_f64_le(*s);
            }
            QueryResponse::Scores(row) => {
                buf.put_u8(RESP_SCORES);
                encode_scores(row, buf);
            }
            QueryResponse::Ranked(list) => {
                buf.put_u8(RESP_RANKED);
                encode_ranked(list, buf);
            }
            QueryResponse::Matrix(rows) => {
                buf.put_u8(RESP_MATRIX);
                buf.put_u32_le(rows.len() as u32);
                for row in rows {
                    encode_scores(row, buf);
                }
            }
            QueryResponse::Cohort(dists) => encode_cohort_response(dists, buf),
            QueryResponse::Batch(items) => {
                buf.put_u8(RESP_BATCH);
                buf.put_u32_le(items.len() as u32);
                for item in items {
                    item.encode(buf);
                }
            }
        }
    }

    fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        decode_response_at(buf, 0)
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            QueryResponse::Score(_) => 8,
            QueryResponse::Scores(row) => 4 + 8 * row.len(),
            QueryResponse::Ranked(list) => 4 + 12 * list.len(),
            QueryResponse::Matrix(rows) => 4 + rows.iter().map(|r| 4 + 8 * r.len()).sum::<usize>(),
            QueryResponse::Cohort(dists) => dists.encoded_len(),
            QueryResponse::Batch(items) => 4 + items.iter().map(Self::encoded_len).sum::<usize>(),
        }
    }
}

// ---- errors ------------------------------------------------------------

const ERR_NODE_OUT_OF_RANGE: u8 = 0;
const ERR_INVALID_K: u8 = 1;
const ERR_EMPTY_BATCH: u8 = 2;
const ERR_EMPTY_NODE_SET: u8 = 3;
const ERR_NESTED_BATCH: u8 = 4;
const ERR_RESPONSE_TOO_LARGE: u8 = 5;
const ERR_WORKER_UNAVAILABLE: u8 = 6;
const ERR_UNSUPPORTED: u8 = 7;

impl WireCodec for QueryError {
    fn encode(&self, buf: &mut impl BufMut) {
        match self {
            QueryError::NodeOutOfRange { node, node_count } => {
                buf.put_u8(ERR_NODE_OUT_OF_RANGE);
                buf.put_u32_le(*node);
                buf.put_u32_le(*node_count);
            }
            QueryError::InvalidK { k } => {
                buf.put_u8(ERR_INVALID_K);
                buf.put_u64_le(*k);
            }
            QueryError::EmptyBatch => buf.put_u8(ERR_EMPTY_BATCH),
            QueryError::EmptyNodeSet => buf.put_u8(ERR_EMPTY_NODE_SET),
            QueryError::NestedBatch => buf.put_u8(ERR_NESTED_BATCH),
            QueryError::ResponseTooLarge { bytes, max_frame } => {
                buf.put_u8(ERR_RESPONSE_TOO_LARGE);
                buf.put_u64_le(*bytes);
                buf.put_u32_le(*max_frame);
            }
            QueryError::WorkerUnavailable { detail } => {
                buf.put_u8(ERR_WORKER_UNAVAILABLE);
                encode_str(detail, buf);
            }
            QueryError::Unsupported { detail } => {
                buf.put_u8(ERR_UNSUPPORTED);
                encode_str(detail, buf);
            }
        }
    }

    fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        const WHAT: &str = "QueryError";
        Ok(match read_u8(buf, WHAT)? {
            ERR_NODE_OUT_OF_RANGE => QueryError::NodeOutOfRange {
                node: read_u32(buf, WHAT)?,
                node_count: read_u32(buf, WHAT)?,
            },
            ERR_INVALID_K => QueryError::InvalidK { k: read_u64(buf, WHAT)? },
            ERR_EMPTY_BATCH => QueryError::EmptyBatch,
            ERR_EMPTY_NODE_SET => QueryError::EmptyNodeSet,
            ERR_NESTED_BATCH => QueryError::NestedBatch,
            ERR_RESPONSE_TOO_LARGE => QueryError::ResponseTooLarge {
                bytes: read_u64(buf, WHAT)?,
                max_frame: read_u32(buf, WHAT)?,
            },
            ERR_WORKER_UNAVAILABLE => {
                QueryError::WorkerUnavailable { detail: decode_str(buf, WHAT)? }
            }
            ERR_UNSUPPORTED => QueryError::Unsupported { detail: decode_str(buf, WHAT)? },
            tag => return Err(WireError::UnknownTag { decoding: WHAT, tag }),
        })
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            QueryError::NodeOutOfRange { .. } => 8,
            QueryError::InvalidK { .. } => 8,
            QueryError::EmptyBatch | QueryError::EmptyNodeSet | QueryError::NestedBatch => 0,
            QueryError::ResponseTooLarge { .. } => 12,
            QueryError::WorkerUnavailable { detail } => 4 + detail.len(),
            QueryError::Unsupported { detail } => 4 + detail.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: WireCodec + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = value.to_bytes();
        assert_eq!(bytes.len(), value.encoded_len(), "encoded_len must be exact");
        assert_eq!(T::from_bytes(&bytes).unwrap(), value);
    }

    #[test]
    fn every_request_variant_roundtrips() {
        roundtrip(QueryRequest::SinglePair { i: 3, j: u32::MAX });
        roundtrip(QueryRequest::SingleSource { i: 0 });
        roundtrip(QueryRequest::SingleSourceTopK { i: 9, k: u64::MAX });
        roundtrip(QueryRequest::PairsMatrix { rows: vec![1, 2, 3], cols: vec![] });
        roundtrip(QueryRequest::Cohort { v: 41 });
        roundtrip(QueryRequest::Batch(vec![
            QueryRequest::SinglePair { i: 1, j: 2 },
            QueryRequest::PairsMatrix { rows: vec![5], cols: vec![6, 7] },
        ]));
    }

    #[test]
    fn every_response_variant_roundtrips() {
        roundtrip(QueryResponse::Score(0.25));
        roundtrip(QueryResponse::Scores(vec![0.0, 1.0, f64::MIN_POSITIVE]));
        roundtrip(QueryResponse::Ranked(vec![(4, 0.5), (2, 0.125)]));
        roundtrip(QueryResponse::Matrix(vec![vec![1.0, 0.5], vec![], vec![0.25]]));
        roundtrip(QueryResponse::Cohort(StepDistributions {
            source: 3,
            walkers: 100,
            counts: vec![vec![(3, 100)], vec![(1, 60), (2, 38)], vec![]],
        }));
        roundtrip(QueryResponse::Batch(vec![
            QueryResponse::Score(1.0),
            QueryResponse::Ranked(vec![]),
        ]));
    }

    #[test]
    fn every_error_variant_roundtrips() {
        roundtrip(QueryError::NodeOutOfRange { node: 9, node_count: 5 });
        roundtrip(QueryError::InvalidK { k: 0 });
        roundtrip(QueryError::EmptyBatch);
        roundtrip(QueryError::EmptyNodeSet);
        roundtrip(QueryError::NestedBatch);
        roundtrip(QueryError::ResponseTooLarge { bytes: u64::MAX, max_frame: 1 << 20 });
        roundtrip(QueryError::WorkerUnavailable { detail: "worker 3: link down".into() });
        roundtrip(QueryError::Unsupported { detail: "push MCSS needs the resident CSR".into() });
    }

    #[test]
    fn a_cohort_frame_without_histograms_is_invalid_not_an_underflow() {
        // Hostile (or truncated-but-well-framed) worker reply: source 3,
        // 100 walkers, zero histograms. It used to decode, and `steps()`
        // then computed `0 - 1` on the coordinator.
        let bytes = [&3u32.to_le_bytes()[..], &100u32.to_le_bytes(), &0u32.to_le_bytes()].concat();
        assert_eq!(
            StepDistributions::from_bytes(&bytes),
            Err(WireError::Invalid { decoding: "StepDistributions", reason: "no step histograms" })
        );
        let framed = [&[RESP_COHORT][..], &bytes].concat();
        assert!(matches!(QueryResponse::from_bytes(&framed), Err(WireError::Invalid { .. })));
    }

    /// `QueryError` tags are append-only protocol surface: each committed
    /// `WIRE_TAGS.manifest` entry is its constant's value, and no other
    /// byte decodes as an error tag.
    #[test]
    fn error_tags_match_the_wire_tags_manifest() {
        let constants = [
            ("ERR_NODE_OUT_OF_RANGE", ERR_NODE_OUT_OF_RANGE),
            ("ERR_INVALID_K", ERR_INVALID_K),
            ("ERR_EMPTY_BATCH", ERR_EMPTY_BATCH),
            ("ERR_EMPTY_NODE_SET", ERR_EMPTY_NODE_SET),
            ("ERR_NESTED_BATCH", ERR_NESTED_BATCH),
            ("ERR_RESPONSE_TOO_LARGE", ERR_RESPONSE_TOO_LARGE),
            ("ERR_WORKER_UNAVAILABLE", ERR_WORKER_UNAVAILABLE),
            ("ERR_UNSUPPORTED", ERR_UNSUPPORTED),
        ];
        let manifest = crate::api::manifest_tags("queryerror");
        assert_eq!(manifest, constants);
        for tag in 0..=u8::MAX {
            let unknown = QueryError::from_bytes(&[tag])
                == Err(WireError::UnknownTag { decoding: "QueryError", tag });
            assert_eq!(unknown, !manifest.iter().any(|&(_, t)| t == tag), "error tag {tag}");
        }
    }

    #[test]
    fn truncation_is_detected_not_panicked() {
        let bytes = QueryRequest::PairsMatrix { rows: vec![1, 2, 3], cols: vec![4] }.to_bytes();
        for cut in 0..bytes.len() {
            let err = QueryRequest::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(matches!(err, WireError::Truncated { .. }), "cut at {cut}: {err:?}");
        }
    }

    #[test]
    fn unknown_tags_and_trailing_bytes_are_rejected() {
        assert_eq!(
            QueryRequest::from_bytes(&[200]),
            Err(WireError::UnknownTag { decoding: "QueryRequest", tag: 200 })
        );
        assert_eq!(
            QueryResponse::from_bytes(&[99]),
            Err(WireError::UnknownTag { decoding: "QueryResponse", tag: 99 })
        );
        let mut bytes = QueryRequest::Cohort { v: 1 }.to_bytes();
        bytes.push(0);
        assert_eq!(
            QueryRequest::from_bytes(&bytes),
            Err(WireError::TrailingBytes { remaining: 1 })
        );
    }

    #[test]
    fn the_reserved_request_tag_2_is_unknown() {
        // Tag 2 once carried a node id; a payload shaped like it decodes
        // as any unassigned tag does.
        assert_eq!(
            QueryRequest::from_bytes(&[2, 17, 0, 0, 0]),
            Err(WireError::UnknownTag { decoding: "QueryRequest", tag: 2 })
        );
    }

    #[test]
    fn corrupt_length_prefix_fails_cleanly_without_allocating() {
        // Tag SCORES + length u32::MAX, then nothing: must refuse, fast.
        let mut bytes = vec![RESP_SCORES];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(QueryResponse::from_bytes(&bytes), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn hostile_deep_nesting_is_rejected_not_a_stack_overflow() {
        // A buffer that is just BATCH headers nested 100k deep.
        let mut bytes = Vec::new();
        for _ in 0..100_000 {
            bytes.push(REQ_BATCH);
            bytes.extend_from_slice(&1u32.to_le_bytes());
        }
        assert_eq!(QueryRequest::from_bytes(&bytes), Err(WireError::TooDeep));
        // In-limit nesting still round-trips.
        let nested =
            QueryRequest::Batch(vec![QueryRequest::Batch(vec![QueryRequest::Cohort { v: 1 }])]);
        roundtrip(nested);
    }

    #[test]
    fn scores_roundtrip_bit_exactly() {
        // -0.0 and subnormals survive; equality on bits, not on ==.
        let resp = QueryResponse::Scores(vec![-0.0, 5e-324, 1.0 - f64::EPSILON]);
        let back = QueryResponse::from_bytes(&resp.to_bytes()).unwrap();
        match (resp, back) {
            (QueryResponse::Scores(a), QueryResponse::Scores(b)) => {
                assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
            }
            _ => unreachable!(),
        }
    }
}
