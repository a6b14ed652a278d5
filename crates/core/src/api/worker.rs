//! Wire payloads of the coordinator ⇄ worker protocol — the messages
//! behind the worker-control frame kinds
//! ([`FrameKind::LoadPartition`] … [`FrameKind::WorkerStats`]).
//!
//! The distributed substrate splits CloudWalker across processes: a
//! coordinator ([`crate::engine::distributed::DistributedEngine`]) that
//! partitions the graph and routes queries by source, and workers
//! (`pasco_worker`) that each own one partition's sources. Everything
//! they exchange is a [`WireCodec`] value inside an envelope frame:
//!
//! | kind | request payload | reply payload |
//! |---|---|---|
//! | `LoadPartition` | [`LoadPartition`]: `owned_part` + one `PASCOSH1` shard image | [`LoadAck`] |
//! | `BuildShard` | [`BuildShard`] | [`BuildShardReply`] |
//! | `ShardQuery` | [`ShardQuery`] | [`super::QueryResponse`] |
//! | `ShardTopK` | [`ShardTopK`] | [`ShardTopKReply`] |
//! | `WorkerStats` | *(empty)* | [`WorkerStats`] |
//! | `LoadStore` | [`LoadStore`]: a store directory's path + `owned_part` | [`LoadAck`] |
//!
//! The two load frames are two ways to hand a worker the same bytes: a
//! partition has one serialisation, the `PASCOSH1` image of
//! `pasco_store`, whether it sits in a shard file or rides in a frame.
//!
//! A failed request comes back as a [`FrameKind::Error`] frame carrying
//! a [`super::QueryError`] — same contract as the query protocol.
//!
//! Shipping the diagonal with every query would dominate query traffic
//! (`8n` bytes against a handful for the request), so [`DiagPayload`]
//! carries a fingerprint and ships the values only when the worker has
//! not acknowledged that fingerprint yet — the coordinator tracks per
//! worker what it last shipped.
//!
//! [`FrameKind::LoadPartition`]: super::envelope::FrameKind::LoadPartition
//! [`FrameKind::WorkerStats`]: super::envelope::FrameKind::WorkerStats
//! [`FrameKind::Error`]: super::envelope::FrameKind::Error

use super::wire::{
    decode_ranked, decode_scores, decode_str, encode_ranked, encode_scores, encode_str, read_f64,
    read_len, read_u32, read_u64, read_u8, WireCodec, WireError,
};
use crate::config::{AiStrategy, SimRankConfig};
use bytes::{Buf, BufMut};
use pasco_graph::NodeId;

/// A stable fingerprint of a diagonal index (FNV-1a over the IEEE bit
/// patterns plus the length), used to avoid re-shipping the diagonal on
/// every routed query. Not cryptographic — it guards against stale
/// caches, not adversaries; a coordinator that must not trust its
/// workers should re-ship (`DiagPayload::full`) every time.
pub fn diag_fingerprint(diag: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for b in (diag.len() as u64).to_le_bytes() {
        mix(b);
    }
    for v in diag {
        for b in v.to_bits().to_le_bytes() {
            mix(b);
        }
    }
    h
}

/// The diagonal index as query luggage: always the fingerprint, plus
/// the values when the receiving worker has not cached that fingerprint.
#[derive(Clone, Debug, PartialEq)]
pub struct DiagPayload {
    /// [`diag_fingerprint`] of the diagonal this query scores against.
    pub fingerprint: u64,
    /// The diagonal values, present on the first query per (worker,
    /// diagonal) and absent once the worker has acknowledged the
    /// fingerprint.
    pub values: Option<Vec<f64>>,
}

impl DiagPayload {
    /// A payload shipping the full diagonal.
    pub fn full(diag: &[f64]) -> Self {
        DiagPayload { fingerprint: diag_fingerprint(diag), values: Some(diag.to_vec()) }
    }

    /// A payload referencing a diagonal the worker already holds.
    pub fn cached(fingerprint: u64) -> Self {
        DiagPayload { fingerprint, values: None }
    }
}

impl WireCodec for DiagPayload {
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u64_le(self.fingerprint);
        match &self.values {
            None => buf.put_u8(0),
            Some(values) => {
                buf.put_u8(1);
                encode_scores(values, buf);
            }
        }
    }

    fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        const WHAT: &str = "DiagPayload";
        let fingerprint = read_u64(buf, WHAT)?;
        let values = match read_u8(buf, WHAT)? {
            0 => None,
            1 => Some(decode_scores(buf, WHAT)?),
            tag => return Err(WireError::UnknownTag { decoding: WHAT, tag }),
        };
        Ok(DiagPayload { fingerprint, values })
    }

    fn encoded_len(&self) -> usize {
        9 + self.values.as_ref().map_or(0, |v| 4 + 8 * v.len())
    }
}

// ---- configuration ------------------------------------------------------

impl WireCodec for SimRankConfig {
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_f64_le(self.c);
        buf.put_u64_le(self.t as u64);
        buf.put_u64_le(self.l as u64);
        buf.put_u32_le(self.r);
        buf.put_u32_le(self.r_query);
        buf.put_u32_le(self.r_forward);
        buf.put_u64_le(self.seed);
        match self.ai_strategy {
            AiStrategy::Store => buf.put_u8(0),
            AiStrategy::Recompute => buf.put_u8(1),
            AiStrategy::Auto { budget_bytes } => {
                buf.put_u8(2);
                buf.put_u64_le(budget_bytes);
            }
        }
    }

    fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        const WHAT: &str = "SimRankConfig";
        Ok(SimRankConfig {
            c: read_f64(buf, WHAT)?,
            t: read_u64(buf, WHAT)? as usize,
            l: read_u64(buf, WHAT)? as usize,
            r: read_u32(buf, WHAT)?,
            r_query: read_u32(buf, WHAT)?,
            r_forward: read_u32(buf, WHAT)?,
            seed: read_u64(buf, WHAT)?,
            ai_strategy: match read_u8(buf, WHAT)? {
                0 => AiStrategy::Store,
                1 => AiStrategy::Recompute,
                2 => AiStrategy::Auto { budget_bytes: read_u64(buf, WHAT)? },
                tag => return Err(WireError::UnknownTag { decoding: WHAT, tag }),
            },
        })
    }

    fn encoded_len(&self) -> usize {
        45 + match self.ai_strategy {
            AiStrategy::Auto { .. } => 8,
            _ => 0,
        }
    }
}

// ---- partitions ---------------------------------------------------------

/// One partition shipped to one worker, as its `PASCOSH1` shard image —
/// byte for byte the file `pasco save-store` would write for it
/// ([`pasco_store::write_partition`] into memory instead of into a file).
/// `n`, `parts`, the partition index, its node range and the adjacency
/// arrays are all read from the image's validated header, not repeated
/// beside it; at connect time no index exists yet, so the image is
/// *graph-only* (an empty `diag` section). The worker validates it as it
/// would a shard file (`pasco_store::MappedShard::from_bytes`): a corrupt
/// or foreign payload is a typed [`super::QueryError::WorkerUnavailable`]
/// carrying the store's error, never a panic.
///
/// Every worker receives **all** `parts` partitions — the reverse and
/// forward walk kernels follow edges across partition boundaries, so full
/// adjacency must be resident (the paper's broadcast side of the hybrid)
/// — while `owned_part` names the single partition whose sources this
/// worker builds rows for and answers queries about (the
/// partition-by-source side).
///
/// Tag 7 kept its number when the payload became an image: the frame
/// still means "ship one partition, answer [`LoadAck`]", coordinator and
/// workers ship from one build, and both cross-version directions fail
/// typed — an older worker cannot decode the payload and drops the link
/// (the coordinator reports the worker unavailable), a newer worker reads
/// an older payload's bytes 4..12 where the magic belongs and answers
/// "bad store magic".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoadPartition {
    /// The partition index this *worker* owns (constant across the
    /// worker's `LoadPartition` frames).
    pub owned_part: u32,
    /// The partition's shard image; runs to the end of the frame.
    pub image: Vec<u8>,
}

impl WireCodec for LoadPartition {
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u32_le(self.owned_part);
        buf.put_slice(&self.image);
    }

    fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        let owned_part = read_u32(buf, "LoadPartition")?;
        // Sized by the bytes actually present, not by a length field.
        let mut image = vec![0u8; buf.remaining()];
        buf.copy_to_slice(&mut image);
        Ok(LoadPartition { owned_part, image })
    }

    fn encoded_len(&self) -> usize {
        4 + self.image.len()
    }
}

/// Out-of-core provisioning: instead of receiving `parts` shard images
/// over the wire, the worker maps the named store directory in place
/// (the same images, one file per partition) and serves straight from
/// the page cache. The directory must be reachable on the *worker's*
/// filesystem — shared storage, or a store copied there beforehand —
/// which is exactly the point: a few dozen bytes of path replace the
/// `O(E)` adjacency shuffle, and the store's on-disk diagonal index
/// rides along for free (a graph-only store has none; queries then ship
/// it through [`DiagPayload`] as on the wire path). Acknowledged with a
/// [`LoadAck`] whose `loaded` jumps straight to `parts`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoadStore {
    /// Path of the store directory on the worker's filesystem.
    pub dir: String,
    /// The partition index whose sources this worker serves.
    pub owned_part: u32,
}

impl WireCodec for LoadStore {
    fn encode(&self, buf: &mut impl BufMut) {
        encode_str(&self.dir, buf);
        buf.put_u32_le(self.owned_part);
    }

    fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        const WHAT: &str = "LoadStore";
        Ok(LoadStore { dir: decode_str(buf, WHAT)?, owned_part: read_u32(buf, WHAT)? })
    }

    fn encoded_len(&self) -> usize {
        8 + self.dir.len()
    }
}

/// The worker's acknowledgement of one [`LoadPartition`] or
/// [`LoadStore`] frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoadAck {
    /// Shard-image bytes the worker holds after this load (all partitions
    /// received so far), header and padding included — the same quantity
    /// on both provisioning paths; for a mapped directory the pages
    /// materialise lazily.
    pub resident_bytes: u64,
    /// How many of the announced partitions the worker now holds; the
    /// worker is query-ready when this reaches `parts`.
    pub loaded: u32,
}

impl WireCodec for LoadAck {
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u64_le(self.resident_bytes);
        buf.put_u32_le(self.loaded);
    }

    fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        const WHAT: &str = "LoadAck";
        Ok(LoadAck { resident_bytes: read_u64(buf, WHAT)?, loaded: read_u32(buf, WHAT)? })
    }

    fn encoded_len(&self) -> usize {
        12
    }
}

/// The shard-local offline build: walk every owned source's `R`-walker
/// cohort and materialise its row of the linear system. The rows return
/// to the coordinator, which runs the (cheap, `O(nnz)`-per-sweep)
/// Jacobi solve over the assembled system — the walk work, which
/// dominates the offline phase, is what distributes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BuildShard {
    /// The full CloudWalker parameter set (walks derive from `seed`, so
    /// shipping it preserves bit-identical rows).
    pub cfg: SimRankConfig,
}

impl WireCodec for BuildShard {
    fn encode(&self, buf: &mut impl BufMut) {
        self.cfg.encode(buf);
    }

    fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        Ok(BuildShard { cfg: SimRankConfig::decode(buf)? })
    }

    fn encoded_len(&self) -> usize {
        self.cfg.encoded_len()
    }
}

/// The worker's owned rows, in owned-node order (`start..end`).
#[derive(Clone, Debug, PartialEq)]
pub struct BuildShardReply {
    /// Row `i - start` is the sparse system row `aᵢ`, sorted by column.
    pub rows: Vec<Vec<(NodeId, f64)>>,
}

impl WireCodec for BuildShardReply {
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u32_le(self.rows.len() as u32);
        for row in &self.rows {
            encode_ranked(row, buf);
        }
    }

    fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        const WHAT: &str = "BuildShardReply";
        // Rows are ≥ 4 bytes each (their own length prefix).
        let len = read_len(buf, 4, WHAT)?;
        Ok(BuildShardReply {
            rows: (0..len).map(|_| decode_ranked(buf, WHAT)).collect::<Result<_, _>>()?,
        })
    }

    fn encoded_len(&self) -> usize {
        4 + self.rows.iter().map(|r| 4 + 12 * r.len()).sum::<usize>()
    }
}

/// Which query a [`ShardQuery`] carries. Only the kinds whose whole
/// computation runs on the owning worker appear here; top-`k` has its
/// own frame ([`ShardTopK`]) because its reply shape (per-partition
/// rankings for the coordinator's merge) differs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardQueryKind {
    /// MCSP: both cohorts simulated on the worker owning `i`.
    SinglePair {
        /// First node (the routing key).
        i: NodeId,
        /// Second node.
        j: NodeId,
    },
    /// Dense MCSS from `i`.
    SingleSource {
        /// The query node (the routing key).
        i: NodeId,
    },
    /// The raw query cohort of `v`.
    Cohort {
        /// The cohort's source (the routing key).
        v: NodeId,
    },
}

const SHARD_SINGLE_PAIR: u8 = 0;
const SHARD_SINGLE_SOURCE: u8 = 1;
const SHARD_COHORT: u8 = 2;

/// One routed query: the config and diagonal it scores against plus the
/// query itself. Answered with a [`super::QueryResponse`] payload
/// (`Score` / `Scores` / `Cohort`).
#[derive(Clone, Debug, PartialEq)]
pub struct ShardQuery {
    /// The CloudWalker parameters (query walks derive from `cfg.seed`).
    pub cfg: SimRankConfig,
    /// The diagonal index, by fingerprint or in full.
    pub diag: DiagPayload,
    /// The query.
    pub kind: ShardQueryKind,
}

impl WireCodec for ShardQuery {
    fn encode(&self, buf: &mut impl BufMut) {
        self.cfg.encode(buf);
        self.diag.encode(buf);
        match self.kind {
            ShardQueryKind::SinglePair { i, j } => {
                buf.put_u8(SHARD_SINGLE_PAIR);
                buf.put_u32_le(i);
                buf.put_u32_le(j);
            }
            ShardQueryKind::SingleSource { i } => {
                buf.put_u8(SHARD_SINGLE_SOURCE);
                buf.put_u32_le(i);
            }
            ShardQueryKind::Cohort { v } => {
                buf.put_u8(SHARD_COHORT);
                buf.put_u32_le(v);
            }
        }
    }

    fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        const WHAT: &str = "ShardQuery";
        let cfg = SimRankConfig::decode(buf)?;
        let diag = DiagPayload::decode(buf)?;
        let kind = match read_u8(buf, WHAT)? {
            SHARD_SINGLE_PAIR => {
                ShardQueryKind::SinglePair { i: read_u32(buf, WHAT)?, j: read_u32(buf, WHAT)? }
            }
            SHARD_SINGLE_SOURCE => ShardQueryKind::SingleSource { i: read_u32(buf, WHAT)? },
            SHARD_COHORT => ShardQueryKind::Cohort { v: read_u32(buf, WHAT)? },
            tag => return Err(WireError::UnknownTag { decoding: WHAT, tag }),
        };
        Ok(ShardQuery { cfg, diag, kind })
    }

    fn encoded_len(&self) -> usize {
        self.cfg.encoded_len()
            + self.diag.encoded_len()
            + match self.kind {
                ShardQueryKind::SinglePair { .. } => 9,
                ShardQueryKind::SingleSource { .. } | ShardQueryKind::Cohort { .. } => 5,
            }
    }
}

/// The distributed top-`k` plan's routed stage: the worker owning `i`
/// accumulates the sparse masses, splits the candidates by owning
/// partition, ranks each split, and replies with the per-partition
/// rankings ([`ShardTopKReply`]) — only `parts × k` entries cross the
/// wire, and the coordinator finishes with the shared k-way merge.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardTopK {
    /// The CloudWalker parameters.
    pub cfg: SimRankConfig,
    /// The diagonal index, by fingerprint or in full.
    pub diag: DiagPayload,
    /// The query node (the routing key).
    pub i: NodeId,
    /// How many neighbours to return.
    pub k: u64,
}

impl WireCodec for ShardTopK {
    fn encode(&self, buf: &mut impl BufMut) {
        self.cfg.encode(buf);
        self.diag.encode(buf);
        buf.put_u32_le(self.i);
        buf.put_u64_le(self.k);
    }

    fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        const WHAT: &str = "ShardTopK";
        Ok(ShardTopK {
            cfg: SimRankConfig::decode(buf)?,
            diag: DiagPayload::decode(buf)?,
            i: read_u32(buf, WHAT)?,
            k: read_u64(buf, WHAT)?,
        })
    }

    fn encoded_len(&self) -> usize {
        self.cfg.encoded_len() + self.diag.encoded_len() + 12
    }
}

/// Per-partition top-`k` rankings, each sorted by the shared ranking
/// comparator, in partition order.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardTopKReply {
    /// `lists[p]` ranks the candidates owned by partition `p`.
    pub lists: Vec<Vec<(NodeId, f64)>>,
}

impl WireCodec for ShardTopKReply {
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u32_le(self.lists.len() as u32);
        for list in &self.lists {
            encode_ranked(list, buf);
        }
    }

    fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        const WHAT: &str = "ShardTopKReply";
        let len = read_len(buf, 4, WHAT)?;
        Ok(ShardTopKReply {
            lists: (0..len).map(|_| decode_ranked(buf, WHAT)).collect::<Result<_, _>>()?,
        })
    }

    fn encoded_len(&self) -> usize {
        4 + self.lists.iter().map(|l| 4 + 12 * l.len()).sum::<usize>()
    }
}

/// A worker's runtime report — the per-worker rows of the distributed
/// substrate's accounting, alongside the coordinator's
/// [`pasco_cluster::ClusterReport`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// The partition whose sources this worker serves.
    pub owned_part: u32,
    /// How many nodes that partition owns.
    pub owned_nodes: u32,
    /// Image bytes of all partitions held (full adjacency), however the
    /// worker was provisioned.
    pub resident_bytes: u64,
    /// Image bytes of the owned partition alone — the per-worker share
    /// that shrinks as workers are added.
    pub owned_bytes: u64,
    /// Offline builds served.
    pub builds: u64,
    /// Routed [`ShardQuery`] requests served.
    pub queries: u64,
    /// Routed [`ShardTopK`] requests served.
    pub topk_queries: u64,
}

impl WireCodec for WorkerStats {
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u32_le(self.owned_part);
        buf.put_u32_le(self.owned_nodes);
        buf.put_u64_le(self.resident_bytes);
        buf.put_u64_le(self.owned_bytes);
        buf.put_u64_le(self.builds);
        buf.put_u64_le(self.queries);
        buf.put_u64_le(self.topk_queries);
    }

    fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        const WHAT: &str = "WorkerStats";
        Ok(WorkerStats {
            owned_part: read_u32(buf, WHAT)?,
            owned_nodes: read_u32(buf, WHAT)?,
            resident_bytes: read_u64(buf, WHAT)?,
            owned_bytes: read_u64(buf, WHAT)?,
            builds: read_u64(buf, WHAT)?,
            queries: read_u64(buf, WHAT)?,
            topk_queries: read_u64(buf, WHAT)?,
        })
    }

    fn encoded_len(&self) -> usize {
        48
    }
}

/// An empty payload (the [`WorkerStats`] request body).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Empty;

impl WireCodec for Empty {
    fn encode(&self, _buf: &mut impl BufMut) {}

    fn decode(_buf: &mut impl Buf) -> Result<Self, WireError> {
        Ok(Empty)
    }

    fn encoded_len(&self) -> usize {
        0
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
    fn every_control_payload_roundtrips() {
        let cfg = SimRankConfig::fast().with_seed(77);
        // The image is opaque to the codec (the store validates it) and
        // runs to the end of the frame, empty included.
        roundtrip(LoadPartition { owned_part: 1, image: b"PASCOSH1 and so on".to_vec() });
        roundtrip(LoadPartition { owned_part: u32::MAX, image: Vec::new() });
        roundtrip(LoadAck { resident_bytes: 1 << 40, loaded: 2 });
        roundtrip(LoadStore { dir: "/mnt/shared/stores/web-graph".into(), owned_part: 3 });
        roundtrip(LoadStore { dir: String::new(), owned_part: 0 });
        roundtrip(BuildShard { cfg });
        roundtrip(BuildShard { cfg: cfg.with_ai_strategy(AiStrategy::Recompute) });
        roundtrip(BuildShardReply {
            rows: vec![vec![(0, 1.5), (7, 0.25)], vec![], vec![(3, 1.0)]],
        });
        roundtrip(ShardQuery {
            cfg,
            diag: DiagPayload::full(&[0.5, 1.0, 0.25]),
            kind: ShardQueryKind::SinglePair { i: 3, j: 9 },
        });
        roundtrip(ShardQuery {
            cfg,
            diag: DiagPayload::cached(42),
            kind: ShardQueryKind::SingleSource { i: 3 },
        });
        roundtrip(ShardQuery {
            cfg,
            diag: DiagPayload::cached(7),
            kind: ShardQueryKind::Cohort { v: 59 },
        });
        roundtrip(ShardTopK { cfg, diag: DiagPayload::cached(1), i: 4, k: u64::MAX });
        roundtrip(ShardTopKReply {
            lists: vec![vec![(1, 0.5)], vec![], vec![(2, 0.25), (9, 0.1)]],
        });
        roundtrip(WorkerStats {
            owned_part: 2,
            owned_nodes: 20,
            resident_bytes: 4096,
            owned_bytes: 1024,
            builds: 1,
            queries: 17,
            topk_queries: 3,
        });
        roundtrip(Empty);
    }

    #[test]
    fn diag_fingerprint_tracks_content_and_length() {
        let a = [0.5, 0.25, 1.0];
        let b = [0.5, 0.25, 1.0];
        let c = [0.5, 0.25];
        let d = [0.5, 0.25, 1.0 - f64::EPSILON];
        assert_eq!(diag_fingerprint(&a), diag_fingerprint(&b));
        assert_ne!(diag_fingerprint(&a), diag_fingerprint(&c));
        assert_ne!(diag_fingerprint(&a), diag_fingerprint(&d));
        // -0.0 and 0.0 differ bitwise, so they must fingerprint apart
        // (the diagonal comparison everywhere else is bitwise too).
        assert_ne!(diag_fingerprint(&[0.0]), diag_fingerprint(&[-0.0]));
    }

    #[test]
    fn truncation_is_detected_for_control_payloads() {
        let msg = ShardTopK {
            cfg: SimRankConfig::fast(),
            diag: DiagPayload::full(&[0.5; 16]),
            i: 3,
            k: 10,
        };
        let bytes = msg.to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                matches!(
                    ShardTopK::from_bytes(&bytes[..cut]),
                    Err(WireError::Truncated { .. } | WireError::UnknownTag { .. })
                ),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn rows_type_matches_node_id_width() {
        // The rows the build ships are the solver's sparse rows; a silent
        // NodeId width change must break this test, not the protocol.
        let row: Vec<(NodeId, f64)> = vec![(u32::MAX, 1.0)];
        roundtrip(BuildShardReply { rows: vec![row] });
    }
}
