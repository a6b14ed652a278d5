//! Integration: the typed query API. (a) Every `QueryRequest` /
//! `QueryResponse` round-trips bit-exactly through the binary wire codec
//! on randomly generated values; (b) `QueryService::execute` answers —
//! on both `QuerySession` and the bare `CloudWalker` adapter — are
//! identical to the direct method calls for every query kind; (c) the
//! old out-of-range panic is gone from the service path; (d) the wire
//! hostile suite: byte soup, forged length prefixes and every-cut
//! truncation against **every** `WireCodec` impl (client frames, the
//! handshake, cohorts and the twelve worker-control payloads) and the
//! resumable `FrameDecoder` — the run-time holder of "no wire length
//! reaches an allocation unchecked".

use pasco::graph::generators;
use pasco::mc::walks::StepDistributions;
use pasco::simrank::api::envelope::{Envelope, FrameKind, ServerInfo};
use pasco::simrank::api::transport::FrameDecoder;
use pasco::simrank::api::wire::{WireCodec, WireError};
use pasco::simrank::api::worker::{
    BuildShard, BuildShardReply, DiagPayload, Empty, LoadAck, LoadPartition, LoadStore, ShardQuery,
    ShardQueryKind, WorkerStats,
};
use pasco::simrank::api::{QueryError, QueryRequest, QueryResponse, QueryService};
use pasco::simrank::{CloudWalker, ExecMode, QuerySession, SimRankConfig};
use proptest::prelude::*;
use proptest::TestRng;
use std::sync::{Arc, OnceLock};

const NODES: u32 = 80;

fn walker() -> &'static Arc<CloudWalker> {
    static WALKER: OnceLock<Arc<CloudWalker>> = OnceLock::new();
    WALKER.get_or_init(|| {
        let g = Arc::new(generators::barabasi_albert(NODES, 3, 11));
        Arc::new(CloudWalker::build(g, SimRankConfig::fast(), ExecMode::Local).unwrap())
    })
}

// ---- random value generators ------------------------------------------

fn gen_f64(rng: &mut TestRng) -> f64 {
    // Mixed population: unit-interval scores plus exact edge values.
    match rng.next_u64() % 8 {
        0 => 0.0,
        1 => -0.0,
        2 => 1.0,
        3 => f64::MIN_POSITIVE,
        _ => (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64,
    }
}

fn gen_nodes(rng: &mut TestRng, max_len: usize) -> Vec<u32> {
    let len = rng.next_u64() as usize % (max_len + 1);
    (0..len).map(|_| (rng.next_u64() >> 32) as u32).collect()
}

/// One random request, spanning every variant; `batch_ok` gates whether
/// a (flat) batch may be drawn.
fn gen_request(rng: &mut TestRng, batch_ok: bool) -> QueryRequest {
    match rng.next_u64() % if batch_ok { 6 } else { 5 } {
        0 => QueryRequest::SinglePair {
            i: (rng.next_u64() >> 32) as u32,
            j: (rng.next_u64() >> 32) as u32,
        },
        1 => QueryRequest::SingleSource { i: (rng.next_u64() >> 32) as u32 },
        2 => QueryRequest::SingleSourceTopK { i: (rng.next_u64() >> 32) as u32, k: rng.next_u64() },
        3 => QueryRequest::Cohort { v: (rng.next_u64() >> 32) as u32 },
        4 => QueryRequest::PairsMatrix { rows: gen_nodes(rng, 6), cols: gen_nodes(rng, 6) },
        _ => {
            let len = 1 + rng.next_u64() as usize % 4;
            QueryRequest::Batch((0..len).map(|_| gen_request(rng, false)).collect())
        }
    }
}

fn gen_response(rng: &mut TestRng, batch_ok: bool) -> QueryResponse {
    match rng.next_u64() % if batch_ok { 6 } else { 5 } {
        0 => QueryResponse::Score(gen_f64(rng)),
        1 => {
            let len = rng.next_u64() as usize % 8;
            QueryResponse::Scores((0..len).map(|_| gen_f64(rng)).collect())
        }
        2 => {
            let len = rng.next_u64() as usize % 8;
            QueryResponse::Ranked(
                (0..len).map(|_| ((rng.next_u64() >> 32) as u32, gen_f64(rng))).collect(),
            )
        }
        3 => {
            let rows = rng.next_u64() as usize % 5;
            QueryResponse::Matrix(
                (0..rows)
                    .map(|_| {
                        let cols = rng.next_u64() as usize % 5;
                        (0..cols).map(|_| gen_f64(rng)).collect()
                    })
                    .collect(),
            )
        }
        4 => {
            let steps = rng.next_u64() as usize % 5;
            QueryResponse::Cohort(pasco::mc::walks::StepDistributions {
                source: (rng.next_u64() >> 32) as u32,
                walkers: (rng.next_u64() >> 32) as u32,
                counts: (0..=steps)
                    .map(|_| {
                        let len = rng.next_u64() as usize % 6;
                        (0..len).map(|_| ((rng.next_u64() >> 32) as u32, rng.next_u64())).collect()
                    })
                    .collect(),
            })
        }
        _ => {
            let len = rng.next_u64() as usize % 4;
            QueryResponse::Batch((0..len).map(|_| gen_response(rng, false)).collect())
        }
    }
}

/// Strategy adapters so the generators plug into `proptest!`.
struct AnyRequest;
impl Strategy for AnyRequest {
    type Value = QueryRequest;
    fn generate(&self, rng: &mut TestRng) -> QueryRequest {
        gen_request(rng, true)
    }
}

struct AnyResponse;
impl Strategy for AnyResponse {
    type Value = QueryResponse;
    fn generate(&self, rng: &mut TestRng) -> QueryResponse {
        gen_response(rng, true)
    }
}

/// Round trip plus bit-exactness: decoding and re-encoding must
/// reproduce the original byte string exactly (catches -0.0 vs 0.0 and
/// any lossy field), and `encoded_len` must match reality.
fn assert_exact_roundtrip<T: WireCodec + PartialEq + std::fmt::Debug>(value: &T) {
    let bytes = value.to_bytes();
    assert_eq!(bytes.len(), value.encoded_len(), "{value:?}");
    let back = T::from_bytes(&bytes).unwrap();
    assert_eq!(&back, value);
    assert_eq!(back.to_bytes(), bytes, "re-encode must be byte-identical");
}

// ---- the hostile suite's inputs: every codec ---------------------------

/// The frame limit the hostile suites decode under: far above any sample,
/// far below what a forged `u32::MAX` length asks for.
const MAX_FRAME: u32 = 1 << 20;

/// One wire type as the hostile suites see it: the valid encoding of a
/// representative value and the type's whole-buffer decoder with the value
/// erased (did it decode?).
struct Codec {
    name: &'static str,
    sample: Vec<u8>,
    decodes: fn(&[u8]) -> bool,
    /// The encoding's last field runs to the end of the buffer (no length
    /// prefix), so a cut inside it is a shorter valid value, not an error.
    open_tail_from: Option<usize>,
}

fn codec<T: WireCodec + PartialEq + std::fmt::Debug>(name: &'static str, value: T) -> Codec {
    assert_exact_roundtrip(&value);
    Codec {
        name,
        sample: value.to_bytes(),
        decodes: |b| T::from_bytes(b).is_ok(),
        open_tail_from: None,
    }
}

/// Every `WireCodec` impl in the workspace — a new impl belongs here —
/// plus the framed `Envelope`, which has its own `from_bytes`.
fn every_codec() -> Vec<Codec> {
    let cfg = SimRankConfig::fast();
    let diag = DiagPayload::full(&[0.5, 0.25, 1.0]);
    let cohort = StepDistributions {
        source: 3,
        walkers: 10,
        counts: vec![vec![(3, 10)], vec![(1, 4), (2, 6)]],
    };
    let ranked = vec![vec![(1, 0.5), (7, 0.25)], vec![], vec![(3, 1.0)]];
    let request = QueryRequest::Batch(vec![
        QueryRequest::PairsMatrix { rows: vec![1, 2], cols: vec![3] },
        QueryRequest::SingleSourceTopK { i: 4, k: 9 },
    ]);
    let frame = Envelope::request(7, &request);
    vec![
        codec("QueryRequest", request),
        codec(
            "QueryResponse",
            QueryResponse::Batch(vec![
                QueryResponse::Matrix(vec![vec![0.5, 1.0], vec![0.25]]),
                QueryResponse::Ranked(ranked[0].clone()),
                QueryResponse::Cohort(cohort.clone()),
            ]),
        ),
        codec("QueryError", QueryError::WorkerUnavailable { detail: "worker 2 hung up".into() }),
        codec("StepDistributions", cohort),
        codec("ServerInfo", ServerInfo { node_count: 80, max_frame_bytes: MAX_FRAME }),
        codec("DiagPayload", diag.clone()),
        codec("SimRankConfig", cfg),
        // `owned_part`, then the image to the end of the frame.
        Codec {
            open_tail_from: Some(4),
            ..codec(
                "LoadPartition",
                LoadPartition { owned_part: 1, image: b"PASCOSH1-not-really".to_vec() },
            )
        },
        codec("LoadStore", LoadStore { dir: "/srv/store".into(), owned_part: 1 }),
        codec("LoadAck", LoadAck { resident_bytes: 4096, loaded: 2 }),
        codec("BuildShard", BuildShard { cfg }),
        codec("BuildShardReply", BuildShardReply { rows: ranked }),
        codec(
            "ShardQuery",
            ShardQuery { cfg, diag: diag.clone(), kind: ShardQueryKind::SinglePair { i: 1, j: 2 } },
        ),
        codec(
            "ShardQuery",
            ShardQuery { cfg, diag, kind: ShardQueryKind::SingleSourceTopK { i: 5, k: 10 } },
        ),
        codec("WorkerStats", WorkerStats { owned_part: 1, owned_nodes: 40, ..Default::default() }),
        codec("Empty", Empty),
        Codec {
            name: "Envelope",
            sample: frame.to_bytes(),
            decodes: |b| Envelope::from_bytes(b, MAX_FRAME).is_ok(),
            open_tail_from: None,
        },
    ]
}

/// Feeds `bytes` to a fresh [`FrameDecoder`] one byte at a time — the way
/// a trickling peer would — and returns the frames completed before the
/// stream ended or turned fatal.
fn feed_bytewise(bytes: &[u8]) -> Vec<Envelope> {
    let mut decoder = FrameDecoder::new(MAX_FRAME);
    let mut frames = Vec::new();
    for byte in bytes {
        match decoder.feed(std::slice::from_ref(byte)) {
            Ok((used, frame)) => {
                assert_eq!(used, 1, "a one-byte chunk is always consumed");
                frames.extend(frame);
            }
            Err(_) => break,
        }
    }
    frames
}

/// Every strict prefix of every codec's sample fails typed (a cut inside
/// an open tail is a shorter value instead), the whole sample decodes,
/// and a sample framed and trickled bytewise through the `FrameDecoder`
/// comes out as the one frame that went in.
#[test]
fn every_truncation_of_every_codec_fails_typed() {
    for c in every_codec() {
        assert!((c.decodes)(&c.sample), "{}: the sample itself", c.name);
        for cut in 0..c.sample.len() {
            let ok = (c.decodes)(&c.sample[..cut]);
            let open = c.open_tail_from.is_some_and(|from| cut >= from);
            assert_eq!(ok, open, "{}: cut at {cut} of {}", c.name, c.sample.len());
        }
        let frame = Envelope { kind: FrameKind::Request, request_id: 9, payload: c.sample.clone() };
        let wire = frame.to_bytes();
        assert_eq!(feed_bytewise(&wire), vec![frame], "{}: bytewise reassembly", c.name);
        for cut in 0..wire.len() {
            assert!(feed_bytewise(&wire[..cut]).is_empty(), "{}: frame cut at {cut}", c.name);
        }
    }
    // The PR 19 hole: a cohort announcing zero step histograms decoded to
    // a value whose `steps()` underflowed.
    let mut no_steps = Vec::new();
    for word in [3u32, 10, 0] {
        no_steps.extend_from_slice(&word.to_le_bytes());
    }
    assert!(matches!(
        StepDistributions::from_bytes(&no_steps),
        Err(WireError::Invalid { decoding: "StepDistributions", .. })
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary requests survive the wire bit-exactly.
    #[test]
    fn request_wire_roundtrip_is_exact(req in AnyRequest) {
        assert_exact_roundtrip(&req);
    }

    /// Arbitrary responses survive the wire bit-exactly.
    #[test]
    fn response_wire_roundtrip_is_exact(resp in AnyResponse) {
        assert_exact_roundtrip(&resp);
    }

    /// Corrupting any single byte of an encoded request never panics the
    /// decoder: it either fails typed or decodes to some (other) value.
    #[test]
    fn decoder_tolerates_single_byte_corruption(req in AnyRequest, flip in 0u64..1_000) {
        let mut bytes = req.to_bytes();
        let pos = flip as usize % bytes.len();
        bytes[pos] ^= 0xff;
        let _ = QueryRequest::from_bytes(&bytes); // must return, not panic
    }

    /// Adversarial input: arbitrary byte soup into every decoder — every
    /// `WireCodec` impl, framed envelopes, and the resumable
    /// `FrameDecoder` fed one byte at a time — must return (typed error or
    /// a decoded value), never panic, and never reserve capacity from an
    /// unvalidated length. Pure soup dies at the first tag byte, so each
    /// case also splices soup into a valid sample of every codec and
    /// frames the soup behind a valid header. A decoder that trusted a
    /// corrupt prefix would OOM-abort here long before 256 cases finished.
    #[test]
    fn decoders_survive_arbitrary_byte_soup(seed in proptest::any::<u64>()) {
        let mut rng = TestRng::for_case("api::byte_soup", seed as u32);
        let len = (rng.next_u64() % 128) as usize;
        let soup: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let codecs = every_codec();
        for c in &codecs {
            let _ = (c.decodes)(&soup);
            let mut spliced = c.sample.clone();
            for _ in 0..(1 + rng.next_u64() % 4).min(spliced.len() as u64) {
                let at = rng.next_u64() as usize % spliced.len();
                spliced[at] = rng.next_u64() as u8;
            }
            let _ = (c.decodes)(&spliced);
            feed_bytewise(&spliced);
        }
        feed_bytewise(&soup);
        let framed =
            Envelope { kind: FrameKind::Request, request_id: seed, payload: soup }.to_bytes();
        for frame in feed_bytewise(&framed) {
            for c in &codecs {
                let _ = (c.decodes)(&frame.payload);
            }
        }
    }

    /// A hostile peer rewriting any aligned window of a valid encoding
    /// into a maximal length prefix gets a clean failure (or a benign
    /// reinterpretation), not a gigabyte allocation — on random requests
    /// and responses, whose score rows are the largest repeated fields,
    /// and on the sample of every codec. Each buffer is under 1 KB: a
    /// forged `u32::MAX` count that reached `with_capacity` aborts the
    /// test on a multi-GB allocation, and that abort is the assertion.
    #[test]
    fn hostile_length_prefixes_cannot_force_oom_allocations(
        req in AnyRequest,
        resp in AnyResponse,
        pos in proptest::any::<u64>(),
    ) {
        let forge = |bytes: &mut [u8]| {
            if bytes.len() >= 4 {
                let p = pos as usize % (bytes.len() - 3);
                bytes[p..p + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            }
        };
        let mut bytes = req.to_bytes();
        forge(&mut bytes);
        let _ = QueryRequest::from_bytes(&bytes);
        let mut bytes = resp.to_bytes();
        forge(&mut bytes);
        let _ = QueryResponse::from_bytes(&bytes);
        for c in every_codec() {
            let mut bytes = c.sample;
            forge(&mut bytes);
            let _ = (c.decodes)(&bytes);
            // The same forgery inside a frame, and *as* the frame's own
            // header (its payload length included), trickled bytewise.
            feed_bytewise(&bytes);
            let mut framed =
                Envelope { kind: FrameKind::Request, request_id: pos, payload: bytes }.to_bytes();
            forge(&mut framed);
            feed_bytewise(&framed);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `QueryService::execute` equals the direct method calls for every
    /// query kind, on both implementations, for random in-range inputs.
    #[test]
    fn execute_matches_direct_methods(seed in proptest::any::<u64>()) {
        let cw = walker();
        let session = QuerySession::new(Arc::clone(cw), 16);
        let mut rng = TestRng::for_case("api::execute_matches", seed as u32);
        let node = |rng: &mut TestRng| (rng.next_u64() % NODES as u64) as u32;
        let (i, j) = (node(&mut rng), node(&mut rng));
        let k = 1 + rng.next_u64() % 10;
        for svc in [cw.as_ref() as &dyn QueryService, &session] {
            prop_assert_eq!(
                svc.execute(QueryRequest::SinglePair { i, j }).unwrap(),
                QueryResponse::Score(cw.try_single_pair(i, j).unwrap())
            );
            prop_assert_eq!(
                svc.execute(QueryRequest::SingleSource { i }).unwrap(),
                QueryResponse::Scores(cw.try_single_source(i).unwrap())
            );
            prop_assert_eq!(
                svc.execute(QueryRequest::SingleSourceTopK { i, k }).unwrap(),
                QueryResponse::Ranked(cw.try_single_source_topk(i, k as usize).unwrap())
            );
            prop_assert_eq!(
                svc.execute(QueryRequest::Cohort { v: i }).unwrap(),
                QueryResponse::Cohort(cw.try_query_cohort(i).unwrap())
            );
            prop_assert_eq!(
                svc.execute(QueryRequest::PairsMatrix { rows: vec![i], cols: vec![j] }).unwrap(),
                QueryResponse::Matrix(vec![vec![cw.try_single_pair(i, j).unwrap()]])
            );
        }
    }
}

/// Regression: the panic on out-of-range nodes is gone from the whole
/// service path — every request kind referencing a bad node returns
/// `QueryError::NodeOutOfRange` from both implementations.
#[test]
fn service_path_never_panics_on_bad_nodes() {
    let cw = walker();
    let session = QuerySession::new(Arc::clone(cw), 16);
    let bad = NODES + 7;
    let requests = vec![
        QueryRequest::SinglePair { i: 0, j: bad },
        QueryRequest::SinglePair { i: bad, j: bad },
        QueryRequest::SingleSource { i: bad },
        QueryRequest::SingleSourceTopK { i: bad, k: 3 },
        QueryRequest::PairsMatrix { rows: vec![0, bad], cols: vec![1] },
        QueryRequest::Cohort { v: bad },
        QueryRequest::Batch(vec![
            QueryRequest::SinglePair { i: 0, j: 1 },
            QueryRequest::Cohort { v: bad },
        ]),
    ];
    for svc in [cw.as_ref() as &dyn QueryService, &session] {
        for req in &requests {
            assert_eq!(
                svc.execute(req.clone()).unwrap_err(),
                QueryError::NodeOutOfRange { node: bad, node_count: NODES },
                "{req:?}"
            );
        }
    }
    // The checked engine variants too (the layer the service routes through).
    assert!(cw.try_single_pair(0, bad).is_err());
    assert!(cw.try_single_source(bad).is_err());
    assert!(cw.try_single_source_topk(bad, 3).is_err());
}

/// A request executed on one side of the wire and a response shipped
/// back decode to exactly what was computed — the end-to-end shape a
/// network front-end will use.
#[test]
fn wire_request_execute_wire_response_end_to_end() {
    let cw = walker();
    let req = QueryRequest::Batch(vec![
        QueryRequest::SinglePair { i: 2, j: 9 },
        QueryRequest::SingleSourceTopK { i: 2, k: 4 },
    ]);
    // Client encodes; server decodes, executes, encodes; client decodes.
    let server_req = QueryRequest::from_bytes(&req.to_bytes()).unwrap();
    let resp = cw.execute(server_req).unwrap();
    let client_resp = QueryResponse::from_bytes(&resp.to_bytes()).unwrap();
    assert_eq!(
        client_resp,
        QueryResponse::Batch(vec![
            QueryResponse::Score(cw.try_single_pair(2, 9).unwrap()),
            QueryResponse::Ranked(cw.try_single_source_topk(2, 4).unwrap()),
        ])
    );
    // Typed errors cross the wire the same way.
    let err = cw.execute(QueryRequest::Cohort { v: 10_000 }).unwrap_err();
    assert_eq!(QueryError::from_bytes(&err.to_bytes()).unwrap(), err);
}
