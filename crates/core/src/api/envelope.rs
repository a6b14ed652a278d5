//! The versioned wire envelope: every message a PASCO network peer sends
//! is one [`Envelope`] — a fixed 20-byte header (magic, protocol version,
//! frame kind, flags, request id, payload length) followed by a
//! length-prefixed payload encoded with [`WireCodec`].
//!
//! The envelope is what makes [`super::wire`] *transport-ready*:
//!
//! * **Versioning** — the header carries [`PROTOCOL_VERSION`]; a peer
//!   speaking a different version is rejected at the first frame, before
//!   any payload is interpreted.
//! * **Pipelining** — every request frame carries a client-chosen
//!   `request_id`, and responses echo it, so a client may keep many
//!   requests in flight and match answers out of order.
//! * **First-class errors** — a [`QueryError`] travels back as a
//!   [`FrameKind::Error`] frame tagged with the failing request's id,
//!   instead of dying at the process boundary. The connection stays
//!   usable.
//! * **Hostile-input safety** — the payload length is validated against
//!   both the frame-size limit and (when decoding from a buffer) the
//!   bytes actually present *before* any allocation, so a corrupt or
//!   malicious header cannot trigger an OOM-sized reservation.
//!
//! ## Frame layout
//!
//! ```text
//! offset  size  field        value
//!      0     4  magic        b"PSCO"            (0x50 0x53 0x43 0x4F)
//!      4     2  version      u16 LE, currently 1
//!      6     1  kind         FrameKind tag
//!      7     1  flags        reserved, must be 0 in version 1
//!      8     8  request_id   u64 LE (0 for control frames)
//!     16     4  payload_len  u32 LE
//!     20     …  payload      payload_len bytes (WireCodec encoding)
//! ```
//!
//! The handshake is one round trip: the client opens with an empty
//! [`FrameKind::Hello`]; the server answers [`FrameKind::HelloAck`]
//! carrying a [`ServerInfo`] (graph size + the server's frame-size
//! limit). A client closes a session (and, for `pasco serve`, drains the
//! whole server) with [`FrameKind::Shutdown`]; the server acknowledges
//! with [`FrameKind::Goodbye`] after every in-flight response has been
//! written.
//!
//! ## Worker-control frames
//!
//! The distributed substrate rides the same envelope: kinds
//! [`FrameKind::LoadPartition`] through [`FrameKind::WorkerStats`] carry
//! the coordinator ⇄ worker protocol (payloads in [`super::worker`]).
//! Extending the *kind space* is the envelope's backward-compatible
//! evolution path that the version field guards: a version-1 peer that
//! does not serve workers rejects the unknown kind and drops the
//! connection, while a version bump remains reserved for changes that
//! alter the meaning of existing frames.

use super::wire::{cohort_wire_len, encode_cohort_response, WireCodec, WireError};
use super::{QueryError, QueryRequest, QueryResponse};
use crate::queries::CohortLayout;
use bytes::{Buf, BufMut};
use std::fmt;

/// First four bytes of every frame: `b"PSCO"`.
pub const MAGIC: [u8; 4] = *b"PSCO";

/// The protocol version this build speaks. A peer announcing any other
/// version is rejected with [`FrameError::UnsupportedVersion`].
pub const PROTOCOL_VERSION: u16 = 1;

/// Fixed size of the envelope header in bytes.
pub const HEADER_LEN: usize = 20;

/// Default frame-size limit: a payload larger than this is rejected
/// before it is read or allocated. Generous enough for dense
/// single-source rows over multi-million-node graphs, small enough that
/// a hostile header cannot reserve gigabytes.
pub const DEFAULT_MAX_FRAME: u32 = 64 << 20;

/// What a frame *is* — the header's kind tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Client → server: opens a session. Empty payload (the version is
    /// already in the header).
    Hello = 0,
    /// Server → client: accepts the session; payload is [`ServerInfo`].
    HelloAck = 1,
    /// Client → server: one [`QueryRequest`] payload, tagged with a
    /// client-chosen request id.
    Request = 2,
    /// Server → client: the [`QueryResponse`] payload for the request
    /// with the echoed id.
    Response = 3,
    /// Server → client: the [`QueryError`] payload for the request with
    /// the echoed id — typed failures cross the wire, they do not close
    /// the connection.
    Error = 4,
    /// Client → server: drain and stop. The server finishes every
    /// in-flight request of the connection, answers [`FrameKind::
    /// Goodbye`], and (for a whole-server shutdown) stops accepting.
    Shutdown = 5,
    /// Server → client: the connection is closing cleanly (shutdown
    /// acknowledged, or the server is draining). Empty payload.
    Goodbye = 6,
    /// Coordinator → worker: one graph partition to load
    /// ([`super::worker::LoadPartition`]); the worker echoes the kind
    /// back with a [`super::worker::LoadAck`] payload. Every worker
    /// receives every partition (walkers wander across partition
    /// boundaries); the `owned_part` field of the payload tells the
    /// worker which partition's sources it serves.
    LoadPartition = 7,
    /// Coordinator → worker: run the shard-local offline build
    /// ([`super::worker::BuildShard`]); the worker echoes the kind back
    /// with its owned rows ([`super::worker::BuildShardReply`]).
    BuildShard = 8,
    /// Coordinator → worker: one routed query
    /// ([`super::worker::ShardQuery`]); the worker echoes the kind back
    /// with a [`super::QueryResponse`] payload.
    ShardQuery = 9,
    /// Retired: top-`k` is a [`super::worker::ShardQueryKind`] now. The
    /// tag stays decodable and keeps its manifest line, so it is never
    /// reused; no peer sends it, and a worker drops any connection that
    /// does, as for any kind it does not speak.
    ShardTopK = 10,
    /// Coordinator → worker: report runtime statistics (empty request
    /// payload); the worker echoes the kind back with a
    /// [`super::worker::WorkerStats`] payload.
    WorkerStats = 11,
    /// Coordinator → worker: map an on-disk shard store in place
    /// ([`super::worker::LoadStore`]) instead of receiving partitions
    /// over the wire; the worker echoes the kind back with a
    /// [`super::worker::LoadAck`] payload. Requires the store directory
    /// to be reachable on the worker's filesystem (shared storage or a
    /// prior copy) — the whole point is that the `O(E)` adjacency bytes
    /// never cross the wire.
    LoadStore = 12,
}

impl FrameKind {
    fn from_u8(kind: u8) -> Option<Self> {
        Some(match kind {
            0 => FrameKind::Hello,
            1 => FrameKind::HelloAck,
            2 => FrameKind::Request,
            3 => FrameKind::Response,
            4 => FrameKind::Error,
            5 => FrameKind::Shutdown,
            6 => FrameKind::Goodbye,
            7 => FrameKind::LoadPartition,
            8 => FrameKind::BuildShard,
            9 => FrameKind::ShardQuery,
            10 => FrameKind::ShardTopK,
            11 => FrameKind::WorkerStats,
            12 => FrameKind::LoadStore,
            _ => return None,
        })
    }
}

/// A malformed or out-of-contract frame. Everything here is fatal to the
/// connection that produced it: after a framing violation the byte
/// stream cannot be trusted to resynchronise, so peers close it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The first four bytes were not [`MAGIC`] — the peer is not
    /// speaking this protocol at all.
    BadMagic {
        /// The four bytes actually read.
        found: [u8; 4],
    },
    /// Streaming fast-reject: the very first byte of a frame was not
    /// the first magic byte, so the peer is not speaking this protocol
    /// and the transport can drop it without waiting for (or trusting)
    /// a full header to arrive.
    NotAFrame {
        /// The first byte actually read.
        first: u8,
    },
    /// The peer speaks a different protocol version.
    UnsupportedVersion {
        /// The version the peer announced.
        found: u16,
    },
    /// A kind tag matching no [`FrameKind`].
    UnknownKind {
        /// The unrecognised tag.
        kind: u8,
    },
    /// Non-zero reserved flags (version 1 defines none).
    NonZeroFlags {
        /// The flag byte actually read.
        flags: u8,
    },
    /// The header announces a payload larger than the negotiated
    /// frame-size limit. Rejected before any allocation.
    Oversize {
        /// The announced payload length.
        len: u32,
        /// The limit in force.
        max: u32,
    },
    /// The buffer ended before the announced frame was complete.
    Truncated,
    /// The envelope was well-formed but its payload was not a valid
    /// encoding of the expected type.
    Payload(WireError),
    /// A frame of the wrong kind for the protocol state (e.g. a
    /// [`FrameKind::Response`] before the handshake finished).
    UnexpectedKind {
        /// The kind that arrived.
        got: FrameKind,
        /// What the state machine was waiting for.
        expected: &'static str,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic { found } => write!(f, "bad magic {found:02x?} (want b\"PSCO\")"),
            FrameError::NotAFrame { first } => {
                write!(f, "first byte {first:#04x} is not the start of a frame")
            }
            FrameError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported protocol version {found} (this build speaks {PROTOCOL_VERSION})"
                )
            }
            FrameError::UnknownKind { kind } => write!(f, "unknown frame kind {kind}"),
            FrameError::NonZeroFlags { flags } => {
                write!(f, "non-zero reserved flags {flags:#04x} in a version-1 frame")
            }
            FrameError::Oversize { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte limit")
            }
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::Payload(e) => write!(f, "undecodable frame payload: {e}"),
            FrameError::UnexpectedKind { got, expected } => {
                write!(f, "unexpected {got:?} frame (expected {expected})")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> Self {
        FrameError::Payload(e)
    }
}

/// The decoded fixed-size header of a frame: everything a transport
/// needs to know before touching the payload bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EnvelopeHeader {
    /// What the frame is.
    pub kind: FrameKind,
    /// The request id this frame belongs to (0 for control frames).
    pub request_id: u64,
    /// How many payload bytes follow the header.
    pub payload_len: u32,
}

impl EnvelopeHeader {
    /// Parses and validates exactly [`HEADER_LEN`] bytes: magic, version,
    /// kind, reserved flags, and the payload length against `max_frame` —
    /// all *before* the caller reads or allocates for the payload.
    pub fn decode(bytes: &[u8; HEADER_LEN], max_frame: u32) -> Result<Self, FrameError> {
        let mut buf: &[u8] = bytes;
        let mut magic = [0u8; 4];
        buf.copy_to_slice(&mut magic);
        if magic != MAGIC {
            return Err(FrameError::BadMagic { found: magic });
        }
        let version = u16::from_le_bytes([buf.get_u8(), buf.get_u8()]);
        if version != PROTOCOL_VERSION {
            return Err(FrameError::UnsupportedVersion { found: version });
        }
        let kind_byte = buf.get_u8();
        let kind =
            FrameKind::from_u8(kind_byte).ok_or(FrameError::UnknownKind { kind: kind_byte })?;
        let flags = buf.get_u8();
        if flags != 0 {
            return Err(FrameError::NonZeroFlags { flags });
        }
        let request_id = buf.get_u64_le();
        let payload_len = buf.get_u32_le();
        if payload_len > max_frame {
            return Err(FrameError::Oversize { len: payload_len, max: max_frame });
        }
        Ok(EnvelopeHeader { kind, request_id, payload_len })
    }

    /// Appends the 20-byte header encoding to `buf`.
    pub fn encode(&self, buf: &mut impl BufMut) {
        buf.put_slice(&MAGIC);
        buf.put_slice(&PROTOCOL_VERSION.to_le_bytes());
        buf.put_u8(self.kind as u8);
        buf.put_u8(0); // reserved flags
        buf.put_u64_le(self.request_id);
        buf.put_u32_le(self.payload_len);
    }
}

/// One complete frame: a validated header plus its raw payload bytes.
///
/// Payloads stay opaque at this layer — [`Envelope::decode_request`] /
/// [`Envelope::decode_response`] / [`Envelope::decode_error`] interpret
/// them on demand, so a server can route on the header without paying
/// for a decode it may hand to a worker thread.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope {
    /// What the frame is.
    pub kind: FrameKind,
    /// The request id this frame belongs to (0 for control frames).
    pub request_id: u64,
    /// The raw payload bytes (a [`WireCodec`] encoding, or empty for
    /// control frames).
    pub payload: Vec<u8>,
}

impl Envelope {
    /// The client's opening frame (empty payload).
    pub fn hello() -> Self {
        Envelope { kind: FrameKind::Hello, request_id: 0, payload: Vec::new() }
    }

    /// The server's handshake answer carrying its [`ServerInfo`].
    pub fn hello_ack(info: &ServerInfo) -> Self {
        Envelope { kind: FrameKind::HelloAck, request_id: 0, payload: info.to_bytes() }
    }

    /// A request frame: `req` encoded under client-chosen id `id`.
    pub fn request(id: u64, req: &QueryRequest) -> Self {
        Envelope { kind: FrameKind::Request, request_id: id, payload: req.to_bytes() }
    }

    /// A response frame echoing the request's id.
    pub fn response(id: u64, resp: &QueryResponse) -> Self {
        Envelope { kind: FrameKind::Response, request_id: id, payload: resp.to_bytes() }
    }

    /// An error frame: the typed [`QueryError`] of request `id`.
    pub fn error(id: u64, err: &QueryError) -> Self {
        Envelope { kind: FrameKind::Error, request_id: id, payload: err.to_bytes() }
    }

    /// The drain-and-stop control frame (empty payload).
    pub fn shutdown() -> Self {
        Envelope { kind: FrameKind::Shutdown, request_id: 0, payload: Vec::new() }
    }

    /// The clean-close control frame (empty payload).
    pub fn goodbye() -> Self {
        Envelope { kind: FrameKind::Goodbye, request_id: 0, payload: Vec::new() }
    }

    /// A worker-control frame: `payload` (already [`WireCodec`]-encoded)
    /// under one of the worker kinds ([`FrameKind::LoadPartition`] …
    /// [`FrameKind::WorkerStats`]). Requests and their replies share the
    /// kind; the direction and the echoed `id` disambiguate.
    pub fn worker(kind: FrameKind, id: u64, payload: &impl WireCodec) -> Self {
        Envelope { kind, request_id: id, payload: payload.to_bytes() }
    }

    /// This frame's header.
    pub fn header(&self) -> EnvelopeHeader {
        EnvelopeHeader {
            kind: self.kind,
            request_id: self.request_id,
            payload_len: self.payload.len() as u32,
        }
    }

    /// Exact encoded size: header plus payload.
    pub fn encoded_len(&self) -> usize {
        HEADER_LEN + self.payload.len()
    }

    /// Encodes header + payload into a fresh, exactly-sized buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.header().encode(&mut buf);
        buf.put_slice(&self.payload);
        buf
    }

    /// Decodes one frame from the front of `bytes`, returning it and how
    /// many bytes it consumed. The payload length is validated against
    /// both `max_frame` and the bytes actually present before the payload
    /// is copied, so a hostile header cannot trigger an oversized
    /// allocation.
    pub fn decode(bytes: &[u8], max_frame: u32) -> Result<(Self, usize), FrameError> {
        if bytes.len() < HEADER_LEN {
            return Err(FrameError::Truncated);
        }
        let mut head = [0u8; HEADER_LEN];
        head.copy_from_slice(&bytes[..HEADER_LEN]);
        let header = EnvelopeHeader::decode(&head, max_frame)?;
        let len = header.payload_len as usize;
        let rest = &bytes[HEADER_LEN..];
        if rest.len() < len {
            return Err(FrameError::Truncated);
        }
        let env = Envelope {
            kind: header.kind,
            request_id: header.request_id,
            payload: rest[..len].to_vec(),
        };
        Ok((env, HEADER_LEN + len))
    }

    /// Decodes a buffer that must hold exactly one frame.
    pub fn from_bytes(bytes: &[u8], max_frame: u32) -> Result<Self, FrameError> {
        let (env, used) = Self::decode(bytes, max_frame)?;
        if used == bytes.len() {
            Ok(env)
        } else {
            Err(FrameError::Payload(WireError::TrailingBytes { remaining: bytes.len() - used }))
        }
    }

    /// Interprets the payload as a [`QueryRequest`].
    pub fn decode_request(&self) -> Result<QueryRequest, FrameError> {
        Ok(QueryRequest::from_bytes(&self.payload)?)
    }

    /// Interprets the payload as a [`QueryResponse`].
    pub fn decode_response(&self) -> Result<QueryResponse, FrameError> {
        Ok(QueryResponse::from_bytes(&self.payload)?)
    }

    /// Interprets the payload as a [`QueryError`].
    pub fn decode_error(&self) -> Result<QueryError, FrameError> {
        Ok(QueryError::from_bytes(&self.payload)?)
    }

    /// Interprets the payload as a [`ServerInfo`].
    pub fn decode_server_info(&self) -> Result<ServerInfo, FrameError> {
        Ok(ServerInfo::from_bytes(&self.payload)?)
    }
}

/// Writes one whole frame into `frame`, cleared first: the header, then
/// the `len` payload bytes `payload` appends in place. A payload past
/// `u32::MAX` bytes announces `u32::MAX`, past every frame limit.
fn write_frame_with(
    frame: &mut Vec<u8>,
    kind: FrameKind,
    id: u64,
    len: usize,
    payload: impl FnOnce(&mut Vec<u8>),
) {
    frame.clear();
    // Exact: a reused buffer grows to the largest frame it held, no more.
    frame.reserve_exact(HEADER_LEN + len);
    let payload_len = u32::try_from(len).unwrap_or(u32::MAX);
    EnvelopeHeader { kind, request_id: id, payload_len }.encode(frame);
    payload(frame);
    debug_assert_eq!(frame.len(), HEADER_LEN + len);
}

/// Frames `payload` under `kind` and request id `id` into `frame`, cleared
/// first: the bytes of `Envelope { kind, request_id: id, payload:
/// payload.to_bytes() }.to_bytes()`, the payload encoded in place rather
/// than into a buffer of its own and copied.
pub fn frame_into(frame: &mut Vec<u8>, kind: FrameKind, id: u64, payload: &impl WireCodec) {
    write_frame_with(frame, kind, id, payload.encoded_len(), |buf| payload.encode(buf));
}

/// The frame of one answer: [`Envelope::response`]'s bytes, or
/// [`Envelope::error`]'s for a typed failure, into `frame`.
pub(crate) fn frame_answer(
    frame: &mut Vec<u8>,
    id: u64,
    answer: &Result<QueryResponse, QueryError>,
) {
    match answer {
        Ok(resp) => frame_into(frame, FrameKind::Response, id, resp),
        Err(err) => frame_into(frame, FrameKind::Error, id, err),
    }
}

/// A `Cohort` answer's frame straight from a cohort in either layout —
/// a cached [`pasco_mc::walks::CohortBlock`] included — into `frame`: the
/// bytes of [`Envelope::response`] over [`QueryResponse::Cohort`] holding
/// its nested form, which is never built.
pub fn frame_cohort<C: CohortLayout + ?Sized>(frame: &mut Vec<u8>, id: u64, cohort: &C) {
    let len = 1 + cohort_wire_len(cohort);
    write_frame_with(frame, FrameKind::Response, id, len, |buf| {
        encode_cohort_response(cohort, buf)
    });
}

/// What a server tells a client in its [`FrameKind::HelloAck`]: enough to
/// pre-validate requests client-side and to stay under the server's
/// frame-size limit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServerInfo {
    /// How many nodes the served graph has — the bound every node id in
    /// a request must respect.
    pub node_count: u32,
    /// The largest frame payload the server accepts.
    pub max_frame_bytes: u32,
}

impl WireCodec for ServerInfo {
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u32_le(self.node_count);
        buf.put_u32_le(self.max_frame_bytes);
    }

    fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        const WHAT: &str = "ServerInfo";
        Ok(ServerInfo {
            node_count: super::wire::read_u32(buf, WHAT)?,
            max_frame_bytes: super::wire::read_u32(buf, WHAT)?,
        })
    }

    fn encoded_len(&self) -> usize {
        8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Decodes `"50 53 43 4f …"`-style hex fixtures.
    fn hex(s: &str) -> Vec<u8> {
        s.split_whitespace().map(|b| u8::from_str_radix(b, 16).unwrap()).collect()
    }

    // ---- golden bytes: the format cannot silently drift ---------------

    // magic "PSCO", version 1, kind 0, flags 0, id 0, len 0.
    const HELLO: &str = "50 53 43 4f 01 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00";
    const HELLO_ACK: &str = "50 53 43 4f 01 00 01 00 00 00 00 00 00 00 00 00 08 00 00 00 \
                             34 12 00 00 00 00 00 01";
    // Request id 7: SinglePair { i: 3, j: 4 } (tag 0, two u32 LE).
    const REQUEST: &str = "50 53 43 4f 01 00 02 00 07 00 00 00 00 00 00 00 09 00 00 00 \
                           00 03 00 00 00 04 00 00 00";
    // Response id 7: Score(0.5) (tag 0, f64 LE bit pattern 0x3FE0…).
    const RESPONSE: &str = "50 53 43 4f 01 00 03 00 07 00 00 00 00 00 00 00 09 00 00 00 \
                            00 00 00 00 00 00 00 e0 3f";
    // Error id 9: NodeOutOfRange { node: 0x10, node_count: 5 }.
    const ERROR: &str = "50 53 43 4f 01 00 04 00 09 00 00 00 00 00 00 00 09 00 00 00 \
                         00 10 00 00 00 05 00 00 00";
    const SHUTDOWN: &str = "50 53 43 4f 01 00 05 00 00 00 00 00 00 00 00 00 00 00 00 00";
    const GOODBYE: &str = "50 53 43 4f 01 00 06 00 00 00 00 00 00 00 00 00 00 00 00 00";
    // The worker-control kinds 7–12. Payloads are opaque at the envelope
    // layer (their codecs are pinned by `api::worker` round-trip tests),
    // so these fixtures pin what matters here: the kind-byte assignment
    // of each variant.
    const WORKER_FRAMES: [(FrameKind, u64, &str); 6] = [
        (
            FrameKind::LoadPartition,
            1,
            "50 53 43 4f 01 00 07 00 01 00 00 00 00 00 00 00 00 00 00 00",
        ),
        (FrameKind::BuildShard, 2, "50 53 43 4f 01 00 08 00 02 00 00 00 00 00 00 00 00 00 00 00"),
        (FrameKind::ShardQuery, 3, "50 53 43 4f 01 00 09 00 03 00 00 00 00 00 00 00 00 00 00 00"),
        (FrameKind::ShardTopK, 4, "50 53 43 4f 01 00 0a 00 04 00 00 00 00 00 00 00 00 00 00 00"),
        (FrameKind::WorkerStats, 5, "50 53 43 4f 01 00 0b 00 05 00 00 00 00 00 00 00 00 00 00 00"),
        (FrameKind::LoadStore, 6, "50 53 43 4f 01 00 0c 00 06 00 00 00 00 00 00 00 00 00 00 00"),
    ];

    #[test]
    fn golden_hello_frame() {
        assert_eq!(Envelope::hello().to_bytes(), hex(HELLO));
        assert_eq!(
            Envelope::from_bytes(&hex(HELLO), DEFAULT_MAX_FRAME).unwrap(),
            Envelope::hello()
        );
    }

    #[test]
    fn golden_hello_ack_frame() {
        let info = ServerInfo { node_count: 0x1234, max_frame_bytes: 0x0100_0000 };
        assert_eq!(Envelope::hello_ack(&info).to_bytes(), hex(HELLO_ACK));
        let back = Envelope::from_bytes(&hex(HELLO_ACK), DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(back.decode_server_info().unwrap(), info);
    }

    #[test]
    fn golden_request_frame() {
        let env = Envelope::request(7, &QueryRequest::SinglePair { i: 3, j: 4 });
        assert_eq!(env.to_bytes(), hex(REQUEST));
        let back = Envelope::from_bytes(&hex(REQUEST), DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(back.request_id, 7);
        assert_eq!(back.decode_request().unwrap(), QueryRequest::SinglePair { i: 3, j: 4 });
    }

    #[test]
    fn golden_response_frame() {
        let env = Envelope::response(7, &QueryResponse::Score(0.5));
        assert_eq!(env.to_bytes(), hex(RESPONSE));
    }

    #[test]
    fn golden_error_frame() {
        let err = QueryError::NodeOutOfRange { node: 0x10, node_count: 5 };
        assert_eq!(Envelope::error(9, &err).to_bytes(), hex(ERROR));
        assert_eq!(
            Envelope::from_bytes(&hex(ERROR), DEFAULT_MAX_FRAME).unwrap().decode_error().unwrap(),
            err
        );
    }

    #[test]
    fn golden_shutdown_and_goodbye_frames() {
        assert_eq!(Envelope::shutdown().to_bytes(), hex(SHUTDOWN));
        assert_eq!(Envelope::goodbye().to_bytes(), hex(GOODBYE));
    }

    #[test]
    fn golden_worker_frames() {
        for (kind, id, fixture) in WORKER_FRAMES {
            let env = Envelope { kind, request_id: id, payload: Vec::new() };
            assert_eq!(env.to_bytes(), hex(fixture), "{kind:?}");
            assert_eq!(Envelope::from_bytes(&hex(fixture), DEFAULT_MAX_FRAME).unwrap(), env);
        }
    }

    /// Kind bytes are append-only protocol surface, so the committed
    /// `WIRE_TAGS.manifest` holds every one: the decoder knows exactly the
    /// listed bytes under the listed names, and each has a golden frame.
    #[test]
    fn frame_kinds_match_the_wire_tags_manifest_and_the_golden_frames() {
        let manifest = crate::api::manifest_tags("framekind");
        for &(name, tag) in &manifest {
            let kind = FrameKind::from_u8(tag);
            assert_eq!(kind.map(|k| format!("{k:?}")).as_deref(), Some(name), "kind byte {tag}");
            assert_eq!(kind.map(|k| k as u8), Some(tag), "{name} encodes to another byte");
        }
        let listed: BTreeSet<u8> = manifest.iter().map(|&(_, tag)| tag).collect();
        assert_eq!(listed.len(), manifest.len(), "a kind byte is listed twice");
        for byte in 0..=u8::MAX {
            let decodes = FrameKind::from_u8(byte).is_some();
            assert_eq!(decodes, listed.contains(&byte), "kind byte {byte} is not in the manifest");
        }
        let golden = [HELLO, HELLO_ACK, REQUEST, RESPONSE, ERROR, SHUTDOWN, GOODBYE];
        let fixtures = golden.into_iter().chain(WORKER_FRAMES.map(|(_, _, fixture)| fixture));
        let covered: BTreeSet<u8> = fixtures.map(|fixture| hex(fixture)[6]).collect();
        assert_eq!(covered, listed, "every frame kind needs a golden frame");
    }

    // ---- rejection paths ----------------------------------------------

    #[test]
    fn truncation_at_every_cut_is_detected() {
        let bytes = Envelope::request(3, &QueryRequest::Cohort { v: 2 }).to_bytes();
        for cut in 0..bytes.len() {
            assert_eq!(
                Envelope::from_bytes(&bytes[..cut], DEFAULT_MAX_FRAME),
                Err(FrameError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = Envelope::hello().to_bytes();
        bytes[0] = b'X';
        assert_eq!(
            Envelope::from_bytes(&bytes, DEFAULT_MAX_FRAME),
            Err(FrameError::BadMagic { found: *b"XSCO" })
        );
    }

    #[test]
    fn unknown_version_is_rejected() {
        let mut bytes = Envelope::hello().to_bytes();
        bytes[4] = 99; // version LE low byte
        assert_eq!(
            Envelope::from_bytes(&bytes, DEFAULT_MAX_FRAME),
            Err(FrameError::UnsupportedVersion { found: 99 })
        );
    }

    #[test]
    fn unknown_kind_and_flags_are_rejected() {
        let mut bytes = Envelope::hello().to_bytes();
        bytes[6] = 42;
        assert_eq!(
            Envelope::from_bytes(&bytes, DEFAULT_MAX_FRAME),
            Err(FrameError::UnknownKind { kind: 42 })
        );
        let mut bytes = Envelope::hello().to_bytes();
        bytes[7] = 0x80;
        assert_eq!(
            Envelope::from_bytes(&bytes, DEFAULT_MAX_FRAME),
            Err(FrameError::NonZeroFlags { flags: 0x80 })
        );
    }

    #[test]
    fn oversize_payload_length_is_rejected_before_any_allocation() {
        // A header announcing a u32::MAX payload with no payload bytes:
        // must fail on the limit check, never reserve memory.
        let mut bytes = Envelope::hello().to_bytes();
        bytes[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            Envelope::from_bytes(&bytes, 1024),
            Err(FrameError::Oversize { len: u32::MAX, max: 1024 })
        );
        // Under the limit but past the end of the buffer: clean truncation.
        let mut bytes = Envelope::hello().to_bytes();
        bytes[16..20].copy_from_slice(&512u32.to_le_bytes());
        assert_eq!(Envelope::from_bytes(&bytes, 1024), Err(FrameError::Truncated));
    }

    #[test]
    fn trailing_bytes_after_a_frame_are_rejected() {
        let mut bytes = Envelope::goodbye().to_bytes();
        bytes.push(0);
        assert_eq!(
            Envelope::from_bytes(&bytes, DEFAULT_MAX_FRAME),
            Err(FrameError::Payload(WireError::TrailingBytes { remaining: 1 }))
        );
    }

    #[test]
    fn decode_reports_consumed_length_for_streaming() {
        let a = Envelope::request(1, &QueryRequest::SingleSource { i: 5 });
        let b = Envelope::goodbye();
        let mut stream = a.to_bytes();
        stream.extend_from_slice(&b.to_bytes());
        let (first, used) = Envelope::decode(&stream, DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(first, a);
        let (second, used2) = Envelope::decode(&stream[used..], DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(second, b);
        assert_eq!(used + used2, stream.len());
    }

    #[test]
    fn undecodable_payload_is_a_payload_error() {
        let env = Envelope { kind: FrameKind::Request, request_id: 1, payload: vec![200] };
        assert!(matches!(env.decode_request(), Err(FrameError::Payload(_))));
    }

    #[test]
    fn server_info_roundtrips() {
        let info = ServerInfo { node_count: u32::MAX, max_frame_bytes: 1 };
        assert_eq!(ServerInfo::from_bytes(&info.to_bytes()).unwrap(), info);
        assert_eq!(info.to_bytes().len(), info.encoded_len());
    }
}
