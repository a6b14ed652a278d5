//! Frame I/O over blocking *and* nonblocking streams — the one
//! read/write-frame path every PASCO network peer (query server, typed
//! client, SimRank worker, the distributed coordinator) shares.
//!
//! Two styles of consumer:
//!
//! * **Blocking peers** (client, worker, coordinator) use
//!   [`read_envelope`] / [`poll_envelope`] / [`write_envelope`]: one call,
//!   one complete frame.
//! * **Readiness-driven peers** (the `pasco_server` epoll reactor) use the
//!   resumable state machines: [`FrameDecoder`] accumulates whatever bytes
//!   a nonblocking read produced and yields envelopes as they complete
//!   (partial reads resume where they left off), and [`WriteQueue`] holds
//!   encoded frames mid-write so a short write resumes at the next
//!   writability event.
//!
//! Both styles validate the envelope header — magic, version, kind,
//! frame-size limit — *before* allocating for or reading the payload, and
//! both fast-reject a first byte that cannot start a frame. This used to
//! live in `pasco_server::transport`; it moved next to the envelope so the
//! worker runtime and the coordinator engine speak frames through the
//! identical code instead of a copy.

use super::envelope::{Envelope, EnvelopeHeader, FrameError, HEADER_LEN, MAGIC};
use std::collections::VecDeque;
use std::fmt;
use std::io::{self, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Why a frame could not be moved across a stream.
#[derive(Debug)]
pub enum TransportError {
    /// The underlying stream failed (or ended mid-frame).
    Io(io::Error),
    /// The bytes read are not a valid frame (bad magic, unsupported
    /// version, oversize payload, …). Fatal to the connection.
    Frame(FrameError),
    /// The peer closed the stream cleanly between frames.
    Closed,
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "stream error: {e}"),
            TransportError::Frame(e) => write!(f, "protocol error: {e}"),
            TransportError::Closed => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<io::Error> for TransportError {
    fn from(e: io::Error) -> Self {
        TransportError::Io(e)
    }
}

impl From<FrameError> for TransportError {
    fn from(e: FrameError) -> Self {
        TransportError::Frame(e)
    }
}

/// Reads the first byte of a frame, distinguishing a clean close from an
/// I/O fault; `Ok(None)` means the read timed out before any byte
/// arrived (only possible when a read timeout is set on the stream).
fn read_first_byte(r: &mut impl Read) -> Result<Option<u8>, TransportError> {
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Err(TransportError::Closed),
            Ok(_) => return Ok(Some(first[0])),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Ok(None)
            }
            Err(e) => return Err(TransportError::Io(e)),
        }
    }
}

/// Reads the rest of a frame once its first byte is in hand. The header
/// is fully validated (including the `max_frame` payload limit) before a
/// single payload byte is read or allocated.
fn read_after_first(
    first: u8,
    r: &mut impl Read,
    max_frame: u32,
) -> Result<Envelope, TransportError> {
    let mut head = [0u8; HEADER_LEN];
    head[0] = first;
    r.read_exact(&mut head[1..])?;
    let header = EnvelopeHeader::decode(&head, max_frame)?;
    let mut payload = vec![0u8; header.payload_len as usize];
    r.read_exact(&mut payload)?;
    Ok(Envelope { kind: header.kind, request_id: header.request_id, payload })
}

/// Blocking frame read: waits for one complete envelope.
pub fn read_envelope(r: &mut impl Read, max_frame: u32) -> Result<Envelope, TransportError> {
    match read_first_byte(r)? {
        // No timeout is set on this stream, so a None cannot happen; if a
        // caller set one anyway, surface it as a timeout error.
        None => Err(TransportError::Io(io::ErrorKind::TimedOut.into())),
        Some(first) => read_after_first(first, r, max_frame),
    }
}

/// Polling frame read for server connections: waits up to `poll` for a
/// frame to *start*, returning `Ok(None)` on a quiet interval so the
/// caller can check its stop flag.
///
/// Two defences against peers that are not real clients: a first byte
/// that is not the first magic byte is rejected immediately (no waiting
/// for a full header that will never come), and once a frame has
/// started, each subsequent read must make progress within
/// `frame_timeout` — a peer that stalls mid-frame is dropped instead of
/// pinning a connection thread forever.
pub fn poll_envelope(
    reader: &mut BufReader<TcpStream>,
    max_frame: u32,
    poll: Duration,
    frame_timeout: Duration,
) -> Result<Option<Envelope>, TransportError> {
    reader.get_ref().set_read_timeout(Some(poll))?;
    let first = match read_first_byte(reader)? {
        None => return Ok(None),
        Some(b) => b,
    };
    if first != MAGIC[0] {
        return Err(TransportError::Frame(FrameError::NotAFrame { first }));
    }
    reader.get_ref().set_read_timeout(Some(frame_timeout))?;
    read_after_first(first, reader, max_frame).map(Some)
}

/// Writes one frame and flushes it onto the wire.
pub fn write_envelope(w: &mut impl Write, env: &Envelope) -> io::Result<()> {
    w.write_all(&env.to_bytes())?;
    w.flush()
}

/// A resumable, allocation-bounded frame decoder for nonblocking streams.
///
/// Feed it whatever bytes a readiness-driven read produced —
/// [`FrameDecoder::feed`] consumes up to one frame per call and reports
/// how many bytes it took, so a buffer holding several pipelined frames
/// (or half of one) is handled by calling `feed` in a loop. State
/// persists across calls: a frame split over any number of reads
/// reassembles exactly, and [`FrameDecoder::mid_frame`] tells the caller
/// whether an I/O deadline should be armed (a peer stalling mid-frame is
/// a slowloris; a peer idle *between* frames is just idle).
///
/// Every envelope guarantee holds before payload bytes are buffered: the
/// first byte must be the first magic byte (fast reject), and the full
/// header — magic, version, kind, flags, payload length against
/// `max_frame` — is validated before one payload byte is allocated.
#[derive(Debug)]
pub struct FrameDecoder {
    max_frame: u32,
    head: [u8; HEADER_LEN],
    have: usize,
    header: Option<EnvelopeHeader>,
    payload: Vec<u8>,
}

impl FrameDecoder {
    /// A fresh decoder enforcing `max_frame` on every announced payload.
    pub fn new(max_frame: u32) -> Self {
        FrameDecoder {
            max_frame,
            head: [0u8; HEADER_LEN],
            have: 0,
            header: None,
            payload: Vec::new(),
        }
    }

    /// Consumes bytes from the front of `bytes` — at most one frame's
    /// worth — and returns `(consumed, Some(envelope))` when that
    /// completes a frame, `(consumed, None)` when more bytes are needed.
    /// Call in a loop until `consumed == 0` with `None` to drain a buffer
    /// of pipelined frames. A framing violation is fatal to the stream:
    /// the decoder must be discarded with its connection.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<(usize, Option<Envelope>), FrameError> {
        let mut used = 0;
        // Header phase: accumulate HEADER_LEN bytes, validating the very
        // first one immediately so a non-protocol peer is rejected before
        // it can dribble 19 more bytes of garbage.
        let header = match self.header {
            Some(header) => header,
            None => {
                if self.have == 0 && !bytes.is_empty() && bytes[0] != MAGIC[0] {
                    return Err(FrameError::NotAFrame { first: bytes[0] });
                }
                let want = HEADER_LEN - self.have;
                let take = want.min(bytes.len());
                self.head[self.have..self.have + take].copy_from_slice(&bytes[..take]);
                self.have += take;
                used += take;
                if self.have < HEADER_LEN {
                    return Ok((used, None));
                }
                let header = EnvelopeHeader::decode(&self.head, self.max_frame)?;
                self.payload = Vec::with_capacity(header.payload_len as usize);
                self.header = Some(header);
                header
            }
        };
        // Payload phase: the header is validated, so payload_len is under
        // the frame limit and this extend is allocation-bounded.
        let want = header.payload_len as usize - self.payload.len();
        let take = want.min(bytes.len() - used);
        self.payload.extend_from_slice(&bytes[used..used + take]);
        used += take;
        if self.payload.len() < header.payload_len as usize {
            return Ok((used, None));
        }
        let env = Envelope {
            kind: header.kind,
            request_id: header.request_id,
            payload: std::mem::take(&mut self.payload),
        };
        self.header = None;
        self.have = 0;
        Ok((used, Some(env)))
    }

    /// Whether a frame has started but not finished — the state in which
    /// a stalled peer deserves an I/O deadline rather than patience.
    pub fn mid_frame(&self) -> bool {
        self.have > 0 || self.header.is_some()
    }
}

/// A resumable outbound frame queue for nonblocking streams.
///
/// Frames are encoded once on [`WriteQueue::push`] and drained by
/// [`WriteQueue::write_to`], which writes as much as the sink accepts and
/// parks the rest — a short or would-block write resumes at the exact
/// byte on the next writability event. Frames leave in push order, so a
/// server that pushes responses as they complete gets completion-order
/// delivery for free.
#[derive(Debug, Default)]
pub struct WriteQueue {
    bufs: VecDeque<Vec<u8>>,
    /// Bytes of the front buffer already written.
    front_pos: usize,
    pending: usize,
}

impl WriteQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes `env` and queues it behind everything already pending.
    pub fn push(&mut self, env: &Envelope) {
        let bytes = env.to_bytes();
        self.pending += bytes.len();
        self.bufs.push_back(bytes);
    }

    /// Whether everything pushed has been fully written.
    pub fn is_empty(&self) -> bool {
        self.bufs.is_empty()
    }

    /// Bytes queued but not yet accepted by the sink.
    pub fn pending_bytes(&self) -> usize {
        self.pending
    }

    /// Writes until drained or the sink stops accepting. Returns
    /// `Ok(true)` when the queue emptied, `Ok(false)` on would-block
    /// (progress is saved), and an error only on a real sink fault — a
    /// sink returning `Ok(0)` counts as one ([`io::ErrorKind::WriteZero`]).
    pub fn write_to(&mut self, w: &mut impl Write) -> io::Result<bool> {
        while let Some(front) = self.bufs.front() {
            match w.write(&front[self.front_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.front_pos += n;
                    self.pending -= n;
                    if self.front_pos == front.len() {
                        self.bufs.pop_front();
                        self.front_pos = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::envelope::{ServerInfo, DEFAULT_MAX_FRAME};
    use crate::api::{QueryRequest, QueryResponse};

    fn frames() -> Vec<Envelope> {
        vec![
            Envelope::hello(),
            Envelope::hello_ack(&ServerInfo { node_count: 77, max_frame_bytes: 4096 }),
            Envelope::request(3, &QueryRequest::SinglePair { i: 1, j: 2 }),
            Envelope::response(3, &QueryResponse::Score(0.25)),
            Envelope::goodbye(),
        ]
    }

    /// The decoder must reassemble a pipelined stream fed in chunks of
    /// any size — including one byte at a time — bit-identically.
    #[test]
    fn decoder_resumes_across_arbitrary_split_points() {
        let stream: Vec<u8> = frames().iter().flat_map(Envelope::to_bytes).collect();
        for chunk in [1usize, 2, 3, 7, 19, 64, stream.len()] {
            let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
            let mut got = Vec::new();
            for piece in stream.chunks(chunk) {
                let mut off = 0;
                while off < piece.len() {
                    let (used, env) = dec.feed(&piece[off..]).unwrap();
                    off += used;
                    let done = env.is_none();
                    if let Some(env) = env {
                        got.push(env);
                    }
                    if used == 0 && done {
                        break;
                    }
                }
            }
            assert_eq!(got, frames(), "chunk size {chunk}");
            assert!(!dec.mid_frame(), "stream ended on a frame boundary");
        }
    }

    #[test]
    fn decoder_tracks_mid_frame_for_deadline_arming() {
        let bytes = Envelope::request(9, &QueryRequest::Cohort { v: 4 }).to_bytes();
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        assert!(!dec.mid_frame());
        let (used, env) = dec.feed(&bytes[..1]).unwrap();
        assert_eq!((used, env), (1, None));
        assert!(dec.mid_frame(), "one byte in: a frame has started");
        let (_, env) = dec.feed(&bytes[1..]).unwrap();
        assert!(env.is_some());
        assert!(!dec.mid_frame(), "frame complete: idle again");
    }

    #[test]
    fn decoder_fast_rejects_a_non_protocol_first_byte() {
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        assert_eq!(dec.feed(b"GET / HTTP/1.1").unwrap_err(), FrameError::NotAFrame { first: b'G' });
    }

    #[test]
    fn decoder_rejects_oversize_before_buffering_payload() {
        let mut bytes = Envelope::request(1, &QueryRequest::Cohort { v: 1 }).to_bytes();
        bytes[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut dec = FrameDecoder::new(1024);
        // Feed only the header: the limit check fires without a single
        // payload byte in hand.
        assert_eq!(
            dec.feed(&bytes[..HEADER_LEN]).unwrap_err(),
            FrameError::Oversize { len: u32::MAX, max: 1024 }
        );
    }

    #[test]
    fn decoder_rejects_bad_version_and_kind_at_the_header() {
        let mut bytes = Envelope::hello().to_bytes();
        bytes[4] = 9;
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        assert_eq!(dec.feed(&bytes).unwrap_err(), FrameError::UnsupportedVersion { found: 9 });
        let mut bytes = Envelope::hello().to_bytes();
        bytes[6] = 99;
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        assert_eq!(dec.feed(&bytes).unwrap_err(), FrameError::UnknownKind { kind: 99 });
    }

    /// A sink that accepts at most `cap` bytes per call and interleaves
    /// would-blocks, mimicking a congested nonblocking socket.
    struct Choppy {
        out: Vec<u8>,
        cap: usize,
        block_next: bool,
    }

    impl Write for Choppy {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if std::mem::replace(&mut self.block_next, true) {
                self.block_next = false;
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.cap);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_queue_resumes_partial_writes_in_push_order() {
        let mut q = WriteQueue::new();
        for env in frames() {
            q.push(&env);
        }
        let expect: Vec<u8> = frames().iter().flat_map(Envelope::to_bytes).collect();
        assert_eq!(q.pending_bytes(), expect.len());
        let mut sink = Choppy { out: Vec::new(), cap: 5, block_next: false };
        let mut rounds = 0;
        while !q.write_to(&mut sink).unwrap() {
            rounds += 1;
            assert!(rounds < 10_000, "must make progress");
        }
        assert_eq!(sink.out, expect);
        assert!(q.is_empty());
        assert_eq!(q.pending_bytes(), 0);
        // Drained queue stays reusable.
        q.push(&Envelope::goodbye());
        let mut sink = Choppy { out: Vec::new(), cap: 1024, block_next: false };
        while !q.write_to(&mut sink).unwrap() {}
        assert_eq!(sink.out, Envelope::goodbye().to_bytes());
    }

    #[test]
    fn write_queue_surfaces_write_zero_as_an_error() {
        struct Dead;
        impl Write for Dead {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut q = WriteQueue::new();
        q.push(&Envelope::hello());
        assert_eq!(q.write_to(&mut Dead).unwrap_err().kind(), io::ErrorKind::WriteZero);
    }
}
