//! [`PascoClient`]: the one blocking, pipelining-capable peer of the
//! PASCO envelope protocol — the typed query client, and the link the
//! distributed coordinator drives each worker through.
//!
//! The client separates the two failure planes the protocol separates:
//!
//! * a **typed query failure** ([`QueryError`], e.g. an out-of-range
//!   node) arrives as an error frame, surfaces as [`ClientError::Query`],
//!   and leaves the connection fully usable;
//! * a **transport fault** (socket error or timeout, protocol violation,
//!   server goodbye) poisons the client — every later call returns
//!   [`ClientError::Poisoned`] instead of writing onto a stream whose
//!   framing can no longer be trusted. Recovery is explicit:
//!   [`PascoClient::connect`] a fresh client.
//!
//! Pipelining is first-class: [`PascoClient::send`] puts a request on
//! the wire and returns its id immediately; [`PascoClient::wait`]
//! collects a specific id, buffering any other responses that arrive
//! first (the server answers in completion order, not request order).
//! [`PascoClient::query_batch`] pipelines a whole slice this way in one
//! round trip.

use super::envelope::{Envelope, FrameError, FrameKind, ServerInfo, DEFAULT_MAX_FRAME};
use super::transport::{read_envelope, write_envelope, TransportError, DEFAULT_IO_TIMEOUT};
use super::wire::WireCodec;
use super::{QueryError, QueryRequest, QueryResponse};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A client-side failure. Only [`ClientError::Query`] leaves the
/// connection usable; everything else poisons the client until it is
/// reconnected.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed (a timeout is kind `WouldBlock`/`TimedOut`).
    Io(io::Error),
    /// The server broke protocol (bad frame, unexpected kind, payload
    /// that would not decode).
    Protocol(FrameError),
    /// The server answered with a typed query error. The connection
    /// stays usable.
    Query(QueryError),
    /// The server said goodbye (drain) or closed the stream.
    Closed,
    /// A previous transport fault left this client unusable; reconnect
    /// with [`PascoClient::connect`].
    Poisoned,
    /// [`PascoClient::wait`] was given an id this client never issued
    /// (or already delivered) — waiting on it would block forever.
    UnknownId {
        /// The id that matches no in-flight request.
        id: u64,
    },
}

impl ClientError {
    /// Whether the peer stayed silent past the socket timeout in force.
    pub(crate) fn is_timeout(&self) -> bool {
        let ClientError::Io(e) = self else { return false };
        matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Protocol(e) => write!(f, "server broke protocol: {e}"),
            ClientError::Query(e) => write!(f, "query failed: {e}"),
            ClientError::Closed => write!(f, "server closed the connection"),
            ClientError::Poisoned => {
                write!(f, "connection unusable after an earlier fault; reconnect")
            }
            ClientError::UnknownId { id } => {
                write!(f, "request id {id} is not in flight on this connection")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<TransportError> for ClientError {
    fn from(e: TransportError) -> Self {
        match e {
            TransportError::Io(e) => ClientError::Io(e),
            TransportError::Frame(e) => ClientError::Protocol(e),
            TransportError::Closed => ClientError::Closed,
        }
    }
}

/// A blocking connection to a PASCO server or worker.
pub struct PascoClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    info: ServerInfo,
    next_id: u64,
    /// Replies that arrived while waiting for a different id — the
    /// out-of-order buffer pipelining requires.
    pending: BTreeMap<u64, Envelope>,
    /// Ids sent but not yet answered: the set a reply's id must belong
    /// to, so a bogus or duplicate id is a protocol fault and waiting on
    /// one fails fast instead of blocking forever.
    in_flight: BTreeSet<u64>,
    open: bool,
}

impl PascoClient {
    /// Connects and completes the handshake: sends the protocol-version
    /// hello, receives the server's [`ServerInfo`] — within
    /// [`DEFAULT_IO_TIMEOUT`], or [`ClientError::Io`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let writer = TcpStream::connect(addr).map_err(ClientError::Io)?;
        let _ = writer.set_nodelay(true);
        let reader_half = writer.try_clone().map_err(ClientError::Io)?;
        let mut client = PascoClient {
            writer,
            reader: BufReader::new(reader_half),
            info: ServerInfo { node_count: 0, max_frame_bytes: 0 },
            next_id: 1,
            pending: BTreeMap::new(),
            in_flight: BTreeSet::new(),
            open: true,
        };
        client.set_io_timeout(Some(DEFAULT_IO_TIMEOUT))?;
        write_envelope(&mut client.writer, &Envelope::hello()).map_err(ClientError::Io)?;
        // The server's limit is not known yet, so the handshake read is
        // bounded by the protocol default — a rogue endpoint announcing
        // a u32::MAX payload must not make us allocate gigabytes.
        let ack = read_envelope(&mut client.reader, DEFAULT_MAX_FRAME)?;
        if ack.kind != FrameKind::HelloAck {
            return Err(ClientError::Protocol(FrameError::UnexpectedKind {
                got: ack.kind,
                expected: "HelloAck",
            }));
        }
        client.info = ack.decode_server_info().map_err(ClientError::Protocol)?;
        client.set_io_timeout(None)?;
        Ok(client)
    }

    /// Bounds every blocking socket read and write on this connection:
    /// a server that stalls past `timeout` surfaces as
    /// [`ClientError::Io`] (kind `WouldBlock`/`TimedOut`) instead of
    /// hanging the caller forever. `None` — the default — blocks
    /// indefinitely. The timeout is a property of the underlying socket,
    /// so it covers reads and writes alike.
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.writer.set_read_timeout(timeout).map_err(ClientError::Io)?;
        self.writer.set_write_timeout(timeout).map_err(ClientError::Io)
    }

    /// What the server announced in its handshake: graph size (for
    /// client-side validation) and its frame-size limit.
    pub fn server_info(&self) -> ServerInfo {
        self.info
    }

    /// Whether the connection is still usable (no transport fault, no
    /// goodbye seen).
    pub fn is_open(&self) -> bool {
        self.open
    }

    fn guard_open(&self) -> Result<(), ClientError> {
        if self.open {
            Ok(())
        } else {
            Err(ClientError::Poisoned)
        }
    }

    /// Marks the connection unusable and returns the fault.
    fn poison<T>(&mut self, err: ClientError) -> Result<T, ClientError> {
        self.open = false;
        Err(err)
    }

    /// Puts one frame on the wire under a fresh id, returning the id and
    /// its encoded length. A payload over the server's advertised limit
    /// fails here instead of getting the connection closed on it.
    fn send_frame(&mut self, kind: FrameKind, payload: Vec<u8>) -> Result<(u64, u64), ClientError> {
        self.guard_open()?;
        if payload.len() as u64 > u64::from(self.info.max_frame_bytes) {
            // The connection carried nothing: no need to poison it.
            return Err(ClientError::Protocol(FrameError::Oversize {
                len: payload.len().min(u32::MAX as usize) as u32,
                max: self.info.max_frame_bytes,
            }));
        }
        let id = self.next_id;
        self.next_id += 1;
        let env = Envelope { kind, request_id: id, payload };
        match write_envelope(&mut self.writer, &env) {
            Ok(()) => {
                self.in_flight.insert(id);
                Ok((id, env.encoded_len() as u64))
            }
            Err(e) => self.poison(ClientError::Io(e)),
        }
    }

    /// Collects the frame of kind `want` answering `id`, buffering replies
    /// to other in-flight ids. An error frame is [`ClientError::Query`].
    fn recv_frame(&mut self, id: u64, want: FrameKind) -> Result<Envelope, ClientError> {
        self.guard_open()?;
        if !self.in_flight.contains(&id) && !self.pending.contains_key(&id) {
            // Never issued, or already delivered: blocking on it would
            // wait for a frame the server will never send.
            return Err(ClientError::UnknownId { id });
        }
        let env = loop {
            if let Some(env) = self.pending.remove(&id) {
                break env;
            }
            let env = match read_envelope(&mut self.reader, self.info.max_frame_bytes) {
                Ok(env) if env.kind == FrameKind::Goodbye => {
                    return self.poison(ClientError::Closed)
                }
                Ok(env) => env,
                Err(e) => return self.poison(e.into()),
            };
            // A reply must consume exactly one in-flight id (it moves to
            // the pending buffer until the caller collects it). An
            // unsolicited or duplicate id is a protocol fault, not
            // something to buffer: a hostile server could otherwise grow
            // `pending` without bound or overwrite a buffered answer.
            if !self.in_flight.remove(&env.request_id) {
                return self.poison(ClientError::Protocol(FrameError::UnexpectedKind {
                    got: env.kind,
                    expected: "a frame for an in-flight request id",
                }));
            }
            self.pending.insert(env.request_id, env);
        };
        match env.kind {
            got if got == want => Ok(env),
            FrameKind::Error => match env.decode_error() {
                Ok(err) => Err(ClientError::Query(err)),
                Err(e) => self.poison(ClientError::Protocol(e)),
            },
            got => self.poison(ClientError::Protocol(FrameError::UnexpectedKind {
                got,
                expected: "the request's reply kind or Error",
            })),
        }
    }

    /// Puts one request on the wire without waiting, returning the id to
    /// [`wait`](PascoClient::wait) on. An over-large request fails here
    /// ([`ClientError::Protocol`]) and leaves the connection usable.
    pub fn send(&mut self, req: &QueryRequest) -> Result<u64, ClientError> {
        self.send_frame(FrameKind::Request, req.to_bytes()).map(|(id, _)| id)
    }

    /// Collects the answer to request `id`, buffering responses to other
    /// in-flight ids as they arrive. The inner result is the request's
    /// own outcome: a typed [`QueryError`] is a *delivered answer* and
    /// leaves the connection open.
    pub fn wait(&mut self, id: u64) -> Result<Result<QueryResponse, QueryError>, ClientError> {
        match self.recv_frame(id, FrameKind::Response) {
            Ok(env) => {
                env.decode_response().map(Ok).or_else(|e| self.poison(ClientError::Protocol(e)))
            }
            Err(ClientError::Query(err)) => Ok(Err(err)),
            Err(e) => Err(e),
        }
    }

    /// The coordinator's worker-frame path: one request of any `kind`, its
    /// reply (echoing `kind`) and the wire bytes both moved, under a socket
    /// timeout of `timeout` (left set).
    pub(crate) fn exchange(
        &mut self,
        kind: FrameKind,
        payload: &[u8],
        timeout: Duration,
    ) -> Result<(Envelope, u64), ClientError> {
        self.set_io_timeout(Some(timeout))?;
        let (id, sent) = self.send_frame(kind, payload.to_vec())?;
        let reply = self.recv_frame(id, kind)?;
        let bytes = sent + reply.encoded_len() as u64;
        Ok((reply, bytes))
    }

    /// One request, one answer: [`send`](PascoClient::send) then
    /// [`wait`](PascoClient::wait), with the typed error flattened into
    /// [`ClientError::Query`].
    pub fn query(&mut self, req: QueryRequest) -> Result<QueryResponse, ClientError> {
        let id = self.send(&req)?;
        self.wait(id)?.map_err(ClientError::Query)
    }

    /// Pipelines every request before collecting any answer: one wire
    /// round trip for the whole slice, with per-request typed outcomes
    /// (one failing request does not fail its neighbours).
    pub fn query_batch(
        &mut self,
        reqs: &[QueryRequest],
    ) -> Result<Vec<Result<QueryResponse, QueryError>>, ClientError> {
        let ids = reqs.iter().map(|req| self.send(req)).collect::<Result<Vec<_>, _>>()?;
        ids.into_iter().map(|id| self.wait(id)).collect()
    }

    /// Asks the server to drain and stop, consuming the client: returns
    /// once the server's goodbye (written after every in-flight response
    /// on this connection) has arrived.
    pub fn shutdown_server(mut self) -> Result<(), ClientError> {
        self.guard_open()?;
        write_envelope(&mut self.writer, &Envelope::shutdown()).map_err(ClientError::Io)?;
        loop {
            match read_envelope(&mut self.reader, self.info.max_frame_bytes) {
                // In-flight responses the caller never waited on may
                // still be draining; discard them.
                Ok(env) if env.kind == FrameKind::Response || env.kind == FrameKind::Error => {}
                Ok(env) if env.kind == FrameKind::Goodbye => return Ok(()),
                Ok(env) => {
                    return Err(ClientError::Protocol(FrameError::UnexpectedKind {
                        got: env.kind,
                        expected: "Goodbye",
                    }))
                }
                // A close without goodbye still means the server is gone.
                Err(TransportError::Closed) => return Ok(()),
                Err(e) => return Err(e.into()),
            }
        }
    }
}
