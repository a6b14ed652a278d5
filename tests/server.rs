//! Integration: the network front door. A loopback `PascoServer` must be
//! protocol-conformant at the byte level (golden frames, malformed-frame
//! rejection) and semantically transparent: every `QueryRequest` variant
//! answered over TCP is bit-identical to a direct `QueryService::execute`
//! on the same engine — Local and Sharded alike — including pipelined
//! out-of-order exchanges, typed errors as error frames, and a graceful
//! drain on the shutdown frame.

use pasco::graph::generators;
use pasco::server::{ClientError, PascoClient, PascoServer, ServerConfig, ServerHandle};
use pasco::simrank::api::envelope::{Envelope, FrameKind, HEADER_LEN, MAGIC};
use pasco::simrank::api::wire::WireCodec;
use pasco::simrank::{
    CloudWalker, ExecMode, QueryError, QueryRequest, QueryResponse, QueryService, QuerySession,
    SimRankConfig,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

const NODES: u32 = 80;

fn walker(mode: ExecMode) -> Arc<CloudWalker> {
    let g = Arc::new(generators::barabasi_albert(NODES, 3, 13));
    Arc::new(CloudWalker::build(g, SimRankConfig::fast(), mode).unwrap())
}

fn local_walker() -> &'static Arc<CloudWalker> {
    static W: OnceLock<Arc<CloudWalker>> = OnceLock::new();
    W.get_or_init(|| walker(ExecMode::Local))
}

/// Boots a server over `svc` on an ephemeral loopback port.
fn spawn_server(
    svc: Arc<dyn QueryService>,
    cfg: ServerConfig,
) -> (SocketAddr, ServerHandle, JoinHandle<()>) {
    let server = PascoServer::bind("127.0.0.1:0", svc, cfg).unwrap();
    let (addr, handle) = (server.local_addr(), server.handle());
    let join = std::thread::spawn(move || server.run().unwrap());
    (addr, handle, join)
}

/// Every request variant the protocol knows, all in range.
fn all_variants() -> Vec<QueryRequest> {
    vec![
        QueryRequest::SinglePair { i: 3, j: 41 },
        QueryRequest::SingleSource { i: 7 },
        QueryRequest::SingleSourcePush { i: 7 },
        QueryRequest::SingleSourceTopK { i: 11, k: 6 },
        QueryRequest::PairsMatrix { rows: vec![1, 5], cols: vec![2, 9, 17] },
        QueryRequest::Cohort { v: 23 },
        QueryRequest::Batch(vec![
            QueryRequest::SinglePair { i: 4, j: 6 },
            QueryRequest::SingleSourceTopK { i: 4, k: 3 },
        ]),
    ]
}

/// The acceptance bar: client → server → session answers are bit-identical
/// to direct `QueryService::execute`, for every variant, on both the
/// Local and the Sharded engine.
#[test]
fn network_answers_equal_direct_execute_on_local_and_sharded() {
    for mode in [ExecMode::Local, ExecMode::Sharded { shards: 3 }] {
        let cw = walker(mode);
        let session = Arc::new(QuerySession::new(Arc::clone(&cw), 32));
        let (addr, _, join) = spawn_server(Arc::clone(&session) as _, ServerConfig::default());
        let mut client = PascoClient::connect(addr).unwrap();
        assert_eq!(client.server_info().node_count, NODES);
        for req in all_variants() {
            let over_wire = client.query(req.clone()).unwrap();
            let direct = session.execute(req.clone()).unwrap();
            assert_eq!(over_wire, direct, "{req:?} on {}", cw.mode_name());
        }
        client.shutdown_server().unwrap();
        join.join().unwrap();
    }
}

/// Pipelining: many requests on the wire before any answer is read, then
/// collected in *reverse* send order — every answer must match by id even
/// though the reads force the out-of-order buffer through its paces.
#[test]
fn pipelined_out_of_order_collection_matches_by_request_id() {
    let cw = local_walker();
    let (addr, _, join) =
        spawn_server(Arc::clone(cw) as _, ServerConfig { workers: 3, ..ServerConfig::default() });
    let mut client = PascoClient::connect(addr).unwrap();

    let reqs = all_variants();
    let ids: Vec<u64> = reqs.iter().map(|r| client.send(r).unwrap()).collect();
    for (id, req) in ids.iter().zip(&reqs).rev() {
        let got = client.wait(*id).unwrap().unwrap();
        assert_eq!(got, cw.execute(req.clone()).unwrap(), "{req:?}");
    }
    assert!(client.is_open());

    // Waiting on an id that was never issued (or one already delivered)
    // fails fast instead of blocking on a frame that will never come.
    assert!(matches!(client.wait(9_999), Err(ClientError::UnknownId { id: 9_999 })));
    assert!(matches!(client.wait(ids[0]), Err(ClientError::UnknownId { .. })));
    assert!(client.is_open());

    // query_batch pipelines internally and keeps per-request outcomes.
    let outcomes = client.query_batch(&reqs).unwrap();
    for (outcome, req) in outcomes.iter().zip(&reqs) {
        assert_eq!(outcome.as_ref().unwrap(), &cw.execute(req.clone()).unwrap());
    }
    client.shutdown_server().unwrap();
    join.join().unwrap();
}

/// A typed `QueryError` crosses the wire as an error frame: the client
/// surfaces it typed, nothing panics, and the connection keeps serving.
#[test]
fn query_error_travels_as_error_frame_and_connection_survives() {
    let cw = local_walker();
    let (addr, _, join) = spawn_server(Arc::clone(cw) as _, ServerConfig::default());
    let mut client = PascoClient::connect(addr).unwrap();

    let bad = NODES + 9;
    match client.query(QueryRequest::SingleSource { i: bad }) {
        Err(ClientError::Query(e)) => {
            assert_eq!(e, QueryError::NodeOutOfRange { node: bad, node_count: NODES });
        }
        other => panic!("expected a typed query error, got {other:?}"),
    }
    assert!(client.is_open(), "a typed error must not close the connection");

    // Mixed batch: the bad request fails alone, its neighbours answer.
    let outcomes = client
        .query_batch(&[
            QueryRequest::SinglePair { i: 1, j: 2 },
            QueryRequest::SingleSourceTopK { i: 1, k: 0 },
            QueryRequest::Cohort { v: 5 },
        ])
        .unwrap();
    assert_eq!(outcomes[0], Ok(QueryResponse::Score(cw.try_single_pair(1, 2).unwrap())));
    assert_eq!(outcomes[1], Err(QueryError::InvalidK { k: 0 }));
    assert_eq!(outcomes[2], Ok(QueryResponse::Cohort(cw.try_query_cohort(5).unwrap())));

    // And the connection still answers a clean query afterwards.
    assert_eq!(
        client.query(QueryRequest::SinglePair { i: 2, j: 3 }).unwrap(),
        QueryResponse::Score(cw.try_single_pair(2, 3).unwrap())
    );
    client.shutdown_server().unwrap();
    join.join().unwrap();
}

fn hex(s: &str) -> Vec<u8> {
    s.split_whitespace().map(|b| u8::from_str_radix(b, 16).unwrap()).collect()
}

/// Reads until the peer closes, returning everything received.
fn read_to_close(stream: &mut TcpStream) -> Vec<u8> {
    let mut all = Vec::new();
    let _ = stream.read_to_end(&mut all);
    all
}

/// Byte-level conformance: a raw socket speaking fixed hex fixtures gets
/// the exact bytes the protocol spec promises — handshake ack, response
/// frame, goodbye — with no client library in the loop.
#[test]
fn golden_bytes_over_a_raw_socket() {
    let cw = local_walker();
    let cfg = ServerConfig { max_frame_bytes: 1 << 20, ..ServerConfig::default() };
    let (addr, handle, join) = spawn_server(Arc::clone(cw) as _, cfg);
    let mut stream = TcpStream::connect(addr).unwrap();

    // Hello: magic "PSCO", version 1, kind 0, flags 0, id 0, empty.
    stream.write_all(&hex("50 53 43 4f 01 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00")).unwrap();
    // HelloAck: kind 1, 8-byte ServerInfo { node_count=80=0x50, max_frame=0x100000 }.
    let mut ack = vec![0u8; HEADER_LEN + 8];
    stream.read_exact(&mut ack).unwrap();
    assert_eq!(
        ack,
        hex("50 53 43 4f 01 00 01 00 00 00 00 00 00 00 00 00 08 00 00 00 \
             50 00 00 00 00 00 10 00"),
    );

    // Request id 0x2a: SinglePair { i: 3, j: 41 } (tag 0, u32 LE × 2).
    stream
        .write_all(&hex("50 53 43 4f 01 00 02 00 2a 00 00 00 00 00 00 00 09 00 00 00 \
             00 03 00 00 00 29 00 00 00"))
        .unwrap();
    // Response: header (kind 3, id 0x2a echoed, 9-byte payload), then
    // tag 0 + the f64 bits of the direct answer.
    let mut resp = vec![0u8; HEADER_LEN + 9];
    stream.read_exact(&mut resp).unwrap();
    let mut expect = hex("50 53 43 4f 01 00 03 00 2a 00 00 00 00 00 00 00 09 00 00 00 00");
    expect.extend_from_slice(&cw.try_single_pair(3, 41).unwrap().to_le_bytes());
    assert_eq!(resp, expect);

    // Shutdown (kind 5) → Goodbye (kind 6), then a clean close.
    stream.write_all(&hex("50 53 43 4f 01 00 05 00 00 00 00 00 00 00 00 00 00 00 00 00")).unwrap();
    let tail = read_to_close(&mut stream);
    assert_eq!(tail, hex("50 53 43 4f 01 00 06 00 00 00 00 00 00 00 00 00 00 00 00 00"));
    drop(handle);
    join.join().unwrap();
}

/// Framing violations close the connection — bad magic, an unsupported
/// version, an oversize payload announcement, an undecodable request
/// payload — and the server keeps serving everyone else.
#[test]
fn malformed_and_oversize_frames_drop_the_connection_not_the_server() {
    let cw = local_walker();
    let cfg = ServerConfig { max_frame_bytes: 4096, ..ServerConfig::default() };
    let (addr, _, join) = spawn_server(Arc::clone(cw) as _, cfg);

    // Bad magic: closed before any handshake answer.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    assert!(read_to_close(&mut s).is_empty(), "no bytes for a non-protocol peer");

    // Wrong version in the hello.
    let mut s = TcpStream::connect(addr).unwrap();
    let mut bad = Envelope::hello().to_bytes();
    bad[4] = 9;
    s.write_all(&bad).unwrap();
    assert!(read_to_close(&mut s).is_empty());

    // Valid handshake, then a header announcing a payload over the limit:
    // the ack arrives, then the connection closes with nothing more.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&Envelope::hello().to_bytes()).unwrap();
    let mut ack = vec![0u8; HEADER_LEN + 8];
    s.read_exact(&mut ack).unwrap();
    assert_eq!(ack[..4], MAGIC);
    let mut oversize = Envelope::request(1, &QueryRequest::Cohort { v: 1 }).to_bytes();
    oversize[16..20].copy_from_slice(&(1u32 << 30).to_le_bytes());
    s.write_all(&oversize).unwrap();
    assert!(read_to_close(&mut s).is_empty(), "oversize frame must drop the connection");

    // Valid envelope, garbage payload: also dropped.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&Envelope::hello().to_bytes()).unwrap();
    s.read_exact(&mut [0u8; HEADER_LEN + 8]).unwrap();
    let garbage = Envelope { kind: FrameKind::Request, request_id: 1, payload: vec![0xee, 0xee] };
    s.write_all(&garbage.to_bytes()).unwrap();
    assert!(read_to_close(&mut s).is_empty());

    // After all of that, a well-behaved client is served normally.
    let mut client = PascoClient::connect(addr).unwrap();
    assert_eq!(
        client.query(QueryRequest::SinglePair { i: 0, j: 1 }).unwrap(),
        QueryResponse::Score(cw.try_single_pair(0, 1).unwrap())
    );
    client.shutdown_server().unwrap();
    join.join().unwrap();
}

/// A peer that connects and never sends a byte is cut off at the
/// handshake deadline instead of pinning a connection thread (and its
/// socket) until server shutdown.
#[test]
fn silent_peers_are_dropped_at_the_handshake_deadline() {
    let cw = local_walker();
    let cfg = ServerConfig {
        io_timeout: std::time::Duration::from_millis(150),
        ..ServerConfig::default()
    };
    let (addr, _, join) = spawn_server(Arc::clone(cw) as _, cfg);
    let started = std::time::Instant::now();
    let mut silent = TcpStream::connect(addr).unwrap();
    assert!(read_to_close(&mut silent).is_empty(), "no bytes for a silent peer");
    let waited = started.elapsed();
    assert!(waited < std::time::Duration::from_secs(5), "dropped at the deadline, not never");
    // The server is unaffected.
    let mut client = PascoClient::connect(addr).unwrap();
    assert!(client.query(QueryRequest::SinglePair { i: 0, j: 1 }).is_ok());
    client.shutdown_server().unwrap();
    join.join().unwrap();
}

/// An oversize *request* is refused client-side against the advertised
/// limit, without poisoning the connection.
#[test]
fn client_refuses_requests_over_the_advertised_frame_limit() {
    let cw = local_walker();
    let cfg = ServerConfig { max_frame_bytes: 64, ..ServerConfig::default() };
    let (addr, _, join) = spawn_server(Arc::clone(cw) as _, cfg);
    let mut client = PascoClient::connect(addr).unwrap();
    assert_eq!(client.server_info().max_frame_bytes, 64);
    let huge = QueryRequest::PairsMatrix { rows: (0..40).collect(), cols: (0..40).collect() };
    assert!(matches!(client.send(&huge), Err(ClientError::Protocol(_))));
    assert!(client.is_open(), "nothing touched the wire");
    assert!(client.query(QueryRequest::SinglePair { i: 1, j: 2 }).is_ok());

    // And the server binds itself to the same limit: an answer that
    // would not fit degrades into a typed error (never an oversize frame
    // that would poison the client), and the connection keeps serving.
    match client.query(QueryRequest::SingleSource { i: 1 }) {
        Err(ClientError::Query(QueryError::ResponseTooLarge { bytes, max_frame: 64 })) => {
            assert!(bytes > 64, "dense row of {NODES} nodes is {bytes} bytes");
        }
        other => panic!("expected ResponseTooLarge, got {other:?}"),
    }
    assert!(client.is_open());
    assert!(client.query(QueryRequest::SinglePair { i: 2, j: 3 }).is_ok());
    client.shutdown_server().unwrap();
    join.join().unwrap();
}

/// The shutdown frame drains the whole server: the shutting-down client
/// gets every in-flight answer then a goodbye; other connected clients
/// are told goodbye rather than cut off; `run()` returns; and a poisoned
/// client reports `Poisoned` (reconnect) instead of writing to the dead
/// stream.
#[test]
fn shutdown_frame_drains_the_server_cleanly() {
    let cw = local_walker();
    let (addr, _, join) = spawn_server(Arc::clone(cw) as _, ServerConfig::default());
    let mut survivor = PascoClient::connect(addr).unwrap();
    assert!(survivor.query(QueryRequest::SinglePair { i: 1, j: 2 }).is_ok());

    let mut closer = PascoClient::connect(addr).unwrap();
    // Leave answers in flight when the shutdown frame goes out: the
    // server must deliver them (drain) before its goodbye.
    for req in [QueryRequest::SingleSource { i: 3 }, QueryRequest::Cohort { v: 4 }] {
        closer.send(&req).unwrap();
    }
    closer.shutdown_server().unwrap();
    join.join().unwrap();

    // The surviving client's next exchange learns the server is gone —
    // as a clean `Closed`/`Io`, never a hang or a panic.
    match survivor.query(QueryRequest::SinglePair { i: 1, j: 2 }) {
        Err(ClientError::Closed) | Err(ClientError::Io(_)) => {}
        other => panic!("expected a clean close, got {other:?}"),
    }
    assert!(!survivor.is_open());
    assert!(matches!(
        survivor.query(QueryRequest::SinglePair { i: 1, j: 2 }),
        Err(ClientError::Poisoned)
    ));
}

/// `ServerHandle::shutdown` must drain promptly on a *wildcard* bind.
/// The old implementation woke the accept loop by connecting to itself
/// and needed a special case to turn `0.0.0.0` into a dialable address;
/// the reactor's eventfd wake has no such seam — this pins that down.
#[test]
fn handle_shutdown_drains_promptly_on_a_wildcard_bind() {
    let cw = local_walker();
    let server = PascoServer::bind(
        "0.0.0.0:0",
        Arc::clone(cw) as Arc<dyn QueryService>,
        ServerConfig::default(),
    )
    .unwrap();
    let port = server.local_addr().port();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().unwrap());

    // A connected, idle client when the shutdown lands: it must be told
    // goodbye, not abandoned.
    let mut client = PascoClient::connect(("127.0.0.1", port)).unwrap();
    assert!(client.query(QueryRequest::SinglePair { i: 1, j: 2 }).is_ok());

    let started = std::time::Instant::now();
    handle.shutdown();
    join.join().unwrap();
    assert!(
        started.elapsed() < std::time::Duration::from_secs(5),
        "wildcard shutdown must not wait for a poll interval or a new connection"
    );
    match client.query(QueryRequest::SinglePair { i: 1, j: 2 }) {
        Err(ClientError::Closed) | Err(ClientError::Io(_)) => {}
        other => panic!("expected a clean close after drain, got {other:?}"),
    }
}

/// The zero-idle-wakeup guarantee, asserted with the server's own
/// counters: 64 established connections sitting between requests cause
/// not a single `read` call. (The retired `poll_interval` design woke
/// every connection every 25ms just to check for drain.)
#[test]
fn idle_connections_cause_zero_reads() {
    let cw = local_walker();
    let (addr, handle, join) = spawn_server(Arc::clone(cw) as _, ServerConfig::default());
    let mut clients: Vec<PascoClient> = (0..64)
        .map(|_| {
            let mut c = PascoClient::connect(addr).unwrap();
            assert!(c.query(QueryRequest::SinglePair { i: 1, j: 2 }).is_ok());
            c
        })
        .collect();
    assert_eq!(handle.stats().accepted, 64);

    // Let in-flight readiness settle, then sample over an idle window.
    std::thread::sleep(std::time::Duration::from_millis(100));
    let before = handle.stats();
    std::thread::sleep(std::time::Duration::from_millis(400));
    let after = handle.stats();
    assert_eq!(after.reads, before.reads, "an idle server must not touch its sockets");
    assert_eq!(after.wakeups, before.wakeups, "an idle server must not leave epoll_wait");

    // The connections are all still live, not silently dropped.
    for c in &mut clients {
        assert!(c.query(QueryRequest::SinglePair { i: 2, j: 3 }).is_ok());
    }
    handle.shutdown();
    join.join().unwrap();
}

/// A slowloris peer — trickling one byte per 100ms so every read makes
/// "progress" — is still dropped: the deadline is per *frame*, armed when
/// the frame starts and not reset by trickled bytes.
#[test]
fn slowloris_trickle_is_dropped_at_io_timeout() {
    let cw = local_walker();
    let cfg = ServerConfig {
        io_timeout: std::time::Duration::from_millis(300),
        ..ServerConfig::default()
    };
    let (addr, handle, join) = spawn_server(Arc::clone(cw) as _, cfg);

    // Handshake at full speed: the attack starts inside the session.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&Envelope::hello().to_bytes()).unwrap();
    s.read_exact(&mut [0u8; HEADER_LEN + 8]).unwrap();

    let frame = Envelope::request(1, &QueryRequest::SinglePair { i: 1, j: 2 }).to_bytes();
    let started = std::time::Instant::now();
    let mut sent = 0usize;
    for byte in &frame {
        if s.write_all(std::slice::from_ref(byte)).is_err() {
            break; // the server already cut us off
        }
        sent += 1;
        std::thread::sleep(std::time::Duration::from_millis(100));
        if started.elapsed() > std::time::Duration::from_secs(2) {
            break;
        }
    }
    assert!(sent < frame.len(), "the full frame must never get through at this rate");
    assert!(read_to_close(&mut s).is_empty(), "no answer for a slowloris frame");
    let waited = started.elapsed();
    assert!(waited < std::time::Duration::from_secs(2), "dropped near io_timeout, not eventually");
    assert!(handle.stats().timeouts >= 1, "the drop must be the deadline's doing");

    // The event loop is unharmed.
    let mut client = PascoClient::connect(addr).unwrap();
    assert!(client.query(QueryRequest::SinglePair { i: 0, j: 1 }).is_ok());
    client.shutdown_server().unwrap();
    join.join().unwrap();
}

/// Disconnecting mid-frame — header half-sent, payload truncated, or a
/// vanishing handshake — must never wedge the event loop: each partial
/// conversation ends in a dropped connection and the next client is
/// served normally.
#[test]
fn mid_frame_disconnects_never_wedge_the_loop() {
    let cw = local_walker();
    let (addr, handle, join) = spawn_server(Arc::clone(cw) as _, ServerConfig::default());

    let hello = Envelope::hello().to_bytes();
    let request = Envelope::request(7, &QueryRequest::Cohort { v: 3 }).to_bytes();
    for cut in [1, HEADER_LEN / 2, HEADER_LEN, HEADER_LEN + 2] {
        // Half a handshake, gone.
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&hello[..cut.min(hello.len())]).unwrap();
        drop(s);

        // Full handshake, then a truncated request, gone.
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&hello).unwrap();
        s.read_exact(&mut [0u8; HEADER_LEN + 8]).unwrap();
        s.write_all(&request[..cut]).unwrap();
        drop(s);

        // The loop still answers a well-behaved client immediately.
        let mut client = PascoClient::connect(addr).unwrap();
        assert_eq!(
            client.query(QueryRequest::SinglePair { i: 0, j: 1 }).unwrap(),
            QueryResponse::Score(cw.try_single_pair(0, 1).unwrap())
        );
    }
    handle.shutdown();
    join.join().unwrap();
}

/// A `QueryService` whose `Cohort` answers stall until released — the
/// "expensive" request the overtaking test pits a cheap one against.
struct StallCohorts {
    inner: Arc<CloudWalker>,
    gate: std::sync::Mutex<std::sync::mpsc::Receiver<()>>,
}

impl QueryService for StallCohorts {
    fn execute(&self, req: QueryRequest) -> Result<QueryResponse, QueryError> {
        if matches!(req, QueryRequest::Cohort { .. }) {
            let gate = self.gate.lock().unwrap();
            let _ = gate.recv_timeout(std::time::Duration::from_secs(10));
        }
        self.inner.execute(req)
    }
    fn node_count(&self) -> u32 {
        self.inner.node_count()
    }
}

/// Completion-order pipelining on one connection: a cheap query sent
/// *after* an expensive one comes back *before* it — observed on the raw
/// byte stream, so the ordering claim is about the server, not about
/// client-side buffering.
#[test]
fn cheap_query_overtakes_expensive_on_one_connection() {
    let cw = local_walker();
    let (gate_tx, gate_rx) = std::sync::mpsc::channel();
    let svc: Arc<dyn QueryService> =
        Arc::new(StallCohorts { inner: Arc::clone(cw), gate: std::sync::Mutex::new(gate_rx) });
    let (addr, handle, join) =
        spawn_server(svc, ServerConfig { workers: 2, ..ServerConfig::default() });

    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&Envelope::hello().to_bytes()).unwrap();
    s.read_exact(&mut [0u8; HEADER_LEN + 8]).unwrap();

    // Expensive first (id 1, stalled on the gate), cheap second (id 2).
    s.write_all(&Envelope::request(1, &QueryRequest::Cohort { v: 3 }).to_bytes()).unwrap();
    s.write_all(&Envelope::request(2, &QueryRequest::SinglePair { i: 0, j: 1 }).to_bytes())
        .unwrap();

    // First frame off the wire must be the *cheap* answer, while the
    // expensive one is still parked in the pool.
    let mut head = [0u8; HEADER_LEN];
    s.read_exact(&mut head).unwrap();
    let first_id = u64::from_le_bytes(head[8..16].try_into().unwrap());
    assert_eq!(first_id, 2, "completion order, not request order");
    let len = u32::from_le_bytes(head[16..20].try_into().unwrap()) as usize;
    s.read_exact(&mut vec![0u8; len]).unwrap();

    // Release the stalled cohort; its answer (id 1) follows.
    gate_tx.send(()).unwrap();
    s.read_exact(&mut head).unwrap();
    assert_eq!(u64::from_le_bytes(head[8..16].try_into().unwrap()), 1);
    let len = u32::from_le_bytes(head[16..20].try_into().unwrap()) as usize;
    s.read_exact(&mut vec![0u8; len]).unwrap();

    drop(s);
    handle.shutdown();
    join.join().unwrap();
}

/// 256 concurrent connections, every answer bit-identical to a direct
/// `execute` on the same engine — the reactor serves a crowd without
/// mixing anybody's frames up.
#[test]
fn answers_stay_bit_identical_across_256_concurrent_clients() {
    let cw = local_walker();
    let (addr, handle, join) = spawn_server(Arc::clone(cw) as _, ServerConfig::default());

    std::thread::scope(|scope| {
        for c in 0..256u32 {
            let cw = Arc::clone(cw);
            scope.spawn(move || {
                let mut client = PascoClient::connect(addr).unwrap();
                let (i, j) = (c % NODES, (c * 7 + 1) % NODES);
                let reqs = [
                    QueryRequest::SinglePair { i, j },
                    QueryRequest::SingleSourceTopK { i, k: 4 },
                    QueryRequest::Cohort { v: j },
                ];
                // Pipelined, collected in reverse: the out-of-order
                // buffer and completion-order writes both in play.
                let ids: Vec<u64> = reqs.iter().map(|r| client.send(r).unwrap()).collect();
                for (id, req) in ids.iter().zip(&reqs).rev() {
                    let got = client.wait(*id).unwrap().unwrap();
                    assert_eq!(got, cw.execute(req.clone()).unwrap(), "client {c}: {req:?}");
                }
            });
        }
    });
    assert_eq!(handle.stats().accepted, 256);
    assert_eq!(handle.stats().requests, 256 * 3);
    handle.shutdown();
    join.join().unwrap();
}

/// Reads one response frame off a raw stream, returning `(id, payload)`.
fn read_response(s: &mut TcpStream) -> (u64, Vec<u8>) {
    let mut head = [0u8; HEADER_LEN];
    s.read_exact(&mut head).unwrap();
    assert_eq!(head[..4], MAGIC);
    assert_eq!(head[6], 3, "expected a Response frame");
    let id = u64::from_le_bytes(head[8..16].try_into().unwrap());
    let len = u32::from_le_bytes(head[16..20].try_into().unwrap()) as usize;
    let mut payload = vec![0u8; len];
    s.read_exact(&mut payload).unwrap();
    (id, payload)
}

/// One write(2) carrying 3x the pipelining cap (`workers * 4`, floored
/// at 8): the reactor reads the whole burst in one gulp, pauses the
/// connection at the cap, and must *stash* the already-consumed tail —
/// not discard it on the theory it "stays in the kernel buffer" (it
/// does not; `read` took it). Every request gets exactly one answer.
#[test]
fn pipelining_past_the_cap_in_one_write_loses_no_requests() {
    let cw = local_walker();
    let (addr, handle, join) =
        spawn_server(Arc::clone(cw) as _, ServerConfig { workers: 2, ..ServerConfig::default() });

    const BURST: u64 = 24; // cap = max(8, 2 * 4) = 8; three times past it
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&Envelope::hello().to_bytes()).unwrap();
    s.read_exact(&mut [0u8; HEADER_LEN + 8]).unwrap();

    let pair = |id: u64| ((id % NODES as u64) as u32, ((id * 5 + 2) % NODES as u64) as u32);
    let mut burst = Vec::new();
    for id in 1..=BURST {
        let (i, j) = pair(id);
        burst.extend_from_slice(
            &Envelope::request(id, &QueryRequest::SinglePair { i, j }).to_bytes(),
        );
    }
    s.write_all(&burst).unwrap();

    // Answers arrive in completion order; collect and match by id.
    let mut seen = std::collections::HashSet::new();
    for _ in 0..BURST {
        let (id, payload) = read_response(&mut s);
        assert!(seen.insert(id), "request {id} answered twice");
        let (i, j) = pair(id);
        assert_eq!(payload[0], 0, "Score tag");
        assert_eq!(payload[1..], cw.try_single_pair(i, j).unwrap().to_le_bytes(), "request {id}");
    }
    assert_eq!(handle.stats().requests, BURST, "every pipelined request reached the pool");
    drop(s);
    handle.shutdown();
    join.join().unwrap();
}

/// A client that bursts past the cap, half-closes its write side, and
/// waits must still collect every answer: neither the RDHUP on the
/// paused connection nor the EOF read afterwards may be mistaken for a
/// dead peer while responses are owed.
#[test]
fn half_close_after_a_burst_still_delivers_every_answer() {
    let cw = local_walker();
    let (addr, handle, join) =
        spawn_server(Arc::clone(cw) as _, ServerConfig { workers: 2, ..ServerConfig::default() });

    const BURST: u64 = 24;
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&Envelope::hello().to_bytes()).unwrap();
    s.read_exact(&mut [0u8; HEADER_LEN + 8]).unwrap();
    let mut burst = Vec::new();
    for id in 1..=BURST {
        burst.extend_from_slice(
            &Envelope::request(id, &QueryRequest::SinglePair { i: 1, j: 2 }).to_bytes(),
        );
    }
    s.write_all(&burst).unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();

    let mut seen = std::collections::HashSet::new();
    for _ in 0..BURST {
        let (id, payload) = read_response(&mut s);
        assert!(seen.insert(id), "request {id} answered twice");
        assert_eq!(payload[1..], cw.try_single_pair(1, 2).unwrap().to_le_bytes(), "request {id}");
    }
    // After the last owed byte the server closes the connection cleanly.
    assert!(read_to_close(&mut s).is_empty(), "nothing after the final answer");
    assert_eq!(handle.stats().requests, BURST);
    handle.shutdown();
    join.join().unwrap();
}

/// The handshake puts real numbers in `ServerInfo` — the figures a
/// client needs for client-side validation.
#[test]
fn handshake_advertises_node_count_and_frame_limit() {
    let cw = local_walker();
    let session: Arc<dyn QueryService> = Arc::new(QuerySession::new(Arc::clone(cw), 8));
    assert_eq!(session.node_count(), NODES);
    let cfg = ServerConfig { max_frame_bytes: 12345, ..ServerConfig::default() };
    let (addr, _, join) = spawn_server(session, cfg);
    let client = PascoClient::connect(addr).unwrap();
    assert_eq!(client.server_info().node_count, NODES);
    assert_eq!(client.server_info().max_frame_bytes, 12345);
    // Envelope encoding sanity straight from the shared codec: the ack
    // payload is the 8-byte ServerInfo.
    assert_eq!(client.server_info().encoded_len(), 8);
    client.shutdown_server().unwrap();
    join.join().unwrap();
}
