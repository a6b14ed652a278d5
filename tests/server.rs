//! Integration: the network front door. A loopback `PascoServer` must be
//! protocol-conformant at the byte level (golden frames, malformed-frame
//! rejection) and semantically transparent: every `QueryRequest` variant
//! answered over TCP is bit-identical to a direct `QueryService::execute`
//! on the same engine — Local and a mapped store alike — including pipelined
//! out-of-order exchanges, typed errors as error frames, and a graceful
//! drain on the shutdown frame. The transport guarantees — idle costs
//! nothing, slow and hostile peers are dropped — hold for a hosted
//! SimRank worker too.

use pasco::graph::generators;
use pasco::graph::partition::Partitioner;
use pasco::server::{
    ClientError, PascoClient, PascoServer, ServerConfig, ServerHandle, FRAME_POOL_CAP,
};
use pasco::simrank::api::envelope::{
    Envelope, FrameKind, ServerInfo, DEFAULT_MAX_FRAME, HEADER_LEN, MAGIC,
};
use pasco::simrank::api::transport::{read_envelope, write_envelope, DEFAULT_IO_TIMEOUT};
use pasco::simrank::api::wire::WireCodec;
use pasco::simrank::api::worker::{Empty, LoadPartition, WorkerStats};
use pasco::simrank::{
    CloudWalker, ExecMode, QueryError, QueryRequest, QueryResponse, QueryService, QuerySession,
    SimRankConfig,
};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Arc, OnceLock};
use std::thread::JoinHandle;

const NODES: u32 = 80;

fn local_walker() -> &'static Arc<CloudWalker> {
    static W: OnceLock<Arc<CloudWalker>> = OnceLock::new();
    W.get_or_init(|| {
        let g = Arc::new(generators::barabasi_albert(NODES, 3, 13));
        Arc::new(CloudWalker::build(g, SimRankConfig::fast(), ExecMode::Local).unwrap())
    })
}

/// The local walker saved as a 3-part store and reopened through the mmap
/// path.
fn store_walker() -> Arc<CloudWalker> {
    let dir = std::env::temp_dir().join("pasco_server_store");
    let _ = std::fs::remove_dir_all(&dir);
    local_walker().save_store(&dir, 3).unwrap();
    Arc::new(CloudWalker::open_store(&dir, SimRankConfig::fast()).unwrap())
}

/// Boots a server over `svc` on an ephemeral loopback port.
fn spawn_server(
    svc: Arc<dyn QueryService>,
    cfg: ServerConfig,
) -> (SocketAddr, ServerHandle, JoinHandle<()>) {
    start(PascoServer::bind("127.0.0.1:0", svc, cfg).unwrap())
}

/// Runs a bound server on its own thread.
fn start(server: PascoServer) -> (SocketAddr, ServerHandle, JoinHandle<()>) {
    let (addr, handle) = (server.local_addr(), server.handle());
    let join = std::thread::spawn(move || server.run().unwrap());
    (addr, handle, join)
}

/// The two services the reactor hosts. A transport guarantee belongs to
/// the reactor, so its test takes each service as an input.
#[derive(Clone, Copy, Debug)]
enum Hosted {
    /// The shared local walker behind `PascoServer::bind`.
    Query,
    /// A fresh SimRank worker behind `PascoServer::bind_worker`.
    Worker,
}

impl Hosted {
    const BOTH: [Hosted; 2] = [Hosted::Query, Hosted::Worker];

    fn spawn(self, cfg: ServerConfig) -> (SocketAddr, ServerHandle, JoinHandle<()>) {
        match self {
            Hosted::Query => spawn_server(Arc::clone(local_walker()) as _, cfg),
            Hosted::Worker => start(PascoServer::bind_worker("127.0.0.1:0", cfg).unwrap()),
        }
    }

    /// A frame this service answers, and the exact answer it must get.
    fn probe(self) -> (Envelope, Envelope) {
        match self {
            Hosted::Query => {
                let score = local_walker().try_single_pair(0, 1).unwrap();
                (
                    Envelope::request(7, &QueryRequest::SinglePair { i: 0, j: 1 }),
                    Envelope::response(7, &QueryResponse::Score(score)),
                )
            }
            Hosted::Worker => (
                Envelope::worker(FrameKind::WorkerStats, 7, &Empty),
                Envelope::worker(FrameKind::WorkerStats, 7, &WorkerStats::default()),
            ),
        }
    }
}

/// A raw-socket peer past its handshake, one frame out and one back.
struct Peer {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    info: ServerInfo,
}

impl Peer {
    fn connect(addr: SocketAddr) -> Peer {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        write_envelope(&mut stream, &Envelope::hello()).unwrap();
        let ack = read_envelope(&mut reader, DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(ack.kind, FrameKind::HelloAck);
        Peer { stream, reader, info: ack.decode_server_info().unwrap() }
    }

    fn exchange(&mut self, env: &Envelope) -> Envelope {
        write_envelope(&mut self.stream, env).unwrap();
        read_envelope(&mut self.reader, DEFAULT_MAX_FRAME).unwrap()
    }

    /// Checks `hosted` answers its probe on this connection.
    fn probe(&mut self, hosted: Hosted) {
        let (ask, answer) = hosted.probe();
        assert_eq!(self.exchange(&ask), answer, "{hosted:?}");
    }
}

/// Every request variant the protocol knows, all in range.
fn all_variants() -> Vec<QueryRequest> {
    vec![
        QueryRequest::SinglePair { i: 3, j: 41 },
        QueryRequest::SingleSource { i: 7 },
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
/// Local engine and an opened 3-part store.
#[test]
fn network_answers_equal_direct_execute_on_local_and_sharded() {
    for cw in [Arc::clone(local_walker()), store_walker()] {
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
    for hosted in Hosted::BOTH {
        let cfg = ServerConfig { max_frame_bytes: 4096, ..ServerConfig::default() };
        let (addr, handle, join) = hosted.spawn(cfg);

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

        // Valid handshake, then a header announcing a payload over the
        // limit: the ack arrives, then the connection closes with nothing
        // more.
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&Envelope::hello().to_bytes()).unwrap();
        let mut ack = vec![0u8; HEADER_LEN + 8];
        s.read_exact(&mut ack).unwrap();
        assert_eq!(ack[..4], MAGIC);
        let mut oversize = hosted.probe().0.to_bytes();
        oversize[16..20].copy_from_slice(&(1u32 << 30).to_le_bytes());
        s.write_all(&oversize).unwrap();
        assert!(read_to_close(&mut s).is_empty(), "oversize frame must drop the connection");

        // Valid envelope, garbage payload: also dropped.
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&Envelope::hello().to_bytes()).unwrap();
        s.read_exact(&mut [0u8; HEADER_LEN + 8]).unwrap();
        let kind = hosted.probe().0.kind;
        let garbage = Envelope { kind, request_id: 1, payload: vec![0xee, 0xee] };
        s.write_all(&garbage.to_bytes()).unwrap();
        assert!(read_to_close(&mut s).is_empty(), "{hosted:?}");

        // After all of that, a well-behaved peer is served normally.
        Peer::connect(addr).probe(hosted);
        handle.shutdown();
        join.join().unwrap();
    }
}

/// Each service speaks only its own frames: a query server drops a peer
/// that sends a worker-control frame, a worker drops one that sends a
/// query, and each keeps serving the next peer. A worker's handshake
/// advertises what it holds at that moment: 0 nodes before a load round,
/// `n` after it.
#[test]
fn each_service_drops_the_other_services_frames_and_keeps_serving() {
    for (hosted, foreign) in [(Hosted::Query, Hosted::Worker), (Hosted::Worker, Hosted::Query)] {
        let (addr, handle, join) = hosted.spawn(ServerConfig::default());
        let mut peer = Peer::connect(addr);
        write_envelope(&mut peer.stream, &foreign.probe().0).unwrap();
        assert!(read_to_close(&mut peer.stream).is_empty(), "{hosted:?} answered {foreign:?}");
        Peer::connect(addr).probe(hosted);
        handle.shutdown();
        join.join().unwrap();
    }

    let (addr, handle, join) = Hosted::Worker.spawn(ServerConfig::default());
    let mut peer = Peer::connect(addr);
    assert_eq!(peer.info.node_count, 0, "nothing loaded yet");
    let g = generators::cycle(10);
    let image = pasco_store::partition_image(&g, &Partitioner::range(10, 1), 0).unwrap();
    let load = LoadPartition { owned_part: 0, image };
    let ack = peer.exchange(&Envelope::worker(FrameKind::LoadPartition, 1, &load));
    assert_eq!(ack.kind, FrameKind::LoadPartition);
    assert_eq!(Peer::connect(addr).info.node_count, 10, "the load round is over");
    handle.shutdown();
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
    assert!(waited >= cfg.io_timeout, "dropped before its deadline: {waited:?}");
    assert!(waited < std::time::Duration::from_secs(5), "dropped at the deadline, not never");
    // The server is unaffected.
    let mut client = PascoClient::connect(addr).unwrap();
    assert!(client.query(QueryRequest::SinglePair { i: 0, j: 1 }).is_ok());
    client.shutdown_server().unwrap();
    join.join().unwrap();
}

/// The client's side of the same deadline: an endpoint that accepts and
/// never sends `HelloAck` fails the connect typed instead of hanging it.
#[test]
fn connect_to_a_silent_endpoint_fails_at_the_handshake_deadline() {
    // Never accepted: the kernel completes the TCP handshake from the
    // backlog, and nothing ever answers the hello.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (done, outcome) = mpsc::channel();
    std::thread::spawn(move || {
        let started = std::time::Instant::now();
        let _ = done.send((PascoClient::connect(addr).map(|_| ()), started.elapsed()));
    });
    let (result, waited) = outcome.recv_timeout(2 * DEFAULT_IO_TIMEOUT).expect("connect hung");
    assert!(matches!(result, Err(ClientError::Io(_))), "{result:?}");
    let slack = std::time::Duration::from_secs(5);
    assert!(waited >= DEFAULT_IO_TIMEOUT && waited <= DEFAULT_IO_TIMEOUT + slack, "{waited:?}");
    drop(listener);
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

/// A request is bounded before any work: a 6 000-side `PairsMatrix` (a
/// 48 KB request) asks for a 288 MB answer, past the default 64 MB limit,
/// and is refused at once — not after 36 M scored pairs and a 288 MB
/// matrix — while another connection keeps being answered.
#[test]
fn an_oversize_answer_is_refused_before_any_work() {
    let cw = local_walker();
    let (addr, handle, join) = spawn_server(Arc::clone(cw) as _, ServerConfig::default());
    let side: Vec<u32> = (0..6_000).map(|v| v % NODES).collect();
    let huge = QueryRequest::PairsMatrix { rows: side.clone(), cols: side };
    let bound = huge.response_bound(NODES, cw.config());
    assert_eq!(bound, 5 + 6_000 * (4 + 8 * 6_000));

    let mut big = PascoClient::connect(addr).unwrap();
    // Computed instead of refused, the matrix would take hours: fail, not hang.
    big.set_io_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
    let mut other = PascoClient::connect(addr).unwrap();
    let t0 = std::time::Instant::now();
    let id = big.send(&huge).unwrap();
    let pair = other.query(QueryRequest::SinglePair { i: 1, j: 2 }).unwrap();
    assert_eq!(pair, QueryResponse::Score(cw.try_single_pair(1, 2).unwrap()));
    let refused = big.wait(id).unwrap();
    let took = t0.elapsed();
    assert_eq!(
        refused,
        Err(QueryError::ResponseTooLarge { bytes: bound, max_frame: DEFAULT_MAX_FRAME })
    );
    assert!(took < std::time::Duration::from_secs(1), "refused after {took:?}");
    assert!(big.is_open() && other.is_open());
    assert!(big.query(QueryRequest::SinglePair { i: 3, j: 4 }).is_ok());
    handle.shutdown();
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
/// not a single `read` call — on a worker as on a query server (a worker
/// used to poll every idle link every 25ms).
#[test]
fn idle_connections_cause_zero_reads() {
    for hosted in Hosted::BOTH {
        let (addr, handle, join) = hosted.spawn(ServerConfig::default());
        let mut peers: Vec<Peer> = (0..64)
            .map(|_| {
                let mut peer = Peer::connect(addr);
                peer.probe(hosted);
                peer
            })
            .collect();
        assert_eq!(handle.stats().accepted, 64);

        // Let in-flight readiness settle, then sample over an idle window.
        std::thread::sleep(std::time::Duration::from_millis(100));
        let before = handle.stats();
        std::thread::sleep(std::time::Duration::from_millis(400));
        let after = handle.stats();
        assert_eq!(
            after.reads, before.reads,
            "{hosted:?}: an idle server must not touch its sockets"
        );
        assert_eq!(
            after.wakeups, before.wakeups,
            "{hosted:?}: an idle server must not leave epoll_wait"
        );

        // The connections are all still live, not silently dropped.
        for peer in &mut peers {
            peer.probe(hosted);
        }
        handle.shutdown();
        join.join().unwrap();
    }
}

/// A slowloris peer — trickling one byte per 100ms so every read makes
/// "progress" — is still dropped: the deadline is per *frame*, armed when
/// the frame starts and not reset by trickled bytes.
#[test]
fn slowloris_trickle_is_dropped_at_io_timeout() {
    for hosted in Hosted::BOTH {
        let cfg = ServerConfig {
            io_timeout: std::time::Duration::from_millis(300),
            ..ServerConfig::default()
        };
        let (addr, handle, join) = hosted.spawn(cfg);

        // Handshake at full speed: the attack starts inside the session.
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&Envelope::hello().to_bytes()).unwrap();
        s.read_exact(&mut [0u8; HEADER_LEN + 8]).unwrap();

        let frame = hosted.probe().0.to_bytes();
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
        assert!(waited >= cfg.io_timeout, "{hosted:?}: dropped before its deadline: {waited:?}");
        assert!(
            waited < std::time::Duration::from_secs(2),
            "dropped near io_timeout, not eventually"
        );
        assert!(handle.stats().timeouts >= 1, "the drop must be the deadline's doing");

        // The event loop is unharmed.
        let mut peer = Peer::connect(addr);
        peer.probe(hosted);
        assert_eq!(peer.exchange(&Envelope::shutdown()).kind, FrameKind::Goodbye);
        join.join().unwrap();
    }
}

/// A deadline is cancelled exactly when its connection stops owing
/// progress: a peer that completed its handshake and a request, then sits
/// idle for three times `io_timeout`, is still served, and no deadline
/// ever fired.
#[test]
fn idle_connections_outlive_io_timeout() {
    for hosted in Hosted::BOTH {
        let cfg = ServerConfig {
            io_timeout: std::time::Duration::from_millis(150),
            ..ServerConfig::default()
        };
        let (addr, handle, join) = hosted.spawn(cfg);
        let mut peer = Peer::connect(addr);
        peer.probe(hosted);
        std::thread::sleep(3 * cfg.io_timeout);
        peer.probe(hosted);
        assert_eq!(handle.stats().timeouts, 0, "{hosted:?}: no deadline may fire");
        assert_eq!(peer.exchange(&Envelope::shutdown()).kind, FrameKind::Goodbye);
        join.join().unwrap();
    }
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

/// Reads one whole frame, header included, off a raw stream.
fn read_frame(s: &mut TcpStream) -> Vec<u8> {
    let mut frame = vec![0u8; HEADER_LEN];
    s.read_exact(&mut frame).unwrap();
    let len = u32::from_le_bytes(frame[16..20].try_into().unwrap()) as usize;
    frame.resize(HEADER_LEN + len, 0);
    s.read_exact(&mut frame[HEADER_LEN..]).unwrap();
    frame
}

/// A raw connection past its handshake.
fn raw_peer(addr: SocketAddr) -> TcpStream {
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&Envelope::hello().to_bytes()).unwrap();
    assert_eq!(read_frame(&mut s)[6], FrameKind::HelloAck as u8);
    s
}

/// Every answer is framed once into a buffer the pool threads take from a
/// free list and the reactor hands back after the flush: several hundred
/// `Cohort` answers (framed from the cached blocks) and scores over two
/// pipelined connections each arrive whole and byte-equal to
/// `Envelope::response` over the session's answer, and the list never
/// holds more than `workers + 1` buffers, none past the retention cap.
#[test]
fn pooled_frames_arrive_whole_and_the_free_list_stays_bounded() {
    let session = Arc::new(QuerySession::new(Arc::clone(local_walker()), 128));
    let cfg = ServerConfig { workers: 2, ..ServerConfig::default() };
    let (addr, handle, join) = spawn_server(Arc::clone(&session) as _, cfg);
    let request = |id: u64| match id % 3 {
        0 => QueryRequest::SinglePair { i: (id % 80) as u32, j: (id * 7 % 80) as u32 },
        _ => QueryRequest::Cohort { v: (id * 13 % 80) as u32 },
    };
    let expected = |id: u64| Envelope::response(id, &session.execute(request(id)).unwrap());
    let clients: Vec<_> = (0..2u64)
        .map(|c| {
            let ids: Vec<u64> = (1..=300).map(|k| c * 1_000 + k).collect();
            let frames: Vec<u8> =
                ids.iter().flat_map(|&id| Envelope::request(id, &request(id)).to_bytes()).collect();
            std::thread::spawn(move || {
                let mut s = raw_peer(addr);
                s.write_all(&frames).unwrap();
                (0..ids.len()).map(|_| read_frame(&mut s)).collect::<Vec<_>>()
            })
        })
        .collect();
    let mut seen = std::collections::HashSet::new();
    for client in clients {
        for frame in client.join().unwrap() {
            let id = u64::from_le_bytes(frame[8..16].try_into().unwrap());
            assert!(seen.insert(id), "request {id} answered twice");
            assert!(frame == expected(id).to_bytes(), "request {id}: a torn or foreign frame");
        }
    }
    assert_eq!(seen.len(), 600);
    let pooled = handle.pooled_frames();
    assert!(pooled.len() <= cfg.workers + 1, "{} buffers pooled", pooled.len());
    assert!(pooled.iter().all(|&cap| cap <= FRAME_POOL_CAP), "{pooled:?}");

    // An answer past the retention cap is delivered, then freed, not kept.
    let cols: Vec<u32> = (0..3_300).map(|v| v % NODES).collect();
    let matrix = QueryRequest::PairsMatrix { rows: (0..NODES).collect(), cols };
    let want = Envelope::response(1, &session.execute(matrix.clone()).unwrap()).to_bytes();
    assert!(want.len() > FRAME_POOL_CAP, "{} bytes", want.len());
    let mut s = raw_peer(addr);
    s.write_all(&Envelope::request(1, &matrix).to_bytes()).unwrap();
    assert!(read_frame(&mut s) == want, "the large answer arrives whole");
    s.write_all(&Envelope::request(2, &QueryRequest::Cohort { v: 3 }).to_bytes()).unwrap();
    assert_eq!(read_frame(&mut s), expected_cohort(&session, 2, 3));
    let pooled = handle.pooled_frames();
    assert!(pooled.len() <= cfg.workers + 1, "{} buffers pooled", pooled.len());
    assert!(pooled.iter().all(|&cap| cap <= FRAME_POOL_CAP), "{pooled:?}");
    handle.shutdown();
    join.join().unwrap();
}

fn expected_cohort(session: &QuerySession, id: u64, v: u32) -> Vec<u8> {
    Envelope::response(id, &QueryResponse::Cohort((*session.try_cohort(v).unwrap()).clone()))
        .to_bytes()
}

/// A service that cannot bound its answers up front: only the worker
/// loop's check on the framed buffer stands between an oversize answer
/// and the wire.
struct Unbounded(Arc<QuerySession>);

impl QueryService for Unbounded {
    fn execute(&self, req: QueryRequest) -> Result<QueryResponse, QueryError> {
        self.0.execute(req)
    }
    fn node_count(&self) -> u32 {
        self.0.node_count()
    }
}

/// Past `max_frame`, an answer framed by the service is refused as
/// `ResponseTooLarge` naming its payload's bytes, and the connection keeps
/// serving.
#[test]
fn a_framed_answer_past_the_frame_limit_is_refused_typed() {
    let session = Arc::new(QuerySession::new(Arc::clone(local_walker()), 16));
    let cfg = ServerConfig { max_frame_bytes: 1_024, ..ServerConfig::default() };
    let (addr, handle, join) = spawn_server(Arc::new(Unbounded(Arc::clone(&session))), cfg);
    let mut client = PascoClient::connect(addr).unwrap();
    let big = QueryRequest::Cohort { v: 5 };
    let bytes = session.execute(big.clone()).unwrap().encoded_len() as u64;
    assert!(bytes > 1_024, "{bytes}");
    match client.query(big) {
        Err(ClientError::Query(QueryError::ResponseTooLarge { bytes: b, max_frame: 1_024 })) => {
            assert_eq!(b, bytes, "the refusal names the framed payload's bytes");
        }
        other => panic!("expected ResponseTooLarge, got {other:?}"),
    }
    assert!(client.is_open());
    assert!(client.query(QueryRequest::SinglePair { i: 1, j: 2 }).is_ok());
    assert!(handle.pooled_frames().iter().all(|&cap| cap <= FRAME_POOL_CAP));
    handle.shutdown();
    join.join().unwrap();
}

/// The resident walker over the in-links alone answers every request kind
/// over TCP as the `from_index` walker does in process.
#[test]
fn the_in_links_walker_answers_over_tcp_like_the_from_index_walker() {
    let g = generators::barabasi_albert(NODES, 3, 13);
    let full = local_walker();
    let links =
        CloudWalker::from_in_links(g.into_in_links(), *full.config(), full.diagonal().clone())
            .unwrap();
    let session = Arc::new(QuerySession::new(Arc::new(links), 32));
    let (addr, _, join) = spawn_server(session as _, ServerConfig::default());
    let direct = QuerySession::new(Arc::clone(full), 32);
    let mut client = PascoClient::connect(addr).unwrap();
    let mut reqs = all_variants();
    reqs.push(QueryRequest::Batch(vec![
        QueryRequest::Cohort { v: 9 },
        QueryRequest::PairsMatrix { rows: vec![1, 2], cols: vec![3] },
        QueryRequest::SingleSource { i: 4 },
    ]));
    for req in reqs {
        let over_wire = client.query(req.clone()).unwrap();
        assert_eq!(
            over_wire.to_bytes(),
            direct.execute(req.clone()).unwrap().to_bytes(),
            "{req:?}"
        );
    }
    client.shutdown_server().unwrap();
    join.join().unwrap();
}
