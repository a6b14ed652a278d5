#![warn(missing_docs)]
// The panic gate of the serving closure: a site is rewritten or carries a reasoned `#[allow]`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]
//! **The PASCO SimRank worker**: the process half of the distributed
//! substrate (`ExecMode::Distributed`).
//!
//! A worker is a small TCP server speaking the versioned envelope
//! protocol's worker-control frames. Its life is three phases:
//!
//! 1. **Load** — the coordinator hands over the full shard set
//!    (adjacency replicates because walkers cross partition boundaries)
//!    and names the one partition this worker *owns*: one `PASCOSH1`
//!    shard image per `LoadPartition` frame, or a single `LoadStore`
//!    frame naming a directory of the same images on this machine.
//!    Either way the bytes pass the store's one validator and become
//!    the one storage the worker serves from; the payload checksum is
//!    not run on an image, as it is not on a file at open.
//! 2. **Build** — on `BuildShard`, the worker walks an `R`-walker
//!    cohort for each owned source and returns the materialised rows of
//!    its slice of the linear system.
//! 3. **Serve** — `ShardQuery` / `ShardTopK` frames arrive for sources
//!    this worker owns; answers are bit-identical to the local engine
//!    because the compute core ([`ShardWorkerCore`]) runs the same
//!    generic walk kernels over the same mapped store as the in-process
//!    out-of-core engine.
//!
//! All protocol semantics live in
//! [`pasco_simrank::api`]: frames in [`envelope`], payloads in
//! [`worker`], frame I/O in [`transport`], and the compute core in
//! `pasco_simrank::engine::distributed`. This crate only owns the
//! process shell: the listener, per-connection threads, the drain on a
//! `Shutdown` frame, and a [`WorkerHandle`] for programmatic stop/kill
//! (tests use `kill` to simulate a worker dying mid-protocol).
//!
//! ```no_run
//! use pasco_worker::{PascoWorker, WorkerConfig};
//!
//! let worker = PascoWorker::bind("127.0.0.1:0", WorkerConfig::default()).unwrap();
//! println!("worker listening on {}", worker.local_addr());
//! worker.run().unwrap(); // returns once a Shutdown frame drains it
//! ```
//!
//! [`envelope`]: pasco_simrank::api::envelope
//! [`worker`]: pasco_simrank::api::worker
//! [`transport`]: pasco_simrank::api::transport

use pasco_simrank::api::envelope::{Envelope, FrameKind, ServerInfo, DEFAULT_MAX_FRAME};
use pasco_simrank::api::transport::{poll_envelope, write_envelope};
use pasco_simrank::api::wire::WireCodec;
use pasco_simrank::api::worker::{
    BuildShard, Empty, LoadPartition, LoadStore, ShardQuery, ShardTopK,
};
use pasco_simrank::engine::distributed::ShardWorkerCore;
use pasco_simrank::QueryError;
use std::io::BufReader;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// Tunables of a [`PascoWorker`].
#[derive(Clone, Copy, Debug)]
pub struct WorkerConfig {
    /// Largest frame payload accepted (and advertised in the
    /// handshake). `LoadPartition` frames carry whole shard images, so
    /// on very large graphs this may need to exceed the protocol default.
    pub max_frame_bytes: u32,
    /// How often an idle connection checks for a worker stop.
    pub poll_interval: Duration,
    /// Once a frame has started, each read must make progress within
    /// this long; a peer stalling mid-frame is dropped.
    pub io_timeout: Duration,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        Self {
            max_frame_bytes: DEFAULT_MAX_FRAME,
            poll_interval: Duration::from_millis(25),
            io_timeout: Duration::from_secs(10),
        }
    }
}

/// A clonable remote control for a running worker.
#[derive(Clone)]
pub struct WorkerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    conns: Arc<Mutex<ConnRegistry>>,
}

/// Live connection sockets, keyed so a finished connection can
/// deregister itself (a registered clone would otherwise hold the fd
/// open past the connection's end and the peer would never see EOF).
#[derive(Default)]
struct ConnRegistry {
    next: u64,
    live: Vec<(u64, TcpStream)>,
}

impl ConnRegistry {
    fn register(&mut self, stream: TcpStream) -> u64 {
        self.next += 1;
        self.live.push((self.next, stream));
        self.next
    }

    fn deregister(&mut self, id: u64) {
        self.live.retain(|(key, _)| *key != id);
    }
}

impl WorkerHandle {
    /// The address the worker accepts on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful stop: idle connections say goodbye and close, the
    /// accept loop ends, [`PascoWorker::run`] returns. In-flight
    /// requests finish first.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        self.wake_accept();
    }

    /// Hard kill, for fault-injection tests: stop *and* tear down every
    /// live connection socket, so a coordinator blocked on this worker
    /// sees an immediate transport fault instead of a drained goodbye —
    /// the wire-visible signature of a worker process dying.
    pub fn kill(&self) {
        self.stop.store(true, Ordering::Release);
        self.sever_connections();
        self.wake_accept();
    }

    /// Tears down every live connection socket while the worker keeps
    /// running and its loaded state stays resident — the wire-visible
    /// signature of a network blip, for testing coordinator reconnects.
    pub fn sever_connections(&self) {
        for (_, conn) in
            self.conns.lock().unwrap_or_else(std::sync::PoisonError::into_inner).live.iter()
        {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
    }

    fn is_stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Unblocks the accept loop (wildcard-safe, never blocks the caller
    /// on an unresponsive route) — same trick as the query server.
    fn wake_accept(&self) {
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match self.addr {
                SocketAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                SocketAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
    }
}

/// A bound, not-yet-running SimRank worker.
pub struct PascoWorker {
    listener: TcpListener,
    cfg: WorkerConfig,
    handle: WorkerHandle,
    state: Arc<Mutex<ShardWorkerCore>>,
}

impl PascoWorker {
    /// Binds `addr` (port 0 for ephemeral; read it back with
    /// [`PascoWorker::local_addr`]).
    pub fn bind(addr: impl ToSocketAddrs, cfg: WorkerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let handle = WorkerHandle {
            addr: listener.local_addr()?,
            stop: Arc::new(AtomicBool::new(false)),
            conns: Arc::new(Mutex::new(ConnRegistry::default())),
        };
        Ok(PascoWorker {
            listener,
            cfg,
            handle,
            state: Arc::new(Mutex::new(ShardWorkerCore::new())),
        })
    }

    /// The address the worker accepts on.
    pub fn local_addr(&self) -> SocketAddr {
        self.handle.addr
    }

    /// A remote control for this worker.
    pub fn handle(&self) -> WorkerHandle {
        self.handle.clone()
    }

    /// Serves until stopped: a `Shutdown` frame from any peer (or
    /// [`WorkerHandle::shutdown`] / [`WorkerHandle::kill`]) ends the
    /// accept loop and closes every connection out. Loaded partitions
    /// and the diagonal cache survive *reconnects* but not the process:
    /// a restarted worker is empty and must be re-loaded.
    pub fn run(self) -> std::io::Result<()> {
        let mut conns = Vec::new();
        for stream in self.listener.incoming() {
            if self.handle.is_stopping() {
                break;
            }
            let Ok(stream) = stream else { continue };
            let state = Arc::clone(&self.state);
            let handle = self.handle.clone();
            let cfg = self.cfg;
            conns.push(thread::spawn(move || handle_conn(stream, &state, &handle, cfg)));
        }
        for conn in conns {
            let _ = conn.join();
        }
        Ok(())
    }
}

/// Serves one coordinator connection, then takes the socket down and
/// deregisters it — the kill registry's clone must not keep a finished
/// connection's fd alive (the peer would never see EOF).
fn handle_conn(
    stream: TcpStream,
    state: &Mutex<ShardWorkerCore>,
    handle: &WorkerHandle,
    cfg: WorkerConfig,
) {
    let Ok(registered) = stream.try_clone() else { return };
    let id =
        handle.conns.lock().unwrap_or_else(std::sync::PoisonError::into_inner).register(registered);
    serve_conn(stream, state, handle, cfg);
    let mut conns = handle.conns.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some((_, conn)) = conns.live.iter().find(|(key, _)| *key == id) {
        let _ = conn.shutdown(std::net::Shutdown::Both);
    }
    conns.deregister(id);
}

/// The connection's protocol loop: handshake, then strictly in-order
/// request/reply (the coordinator's link never pipelines, and in-order
/// replies are what lets it match by the next frame).
fn serve_conn(
    stream: TcpStream,
    state: &Mutex<ShardWorkerCore>,
    handle: &WorkerHandle,
    cfg: WorkerConfig,
) {
    let _ = stream.set_nodelay(true);
    let Ok(mut writer) = stream.try_clone() else { return };
    let _ = writer.set_write_timeout(Some(cfg.io_timeout));
    let mut reader = BufReader::new(stream);

    // Handshake: first frame must be a Hello within the I/O deadline.
    let deadline = std::time::Instant::now() + cfg.io_timeout;
    let hello = loop {
        match poll_envelope(&mut reader, cfg.max_frame_bytes, cfg.poll_interval, cfg.io_timeout) {
            Ok(None) => {
                if handle.is_stopping() || std::time::Instant::now() >= deadline {
                    return;
                }
            }
            Ok(Some(env)) => break env,
            Err(_) => return,
        }
    };
    if hello.kind != FrameKind::Hello {
        return;
    }
    let info = ServerInfo {
        node_count: state.lock().unwrap_or_else(std::sync::PoisonError::into_inner).node_count(),
        max_frame_bytes: cfg.max_frame_bytes,
    };
    if write_envelope(&mut writer, &Envelope::hello_ack(&info)).is_err() {
        return;
    }

    loop {
        let env = match poll_envelope(
            &mut reader,
            cfg.max_frame_bytes,
            cfg.poll_interval,
            cfg.io_timeout,
        ) {
            Ok(None) => {
                if handle.is_stopping() {
                    let _ = write_envelope(&mut writer, &Envelope::goodbye());
                    return;
                }
                continue;
            }
            Ok(Some(env)) => env,
            // Transport fault or protocol violation: the stream cannot
            // be trusted to resynchronise — close without ceremony.
            Err(_) => return,
        };
        let id = env.request_id;
        let reply = match env.kind {
            FrameKind::LoadPartition => {
                serve(state, id, env, cfg.max_frame_bytes, |core, msg: LoadPartition| {
                    core.load_partition(msg)
                })
            }
            FrameKind::LoadStore => {
                serve(state, id, env, cfg.max_frame_bytes, |core, msg: LoadStore| {
                    core.load_store(msg)
                })
            }
            FrameKind::BuildShard => {
                serve(state, id, env, cfg.max_frame_bytes, |core, msg: BuildShard| {
                    core.build(&msg.cfg)
                })
            }
            FrameKind::ShardQuery => {
                serve(state, id, env, cfg.max_frame_bytes, |core, msg: ShardQuery| core.query(msg))
            }
            FrameKind::ShardTopK => {
                serve(state, id, env, cfg.max_frame_bytes, |core, msg: ShardTopK| core.topk(msg))
            }
            FrameKind::WorkerStats => {
                serve(state, id, env, cfg.max_frame_bytes, |core, _: Empty| {
                    Ok::<_, QueryError>(core.stats())
                })
            }
            FrameKind::Shutdown => {
                let _ = write_envelope(&mut writer, &Envelope::goodbye());
                handle.shutdown();
                return;
            }
            // Coordinators send only worker-control frames and Shutdown
            // after the handshake.
            _ => return,
        };
        let Some(reply) = reply else { return };
        if write_envelope(&mut writer, &reply).is_err() {
            return;
        }
        if handle.is_stopping() {
            let _ = write_envelope(&mut writer, &Envelope::goodbye());
            return;
        }
    }
}

/// Decodes the request payload, runs `f` on the locked compute core,
/// and shapes the outcome: a reply frame of the same kind, an error
/// frame for a typed [`QueryError`], or `None` (drop the connection)
/// when the payload itself is garbage — an undecodable frame is a
/// protocol violation, not a query failure.
fn serve<M: WireCodec, R: WireCodec>(
    state: &Mutex<ShardWorkerCore>,
    id: u64,
    env: Envelope,
    max_frame: u32,
    f: impl FnOnce(&mut ShardWorkerCore, M) -> Result<R, QueryError>,
) -> Option<Envelope> {
    let Ok(msg) = M::from_bytes(&env.payload) else { return None };
    let mut core = state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut reply = match f(&mut core, msg) {
        Ok(reply) => Envelope::worker(env.kind, id, &reply),
        Err(err) => Envelope::error(id, &err),
    };
    // The limit the worker advertises binds its own frames too: an
    // answer that would not fit (the coordinator reads with this limit
    // and would kill the link on it) degrades into a typed error —
    // same contract as the query server's ResponseTooLarge guard.
    if reply.payload.len() as u64 > u64::from(max_frame) {
        let err = QueryError::ResponseTooLarge { bytes: reply.payload.len() as u64, max_frame };
        reply = Envelope::error(id, &err);
    }
    Some(reply)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasco_simrank::api::transport::read_envelope;
    use pasco_simrank::api::worker::WorkerStats;

    fn spawn_worker() -> (SocketAddr, WorkerHandle, thread::JoinHandle<()>) {
        let worker = PascoWorker::bind("127.0.0.1:0", WorkerConfig::default()).unwrap();
        let (addr, handle) = (worker.local_addr(), worker.handle());
        let join = thread::spawn(move || worker.run().unwrap());
        (addr, handle, join)
    }

    /// Raw-socket handshake + stats round trip: the worker speaks the
    /// envelope protocol byte-for-byte.
    #[test]
    fn handshake_and_stats_over_raw_socket() {
        let (addr, handle, join) = spawn_worker();
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        write_envelope(&mut stream, &Envelope::hello()).unwrap();
        let ack = read_envelope(&mut reader, DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(ack.kind, FrameKind::HelloAck);
        let info = ack.decode_server_info().unwrap();
        assert_eq!(info.node_count, 0, "nothing loaded yet");

        write_envelope(&mut stream, &Envelope::worker(FrameKind::WorkerStats, 7, &Empty)).unwrap();
        let reply = read_envelope(&mut reader, DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(reply.kind, FrameKind::WorkerStats);
        assert_eq!(reply.request_id, 7);
        let stats = WorkerStats::from_bytes(&reply.payload).unwrap();
        assert_eq!(stats, WorkerStats::default());

        // A build before any load is a typed error frame, not a hang.
        let msg = BuildShard { cfg: pasco_simrank::SimRankConfig::fast() };
        write_envelope(&mut stream, &Envelope::worker(FrameKind::BuildShard, 8, &msg)).unwrap();
        let reply = read_envelope(&mut reader, DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(reply.kind, FrameKind::Error);
        assert_eq!(reply.request_id, 8);
        assert!(matches!(reply.decode_error().unwrap(), QueryError::WorkerUnavailable { .. }));

        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn shutdown_frame_drains_the_worker() {
        let (addr, _handle, join) = spawn_worker();
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        write_envelope(&mut stream, &Envelope::hello()).unwrap();
        let _ = read_envelope(&mut reader, DEFAULT_MAX_FRAME).unwrap();
        write_envelope(&mut stream, &Envelope::shutdown()).unwrap();
        let goodbye = read_envelope(&mut reader, DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(goodbye.kind, FrameKind::Goodbye);
        join.join().unwrap();
    }

    #[test]
    fn garbage_first_byte_drops_the_connection_not_the_worker() {
        use std::io::{Read, Write};
        let (addr, handle, join) = spawn_worker();
        let mut garbage = TcpStream::connect(addr).unwrap();
        garbage.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(garbage.read(&mut buf).unwrap(), 0, "dropped without a reply");
        // The worker still serves a real peer afterwards.
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        write_envelope(&mut stream, &Envelope::hello()).unwrap();
        assert_eq!(
            read_envelope(&mut reader, DEFAULT_MAX_FRAME).unwrap().kind,
            FrameKind::HelloAck
        );
        handle.shutdown();
        join.join().unwrap();
    }
}
