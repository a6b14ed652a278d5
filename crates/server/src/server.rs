//! [`PascoServer`]: the TCP front door over any [`QueryService`] — or
//! over one SimRank worker's [`ShardWorkerCore`] — built on a
//! readiness-driven epoll reactor.
//!
//! One event loop owns every connection socket in nonblocking mode:
//! accepts, handshakes, frame reassembly (via the shared resumable
//! [`FrameDecoder`]), response flushing (via [`WriteQueue`]), per-frame
//! I/O deadlines (a timer wheel — armed only while a connection is
//! mid-handshake, mid-frame, or has unflushed output, so an idle server
//! sleeps in `epoll_wait` indefinitely: zero wakeups, zero reads), and
//! drain orchestration. The reactor never looks inside a payload: every
//! post-handshake frame but `Shutdown` goes to a bounded worker pool,
//! which asks the hosted service for the answer and hands completed
//! envelopes back through a completion queue plus an eventfd wake, so
//! responses are written in *completion* order — a cheap query overtakes
//! an expensive one on the same connection, and the peer matches answers
//! by request id.
//!
//! Backpressure is per connection: a client may keep at most
//! `workers * 4` requests in flight; past that the reactor parks the
//! connection's read interest until completions drain it, so a flood of
//! pipelined requests cannot oversubscribe memory while the pool bounds
//! engine concurrency globally. Bytes a `read(2)` already pulled past
//! the cap are stashed and replayed through the decoder on unpause —
//! nothing a client pipelines is ever lost to the pause.
//!
//! Shutdown — a client [`FrameKind::Shutdown`] frame or
//! [`ServerHandle::shutdown`] — stops accepting, finishes every in-flight
//! request, writes each connection its answers and a goodbye, and returns
//! from [`PascoServer::run`]. The handle wakes the loop through the
//! eventfd, which works identically on wildcard binds.

use crate::sys::{Epoll, Event, WakeFd, EVENT_ERR, EVENT_HUP, EVENT_IN, EVENT_OUT, EVENT_RDHUP};
use crate::wheel::{Deadline, TimerWheel};
use pasco_simrank::api::envelope::{
    frame_into, Envelope, FrameKind, ServerInfo, DEFAULT_MAX_FRAME, HEADER_LEN,
};
use pasco_simrank::api::transport::{FrameDecoder, WriteQueue, DEFAULT_IO_TIMEOUT};
use pasco_simrank::api::wire::WireCodec;
use pasco_simrank::api::worker::{BuildShard, Empty, LoadPartition, LoadStore, ShardQuery};
use pasco_simrank::engine::distributed::ShardWorkerCore;
use pasco_simrank::{QueryError, QueryService};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Tunables of a [`PascoServer`].
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Size of the shared query-execution pool: at most this many
    /// queries run concurrently across *all* connections.
    pub workers: usize,
    /// Largest frame payload accepted (and advertised in the
    /// handshake). Frames announcing more are rejected before any
    /// allocation and the offending connection is closed.
    pub max_frame_bytes: u32,
    /// Per-frame progress deadline: a handshake, an inbound frame, or a
    /// queued response that does not complete within this long gets its
    /// connection dropped — a slowloris peer costs one timer slot, not a
    /// thread.
    pub io_timeout: Duration,
    /// Most connections served at once; an accept beyond this is closed
    /// immediately (counted in [`ServerStats::refused`]) instead of
    /// degrading everyone.
    pub max_conns: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            max_frame_bytes: DEFAULT_MAX_FRAME,
            io_timeout: DEFAULT_IO_TIMEOUT,
            max_conns: 1024,
        }
    }
}

/// Monotonic counters of a running server, readable from any thread via
/// [`ServerHandle::stats`]. Zero-cost observability for tests and ops:
/// the idle-wakeup guarantee ("no reads between requests") is asserted
/// against exactly these numbers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections refused at the `max_conns` cap.
    pub refused: u64,
    /// `read(2)` calls issued on connection sockets (including ones that
    /// returned would-block). An idle server adds zero.
    pub reads: u64,
    /// Post-handshake frames handed to the pool.
    pub requests: u64,
    /// Response/error envelopes queued back to clients.
    pub responses: u64,
    /// Connections dropped on a missed per-frame deadline.
    pub timeouts: u64,
    /// Times the event loop woke from `epoll_wait`.
    pub wakeups: u64,
}

#[derive(Default)]
struct StatCells {
    accepted: AtomicU64,
    refused: AtomicU64,
    reads: AtomicU64,
    requests: AtomicU64,
    responses: AtomicU64,
    timeouts: AtomicU64,
    wakeups: AtomicU64,
}

impl StatCells {
    fn snapshot(&self) -> ServerStats {
        ServerStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            refused: self.refused.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            responses: self.responses.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            wakeups: self.wakeups.load(Ordering::Relaxed),
        }
    }
}

/// What a [`ServerHandle`] asks of the reactor, one bit per request in
/// [`ServerHandle::signals`].
const DRAIN: u8 = 1;
const KILL: u8 = 2;
const SEVER: u8 = 4;

/// A clonable remote control for a running server: its bound address, its
/// live counters, a way to stop it programmatically (the wire equivalent
/// is a client [`FrameKind::Shutdown`] frame), and fault injection.
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    /// [`DRAIN`] / [`KILL`] / [`SEVER`] requests. Each is set before its
    /// eventfd wake is written, and the reactor reads them after draining
    /// that wake, so none is missed.
    signals: Arc<AtomicU8>,
    waker: WakeFd,
    stats: Arc<StatCells>,
    pool: Arc<FramePool>,
}

impl ServerHandle {
    /// The address the server accepts on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a drain: in-flight queries finish, connected clients get
    /// their answers and a goodbye frame, the accept loop stops, and
    /// [`PascoServer::run`] returns. Wakes the reactor through its
    /// eventfd — no connection is made, so this works identically on
    /// wildcard (`0.0.0.0` / `::`) binds.
    pub fn shutdown(&self) {
        self.signal(DRAIN);
    }

    /// Hard kill, for fault-injection tests: every connection is dropped
    /// without a goodbye — the wire-visible signature of a process dying —
    /// and [`PascoServer::run`] returns. No frame that arrives after this
    /// call is answered, and the listener closes before the pool finishes
    /// its queued work, so a peer's reconnect is refused rather than left
    /// waiting in the backlog.
    pub fn kill(&self) {
        self.signal(KILL);
    }

    /// Drops every connection while the server keeps running and the
    /// service's state stays resident — the wire-visible signature of a
    /// network blip, for testing reconnects. No frame that arrives after
    /// this call is answered on a connection opened before it.
    pub fn sever_connections(&self) {
        self.signal(SEVER);
    }

    /// A snapshot of the server's monotonic counters.
    pub fn stats(&self) -> ServerStats {
        self.stats.snapshot()
    }

    /// The capacities of the response-frame buffers the server holds for
    /// reuse right now: at most `workers + 1` of them, none past
    /// [`FRAME_POOL_CAP`].
    pub fn pooled_frames(&self) -> Vec<usize> {
        self.pool.lock().iter().map(Vec::capacity).collect()
    }

    fn signal(&self, bit: u8) {
        self.signals.fetch_or(bit, Ordering::Release);
        self.waker.wake();
    }
}

/// Capacity past which a written response-frame buffer is freed rather
/// than kept for reuse. A `Cohort` answer at paper parameters (`R′ =
/// 10 000`, `T = 10`) is at most 1,320,077 frame bytes by
/// [`QueryService::response_bound`] (≈ 534 KB on the 2¹⁶-node R-MAT
/// graph), and a dense row of 2¹⁶ nodes is 524,313: both are kept, while
/// a one-off multi-megabyte matrix or build reply is not pinned for the
/// server's life.
pub const FRAME_POOL_CAP: usize = 2 << 20;

/// The response-frame buffers a pool thread writes each frame into and
/// the reactor hands back once the frame is on the wire, so a steady
/// stream of large answers allocates nothing per request. At most `keep`
/// (`workers + 1`) are held, none past [`FRAME_POOL_CAP`]; a buffer
/// beyond either is freed.
struct FramePool {
    free: Mutex<Vec<Vec<u8>>>,
    keep: usize,
}

impl FramePool {
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Vec<u8>>> {
        self.free.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A buffer to frame into: a pooled one, or a fresh one when none is.
    fn take(&self) -> Vec<u8> {
        self.lock().pop().unwrap_or_default()
    }

    /// Returns a written buffer for reuse, or frees it.
    fn give(&self, buf: Vec<u8>) {
        if buf.capacity() <= FRAME_POOL_CAP {
            let mut free = self.lock();
            if free.len() < self.keep {
                free.push(buf);
            }
        }
    }
}

/// What the pool answers frames with.
enum Service {
    Query(Arc<dyn QueryService>),
    Worker(SimRankWorker),
}

impl Service {
    /// The node count a handshake advertises, read at each `Hello`.
    fn node_count(&self) -> u32 {
        match self {
            Service::Query(svc) => svc.node_count(),
            Service::Worker(worker) => worker.node_count.load(Ordering::Relaxed),
        }
    }

    /// Frames the reply to one post-handshake frame into `frame`, or
    /// returns false — an undecodable payload or a frame kind this service
    /// does not speak — to drop the connection: a protocol violation, not
    /// a query failure. A typed failure is an answer, framed as an error
    /// on the same connection. A query whose answer could not fit
    /// `max_frame` is refused before any work.
    fn answer(&self, env: Envelope, max_frame: u32, frame: &mut Vec<u8>) -> bool {
        match self {
            Service::Query(svc) => {
                if env.kind != FrameKind::Request {
                    return false;
                }
                let Ok(req) = env.decode_request() else { return false };
                match svc.response_bound(&req).filter(|&b| b > u64::from(max_frame)) {
                    Some(bytes) => {
                        let err = QueryError::ResponseTooLarge { bytes, max_frame };
                        frame_into(frame, FrameKind::Error, env.request_id, &err);
                    }
                    None => svc.frame(env.request_id, req, frame),
                }
                true
            }
            Service::Worker(worker) => worker.answer(env, frame),
        }
    }
}

/// One SimRank worker: a partition owner of the distributed substrate.
struct SimRankWorker {
    core: Mutex<ShardWorkerCore>,
    /// `core.node_count()` after the last frame served, so a handshake
    /// never waits on the lock a long build holds. `Relaxed`: it publishes
    /// nothing else, and the completion queue's mutex orders each store
    /// before the reply that follows it.
    node_count: AtomicU32,
}

impl SimRankWorker {
    fn answer(&self, env: Envelope, frame: &mut Vec<u8>) -> bool {
        match env.kind {
            FrameKind::LoadPartition => {
                self.serve(env, frame, |core, msg: LoadPartition| core.load_partition(msg))
            }
            FrameKind::LoadStore => {
                self.serve(env, frame, |core, msg: LoadStore| core.load_store(msg))
            }
            FrameKind::BuildShard => {
                self.serve(env, frame, |core, msg: BuildShard| core.build(&msg.cfg))
            }
            FrameKind::ShardQuery => {
                self.serve(env, frame, |core, msg: ShardQuery| core.query(msg))
            }
            FrameKind::WorkerStats => {
                self.serve(env, frame, |core, _: Empty| Ok::<_, QueryError>(core.stats()))
            }
            // Coordinators send only worker-control frames (and Shutdown,
            // which the reactor handles) after the handshake; the retired
            // `ShardTopK` drops the link like any kind a worker does not speak.
            _ => false,
        }
    }

    /// Decodes the request payload, runs `f` on the locked compute core,
    /// and frames the outcome into `frame`: a reply of the same kind, or an
    /// error frame for a typed [`QueryError`]. False when the payload
    /// itself is garbage.
    fn serve<M: WireCodec, R: WireCodec>(
        &self,
        env: Envelope,
        frame: &mut Vec<u8>,
        f: impl FnOnce(&mut ShardWorkerCore, M) -> Result<R, QueryError>,
    ) -> bool {
        let Ok(msg) = M::from_bytes(&env.payload) else { return false };
        let mut core = self.core.lock().unwrap_or_else(PoisonError::into_inner);
        match f(&mut core, msg) {
            Ok(reply) => frame_into(frame, env.kind, env.request_id, &reply),
            Err(err) => frame_into(frame, FrameKind::Error, env.request_id, &err),
        }
        self.node_count.store(core.node_count(), Ordering::Relaxed);
        true
    }
}

/// A bound, not-yet-running TCP server over one [`QueryService`] or one
/// SimRank worker.
pub struct PascoServer {
    listener: TcpListener,
    svc: Arc<Service>,
    cfg: ServerConfig,
    handle: ServerHandle,
}

impl PascoServer {
    /// Binds `addr` (use port 0 for an ephemeral port; read it back with
    /// [`PascoServer::local_addr`]). The listener is live immediately —
    /// connections queue in the OS backlog until [`PascoServer::run`].
    pub fn bind(
        addr: impl ToSocketAddrs,
        svc: Arc<dyn QueryService>,
        cfg: ServerConfig,
    ) -> io::Result<Self> {
        Self::host(addr, Service::Query(svc), cfg)
    }

    /// Binds a SimRank worker: one partition owner of the distributed
    /// substrate (`ExecMode::Distributed`), speaking the worker-control
    /// frames. It starts empty; a coordinator provisions it (shard images
    /// in `LoadPartition` frames, or a store directory in one `LoadStore`),
    /// then routes builds and queries to it. Loaded state survives
    /// reconnects but not the process. A worker answers no `Request`
    /// frame, and a query server no worker-control frame: either drops
    /// the connection that sends one.
    pub fn bind_worker(addr: impl ToSocketAddrs, cfg: ServerConfig) -> io::Result<Self> {
        let worker = SimRankWorker {
            core: Mutex::new(ShardWorkerCore::new()),
            node_count: AtomicU32::new(0),
        };
        Self::host(addr, Service::Worker(worker), cfg)
    }

    fn host(addr: impl ToSocketAddrs, svc: Service, cfg: ServerConfig) -> io::Result<Self> {
        assert!(cfg.workers > 0, "need at least one worker");
        assert!(cfg.max_conns > 0, "need room for at least one connection");
        assert!(!cfg.io_timeout.is_zero(), "io_timeout must be positive");
        let listener = TcpListener::bind(addr)?;
        let handle = ServerHandle {
            addr: listener.local_addr()?,
            signals: Arc::new(AtomicU8::new(0)),
            waker: WakeFd::new()?,
            stats: Arc::new(StatCells::default()),
            pool: Arc::new(FramePool { free: Mutex::default(), keep: cfg.workers + 1 }),
        };
        Ok(PascoServer { listener, svc: Arc::new(svc), cfg, handle })
    }

    /// The address the server accepts on.
    pub fn local_addr(&self) -> SocketAddr {
        self.handle.addr
    }

    /// A remote control for this server (clonable, sendable to the
    /// thread that will stop it).
    pub fn handle(&self) -> ServerHandle {
        self.handle.clone()
    }

    /// Serves until drained: runs the reactor, answering frames on the
    /// shared pool, and returns once a shutdown frame (or
    /// [`ServerHandle::shutdown`]) has drained every connection, or
    /// [`ServerHandle::kill`] has dropped them.
    pub fn run(self) -> io::Result<()> {
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let completions: Arc<Mutex<Vec<Completion>>> = Arc::default();
        let workers: Vec<_> = (0..self.cfg.workers)
            .map(|_| {
                let rx = Arc::clone(&job_rx);
                let svc = Arc::clone(&self.svc);
                let done = Arc::clone(&completions);
                let (waker, pool) = (self.handle.waker.clone(), Arc::clone(&self.handle.pool));
                let max_frame = self.cfg.max_frame_bytes;
                thread::spawn(move || {
                    worker_loop(&rx, svc.as_ref(), &done, &waker, &pool, max_frame)
                })
            })
            .collect();

        let result = Reactor::new(
            self.listener,
            self.svc,
            self.cfg,
            self.handle.clone(),
            job_tx,
            completions,
        )
        .and_then(Reactor::run);

        // With the reactor gone its listener is closed (a killed server
        // refuses reconnects from here on) and its job sender dropped:
        // workers finish what is queued, see the disconnect, and exit.
        for worker in workers {
            let _ = worker.join();
        }
        result
    }
}

/// One unit of pool work: a post-handshake frame plus the connection
/// slot (and its epoch, so an answer for a closed-and-reused slot is
/// discarded rather than misdelivered).
struct Job {
    token: usize,
    epoch: u32,
    env: Envelope,
}

/// A finished frame on its way back to the reactor: the reply, framed in
/// a pooled buffer, or `None` to drop the connection.
struct Completion {
    token: usize,
    epoch: u32,
    frame: Option<Vec<u8>>,
}

fn worker_loop(
    rx: &Mutex<Receiver<Job>>,
    svc: &Service,
    done: &Mutex<Vec<Completion>>,
    waker: &WakeFd,
    pool: &FramePool,
    max_frame: u32,
) {
    loop {
        // Standard pool pickup: the mutex serialises only the dequeue,
        // execution runs unlocked and in parallel.
        let job = match rx.lock() {
            Ok(rx) => rx.recv(),
            Err(_) => return,
        };
        let Ok(Job { token, epoch, env }) = job else { return };
        let id = env.request_id;
        let mut frame = pool.take();
        let frame = if svc.answer(env, max_frame, &mut frame) {
            // The limit the server advertises binds its own frames too:
            // an answer that would not fit (the peer reads with this
            // limit and would poison itself) degrades into a typed error
            // the caller can act on — the backstop behind the up-front
            // bound, for services that cannot bound an answer. Error
            // frames are a few bytes, always under any sane limit; the
            // oversize buffer is freed, not pooled.
            let bytes = frame.len().saturating_sub(HEADER_LEN) as u64;
            if bytes > u64::from(max_frame) {
                frame = Vec::new();
                let err = QueryError::ResponseTooLarge { bytes, max_frame };
                frame_into(&mut frame, FrameKind::Error, id, &err);
            }
            Some(frame)
        } else {
            pool.give(frame);
            None
        };
        let first = match done.lock() {
            Ok(mut done) => {
                let first = done.is_empty();
                done.push(Completion { token, epoch, frame });
                first
            }
            Err(_) => return,
        };
        // One wake per queue transition, not per completion: the reactor
        // drains the whole queue each time it services the eventfd, so
        // completions that pile up behind an unserviced wake need none of
        // their own. Under load this coalesces most wake syscalls away.
        if first {
            waker.wake();
        }
    }
}

/// Where a connection is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ConnState {
    /// Waiting for the opening Hello (deadline armed from accept).
    Handshake,
    /// Normal operation: requests in, responses out.
    Serving,
    /// No more reads; once `in_flight` hits zero a goodbye is queued and
    /// the connection closes after its output flushes.
    Draining,
}

struct Conn {
    stream: TcpStream,
    epoch: u32,
    state: ConnState,
    decoder: FrameDecoder,
    out: WriteQueue,
    /// Requests handed to the pool whose answers have not yet been
    /// queued onto `out`.
    in_flight: usize,
    /// The epoll interest currently registered for this socket.
    interest: u32,
    /// Reads parked by the per-connection pipelining cap.
    paused: bool,
    /// Bytes `read(2)` already consumed from the kernel when the
    /// pipelining cap paused the connection mid-buffer; replayed through
    /// the decoder, in order, when completions unpause it.
    pending: Vec<u8>,
    /// Peer EOF observed: no more requests will ever arrive, but answers
    /// still owed are delivered before the connection closes.
    eof: bool,
    /// The peer's half-close was noted while we were not reading; RDHUP
    /// interest is dropped so the level-triggered event cannot spin.
    rdhup: bool,
    /// Whether the progress deadline is armed (and its wheel slot).
    deadline: Option<usize>,
    deadline_gen: u64,
    goodbye_queued: bool,
}

/// Epoll token of the listener.
const TOK_LISTENER: u64 = u64::MAX;
/// Epoll token of the wake eventfd.
const TOK_WAKER: u64 = u64::MAX - 1;

fn conn_token(idx: usize, epoch: u32) -> u64 {
    (idx as u64) | (u64::from(epoch) << 32)
}

/// The event loop: owns every socket, the timer wheel, and the slab of
/// connection state machines.
struct Reactor {
    epoll: Epoll,
    /// Declared before `conns`, so a killed reactor closes its listener
    /// first: a reconnect racing the kill is refused, not queued.
    listener: TcpListener,
    svc: Arc<Service>,
    cfg: ServerConfig,
    handle: ServerHandle,
    job_tx: Sender<Job>,
    completions: Arc<Mutex<Vec<Completion>>>,
    wheel: TimerWheel,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    epochs: Vec<u32>,
    alive: usize,
    /// Set once a drain begins (handle or Shutdown frame); accepts stop
    /// and every connection moves to [`ConnState::Draining`].
    stopping: bool,
    /// Max requests one connection may keep in flight before its reads
    /// are parked.
    pipeline_cap: usize,
}

impl Reactor {
    fn new(
        listener: TcpListener,
        svc: Arc<Service>,
        cfg: ServerConfig,
        handle: ServerHandle,
        job_tx: Sender<Job>,
        completions: Arc<Mutex<Vec<Completion>>>,
    ) -> io::Result<Self> {
        listener.set_nonblocking(true)?;
        let epoll = Epoll::new()?;
        epoll.add(listener.as_raw_fd(), EVENT_IN, TOK_LISTENER)?;
        epoll.add(handle.waker.raw_fd(), EVENT_IN, TOK_WAKER)?;
        // Deadline resolution: coarse enough that arming is cheap, fine
        // enough that a 150ms test timeout is honoured promptly.
        let tick = (cfg.io_timeout / 8).clamp(Duration::from_millis(5), Duration::from_millis(500));
        Ok(Reactor {
            epoll,
            listener,
            svc,
            cfg,
            handle,
            job_tx,
            completions,
            wheel: TimerWheel::new(tick, 256),
            conns: Vec::new(),
            free: Vec::new(),
            epochs: Vec::new(),
            alive: 0,
            stopping: false,
            pipeline_cap: (cfg.workers * 4).max(8),
        })
    }

    fn run(mut self) -> io::Result<()> {
        let mut events: Vec<Event> = Vec::new();
        let mut fired: Vec<Deadline> = Vec::new();
        let mut scratch = vec![0u8; 64 * 1024];
        loop {
            let timeout = self.wheel.next_timeout(Instant::now());
            events.clear();
            self.epoll.wait(timeout, &mut events)?;
            self.handle.stats.wakeups.fetch_add(1, Ordering::Relaxed);

            // Handle requests before any connection event: a frame sent
            // after `kill` / `sever_connections` returned arrives in a
            // batch that also carries (or follows) their wake, so it is
            // never answered.
            if events.iter().any(|ev| ev.token == TOK_WAKER) {
                self.handle.waker.drain();
            }
            let signals = self.handle.signals.fetch_and(!SEVER, Ordering::Acquire);
            if signals & KILL != 0 {
                return Ok(()); // dropping the reactor closes every socket
            }
            if signals & SEVER != 0 {
                for idx in 0..self.conns.len() {
                    self.drop_conn(idx);
                }
            }
            for ev in &events {
                match ev.token {
                    TOK_LISTENER => self.accept_ready(),
                    TOK_WAKER => {}
                    token => {
                        let (idx, epoch) = ((token & 0xffff_ffff) as usize, (token >> 32) as u32);
                        self.conn_event(idx, epoch, ev.events, &mut scratch);
                    }
                }
            }
            if signals & DRAIN != 0 {
                self.begin_drain();
            }
            self.drain_completions();

            fired.clear();
            self.wheel.expire(Instant::now(), &mut fired);
            for d in &fired {
                let stale = self.conns[d.token]
                    .as_ref()
                    .is_none_or(|c| c.deadline.is_none() || c.deadline_gen != d.generation);
                if !stale {
                    self.handle.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                    self.drop_conn(d.token);
                }
            }

            if self.stopping && self.alive == 0 {
                return Ok(());
            }
        }
    }

    // ---- accept path --------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.stopping || self.alive >= self.cfg.max_conns {
                        self.handle.stats.refused.fetch_add(1, Ordering::Relaxed);
                        continue; // dropped: refused before any protocol state
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.handle.stats.accepted.fetch_add(1, Ordering::Relaxed);
                    self.insert_conn(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient per-connection accept faults (reset in the
                // backlog): skip, keep accepting.
                Err(_) => break,
            }
        }
    }

    fn insert_conn(&mut self, stream: TcpStream) {
        let idx = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.epochs.push(0);
            self.conns.len() - 1
        });
        self.epochs[idx] = self.epochs[idx].wrapping_add(1);
        let epoch = self.epochs[idx];
        let interest = EVENT_IN | EVENT_RDHUP;
        if self.epoll.add(stream.as_raw_fd(), interest, conn_token(idx, epoch)).is_err() {
            self.free.push(idx);
            return;
        }
        let conn = Conn {
            stream,
            epoch,
            state: ConnState::Handshake,
            decoder: FrameDecoder::new(self.cfg.max_frame_bytes),
            out: WriteQueue::new(),
            in_flight: 0,
            interest,
            paused: false,
            pending: Vec::new(),
            eof: false,
            rdhup: false,
            deadline: None,
            deadline_gen: 0,
            goodbye_queued: false,
        };
        self.conns[idx] = Some(conn);
        self.alive += 1;
        self.refresh_deadline(idx);
    }

    // ---- event dispatch ------------------------------------------------

    fn conn_event(&mut self, idx: usize, epoch: u32, events: u32, scratch: &mut [u8]) {
        // The slot may have been freed (or even reused) by an earlier
        // event in this same batch; the epoch makes that detectable.
        let live = self.conns.get(idx).and_then(Option::as_ref).is_some_and(|c| c.epoch == epoch);
        if !live {
            return;
        }
        if events & (EVENT_ERR | EVENT_HUP) != 0 {
            self.drop_conn(idx);
            return;
        }
        if events & EVENT_OUT != 0 && !self.flush(idx) {
            return;
        }
        if events & EVENT_IN != 0 {
            self.conn_readable(idx, scratch);
            return; // conn may be gone; nothing below
        }
        // RDHUP with no IN interest: the peer closed its write half while
        // we were not reading. A draining conn's peer is treated as gone,
        // as is one owed nothing; but a *paused* serving connection still
        // holds answers the peer is waiting to read (a client may burst,
        // `shutdown(SHUT_WR)`, and collect) — it keeps delivering. Only
        // the RDHUP interest is dropped (the level-triggered event would
        // spin otherwise); the EOF itself resurfaces on the read path
        // once completions unpause the connection.
        if events & EVENT_RDHUP != 0 {
            let Some(conn) = self.conns[idx].as_mut() else { return };
            if conn.interest & EVENT_IN != 0 {
                return; // the read path observes the EOF itself
            }
            let owes = conn.in_flight > 0 || !conn.out.is_empty() || !conn.pending.is_empty();
            if conn.state == ConnState::Draining || !owes {
                self.drop_conn(idx);
            } else {
                conn.rdhup = true;
                self.update_interest(idx);
            }
        }
    }

    /// Reads and processes everything the socket has. Returns with the
    /// connection either consistent or dropped.
    fn conn_readable(&mut self, idx: usize, scratch: &mut [u8]) {
        loop {
            let Some(conn) = self.conns[idx].as_mut() else { return };
            if conn.state == ConnState::Draining || conn.paused || conn.eof {
                return;
            }
            let n = {
                self.handle.stats.reads.fetch_add(1, Ordering::Relaxed);
                match conn.stream.read(scratch) {
                    Ok(0) => {
                        self.conn_eof(idx);
                        return;
                    }
                    Ok(n) => n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        self.refresh_deadline(idx);
                        return;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.drop_conn(idx);
                        return;
                    }
                }
            };
            if !self.decode_chunk(idx, &scratch[..n]) {
                return;
            }
            // A paused connection must not keep draining the socket.
            let paused = self.conns[idx].as_ref().is_some_and(|c| c.paused);
            if n < scratch.len() || paused {
                self.refresh_deadline(idx);
                self.update_interest(idx);
                return;
            }
        }
    }

    /// Feeds `buf` through the connection's decoder, dispatching every
    /// complete frame. A drain discards the remainder (a draining conn
    /// never processes input); the pipelining cap instead *stashes* the
    /// unprocessed tail in `conn.pending` — `read(2)` already consumed
    /// those bytes from the kernel, so dropping them would silently lose
    /// requests (or desync the stream mid-frame). Returns false when the
    /// connection was dropped.
    fn decode_chunk(&mut self, idx: usize, buf: &[u8]) -> bool {
        let mut off = 0;
        while off < buf.len() {
            let Some(conn) = self.conns[idx].as_mut() else { return false };
            if conn.state == ConnState::Draining {
                return true;
            }
            if conn.paused {
                conn.pending.extend_from_slice(&buf[off..]);
                return true;
            }
            match conn.decoder.feed(&buf[off..]) {
                Ok((used, Some(env))) => {
                    off += used;
                    if !self.on_frame(idx, env) {
                        return false;
                    }
                }
                Ok((used, None)) => {
                    off += used;
                    debug_assert!(off == buf.len(), "decoder stalls only at buffer end");
                }
                Err(_) => {
                    self.drop_conn(idx);
                    return false;
                }
            }
        }
        true
    }

    /// Peer EOF: the read side is finished for good. A peer that quit
    /// mid-frame, or one owed nothing, is dropped on the spot; one that
    /// half-closed after a burst of requests still gets every answer —
    /// the connection stops reading and closes once the last owed byte
    /// flushes (see [`Reactor::flush`]).
    fn conn_eof(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].as_mut() else { return };
        let owes = conn.in_flight > 0 || !conn.out.is_empty() || !conn.pending.is_empty();
        if conn.decoder.mid_frame() || !owes {
            self.drop_conn(idx);
            return;
        }
        conn.eof = true;
        // The half-close already happened; stop watching for RDHUP so
        // the level-triggered event cannot spin while answers drain.
        conn.rdhup = true;
        self.refresh_deadline(idx);
        self.update_interest(idx);
    }

    /// Handles one complete inbound frame. Returns false when the
    /// connection was dropped.
    fn on_frame(&mut self, idx: usize, env: Envelope) -> bool {
        let Some(conn) = self.conns[idx].as_mut() else { return false };
        match (conn.state, env.kind) {
            (ConnState::Handshake, FrameKind::Hello) => {
                conn.state = ConnState::Serving;
                let info = ServerInfo {
                    node_count: self.svc.node_count(),
                    max_frame_bytes: self.cfg.max_frame_bytes,
                };
                conn.out.push(&Envelope::hello_ack(&info));
                self.flush(idx)
            }
            (ConnState::Serving, FrameKind::Shutdown) => {
                // Drain the whole server; this connection gets its
                // in-flight answers, then the goodbye.
                self.begin_drain();
                true
            }
            // Any other frame is the service's to answer or refuse.
            (ConnState::Serving, _) => {
                conn.in_flight += 1;
                if conn.in_flight >= self.pipeline_cap {
                    conn.paused = true;
                }
                self.handle.stats.requests.fetch_add(1, Ordering::Relaxed);
                if self.job_tx.send(Job { token: idx, epoch: conn.epoch, env }).is_err() {
                    self.drop_conn(idx);
                    return false;
                }
                true
            }
            // A peer must open with Hello.
            _ => {
                self.drop_conn(idx);
                false
            }
        }
    }

    // ---- pool hand-back ------------------------------------------------

    fn drain_completions(&mut self) {
        let done = match self.completions.lock() {
            Ok(mut done) => std::mem::take(&mut *done),
            Err(_) => return,
        };
        for Completion { token, epoch, frame } in done {
            let live =
                self.conns.get(token).and_then(Option::as_ref).is_some_and(|c| c.epoch == epoch);
            if !live {
                continue; // the connection went away while we computed
            }
            let Some(frame) = frame else {
                self.drop_conn(token); // the service refused the frame
                continue;
            };
            self.handle.stats.responses.fetch_add(1, Ordering::Relaxed);
            // The liveness check above proved the slot occupied; a bare
            // re-check keeps this panic-free without a second epoch load.
            let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else { continue };
            conn.out.push_frame(frame);
            conn.in_flight -= 1;
            let mut replay = Vec::new();
            if conn.paused && conn.in_flight < self.pipeline_cap {
                conn.paused = false;
                replay = std::mem::take(&mut conn.pending);
            }
            // Bytes stashed at the pause point replay before any new
            // socket read, keeping frames in arrival order (the replay
            // may itself re-pause, re-stashing its own tail).
            if !replay.is_empty() && !self.decode_chunk(token, &replay) {
                continue; // the connection dropped mid-replay
            }
            self.try_finish_drain(token);
            if self.flush(token) {
                self.update_interest(token);
            }
        }
    }

    // ---- drain orchestration -------------------------------------------

    /// Starts (or continues) a whole-server drain: stop accepting, stop
    /// reading, answer what is in flight, say goodbye everywhere.
    fn begin_drain(&mut self) {
        if self.stopping {
            return;
        }
        self.stopping = true;
        let _ = self.epoll.delete(self.listener.as_raw_fd());
        for idx in 0..self.conns.len() {
            let Some(conn) = self.conns[idx].as_mut() else { continue };
            match conn.state {
                // A peer that never finished its handshake gets a plain
                // close, as before.
                ConnState::Handshake => {
                    self.drop_conn(idx);
                }
                ConnState::Serving => {
                    conn.state = ConnState::Draining;
                    self.try_finish_drain(idx);
                    if self.flush(idx) {
                        self.update_interest(idx);
                    }
                }
                ConnState::Draining => {}
            }
        }
    }

    /// On a draining connection with nothing left in flight, queue the
    /// goodbye. The close happens once the output flushes.
    fn try_finish_drain(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].as_mut() else { return };
        if conn.state == ConnState::Draining && conn.in_flight == 0 && !conn.goodbye_queued {
            conn.out.push(&Envelope::goodbye());
            conn.goodbye_queued = true;
        }
    }

    // ---- write path ----------------------------------------------------

    /// Flushes as much queued output as the socket accepts, each written
    /// frame's buffer back to the pool. Returns false when the connection
    /// was dropped (write fault, or a completed drain). On a would-block
    /// the residue stays queued and EPOLLOUT interest plus the progress
    /// deadline keep it moving.
    fn flush(&mut self, idx: usize) -> bool {
        let pool = &self.handle.pool;
        let Some(conn) = self.conns[idx].as_mut() else { return false };
        match conn.out.write_to(&mut conn.stream, |frame| pool.give(frame)) {
            Ok(true) => {
                // Everything queued is on the wire. A drained conn
                // (goodbye sent) is done; so is a half-closed peer that
                // is owed nothing more.
                let finished = conn.goodbye_queued
                    || (conn.eof && conn.in_flight == 0 && conn.pending.is_empty());
                if finished {
                    self.drop_conn(idx);
                    return false;
                }
                self.refresh_deadline(idx);
                true
            }
            Ok(false) => {
                self.refresh_deadline(idx);
                self.update_interest(idx);
                true
            }
            Err(_) => {
                self.drop_conn(idx);
                false
            }
        }
    }

    // ---- bookkeeping ---------------------------------------------------

    /// Recomputes the epoll interest set from the connection's state.
    fn update_interest(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].as_mut() else { return };
        let mut want = if conn.rdhup { 0 } else { EVENT_RDHUP };
        let reading = conn.state != ConnState::Draining && !conn.paused && !conn.eof;
        if reading {
            want |= EVENT_IN;
        }
        if !conn.out.is_empty() {
            want |= EVENT_OUT;
        }
        if want != conn.interest {
            conn.interest = want;
            let token = conn_token(idx, conn.epoch);
            let _ = self.epoll.modify(conn.stream.as_raw_fd(), want, token);
        }
    }

    /// Arms or clears the per-frame progress deadline. Armed exactly
    /// while the connection owes progress (handshake pending, a frame
    /// partially received, or output unflushed); an armed deadline is
    /// *not* refreshed by trickled progress — a frame must complete
    /// within `io_timeout` of starting, which is what defeats slowloris.
    fn refresh_deadline(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].as_mut() else { return };
        let need =
            conn.state == ConnState::Handshake || conn.decoder.mid_frame() || !conn.out.is_empty();
        match (need, conn.deadline) {
            (true, None) => {
                conn.deadline_gen += 1;
                let d = Deadline { token: idx, generation: conn.deadline_gen };
                let slot = self.wheel.arm(Instant::now() + self.cfg.io_timeout, d);
                conn.deadline = Some(slot);
            }
            (false, Some(slot)) => {
                self.wheel.cancel_at(idx, slot);
                conn.deadline = None;
            }
            _ => {}
        }
    }

    /// Closes and forgets a connection: deregister, disarm, free the
    /// slot. Pool answers still in flight for it are discarded by the
    /// epoch check when they complete.
    fn drop_conn(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].take() else { return };
        let _ = self.epoll.delete(conn.stream.as_raw_fd());
        if let Some(slot) = conn.deadline {
            self.wheel.cancel_at(idx, slot);
        }
        self.free.push(idx);
        self.alive -= 1;
        // `conn.stream` drops here: the socket closes.
    }
}
