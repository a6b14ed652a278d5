#![warn(missing_docs)]
// The panic gate of the serving closure: a site is rewritten or carries a reasoned `#[allow]`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]
//! **The PASCO network runtime**: an event-driven TCP server and a
//! blocking client speaking the versioned envelope protocol
//! ([`pasco_simrank::api::envelope`]), the server hosting either any
//! [`QueryService`](pasco_simrank::QueryService) or a SimRank worker.
//!
//! The paper's end state is SimRank *served* at scale: single-source and
//! top-`k` similarity as an online query service, computed by a fleet of
//! workers. This crate is both ends' service boundary:
//!
//! * [`PascoServer`] — an epoll reactor (built on a thin syscall shim,
//!   no external dependencies) that owns every connection socket in
//!   nonblocking mode. One event loop runs accepts, handshakes,
//!   resumable frame reassembly, response flushing, per-frame I/O
//!   deadlines on a timer wheel, and drain orchestration; frames are
//!   answered on a bounded worker pool shared by all connections, and
//!   responses are written as they finish — possibly out of request
//!   order, matched by request id. 256 idle connections cost zero
//!   threads and zero wakeups, and a slowloris peer costs one timer
//!   slot. [`PascoServer::bind`] serves queries (`pasco serve`);
//!   [`PascoServer::bind_worker`] serves one partition owner of the
//!   distributed substrate (`pasco worker`) on the same reactor.
//! * [`PascoClient`] ([`pasco_simrank::api::client`]) — the one blocking
//!   client, for queries and the coordinator's worker links alike: typed
//!   [`query`](PascoClient::query) / [`query_batch`](PascoClient::query_batch),
//!   [`send`](PascoClient::send) / [`wait`](PascoClient::wait) pipelining,
//!   a handshake bounded by a 10 s deadline, and a reconnect-safe error
//!   surface: a typed [`QueryError`](pasco_simrank::QueryError) leaves the
//!   connection usable, while transport faults poison the client until it
//!   is reconnected.
//! * [`transport`] — the shared frame I/O (header-validated reads that
//!   never allocate for an oversize or malformed frame), including the
//!   resumable [`FrameDecoder`](transport::FrameDecoder) /
//!   [`WriteQueue`](transport::WriteQueue) pair the reactor's
//!   nonblocking state machines are built on.
//!
//! Protocol violations — bad magic, an unsupported version, a payload
//! over the negotiated limit, an undecodable payload — close the
//! connection: after a framing fault the byte stream cannot be trusted
//! to resynchronise. Typed query failures never do; they travel back as
//! error frames.
//!
//! ```no_run
//! use pasco_server::{PascoClient, PascoServer, ServerConfig};
//! use pasco_simrank::{CloudWalker, ExecMode, SimRankConfig, QueryRequest, QueryResponse};
//! use std::sync::Arc;
//!
//! let g = Arc::new(pasco_graph::generators::barabasi_albert(1000, 4, 7));
//! let cw = Arc::new(CloudWalker::build(g, SimRankConfig::fast(), ExecMode::Local).unwrap());
//! let server = PascoServer::bind("127.0.0.1:0", cw, ServerConfig::default()).unwrap();
//! let addr = server.local_addr();
//! std::thread::spawn(move || server.run().unwrap());
//!
//! let mut client = PascoClient::connect(addr).unwrap();
//! match client.query(QueryRequest::SinglePair { i: 3, j: 4 }).unwrap() {
//!     QueryResponse::Score(s) => println!("s(3,4) = {s}"),
//!     other => panic!("unexpected {other:?}"),
//! }
//! client.shutdown_server().unwrap();
//! ```

pub mod server;
#[allow(unsafe_code, reason = "the epoll syscall shim: one of the two sanctioned unsafe modules")]
mod sys;
mod wheel;

/// Frame I/O — re-exported from [`pasco_simrank::api::transport`], where
/// it lives so the reactor and the one client (which the distributed
/// coordinator drives its workers through) read and write frames through
/// one implementation.
pub mod transport {
    pub use pasco_simrank::api::transport::{
        read_envelope, write_envelope, FrameDecoder, TransportError, WriteQueue,
    };
}

pub use pasco_simrank::api::client::{ClientError, PascoClient};
pub use server::{PascoServer, ServerConfig, ServerHandle, ServerStats, FRAME_POOL_CAP};
pub use transport::TransportError;
