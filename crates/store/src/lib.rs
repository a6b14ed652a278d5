#![warn(missing_docs)]
// The panic gate of the serving closure: a site is rewritten or carries a reasoned `#[allow]`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]
//! **Out-of-core shard storage for PASCO**: a versioned, zero-copy
//! format (`PASCOSH1`) that is the one serialisation of a graph
//! partition, as a file on disk and as a frame on the wire —
//! 8-byte-aligned little-endian CSR arrays, reverse-chain sampling
//! weights, and the partition's diagonal-index slice behind a validated,
//! checksummed header.
//!
//! The point of the format is that it is *usable in place*: a
//! [`MappedShard`] maps the file read-only and serves adjacency straight
//! out of the mapping, so
//!
//! * **restart is O(1)** in the graph's edge volume — open cost is the
//!   header plus the offset spines, and the `O(E)` payload pages in
//!   lazily at page-cache speed as queries touch it;
//! * **graphs larger than RAM serve** — the kernel pages shards in and
//!   out under memory pressure instead of the process OOMing; and
//! * **workers are provisioned by path** — a distributed worker that can
//!   reach the directory maps it instead of receiving the images over the
//!   wire (and one that cannot receives the very same bytes).
//!
//! [`MappedStore`] assembles a directory of shards — or images held in
//! memory, a worker's and the RDD model's storage — into a routed view
//! implementing the [`pasco_graph::adjacency`] traits, so the
//! generic walk/MCSS kernels (and therefore every engine built on them)
//! answer **bit-identically** over a store and the resident graph. A shard
//! is the only partitioned form of a graph in the workspace.
//!
//! Headers are untrusted input: every field is validated against the
//! real file size before use, corruption is a typed [`StoreError`]
//! (never a panic, never an allocation sized by a forged length), and
//! full payload integrity is an explicit [`MappedShard::verify`] pass
//! so open stays cheap.
//!
//! `unsafe` lives only in the `sys` mmap shim below — the workspace's
//! second sanctioned unsafe module after `pasco_server`'s epoll shim;
//! the workspace denies `unsafe_code` everywhere else, and CI counts the
//! two gates. Its [`Mmap`] is public for the offline build, which sweeps
//! its coded Jacobi rows out of a mapped temp file.

mod format;
mod shard;
mod store;
#[allow(unsafe_code, reason = "the mmap syscall shim: one of the two sanctioned unsafe modules")]
mod sys;
mod writer;

pub use format::{
    fnv1a, Fnv1a, Section, ShardHeader, StoreError, HEADER_LEN, MAGIC, SECTION_ALIGN,
    SECTION_COUNT, SECTION_ELEM_BYTES, SECTION_NAMES, SEC_DIAG, SEC_IN_OFFSETS, SEC_IN_SOURCES,
    SEC_OUT_CUM, SEC_OUT_OFFSETS, SEC_OUT_TARGETS, SEC_OUT_TOTAL, VERSION,
};
pub use shard::MappedShard;
pub use store::MappedStore;
pub use sys::{Mmap, Pod};
pub use writer::{partition_image, shard_file_name, write_partition, write_store, StoreWriter};
