//! # simcloud-shard — sharded M-Index, scatter-gather similarity cloud
//!
//! The single `CloudServer` keeps its whole M-Index behind one
//! reader–writer lock: searches share it, but **every insert takes the one
//! write lock**, and every search walks one index. This crate removes both
//! ceilings with a layer between the index and the server:
//!
//! * [`ShardedMIndex`] — N fully independent M-Index shards, each with its
//!   own `BucketStore` and its own write lock. An insert blocks 1/N of the
//!   key space; searches fan out to all shards (scoped threads over
//!   `&self`, reusing the shared-read path), each shard *opening* a lazy
//!   `CandidateCursor`, and the coordinator drains the merged frontier by
//!   wire lower bound until `cand_size` candidates are pulled globally
//!   ([`merge::drain_frontier`]) — per-shard generation work drops toward
//!   `cand_size / N` instead of every shard materializing a full list.
//! * [`ShardedCloudServer`] — `simcloud_core`'s one server front end over
//!   a [`ShardedMIndex`] backend, so it speaks the **existing wire
//!   protocol unchanged** and the unmodified `EncryptedClient` (including
//!   lazy refinement and phase-2 `FetchObjects`) works against it byte
//!   for byte. Deploy it with the core helpers (`client_for`,
//!   `simcloud_transport::serve_tcp_shared`). Phase-2 fetches are routed
//!   to the owning shard through a shard-aware id map.
//! * [`ShardRouter`] — pluggable placement: [`HashRouter`] (uniform by id)
//!   or [`PivotRouter`] (nearest global pivot — a coarse Voronoi partition
//!   of the metric space, cf. distributed metric indexes like DIMS).
//!
//! **Exactness.** Range queries return byte-identical answers to a single
//! index: each true result lives in exactly one shard and survives that
//! shard's triangle-inequality-safe pruning, so the merged candidate list
//! is a superset of the true results and client refinement does the rest.
//! Approximate k-NN merges each shard's locally best `cand_size`
//! candidates; when `cand_size` covers the collection the candidate sets
//! coincide with the single index's and answers are byte-identical (the
//! property test pins this), otherwise the sharded set draws from at least
//! as many promising cells.

#![warn(missing_docs)]

pub mod index;
pub mod merge;
pub mod router;
pub mod server;
pub mod telemetry;

pub use index::ShardedMIndex;
pub use router::{HashRouter, PivotRouter, ShardRouter};
pub use server::ShardedCloudServer;
/// The front-end configuration [`ShardedCloudServer::with_config`] takes.
pub use simcloud_core::ServerConfig;
pub use telemetry::ShardTiming;

/// `n` fresh in-memory stores (the common sharded test and bench
/// deployment).
pub fn memory_stores(n: usize) -> Vec<simcloud_storage::MemoryStore> {
    (0..n)
        .map(|_| simcloud_storage::MemoryStore::new())
        .collect()
}
