//! # simcloud-core — the Encrypted M-Index
//!
//! Reproduction of the primary contribution of *Secure Metric-Based Index
//! for Similarity Cloud* (Kozák, Novak, Zezula; SDM @ VLDB 2012): a metric
//! similarity index outsourced to an untrusted "similarity cloud" such that
//! the server can still do most of the search work while learning almost
//! nothing about the data.
//!
//! ## The idea (paper §4.2)
//!
//! Pivot-permutation indexes like the M-Index need only the *ordering* of a
//! fixed pivot set by distance — never the objects, the pivots, or the
//! metric. So:
//!
//! * the **secret key** ([`SecretKey`]) = pivot set + AES key, held by the
//!   data owner and authorized clients;
//! * **insert** ([`EncryptedClient::insert_bulk`], Alg. 1): the client
//!   computes object–pivot distances, derives the routing information,
//!   AES-seals the object and ships `{routing, ciphertext}`;
//! * **search** ([`EncryptedClient::range`] / [`EncryptedClient::knn_approx`] /
//!   [`EncryptedClient::knn_precise`], Alg. 2–4): the client sends
//!   query–pivot distances (precise) or the query permutation
//!   (approximate); the server prunes/ranks its Voronoi cell tree, returns
//!   a pre-ranked candidate set of sealed objects; the client decrypts and
//!   refines.
//!
//! The server half is [`CloudServer`]: the one request front end
//! ([`FrontEnd`]) over a single M-Index backend. It implements the byte
//! [`protocol`] and can run in-process or behind TCP ([`cloud`]).
//! [`CostReport`] captures the paper's cost decomposition (client /
//! encryption / decryption / distance / server / communication) for every
//! operation.
//!
//! ## Privacy level
//!
//! The base system is level 3 of the paper's taxonomy (§2.3): objects are
//! encrypted; permutations/distances leak partial distribution information.
//! The [`transform`] module implements the paper's *future-work* level-4
//! extension: a keyed monotone distance transformation that hides distance
//! values from the server at a quantified pruning-power cost.

#![warn(missing_docs)]

pub mod client;
pub mod cloud;
pub mod costs;
pub mod key;
pub mod protocol;
pub mod server;
pub mod telemetry;
pub mod transform;

pub use client::{ClientConfig, ClientError, EncryptedClient, LazyRefine, Neighbor, ServerHealth};
pub use cloud::{
    client_for, client_for_with_model, connect_tcp, connect_tcp_with, in_process,
    in_process_rebuilt, in_process_with_model, over_tcp, InProcessCloud, SharedCloud,
};
pub use costs::CostReport;
pub use key::SecretKey;
pub use server::{CloudServer, FrontEnd, IndexBackend, IndexShape, RankedCandidates, ServerConfig};
pub use telemetry::{ServerTelemetry, SLOW_LOG_CAPACITY};
pub use transform::DistanceTransform;

/// Recall measure re-exported from the index layer (paper §4.1).
pub use simcloud_mindex::recall;
