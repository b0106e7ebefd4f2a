//! # simcloud — Secure Metric-Based Index for Similarity Cloud
//!
//! A from-scratch Rust reproduction of *Kozák, Novak, Zezula: Secure
//! Metric-Based Index for Similarity Cloud* (SDM @ VLDB 2012): the
//! **Encrypted M-Index**, a privacy-preserving metric similarity index for
//! outsourced "similarity clouds", together with every substrate it needs
//! (metric toolkit, AES/SHA-2 stack, bucket storage, client/server
//! transport) and the comparison baselines of Yiu et al.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! ```
//! use simcloud::prelude::*;
//!
//! // Data owner: generate data, pick a secret key (pivots + AES key).
//! let data = simcloud::datasets::yeast_like(7, Some(500)).vectors;
//! let (key, _master) = SecretKey::generate(&data, 30, &L1, PivotSelection::Random, 42);
//!
//! // Deploy an in-process similarity cloud and outsource the collection.
//! let mut cloud = simcloud::core::in_process(
//!     key, L1, MIndexConfig::yeast(), MemoryStore::new(), ClientConfig::distances(),
//! ).unwrap();
//! let objects: Vec<(ObjectId, Vector)> = data.iter().cloned().enumerate()
//!     .map(|(i, v)| (ObjectId(i as u64), v)).collect();
//! cloud.insert_bulk(&objects).unwrap();
//!
//! // Authorized client: approximate 10-NN with a 100-candidate budget.
//! let (neighbors, costs) = cloud.knn_approx(&data[0], 10, 100).unwrap();
//! assert_eq!(neighbors[0].0, ObjectId(0));
//! assert!(costs.candidates <= 100);
//! ```

/// Telemetry (counters, latency histograms, phase spans, slow-query log).
pub use simcloud_telemetry as telemetry;

/// Metric-space toolkit (vectors, metrics, pivots, permutations).
pub use simcloud_metric as metric;

/// Symmetric crypto stack (AES, SHA-256, HMAC, envelopes).
pub use simcloud_crypto as crypto;

/// Bucket storage (memory + paged disk).
pub use simcloud_storage as storage;

/// Client/server transport with cost accounting.
pub use simcloud_transport as transport;

/// The M-Index and its plain (non-encrypted) deployment.
pub use simcloud_mindex as mindex;

/// The Encrypted M-Index (the paper's contribution).
pub use simcloud_core as core;

/// Sharded scatter-gather deployment of the Encrypted M-Index.
pub use simcloud_shard as shard;

/// Comparison baselines (trivial, EHI, MPT, FDH).
pub use simcloud_baselines as baselines;

/// Synthetic datasets, workloads, ground truth.
pub use simcloud_datasets as datasets;

/// Convenience prelude with the most common types.
pub mod prelude {
    pub use simcloud_core::{
        client_for, connect_tcp, connect_tcp_with, in_process, over_tcp, ClientConfig, ClientError,
        CloudServer, CostReport, DistanceTransform, EncryptedClient, SecretKey, ServerConfig,
    };
    pub use simcloud_metric::{
        CombinedMetric, Lp, Metric, ObjectId, PivotSelection, Vector, L1, L2,
    };
    pub use simcloud_mindex::{recall, MIndexConfig, PlainMIndex, RoutingStrategy};
    pub use simcloud_shard::{memory_stores, HashRouter, PivotRouter, ShardedCloudServer};
    pub use simcloud_storage::{DiskStore, DiskStoreOptions, MemoryStore};
    pub use simcloud_transport::{
        serve_tcp_shared, serve_tcp_shared_with, RetryPolicy, ServeOptions, TcpClientConfig,
        TransportError,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_round_trip() {
        let data: Vec<Vector> = (0..100)
            .map(|i| Vector::new(vec![i as f32, (i % 9) as f32]))
            .collect();
        let (key, _) = SecretKey::generate(&data, 4, &L2, PivotSelection::Random, 1);
        let mut cfg = MIndexConfig::yeast();
        cfg.num_pivots = 4;
        let mut cloud =
            in_process(key, L2, cfg, MemoryStore::new(), ClientConfig::distances()).unwrap();
        let objects: Vec<(ObjectId, Vector)> = data
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, v)| (ObjectId(i as u64), v))
            .collect();
        cloud.insert_bulk(&objects).unwrap();
        let (res, _) = cloud.knn_approx(&data[5], 3, 50).unwrap();
        assert_eq!(res[0].0, ObjectId(5));
    }
}
