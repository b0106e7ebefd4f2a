//! The sharded similarity-cloud server.
//!
//! [`ShardedCloudServer`] is `simcloud_core`'s one server front end over a
//! [`ShardedMIndex`] backend — same requests, same responses, same
//! candidate staging, same telemetry — so today's unmodified
//! `EncryptedClient` works against it byte for byte. The difference is
//! entirely behind the wire: inserts take one shard's write lock instead
//! of a global one and searches scatter-gather across all shards.

use std::ops::Deref;

use simcloud_core::{
    FrontEnd, IndexBackend, IndexShape, RankedCandidates, ServerConfig, ServerTelemetry,
};
use simcloud_mindex::{CandidateCursor, IndexEntry, MIndexConfig, MIndexError, PromiseEvaluator};
use simcloud_storage::BucketStore;
use simcloud_transport::SharedRequestHandler;

use crate::index::ShardedMIndex;
use crate::router::ShardRouter;

/// Server half of the sharded Encrypted M-Index: the core front end over
/// N shards (it derefs to [`FrontEnd`] for processing, stats, telemetry
/// and flush). Holds no key material. The shard layer binds its own
/// `shard.*` histograms into the front end's registry, so one
/// `MetricsSnapshot` answer carries the whole picture.
pub struct ShardedCloudServer<S: BucketStore>(FrontEnd<ShardedMIndex<S>>);

impl<S: BucketStore> std::fmt::Debug for ShardedCloudServer<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("ShardedCloudServer").field(&self.0).finish()
    }
}

impl<S: BucketStore> ShardedCloudServer<S> {
    /// Creates a sharded server with one shard per store and the default
    /// [`ServerConfig`] (no inline budget).
    pub fn new(
        config: MIndexConfig,
        router: Box<dyn ShardRouter>,
        stores: Vec<S>,
    ) -> Result<Self, MIndexError> {
        Self::with_config(config, ServerConfig::default(), router, stores)
    }

    /// Creates a sharded server with an explicit [`ServerConfig`].
    pub fn with_config(
        config: MIndexConfig,
        server_config: ServerConfig,
        router: Box<dyn ShardRouter>,
        stores: Vec<S>,
    ) -> Result<Self, MIndexError> {
        let telemetry = ServerTelemetry::new();
        let mut index = ShardedMIndex::new(config, router, stores)?;
        index.bind_telemetry(telemetry.registry());
        Ok(Self(FrontEnd::from_parts(index, server_config, telemetry)))
    }

    /// The sharded index (shard inspection, aggregate shape/IO stats).
    pub fn index(&self) -> &ShardedMIndex<S> {
        self.0.backend()
    }
}

impl<S: BucketStore> Deref for ShardedCloudServer<S> {
    type Target = FrontEnd<ShardedMIndex<S>>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<S: BucketStore> SharedRequestHandler for ShardedCloudServer<S> {
    fn handle_shared(&self, request: &[u8]) -> Vec<u8> {
        self.0.handle_shared(request)
    }
}

/// Scatter-gather backend: searches fan out over the shards' read locks
/// and drain the merged frontier lock-free; a bulk insert takes exactly
/// one shard's write lock **per entry**, so a concurrent search may
/// observe a partially applied bulk (the price of having no global write
/// lock — deployments needing bulk atomicity against readers must quiesce
/// searches around the bulk).
impl<S: BucketStore> IndexBackend for ShardedMIndex<S> {
    type Frontier = Vec<CandidateCursor>;

    fn open_range(
        &self,
        query_distances: &[f64],
        radius: f64,
    ) -> Result<Self::Frontier, MIndexError> {
        self.open_range_cursors(query_distances, radius)
    }

    fn open_knn(
        &self,
        evaluator: &PromiseEvaluator,
        cand_size: usize,
    ) -> Result<Self::Frontier, MIndexError> {
        self.open_knn_cursors(evaluator, cand_size)
    }

    fn open_batch_knn(
        &self,
        queries: &[(PromiseEvaluator, usize)],
    ) -> Vec<Result<Self::Frontier, MIndexError>> {
        ShardedMIndex::open_batch_knn(self, queries)
    }

    fn drain(
        &self,
        cursors: Self::Frontier,
        cap: Option<usize>,
    ) -> Result<RankedCandidates, MIndexError> {
        ShardedMIndex::drain(self, cursors, cap)
    }

    fn insert_bulk(&self, entries: Vec<IndexEntry>) -> (u32, Option<MIndexError>) {
        let mut inserted = 0;
        let failure = entries
            .into_iter()
            .try_for_each(|e| {
                self.insert(e)?;
                inserted += 1;
                Ok(())
            })
            .err();
        (inserted, failure)
    }

    fn fetch_entries(&self, ids: &[u64]) -> Result<Vec<Option<IndexEntry>>, MIndexError> {
        ShardedMIndex::fetch_entries(self, ids)
    }

    fn shape(&self) -> IndexShape {
        ShardedMIndex::shape(self)
    }

    fn all_entries(&self) -> Result<Vec<IndexEntry>, MIndexError> {
        ShardedMIndex::all_entries(self)
    }

    fn shard_count(&self) -> usize {
        ShardedMIndex::shard_count(self)
    }

    fn flush(&self) -> Result<(), MIndexError> {
        ShardedMIndex::flush(self)
    }
}
