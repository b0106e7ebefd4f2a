//! The similarity-cloud server: an M-Index that never sees plaintext.
//!
//! One front end, [`FrontEnd`], answers the whole wire protocol — insert,
//! k-NN/range candidates, batch, fetch, export and the ops surface — over
//! a small [`IndexBackend`]: the backend opens, drains and fetches, the
//! front end does everything else (request decode, `cand_size` clamp,
//! candidate staging, search stats, telemetry, encode). [`CloudServer`]
//! is the front end over one reader–writer-locked [`MIndex`]; the sharded
//! deployment (`simcloud_shard`) is the same front end over N shards, so
//! the two cannot drift apart on the wire.
//!
//! The front end implements both handler traits of the transport layer:
//! the classic `&mut self` [`RequestHandler`] and the *shared-read*
//! [`SharedRequestHandler`], so one `Arc`'d server can answer any number
//! of concurrent client connections (paper §4.4 serves independent
//! clients). All statistics live in atomics/locks so the whole request
//! path needs only `&self`. The server holds **no key material** —
//! compromising it yields sealed payloads and routing information only
//! (§4.3).

use parking_lot::{RwLock, RwLockReadGuard};
use simcloud_mindex::{
    knn_drain_cap, CandidateCursor, IndexEntry, MIndex, MIndexConfig, MIndexError,
    PromiseEvaluator, Routing, SearchStats,
};
use simcloud_storage::BucketStore;
use simcloud_telemetry::Trace;
use simcloud_transport::{RequestHandler, SharedRequestHandler};

use crate::protocol::{
    Candidate, CandidateHeader, CandidateList, FetchedObject, Request, Response,
    MAX_CANDIDATE_HEADERS,
};
use crate::telemetry::{request_label, ServerTelemetry};

/// Server-side configuration beyond the index shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Byte budget for **one phase-1 candidate list**. Headers (16 bytes
    /// per candidate) **always** ship — they are the answer — and sealed
    /// payloads are inlined in bound order while the encoded list stays
    /// within the budget, saving the client a [`Request::FetchObjects`]
    /// round trip for the candidates it is most likely to decrypt. `None`
    /// inlines every payload (the eager pre-two-phase wire behavior).
    ///
    /// The budget is **per candidate list**, not per response: a
    /// [`Request::BatchKnn`] answer contains one list per query, so its
    /// total size scales with the batch. The accounting mirrors the
    /// single-response framing and is a few bytes approximate inside a
    /// batch slot — it is an inlining dial, not a hard frame-size cap.
    pub max_inline_response_bytes: Option<usize>,
}

impl Default for ServerConfig {
    /// Inline everything: existing single-phase deployments keep their
    /// exact wire behavior unless a budget is configured.
    fn default() -> Self {
        Self {
            max_inline_response_bytes: None,
        }
    }
}

impl ServerConfig {
    /// A budgeted configuration (two-phase responses beyond `bytes`).
    pub fn budgeted(bytes: usize) -> Self {
        Self {
            max_inline_response_bytes: Some(bytes),
        }
    }
}

/// Aggregate shape of an index behind a front end (the `Info` view).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexShape {
    /// Total entries.
    pub entries: u64,
    /// Total leaf cells.
    pub leaves: usize,
    /// Deepest cell tree.
    pub max_depth: usize,
}

/// Ranked `(entry, lower_bound)` candidates plus the search's statistics.
pub type RankedCandidates = (Vec<(IndexEntry, f64)>, SearchStats);

/// The index a [`FrontEnd`] serves. Searches are split into an **open**
/// (cursor staging under the index's read lock(s)) and a **drain** (the
/// lock-free pull over the owned cursors), so the front end can time the
/// two as distinct request phases and stage candidates with no guard held.
pub trait IndexBackend: Send + Sync {
    /// Opened, not yet drained, candidate cursor(s). Owns its staged
    /// records: no index lock is held while it lives.
    type Frontier: Send;

    /// Opens a precise range search.
    fn open_range(
        &self,
        query_distances: &[f64],
        radius: f64,
    ) -> Result<Self::Frontier, MIndexError>;

    /// Opens an approximate k-NN search for `cand_size` candidates.
    fn open_knn(
        &self,
        evaluator: &PromiseEvaluator,
        cand_size: usize,
    ) -> Result<Self::Frontier, MIndexError>;

    /// Opens every query of a batch in one pass over the index locks; one
    /// slot per query, in order, a failing query only in its own slot.
    fn open_batch_knn(
        &self,
        queries: &[(PromiseEvaluator, usize)],
    ) -> Vec<Result<Self::Frontier, MIndexError>>;

    /// Drains an opened search in ascending bound order, stopping after
    /// `cap` candidates (`None` = drain everything).
    fn drain(
        &self,
        frontier: Self::Frontier,
        cap: Option<usize>,
    ) -> Result<RankedCandidates, MIndexError>;

    /// Inserts `entries` in order, stopping at the first failure. Returns
    /// how many were stored and the failure, if any: bulk inserts are not
    /// atomic, the stored prefix stays.
    fn insert_bulk(&self, entries: Vec<IndexEntry>) -> (u32, Option<MIndexError>);

    /// Re-reads entries by id: one slot per requested id, in request
    /// order, duplicates included, `None` for an unknown id.
    fn fetch_entries(&self, ids: &[u64]) -> Result<Vec<Option<IndexEntry>>, MIndexError>;

    /// Entry count and cell-tree shape.
    fn shape(&self) -> IndexShape;

    /// Every stored entry (diagnostics / export).
    fn all_entries(&self) -> Result<Vec<IndexEntry>, MIndexError>;

    /// Number of independent shards (1 for a single index). Must not take
    /// an index lock: `Health` answers with it.
    fn shard_count(&self) -> usize;

    /// Commits the store(s) to durable storage.
    fn flush(&self) -> Result<(), MIndexError>;
}

/// The single-index backend: searches share the read lock, a bulk insert
/// takes the write lock **once**, so readers see none or all of it.
impl<S: BucketStore> IndexBackend for RwLock<MIndex<S>> {
    type Frontier = CandidateCursor;

    fn open_range(
        &self,
        query_distances: &[f64],
        radius: f64,
    ) -> Result<Self::Frontier, MIndexError> {
        self.read().range_cursor(query_distances, radius)
    }

    fn open_knn(
        &self,
        evaluator: &PromiseEvaluator,
        cand_size: usize,
    ) -> Result<Self::Frontier, MIndexError> {
        self.read().knn_cursor(evaluator, cand_size)
    }

    fn open_batch_knn(
        &self,
        queries: &[(PromiseEvaluator, usize)],
    ) -> Vec<Result<Self::Frontier, MIndexError>> {
        // One read-lock acquisition opens every query's cursor; queries
        // from other connections still interleave freely.
        let index = self.read();
        queries
            .iter()
            .map(|(evaluator, cand_size)| index.knn_cursor(evaluator, *cand_size))
            .collect()
    }

    fn drain(
        &self,
        cursor: Self::Frontier,
        cap: Option<usize>,
    ) -> Result<RankedCandidates, MIndexError> {
        cursor.collect_up_to(cap)
    }

    fn insert_bulk(&self, entries: Vec<IndexEntry>) -> (u32, Option<MIndexError>) {
        let mut index = self.write();
        let mut inserted = 0;
        let failure = entries
            .into_iter()
            .try_for_each(|e| {
                index.insert(e)?;
                inserted += 1;
                Ok(())
            })
            .err();
        (inserted, failure)
    }

    fn fetch_entries(&self, ids: &[u64]) -> Result<Vec<Option<IndexEntry>>, MIndexError> {
        self.read().fetch_entries(ids)
    }

    fn shape(&self) -> IndexShape {
        let index = self.read();
        let shape = index.shape();
        IndexShape {
            entries: index.len(),
            leaves: shape.leaves,
            max_depth: shape.max_depth,
        }
    }

    fn all_entries(&self) -> Result<Vec<IndexEntry>, MIndexError> {
        self.read().all_entries()
    }

    fn shard_count(&self) -> usize {
        1
    }

    fn flush(&self) -> Result<(), MIndexError> {
        self.write().flush()
    }
}

/// The server front end over an [`IndexBackend`]: the one request
/// dispatcher of every deployment.
pub struct FrontEnd<B> {
    backend: B,
    config: ServerConfig,
    telemetry: ServerTelemetry,
}

impl<B> std::fmt::Debug for FrontEnd<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrontEnd")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

/// Server half of the Encrypted M-Index: the front end over one M-Index
/// behind a reader–writer lock.
pub type CloudServer<S> = FrontEnd<RwLock<MIndex<S>>>;

impl<S: BucketStore> CloudServer<S> {
    /// Creates a server with the given index configuration and store, and
    /// the default [`ServerConfig`] (no inline budget).
    pub fn new(config: MIndexConfig, store: S) -> Result<Self, MIndexError> {
        Self::with_config(config, ServerConfig::default(), store)
    }

    /// Creates a server with an explicit [`ServerConfig`].
    pub fn with_config(
        config: MIndexConfig,
        server_config: ServerConfig,
        store: S,
    ) -> Result<Self, MIndexError> {
        let index = RwLock::new(MIndex::new(config, store)?);
        Ok(Self::from_parts(
            index,
            server_config,
            ServerTelemetry::new(),
        ))
    }

    /// Creates a server over a store that already holds records (e.g. a
    /// crash-recovered [`DiskStore`]), rebuilding the in-memory cell tree
    /// from the stored entries via [`MIndex::rebuild`].
    ///
    /// [`DiskStore`]: https://docs.rs/simcloud-storage
    pub fn rebuilt(config: MIndexConfig, store: S) -> Result<Self, MIndexError> {
        let index = RwLock::new(MIndex::rebuild(config, store)?);
        Ok(Self::from_parts(
            index,
            ServerConfig::default(),
            ServerTelemetry::new(),
        ))
    }

    /// Read access to the underlying index (shape and storage inspection).
    /// Holds the shared lock for the guard's lifetime — keep it short.
    pub fn index(&self) -> RwLockReadGuard<'_, MIndex<S>> {
        self.backend.read()
    }
}

impl<B: IndexBackend> FrontEnd<B> {
    /// Assembles a front end. `telemetry` is passed in so a backend can
    /// bind its own timers to the same registry before it moves here; the
    /// entries gauge is seeded from the backend, so `Health` never has to
    /// touch an index lock.
    pub fn from_parts(backend: B, config: ServerConfig, telemetry: ServerTelemetry) -> Self {
        telemetry.set_entries(backend.shape().entries);
        Self {
            backend,
            config,
            telemetry,
        }
    }

    /// The index backend (inspection; a write through it bypasses the
    /// front end's entries gauge and search stats).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// The server configuration.
    pub fn server_config(&self) -> ServerConfig {
        self.config
    }

    /// Commits the store(s) to durable storage. Takes the index write
    /// lock(s), so in-flight queries drain first.
    pub fn flush(&self) -> Result<(), MIndexError> {
        self.backend.flush()
    }

    /// Statistics of the most recent search request (per-shard cost
    /// counters summed, `candidates` the answer size). Zeroed when the
    /// most recent search *failed*, so cost accounting never attributes a
    /// previous query's work to a failed request.
    pub fn last_search_stats(&self) -> SearchStats {
        self.telemetry.last_search_stats()
    }

    /// Accumulated statistics over all search requests (lock-free atomic
    /// counters; exact once in-flight queries finish).
    pub fn total_search_stats(&self) -> SearchStats {
        self.telemetry.total_search_stats()
    }

    /// The server's telemetry: registry, phase histograms, slow-query
    /// log, the enabled switch and the [`Request::Health`] /
    /// [`Request::MetricsSnapshot`] answer path.
    pub fn telemetry(&self) -> &ServerTelemetry {
        &self.telemetry
    }

    /// Processes one decoded request (the typed core of the handler).
    /// Needs only `&self`. Wraps the dispatcher in its own request trace,
    /// so direct callers (in-process transports, tests) feed the same
    /// histograms as the byte handler.
    pub fn process(&self, request: Request) -> Response {
        let mut trace = self.telemetry.trace_labeled(request_label(&request));
        let response = self.process_traced(request, &mut trace);
        self.telemetry.note_response(&response);
        self.telemetry.finish(trace);
        response
    }

    /// The request dispatcher, with the caller's request trace: each
    /// lifecycle phase (route → open → pull → stage, or insert) is timed
    /// into its histogram and the trace's phase breakdown.
    fn process_traced(&self, request: Request, trace: &mut Trace) -> Response {
        match request {
            Request::Insert(entries) => {
                let (inserted, failure) = {
                    let _insert = trace.span("insert", self.telemetry.insert_hist());
                    self.backend.insert_bulk(entries)
                };
                // The ops surface answers `entries` from this gauge, so
                // Health never waits on an index write lock.
                self.telemetry.add_entries(u64::from(inserted));
                match failure {
                    // The error carries the count of the stored prefix.
                    Some(e) => Response::InsertError {
                        inserted,
                        message: e.to_string(),
                    },
                    None => Response::Inserted(inserted),
                }
            }
            Request::Range { distances, radius } => {
                let opened = {
                    let _open = trace.span("open", self.telemetry.open_hist());
                    self.backend.open_range(&distances, radius)
                };
                self.search_response(opened, None, trace)
            }
            Request::ApproxKnn { routing, cand_size } => {
                // An oversized request is refused before any index work:
                // its answer could never be decoded by the requester. A
                // refused search did no accountable work, so the
                // per-request stats are zeroed like any failed search.
                let cand_size = match check_cand_size(cand_size) {
                    Ok(cand_size) => cand_size,
                    Err(msg) => {
                        self.telemetry.record_failed_search();
                        return Response::Error(msg);
                    }
                };
                let evaluator = {
                    let _route = trace.span("route", self.telemetry.route_hist());
                    evaluator_for(routing)
                };
                let opened = {
                    let _open = trace.span("open", self.telemetry.open_hist());
                    self.backend.open_knn(&evaluator, cand_size)
                };
                self.search_response(opened, knn_drain_cap(cand_size), trace)
            }
            Request::BatchKnn(queries) => {
                // Oversized queries are refused up front and never reach
                // the index — their slots carry the clamp error. Every
                // admissible query opens in one backend pass; each is then
                // drained and staged with no index lock held.
                let mut slots = Vec::with_capacity(queries.len());
                let mut plans = Vec::new();
                for q in queries {
                    let slot = check_cand_size(q.cand_size);
                    if let Ok(cand_size) = slot {
                        plans.push((evaluator_for(q.routing), cand_size));
                    }
                    slots.push(slot);
                }
                let mut opened = {
                    let _open = trace.span("open", self.telemetry.open_hist());
                    self.backend.open_batch_knn(&plans)
                }
                .into_iter();
                let mut batch_stats = SearchStats::default();
                let sets = slots
                    .into_iter()
                    .map(|slot| {
                        let cand_size = slot?;
                        // `open_batch_knn` answers one slot per plan; a
                        // short answer is a backend bug — surface it in
                        // the slot, never panic.
                        let opened = opened.next().unwrap_or_else(|| {
                            Err(MIndexError::Corrupt(
                                "batch answer missing a query slot".into(),
                            ))
                        });
                        // A failing query answers in its own slot and did
                        // no accountable work: the batch stats are exactly
                        // the successful queries' sum.
                        let (list, stats) = self
                            .pull_and_stage(opened, knn_drain_cap(cand_size), trace)
                            .map_err(|e| e.to_string())?;
                        batch_stats.merge(&stats);
                        Ok(list)
                    })
                    .collect();
                self.telemetry.record_search(batch_stats);
                Response::CandidateSets(sets)
            }
            Request::FetchObjects { ids } => {
                // Phase 2 of the two-phase fetch: a stateless re-read by
                // id — nothing was pinned when phase 1 answered, so any
                // number of interleaved fetches are safe. Not a search:
                // the search stats are left untouched.
                let entries = match self.backend.fetch_entries(&ids) {
                    Ok(entries) => entries,
                    Err(e) => return Response::Error(e.to_string()),
                };
                let objects = ids
                    .iter()
                    .zip(entries)
                    .map(|(&id, entry)| match entry {
                        Some(e) => Ok(FetchedObject {
                            id,
                            payload: e.payload,
                        }),
                        None => Err(format!("unknown object id {id}")),
                    })
                    .collect();
                match objects {
                    Ok(objects) => Response::Objects(objects),
                    Err(msg) => Response::Error(msg),
                }
            }
            Request::Info => {
                let shape = self.backend.shape();
                Response::Info {
                    entries: shape.entries,
                    leaves: u32::try_from(shape.leaves).unwrap_or(u32::MAX),
                    depth: u32::try_from(shape.max_depth).unwrap_or(u32::MAX),
                }
            }
            Request::ExportAll => match self.backend.all_entries() {
                // An export has no query, hence no bounds: every candidate
                // ships a trivial lower bound of zero ("could be anywhere").
                Ok(entries) => Response::Candidates(
                    entries
                        .into_iter()
                        .map(|e| Candidate {
                            id: e.id,
                            lower_bound: 0.0,
                            payload: e.payload,
                        })
                        .collect(),
                ),
                Err(e) => Response::Error(e.to_string()),
            },
            // The ops surface: both answers come from ServerTelemetry's
            // atomics and side locks — never an index lock — so they stay
            // fast while an insert holds a write lock (the integration
            // test pins this by probing mid-insert).
            Request::Health => self
                .telemetry
                .health_response(u32::try_from(self.backend.shard_count()).unwrap_or(u32::MAX)),
            Request::MetricsSnapshot => Response::MetricsSnapshot(self.telemetry.metrics_text()),
        }
    }

    /// Answers a single search: the staged candidate list, or an error
    /// with the per-request stats zeroed.
    fn search_response(
        &self,
        opened: Result<B::Frontier, MIndexError>,
        cap: Option<usize>,
        trace: &mut Trace,
    ) -> Response {
        match self.pull_and_stage(opened, cap, trace) {
            Ok((list, stats)) => {
                self.telemetry.record_search(stats);
                Response::CandidateList(list)
            }
            Err(e) => {
                // A failed search did no accountable work: zero the
                // per-request stats instead of leaving the previous
                // query's numbers in place.
                self.telemetry.record_failed_search();
                Response::Error(e.to_string())
            }
        }
    }

    /// Drains an opened search and stages its candidates for the wire,
    /// timing the pull and stage phases. Runs with no index lock held.
    fn pull_and_stage(
        &self,
        opened: Result<B::Frontier, MIndexError>,
        cap: Option<usize>,
        trace: &mut Trace,
    ) -> Result<(CandidateList, SearchStats), MIndexError> {
        let frontier = opened?;
        let (entries, stats) = {
            let _pull = trace.span("pull", self.telemetry.pull_hist());
            self.backend.drain(frontier, cap)?
        };
        let list = {
            let _stage = trace.span("stage", self.telemetry.stage_hist());
            stage_candidates(entries, self.config.max_inline_response_bytes)
        };
        Ok((list, stats))
    }
}

/// Stages a ranked candidate set for the phase-1 wire: **every** header
/// ships (they are the ranked answer), and sealed payloads are inlined in
/// bound order while the encoded response stays within `budget` — the
/// client decrypts in exactly that order, so the inlined prefix is the
/// part it is most likely to need. Payload inlining stops at the first
/// candidate that would overflow the budget (the wire carries a positional
/// prefix, not a best-fit subset); `None` inlines everything.
fn stage_candidates(entries: Vec<(IndexEntry, f64)>, budget: Option<usize>) -> CandidateList {
    // Encoded list size so far: tag + header count + 16 per header +
    // payload count; each inline payload adds 4 + len.
    let mut used = 1 + 4 + 16 * entries.len() + 4;
    let mut headers = Vec::with_capacity(entries.len());
    let mut payloads = Vec::new();
    let mut inlining = true;
    for (e, lower_bound) in entries {
        headers.push(CandidateHeader {
            id: e.id,
            lower_bound,
        });
        if inlining {
            match budget {
                Some(b) if used + 4 + e.payload.len() > b => inlining = false,
                _ => {
                    used += 4 + e.payload.len();
                    payloads.push(e.payload);
                }
            }
        }
    }
    CandidateList { headers, payloads }
}

/// Refuses a `cand_size` whose phase-1 header list could not fit the
/// protocol's decode cap even with zero payloads inlined — the requester
/// itself could never decode the answer, so the server rejects the
/// request up front ([`Response::Error`]) instead of doing the search
/// work and shipping an undecodable frame. Answers the admitted size.
fn check_cand_size(cand_size: u32) -> Result<usize, String> {
    let size = cand_size as usize;
    if size > MAX_CANDIDATE_HEADERS {
        Err(format!(
            "cand_size {cand_size} exceeds the {MAX_CANDIDATE_HEADERS}-header response cap"
        ))
    } else {
        Ok(size)
    }
}

/// Builds the promise evaluator a k-NN request's routing implies.
fn evaluator_for(routing: Routing) -> PromiseEvaluator {
    match routing {
        Routing::Distances(ds) => {
            PromiseEvaluator::from_distances(ds.iter().map(|&d| d as f64).collect())
        }
        Routing::Permutation(p) => PromiseEvaluator::from_permutation(p),
    }
}

impl<B: IndexBackend> SharedRequestHandler for FrontEnd<B> {
    fn handle_shared(&self, request: &[u8]) -> Vec<u8> {
        let mut trace = self.telemetry.trace();
        let decoded = {
            let _decode = trace.span("decode", self.telemetry.decode_hist());
            Request::decode(request)
        };
        let response = match decoded {
            Ok(req) => {
                trace.set_label(request_label(&req));
                self.process_traced(req, &mut trace)
            }
            Err(e) => {
                trace.set_label("undecodable");
                Response::Error(e.to_string())
            }
        };
        self.telemetry.note_response(&response);
        let bytes = {
            let _encode = trace.span("encode", self.telemetry.encode_hist());
            response.encode()
        };
        self.telemetry.finish(trace);
        bytes
    }
}

/// `&mut self` adapter so existing single-threaded call sites (in-process
/// transports, tests) keep working unchanged.
impl<B: IndexBackend> RequestHandler for FrontEnd<B> {
    fn handle(&mut self, request: &[u8]) -> Vec<u8> {
        self.handle_shared(request)
    }
}

#[cfg(test)]
mod tests {
    //! One table-driven set: every behaviour test runs against a
    //! single-index `CloudServer` and a 3-shard `ShardedCloudServer`, so
    //! the two deployments are held to the same answers by the same code.
    //!
    //! The rows are driven through the byte handler: this test build of
    //! the crate is a different crate from the `simcloud_core` that
    //! `simcloud_shard` links, so the sharded row shares only bytes (and
    //! the lower crates' types) with the code here.
    //!
    //! A few checks are functions run once per row, each row under its
    //! own test name, so a failure names the deployment it broke.

    use super::*;
    use crate::protocol::KnnQuery;
    use simcloud_mindex::RoutingStrategy;
    use simcloud_shard::{memory_stores, HashRouter, PivotRouter, ShardRouter, ShardedCloudServer};
    use simcloud_storage::MemoryStore;

    /// A front end under test, driven over the wire.
    trait UnderTest: SharedRequestHandler {
        fn last_search_stats(&self) -> SearchStats;
        fn total_search_stats(&self) -> SearchStats;

        fn process(&self, request: Request) -> Response {
            Response::decode(&self.handle_shared(&request.encode())).unwrap()
        }
    }

    impl UnderTest for CloudServer<MemoryStore> {
        fn last_search_stats(&self) -> SearchStats {
            FrontEnd::last_search_stats(self)
        }
        fn total_search_stats(&self) -> SearchStats {
            FrontEnd::total_search_stats(self)
        }
    }

    impl UnderTest for ShardedCloudServer<MemoryStore> {
        fn last_search_stats(&self) -> SearchStats {
            (**self).last_search_stats()
        }
        fn total_search_stats(&self) -> SearchStats {
            (**self).total_search_stats()
        }
    }

    fn cfg() -> MIndexConfig {
        MIndexConfig {
            num_pivots: 3,
            max_level: 2,
            bucket_capacity: 4,
            strategy: RoutingStrategy::Distances,
        }
    }

    fn single(budget: Option<usize>) -> CloudServer<MemoryStore> {
        let config = ServerConfig {
            max_inline_response_bytes: budget,
        };
        CloudServer::with_config(cfg(), config, MemoryStore::new()).unwrap()
    }

    fn sharded(
        shards: usize,
        router: Box<dyn ShardRouter>,
        budget: Option<usize>,
    ) -> ShardedCloudServer<MemoryStore> {
        let config = simcloud_shard::ServerConfig {
            max_inline_response_bytes: budget,
        };
        ShardedCloudServer::with_config(cfg(), config, router, memory_stores(shards)).unwrap()
    }

    /// The table, every row with the inline budget `budget`.
    fn servers_with(budget: Option<usize>) -> Vec<(&'static str, Box<dyn UnderTest>)> {
        vec![
            ("single", Box::new(single(budget))),
            (
                "3 shards",
                Box::new(sharded(3, Box::new(HashRouter), budget)),
            ),
        ]
    }

    fn servers() -> Vec<(&'static str, Box<dyn UnderTest>)> {
        servers_with(None)
    }

    fn three_shards() -> ShardedCloudServer<MemoryStore> {
        sharded(3, Box::new(HashRouter), None)
    }

    fn entry(id: u64, ds: &[f64]) -> IndexEntry {
        IndexEntry::new(id, Routing::from_distances(ds), vec![id as u8; 3])
    }

    fn knn(ds: &[f64], cand_size: u32) -> Request {
        Request::ApproxKnn {
            routing: Routing::from_distances(ds),
            cand_size,
        }
    }

    fn query(ds: &[f64], cand_size: u32) -> KnnQuery {
        KnnQuery {
            routing: Routing::from_distances(ds),
            cand_size,
        }
    }

    fn ids(list: &CandidateList) -> Vec<u64> {
        list.headers.iter().map(|h| h.id).collect()
    }

    #[test]
    fn insert_then_info() {
        for (row, s) in servers() {
            let resp = s.process(Request::Insert(vec![
                entry(1, &[0.1, 0.5, 0.9]),
                entry(2, &[0.9, 0.1, 0.5]),
            ]));
            assert_eq!(resp, Response::Inserted(2), "{row}");
            match s.process(Request::Info) {
                Response::Info {
                    entries, leaves, ..
                } => {
                    assert_eq!(entries, 2, "{row}");
                    assert_eq!(leaves, 2, "{row}");
                }
                other => panic!("{row}: unexpected {other:?}"),
            }
        }
    }

    /// Info sums entries and leaves over the shards.
    #[test]
    fn insert_then_info_aggregates_shards() {
        let s = sharded(3, Box::new(HashRouter), None);
        let resp = s.process(Request::Insert(vec![
            entry(1, &[0.1, 0.5, 0.9]),
            entry(2, &[0.9, 0.1, 0.5]),
            entry(3, &[0.5, 0.9, 0.1]),
        ]));
        assert_eq!(resp, Response::Inserted(3));
        let shape = s.index().shape();
        assert_eq!(shape.entries, 3);
        match s.process(Request::Info) {
            Response::Info {
                entries, leaves, ..
            } => {
                assert_eq!(entries, 3);
                assert!(leaves >= 1);
                assert_eq!(leaves as usize, shape.leaves);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn range_returns_candidates() {
        for (row, s) in servers() {
            s.process(Request::Insert(vec![
                entry(1, &[0.1, 0.5, 0.9]),
                entry(2, &[0.12, 0.52, 0.88]),
                entry(3, &[0.9, 0.1, 0.2]),
            ]));
            let resp = s.process(Request::Range {
                distances: vec![0.11, 0.51, 0.89],
                radius: 0.05,
            });
            match resp {
                Response::CandidateList(list) => {
                    let ids = ids(&list);
                    assert!(ids.contains(&1) && ids.contains(&2), "{row}: {ids:?}");
                    assert!(!ids.contains(&3), "{row}: far object filtered: {ids:?}");
                    assert_eq!(
                        list.payloads.len(),
                        list.headers.len(),
                        "{row}: no budget: everything inlined"
                    );
                }
                other => panic!("{row}: unexpected {other:?}"),
            }
            assert!(s.last_search_stats().entries_scanned >= 2, "{row}");
        }
    }

    /// The byte handler answers what the typed `process` answers.
    #[test]
    fn knn_via_bytes_round_trip() {
        for (row, s) in servers() {
            s.handle_shared(
                &Request::Insert(vec![
                    entry(1, &[0.1, 0.5, 0.9]),
                    entry(2, &[0.2, 0.6, 0.8]),
                    entry(3, &[0.9, 0.1, 0.2]),
                ])
                .encode(),
            );
            let resp_bytes = s.handle_shared(&knn(&[0.1, 0.5, 0.9], 2).encode());
            match Response::decode(&resp_bytes).unwrap() {
                Response::CandidateList(list) => {
                    assert_eq!(list.headers.len(), 2, "{row}");
                    assert_eq!(
                        list.headers[0].id, 1,
                        "{row}: query matches object 1's distances exactly"
                    );
                }
                other => panic!("{row}: unexpected {other:?}"),
            }
        }
        let mut s = single(None);
        s.process(Request::Insert(vec![entry(1, &[0.1, 0.5, 0.9])]));
        let typed = FrontEnd::process(&s, knn(&[0.1, 0.5, 0.9], 1));
        assert_eq!(typed.encode(), s.handle(&knn(&[0.1, 0.5, 0.9], 1).encode()));
    }

    #[test]
    fn malformed_request_yields_error_response() {
        for (row, s) in servers() {
            let resp = Response::decode(&s.handle_shared(&[0xFF, 0x00])).unwrap();
            assert!(matches!(resp, Response::Error(_)), "{row}: {resp:?}");
        }
    }

    #[test]
    fn wrong_strategy_yields_error_response() {
        for (row, s) in servers() {
            let resp = s.process(Request::ApproxKnn {
                routing: Routing::permutation_prefix(&[0.3, 0.2, 0.1], 2),
                cand_size: 5,
            });
            // Permutation queries are fine against a distances index — the
            // evaluator just ranks cells by permutation. But inserts must
            // match:
            let bad_insert = s.process(Request::Insert(vec![IndexEntry::new(
                9,
                Routing::permutation_prefix(&[0.1, 0.2, 0.3], 2),
                vec![],
            )]));
            assert!(matches!(bad_insert, Response::InsertError { .. }), "{row}");
            // and the knn above returned an empty candidate set, not an error
            assert!(matches!(resp, Response::CandidateList(_)), "{row}");
        }
    }

    /// Candidate sets leave the server capped at `cand_size`, sorted by
    /// their wire lower bound with the bounds attached — the contract the
    /// lazy client exits on — and counted in the search stats.
    fn check_knn_response_bounds_and_stats(row: &str, s: &dyn UnderTest) {
        s.process(Request::Insert(vec![
            entry(1, &[0.1, 0.5, 0.9]),
            entry(2, &[0.4, 0.6, 0.7]),
            entry(3, &[0.9, 0.1, 0.2]),
            entry(4, &[0.11, 0.52, 0.9]),
        ]));
        match s.process(knn(&[0.1, 0.5, 0.9], 3)) {
            Response::CandidateList(list) => {
                assert_eq!(list.headers.len(), 3, "{row}: list capped at cand_size");
                assert_eq!(list.payloads.len(), 3, "{row}: no budget: all inlined");
            }
            other => panic!("{row}: unexpected {other:?}"),
        }
        assert_eq!(s.last_search_stats().candidates, 3, "{row}");
        assert_eq!(s.total_search_stats().candidates, 3, "{row}");
        match s.process(knn(&[0.1, 0.5, 0.9], 4)) {
            Response::CandidateList(list) => {
                let h = &list.headers;
                assert_eq!(h.len(), 4, "{row}");
                assert!(
                    h.windows(2).all(|w| w[0].lower_bound <= w[1].lower_bound),
                    "{row}: bounds not ascending: {:?}",
                    h.iter().map(|x| x.lower_bound).collect::<Vec<_>>()
                );
                assert!(
                    h[0].lower_bound < h[3].lower_bound,
                    "{row}: bounds all equal"
                );
            }
            other => panic!("{row}: unexpected {other:?}"),
        }
    }

    #[test]
    fn knn_response_carries_ascending_lower_bounds() {
        check_knn_response_bounds_and_stats("single", &single(None));
    }

    #[test]
    fn knn_response_is_sorted_and_counts_stats() {
        check_knn_response_bounds_and_stats("3 shards", &three_shards());
    }

    #[test]
    fn stats_accumulate_across_queries() {
        for (row, s) in servers() {
            s.process(Request::Insert(vec![
                entry(1, &[0.1, 0.5, 0.9]),
                entry(2, &[0.2, 0.6, 0.8]),
            ]));
            for _ in 0..3 {
                s.process(knn(&[0.1, 0.5, 0.9], 2));
            }
            assert_eq!(s.total_search_stats().candidates, 6, "{row}");
            assert_eq!(s.last_search_stats().candidates, 2, "{row}");
        }
    }

    fn check_partial_insert_prefix(row: &str, s: &dyn UnderTest) {
        // Second entry has a dimension mismatch: the first one stays.
        let resp = s.process(Request::Insert(vec![
            entry(1, &[0.1, 0.5, 0.9]),
            entry(2, &[0.2, 0.6]),
            entry(3, &[0.9, 0.1, 0.2]),
        ]));
        match resp {
            Response::InsertError { inserted, message } => {
                assert_eq!(
                    inserted, 1,
                    "{row}: exactly the prefix before the bad entry"
                );
                assert!(message.contains("pivot distances"), "{row}: {message}");
            }
            other => panic!("{row}: unexpected {other:?}"),
        }
        match s.process(Request::Info) {
            Response::Info { entries, .. } => assert_eq!(entries, 1, "{row}"),
            other => panic!("{row}: unexpected {other:?}"),
        }
    }

    #[test]
    fn partial_insert_reports_stored_prefix() {
        check_partial_insert_prefix("single", &single(None));
    }

    #[test]
    fn partial_insert_reports_prefix_across_shards() {
        check_partial_insert_prefix("3 shards", &three_shards());
    }

    #[test]
    fn failed_search_zeroes_last_stats() {
        for (row, s) in servers() {
            s.process(Request::Insert(vec![
                entry(1, &[0.1, 0.5, 0.9]),
                entry(2, &[0.2, 0.6, 0.8]),
            ]));
            let ok = s.process(Request::Range {
                distances: vec![0.1, 0.5, 0.9],
                radius: 1.0,
            });
            assert!(matches!(ok, Response::CandidateList(_)), "{row}");
            let before_total = s.total_search_stats();
            assert!(s.last_search_stats().entries_scanned > 0, "{row}");
            // Dimension mismatch: the search fails before doing any work.
            let bad = s.process(Request::Range {
                distances: vec![0.1],
                radius: 1.0,
            });
            assert!(matches!(bad, Response::Error(_)), "{row}");
            assert_eq!(
                s.last_search_stats(),
                SearchStats::default(),
                "{row}: stale stats must not be attributed to the failed request"
            );
            assert_eq!(
                s.total_search_stats(),
                before_total,
                "{row}: failed searches add nothing to the totals"
            );
        }
    }

    #[test]
    fn batch_knn_returns_one_set_per_query_in_order() {
        for (row, s) in servers() {
            s.process(Request::Insert(vec![
                entry(1, &[0.1, 0.5, 0.9]),
                entry(2, &[0.2, 0.6, 0.8]),
                entry(3, &[0.9, 0.1, 0.2]),
            ]));
            let resp = s.process(Request::BatchKnn(vec![
                query(&[0.1, 0.5, 0.9], 1),
                query(&[0.9, 0.1, 0.2], 2),
            ]));
            match resp {
                Response::CandidateSets(sets) => {
                    assert_eq!(sets.len(), 2, "{row}");
                    assert_eq!(sets[0].as_ref().unwrap().headers[0].id, 1, "{row}");
                    assert_eq!(sets[1].as_ref().unwrap().headers[0].id, 3, "{row}");
                }
                other => panic!("{row}: unexpected {other:?}"),
            }
            // The batch counts as one search request in the per-request
            // stats and its full volume lands in the totals.
            assert_eq!(s.last_search_stats().candidates, 3, "{row}");
            assert_eq!(s.total_search_stats().candidates, 3, "{row}");
        }
    }

    /// A budgeted server ships every header but only the payload prefix
    /// that fits; an unlimited server inlines everything.
    #[test]
    fn inline_budget_bounds_payload_prefix() {
        // Fixed budget: headers (4 × 16 + 9 framing) + two 3-byte payloads
        // (4 + 3 each) fit; the third does not.
        let budget = 1 + 4 + 16 * 4 + 4 + 2 * (4 + 3);
        for (row, s) in servers_with(Some(budget)) {
            s.process(Request::Insert(vec![
                entry(1, &[0.1, 0.5, 0.9]),
                entry(2, &[0.11, 0.51, 0.89]),
                entry(3, &[0.4, 0.6, 0.7]),
                entry(4, &[0.9, 0.1, 0.2]),
            ]));
            match s.process(knn(&[0.1, 0.5, 0.9], 4)) {
                Response::CandidateList(list) => {
                    assert_eq!(list.headers.len(), 4, "{row}: headers always ship in full");
                    assert_eq!(
                        list.payloads.len(),
                        2,
                        "{row}: payload prefix capped by budget"
                    );
                    // The response encoding itself respects the budget.
                    assert!(
                        Response::CandidateList(list).encode().len() <= budget,
                        "{row}"
                    );
                }
                other => panic!("{row}: unexpected {other:?}"),
            }
        }
    }

    /// A budget too small for any payload still ships all headers.
    #[test]
    fn tiny_budget_ships_headers_only() {
        for (row, s) in servers_with(Some(0)) {
            s.process(Request::Insert(vec![entry(1, &[0.1, 0.5, 0.9])]));
            match s.process(knn(&[0.1, 0.5, 0.9], 1)) {
                Response::CandidateList(list) => {
                    assert_eq!(list.headers.len(), 1, "{row}");
                    assert!(list.payloads.is_empty(), "{row}");
                }
                other => panic!("{row}: unexpected {other:?}"),
            }
        }
    }

    /// Budget 0 on a pivot-routed sharded server: the merged list still
    /// ships every header and inlines nothing.
    #[test]
    fn budgeted_sharded_server_ships_headers_only() {
        let s = sharded(3, Box::new(PivotRouter), Some(0));
        s.process(Request::Insert(vec![
            entry(1, &[0.1, 0.5, 0.9]),
            entry(2, &[0.9, 0.1, 0.5]),
        ]));
        match s.process(knn(&[0.1, 0.5, 0.9], 2)) {
            Response::CandidateList(list) => {
                assert_eq!(list.headers.len(), 2);
                assert!(list.payloads.is_empty(), "budget 0 inlines nothing");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Phase 2: fetches return payloads by id in request order, error on
    /// unknown ids, and work through `&self` (stateless between phases).
    #[test]
    fn fetch_objects_by_id() {
        for (row, s) in servers() {
            s.process(Request::Insert(vec![
                entry(1, &[0.1, 0.5, 0.9]),
                entry(2, &[0.2, 0.6, 0.8]),
                entry(3, &[0.9, 0.1, 0.2]),
            ]));
            match s.process(Request::FetchObjects { ids: vec![3, 1] }) {
                Response::Objects(objs) => {
                    assert_eq!(objs.len(), 2, "{row}");
                    assert_eq!(objs[0].id, 3, "{row}");
                    assert_eq!(objs[0].payload, vec![3u8; 3], "{row}");
                    assert_eq!(objs[1].id, 1, "{row}");
                    assert_eq!(objs[1].payload, vec![1u8; 3], "{row}");
                }
                other => panic!("{row}: unexpected {other:?}"),
            }
            match s.process(Request::FetchObjects { ids: vec![1, 99] }) {
                Response::Error(msg) => assert!(msg.contains("99"), "{row}: {msg}"),
                other => panic!("{row}: unexpected {other:?}"),
            }
            // Fetches are not searches: per-request search stats untouched.
            assert_eq!(s.last_search_stats(), SearchStats::default(), "{row}");
        }
    }

    /// Ids owned by different pivot-routed shards come back in request
    /// order, duplicates kept — the contract the client's fetch-mismatch
    /// detection relies on.
    #[test]
    fn fetch_objects_mirror_request_and_unknown_id_errors() {
        let s = sharded(3, Box::new(PivotRouter), None);
        s.process(Request::Insert(vec![
            entry(1, &[0.1, 0.5, 0.9]),
            entry(2, &[0.9, 0.1, 0.5]),
            entry(3, &[0.9, 0.5, 0.1]),
        ]));
        match s.process(Request::FetchObjects { ids: vec![3, 1, 3] }) {
            Response::Objects(objs) => {
                assert_eq!(
                    objs.iter().map(|o| o.id).collect::<Vec<_>>(),
                    vec![3, 1, 3],
                    "request order and duplicates preserved"
                );
                assert_eq!(objs[0].payload, vec![3u8; 3]);
                assert_eq!(objs[2].payload, vec![3u8; 3]);
            }
            other => panic!("unexpected {other:?}"),
        }
        match s.process(Request::FetchObjects { ids: vec![1, 99] }) {
            Response::Error(msg) => assert!(msg.contains("99"), "{msg}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// One failing query in a batch answers in its own slot; its siblings'
    /// candidate sets still ship, and the batch stats cover exactly the
    /// successful queries.
    fn check_batch_failure_isolated(row: &str, s: &dyn UnderTest) {
        s.process(Request::Insert(vec![
            entry(1, &[0.1, 0.5, 0.9]),
            entry(2, &[0.2, 0.6, 0.8]),
        ]));
        let resp = s.process(Request::BatchKnn(vec![
            query(&[0.1, 0.5, 0.9], 2),
            // Dimension mismatch: this query fails on its own.
            query(&[0.1, 0.5], 2),
            query(&[0.2, 0.6, 0.8], 1),
        ]));
        match resp {
            Response::CandidateSets(sets) => {
                assert_eq!(sets.len(), 3, "{row}");
                assert_eq!(sets[0].as_ref().unwrap().headers.len(), 2, "{row}");
                let msg = sets[1].as_ref().unwrap_err();
                assert!(msg.contains("pivot distances"), "{row}: {msg}");
                assert_eq!(sets[2].as_ref().unwrap().headers.len(), 1, "{row}");
            }
            other => panic!("{row}: unexpected {other:?}"),
        }
        assert_eq!(
            s.last_search_stats().candidates,
            3,
            "{row}: stats cover the successful queries only"
        );
        assert_eq!(s.total_search_stats().candidates, 3, "{row}");
    }

    #[test]
    fn batch_query_failure_is_isolated_to_its_slot() {
        check_batch_failure_isolated("single", &single(None));
    }

    #[test]
    fn batch_failure_isolated_to_slot_with_summed_stats() {
        check_batch_failure_isolated("3 shards", &three_shards());
    }

    /// A `cand_size` whose headers alone would bust the 64 MiB decode cap
    /// is refused before any search work — solo requests get an error
    /// response (with zeroed per-request stats), batch slots carry the
    /// clamp error wherever they sit while their siblings still answer.
    fn check_oversized_cand_size_refused(row: &str, s: &dyn UnderTest) {
        let over = u32::try_from(MAX_CANDIDATE_HEADERS + 1).unwrap();
        s.process(Request::Insert(vec![
            entry(1, &[0.1, 0.5, 0.9]),
            entry(2, &[0.2, 0.6, 0.8]),
        ]));
        s.process(knn(&[0.1, 0.5, 0.9], 1));
        assert_eq!(s.last_search_stats().candidates, 1, "{row}");
        let before_total = s.total_search_stats();
        match s.process(knn(&[0.1, 0.5, 0.9], over)) {
            Response::Error(msg) => {
                assert!(msg.contains("header response cap"), "{row}: {msg}");
            }
            other => panic!("{row}: unexpected {other:?}"),
        }
        assert_eq!(s.last_search_stats(), SearchStats::default(), "{row}");
        assert_eq!(s.total_search_stats(), before_total, "{row}");
        match s.process(Request::BatchKnn(vec![
            query(&[0.1, 0.5, 0.9], over),
            query(&[0.1, 0.5, 0.9], 2),
            query(&[0.1, 0.5, 0.9], over),
        ])) {
            Response::CandidateSets(sets) => {
                assert_eq!(sets.len(), 3, "{row}");
                for refused in [&sets[0], &sets[2]] {
                    let msg = refused.as_ref().unwrap_err();
                    assert!(msg.contains("header response cap"), "{row}: {msg}");
                }
                assert_eq!(sets[1].as_ref().unwrap().headers.len(), 2, "{row}");
            }
            other => panic!("{row}: unexpected {other:?}"),
        }
        assert_eq!(s.last_search_stats().candidates, 2, "{row}: successes only");
    }

    #[test]
    fn oversized_cand_size_refused_before_search() {
        check_oversized_cand_size_refused("single", &single(None));
    }

    #[test]
    fn oversized_cand_size_refused_before_fanout() {
        check_oversized_cand_size_refused("3 shards", &three_shards());
    }

    fn check_shared_handle_many_threads(row: &str, s: &dyn UnderTest) {
        s.process(Request::Insert(vec![
            entry(1, &[0.1, 0.5, 0.9]),
            entry(2, &[0.2, 0.6, 0.8]),
        ]));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(move || {
                    for _ in 0..10 {
                        match s.process(knn(&[0.1, 0.5, 0.9], 2)) {
                            Response::CandidateList(list) => {
                                assert_eq!(list.headers.len(), 2, "{row}");
                            }
                            other => panic!("{row}: unexpected {other:?}"),
                        }
                    }
                });
            }
        });
        assert_eq!(s.total_search_stats().candidates, 4 * 10 * 2, "{row}");
    }

    #[test]
    fn shared_handle_serves_reads_from_many_threads() {
        check_shared_handle_many_threads("single", &single(None));
    }

    #[test]
    fn shared_handler_serves_bytes_from_many_threads() {
        check_shared_handle_many_threads("3 shards", &three_shards());
    }

    /// A one-shard sharded server is the single server on the wire: given
    /// the same inserts, every answer encodes to the same bytes.
    #[test]
    fn one_shard_server_encodes_byte_identical_responses() {
        let single = single(None);
        let sharded = sharded(1, Box::new(HashRouter), None);
        let inserts: Vec<IndexEntry> = (0..24u64)
            .map(|i| {
                let x = i as f64 / 24.0;
                entry(i, &[x, 1.0 - x, (x * 7.0) % 1.0])
            })
            .collect();
        let over = u32::try_from(MAX_CANDIDATE_HEADERS + 1).unwrap();
        let requests = [
            Request::Insert(inserts),
            Request::Range {
                distances: vec![0.3, 0.7, 0.1],
                radius: 0.25,
            },
            knn(&[0.3, 0.7, 0.1], 5),
            knn(
                &[0.3, 0.7, 0.1],
                u32::try_from(simcloud_mindex::FIRST_CELL_ONLY).unwrap(),
            ),
            knn(&[0.3, 0.7, 0.1], over),
            Request::BatchKnn(vec![
                query(&[0.3, 0.7, 0.1], 4),
                query(&[0.3, 0.7], 4),
                query(&[0.9, 0.1, 0.2], 30),
            ]),
            Request::FetchObjects { ids: vec![7, 3, 7] },
            Request::FetchObjects { ids: vec![3, 99] },
            Request::Info,
            Request::ExportAll,
        ];
        for request in requests {
            let bytes = request.encode();
            let (a, b) = (single.handle_shared(&bytes), sharded.handle_shared(&bytes));
            assert_eq!(
                Response::decode(&a).unwrap(),
                Response::decode(&b).unwrap(),
                "{request:?}"
            );
            assert_eq!(a, b, "{request:?}");
        }
    }
}
