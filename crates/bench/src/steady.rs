//! Steady-state search throughput — the ROADMAP perf target.
//!
//! The seed search bench rebuilt the index inside every iteration, so its
//! numbers mixed construction into the search cost. Here the index is built
//! **once**, then encrypted approximate k-NN queries are driven against it
//! and reported as queries/second:
//!
//! * [`steady_state_encrypted`] — `threads` clients share one server
//!   through the `&self` handler path (1 thread = the classic
//!   single-client number, 4 threads = the concurrent serving mode);
//! * [`steady_state_batch`] — the batch query API: all queries of a chunk
//!   travel in one round trip.
//!
//! Every runner works against a [`SteadyServer`] — a single `CloudServer`
//! or a `ShardedCloudServer`, the same front end behind the same wire — so
//! the sharded deployment is benchmarked by the *same* code paths
//! (`--shards N` on the harnesses picks the variant).
//!
//! Throughput is end-to-end per query: pivot distances + server candidate
//! selection + decryption + refinement, i.e. the paper's whole Alg. 2 loop.

use std::sync::Arc;
use std::time::{Duration, Instant};

use simcloud_core::{
    client_for, connect_tcp, ClientConfig, CloudServer, CostReport, EncryptedClient, FrontEnd,
    IndexBackend, SecretKey, ServerConfig, ServerTelemetry, SharedCloud,
};
use simcloud_datasets::{Dataset, DatasetMetric, QueryWorkload};
use simcloud_metric::PivotSelection;
use simcloud_shard::{HashRouter, PivotRouter, ShardRouter, ShardedCloudServer};
use simcloud_storage::{BucketStore, MemoryStore};
use simcloud_transport::{serve_tcp_shared, tcp::TcpServerHandle, SharedRequestHandler, Transport};

use crate::experiments::BULK;

/// Result of one steady-state run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SteadyState {
    /// Query threads driving the shared server.
    pub threads: usize,
    /// Total queries executed across threads.
    pub queries: u64,
    /// Wall-clock time of the query phase (construction excluded).
    pub elapsed: Duration,
    /// Candidates received across all queries.
    pub candidates: u64,
    /// Candidates actually unsealed — `< candidates` whenever the lazy
    /// refinement's early exit fired.
    pub decrypted: u64,
    /// Bytes sent client → server across all queries (incl. frame headers).
    pub bytes_sent: u64,
    /// Bytes received server → client across all queries — the wire-cost
    /// side of the two-phase fetch trade-off.
    pub bytes_received: u64,
    /// Sealed objects pulled in phase-2 `FetchObjects` round trips.
    pub fetched: u64,
    /// Phase-2 round trips issued.
    pub fetch_requests: u64,
}

impl SteadyState {
    /// Aggregate throughput in queries per second.
    pub fn queries_per_second(&self) -> f64 {
        self.queries as f64 / self.elapsed.as_secs_f64()
    }

    /// Mean candidates decrypted per query.
    pub fn mean_decrypted(&self) -> f64 {
        self.decrypted as f64 / self.queries.max(1) as f64
    }

    /// Mean candidates received per query.
    pub fn mean_candidates(&self) -> f64 {
        self.candidates as f64 / self.queries.max(1) as f64
    }

    /// Mean response bytes per query — the number the two-phase wire is
    /// judged on.
    pub fn bytes_received_per_query(&self) -> f64 {
        self.bytes_received as f64 / self.queries.max(1) as f64
    }

    /// Mean request bytes per query.
    pub fn bytes_sent_per_query(&self) -> f64 {
        self.bytes_sent as f64 / self.queries.max(1) as f64
    }

    /// Mean phase-2 objects fetched per query.
    pub fn mean_fetched(&self) -> f64 {
        self.fetched as f64 / self.queries.max(1) as f64
    }

    /// Mean phase-2 round trips per query.
    pub fn mean_fetch_requests(&self) -> f64 {
        self.fetch_requests as f64 / self.queries.max(1) as f64
    }

    /// Folds one client's accumulated costs into this run's totals.
    fn absorb(&mut self, costs: &CostReport) {
        self.candidates += costs.candidates;
        self.decrypted += costs.decrypted;
        self.bytes_sent += costs.bytes_sent;
        self.bytes_received += costs.bytes_received;
        self.fetched += costs.fetched;
        self.fetch_requests += costs.fetch_requests;
    }
}

/// Which shard router a sharded steady-state deployment uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterKind {
    /// Uniform id hashing.
    Hash,
    /// Nearest-global-pivot (Voronoi) placement.
    Pivot,
}

impl RouterKind {
    /// Builds the router.
    pub fn build(self) -> Box<dyn ShardRouter> {
        match self {
            RouterKind::Hash => Box::new(HashRouter),
            RouterKind::Pivot => Box::new(PivotRouter),
        }
    }

    /// Stable label for bench output.
    pub fn label(self) -> &'static str {
        match self {
            RouterKind::Hash => "hash",
            RouterKind::Pivot => "pivot",
        }
    }
}

/// Parses `--shards N` from the process arguments (default 1 = the single
/// index server) — one definition shared by the bench harnesses. An
/// explicit but invalid value (0, non-numeric) panics like `repro` does,
/// instead of silently benchmarking the single-index server.
pub fn shards_arg() -> usize {
    let args: Vec<String> = std::env::args().collect();
    match args.iter().position(|a| a == "--shards") {
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .filter(|&n| n >= 1)
            .expect("--shards N (N >= 1)"),
        None => 1,
    }
}

/// JSON-key suffix distinguishing sharded bench rows (`"/shardsN"`). Empty
/// for the single-index default so previously committed keys stay stable.
pub fn shards_suffix(shards: usize) -> String {
    if shards > 1 {
        format!("/shards{shards}")
    } else {
        String::new()
    }
}

/// A server front end as the steady-state harnesses drive it: the wire
/// handler plus the telemetry the overhead and shard benches read.
pub trait SteadyHandler: SharedRequestHandler + std::fmt::Debug {
    /// The server's telemetry (registry, search stats, slow-query log).
    fn telemetry(&self) -> &ServerTelemetry;
}

impl<B: IndexBackend> SteadyHandler for FrontEnd<B> {
    fn telemetry(&self) -> &ServerTelemetry {
        FrontEnd::telemetry(self)
    }
}

impl<S: BucketStore> SteadyHandler for ShardedCloudServer<S> {
    fn telemetry(&self) -> &ServerTelemetry {
        FrontEnd::telemetry(self)
    }
}

/// A steady-state server under test: one index or N shards, same front
/// end, same wire.
#[derive(Clone, Debug)]
pub struct SteadyServer {
    /// The shared server every client and TCP listener drives.
    pub handler: Arc<dyn SteadyHandler>,
    /// Shard count (1 for the single server).
    pub shards: usize,
}

impl SteadyServer {
    /// Serves this server on a concurrent TCP loopback socket.
    pub fn serve_tcp(&self) -> std::io::Result<TcpServerHandle> {
        serve_tcp_shared(Arc::new(Arc::clone(&self.handler)))
    }
}

/// A pre-built encrypted deployment: shared server + the key/workload
/// needed to drive queries against it.
pub struct PreBuilt {
    /// The shared server holding the fully built index.
    pub server: SteadyServer,
    /// The data owner's key (clients clone it).
    pub key: SecretKey,
    /// Member queries drawn from the indexed data.
    pub workload: QueryWorkload,
    /// Dataset the index was built from.
    pub dataset: Dataset,
}

impl std::fmt::Debug for PreBuilt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreBuilt").finish_non_exhaustive()
    }
}

impl PreBuilt {
    /// A new in-process client of the shared server, holding the key.
    pub fn client(&self, config: ClientConfig) -> SharedCloud<DatasetMetric, dyn SteadyHandler> {
        client_for(
            self.key.clone(),
            self.dataset.metric.clone(),
            Arc::clone(&self.server.handler),
            config,
        )
    }
}

fn knn_rounds<T: Transport>(
    client: &mut EncryptedClient<DatasetMetric, T>,
    workload: &QueryWorkload,
    rounds: usize,
    k: usize,
    cand_size: usize,
) -> CostReport {
    for _ in 0..rounds {
        for q in &workload.queries {
            let (res, _) = client.knn_approx(q, k, cand_size).expect("search");
            std::hint::black_box(res);
        }
    }
    client.total_costs()
}

fn insert_all<T: Transport>(
    client: &mut EncryptedClient<DatasetMetric, T>,
    vectors: &[simcloud_metric::Vector],
) {
    for chunk in crate::experiments::id_objects(vectors).chunks(BULK) {
        client.insert_bulk(chunk).expect("insert");
    }
}

/// Builds the index once (outside any timed region) on a single-index
/// server with the default configuration (everything inlined —
/// single-phase responses).
pub fn prebuild(ds: Dataset, queries: usize, seed: u64) -> PreBuilt {
    prebuild_with(
        ds,
        queries,
        seed,
        ServerConfig::default(),
        1,
        RouterKind::Hash,
    )
}

/// [`prebuild`] with an explicit [`ServerConfig`] (the wire bench measures
/// the two-phase fetch on a byte-budgeted server) over `shards` shards: 1
/// is the single `CloudServer`, more a `ShardedCloudServer` placing entries
/// with `router` — same data, same key derivation, same wire.
pub fn prebuild_with(
    ds: Dataset,
    queries: usize,
    seed: u64,
    server_config: ServerConfig,
    shards: usize,
    router: RouterKind,
) -> PreBuilt {
    let cfg = crate::experiments::dataset_config(&ds);
    let handler: Arc<dyn SteadyHandler> = if shards > 1 {
        let stores = simcloud_shard::memory_stores(shards);
        Arc::new(
            ShardedCloudServer::with_config(cfg, server_config, router.build(), stores)
                .expect("valid config"),
        )
    } else {
        Arc::new(
            CloudServer::with_config(cfg, server_config, MemoryStore::new()).expect("valid config"),
        )
    };
    let (key, _) = SecretKey::generate(
        &ds.vectors,
        cfg.num_pivots,
        &ds.metric,
        PivotSelection::Random,
        seed,
    );
    let workload = QueryWorkload::members(&ds.vectors, queries, seed ^ 3);
    let pre = PreBuilt {
        server: SteadyServer { handler, shards },
        key,
        workload,
        dataset: ds,
    };
    let mut owner = pre
        .client(ClientConfig::distances())
        .with_rng_seed(seed ^ 1);
    insert_all(&mut owner, &pre.dataset.vectors);
    pre
}

/// Runs `rounds` passes over the workload from `threads` concurrent
/// clients, all sharing `pre.server` through the lock-free read path.
/// Returns the aggregate steady-state throughput.
pub fn steady_state_encrypted(
    pre: &PreBuilt,
    cand_size: usize,
    k: usize,
    threads: usize,
    rounds: usize,
    seed: u64,
) -> SteadyState {
    steady_state_encrypted_with(
        pre,
        &ClientConfig::distances(),
        cand_size,
        k,
        threads,
        rounds,
        seed,
    )
}

/// [`steady_state_encrypted`] with an explicit client configuration — the
/// refine bench uses this to pit lazy (decrypt-on-demand) against eager
/// refinement over identical server state.
#[allow(clippy::too_many_arguments)]
pub fn steady_state_encrypted_with(
    pre: &PreBuilt,
    config: &ClientConfig,
    cand_size: usize,
    k: usize,
    threads: usize,
    rounds: usize,
    seed: u64,
) -> SteadyState {
    // One untimed pass over the workload first: a freshly built server pays
    // first-touch costs (page faults, lazy allocations, cold caches) on its
    // first queries, and a *steady-state* measurement should not charge
    // them to round one.
    knn_rounds(
        &mut pre.client(config.clone()).with_rng_seed(seed),
        &pre.workload,
        1,
        k,
        cand_size,
    );
    let start = Instant::now();
    let per_thread: u64 = (rounds * pre.workload.len()) as u64;
    let totals: Vec<CostReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let mut client = pre.client(config.clone()).with_rng_seed(seed ^ t as u64);
                scope.spawn(move || knn_rounds(&mut client, &pre.workload, rounds, k, cand_size))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("query thread"))
            .collect()
    });
    let mut out = SteadyState {
        threads,
        queries: per_thread * threads as u64,
        elapsed: start.elapsed(),
        ..SteadyState::default()
    };
    for costs in &totals {
        out.absorb(costs);
    }
    out
}

/// Single-threaded steady state over a **real TCP loopback socket**: the
/// server (single or sharded — the wire is the same) is exposed with its
/// concurrent TCP front end and one TCP client drives the workload, so
/// every phase-1 answer and phase-2 fetch is a real socket round trip.
pub fn steady_state_encrypted_tcp(
    pre: &PreBuilt,
    config: &ClientConfig,
    cand_size: usize,
    k: usize,
    rounds: usize,
) -> SteadyState {
    let handle = pre.server.serve_tcp().expect("tcp server");
    let mut client = connect_tcp(
        pre.key.clone(),
        pre.dataset.metric.clone(),
        handle.addr(),
        config.clone(),
    )
    .expect("tcp client");
    let start = Instant::now();
    let costs = knn_rounds(&mut client, &pre.workload, rounds, k, cand_size);
    let elapsed = start.elapsed();
    let mut out = SteadyState {
        threads: 1,
        queries: (rounds * pre.workload.len()) as u64,
        elapsed,
        ..SteadyState::default()
    };
    out.absorb(&costs);
    drop(client);
    handle.shutdown();
    out
}

fn batch_rounds<T: Transport>(
    client: &mut EncryptedClient<DatasetMetric, T>,
    workload: &QueryWorkload,
    rounds: usize,
    k: usize,
    cand_size: usize,
    batch: usize,
) -> CostReport {
    for _ in 0..rounds {
        for chunk in workload.queries.chunks(batch.max(1)) {
            let (res, _) = client
                .knn_approx_batch(chunk, k, cand_size)
                .expect("batch search");
            for per_query in res {
                std::hint::black_box(per_query.expect("batch query"));
            }
        }
    }
    client.total_costs()
}

/// Single-threaded batch-API variant: the whole workload travels in
/// `ceil(len/batch)` round trips per round instead of one per query.
pub fn steady_state_batch(
    pre: &PreBuilt,
    cand_size: usize,
    k: usize,
    batch: usize,
    rounds: usize,
    seed: u64,
) -> SteadyState {
    // Clients are built *outside* the timed region — the run measures the
    // steady-state batch loop, not key cloning or transport setup.
    let mut client = pre
        .client(ClientConfig::distances())
        .with_rng_seed(seed ^ 0xba7c);
    let start = Instant::now();
    let costs = batch_rounds(&mut client, &pre.workload, rounds, k, cand_size, batch);
    let elapsed = start.elapsed();
    let mut out = SteadyState {
        threads: 1,
        queries: (rounds * pre.workload.len()) as u64,
        elapsed,
        ..SteadyState::default()
    };
    out.absorb(&costs);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Which;

    #[test]
    fn steady_state_smoke() {
        let pre = prebuild(Which::Yeast.dataset(300, 11), 4, 5);
        let single = steady_state_encrypted(&pre, 50, 10, 1, 1, 7);
        assert_eq!(single.queries, 4);
        assert!(single.queries_per_second() > 0.0);
        let multi = steady_state_encrypted(&pre, 50, 10, 2, 1, 7);
        assert_eq!(multi.queries, 8);
        let batch = steady_state_batch(&pre, 50, 10, 4, 1, 7);
        assert_eq!(batch.queries, 4);
    }

    #[test]
    fn steady_state_sharded_smoke() {
        let pre = prebuild_with(
            Which::Yeast.dataset(300, 11),
            4,
            5,
            ServerConfig::default(),
            4,
            RouterKind::Hash,
        );
        assert_eq!(pre.server.shards, 4);
        let run = steady_state_encrypted(&pre, 50, 10, 2, 1, 7);
        assert_eq!(run.queries, 8);
        assert!(run.candidates > 0);
        let batch = steady_state_batch(&pre, 50, 10, 4, 1, 7);
        assert_eq!(batch.queries, 4);
    }
}
