//! Workload specifications and the deployments they run against.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use simcloud_core::{ClientConfig, CloudServer, CostReport, EncryptedClient, SecretKey};
use simcloud_datasets::DatasetMetric;
use simcloud_metric::{ObjectId, PivotSelection, Vector};
use simcloud_mindex::{MIndexConfig, SearchStats};
use simcloud_shard::{HashRouter, ShardedCloudServer};
use simcloud_storage::{BucketStore, DiskStore, DiskStoreOptions, IoStats, MemoryStore};
use simcloud_transport::tcp::TcpServerHandle;
use simcloud_transport::{
    serve_tcp_shared, InProcessTransport, NetworkModel, Shared, SharedRequestHandler, TcpTransport,
    Transport,
};

use crate::data::{Data, DataKind};
use crate::layers::{
    DynStore, DynTransport, LayerProbe, TracedServer, TracedStore, TracedTransport, TransportProbe,
};

/// The client every workload drives.
pub type Client = EncryptedClient<DatasetMetric, DynTransport>;

/// Objects per set-up bulk insert (the paper's construction bulk).
const SETUP_BULK: usize = 1000;

/// Where a deployment keeps its buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreKind {
    Memory,
    /// A paged `DiskStore` with the write-ahead log on and a buffer pool of
    /// `pool_pages` 4 KiB pages, flushed once and reopened at set-up.
    Disk {
        pool_pages: usize,
    },
}

/// One workload: its data, deployment and traffic.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub data: DataKind,
    /// Objects bulk-loaded at set-up.
    pub preload: usize,
    pub store: StoreKind,
    /// 1 = a single `CloudServer`; more = a `ShardedCloudServer` with a
    /// hash router over that many memory stores.
    pub shards: usize,
    /// Serve over TCP loopback instead of in-process.
    pub tcp: bool,
    /// Every `range_every`-th reader operation is a precise range query
    /// (0 = none).
    pub range_every: usize,
    /// Bulks the open-loop writer inserts beside the reader in each round
    /// (0 = no writer). A writer workload measures rounds, each on a fresh
    /// deployment, so the collection the reader sees never outgrows
    /// `preload` + `writer_bulks` bulks, however long the run.
    pub writer_bulks: usize,
    /// Queries of the untimed answer-check pass: the first of the reader's
    /// queries, which are every preloaded object in a seeded order.
    pub check_queries: usize,
    /// Set-ups per untraced run; `setup_s` is their median. A writer
    /// workload sets up once per round instead.
    pub setups: usize,
}

/// Workload names, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["yeast-mem", "cophir-disk", "mixed-shard-tcp"];

impl Spec {
    /// The named workload at full scale, or at a tiny scale for tests.
    pub fn named(name: &str, tiny: bool) -> Option<Spec> {
        let pick = |full: usize, small: usize| if tiny { small } else { full };
        let spec = match name {
            "yeast-mem" => Spec {
                name: "yeast-mem",
                data: DataKind::Yeast,
                preload: pick(2882, 600),
                store: StoreKind::Memory,
                shards: 1,
                tcp: false,
                range_every: 10,
                writer_bulks: 0,
                check_queries: pick(500, 20),
                setups: pick(50, 2),
            },
            "cophir-disk" => Spec {
                name: "cophir-disk",
                data: DataKind::Cophir,
                preload: pick(20_000, 1500),
                store: StoreKind::Disk {
                    pool_pages: pick(512, 32),
                },
                shards: 1,
                tcp: false,
                range_every: 0,
                writer_bulks: 0,
                check_queries: pick(120, 10),
                setups: pick(3, 2),
            },
            "mixed-shard-tcp" => Spec {
                name: "mixed-shard-tcp",
                data: DataKind::Yeast,
                preload: pick(2882, 600),
                store: StoreKind::Memory,
                shards: 4,
                tcp: true,
                range_every: 0,
                writer_bulks: pick(25, 5),
                check_queries: pick(200, 20),
                setups: 0,
            },
            _ => return None,
        };
        Some(spec)
    }

    fn index_config(&self) -> MIndexConfig {
        match self.data {
            DataKind::Yeast => MIndexConfig::yeast(),
            DataKind::Cophir => MIndexConfig::cophir(),
        }
    }
}

/// The server front end of a deployment.
#[derive(Clone)]
pub enum Server {
    Single(Arc<CloudServer<DynStore>>),
    Sharded(Arc<ShardedCloudServer<DynStore>>),
}

impl Server {
    fn handler(&self) -> Arc<dyn SharedRequestHandler> {
        match self {
            Server::Single(s) => s.clone(),
            Server::Sharded(s) => s.clone(),
        }
    }

    /// Search work counted by the index since the server started.
    pub fn search_stats(&self) -> SearchStats {
        match self {
            Server::Single(s) => s.total_search_stats(),
            Server::Sharded(s) => s.total_search_stats(),
        }
    }

    /// I/O counters summed over the deployment's stores.
    pub fn io_stats(&self) -> IoStats {
        match self {
            Server::Single(s) => s.index().store().stats(),
            Server::Sharded(s) => s.index().io_stats(),
        }
    }

    /// Entries stored.
    pub fn len(&self) -> u64 {
        match self {
            Server::Single(s) => s.index().len(),
            Server::Sharded(s) => s.index().len(),
        }
    }

    fn flush(&self) -> Result<(), String> {
        match self {
            Server::Single(s) => s.flush(),
            Server::Sharded(s) => s.flush(),
        }
        .map_err(|e| format!("flush: {e}"))
    }
}

/// A set-up deployment, ready for clients.
pub struct Deployment {
    pub server: Server,
    /// What clients talk to: the server itself, or [`TracedServer`] around it.
    handler: Arc<dyn SharedRequestHandler>,
    /// Present only in a traced deployment.
    pub probe: Option<Arc<LayerProbe>>,
    key: SecretKey,
    metric: DatasetMetric,
    tcp: Option<TcpServerHandle>,
    /// Wall time of the set-up.
    pub setup_s: f64,
    /// Costs of the set-up's bulk load.
    pub load_costs: CostReport,
    /// Store counters from before a reopen (the bulk load's writes).
    pub load_io: IoStats,
    /// Wall time of the set-up's `flush()`.
    pub flush_s: f64,
    /// Page file of a disk deployment (its sidecars share the prefix).
    pub disk_path: Option<PathBuf>,
}

impl Deployment {
    /// Keys the data owner, bulk-loads `objects`, flushes, and — for a disk
    /// store — reopens the store through `CloudServer::rebuilt`, then
    /// starts the TCP listener if the workload has one. The whole of it is
    /// the timed set-up.
    pub fn set_up(
        spec: &Spec,
        data: &Data,
        objects: &[(ObjectId, Vector)],
        seed: u64,
        traced: bool,
        disk_path: Option<PathBuf>,
    ) -> Result<Deployment, String> {
        let start = Instant::now();
        let cfg = spec.index_config();
        let metric = &data.metric;
        let (key, _) = SecretKey::generate(
            &data.vectors[..data.preload],
            cfg.num_pivots,
            metric,
            PivotSelection::Random,
            seed,
        );
        let probe = traced.then(|| LayerProbe::new(spec.shards));
        let wrap = |store: Box<dyn BucketStore>, slot: usize| match &probe {
            Some(p) => DynStore(Box::new(TracedStore::new(store, p.clone(), slot))),
            None => DynStore(store),
        };
        let disk_opts = |pool_pages| DiskStoreOptions {
            pool_pages,
            wal: true,
        };
        let server = match (spec.store, &disk_path) {
            (StoreKind::Disk { pool_pages }, Some(path)) => {
                let disk = DiskStore::create_opts(path, disk_opts(pool_pages))
                    .map_err(|e| format!("create store: {e}"))?;
                Server::Single(Arc::new(
                    CloudServer::new(cfg, wrap(Box::new(disk), 0)).map_err(|e| e.to_string())?,
                ))
            }
            (StoreKind::Disk { .. }, None) => return Err("a disk store needs a path".into()),
            (StoreKind::Memory, _) if spec.shards == 1 => Server::Single(Arc::new(
                CloudServer::new(cfg, wrap(Box::new(MemoryStore::new()), 0))
                    .map_err(|e| e.to_string())?,
            )),
            (StoreKind::Memory, _) => {
                let stores = (0..spec.shards)
                    .map(|i| wrap(Box::new(MemoryStore::new()), i))
                    .collect();
                Server::Sharded(Arc::new(
                    ShardedCloudServer::new(cfg, Box::new(HashRouter), stores)
                        .map_err(|e| e.to_string())?,
                ))
            }
        };
        let handler_for = |server: &Server| -> Arc<dyn SharedRequestHandler> {
            match &probe {
                Some(p) => Arc::new(TracedServer::new(server.handler(), p.clone())),
                None => server.handler(),
            }
        };
        let mut handler = handler_for(&server);

        let mut owner = EncryptedClient::new(
            key.clone(),
            metric.clone(),
            in_process(&handler),
            ClientConfig::distances(),
        )
        .with_rng_seed(seed ^ 1);
        let mut load_costs = CostReport::default();
        for chunk in objects.chunks(SETUP_BULK) {
            let costs = owner
                .insert_bulk(chunk)
                .map_err(|e| format!("bulk load: {e}"))?;
            load_costs.merge(&costs);
        }
        drop(owner);
        let flush_start = Instant::now();
        server.flush()?;
        let mut flush_s = flush_start.elapsed().as_secs_f64();
        let load_io = server.io_stats();

        let server = match (spec.store, &disk_path) {
            (StoreKind::Disk { pool_pages }, Some(path)) => {
                // Close every handle on the store before reopening it.
                drop(handler);
                drop(server);
                let disk = DiskStore::open_opts(path, disk_opts(pool_pages))
                    .map_err(|e| format!("reopen store: {e}"))?;
                let server = Server::Single(Arc::new(
                    CloudServer::rebuilt(cfg, wrap(Box::new(disk), 0))
                        .map_err(|e| e.to_string())?,
                ));
                handler = handler_for(&server);
                // The rebuild rewrites every bucket, and dirty pages stay
                // pinned in the pool until a flush: commit it so the pages
                // sit on disk behind the pool, as after any restart.
                let flush_start = Instant::now();
                server.flush()?;
                flush_s += flush_start.elapsed().as_secs_f64();
                server
            }
            _ => server,
        };
        let tcp = if spec.tcp {
            Some(serve_tcp_shared(Arc::new(handler.clone())).map_err(|e| format!("serve: {e}"))?)
        } else {
            None
        };
        Ok(Deployment {
            server,
            handler,
            probe,
            key,
            metric: metric.clone(),
            tcp,
            setup_s: start.elapsed().as_secs_f64(),
            load_costs,
            load_io,
            flush_s,
            disk_path,
        })
    }

    /// A new client of this deployment (its own TCP connection when served
    /// over TCP), with a transport probe when the deployment is traced.
    pub fn client(&self, seed: u64) -> Result<(Client, Option<Arc<TransportProbe>>), String> {
        let base: Box<dyn Transport + Send> = match &self.tcp {
            Some(h) => {
                Box::new(TcpTransport::connect(h.addr()).map_err(|e| format!("connect: {e}"))?)
            }
            None => Box::new(in_process(&self.handler)),
        };
        let (transport, probe) = match self.probe {
            Some(_) => {
                let p = Arc::new(TransportProbe::default());
                let t: Box<dyn Transport + Send> = Box::new(TracedTransport::new(base, p.clone()));
                (t, Some(p))
            }
            None => (base, None),
        };
        let client = EncryptedClient::new(
            self.key.clone(),
            self.metric.clone(),
            DynTransport(transport),
            ClientConfig::distances(),
        )
        .with_rng_seed(seed);
        Ok((client, probe))
    }

    /// Bytes of the store's files (pages, WAL and meta).
    pub fn stored_bytes(&self) -> u64 {
        self.disk_path.as_deref().map_or(0, |path| {
            store_files(path)
                .filter_map(|p| std::fs::metadata(p).ok())
                .map(|m| m.len())
                .sum()
        })
    }

    /// Stops the TCP listener (after every client is gone) and deletes
    /// the store's files.
    pub fn tear_down(self) {
        if let Some(h) = self.tcp {
            h.shutdown();
        }
        drop(self.handler);
        drop(self.server);
        for p in self.disk_path.iter().flat_map(|path| store_files(path)) {
            let _ = std::fs::remove_file(p);
        }
    }
}

fn in_process(handler: &Arc<dyn SharedRequestHandler>) -> DynTransport {
    DynTransport(Box::new(InProcessTransport::with_model(
        Shared(handler.clone()),
        NetworkModel::loopback(),
    )))
}

/// A disk store's page file and its sidecars.
fn store_files(path: &Path) -> impl Iterator<Item = PathBuf> + '_ {
    ["", ".wal", ".meta", ".meta.tmp"]
        .into_iter()
        .map(move |suffix| {
            let mut p = path.as_os_str().to_os_string();
            p.push(suffix);
            PathBuf::from(p)
        })
}
