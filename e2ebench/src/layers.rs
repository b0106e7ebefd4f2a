//! The seams the benchmark drives the program through, and the timing and
//! counting wrappers it puts around them in a traced run.
//!
//! Both run modes use the same type-erased seams ([`DynTransport`],
//! [`DynStore`], `Arc<dyn SharedRequestHandler>`), so the untraced run
//! carries no wrapper at all: a traced run differs only in what sits
//! behind each box — [`TracedTransport`] around the client's transport,
//! [`TracedServer`] around the server front end and [`TracedStore`]
//! around each bucket store.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use simcloud_storage::{BucketId, BucketStore, IoStats, Record, StorageError};
use simcloud_transport::{
    NetworkModel, RequestClass, SharedRequestHandler, Transport, TransportError, TransportStats,
};

/// A client transport behind a box: in-process or TCP, traced or not.
pub struct DynTransport(pub Box<dyn Transport + Send>);

impl Transport for DynTransport {
    fn round_trip(&mut self, request: &[u8]) -> Result<Vec<u8>, TransportError> {
        self.0.round_trip(request)
    }

    fn round_trip_with(
        &mut self,
        request: &[u8],
        class: RequestClass,
        deadline: Option<Duration>,
    ) -> Result<Vec<u8>, TransportError> {
        self.0.round_trip_with(request, class, deadline)
    }

    fn stats(&self) -> TransportStats {
        self.0.stats()
    }
}

/// A bucket store behind a box: memory or disk, traced or not.
pub struct DynStore(pub Box<dyn BucketStore>);

impl BucketStore for DynStore {
    fn append(&mut self, bucket: BucketId, record: Record) -> Result<(), StorageError> {
        self.0.append(bucket, record)
    }

    fn read_bucket(&self, bucket: BucketId) -> Result<Vec<Record>, StorageError> {
        self.0.read_bucket(bucket)
    }

    fn read_matching(
        &self,
        bucket: BucketId,
        wanted: &dyn Fn(u64) -> bool,
    ) -> Result<Vec<Record>, StorageError> {
        self.0.read_matching(bucket, wanted)
    }

    fn bucket_len(&self, bucket: BucketId) -> usize {
        self.0.bucket_len(bucket)
    }

    fn delete_bucket(&mut self, bucket: BucketId) -> Result<(), StorageError> {
        self.0.delete_bucket(bucket)
    }

    fn bucket_ids(&self) -> Vec<BucketId> {
        self.0.bucket_ids()
    }

    fn total_records(&self) -> u64 {
        self.0.total_records()
    }

    fn flush(&mut self) -> Result<(), StorageError> {
        self.0.flush()
    }

    fn stats(&self) -> IoStats {
        self.0.stats()
    }

    fn backend_name(&self) -> &'static str {
        self.0.backend_name()
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Request kinds the server wrapper tells apart by the wire tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `ApproxKnn`.
    Knn = 0,
    /// `Range`.
    Range = 1,
    /// `Insert`.
    Insert = 2,
    /// Everything else (fetch, info, ops requests).
    Other = 3,
}

const KINDS: usize = 4;

impl Kind {
    fn of(request: &[u8]) -> Kind {
        match request.first() {
            Some(0x03) => Kind::Knn,
            Some(0x02) => Kind::Range,
            Some(0x01) => Kind::Insert,
            _ => Kind::Other,
        }
    }
}

thread_local! {
    /// Set while this thread runs an insert request inside
    /// [`TracedServer`]; store calls made meanwhile are insert work.
    /// Queries may fan out to helper threads, where the flag is unset, so
    /// every store call outside an insert counts as query work.
    static IN_INSERT: Cell<bool> = const { Cell::new(false) };
}

/// Store counters of one class of work (query or insert).
#[derive(Debug, Default)]
struct StoreAtomics {
    read_calls: AtomicU64,
    read_ns: AtomicU64,
    records_read: AtomicU64,
    appends: AtomicU64,
    append_ns: AtomicU64,
}

/// Counters shared by the server wrapper and every store wrapper of one
/// deployment.
#[derive(Debug)]
pub struct LayerProbe {
    requests: [AtomicU64; KINDS],
    handle_ns: [AtomicU64; KINDS],
    query: StoreAtomics,
    insert: StoreAtomics,
    /// Query read time per store (shard), for the read skew.
    store_read_ns: Vec<AtomicU64>,
}

/// Store counters of one class of work, as read at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreCounts {
    pub read_calls: u64,
    pub read_ns: u64,
    pub records_read: u64,
    pub appends: u64,
    pub append_ns: u64,
}

impl StoreCounts {
    fn load(a: &StoreAtomics) -> Self {
        Self {
            read_calls: a.read_calls.load(Relaxed),
            read_ns: a.read_ns.load(Relaxed),
            records_read: a.records_read.load(Relaxed),
            appends: a.appends.load(Relaxed),
            append_ns: a.append_ns.load(Relaxed),
        }
    }

    pub fn since(&self, e: &Self) -> Self {
        Self {
            read_calls: self.read_calls - e.read_calls,
            read_ns: self.read_ns - e.read_ns,
            records_read: self.records_read - e.records_read,
            appends: self.appends - e.appends,
            append_ns: self.append_ns - e.append_ns,
        }
    }

    pub fn add(&mut self, o: &Self) {
        self.read_calls += o.read_calls;
        self.read_ns += o.read_ns;
        self.records_read += o.records_read;
        self.appends += o.appends;
        self.append_ns += o.append_ns;
    }
}

/// All [`LayerProbe`] counters at one instant.
#[derive(Debug, Clone, Default)]
pub struct LayerCounts {
    pub requests: [u64; KINDS],
    pub handle_ns: [u64; KINDS],
    pub query: StoreCounts,
    pub insert: StoreCounts,
    pub store_read_ns: Vec<u64>,
}

impl LayerCounts {
    /// Counter growth since `earlier`.
    pub fn since(&self, earlier: &Self) -> Self {
        Self {
            requests: std::array::from_fn(|i| self.requests[i] - earlier.requests[i]),
            handle_ns: std::array::from_fn(|i| self.handle_ns[i] - earlier.handle_ns[i]),
            query: self.query.since(&earlier.query),
            insert: self.insert.since(&earlier.insert),
            store_read_ns: self
                .store_read_ns
                .iter()
                .zip(&earlier.store_read_ns)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }

    /// Adds another window's growth.
    pub fn add(&mut self, o: &Self) {
        for i in 0..KINDS {
            self.requests[i] += o.requests[i];
            self.handle_ns[i] += o.handle_ns[i];
        }
        self.query.add(&o.query);
        self.insert.add(&o.insert);
        if self.store_read_ns.len() < o.store_read_ns.len() {
            self.store_read_ns.resize(o.store_read_ns.len(), 0);
        }
        for (a, b) in self.store_read_ns.iter_mut().zip(&o.store_read_ns) {
            *a += b;
        }
    }

    /// Requests of `kind` handled.
    pub fn requests(&self, kind: Kind) -> u64 {
        self.requests[kind as usize]
    }

    /// Server handle time of `kind` requests, in nanoseconds.
    pub fn handle_ns(&self, kind: Kind) -> u64 {
        self.handle_ns[kind as usize]
    }
}

impl LayerProbe {
    /// A probe for a deployment with `stores` bucket stores.
    pub fn new(stores: usize) -> Arc<Self> {
        Arc::new(Self {
            requests: Default::default(),
            handle_ns: Default::default(),
            query: StoreAtomics::default(),
            insert: StoreAtomics::default(),
            store_read_ns: (0..stores).map(|_| AtomicU64::new(0)).collect(),
        })
    }

    /// Reads every counter.
    pub fn counts(&self) -> LayerCounts {
        LayerCounts {
            requests: std::array::from_fn(|i| self.requests[i].load(Relaxed)),
            handle_ns: std::array::from_fn(|i| self.handle_ns[i].load(Relaxed)),
            query: StoreCounts::load(&self.query),
            insert: StoreCounts::load(&self.insert),
            store_read_ns: self.store_read_ns.iter().map(|a| a.load(Relaxed)).collect(),
        }
    }

    /// Server handle time of `kind` requests so far, in nanoseconds.
    pub fn handle_ns(&self, kind: Kind) -> u64 {
        self.handle_ns[kind as usize].load(Relaxed)
    }

    /// Store counters of query work so far.
    pub fn query_store(&self) -> StoreCounts {
        StoreCounts::load(&self.query)
    }

    fn store_class(&self) -> &StoreAtomics {
        if IN_INSERT.get() {
            &self.insert
        } else {
            &self.query
        }
    }
}

/// Times every request the server front end handles, by request kind.
pub struct TracedServer {
    inner: Arc<dyn SharedRequestHandler>,
    probe: Arc<LayerProbe>,
}

impl TracedServer {
    /// Wraps `inner`, counting into `probe`.
    pub fn new(inner: Arc<dyn SharedRequestHandler>, probe: Arc<LayerProbe>) -> Self {
        Self { inner, probe }
    }
}

impl SharedRequestHandler for TracedServer {
    fn handle_shared(&self, request: &[u8]) -> Vec<u8> {
        let kind = Kind::of(request);
        let was = IN_INSERT.replace(kind == Kind::Insert);
        let start = Instant::now();
        let response = self.inner.handle_shared(request);
        let spent = nanos(start.elapsed());
        IN_INSERT.set(was);
        self.probe.requests[kind as usize].fetch_add(1, Relaxed);
        self.probe.handle_ns[kind as usize].fetch_add(spent, Relaxed);
        response
    }
}

/// Times and counts the reads and appends of one bucket store.
pub struct TracedStore {
    inner: Box<dyn BucketStore>,
    probe: Arc<LayerProbe>,
    /// This store's slot in [`LayerProbe::store_read_ns`].
    slot: usize,
}

impl TracedStore {
    /// Wraps `inner` as store number `slot` of the probe's deployment.
    pub fn new(inner: Box<dyn BucketStore>, probe: Arc<LayerProbe>, slot: usize) -> Self {
        Self { inner, probe, slot }
    }

    fn count_read(&self, start: Instant, records: usize) {
        let spent = nanos(start.elapsed());
        let class = self.probe.store_class();
        class.read_calls.fetch_add(1, Relaxed);
        class.read_ns.fetch_add(spent, Relaxed);
        class.records_read.fetch_add(records as u64, Relaxed);
        if !IN_INSERT.get() {
            self.probe.store_read_ns[self.slot].fetch_add(spent, Relaxed);
        }
    }
}

impl BucketStore for TracedStore {
    fn append(&mut self, bucket: BucketId, record: Record) -> Result<(), StorageError> {
        let start = Instant::now();
        let out = self.inner.append(bucket, record);
        let class = self.probe.store_class();
        class.appends.fetch_add(1, Relaxed);
        class.append_ns.fetch_add(nanos(start.elapsed()), Relaxed);
        out
    }

    fn read_bucket(&self, bucket: BucketId) -> Result<Vec<Record>, StorageError> {
        let start = Instant::now();
        let out = self.inner.read_bucket(bucket);
        self.count_read(start, out.as_ref().map_or(0, Vec::len));
        out
    }

    fn read_matching(
        &self,
        bucket: BucketId,
        wanted: &dyn Fn(u64) -> bool,
    ) -> Result<Vec<Record>, StorageError> {
        let start = Instant::now();
        let out = self.inner.read_matching(bucket, wanted);
        self.count_read(start, out.as_ref().map_or(0, Vec::len));
        out
    }

    fn bucket_len(&self, bucket: BucketId) -> usize {
        self.inner.bucket_len(bucket)
    }

    fn delete_bucket(&mut self, bucket: BucketId) -> Result<(), StorageError> {
        self.inner.delete_bucket(bucket)
    }

    fn bucket_ids(&self) -> Vec<BucketId> {
        self.inner.bucket_ids()
    }

    fn total_records(&self) -> u64 {
        self.inner.total_records()
    }

    fn flush(&mut self) -> Result<(), StorageError> {
        self.inner.flush()
    }

    fn stats(&self) -> IoStats {
        self.inner.stats()
    }

    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }
}

/// Client-side transport counters.
#[derive(Debug, Default)]
pub struct TransportProbe {
    round_trips: AtomicU64,
    rtt_ns: AtomicU64,
    bytes: AtomicU64,
    modelled_ns: AtomicU64,
}

/// [`TransportProbe`] counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct TransportCounts {
    pub round_trips: u64,
    pub rtt_ns: u64,
    pub bytes: u64,
    /// The paper's loopback cost model applied to the same frames — a
    /// modelled time, never added to a measured one.
    pub modelled_ns: u64,
}

impl TransportCounts {
    /// Counter growth since `earlier`.
    pub fn since(&self, earlier: &Self) -> Self {
        Self {
            round_trips: self.round_trips - earlier.round_trips,
            rtt_ns: self.rtt_ns - earlier.rtt_ns,
            bytes: self.bytes - earlier.bytes,
            modelled_ns: self.modelled_ns - earlier.modelled_ns,
        }
    }
}

impl TransportProbe {
    /// Reads every counter.
    pub fn counts(&self) -> TransportCounts {
        TransportCounts {
            round_trips: self.round_trips.load(Relaxed),
            rtt_ns: self.rtt_ns.load(Relaxed),
            bytes: self.bytes.load(Relaxed),
            modelled_ns: self.modelled_ns.load(Relaxed),
        }
    }
}

/// Times every round trip of one client's transport.
pub struct TracedTransport {
    inner: Box<dyn Transport + Send>,
    probe: Arc<TransportProbe>,
    model: NetworkModel,
}

impl TracedTransport {
    /// Wraps `inner`, counting into `probe`.
    pub fn new(inner: Box<dyn Transport + Send>, probe: Arc<TransportProbe>) -> Self {
        Self {
            inner,
            probe,
            model: NetworkModel::loopback(),
        }
    }

    fn count(&self, start: Instant, request: &[u8], out: &Result<Vec<u8>, TransportError>) {
        let spent = nanos(start.elapsed());
        let p = &self.probe;
        p.round_trips.fetch_add(1, Relaxed);
        p.rtt_ns.fetch_add(spent, Relaxed);
        if let Ok(response) = out {
            // Frame headers included, as the transports count them.
            let (sent, received) = (request.len() as u64 + 4, response.len() as u64 + 4);
            p.bytes.fetch_add(sent + received, Relaxed);
            let modelled = self.model.transfer_time(sent) + self.model.transfer_time(received);
            p.modelled_ns.fetch_add(nanos(modelled), Relaxed);
        }
    }
}

impl Transport for TracedTransport {
    fn round_trip(&mut self, request: &[u8]) -> Result<Vec<u8>, TransportError> {
        let start = Instant::now();
        let out = self.inner.round_trip(request);
        self.count(start, request, &out);
        out
    }

    fn round_trip_with(
        &mut self,
        request: &[u8],
        class: RequestClass,
        deadline: Option<Duration>,
    ) -> Result<Vec<u8>, TransportError> {
        let start = Instant::now();
        let out = self.inner.round_trip_with(request, class, deadline);
        self.count(start, request, &out);
        out
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}
