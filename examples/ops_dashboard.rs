//! Live ops console against a running similarity cloud.
//!
//! The ops surface (wire v2 `Health` / `MetricsSnapshot`) is served from
//! pre-aggregated atomics — never from under the index write lock — so an
//! operator's poll loop keeps answering while bulk inserts and queries
//! hammer the same server. And because both requests are parameterless
//! and the exposition is plaintext, the probe below holds **no key
//! material at all**: the monitoring plane sees operational shape
//! (latencies, counters, phase breakdowns), never content — exactly the
//! trust split the paper's outsourcing model wants.
//!
//! A 2-shard deployment is served over TCP; a data owner inserts and then
//! queries from one thread while this keyless probe polls health and
//! metrics, rendering a compact dashboard tick by tick and the full
//! exposition (histograms, per-phase breakdowns, worst-N slow queries)
//! once the workload completes.
//!
//! ```sh
//! cargo run --release --example ops_dashboard
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use simcloud::core::protocol::{Request, Response};
use simcloud::prelude::*;
use simcloud::transport::{TcpTransport, Transport};

/// Keyless monitoring connection: short deadlines, no retries — an ops
/// probe should report "down" fast, not mask an outage by retrying.
fn probe(addr: std::net::SocketAddr) -> TcpTransport {
    TcpTransport::connect_with(
        addr,
        TcpClientConfig {
            read_timeout: Some(Duration::from_secs(2)),
            request_deadline: Some(Duration::from_secs(2)),
            retry: RetryPolicy::none(),
            ..TcpClientConfig::default()
        },
    )
    .expect("probe connect")
}

fn health(t: &mut TcpTransport) -> (u8, u64, u32, u64) {
    let bytes = t.round_trip(&Request::Health.encode()).expect("health");
    match Response::decode(&bytes).expect("decode") {
        Response::Health {
            status,
            entries,
            shards,
            uptime_nanos,
            ..
        } => (status, entries, shards, uptime_nanos),
        other => panic!("expected Health, got {other:?}"),
    }
}

fn metrics(t: &mut TcpTransport) -> String {
    let bytes = t
        .round_trip(&Request::MetricsSnapshot.encode())
        .expect("metrics");
    match Response::decode(&bytes).expect("decode") {
        Response::MetricsSnapshot(text) => text,
        other => panic!("expected MetricsSnapshot, got {other:?}"),
    }
}

/// The exposition line for one metric, e.g. `metric_line(&text,
/// "histogram server.request ")`.
fn metric_line<'a>(text: &'a str, prefix: &str) -> Option<&'a str> {
    text.lines().find(|l| l.starts_with(prefix))
}

/// A `key=value` field out of a histogram/slow-query line.
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(key))
        .unwrap_or("-")
}

fn micros(nanos_field: &str) -> String {
    nanos_field
        .parse::<u64>()
        .map_or_else(|_| "-".into(), |n| format!("{}us", n / 1_000))
}

fn main() {
    let dataset = simcloud::datasets::yeast_like(23, Some(1000));
    let data = dataset.vectors.clone();
    let (key, _) = SecretKey::generate(&data, 30, &L1, PivotSelection::Random, 3);
    let mut cfg = MIndexConfig::yeast();
    cfg.num_pivots = 30;

    let server = Arc::new(
        ShardedCloudServer::new(cfg, Box::new(HashRouter), memory_stores(2)).expect("valid config"),
    );
    let handle = serve_tcp_shared(Arc::clone(&server)).expect("tcp server");
    let addr = handle.addr();
    println!("similarity cloud (2 shards) listening on {addr}\n");

    // The workload: one data owner inserting in bulk, then querying —
    // on purpose concurrent with the poll loop below.
    let done = Arc::new(AtomicBool::new(false));
    let owner_done = Arc::clone(&done);
    let owner_data = data.clone();
    let owner = std::thread::spawn(move || {
        let mut client = connect_tcp(key, L1, addr, ClientConfig::distances())
            .expect("owner connect")
            .with_rng_seed(4);
        let objects: Vec<(ObjectId, Vector)> = owner_data
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, v)| (ObjectId(i as u64), v))
            .collect();
        for chunk in objects.chunks(100) {
            client.insert_bulk(chunk).expect("insert");
            std::thread::sleep(Duration::from_millis(30));
        }
        for qi in 0..30 {
            client
                .knn_approx(&owner_data[qi * 31 % owner_data.len()], 30, 600)
                .expect("knn");
        }
        owner_done.store(true, Ordering::Release);
    });

    // The ops console: a keyless poll loop. Each tick is two round
    // trips (Health + MetricsSnapshot), answered without touching the
    // index lock the inserts above are busy holding.
    let mut ops = probe(addr);
    println!(
        "{:>5}  {:>8}  {:>7}  {:>9}  {:>12}  {:>12}",
        "tick", "uptime", "entries", "requests", "knn p95", "insert p95"
    );
    let mut tick = 0u32;
    while !done.load(Ordering::Acquire) && tick < 100 {
        let (status, entries, shards, uptime) = health(&mut ops);
        assert_eq!(status, 0, "server reports unhealthy");
        assert_eq!(shards, 2);
        let text = metrics(&mut ops);
        let requests = metric_line(&text, "counter server.requests ")
            .and_then(|l| l.rsplit(' ').next())
            .unwrap_or("-");
        let knn_p95 = metric_line(&text, "histogram server.request ")
            .map_or_else(|| "-".into(), |l| micros(field(l, "p95=")));
        let ins_p95 = metric_line(&text, "histogram server.phase_insert ")
            .map_or_else(|| "-".into(), |l| micros(field(l, "p95=")));
        println!(
            "{tick:>5}  {:>6}ms  {entries:>7}  {requests:>9}  {knn_p95:>12}  {ins_p95:>12}",
            uptime / 1_000_000
        );
        tick += 1;
        std::thread::sleep(Duration::from_millis(100));
    }
    owner.join().expect("owner thread");

    // Final snapshot: the full exposition an operator (or a scraper)
    // would ingest — counters, gauges, per-phase latency histograms for
    // server/shard layers, and the worst-N slow queries with their
    // phase breakdowns.
    let text = metrics(&mut ops);
    println!("\n— full exposition ({} bytes) —\n{text}", text.len());
    if let Some(worst) = metric_line(&text, "slow_query rank=1 ") {
        println!(
            "slowest request: label={} total={} phases={}",
            field(worst, "label="),
            micros(field(worst, "total_nanos=")),
            field(worst, "phases=")
        );
    }

    drop(ops);
    handle.shutdown();
}
