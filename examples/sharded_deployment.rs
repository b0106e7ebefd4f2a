//! Multi-shard TCP deployment: one `ShardedCloudServer` (4 independent
//! M-Index shards, hash-routed) behind a concurrent TCP accept loop, driven
//! by the **unmodified** TCP client — the wire protocol is byte-compatible
//! with the single-index server.
//!
//! The demo shows the two properties sharding buys:
//!
//! 1. inserts from concurrent connections land on different shards and
//!    only block 1/N of the key space (each shard has its own write lock);
//! 2. searches scatter to all shards and gather into one candidate list —
//!    with answers identical to a single-index deployment over the same
//!    data.
//!
//! ```sh
//! cargo run --release --example sharded_deployment
//! ```

use std::sync::Arc;

use simcloud::prelude::*;

fn main() {
    let dataset = simcloud::datasets::yeast_like(17, Some(1200));
    let data = &dataset.vectors;
    let (key, _) = SecretKey::generate(data, 30, &L1, PivotSelection::Random, 3);
    let mut cfg = MIndexConfig::yeast();
    cfg.num_pivots = 30;

    // The sharded similarity cloud: 4 shards, each its own store + lock.
    let sharded = Arc::new(
        ShardedCloudServer::new(cfg, Box::new(HashRouter), memory_stores(4)).expect("valid config"),
    );
    let handle = serve_tcp_shared(Arc::clone(&sharded)).expect("tcp server");
    println!(
        "sharded similarity cloud listening on {} ({} shards, {} router)",
        handle.addr(),
        sharded.index().shard_count(),
        sharded.index().router_name()
    );

    // A single-index twin over the same data for the identity check.
    let single = Arc::new(CloudServer::new(cfg, MemoryStore::new()).expect("valid config"));
    let single_handle = serve_tcp_shared(Arc::clone(&single)).expect("tcp server");

    // Four owner connections outsource disjoint quarters of the collection
    // concurrently — each insert takes only its target shard's write lock.
    let addr = handle.addr();
    let quarter = data.len() / 4;
    std::thread::scope(|scope| {
        for c in 0..4usize {
            let key = key.clone();
            scope.spawn(move || {
                let mut owner = connect_tcp(key, L1, addr, ClientConfig::distances())
                    .expect("connect")
                    .with_rng_seed(4 + c as u64);
                let objects: Vec<(ObjectId, Vector)> = data[c * quarter..(c + 1) * quarter]
                    .iter()
                    .cloned()
                    .enumerate()
                    .map(|(i, v)| (ObjectId((c * quarter + i) as u64), v))
                    .collect();
                for chunk in objects.chunks(250) {
                    owner.insert_bulk(chunk).expect("insert");
                }
            });
        }
    });
    println!("\n— per-shard occupancy after 4 concurrent insert connections —");
    for i in 0..sharded.index().shard_count() {
        let len = sharded.index().shard(i).map_or(0, |s| s.len());
        println!("  shard {i}: {len} entries");
    }

    // Build the single-index twin (one connection suffices).
    let mut single_owner = connect_tcp(
        key.clone(),
        L1,
        single_handle.addr(),
        ClientConfig::distances(),
    )
    .expect("connect")
    .with_rng_seed(9);
    let objects: Vec<(ObjectId, Vector)> = data[..quarter * 4]
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, v)| (ObjectId(i as u64), v))
        .collect();
    for chunk in objects.chunks(1000) {
        single_owner.insert_bulk(chunk).expect("insert");
    }

    // Scatter-gather search through the unmodified client, checked
    // byte-for-byte against the single-index answer (collection-covering
    // candidate budget = the provably-identical regime).
    println!("\n— 30-NN through the unmodified client, sharded vs single —");
    let mut sharded_client = connect_tcp(key.clone(), L1, addr, ClientConfig::distances())
        .expect("connect")
        .with_rng_seed(11);
    let n = quarter * 4;
    let mut identical = 0;
    for qi in 0..10 {
        let q = &data[qi * 97 % n];
        let (a, costs) = sharded_client.knn_approx(q, 30, n).expect("sharded knn");
        let (b, _) = single_owner.knn_approx(q, 30, n).expect("single knn");
        assert_eq!(a, b, "sharded answer diverged for query {qi}");
        identical += 1;
        if qi == 0 {
            println!(
                "  query 0: {} candidates merged from 4 shards, {} decrypted",
                costs.candidates, costs.decrypted
            );
        }
    }
    println!("  {identical}/10 answers byte-identical to the single index");
    println!(
        "\nserver-side totals: {} (summed across shards)",
        sharded.total_search_stats()
    );

    drop(sharded_client);
    drop(single_owner);
    handle.shutdown();
    single_handle.shutdown();
}
