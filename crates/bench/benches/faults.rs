//! Query throughput and error rate under injected network faults — the
//! bench behind `BENCH_faults.json`.
//!
//! One budgeted encrypted server on a real TCP loopback socket (budget 0:
//! every query is a genuine two-phase ApproxKnn → FetchObjects
//! conversation), four client-side fault profiles through the transport's
//! [`FaultScript`] harness:
//!
//! 1. **baseline** — quiet wire; the reference q/s.
//! 2. **delay** — every 10th response read stalls 30 ms, under the read
//!    timeout: pure added latency, zero retries (asserted).
//! 3. **drop** — every 15th socket op in each direction vanishes: the read
//!    timeout fires, the retry resends, every query still answers
//!    (asserted — the error-rate column must be 0 with retries enabled).
//! 4. **cut** — every 40th response read kills the connection: the client
//!    reconnects and replays; again zero failed queries.
//!
//! Reported per profile: queries/s, error rate, and the transport's retry
//! and reconnect counters — the cost of the fault tolerance, measured.
//!
//! ```text
//! cargo bench -p simcloud-bench --bench faults            # full scale
//! cargo bench -p simcloud-bench --bench faults -- --quick # CI scale
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simcloud_core::{
    client_for, ClientConfig, CloudServer, EncryptedClient, SecretKey, ServerConfig,
};
use simcloud_metric::{ObjectId, PivotSelection, Vector, L2};
use simcloud_mindex::{MIndexConfig, RoutingStrategy};
use simcloud_storage::MemoryStore;
use simcloud_transport::{
    serve_tcp_shared_with, Direction, FaultAction, FaultRule, FaultScript, RetryPolicy,
    ServeOptions, TcpClientConfig, TcpTransport, Transport,
};

struct Config {
    n: usize,
    dim: usize,
    queries: usize,
    k: usize,
    cand_size: usize,
}

fn client_config() -> TcpClientConfig {
    TcpClientConfig {
        read_timeout: Some(Duration::from_millis(100)),
        request_deadline: Some(Duration::from_secs(5)),
        retry: RetryPolicy {
            max_attempts: 6,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(20),
            jitter_seed: 0xfau64,
        },
        ..TcpClientConfig::default()
    }
}

fn profiles() -> Vec<(&'static str, Vec<FaultRule>)> {
    vec![
        ("baseline", vec![]),
        (
            "delay",
            vec![FaultRule::every(
                Direction::Recv,
                10,
                FaultAction::Delay(Duration::from_millis(30)),
            )],
        ),
        (
            "drop",
            vec![
                FaultRule::every(Direction::Send, 15, FaultAction::Drop),
                FaultRule::every(Direction::Recv, 15, FaultAction::Drop),
            ],
        ),
        (
            "cut",
            vec![FaultRule::every(Direction::Recv, 40, FaultAction::Cut)],
        ),
    ]
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cfg = if quick {
        Config {
            n: 200,
            dim: 4,
            queries: 40,
            k: 5,
            cand_size: 20,
        }
    } else {
        Config {
            n: 2_000,
            dim: 6,
            queries: 400,
            k: 10,
            cand_size: 50,
        }
    };
    println!(
        "faults bench: {} objects dim {}, {} queries x {}-NN/{} candidates ({})",
        cfg.n,
        cfg.dim,
        cfg.queries,
        cfg.k,
        cfg.cand_size,
        if quick { "quick" } else { "full" },
    );

    // One loaded budget-0 server shared by every profile (queries are
    // read-only), serving with production-shaped options.
    let mut rng = StdRng::seed_from_u64(42);
    let vectors: Vec<Vector> = (0..cfg.n)
        .map(|_| Vector::new((0..cfg.dim).map(|_| rng.gen_range(-8.0f32..8.0)).collect()))
        .collect();
    let (key, _) = SecretKey::generate(&vectors, 8, &L2, PivotSelection::Random, 7);
    let server = Arc::new(
        CloudServer::with_config(
            MIndexConfig {
                num_pivots: 8,
                max_level: 3,
                bucket_capacity: 64,
                strategy: RoutingStrategy::Distances,
            },
            ServerConfig::budgeted(0),
            MemoryStore::new(),
        )
        .expect("server"),
    );
    let mut owner = client_for(
        key.clone(),
        L2,
        Arc::clone(&server),
        ClientConfig::distances(),
    )
    .with_rng_seed(1);
    let objects: Vec<(ObjectId, Vector)> = vectors
        .iter()
        .enumerate()
        .map(|(i, v)| (ObjectId(i as u64), v.clone()))
        .collect();
    owner.insert_bulk(&objects).expect("load");
    drop(owner);
    let handle = serve_tcp_shared_with(
        Arc::clone(&server),
        ServeOptions {
            read_timeout: Some(Duration::from_millis(500)),
            drain_timeout: Duration::from_secs(2),
            ..ServeOptions::default()
        },
    )
    .expect("serve");

    let mut json = String::from("{\n");
    let mut baseline_qps = 0.0f64;
    for (name, rules) in profiles() {
        let script = FaultScript::new(rules);
        let transport =
            TcpTransport::connect_faulty(handle.addr(), client_config(), Arc::clone(&script))
                .expect("connect");
        let mut client =
            EncryptedClient::new(key.clone(), L2, transport, ClientConfig::distances());

        let mut ok = 0usize;
        let mut errors = 0usize;
        let start = Instant::now();
        for i in 0..cfg.queries {
            let q = &vectors[(i * 31) % vectors.len()];
            match client.knn_approx(q, cfg.k, cfg.cand_size) {
                Ok(_) => ok += 1,
                Err(_) => errors += 1,
            }
        }
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        let qps = ok as f64 / secs;
        let error_rate = errors as f64 / cfg.queries as f64;
        let stats = client.transport().stats();
        println!(
            "  {name:<9} {qps:>8.0} q/s  error-rate {error_rate:.3}  \
             ({} retries, {} reconnects, {} injected faults)",
            stats.retries,
            stats.reconnects,
            script.injected()
        );
        json.push_str(&format!(
            "  \"{name}\": {{ \"qps\": {qps:.0}, \"error_rate\": {error_rate:.4}, \
             \"retries\": {}, \"reconnects\": {}, \"injected\": {} }},\n",
            stats.retries,
            stats.reconnects,
            script.injected()
        ));
        match name {
            "baseline" => {
                baseline_qps = qps;
                assert_eq!(errors, 0, "baseline must be error-free");
                assert_eq!(stats.retries, 0, "baseline must not retry");
            }
            "delay" => {
                assert_eq!(errors, 0, "sub-timeout delays must not fail queries");
                assert_eq!(stats.retries, 0, "sub-timeout delays must not retry");
            }
            _ => {
                assert_eq!(
                    errors, 0,
                    "{name}: with retries enabled every query must answer"
                );
                assert!(stats.retries > 0, "{name}: the profile must have bitten");
            }
        }
        drop(client);
    }
    json.push_str(&format!("  \"baseline_qps\": {baseline_qps:.0},\n"));
    json.push_str("  \"scale\": \"");
    json.push_str(if quick { "quick" } else { "full" });
    json.push_str("\"\n}");
    println!("\nJSON summary:\n{json}");
    handle.shutdown();
}
