//! Steady-state encrypted kNN throughput against a pre-built index —
//! single-thread vs concurrent serving vs the batch API.
//!
//! Custom harness (no per-sample statistics): each configuration runs a
//! fixed query volume and reports aggregate queries/second plus the
//! multi-thread speedup over single-thread. The JSON block at the end is
//! the format committed to `BENCH_steady.json`.
//!
//! ```text
//! cargo bench -p simcloud-bench --bench steady                       # full scale
//! cargo bench -p simcloud-bench --bench steady -- --quick            # CI scale
//! cargo bench -p simcloud-bench --bench steady -- --shards 4         # sharded server
//! ```
//!
//! Interpreting the speedup: the query path is CPU-bound, so the 4-thread
//! number scales with the *cores actually available* — on a single-vCPU
//! container it stays ~1x by physics, on a 4-core runner the shared-read
//! server reaches ~Nx because queries never serialize on the index.
//! `--shards N` (default 1) swaps in a hash-routed `ShardedCloudServer`
//! behind the same wire; dedicated sharded-vs-single comparisons live in
//! `--bench shard`.

use simcloud_bench::{
    prebuild_with, shards_arg, shards_suffix, steady_state_batch, steady_state_encrypted,
    RouterKind, SteadyState, Which,
};
use simcloud_core::ServerConfig;

struct Config {
    n: usize,
    queries: usize,
    rounds: usize,
    cands: &'static [usize],
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let shards = shards_arg();
    // `cargo bench` passes --bench; ignore everything else.
    let cfg = if quick {
        Config {
            n: 600,
            queries: 10,
            rounds: 2,
            cands: &[150],
        }
    } else {
        Config {
            n: 1500,
            queries: 30,
            rounds: 4,
            cands: &[150, 600],
        }
    };
    let k = 30;
    let threads_sweep = [1usize, 2, 4];

    println!(
        "steady-state encrypted {k}-NN, YEAST n={}, {} queries x {} rounds, {} cores online, {} shard(s)",
        cfg.n,
        cfg.queries,
        cfg.rounds,
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        shards
    );
    let ds = Which::Yeast.dataset(cfg.n, 11);
    let pre = prebuild_with(
        ds,
        cfg.queries,
        3,
        ServerConfig::default(),
        shards,
        RouterKind::Hash,
    );

    let mut json = String::from("{\n");
    // Sharded runs get distinct JSON keys; the default keys stay stable.
    let suffix = shards_suffix(shards);
    for &cand in cfg.cands {
        let mut single_qps = 0.0;
        for &threads in &threads_sweep {
            let r: SteadyState = steady_state_encrypted(&pre, cand, k, threads, cfg.rounds, 7);
            let qps = r.queries_per_second();
            if threads == 1 {
                single_qps = qps;
            }
            let speedup = qps / single_qps;
            println!(
                "  cand={cand:<4} threads={threads}  {qps:>8.1} queries/s  ({speedup:.2}x vs 1 thread)"
            );
            json.push_str(&format!(
                "  \"steady_yeast_30nn/cand{cand}/threads{threads}{suffix}\": {{ \"queries_per_s\": {qps:.1}, \"speedup_vs_single\": {speedup:.2} }},\n"
            ));
        }
        let b = steady_state_batch(&pre, cand, k, cfg.queries, cfg.rounds, 7);
        let bqps = b.queries_per_second();
        println!(
            "  cand={cand:<4} batch-api  {:>8.1} queries/s  (one round trip per {} queries)",
            bqps, cfg.queries
        );
        json.push_str(&format!(
            "  \"steady_yeast_30nn/cand{cand}/batch{}{suffix}\": {{ \"queries_per_s\": {bqps:.1} }},\n",
            cfg.queries
        ));
    }
    json.push_str("  \"scale\": \"");
    json.push_str(if quick { "quick" } else { "full" });
    json.push_str("\"\n}");
    println!("\nJSON summary:\n{json}");
}
