//! Wire cost of the two-phase candidate fetch — the bench behind
//! `BENCH_wire.json`.
//!
//! Same steady-state YEAST 30-NN workload as `--bench refine` (index built
//! once outside the timed region, member queries driven against it), run
//! over identical data in three configurations:
//!
//! * **eager** — unbudgeted server (everything inlined), `LazyRefine::Off`:
//!   the pre-two-phase wire, every sealed candidate shipped and decrypted;
//! * **lazy 1-phase** — unbudgeted server, sound early exit: the
//!   `BENCH_refine.json` baseline — decryption is on demand but the wire
//!   still carries every payload;
//! * **lazy 2-phase** — byte-budgeted server (headers for everything,
//!   payloads inlined for ≈ the first `α·k` candidates) + the client's
//!   adaptive `FetchObjects` batches: payloads ship only as refinement
//!   demands them.
//!
//! Each lazy row is additionally measured over a **real TCP loopback
//! socket** (`serve_tcp_concurrent` + `connect_tcp`), so the extra phase-2
//! round trips pay their true syscall latency. The binary asserts that the
//! two-phase row fetches fewer objects than it has candidates and that its
//! response bytes undercut the one-phase wire.
//!
//! ```text
//! cargo bench -p simcloud-bench --bench wire                 # full scale
//! cargo bench -p simcloud-bench --bench wire -- --quick      # CI scale
//! cargo bench -p simcloud-bench --bench wire -- --shards 4   # sharded server
//! ```
//!
//! `--shards N` (default 1) runs the identical comparison against a
//! hash-routed `ShardedCloudServer` — the wire (phase-1 lists, phase-2
//! fetches, budgets) is byte-compatible, so the same assertions apply.

use simcloud_bench::{
    prebuild_with, shards_arg, shards_suffix, steady_state_encrypted_tcp,
    steady_state_encrypted_with, PreBuilt, RouterKind, SteadyState, Which,
};
use simcloud_core::{ClientConfig, LazyRefine, ServerConfig};
use simcloud_crypto::envelope::EnvelopeMode;
use simcloud_crypto::CipherKey;

struct Config {
    n: usize,
    queries: usize,
    rounds: usize,
    cands: &'static [usize],
    /// Sealed payloads the server inlines in phase 1 (≈ `α·k`). Quick
    /// scale decrypts far fewer candidates per query than full scale, so
    /// it inlines less to keep phase 2 exercised on CI.
    inline_n: usize,
}

/// Inline budget that fits all headers plus ≈ `inline_n` sealed payloads —
/// mirrors the server's `stage()` accounting (tag + counts + 16/header +
/// (4 + sealed)/payload).
fn budget_for(cand: usize, inline_n: usize, sealed_payload: usize) -> usize {
    1 + 4 + 16 * cand + 4 + inline_n * (4 + sealed_payload)
}

fn row(label: &str, s: &SteadyState, eager_bytes: f64) -> String {
    let reduction = 100.0 * (1.0 - s.bytes_received_per_query() / eager_bytes);
    println!(
        "  {label:<22} {:>8.1} queries/s  {:>9.0} B recv/query ({reduction:>5.1}% less) \
         decrypts {:>5.1}, fetches {:>5.1} in {:.2} round trips",
        s.queries_per_second(),
        s.bytes_received_per_query(),
        s.mean_decrypted(),
        s.mean_fetched(),
        s.mean_fetch_requests(),
    );
    format!(
        "{{ \"queries_per_s\": {:.1}, \"recv_bytes_per_query\": {:.0}, \"sent_bytes_per_query\": {:.0}, \
         \"recv_reduction_vs_eager_pct\": {:.1}, \"mean_decrypted\": {:.1}, \"mean_candidates\": {:.1}, \
         \"mean_fetched\": {:.1}, \"mean_fetch_round_trips\": {:.2} }}",
        s.queries_per_second(),
        s.bytes_received_per_query(),
        s.bytes_sent_per_query(),
        reduction,
        s.mean_decrypted(),
        s.mean_candidates(),
        s.mean_fetched(),
        s.mean_fetch_requests(),
    )
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let shards = shards_arg();
    let k = 30;
    let cfg = if quick {
        Config {
            n: 600,
            queries: 10,
            rounds: 2,
            cands: &[150],
            inline_n: k,
        }
    } else {
        Config {
            n: 1500,
            queries: 30,
            rounds: 4,
            cands: &[600],
            inline_n: 4 * k,
        }
    };

    println!(
        "two-phase wire cost, encrypted {k}-NN, YEAST n={}, {} queries x {} rounds, {} shard(s)",
        cfg.n, cfg.queries, cfg.rounds, shards
    );
    let ds = Which::Yeast.dataset(cfg.n, 11);
    let sealed_payload = CipherKey::sealed_len(ds.vectors[0].encoded_len(), EnvelopeMode::Ctr);
    let build = |server_config: ServerConfig| -> PreBuilt {
        prebuild_with(
            ds.clone(),
            cfg.queries,
            3,
            server_config,
            shards,
            RouterKind::Hash,
        )
    };
    let full = build(ServerConfig::default());

    let mut json = String::from("{\n");
    // Sharded runs get distinct JSON keys; the default keys stay stable.
    let suffix = shards_suffix(shards);
    for &cand in cfg.cands {
        let budget = budget_for(cand, cfg.inline_n, sealed_payload);
        let budgeted = build(ServerConfig::budgeted(budget));
        println!(
            "cand={cand}, inline budget {budget} B (~{} payloads)",
            cfg.inline_n
        );

        let eager = steady_state_encrypted_with(
            &full,
            &ClientConfig::distances().with_lazy_refine(LazyRefine::Off),
            cand,
            k,
            1,
            cfg.rounds,
            7,
        );
        let lazy1 = steady_state_encrypted_with(
            &full,
            &ClientConfig::distances(),
            cand,
            k,
            1,
            cfg.rounds,
            7,
        );
        let lazy2 = steady_state_encrypted_with(
            &budgeted,
            &ClientConfig::distances(),
            cand,
            k,
            1,
            cfg.rounds,
            7,
        );
        let tcp1 =
            steady_state_encrypted_tcp(&full, &ClientConfig::distances(), cand, k, cfg.rounds);
        let tcp2 =
            steady_state_encrypted_tcp(&budgeted, &ClientConfig::distances(), cand, k, cfg.rounds);

        let eager_bytes = eager.bytes_received_per_query();
        for (label, s) in [
            ("eager 1-phase", &eager),
            ("lazy 1-phase", &lazy1),
            ("lazy 2-phase", &lazy2),
            ("lazy 1-phase TCP", &tcp1),
            ("lazy 2-phase TCP", &tcp2),
        ] {
            json.push_str(&format!(
                "  \"wire_yeast_30nn/cand{cand}/{}{suffix}\": {},\n",
                label.replace(' ', "_"),
                row(label, s, eager_bytes)
            ));
        }

        // The contract the CI run enforces: phase 2 must actually skip
        // payload transfers, not merely restage them.
        assert!(
            lazy2.fetched < lazy2.candidates,
            "two-phase lazy fetched {} of {} candidates — phase 2 saved nothing",
            lazy2.fetched,
            lazy2.candidates
        );
        assert!(
            lazy2.fetched > 0,
            "budget inlined everything — phase 2 was never exercised"
        );
        assert!(
            lazy2.bytes_received < lazy1.bytes_received,
            "two-phase wire ({} B) must undercut one-phase ({} B)",
            lazy2.bytes_received,
            lazy1.bytes_received
        );
        assert_eq!(
            lazy2.decrypted, lazy1.decrypted,
            "the early exit must be unaffected by payload staging"
        );
    }
    json.push_str("  \"scale\": \"");
    json.push_str(if quick { "quick" } else { "full" });
    json.push_str("\"\n}");
    println!("\nJSON summary:\n{json}");
}
