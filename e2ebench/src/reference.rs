//! The reference kernel every run pairs its latencies with.
//!
//! The host this benchmark runs on is shared, and its speed drifts between
//! runs minutes apart for every program alike: on ten 20 s `yeast-mem` runs
//! of one binary the 30-NN median read 887–1401 µs, and a fixed piece of CPU
//! work timed in the same runs moved with it (log correlation 0.97). So a
//! run also times this kernel between its operations, and the gated figures
//! are given in units of its median time: the pair moves together when the
//! host changes speed and apart only when the program does.
//!
//! The host's fast state speeds cache-resident work up more than work that
//! waits for memory (on `yeast-mem`, fast runs read 0.67 of the usual
//! median latency but 0.89 of the usual p99). So a pass has two times: a
//! warm one, for the median query and set-up, which are bound by the
//! core, and a cold one, for the tail and the throughput, which include
//! queries that wait for memory.
//!
//! The kernel is built from `std` alone, so no change to the program can
//! change it. It mimics a query's kinds of work: a scan of 17-dim L1
//! distances over a cache-resident table, and mini queries that read 600
//! candidates at random from a 4 MiB buffer, mix each with ARX rounds (the
//! shape of a stream cipher), decode it, take its distance, index it in a
//! hash map and sort the lot. Both parts were chosen by how well their time
//! tracked the workloads' latencies across runs.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::OnceLock;
use std::time::Instant;

/// The warm time of the host `setup_s` is scaled to: set-up time is
/// reported in seconds on a host whose warm pass takes this long.
pub const NOMINAL_WARM_US: f64 = 1000.0;

/// Floats in the scanned table (256 KiB).
const TABLE_LEN: usize = 1 << 16;
/// Dimensions of one scanned row.
const DIM: usize = 17;
/// Scans of the table per pass.
const SCANS: u32 = 24;
/// Bytes the mini queries read from (4 MiB).
const PAYLOAD_LEN: usize = 4 << 20;
/// Mini queries per pass.
const QUERIES: u64 = 3;
/// Candidates per mini query, and the rank it answers.
const CANDIDATES: u64 = 600;
const RANK: usize = 30;

struct Inputs {
    table: Vec<f32>,
    payloads: Vec<u8>,
}

fn inputs() -> &'static Inputs {
    static INPUTS: OnceLock<Inputs> = OnceLock::new();
    INPUTS.get_or_init(|| Inputs {
        table: (0..TABLE_LEN as u32)
            .map(|i| ((i.wrapping_mul(2_654_435_761) >> 8) % 1000) as f32)
            .collect(),
        payloads: (0..PAYLOAD_LEN as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect(),
    })
}

/// The two times of one pass of the kernel, in nanoseconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct Pass {
    /// The scan plus the mini queries run a second time, on a cached
    /// buffer: work bound by the core's own speed.
    pub warm_ns: u64,
    /// The scan plus the mini queries run first, on a buffer the workload
    /// has pushed out of the caches: work that also waits for memory.
    pub cold_ns: u64,
}

/// Runs one pass of the kernel: the scan, then the mini queries twice.
pub fn pass() -> Pass {
    let inputs = inputs();
    let timed = |f: &dyn Fn()| {
        let start = Instant::now();
        f();
        u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    };
    let scan_ns = timed(&|| {
        std::hint::black_box(scan(&inputs.table));
    });
    let mini = || {
        std::hint::black_box(mini_queries(&inputs.payloads));
    };
    let cold = timed(&mini);
    let warm = timed(&mini);
    Pass {
        warm_ns: scan_ns + warm,
        cold_ns: scan_ns + cold,
    }
}

/// L1 distances from a query to every row of `table`, summed.
fn scan(table: &[f32]) -> f32 {
    let mut acc = 0.0;
    for rep in 0..SCANS {
        let q: [f32; DIM] = std::array::from_fn(|j| (j as u32 * 31 + rep) as f32);
        for row in table.chunks_exact(DIM) {
            acc += row.iter().zip(&q).map(|(a, b)| (a - b).abs()).sum::<f32>();
        }
    }
    acc
}

/// The [`RANK`]-th smallest candidate distance of each mini query, summed
/// with the sizes of their hash maps.
fn mini_queries(payloads: &[u8]) -> f32 {
    let mut total = 0.0;
    for query in 0..QUERIES {
        let mut h = query.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1;
        let mut seen: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
        let mut candidates: Vec<(f32, u64)> = Vec::with_capacity(CANDIDATES as usize);
        for i in 0..CANDIDATES {
            h ^= h << 13;
            h ^= h >> 7;
            h ^= h << 17;
            let at = (h as usize % (PAYLOAD_LEN - 64)) & !3;
            let mut block: [u32; 16] = std::array::from_fn(|j| {
                let b = &payloads[at + 4 * j..at + 4 * j + 4];
                u32::from_le_bytes([b[0], b[1], b[2], b[3]])
            });
            arx(&mut block);
            let d: f32 = block
                .iter()
                .enumerate()
                .map(|(j, &w)| ((w >> 20) as f32 - j as f32).abs())
                .sum();
            seen.insert(h, i);
            candidates.push((d, i));
        }
        candidates.sort_by(|a, b| a.0.total_cmp(&b.0));
        total += candidates[RANK - 1].0 + seen.len() as f32;
    }
    total
}

/// Ten rounds of ChaCha-style column quarter-rounds.
fn arx(s: &mut [u32; 16]) {
    for _ in 0..10 {
        for i in 0..4 {
            let (a, b, c, d) = (i, 4 + i, 8 + i, 12 + i);
            s[a] = s[a].wrapping_add(s[b]);
            s[d] = (s[d] ^ s[a]).rotate_left(16);
            s[c] = s[c].wrapping_add(s[d]);
            s[b] = (s[b] ^ s[c]).rotate_left(12);
            s[a] = s[a].wrapping_add(s[b]);
            s[d] = (s[d] ^ s[a]).rotate_left(8);
            s[c] = s[c].wrapping_add(s[d]);
            s[b] = (s[b] ^ s[c]).rotate_left(7);
        }
    }
}
