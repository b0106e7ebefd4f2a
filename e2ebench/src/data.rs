//! Seeded inputs, brute-force plaintext ground truth and the answer checks.

use simcloud_datasets::{cophir_like, yeast_like, DatasetMetric};
use simcloud_metric::{Metric, ObjectId, Vector};

/// Neighbors asked for by every kNN query.
pub const K: usize = 30;

/// Which generator a workload draws its objects from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataKind {
    /// YEAST-like gene expression: 17-dim, L1.
    Yeast,
    /// CoPhIR-like MPEG-7 descriptors: 282-dim, weighted Lp combination.
    Cophir,
}

/// A workload's objects. Object `i` carries id `i`: the first `preload`
/// are bulk-loaded at set-up, the rest are inserted later by a writer.
pub struct Data {
    pub vectors: Vec<Vector>,
    pub preload: usize,
    pub metric: DatasetMetric,
}

impl Data {
    /// Generates `preload + fresh` objects from `seed`.
    pub fn generate(kind: DataKind, preload: usize, fresh: usize, seed: u64) -> Self {
        let ds = match kind {
            DataKind::Yeast => yeast_like(seed, Some(preload + fresh)),
            DataKind::Cophir => cophir_like(seed, preload + fresh),
        };
        Self {
            vectors: ds.vectors,
            preload,
            metric: ds.metric,
        }
    }

    /// Objects `range` paired with their ids, ready for `insert_bulk`.
    pub fn objects(&self, range: std::ops::Range<usize>) -> Vec<(ObjectId, Vector)> {
        range
            .map(|i| (ObjectId(i as u64), self.vectors[i].clone()))
            .collect()
    }
}

/// SplitMix64: the benchmark's own seeded choice of query objects.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `count` distinct member indices below `n`, in a seeded order.
pub fn pick_members(n: usize, count: usize, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    let mut state = seed ^ 0x00e2_eb0e_c0de;
    for i in (1..n).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        idx.swap(i, j);
    }
    idx.truncate(count.min(n));
    idx
}

/// The exact answers for one query over one collection.
#[derive(Debug, Clone)]
pub struct Truth {
    /// Distance of the K-th nearest object — the range radius.
    pub radius: f64,
    /// Ids of every object within `radius`, ascending.
    pub within: Vec<u64>,
}

/// Brute-force ground truth of `queries` over `vectors[..visible]`, on
/// two threads.
pub fn ground_truth(data: &Data, visible: usize, queries: &[usize]) -> Vec<Truth> {
    let one = |qi: usize| {
        let q = &data.vectors[qi];
        let mut dist: Vec<(f64, u64)> = data.vectors[..visible]
            .iter()
            .enumerate()
            .map(|(i, o)| (data.metric.distance(q, o), i as u64))
            .collect();
        let k = K.min(dist.len());
        dist.select_nth_unstable_by(k - 1, |a, b| a.0.total_cmp(&b.0));
        let radius = dist[k - 1].0;
        let mut within: Vec<u64> = dist
            .iter()
            .filter(|(d, _)| *d <= radius)
            .map(|&(_, id)| id)
            .collect();
        within.sort_unstable();
        Truth { radius, within }
    };
    let mut out: Vec<Option<Truth>> = vec![None; queries.len()];
    let half = queries.len().div_ceil(2).max(1);
    std::thread::scope(|s| {
        for (qs, slots) in queries.chunks(half).zip(out.chunks_mut(half)) {
            s.spawn(move || {
                for (&qi, slot) in qs.iter().zip(slots) {
                    *slot = Some(one(qi));
                }
            });
        }
    });
    out.into_iter()
        .map(|t| t.expect("every query has its truth"))
        .collect()
}

/// Checks a kNN answer: `K` distinct objects in ascending order, each at
/// exactly the distance the plaintext metric gives on its original vector.
pub fn check_knn(data: &Data, q: &Vector, answer: &[(ObjectId, f64)]) -> Result<(), String> {
    if answer.len() != K {
        return Err(format!("kNN returned {} of {K} neighbors", answer.len()));
    }
    check_distances(data, q, answer)?;
    if answer.windows(2).any(|w| w[0].1 > w[1].1) {
        return Err("kNN answer is not in ascending distance order".into());
    }
    let mut ids: Vec<u64> = answer.iter().map(|(id, _)| id.0).collect();
    ids.sort_unstable();
    if ids.windows(2).any(|w| w[0] == w[1]) {
        return Err("kNN answer repeats an object".into());
    }
    Ok(())
}

/// Checks a range answer against brute force: the same ids, each at its
/// true distance.
pub fn check_range(
    data: &Data,
    q: &Vector,
    answer: &[(ObjectId, f64)],
    truth: &Truth,
) -> Result<(), String> {
    check_distances(data, q, answer)?;
    let mut ids: Vec<u64> = answer.iter().map(|(id, _)| id.0).collect();
    ids.sort_unstable();
    if ids != truth.within {
        return Err(format!(
            "range answer has {} objects, brute force {}",
            ids.len(),
            truth.within.len()
        ));
    }
    Ok(())
}

fn check_distances(data: &Data, q: &Vector, answer: &[(ObjectId, f64)]) -> Result<(), String> {
    for &(id, d) in answer {
        let Some(o) = data.vectors.get(id.0 as usize) else {
            return Err(format!("answer names unknown object {}", id.0));
        };
        let exact = data.metric.distance(q, o);
        if exact.to_bits() != d.to_bits() {
            return Err(format!(
                "object {} returned at distance {d}, plaintext metric gives {exact}",
                id.0
            ));
        }
    }
    Ok(())
}

/// Recall@K in percent: the share of the answer within the true K-th
/// distance (ties at that distance count as hits).
pub fn recall(answer: &[(ObjectId, f64)], truth: &Truth) -> f64 {
    let hits = answer.iter().filter(|(_, d)| *d <= truth.radius).count();
    100.0 * hits.min(K) as f64 / K as f64
}
