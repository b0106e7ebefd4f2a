//! One benchmark run: set-ups, answer checks, measured blocks, metrics.
//!
//! A workload without a writer sets its deployment up `spec.setups` times
//! (the median is `setup_s`), checks the first and the last set-up's
//! answers, and measures the last one for the whole run. A writer workload
//! measures rounds instead: each round sets up a fresh deployment, runs the
//! reader beside the writer's `spec.writer_bulks` bulks and checks the
//! entry count, and rounds repeat until the run's time is used. So the
//! collection the reader sees is the same size however long the run is.
//!
//! The reader's time is cut into windows; as each closes, the reader runs
//! the reference kernel once, and the gated latencies are given in units
//! of its median time (see `reference.rs`).
//!
//! A traced run measures a plain and a traced deployment in alternating
//! blocks (ABBA order, so drift hits both alike) — each deployment set up
//! once, or one fresh deployment per round for a writer workload. The plain
//! blocks give the untraced side of the tracing overhead, the traced
//! blocks every per-layer metric.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use simcloud_core::CostReport;
use simcloud_metric::{ObjectId, Vector};
use simcloud_mindex::SearchStats;
use simcloud_transport::Transport;

use crate::data::{check_knn, check_range, ground_truth, pick_members, recall, Data, Truth, K};
use crate::deploy::{Client, Deployment, Spec, StoreKind};
use crate::layers::{Kind, LayerCounts, StoreCounts, TransportCounts, TransportProbe};
use crate::reference;

/// Candidate-set size of every kNN query.
pub const CAND: usize = 600;
/// Objects per writer bulk.
pub const WRITER_BULK: usize = 100;
/// One writer bulk falls due every this often.
pub const WRITER_PERIOD: Duration = Duration::from_millis(20);
/// Answer-check failures kept verbatim (all are counted).
const ERRORS_KEPT: usize = 20;
/// Which deployment (plain = false, traced = true) each block of a traced
/// run measures, cycled.
const ABBA: [bool; 4] = [false, true, true, false];
/// Reader time is cut into windows of this length, each with the share of
/// the machine's CPU time the hypervisor stole in it (see [`Steady`]).
const WINDOW: Duration = Duration::from_millis(500);
/// A window with at most this steal share always counts as steady.
const STEAL_OK: f64 = 0.02;

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The metrics `BENCHMARK.json` names for this mode.
    pub metrics: Vec<Metric>,
    /// Further metrics of this workload, for the report line only.
    pub extra: Vec<Metric>,
    /// Operations attempted and failed in the measured blocks.
    pub attempted: u64,
    pub failed: u64,
    /// Answer-check failures (the run is incorrect if any).
    pub check_failures: u64,
    pub errors: Vec<String>,
}

impl Outcome {
    fn fail(&mut self, msg: String) {
        self.check_failures += 1;
        if self.errors.len() < ERRORS_KEPT {
            self.errors.push(msg);
        }
    }
}

/// Per-operation sums over the kNN operations of traced blocks.
#[derive(Debug, Default)]
struct KnnSums {
    ops: u64,
    wall_ns: u64,
    transport: TransportCounts,
    /// Server time as the transport reports it (`CostReport.server`).
    server_ns: u64,
    /// Handle time measured by the server wrapper.
    handle_ns: u64,
    store: StoreCounts,
    search: SearchStats,
    costs: CostReport,
}

/// A traced deployment's counters at one instant (per operation).
struct Snap {
    transport: TransportCounts,
    handle_ns: u64,
    store: StoreCounts,
    search: SearchStats,
}

/// What the traced deployments did over their whole lives, set-up and
/// check passes included.
#[derive(Debug, Default)]
struct Life {
    deployments: u64,
    layers: LayerCounts,
    /// Client sealing time of the set-up's bulk load and the writer.
    sealed_ns: u64,
    /// Objects those deployments stored.
    sealed: u64,
    flush_s: f64,
    page_writes: u64,
    wal_appends: u64,
}

/// The reader's operations in one [`WINDOW`] of its time.
#[derive(Debug, Default)]
struct Window {
    knn_ns: Vec<u64>,
    range_ns: Vec<u64>,
    /// Share of the machine's CPU time the hypervisor stole meanwhile.
    steal: f64,
    /// The reference kernel's pass as the window closed.
    reference: reference::Pass,
}

/// Latencies of the windows in which the host let the run have its CPUs.
///
/// On a shared host the hypervisor takes CPU time away in bursts: one
/// 0.5 s window loses nothing, the next a quarter of it, and a stolen
/// slice lands on whichever operations are running, so the tail of a run
/// follows the steal and not the program. A window counts as steady when
/// its steal share is at most [`STEAL_OK`] or no more than that of the
/// least-stolen third of the run's windows; the rest are left out of the
/// latency figures (every operation is still checked). The choice reads
/// only the machine's steal counter, never a latency, so it cannot pick a
/// run's fast windows. A third of a 30 s `cophir-disk` run still leaves
/// ten samples beyond its p99.
struct Steady {
    knn_ns: Vec<u64>,
    range_ns: Vec<u64>,
    warm_ns: Vec<u64>,
    cold_ns: Vec<u64>,
    /// The steal share a window could have and still count.
    limit: f64,
}

impl Steady {
    fn of(windows: &[Window]) -> Steady {
        let mut shares: Vec<f64> = windows.iter().map(|w| w.steal).collect();
        shares.sort_by(f64::total_cmp);
        // The least-stolen third of the windows always counts.
        let third = shares.get(shares.len().div_ceil(3).saturating_sub(1));
        let limit = third.map_or(STEAL_OK, |&s| s.max(STEAL_OK));
        Steady {
            limit,
            ..Self::pool(windows.iter().filter(|w| w.steal <= limit))
        }
    }

    /// Every window pooled.
    fn pool<'a>(windows: impl Iterator<Item = &'a Window>) -> Steady {
        let mut s = Steady {
            knn_ns: Vec::new(),
            range_ns: Vec::new(),
            warm_ns: Vec::new(),
            cold_ns: Vec::new(),
            limit: f64::INFINITY,
        };
        for w in windows {
            s.knn_ns.extend_from_slice(&w.knn_ns);
            s.range_ns.extend_from_slice(&w.range_ns);
            s.warm_ns.push(w.reference.warm_ns);
            s.cold_ns.push(w.reference.cold_ns);
        }
        s
    }

    /// Median warm and cold time of the reference kernel over the
    /// windows, in µs.
    fn reference_us(&self) -> (f64, f64) {
        (
            quantile_us(&self.warm_ns, 0.5),
            quantile_us(&self.cold_ns, 0.5),
        )
    }

    /// 30-NN operations per second of the reader's time in them.
    fn qps(&self) -> f64 {
        self.knn_ns.len() as f64 / (self.knn_ns.iter().sum::<u64>().max(1) as f64 / 1e9)
    }
}

/// Everything measured on one side (plain or traced) of a run.
#[derive(Debug, Default)]
struct Log {
    windows: Vec<Window>,
    /// Writer bulk latency, timed from the bulk's due time.
    insert_ns: Vec<u64>,
    /// How late the writer sent each bulk.
    late_ns: Vec<u64>,
    knn_costs: CostReport,
    /// Reader operations completed.
    reads: u64,
    attempted: u64,
    failed: u64,
    /// Writer objects acknowledged.
    acked: u64,
    /// Transport retries and reconnects of the side's clients.
    retries: u64,
    reconnects: u64,
    knn: KnnSums,
    /// Probe growth over the traced blocks.
    layers: LayerCounts,
    io_page_reads: u64,
    io_pool_hits: u64,
    life: Life,
}

/// A deployment with its reader (and writer) clients.
struct Instance {
    dep: Deployment,
    reader: Client,
    reader_probe: Option<Arc<TransportProbe>>,
    writer: Option<Client>,
    /// Costs of the writer's bulks (sealing).
    writer_costs: CostReport,
    next_op: usize,
}

impl Instance {
    /// Connects the clients; `n` tells their seeds apart between
    /// deployments.
    fn new(spec: &Spec, dep: Deployment, seed: u64, n: u64) -> Result<Self, String> {
        let (reader, reader_probe) = dep.client(seed ^ (16 + 2 * n))?;
        let writer = if spec.writer_bulks > 0 {
            Some(dep.client(seed ^ (17 + 2 * n))?.0)
        } else {
            None
        };
        Ok(Self {
            dep,
            reader,
            reader_probe,
            writer,
            writer_costs: CostReport::default(),
            next_op: 0,
        })
    }

    fn snap(&self) -> Option<Snap> {
        let (probe, tp) = (self.dep.probe.as_ref()?, self.reader_probe.as_ref()?);
        Some(Snap {
            transport: tp.counts(),
            handle_ns: probe.handle_ns(Kind::Knn),
            store: probe.query_store(),
            search: self.dep.server.search_stats(),
        })
    }

    /// Adds what the deployment did over its life to `log`, then tears it
    /// down.
    fn retire(self, log: &mut Log) {
        let mut stats = self.reader.transport().stats();
        if let Some(w) = &self.writer {
            stats.merge(&w.transport().stats());
        }
        log.retries += stats.retries;
        log.reconnects += stats.reconnects;
        if let Some(probe) = &self.dep.probe {
            let io = self.dep.server.io_stats();
            let life = &mut log.life;
            life.deployments += 1;
            life.layers.add(&probe.counts());
            life.sealed_ns += nanos(self.dep.load_costs.encryption + self.writer_costs.encryption);
            life.sealed += self.dep.server.len();
            life.flush_s += self.dep.flush_s;
            life.page_writes += self.dep.load_io.page_writes + io.page_writes;
            life.wal_appends += self.dep.load_io.wal_appends + io.wal_appends;
        }
        // Clients first: the TCP listener drains their connections.
        drop(self.reader);
        drop(self.writer);
        self.dep.tear_down();
    }
}

/// Inputs shared by every block of a run.
struct Ctx<'a> {
    spec: &'a Spec,
    seed: u64,
    data: &'a Data,
    preload: Vec<(ObjectId, Vector)>,
    queries: &'a [usize],
    checks: &'a [usize],
    /// Ground truth of `checks` over the preloaded collection, and over
    /// the collection after a round's writer.
    truth: &'a [Truth],
    final_truth: &'a [Truth],
}

/// What the measured part of a run leaves for the metrics.
#[derive(Default)]
struct Measured {
    /// Plain and traced side.
    logs: [Log; 2],
    setup_s: Vec<f64>,
    /// Recall of each set-up check pass, and of each post-writer one.
    recalls: Vec<f64>,
    final_recalls: Vec<f64>,
    /// Store file bytes of the measured plain deployment.
    stored_bytes: u64,
}

/// A per-run scratch directory inside the working directory, removed on
/// drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> Result<Self, String> {
        let dir = PathBuf::from(".bench_work").join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves the parent when other runs still use it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Runs `spec` for `seconds` from `seed`, traced or not.
pub fn run(spec: &Spec, seed: u64, seconds: u64, traced: bool) -> Result<Outcome, String> {
    let fresh = spec.writer_bulks * WRITER_BULK;
    let data = Data::generate(spec.data, spec.preload, fresh, seed);
    // Every preloaded object is a query, so a run's tail is set by many
    // distinct queries rather than by the few slowest of a small sample.
    let queries = pick_members(spec.preload, spec.preload, seed ^ 3);
    let checks = &queries[..spec.check_queries.min(queries.len())];
    let truth = ground_truth(&data, spec.preload, checks);
    let final_truth = if fresh > 0 {
        ground_truth(&data, spec.preload + fresh, checks)
    } else {
        Vec::new()
    };
    let ctx = Ctx {
        spec,
        seed,
        data: &data,
        preload: data.objects(0..spec.preload),
        queries: &queries,
        checks,
        truth: &truth,
        final_truth: &final_truth,
    };
    let mut out = Outcome::default();
    let mut m = Measured::default();
    let cpu = pin_to_current_cpu()?;
    out.extra.push(("pinned_cpu", cpu as f64, "index"));
    let budget = Duration::from_secs(seconds);
    if spec.writer_bulks > 0 {
        measure_rounds(&ctx, budget, traced, &mut m, &mut out)?;
    } else {
        measure_blocks(&ctx, budget, traced, &mut m, &mut out)?;
    }

    // Recall must repeat exactly at one seed: between set-ups, between
    // the plain and the traced deployment, and between writer rounds.
    if m.recalls
        .iter()
        .any(|r| r.to_bits() != m.recalls[0].to_bits())
    {
        out.fail(format!(
            "knn_recall differs between set-ups at seed {seed}: {:?}",
            m.recalls
        ));
    }
    if m.final_recalls
        .iter()
        .any(|r| r.to_bits() != m.final_recalls[0].to_bits())
    {
        out.fail(format!(
            "post-writer knn_recall differs between rounds at seed {seed}: {:?}",
            m.final_recalls
        ));
    }
    // The gated recall is the set-up check pass's, over the preloaded
    // collection; a writer's growth is reported beside it.
    let knn_recall = m.recalls[0];
    if let Some(&r) = m.final_recalls.first() {
        out.extra.push(("knn_recall_after_writes", r, "%"));
    }

    out.attempted = m.logs.iter().map(|l| l.attempted).sum();
    out.failed = m.logs.iter().map(|l| l.failed).sum();
    let [plain, traced_log] = &m.logs;
    if traced {
        out.metrics = layer_metrics(plain, traced_log);
    } else {
        end_to_end_metrics(spec, plain, &m.setup_s, knn_recall, &mut out);
        if m.stored_bytes > 0 {
            let plain_bytes = (spec.preload * data.vectors[0].dim() * 4) as f64;
            out.extra.push((
                "stored_bytes_ratio",
                m.stored_bytes as f64 / plain_bytes,
                "ratio",
            ));
        }
    }
    out.extra.push((
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    ));
    Ok(out)
}

/// A workload without a writer: its set-ups, then the kept deployment
/// measured for `budget` in one block — or, traced, a plain and a traced
/// deployment in ABBA blocks.
fn measure_blocks(
    ctx: &Ctx<'_>,
    budget: Duration,
    traced: bool,
    m: &mut Measured,
    out: &mut Outcome,
) -> Result<(), String> {
    let spec = ctx.spec;
    let work = match spec.store {
        StoreKind::Disk { .. } => Some(WorkDir::new()?),
        StoreKind::Memory => None,
    };
    // The first and the last set-up (the measured one) are checked.
    let setups = if traced { 2 } else { spec.setups.max(1) };
    let mut kept = Vec::new();
    for i in 0..setups {
        let path = work
            .as_ref()
            .map(|w| w.0.join(format!("{}-{i}.pages", spec.name)));
        let side = traced && i == 1;
        let dep = Deployment::set_up(spec, ctx.data, &ctx.preload, ctx.seed, side, path)?;
        m.setup_s.push(dep.setup_s);
        if i == 0 || i + 1 == setups {
            let (mut client, _) = dep.client(ctx.seed ^ 7)?;
            m.recalls.push(check_pass(ctx, &mut client, ctx.truth, out));
        }
        if traced || i + 1 == setups {
            if !side {
                m.stored_bytes = dep.stored_bytes();
            }
            kept.push(Instance::new(spec, dep, ctx.seed, i as u64)?);
        } else {
            dep.tear_down();
        }
    }
    let blocks = if traced { 2 * ABBA.len() } else { 1 };
    for b in 0..blocks {
        let side = usize::from(traced && ABBA[b % ABBA.len()]);
        run_block(
            ctx,
            &mut kept[side],
            budget / blocks as u32,
            &mut m.logs[side],
            out,
        )?;
    }
    for (inst, log) in kept.into_iter().zip(&mut m.logs) {
        inst.retire(log);
    }
    drop(work);
    Ok(())
}

/// A writer workload: rounds, each on a fresh deployment, until the reader
/// has been measured for `budget` — traced, alternating plain and traced
/// deployments in ABBA order over whole cycles.
fn measure_rounds(
    ctx: &Ctx<'_>,
    budget: Duration,
    traced: bool,
    m: &mut Measured,
    out: &mut Outcome,
) -> Result<(), String> {
    let spec = ctx.spec;
    let mut measured = Duration::ZERO;
    let mut round = 0;
    while round < 2 || measured < budget || (traced && round % ABBA.len() != 0) {
        let side = traced && ABBA[round % ABBA.len()];
        let dep = Deployment::set_up(spec, ctx.data, &ctx.preload, ctx.seed, side, None)?;
        if !side {
            m.setup_s.push(dep.setup_s);
        }
        let mut inst = Instance::new(spec, dep, ctx.seed, round as u64)?;
        // The first two rounds (the plain and the traced one of a traced
        // run) pass the answer checks before and after the writer.
        let checked = round < 2;
        if checked {
            m.recalls
                .push(check_pass(ctx, &mut inst.reader, ctx.truth, out));
        }
        let log = &mut m.logs[usize::from(side)];
        let (acked, failed) = (log.acked, log.failed);
        let start = Instant::now();
        run_block(ctx, &mut inst, Duration::ZERO, log, out)?;
        measured += start.elapsed();
        let acked = log.acked - acked;
        let stored = inst.dep.server.len();
        if stored != spec.preload as u64 + acked {
            out.fail(format!(
                "round {round}: {stored} entries stored, expected {} preloaded + {acked} acknowledged",
                spec.preload
            ));
        }
        if log.failed > failed {
            out.fail(format!(
                "round {round}: {} operations failed, so the post-writer checks cannot run",
                log.failed - failed
            ));
        } else if checked {
            m.final_recalls
                .push(check_pass(ctx, &mut inst.reader, ctx.final_truth, out));
        }
        inst.retire(log);
        round += 1;
    }
    Ok(())
}

/// The end-to-end metrics of an untraced run, into `out`.
fn end_to_end_metrics(
    spec: &Spec,
    plain: &Log,
    setup_s: &[f64],
    knn_recall: f64,
    out: &mut Outcome,
) {
    let all = Steady::pool(plain.windows.iter());
    let steady = Steady::of(&plain.windows);
    let comm_kb = (plain.knn_costs.bytes_sent + plain.knn_costs.bytes_received) as f64
        / all.knn_ns.len().max(1) as f64
        / 1000.0;
    let (p50_us, p99_us) = (
        quantile_us(&steady.knn_ns, 0.50),
        quantile_us(&steady.knn_ns, 0.99),
    );
    let (warm_us, cold_us) = steady.reference_us();
    let setup_wall_s = median_f64(setup_s);
    // Figures in units of the reference kernel's median times, which the
    // same windows measured (see `reference.rs`); the wall-clock figures
    // go to the report line.
    out.metrics = vec![
        (
            "setup_s",
            setup_wall_s * reference::NOMINAL_WARM_US / warm_us,
            "s",
        ),
        ("knn_p50_ref", p50_us / warm_us, "ref_warm"),
        ("knn_p99_ref", p99_us / cold_us, "ref_cold"),
        ("knn_per_ref", steady.qps() * cold_us / 1e6, "1/ref_cold"),
        ("knn_recall", knn_recall, "%"),
        ("knn_comm_kb", comm_kb, "kB"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    out.extra.extend([
        ("knn_p50_us", p50_us, "us"),
        ("knn_p99_us", p99_us, "us"),
        ("knn_qps", steady.qps(), "1/s"),
        ("setup_s_wall", setup_wall_s, "s"),
        ("ref_warm_us", warm_us, "us"),
        ("ref_cold_us", cold_us, "us"),
        ("setups", setup_s.len() as f64, "count"),
        ("knn_samples", steady.knn_ns.len() as f64, "count"),
        ("knn_samples_whole_run", all.knn_ns.len() as f64, "count"),
        ("knn_p50_us_whole_run", quantile_us(&all.knn_ns, 0.50), "us"),
        ("knn_p99_us_whole_run", quantile_us(&all.knn_ns, 0.99), "us"),
        ("knn_qps_whole_run", all.qps(), "1/s"),
        ("steal_limit", steady.limit, "ratio"),
    ]);
    if !steady.range_ns.is_empty() {
        out.extra.extend([
            ("range_p50_us", quantile_us(&steady.range_ns, 0.50), "us"),
            ("range_p99_us", quantile_us(&steady.range_ns, 0.99), "us"),
            ("range_samples", steady.range_ns.len() as f64, "count"),
        ]);
    }
    if spec.writer_bulks > 0 {
        out.extra.extend([
            ("insert_p50_us", quantile_us(&plain.insert_ns, 0.50), "us"),
            ("insert_p99_us", quantile_us(&plain.insert_ns, 0.99), "us"),
            ("insert_samples", plain.insert_ns.len() as f64, "count"),
            (
                "writer_late_p50_us",
                quantile_us(&plain.late_ns, 0.50),
                "us",
            ),
            ("writer_late_max_us", quantile_us(&plain.late_ns, 1.0), "us"),
        ]);
    }
}

/// The untimed answer-check pass: a kNN and a range query per check
/// query, each checked against `truth`. Returns the mean recall.
fn check_pass(ctx: &Ctx<'_>, client: &mut Client, truth: &[Truth], out: &mut Outcome) -> f64 {
    let mut sum = 0.0;
    for (&qi, t) in ctx.checks.iter().zip(truth) {
        let q = &ctx.data.vectors[qi];
        match client.knn_approx(q, K, CAND) {
            Ok((answer, _)) => {
                if let Err(e) = check_knn(ctx.data, q, &answer) {
                    out.fail(format!("check pass, query {qi}: {e}"));
                }
                sum += recall(&answer, t);
            }
            Err(e) => out.fail(format!("check pass, query {qi}: kNN failed: {e}")),
        }
        match client.range(q, t.radius) {
            Ok((answer, _)) => {
                if let Err(e) = check_range(ctx.data, q, &answer, t) {
                    out.fail(format!("check pass, query {qi}: {e}"));
                }
            }
            Err(e) => out.fail(format!("check pass, query {qi}: range failed: {e}")),
        }
    }
    sum / ctx.checks.len().max(1) as f64
}

/// One measured block: the closed-loop reader alone for `len`, or beside
/// the open-loop writer until its bulks are done.
fn run_block(
    ctx: &Ctx<'_>,
    inst: &mut Instance,
    len: Duration,
    log: &mut Log,
    out: &mut Outcome,
) -> Result<(), String> {
    let layers_before = inst.dep.probe.as_ref().map(|p| p.counts());
    let io_before = inst.dep.server.io_stats();
    let start = Instant::now();
    match inst.writer.take() {
        None => read_until(ctx, inst, log, out, &|| start.elapsed() >= len),
        Some(mut writer) => {
            let done = AtomicBool::new(false);
            let mut wlog = Log::default();
            let costs = std::thread::scope(|s| {
                let w = s.spawn(|| {
                    let costs = writer_loop(ctx, &mut writer, &mut wlog);
                    done.store(true, Ordering::SeqCst);
                    costs
                });
                read_until(ctx, inst, log, out, &|| done.load(Ordering::SeqCst));
                w.join()
            })
            .map_err(|_| "writer thread panicked".to_string())?;
            inst.writer = Some(writer);
            inst.writer_costs.merge(&costs);
            log.insert_ns.append(&mut wlog.insert_ns);
            log.late_ns.append(&mut wlog.late_ns);
            log.acked += wlog.acked;
            log.attempted += wlog.attempted;
            log.failed += wlog.failed;
        }
    }
    if let (Some(before), Some(p)) = (layers_before, inst.dep.probe.as_ref()) {
        log.layers.add(&p.counts().since(&before));
        let io = inst.dep.server.io_stats();
        log.io_page_reads += io.page_reads - io_before.page_reads;
        log.io_pool_hits += io.pool_hits - io_before.pool_hits;
    }
    Ok(())
}

/// The closed-loop reader: one operation after another until `stop`,
/// logged in [`WINDOW`]s.
fn read_until(
    ctx: &Ctx<'_>,
    inst: &mut Instance,
    log: &mut Log,
    out: &mut Outcome,
    stop: &dyn Fn() -> bool,
) {
    let mut from = (Instant::now(), cpu_ticks());
    log.windows.push(Window::default());
    while !stop() {
        reader_op(ctx, inst, log, out);
        if from.0.elapsed() >= WINDOW {
            close_window(log, from.1);
            from = (Instant::now(), cpu_ticks());
            log.windows.push(Window::default());
        }
    }
    close_window(log, from.1);
}

/// The window the reader is filling.
fn window(log: &mut Log) -> &mut Window {
    if log.windows.is_empty() {
        log.windows.push(Window::default());
    }
    let last = log.windows.len() - 1;
    &mut log.windows[last]
}

/// Records the steal share of the window opened at `ticks`, and times the
/// reference kernel.
fn close_window(log: &mut Log, ticks: Option<(u64, u64)>) {
    window(log).reference = reference::pass();
    if let (Some((t0, s0)), Some((t1, s1))) = (ticks, cpu_ticks()) {
        window(log).steal = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
    }
}

/// Pins the calling thread, and every thread it starts afterwards, to the
/// CPU it is running on; returns that CPU.
///
/// The host does not reliably give this machine its second vCPU: for
/// minutes at a time it holds the machine to about two thirds of its CPU
/// time, and then every wake-up of a thread on the other, halted vCPU
/// waits for the host. `mixed-shard-tcp`'s query hops between threads
/// (reader, server worker, shard fan-out), and in ten runs of 30 s its
/// `knn_p99_us` read 3.7–4.6 ms at under 10 % steal and 6.2–11.1 ms at
/// 13–19 %. On one CPU every hand-off stays on the vCPU that is running. The program sees one
/// available CPU, so the sharded server fans out sequentially, as it does
/// on any one-core machine. Data generation and ground truth run before
/// this, on every CPU.
fn pin_to_current_cpu() -> Result<usize, String> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only returns a value.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| "sched_getcpu failed".to_string())?;
    let mut mask = [0u64; 16];
    let word = mask
        .get_mut(cpu / 64)
        .ok_or_else(|| format!("CPU {cpu} is beyond the affinity mask"))?;
    *word |= 1 << (cpu % 64);
    // SAFETY: the kernel reads `size` bytes from `mask`, which is exactly
    // the array's size, and the array outlives the call; pid 0 is the
    // calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "pin to CPU {cpu}: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// The machine's (total, steal) CPU ticks so far, from `/proc/stat`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((ticks.iter().sum(), *ticks.get(7)?))
}

/// One reader operation: a kNN query, or every `range_every`-th a precise
/// range query with the true K-th distance as radius.
fn reader_op(ctx: &Ctx<'_>, inst: &mut Instance, log: &mut Log, out: &mut Outcome) {
    let i = inst.next_op;
    inst.next_op += 1;
    let every = ctx.spec.range_every;
    let range = (every > 0 && i % every == every - 1).then(|| (i / every) % ctx.checks.len());
    let qi = match range {
        Some(j) => ctx.checks[j],
        None => ctx.queries[i % ctx.queries.len()],
    };
    let q = &ctx.data.vectors[qi];
    let before = inst.snap();
    let start = Instant::now();
    let result = match range {
        Some(j) => inst.reader.range(q, ctx.truth[j].radius),
        None => inst.reader.knn_approx(q, K, CAND),
    };
    let wall = nanos(start.elapsed());
    let after = inst.snap();
    log.attempted += 1;
    let (answer, costs) = match result {
        Ok(r) => r,
        Err(e) => {
            log.failed += 1;
            eprintln!("reader operation on query {qi} failed: {e}");
            return;
        }
    };
    log.reads += 1;
    let verdict = match range {
        Some(j) => {
            window(log).range_ns.push(wall);
            check_range(ctx.data, q, &answer, &ctx.truth[j])
        }
        None => {
            window(log).knn_ns.push(wall);
            log.knn_costs.merge(&costs);
            if let (Some(b), Some(a)) = (before, after) {
                let k = &mut log.knn;
                k.ops += 1;
                k.wall_ns += wall;
                let t = a.transport.since(&b.transport);
                k.transport.round_trips += t.round_trips;
                k.transport.rtt_ns += t.rtt_ns;
                k.transport.bytes += t.bytes;
                k.transport.modelled_ns += t.modelled_ns;
                k.server_ns += nanos(costs.server);
                k.handle_ns += a.handle_ns - b.handle_ns;
                k.store.add(&a.store.since(&b.store));
                k.search.cells_visited += a.search.cells_visited - b.search.cells_visited;
                k.search.entries_scanned += a.search.entries_scanned - b.search.entries_scanned;
                k.search.candidates += a.search.candidates - b.search.candidates;
                k.search.candidates_generated +=
                    a.search.candidates_generated - b.search.candidates_generated;
                k.costs.merge(&costs);
            }
            check_knn(ctx.data, q, &answer)
        }
    };
    if let Err(e) = verdict {
        out.fail(format!("query {qi}: {e}"));
    }
}

/// The open-loop writer: the round's bulks of fresh objects, one due every
/// [`WRITER_PERIOD`], each timed from its due time. Returns their costs.
fn writer_loop(ctx: &Ctx<'_>, client: &mut Client, log: &mut Log) -> CostReport {
    let mut costs = CostReport::default();
    let start = Instant::now();
    for b in 0..ctx.spec.writer_bulks {
        let lo = ctx.spec.preload + b * WRITER_BULK;
        let objects = ctx.data.objects(lo..lo + WRITER_BULK);
        let due = start + WRITER_PERIOD * b as u32;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        log.late_ns
            .push(nanos(Instant::now().saturating_duration_since(due)));
        log.attempted += 1;
        match client.insert_bulk(&objects) {
            Ok(c) => {
                log.insert_ns.push(nanos(due.elapsed()));
                costs.merge(&c);
                log.acked += WRITER_BULK as u64;
            }
            Err(e) => {
                log.failed += 1;
                eprintln!("writer bulk at object {lo} failed: {e}");
            }
        }
    }
    costs
}

/// The per-layer metrics of a traced run.
fn layer_metrics(plain: &Log, traced: &Log) -> Vec<Metric> {
    let k = &traced.knn;
    let ops = k.ops.max(1) as f64;
    let us = |ns: u64| ns as f64 / 1000.0;
    let per_op_us = |ns: u64| us(ns) / ops;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let rtt = k.transport.rtt_ns;
    let rts = k.transport.round_trips.max(1) as f64;
    let store_read = k.store.read_ns;

    let life = &traced.life;
    let deployments = life.deployments.max(1) as f64;
    let per_request_us = |kind: Kind| {
        ratio(
            us(life.layers.handle_ns(kind)),
            life.layers.requests(kind) as f64,
        )
    };
    let reads = &traced.layers.store_read_ns;
    let skew = if reads.is_empty() {
        1.0
    } else {
        let mean = reads.iter().sum::<u64>() as f64 / reads.len() as f64;
        ratio(*reads.iter().max().unwrap_or(&0) as f64, mean)
    };
    let reader_ops = traced.reads.max(1) as f64;
    let traced_p50 = quantile_us(&Steady::of(&traced.windows).knn_ns, 0.5);
    let plain_p50 = quantile_us(&Steady::of(&plain.windows).knn_ns, 0.5);
    // Wall time left after subtracting every layer's self time:
    // client (wall - rtt), transport (rtt - server time), server
    // (handle - store) and store — i.e. server time the transport saw
    // but the server wrapper did not.
    let (wall, rtt_f, server, handle) = (
        k.wall_ns as f64,
        rtt as f64,
        k.server_ns as f64,
        k.handle_ns as f64,
    );
    let attributed =
        (wall - rtt_f) + (rtt_f - server) + (handle - store_read as f64) + store_read as f64;

    vec![
        ("client.self_us", (wall - rtt_f) / 1000.0 / ops, "us"),
        (
            "client.refine_us",
            per_op_us(nanos(k.costs.decryption)),
            "us",
        ),
        ("client.pivot_us", per_op_us(nanos(k.costs.distance)), "us"),
        (
            "client.unsealed_per_query",
            k.costs.decrypted as f64 / ops,
            "count",
        ),
        (
            "client.unseal_ratio",
            ratio(k.costs.decrypted as f64, k.costs.candidates as f64),
            "ratio",
        ),
        (
            "client.distance_calls_per_query",
            k.costs.distance_computations as f64 / ops,
            "count",
        ),
        (
            "client.seal_us_per_object",
            ratio(us(life.sealed_ns), life.sealed as f64),
            "us",
        ),
        (
            "client.modelled_comm_share",
            ratio(k.transport.modelled_ns as f64, wall),
            "ratio",
        ),
        ("transport.rtt_us", us(rtt) / rts, "us"),
        (
            "transport.round_trips_per_op",
            k.transport.round_trips as f64 / ops,
            "count",
        ),
        ("transport.self_us", (us(rtt) - us(k.server_ns)) / rts, "us"),
        (
            "transport.bytes_per_query",
            k.transport.bytes as f64 / ops,
            "B",
        ),
        ("transport.retries", traced.retries as f64, "count"),
        ("transport.reconnects", traced.reconnects as f64, "count"),
        ("server.knn_us", per_op_us(k.handle_ns), "us"),
        ("server.range_us", per_request_us(Kind::Range), "us"),
        ("server.insert_us", per_request_us(Kind::Insert), "us"),
        (
            "server.self_us",
            (handle - store_read as f64) / 1000.0 / ops,
            "us",
        ),
        (
            "mindex.cells_visited_per_query",
            k.search.cells_visited as f64 / ops,
            "count",
        ),
        (
            "mindex.entries_scanned_per_query",
            k.search.entries_scanned as f64 / ops,
            "count",
        ),
        (
            "mindex.candidates_generated_per_query",
            k.search.candidates_generated as f64 / ops,
            "count",
        ),
        (
            "shard.generated_per_candidate",
            ratio(
                k.search.candidates_generated as f64,
                k.search.candidates as f64,
            ),
            "ratio",
        ),
        ("shard.read_skew", skew, "ratio"),
        (
            "storage.read_calls_per_query",
            k.store.read_calls as f64 / ops,
            "count",
        ),
        ("storage.read_us_per_query", per_op_us(store_read), "us"),
        (
            "storage.records_read_per_query",
            k.store.records_read as f64 / ops,
            "count",
        ),
        (
            "storage.page_reads_per_query",
            traced.io_page_reads as f64 / reader_ops,
            "count",
        ),
        (
            "storage.pool_hit_ratio",
            ratio(
                traced.io_pool_hits as f64,
                (traced.io_pool_hits + traced.io_page_reads) as f64,
            ),
            "ratio",
        ),
        (
            "storage.append_us_per_object",
            ratio(
                us(life.layers.insert.append_ns),
                life.layers.insert.appends as f64,
            ),
            "us",
        ),
        ("storage.flush_s", life.flush_s / deployments, "s"),
        (
            "storage.page_writes",
            life.page_writes as f64 / deployments,
            "count",
        ),
        (
            "storage.wal_appends",
            life.wal_appends as f64 / deployments,
            "count",
        ),
        ("trace.untraced_knn_p50_us", plain_p50, "us"),
        ("trace.traced_knn_p50_us", traced_p50, "us"),
        (
            "trace.overhead_ratio",
            ratio(traced_p50, plain_p50),
            "ratio",
        ),
        (
            "trace.unattributed_share",
            ratio(wall - attributed, wall),
            "ratio",
        ),
    ]
}

/// Nearest-rank quantile of nanosecond samples, in microseconds.
fn quantile_us(samples: &[u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64 / 1000.0
}

fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident memory of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
