//! End-to-end benchmark of the encrypted M-Index.
//!
//! ```text
//! e2ebench --workload <name> --seconds <s> [--seed <n>] [--trace <0|1>] [--scale full|tiny]
//! ```
//!
//! Runs one workload (see `README.md` in this directory) against the
//! repository's crates, checks every answer against a plaintext oracle and
//! prints, as the last line of standard output, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the per-layer ones
//! from a traced run. The line before it is a report with the run's
//! metadata and the workload-specific metrics. The exit code is non-zero
//! when an answer check fails or the run cannot complete.

mod data;
mod deploy;
mod layers;
mod reference;
mod run;

use std::fmt::Write as _;
use std::process::ExitCode;

use deploy::{Spec, WORKLOADS};
use run::Metric;

struct Args {
    workload: String,
    seed: u64,
    /// Required (0 = not given), so that `BENCHMARK.json`'s `run_seconds`
    /// is the one place that sets it.
    seconds: u64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 0,
        trace: false,
        tiny: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| s >= 1)
                    .ok_or_else(|| bad("a whole number of seconds >= 1"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
            }
            "--scale" => {
                args.tiny = match value.as_str() {
                    "full" => false,
                    "tiny" => true,
                    _ => return Err(bad("full or tiny")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!("--workload is required (one of {WORKLOADS:?})"));
    }
    if args.seconds == 0 {
        return Err("--seconds is required".into());
    }
    Ok(args)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Output of a short command, or "unknown".
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn load_average() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|| "unknown".into())
}

/// Share of the machine's CPU time the hypervisor took away between two
/// [`run::cpu_ticks`] readings: on a shared host, the figures of a run with a
/// high steal share are not comparable with those of a run without.
fn steal_share(start: Option<(u64, u64)>) -> String {
    match (start, run::cpu_ticks()) {
        (Some((t0, s0)), Some((t1, s1))) if t1 > t0 => {
            format!("{:.4}", (s1 - s0) as f64 / (t1 - t0) as f64)
        }
        _ => "null".into(),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = Spec::named(&args.workload, args.tiny) else {
        eprintln!(
            "e2ebench: unknown workload {:?} (one of {WORKLOADS:?})",
            args.workload
        );
        return ExitCode::from(2);
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let load_start = load_average();
    let ticks_start = run::cpu_ticks();
    let outcome = match run::run(&spec, args.seed, args.seconds, args.trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {} failed: {e}", spec.name);
            return ExitCode::FAILURE;
        }
    };
    let correct = outcome.check_failures == 0;
    for e in &outcome.errors {
        eprintln!("answer check failed: {e}");
    }

    let pool = match spec.store {
        deploy::StoreKind::Disk { pool_pages } => pool_pages,
        deploy::StoreKind::Memory => 0,
    };
    let meta = [
        ("workload", json_str(spec.name)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("scale", json_str(if args.tiny { "tiny" } else { "full" })),
        ("nproc", nproc.to_string()),
        ("loadavg_start", json_str(&load_start)),
        ("loadavg_end", json_str(&load_average())),
        ("cpu_steal_share", steal_share(ticks_start)),
        ("rustc", json_str(&command_line("rustc", &["--version"]))),
        (
            "git_commit",
            json_str(&command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("objects", spec.preload.to_string()),
        ("shards", spec.shards.to_string()),
        ("pool_pages", pool.to_string()),
        ("k", data::K.to_string()),
        ("cand_size", run::CAND.to_string()),
        ("check_failures", outcome.check_failures.to_string()),
    ];
    let mut report = String::from("{\"report\": {");
    for (k, v) in meta {
        let _ = write!(report, "{}: {v}, ", json_str(k));
    }
    let _ = write!(
        report,
        "\"metrics\": {}, \"extra\": {}}}}}",
        json_metrics(&outcome.metrics),
        json_metrics(&outcome.extra)
    );
    println!("{report}");
    for (name, value, unit) in outcome.metrics.iter().chain(&outcome.extra) {
        eprintln!("{name:>40} {value:>14.4} {unit}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        json_metrics(&outcome.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
