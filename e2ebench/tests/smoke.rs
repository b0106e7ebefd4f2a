//! Every workload at a tiny scale, on two seeds, in both modes: every
//! metric `BENCHMARK.json` names is emitted with its unit, every answer
//! check passes, and the deterministic metrics repeat at one seed.

use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["yeast-mem", "cophir-disk", "mixed-shard-tcp"];

/// `(name, unit)` of every metric listed under `section` in `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closed string");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

struct Run {
    correct: bool,
    attempted: u64,
    /// name -> (value, unit)
    metrics: BTreeMap<String, (f64, String)>,
}

/// Parses the result line the benchmark prints last.
fn parse(line: &str) -> Run {
    let correct = line.contains("\"correct\": true");
    let attempted = line
        .split("\"attempted\": ")
        .nth(1)
        .and_then(|s| s.split(',').next())
        .and_then(|s| s.trim().parse().ok())
        .expect("attempted");
    let mut metrics = BTreeMap::new();
    let body = &line[line.find("\"metrics\": {").expect("metrics") + 12..];
    for entry in body.split("}, ").map(|e| e.trim_end_matches('}')) {
        let (name, rest) = entry.split_once(": {\"value\": ").expect("metric entry");
        let (value, unit) = rest.split_once(", \"unit\": ").expect("unit");
        metrics.insert(
            name.trim_matches('"').to_string(),
            (
                value.parse().expect("numeric value"),
                unit.trim_matches('"').to_string(),
            ),
        );
    }
    Run {
        correct,
        attempted,
        metrics,
    }
}

fn run(workload: &str, seed: u64, trace: u8) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", &trace.to_string()])
        .args(["--scale", "tiny"])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    parse(stdout.lines().last().expect("a result line"))
}

fn check_emitted(run: &Run, section: &str, context: &str) {
    let listed = listed(section);
    for (name, unit) in &listed {
        let (value, got_unit) = run
            .metrics
            .get(name)
            .unwrap_or_else(|| panic!("{context}: {name} missing"));
        assert_eq!(got_unit, unit, "{context}: unit of {name}");
        assert!(value.is_finite(), "{context}: {name} = {value}");
    }
    assert_eq!(run.metrics.len(), listed.len(), "{context}: extra metrics");
    assert!(run.correct, "{context}: answer checks failed");
    assert!(run.attempted >= 1, "{context}: nothing attempted");
}

fn workload(name: &str) {
    for seed in [1, 2] {
        let plain = run(name, seed, 0);
        check_emitted(
            &plain,
            "end_to_end",
            &format!("{name} seed {seed} untraced"),
        );
        let traced = run(name, seed, 1);
        check_emitted(&traced, "per_layer", &format!("{name} seed {seed} traced"));
    }
    // Recall and bytes per query are deterministic per seed.
    let (a, b) = (run(name, 3, 0), run(name, 3, 0));
    for m in ["knn_recall", "knn_comm_kb"] {
        assert_eq!(
            a.metrics[m].0.to_bits(),
            b.metrics[m].0.to_bits(),
            "{name}: {m} differs between two runs at one seed"
        );
    }
}

#[test]
fn yeast_mem() {
    workload(WORKLOADS[0]);
}

#[test]
fn cophir_disk() {
    workload(WORKLOADS[1]);
}

#[test]
fn mixed_shard_tcp() {
    workload(WORKLOADS[2]);
}

#[test]
fn bad_flags_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "yeast-mem", "--trace", "2"][..],
        &["--seed", "1"][..],
        &["--workload", "yeast-mem", "--seed", "1"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
            .args(args)
            .output()
            .expect("benchmark runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
