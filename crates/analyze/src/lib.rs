//! # simcloud-analyze — in-tree static analysis for the similarity cloud
//!
//! The paper's threat model makes availability under malicious input part
//! of correctness: a hostile client must not be able to panic the server,
//! and a hostile server must not panic the client. This crate is the
//! workspace's standing gate for that property (plus the lock ordering and
//! wire-table invariants that are otherwise enforced only by convention).
//! It is deliberately dependency-free per the shim policy and lexical
//! rather than syntactic: precise enough for this codebase's idioms, with
//! fixtures pinning every rule.
//!
//! Run as `cargo run -p simcloud-analyze -- check` (CI) or `-- report`
//! (full finding list) or `-- bless` (rewrite the inventory snapshot).
//!
//! ## Zones
//!
//! * **server** — the request path a hostile client reaches:
//!   `core/src/server.rs`, `core/src/protocol.rs`, everything in
//!   `transport/src` and `shard/src`, and the `decode*` functions of
//!   `mindex/src/entry.rs`, `metric/src/permutation.rs`,
//!   `metric/src/vector.rs`. Findings here fail the build unless carried
//!   by a `// PANIC-SAFE: <reason>` line — and the committed tree keeps
//!   this zone at **zero** findings, annotated or not.
//! * **client** — `core/src/client.rs`, the refine path a hostile server
//!   reaches. Panic-family findings fail unless annotated; index/cast
//!   findings are inventoried.
//! * **storage** — everything in `storage/src`: the crash-recovery path
//!   parses bytes that arbitrary disk corruption (or a tampering cloud
//!   operator) controls, so it is enforced exactly like the server zone —
//!   zero unannotated findings, and the committed tree keeps it at zero
//!   findings outright.
//! * **inventory** — everything else (bench harness, dataset generators,
//!   shims, build-time code). Findings are counted against a committed
//!   snapshot (`crates/analyze/inventory.txt`) that only ratchets down.

pub mod locks;
pub mod panics;
pub mod scan;
pub mod wire;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use locks::LockViolation;
use panics::{PanicFinding, PanicKind};
use scan::SourceFile;
use wire::WireIssue;

/// Reachability zone of a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Zone {
    /// Server request path — hard error, kept at zero findings.
    Server,
    /// Client refine path — panics must carry `PANIC-SAFE`.
    Client,
    /// Storage engine / crash-recovery path — enforced like the server
    /// zone (corrupt disk bytes are adversarial input).
    Storage,
    /// Everything else — inventoried and ratcheted.
    Inventory,
}

impl Zone {
    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Zone::Server => "server",
            Zone::Client => "client",
            Zone::Storage => "storage",
            Zone::Inventory => "inventory",
        }
    }
}

/// Files whose `decode*` functions belong to the server zone (wire-decode
/// helpers living outside the core crate).
const DECODE_ZONE_FILES: [&str; 3] = [
    "crates/mindex/src/entry.rs",
    "crates/metric/src/permutation.rs",
    "crates/metric/src/vector.rs",
];

/// Zone of a finding at `path` inside function `function`.
pub fn zone_for(path: &str, function: Option<&str>) -> Zone {
    if path == "crates/core/src/server.rs"
        || path == "crates/core/src/protocol.rs"
        || path == "crates/core/src/telemetry.rs"
        || path.starts_with("crates/transport/src/")
        || path.starts_with("crates/shard/src/")
        || path.starts_with("crates/telemetry/src/")
    {
        return Zone::Server;
    }
    if DECODE_ZONE_FILES.contains(&path)
        && function.is_some_and(|f| f.starts_with("decode") || f == "decode")
    {
        return Zone::Server;
    }
    if path == "crates/core/src/client.rs" {
        return Zone::Client;
    }
    if path.starts_with("crates/storage/src/") {
        return Zone::Storage;
    }
    Zone::Inventory
}

/// Kinds that abort the thread outright (vs. silently narrowing/indexing).
fn is_panic_family(kind: PanicKind) -> bool {
    !matches!(kind, PanicKind::SliceIndex | PanicKind::AsNarrowing)
}

/// Aggregated result of all three passes over the tree.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings that violate zone policy (fail the build).
    pub errors: Vec<String>,
    /// Lock-discipline violations (fail the build).
    pub lock_errors: Vec<LockViolation>,
    /// Wire-conformance failures (fail the build).
    pub wire_errors: Vec<WireIssue>,
    /// All panic-surface findings, for `report` output.
    pub findings: Vec<(Zone, PanicFinding)>,
    /// Inventory counts: `(path, kind-name, annotated)` → count.
    pub inventory: BTreeMap<(String, String, bool), usize>,
    /// Count of annotated (allowlisted) sites in the hard-enforced zones
    /// (server + storage) — the acceptance criterion keeps this at zero.
    pub server_allowlisted: usize,
}

impl Report {
    /// True when nothing fails the build (inventory drift checked
    /// separately against the snapshot file).
    pub fn clean(&self) -> bool {
        self.errors.is_empty() && self.lock_errors.is_empty() && self.wire_errors.is_empty()
    }
}

/// Workspace root, resolved from this crate's manifest directory so the
/// binary works from any cwd.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Non-test Rust sources of the workspace, workspace-relative paths.
pub fn source_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if matches!(
                    name.as_ref(),
                    "target" | ".git" | "tests" | "benches" | "examples" | "fixtures"
                ) || is_separate_workspace(&path)
                {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// A directory with a `[workspace]` manifest of its own (the end-to-end
/// benchmark package) is a separate workspace, not part of this one.
fn is_separate_workspace(dir: &Path) -> bool {
    fs::read_to_string(dir.join("Cargo.toml"))
        .is_ok_and(|manifest| manifest.lines().any(|l| l.trim() == "[workspace]"))
}

/// Runs all passes over the tree at `root`.
pub fn run(root: &Path) -> std::io::Result<Report> {
    let mut report = Report::default();
    let mut protocol_src = None;
    for path in source_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = SourceFile::load(&path, &rel)?;
        for v in locks::lock_violations(&src) {
            report.lock_errors.push(v);
        }
        for f in panics::panic_findings(&src) {
            let zone = zone_for(&f.path, f.function.as_deref());
            let enforced = match zone {
                Zone::Server | Zone::Storage => true,
                Zone::Client => is_panic_family(f.kind),
                Zone::Inventory => false,
            };
            if enforced && !f.annotated {
                report.errors.push(format!(
                    "{}:{}: {} in {} zone without PANIC-SAFE justification",
                    f.path,
                    f.line,
                    f.kind.name(),
                    zone.name(),
                ));
            } else {
                if matches!(zone, Zone::Server | Zone::Storage) && f.annotated {
                    report.server_allowlisted += 1;
                }
                *report
                    .inventory
                    .entry((f.path.clone(), f.kind.name().to_owned(), f.annotated))
                    .or_insert(0) += 1;
            }
            report.findings.push((zone, f));
        }
        if rel == "crates/core/src/protocol.rs" {
            protocol_src = Some(src);
        }
    }
    match protocol_src {
        Some(src) => {
            let readme = fs::read_to_string(root.join("README.md")).unwrap_or_default();
            let fuzz = fs::read_to_string(root.join("crates/core/tests/protocol_fuzz.rs"))
                .unwrap_or_default();
            let fuzz = scan::blank_literals(&fuzz);
            report.wire_errors = wire::wire_issues(&src, &readme, &fuzz);
        }
        None => report.wire_errors.push(WireIssue {
            message: "crates/core/src/protocol.rs not found".to_owned(),
        }),
    }
    Ok(report)
}

/// Renders the inventory snapshot format.
pub fn render_inventory(report: &Report) -> String {
    let mut s = String::from(
        "# simcloud-analyze panic-surface inventory.\n\
         # One line per (file, kind): count of sites outside the enforced zones.\n\
         # `+safe` marks PANIC-SAFE-annotated sites. Regenerate with\n\
         # `cargo run -p simcloud-analyze -- bless`; check fails on any drift\n\
         # so the surface only shrinks deliberately.\n",
    );
    for ((path, kind, annotated), count) in &report.inventory {
        let suffix = if *annotated { "+safe" } else { "" };
        let _ = writeln!(s, "{path}\t{kind}{suffix}\t{count}");
    }
    s
}

/// Parses a snapshot back into inventory keys.
pub fn parse_inventory(text: &str) -> BTreeMap<(String, String, bool), usize> {
    let mut map = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split('\t');
        let (Some(path), Some(kind), Some(count)) = (parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        let Ok(count) = count.parse::<usize>() else {
            continue;
        };
        let (kind, annotated) = match kind.strip_suffix("+safe") {
            Some(k) => (k, true),
            None => (kind, false),
        };
        map.insert((path.to_owned(), kind.to_owned(), annotated), count);
    }
    map
}

/// Compares the live inventory against the committed snapshot; returns
/// drift messages (empty = in sync).
pub fn inventory_drift(
    live: &BTreeMap<(String, String, bool), usize>,
    blessed: &BTreeMap<(String, String, bool), usize>,
) -> Vec<String> {
    let mut drift = Vec::new();
    let describe = |(path, kind, annotated): &(String, String, bool)| {
        format!(
            "{path} {kind}{}",
            if *annotated { " (PANIC-SAFE)" } else { "" }
        )
    };
    for (key, &n) in live {
        let old = blessed.get(key).copied().unwrap_or(0);
        if n > old {
            drift.push(format!(
                "new panic-surface: {} went {old} -> {n}; fix it or deliberately \
                 re-bless the inventory",
                describe(key)
            ));
        } else if n < old {
            drift.push(format!(
                "panic-surface shrank: {} went {old} -> {n}; run \
                 `cargo run -p simcloud-analyze -- bless` to ratchet the snapshot down",
                describe(key)
            ));
        }
    }
    for (key, &old) in blessed {
        if !live.contains_key(key) && old > 0 {
            drift.push(format!(
                "panic-surface cleared: {} went {old} -> 0; run \
                 `cargo run -p simcloud-analyze -- bless` to ratchet the snapshot down",
                describe(key)
            ));
        }
    }
    drift
}
