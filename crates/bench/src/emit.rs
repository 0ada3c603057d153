//! Shared experiment output: the [`Report`] every `repro-*` binary renders
//! (plain text by default, machine-readable with `--json`) and the typed
//! `BENCH_*.json` documents behind the CI perf gate.
//!
//! There is deliberately one code path from experiment data to both output
//! forms: binaries build a [`Report`] (or a [`AssignBench`] /
//! [`GetMailBench`] document) and call [`Report::emit`], so the text and
//! JSON renderings can never drift apart.

use serde::{Deserialize, Serialize};

use crate::render::Table;

/// Version stamp carried by every JSON document this module emits; bump
/// when a field changes meaning or disappears (additions are fine).
pub const BENCH_SCHEMA_VERSION: u32 = 1;

/// True when the process was invoked with `--json` — the shared flag
/// convention for every `repro-*` binary.
pub fn json_flag() -> bool {
    std::env::args().skip(1).any(|a| a == "--json")
}

/// The value following `--trace-out`, when present — the shared flag
/// convention for binaries that can export their run's telemetry as a
/// `lems-obs` JSONL dump.
pub fn trace_out_flag() -> Option<std::path::PathBuf> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    args.iter()
        .position(|a| a == "--trace-out")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from)
}

/// One renderable block of an experiment report.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Section {
    /// A free-form prose line (headings, shape checks, paper quotes).
    Note(String),
    /// A titled table: headers plus string rows.
    Rows {
        /// Short machine-friendly name for the table.
        name: String,
        /// Column headers.
        headers: Vec<String>,
        /// Data rows, aligned with `headers`.
        rows: Vec<Vec<String>>,
    },
    /// Named scalar results.
    KeyVals {
        /// Short machine-friendly name for the group.
        name: String,
        /// `(key, value)` pairs in display order.
        pairs: Vec<(String, String)>,
    },
}

/// An experiment report that renders identically structured text and JSON.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Report {
    /// Schema version (see [`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Machine-friendly experiment id (e.g. `fig1`, `getmail`).
    pub experiment: String,
    /// Human heading printed at the top of the text rendering.
    pub title: String,
    /// Ordered content blocks.
    pub sections: Vec<Section>,
}

impl Report {
    /// Starts an empty report.
    pub fn new(experiment: &str, title: impl Into<String>) -> Self {
        Report {
            schema_version: BENCH_SCHEMA_VERSION,
            experiment: experiment.to_owned(),
            title: title.into(),
            sections: Vec::new(),
        }
    }

    /// Appends a prose line.
    pub fn note(&mut self, text: impl Into<String>) {
        self.sections.push(Section::Note(text.into()));
    }

    /// Appends a table section.
    pub fn table(&mut self, name: &str, table: &Table) {
        self.sections.push(Section::Rows {
            name: name.to_owned(),
            headers: table.headers().to_vec(),
            rows: table.rows().to_vec(),
        });
    }

    /// Appends a key/value section.
    pub fn kv(&mut self, name: &str, pairs: Vec<(String, String)>) {
        self.sections.push(Section::KeyVals {
            name: name.to_owned(),
            pairs,
        });
    }

    /// The plain-text rendering (what the `repro-*` binaries have always
    /// printed).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.title);
        out.push_str("\n\n");
        for s in &self.sections {
            match s {
                Section::Note(text) => {
                    out.push_str(text);
                    out.push('\n');
                }
                Section::Rows { headers, rows, .. } => {
                    let mut t = Table::new(headers.iter().map(String::as_str).collect());
                    for r in rows {
                        t.row(r.clone());
                    }
                    out.push('\n');
                    out.push_str(&t.render());
                    out.push('\n');
                }
                Section::KeyVals { pairs, .. } => {
                    for (k, v) in pairs {
                        out.push_str("  ");
                        out.push_str(k);
                        out.push_str(" = ");
                        out.push_str(v);
                        out.push('\n');
                    }
                }
            }
        }
        out
    }

    /// The JSON rendering.
    ///
    /// # Panics
    ///
    /// Panics if serialisation fails (experiment-driver policy: fail fast).
    pub fn render_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialises")
    }

    /// Prints the report in the requested form.
    pub fn emit(&self, json: bool) {
        if json {
            println!("{}", self.render_json());
        } else {
            print!("{}", self.render_text());
        }
    }
}

/// One size tier of the §3.1.1 assignment scale experiment
/// (`BENCH_assign.json`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AssignTier {
    /// Tier label (`fig1`, `smoke-50k`, `200k`, `1m`).
    pub label: String,
    /// Total users assigned.
    pub users: u64,
    /// Hosts in the topology.
    pub hosts: usize,
    /// Servers in the topology.
    pub servers: usize,
    /// Wall time to build the shared [`CostMatrix`], milliseconds.
    ///
    /// [`CostMatrix`]: lems_net::cost_matrix::CostMatrix
    pub matrix_build_ms: f64,
    /// Wall time for nearest-server initialisation, milliseconds.
    pub init_ms: f64,
    /// Wall time for the paper's classic solver (full-objective
    /// re-evaluation per tentative move); `None` above the sizes where it
    /// is tractable.
    pub classic_ms: Option<f64>,
    /// Wall time for the scaled synchronous-pass solver, milliseconds.
    pub sync_ms: f64,
    /// `classic_ms / sync_ms` where the classic solver ran.
    pub speedup_vs_classic: Option<f64>,
    /// Synchronous passes to convergence.
    pub passes: u64,
    /// Accepted transfers.
    pub moves: u64,
    /// Maximum final server utilisation ρ.
    pub rho_max: f64,
    /// Spread `max ρ − min ρ` across servers after balancing.
    pub rho_spread: f64,
    /// Final objective `Σ A_ij · TC_ij`.
    pub total_cost: f64,
    /// FNV-1a fingerprint of the final assignment (hex) — the determinism
    /// contract: same seed, same digest.
    pub digest: String,
}

/// One size tier of the GetMail authority-list scale experiment
/// (`BENCH_getmail.json`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GetMailTier {
    /// Tier label, matching the assignment tier it derives from.
    pub label: String,
    /// Total users whose lists were built.
    pub users: u64,
    /// Hosts in the topology.
    pub hosts: usize,
    /// Servers in the topology.
    pub servers: usize,
    /// Authority-list length per host.
    pub list_len: usize,
    /// Wall time to rank and truncate every host's list, milliseconds.
    pub build_ms: f64,
    /// Mean polls per retrieval over the sampled GetMail runs.
    pub polls_mean: f64,
    /// FNV-1a fingerprint (hex) over every list's node ids.
    pub digest: String,
}

/// The `BENCH_assign.json` document: environment stamp plus per-tier
/// assignment results. (The vendored serde derive has no generics, so the
/// two bench documents are spelled out rather than sharing a `BenchDoc<T>`.)
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AssignBench {
    /// Schema version (see [`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Experiment id (`assign-scale`).
    pub experiment: String,
    /// RNG seed the topologies were generated from.
    pub seed: u64,
    /// Per-tier measurements, smallest tier first.
    pub tiers: Vec<AssignTier>,
}

/// The `BENCH_getmail.json` document.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GetMailBench {
    /// Schema version (see [`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Experiment id (`getmail-scale`).
    pub experiment: String,
    /// RNG seed the topologies were generated from.
    pub seed: u64,
    /// Per-tier measurements, smallest tier first.
    pub tiers: Vec<GetMailTier>,
}

impl AssignBench {
    /// Pretty JSON for committing as a `BENCH_*.json` artifact.
    ///
    /// # Panics
    ///
    /// Panics if serialisation fails (experiment-driver policy: fail fast).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("bench doc serialises")
    }
}

impl GetMailBench {
    /// Pretty JSON for committing as a `BENCH_*.json` artifact.
    ///
    /// # Panics
    ///
    /// Panics if serialisation fails (experiment-driver policy: fail fast).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("bench doc serialises")
    }
}

/// One backend's measurements at one size tier of the storage durability
/// experiment (`BENCH_store.json`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StoreTier {
    /// Tier label (`smoke-10k`, `100k`, `1m`).
    pub label: String,
    /// Backend measured (`mem` = fiat-stable RAM, `wal` = write-ahead log
    /// with per-record sync).
    pub backend: String,
    /// Distinct mailboxes the deposits spread over.
    pub users: usize,
    /// Messages deposited (every one must be drained back after recovery).
    pub messages: u64,
    /// Wall time to deposit every message, milliseconds.
    pub deposit_ms: f64,
    /// `messages / deposit_ms`, as deposits per second — the headline
    /// durability-tax number when compared across backends.
    pub deposits_per_sec: f64,
    /// Wall time for crash + recovery (log replay for `wal`), milliseconds.
    pub recovery_ms: f64,
    /// Log records replayed during recovery (0 for `mem`).
    pub replayed_records: u64,
    /// Mailbox messages present after recovery.
    pub recovered_messages: u64,
    /// Wall time to destructively drain every mailbox post-recovery,
    /// milliseconds.
    pub drain_ms: f64,
    /// Durable log bytes at crash time (0 for `mem`).
    pub wal_bytes: u64,
}

/// The `BENCH_store.json` document: per-tier, per-backend durability cost.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StoreBench {
    /// Schema version (see [`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Experiment id (`store-durability`).
    pub experiment: String,
    /// Seed the deterministic workload was generated from.
    pub seed: u64,
    /// Per-tier measurements, smallest tier first, `mem` before `wal`
    /// within a tier.
    pub tiers: Vec<StoreTier>,
}

impl StoreBench {
    /// Pretty JSON for committing as a `BENCH_*.json` artifact.
    ///
    /// # Panics
    ///
    /// Panics if serialisation fails (experiment-driver policy: fail fast).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("bench doc serialises")
    }
}

/// The measurements at one tier of the sim-kernel throughput experiment
/// (`BENCH_sim.json`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SimTier {
    /// Tier label (`hold-smoke-1m`, `hold-10m`, `actor-10m`).
    pub label: String,
    /// Event queue measured: always `calendar`. With `label` it is the
    /// key [`gate_sim_times`] matches rows on.
    pub engine: String,
    /// Steady pending-event population.
    pub pending: u64,
    /// Actors in the mesh (0 for the raw hold tiers).
    pub actors: u64,
    /// Events processed in the measurement window.
    pub events: u64,
    /// Wall time for the measurement window, milliseconds.
    pub wall_ms: f64,
    /// `events / wall_ms` as events per second — the headline throughput.
    pub events_per_sec: f64,
    /// Determinism fingerprint (hex): the pop-stream digest for hold
    /// tiers, the delivered count for actor tiers. A rerun that digests
    /// differently did different work, so its wall time is not comparable.
    pub digest: String,
}

/// The `BENCH_sim.json` document: per-tier kernel throughput.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SimBench {
    /// Schema version (see [`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Experiment id (`sim-kernel`).
    pub experiment: String,
    /// Seed the deterministic workloads were generated from.
    pub seed: u64,
    /// Peak resident set of the measuring process, KiB (`VmHWM`; 0 where
    /// `/proc` is unavailable).
    pub peak_rss_kib: u64,
    /// Per-tier measurements: hold tiers first, then actor tiers.
    pub tiers: Vec<SimTier>,
}

impl SimBench {
    /// Pretty JSON for committing as a `BENCH_*.json` artifact.
    ///
    /// # Panics
    ///
    /// Panics if serialisation fails (experiment-driver policy: fail fast).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("bench doc serialises")
    }
}

/// One regression found by [`gate_wall_times`].
#[derive(Clone, Debug, PartialEq)]
pub struct Regression {
    /// Tier label.
    pub label: String,
    /// Which timing field regressed.
    pub metric: &'static str,
    /// Committed baseline, milliseconds.
    pub baseline_ms: f64,
    /// Current run, milliseconds.
    pub current_ms: f64,
}

/// The CI smoke gate: compares current assignment wall times against a
/// committed baseline, flagging any tier whose `sync_ms` grew by more than
/// `tolerance` (e.g. `0.25` = +25%). Tiers present on only one side are
/// ignored (the smoke run measures a subset). Timings under two
/// milliseconds are skipped — at that scale scheduler jitter, not code,
/// dominates.
pub fn gate_wall_times(
    baseline: &AssignBench,
    current: &AssignBench,
    tolerance: f64,
) -> Vec<Regression> {
    let mut out = Vec::new();
    for cur in &current.tiers {
        let Some(base) = baseline.tiers.iter().find(|t| t.label == cur.label) else {
            continue;
        };
        let (b, c) = (base.sync_ms, cur.sync_ms);
        if b >= 2.0 && c > b * (1.0 + tolerance) {
            out.push(Regression {
                label: cur.label.clone(),
                metric: "sync_ms",
                baseline_ms: b,
                current_ms: c,
            });
        }
    }
    out
}

/// The storage CI gate: like [`gate_wall_times`] but over the durability
/// tiers, matching on `(label, backend)` and flagging `deposit_ms` /
/// `recovery_ms` growth beyond `tolerance`. The same sub-2ms jitter floor
/// applies.
pub fn gate_store_times(
    baseline: &StoreBench,
    current: &StoreBench,
    tolerance: f64,
) -> Vec<Regression> {
    let mut out = Vec::new();
    for cur in &current.tiers {
        let Some(base) = baseline
            .tiers
            .iter()
            .find(|t| t.label == cur.label && t.backend == cur.backend)
        else {
            continue;
        };
        for (metric, b, c) in [
            ("deposit_ms", base.deposit_ms, cur.deposit_ms),
            ("recovery_ms", base.recovery_ms, cur.recovery_ms),
        ] {
            if b >= 2.0 && c > b * (1.0 + tolerance) {
                out.push(Regression {
                    label: format!("{}/{}", cur.label, cur.backend),
                    metric,
                    baseline_ms: b,
                    current_ms: c,
                });
            }
        }
    }
    out
}

/// The sim-kernel CI gate: like [`gate_wall_times`] but over the kernel
/// throughput tiers, matching on `(label, engine)` and flagging `wall_ms`
/// growth beyond `tolerance`. The same sub-2ms jitter floor applies.
pub fn gate_sim_times(baseline: &SimBench, current: &SimBench, tolerance: f64) -> Vec<Regression> {
    let mut out = Vec::new();
    for cur in &current.tiers {
        let Some(base) = baseline
            .tiers
            .iter()
            .find(|t| t.label == cur.label && t.engine == cur.engine)
        else {
            continue;
        };
        if base.wall_ms >= 2.0 && cur.wall_ms > base.wall_ms * (1.0 + tolerance) {
            out.push(Regression {
                label: format!("{}/{}", cur.label, cur.engine),
                metric: "wall_ms",
                baseline_ms: base.wall_ms,
                current_ms: cur.wall_ms,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tier(label: &str, sync_ms: f64) -> AssignTier {
        AssignTier {
            label: label.to_owned(),
            users: 100,
            hosts: 6,
            servers: 3,
            matrix_build_ms: 0.1,
            init_ms: 0.1,
            classic_ms: Some(1.0),
            sync_ms,
            speedup_vs_classic: Some(1.0),
            passes: 3,
            moves: 10,
            rho_max: 0.9,
            rho_spread: 0.1,
            total_cost: 1234.5,
            digest: "deadbeef".into(),
        }
    }

    fn doc(tiers: Vec<AssignTier>) -> AssignBench {
        AssignBench {
            schema_version: BENCH_SCHEMA_VERSION,
            experiment: "assign-scale".into(),
            seed: 42,
            tiers,
        }
    }

    #[test]
    fn report_renders_both_forms() {
        let mut r = Report::new("demo", "DEMO — heading");
        r.note("a prose line");
        let mut t = Table::new(vec!["k", "v"]);
        t.row(vec!["a".into(), "1".into()]);
        r.table("pairs", &t);
        r.kv("totals", vec![("sum".into(), "1".into())]);
        let text = r.render_text();
        assert!(text.contains("DEMO — heading"));
        assert!(text.contains("a prose line"));
        assert!(text.contains("sum = 1"));
        let json = r.render_json();
        assert!(json.contains("\"experiment\": \"demo\""));
        let back: Report = serde_json::from_str(&json).expect("round-trip");
        assert_eq!(back.sections.len(), 3);
        assert_eq!(back.render_text(), text);
    }

    #[test]
    fn bench_doc_round_trips() {
        let d = doc(vec![tier("fig1", 5.0)]);
        let json = d.to_json();
        let back: AssignBench = serde_json::from_str(&json).expect("round-trip");
        assert_eq!(back.schema_version, BENCH_SCHEMA_VERSION);
        assert_eq!(back.tiers.len(), 1);
        assert_eq!(back.tiers[0].label, "fig1");
        assert_eq!(back.tiers[0].classic_ms, Some(1.0));
    }

    #[test]
    fn gate_flags_only_real_regressions() {
        let base = doc(vec![tier("a", 10.0), tier("b", 1.0)]);
        // Tier `a` regressed 50%; tier `b` is under the jitter floor;
        // tier `c` has no baseline.
        let cur = doc(vec![tier("a", 15.0), tier("b", 1.9), tier("c", 99.0)]);
        let regressions = gate_wall_times(&base, &cur, 0.25);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].label, "a");
        assert_eq!(regressions[0].metric, "sync_ms");
    }

    #[test]
    fn gate_accepts_within_tolerance() {
        let base = doc(vec![tier("a", 10.0)]);
        let cur = doc(vec![tier("a", 12.0)]);
        assert!(gate_wall_times(&base, &cur, 0.25).is_empty());
    }

    fn store_tier(label: &str, backend: &str, deposit_ms: f64, recovery_ms: f64) -> StoreTier {
        StoreTier {
            label: label.to_owned(),
            backend: backend.to_owned(),
            users: 100,
            messages: 10_000,
            deposit_ms,
            deposits_per_sec: 1.0e6,
            recovery_ms,
            replayed_records: if backend == "wal" { 10_000 } else { 0 },
            recovered_messages: 10_000,
            drain_ms: 1.0,
            wal_bytes: if backend == "wal" { 1 << 20 } else { 0 },
        }
    }

    fn store_doc(tiers: Vec<StoreTier>) -> StoreBench {
        StoreBench {
            schema_version: BENCH_SCHEMA_VERSION,
            experiment: "store-durability".into(),
            seed: 42,
            tiers,
        }
    }

    #[test]
    fn store_doc_round_trips() {
        let d = store_doc(vec![
            store_tier("smoke-10k", "mem", 3.0, 0.1),
            store_tier("smoke-10k", "wal", 9.0, 4.0),
        ]);
        let back: StoreBench = serde_json::from_str(&d.to_json()).expect("round-trip");
        assert_eq!(back.schema_version, BENCH_SCHEMA_VERSION);
        assert_eq!(back.tiers.len(), 2);
        assert_eq!(back.tiers[1].backend, "wal");
        assert_eq!(d.to_json(), back.to_json());
    }

    #[test]
    fn store_gate_matches_on_label_and_backend() {
        let base = store_doc(vec![
            store_tier("a", "mem", 10.0, 0.1),
            store_tier("a", "wal", 10.0, 10.0),
        ]);
        // mem regresses on deposit, wal on recovery; the sub-2ms mem
        // recovery baseline is jitter-floored; tier `b` has no baseline.
        let cur = store_doc(vec![
            store_tier("a", "mem", 15.0, 1.9),
            store_tier("a", "wal", 10.0, 15.0),
            store_tier("b", "wal", 99.0, 99.0),
        ]);
        let regressions = gate_store_times(&base, &cur, 0.25);
        assert_eq!(regressions.len(), 2);
        assert_eq!(regressions[0].label, "a/mem");
        assert_eq!(regressions[0].metric, "deposit_ms");
        assert_eq!(regressions[1].label, "a/wal");
        assert_eq!(regressions[1].metric, "recovery_ms");
    }

    #[test]
    fn store_gate_accepts_within_tolerance() {
        let base = store_doc(vec![store_tier("a", "wal", 10.0, 10.0)]);
        let cur = store_doc(vec![store_tier("a", "wal", 12.0, 12.0)]);
        assert!(gate_store_times(&base, &cur, 0.25).is_empty());
    }

    fn sim_tier(label: &str, engine: &str, wall_ms: f64) -> SimTier {
        SimTier {
            label: label.to_owned(),
            engine: engine.to_owned(),
            pending: 50_000,
            actors: 0,
            events: 1_000_000,
            wall_ms,
            events_per_sec: 1_000_000.0 / (wall_ms / 1_000.0),
            digest: "0xdeadbeefdeadbeef".into(),
        }
    }

    fn sim_doc(tiers: Vec<SimTier>) -> SimBench {
        SimBench {
            schema_version: BENCH_SCHEMA_VERSION,
            experiment: "sim-kernel".into(),
            seed: 42,
            peak_rss_kib: 123_456,
            tiers,
        }
    }

    #[test]
    fn sim_doc_round_trips() {
        let d = sim_doc(vec![
            sim_tier("hold-smoke-1m", "calendar", 100.0),
            sim_tier("actor-smoke-500k", "calendar", 700.0),
        ]);
        let back: SimBench = serde_json::from_str(&d.to_json()).expect("round-trip");
        assert_eq!(back.schema_version, BENCH_SCHEMA_VERSION);
        assert_eq!(back.tiers.len(), 2);
        assert_eq!(back.tiers[1].label, "actor-smoke-500k");
        assert_eq!(back.peak_rss_kib, 123_456);
        assert_eq!(d.to_json(), back.to_json());
    }

    #[test]
    fn sim_gate_matches_on_label_and_engine() {
        let base = sim_doc(vec![
            sim_tier("a", "calendar", 10.0),
            sim_tier("a", "other", 70.0),
        ]);
        // `a/calendar` regresses; `a/other` is a different row and is
        // fine; tier `b` has no baseline entry and a sub-2ms tier is
        // floored.
        let cur = sim_doc(vec![
            sim_tier("a", "calendar", 15.0),
            sim_tier("a", "other", 70.0),
            sim_tier("b", "calendar", 99.0),
            sim_tier("floored", "calendar", 1.9),
        ]);
        let regressions = gate_sim_times(&base, &cur, 0.25);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].label, "a/calendar");
        assert_eq!(regressions[0].metric, "wall_ms");
    }

    #[test]
    fn sim_gate_accepts_within_tolerance() {
        let base = sim_doc(vec![sim_tier("a", "calendar", 10.0)]);
        let cur = sim_doc(vec![sim_tier("a", "calendar", 12.0)]);
        assert!(gate_sim_times(&base, &cur, 0.25).is_empty());
    }
}
