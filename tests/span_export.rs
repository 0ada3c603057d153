//! Deterministic telemetry export, end to end: a seeded scenario exports
//! byte-identical JSONL on every run, the `lems-obs` inspector's audit of
//! the dump agrees with the in-process span audit, and the committed
//! golden dump (`GOLDEN_spans.jsonl`) stays parseable under the current
//! schema *and* regenerable bit-for-bit — so the exporter, the inspector,
//! and the simulator can never silently drift apart.

use lems_check::scenarios::{Scenario, ScenarioOutcome};
use lems_obs::inspect::Dump;
use lems_sim::span::audit_spans;

fn run(name: &str, seed: u64) -> ScenarioOutcome {
    Scenario::named(name)
        .unwrap_or_else(|| panic!("no scenario `{name}`"))
        .run(seed)
}

fn export(o: &ScenarioOutcome) -> String {
    o.export_jsonl().expect("scenario telemetry must export")
}

/// The acceptance criterion: same seed ⇒ byte-identical bytes, and the
/// dump parses and audits clean on its own (no access to the run).
#[test]
fn seeded_export_is_byte_identical_across_runs() {
    let a = export(&run("chaos-lossy", 3));
    let b = export(&run("chaos-lossy", 3));
    assert_eq!(a, b, "same seed must export byte-identical JSONL");

    let dump = Dump::parse(&a).expect("dump parses");
    assert_eq!(dump.run, "chaos-lossy");
    assert_eq!(dump.seed, 3);
    assert!(!dump.spans.is_empty() && !dump.counters.is_empty());
    let report = dump.audit(true);
    assert!(report.is_clean(), "{:?}", report.violations);
}

/// The exported evidence supports the same verdict as the live run: the
/// inspector-side span audit reproduces the in-process report exactly.
#[test]
fn exported_audit_matches_in_process_audit() {
    let o = run("chaos-partition", 7);
    assert!(o.is_clean(), "{:?}", o.violations);
    let dump = Dump::parse(&export(&o)).expect("dump parses");
    let report = dump.audit(true);
    assert!(report.is_clean(), "{:?}", report.violations);
    let live = audit_spans(&o.deployment.spans.borrow(), true);
    assert_eq!(report.opened, live.opened);
    assert_eq!(report.retrieved, live.retrieved);
    assert_eq!(report.bounced, live.bounced);
    assert_eq!(report.checks_done, live.checks_done);
    assert_eq!(report.retransmits, live.retransmits);
}

/// Golden-schema gate (mirrors `bench_schema.rs`): the committed dump
/// must parse under the current schema version, audit clean, and be
/// exactly what the current code regenerates for the same seed.
#[test]
fn committed_golden_dump_is_current_and_regenerable() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/GOLDEN_spans.jsonl");
    let committed = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let dump = Dump::parse(&committed).expect("golden dump must parse with the current schema");
    assert_eq!(dump.run, "steady");
    assert!(dump.audit(true).is_clean());

    let fresh = export(&run("steady", 3));
    assert_eq!(
        fresh, committed,
        "schema or telemetry drift: regenerate with \
         `cargo run -p lems-check -- audit steady --trace-out GOLDEN_spans.jsonl`"
    );
}

/// Golden gate for the crash/recovery export: the committed
/// `durable-torn-tail` dump carries the schema-v2 `Recovery` line (replay
/// counts, torn bytes, zero loss) and is regenerable bit-for-bit.
#[test]
fn committed_recovery_dump_is_current_and_regenerable() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/GOLDEN_spans_recovery.jsonl");
    let committed = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let dump = Dump::parse(&committed).expect("golden dump must parse with the current schema");
    assert_eq!(dump.run, "durable-torn-tail");
    assert!(dump.audit(true).is_clean());
    assert_eq!(dump.recoveries.len(), 1, "one crash, one recovery line");
    let r = &dump.recoveries[0];
    assert_eq!(r.backend, "wal");
    assert!(r.replayed_records > 0);
    assert!(
        r.torn_bytes > 0,
        "the torn tail must be visible as evidence"
    );
    assert_eq!(r.lost_messages, 0, "acked deposits survive the torn tail");

    let fresh = export(&run("durable-torn-tail", 3));
    assert_eq!(
        fresh, committed,
        "schema or telemetry drift: regenerate with \
         `cargo run -p lems-check -- audit durable-torn-tail --trace-out \
         GOLDEN_spans_recovery.jsonl`"
    );
}

/// Golden gate for the profiler export: the committed `chaos-partition`
/// dump carries schema-v3 `Profile` lines (dispatch attribution for both
/// actor kinds plus queue aggregates) and is regenerable bit-for-bit —
/// so the profiler's sample set can never drift silently.
#[test]
fn committed_profile_dump_is_current_and_regenerable() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/GOLDEN_profile.jsonl");
    let committed = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let dump = Dump::parse(&committed).expect("golden dump must parse with the current schema");
    assert_eq!(dump.run, "chaos-partition");
    assert!(dump.audit(true).is_clean());
    assert!(
        !dump.profile.is_empty(),
        "the profiler must have exported samples"
    );
    for cell in ["server/deliver", "host/deliver"] {
        assert!(
            dump.profile
                .iter()
                .any(|p| p.scope == "dispatch" && p.name == cell),
            "expected a dispatch attribution cell named {cell}"
        );
    }
    assert!(
        dump.profile.iter().any(|p| p.scope == "queue"),
        "expected calendar-queue aggregate samples"
    );
    assert!(
        dump.profile.iter().all(|p| p.scope != "wall"),
        "wall-clock readings live in the side channel, never in the export"
    );

    let fresh = export(&run("chaos-partition", 3));
    assert_eq!(
        fresh, committed,
        "schema or telemetry drift: regenerate with \
         `cargo run -p lems-check -- audit chaos-partition --trace-out \
         GOLDEN_profile.jsonl`"
    );
}
