//! Golden-schema tests for the committed `BENCH_assign.json` /
//! `BENCH_getmail.json` documents at the repository root: the files must
//! deserialize into the current [`lems_bench::emit`] types, carry the
//! current schema version and the expected tiers, and survive a
//! serde round trip — so the emitter and the committed baselines (which
//! CI's perf gate compares against) can never silently drift apart.

use std::fs;
use std::path::PathBuf;

use lems_bench::emit::{AssignBench, GetMailBench, SimBench, StoreBench, BENCH_SCHEMA_VERSION};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(name: &str) -> String {
    let path = repo_root().join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn committed_assign_bench_matches_schema() {
    let doc: AssignBench = serde_json::from_str(&read("BENCH_assign.json"))
        .expect("BENCH_assign.json must deserialize into emit::AssignBench");
    assert_eq!(doc.schema_version, BENCH_SCHEMA_VERSION);
    assert_eq!(doc.experiment, "assign-scale");
    assert!(!doc.tiers.is_empty(), "need at least one tier");

    let labels: Vec<&str> = doc.tiers.iter().map(|t| t.label.as_str()).collect();
    // The committed baseline is the full ladder; the CI smoke run gates
    // against the tiers it shares with it.
    for required in ["fig1", "smoke-50k", "1m"] {
        assert!(labels.contains(&required), "missing tier {required}");
    }

    for t in &doc.tiers {
        assert!(t.users > 0 && t.hosts > 0 && t.servers > 0, "{}", t.label);
        assert!(
            t.sync_ms >= 0.0 && t.matrix_build_ms >= 0.0,
            "{}: negative wall time",
            t.label
        );
        assert!(
            t.passes >= 1,
            "{}: solver must run at least one pass",
            t.label
        );
        assert!(
            (0.0..1.0).contains(&t.rho_max),
            "{}: rho_max {} out of range",
            t.label,
            t.rho_max
        );
        assert!(
            t.rho_spread >= 0.0 && t.rho_spread <= t.rho_max,
            "{}",
            t.label
        );
        assert!(
            t.total_cost.is_finite() && t.total_cost > 0.0,
            "{}",
            t.label
        );
        assert_eq!(
            t.digest.len(),
            16,
            "{}: digest must be a 16-hex-digit FNV-1a fingerprint",
            t.label
        );
        assert!(
            t.digest.chars().all(|c| c.is_ascii_hexdigit()),
            "{}: digest not hex",
            t.label
        );
    }

    let m = doc.tiers.iter().find(|t| t.label == "1m").expect("1m tier");
    assert_eq!(m.users, 1_000_000);
    assert_eq!(m.hosts, 10_000);
    assert_eq!(m.servers, 500);
    assert!(
        m.classic_ms.is_none(),
        "the classic solver is not run at the million-user tier"
    );

    // Round trip: emitter output re-parses to an identical document.
    let doc2: AssignBench = serde_json::from_str(&doc.to_json()).expect("round trip");
    assert_eq!(doc2.schema_version, doc.schema_version);
    assert_eq!(doc2.tiers.len(), doc.tiers.len());
    assert_eq!(doc.to_json(), doc2.to_json());
}

#[test]
fn committed_getmail_bench_matches_schema() {
    let doc: GetMailBench = serde_json::from_str(&read("BENCH_getmail.json"))
        .expect("BENCH_getmail.json must deserialize into emit::GetMailBench");
    assert_eq!(doc.schema_version, BENCH_SCHEMA_VERSION);
    assert_eq!(doc.experiment, "getmail-scale");
    assert!(!doc.tiers.is_empty());

    for t in &doc.tiers {
        assert!(t.users > 0 && t.hosts > 0 && t.servers > 0, "{}", t.label);
        assert!(t.list_len >= 1, "{}", t.label);
        assert!(t.build_ms >= 0.0, "{}", t.label);
        // The paper's steady-state contract: GetMail needs ≈ one poll.
        assert!(
            t.polls_mean >= 1.0 && t.polls_mean < 1.5,
            "{}: polls_mean {} violates the ≈1-poll contract",
            t.label,
            t.polls_mean
        );
        assert_eq!(t.digest.len(), 16, "{}", t.label);
    }

    let doc2: GetMailBench = serde_json::from_str(&doc.to_json()).expect("round trip");
    assert_eq!(doc.to_json(), doc2.to_json());
}

#[test]
fn committed_store_bench_matches_schema() {
    let doc: StoreBench = serde_json::from_str(&read("BENCH_store.json"))
        .expect("BENCH_store.json must deserialize into emit::StoreBench");
    assert_eq!(doc.schema_version, BENCH_SCHEMA_VERSION);
    assert_eq!(doc.experiment, "store-durability");
    assert!(!doc.tiers.is_empty(), "need at least one tier");

    let labels: Vec<(&str, &str)> = doc
        .tiers
        .iter()
        .map(|t| (t.label.as_str(), t.backend.as_str()))
        .collect();
    // The committed baseline is the full ladder (mem before wal within a
    // tier); CI's smoke run gates against the smoke-100k pair.
    for required in [
        ("smoke-100k", "mem"),
        ("smoke-100k", "wal"),
        ("1m", "mem"),
        ("1m", "wal"),
    ] {
        assert!(labels.contains(&required), "missing tier {required:?}");
    }

    for t in &doc.tiers {
        assert!(t.users > 0 && t.messages > 0, "{}/{}", t.label, t.backend);
        assert!(
            t.deposit_ms >= 0.0 && t.recovery_ms >= 0.0 && t.drain_ms >= 0.0,
            "{}/{}: negative wall time",
            t.label,
            t.backend
        );
        assert!(
            t.deposits_per_sec > 0.0,
            "{}/{}: deposits/sec must be positive",
            t.label,
            t.backend
        );
        // The durability contract the bench asserts at run time, visible
        // in the document: everything deposited is there after recovery.
        assert_eq!(
            t.recovered_messages, t.messages,
            "{}/{}",
            t.label, t.backend
        );
        match t.backend.as_str() {
            "mem" => {
                assert_eq!(t.replayed_records, 0, "{}: RAM replays nothing", t.label);
                assert_eq!(t.wal_bytes, 0, "{}: RAM logs nothing", t.label);
            }
            "wal" => {
                assert!(t.replayed_records > 0, "{}: WAL must replay", t.label);
                assert!(t.wal_bytes > 0, "{}: WAL must log", t.label);
            }
            other => panic!("unknown backend {other}"),
        }
    }

    let doc2: StoreBench = serde_json::from_str(&doc.to_json()).expect("round trip");
    assert_eq!(doc.to_json(), doc2.to_json());
}

#[test]
fn committed_sim_bench_matches_schema() {
    let doc: SimBench = serde_json::from_str(&read("BENCH_sim.json"))
        .expect("BENCH_sim.json must deserialize into emit::SimBench");
    assert_eq!(doc.schema_version, BENCH_SCHEMA_VERSION);
    assert_eq!(doc.experiment, "sim-kernel");
    assert!(!doc.tiers.is_empty(), "need at least one tier");

    let pairs: Vec<(&str, &str)> = doc
        .tiers
        .iter()
        .map(|t| (t.label.as_str(), t.engine.as_str()))
        .collect();
    // The committed baseline is the full ladder; CI's smoke run gates
    // against the smoke tiers it shares with it.
    for required in [
        ("hold-smoke-1m", "calendar"),
        ("hold-10m-deep", "calendar"),
        ("actor-smoke-500k", "calendar"),
        ("actor-10m", "calendar"),
    ] {
        assert!(pairs.contains(&required), "missing tier {required:?}");
    }

    for t in &doc.tiers {
        assert!(t.events > 0, "{}/{}", t.label, t.engine);
        assert!(t.wall_ms >= 0.0, "{}/{}", t.label, t.engine);
        assert!(t.events_per_sec > 0.0, "{}/{}", t.label, t.engine);
        assert!(
            t.digest.starts_with("0x") && t.digest.len() == 18,
            "{}/{}: digest must be a 0x-prefixed 16-hex fingerprint",
            t.label,
            t.engine
        );
    }

    // One row per tier: the gate matches rows on `(label, engine)`.
    for (i, t) in doc.tiers.iter().enumerate() {
        assert!(
            !doc.tiers[..i]
                .iter()
                .any(|u| (&u.label, &u.engine) == (&t.label, &t.engine)),
            "{}/{} appears twice",
            t.label,
            t.engine
        );
    }

    let doc2: SimBench = serde_json::from_str(&doc.to_json()).expect("round trip");
    assert_eq!(doc.to_json(), doc2.to_json());
}

#[test]
fn assign_and_getmail_baselines_agree_on_seed_and_tiers() {
    let a: AssignBench = serde_json::from_str(&read("BENCH_assign.json")).expect("assign");
    let g: GetMailBench = serde_json::from_str(&read("BENCH_getmail.json")).expect("getmail");
    assert_eq!(a.seed, g.seed, "both documents come from one run");
    let al: Vec<&str> = a.tiers.iter().map(|t| t.label.as_str()).collect();
    let gl: Vec<&str> = g.tiers.iter().map(|t| t.label.as_str()).collect();
    assert_eq!(al, gl, "tier ladders must match");
}
