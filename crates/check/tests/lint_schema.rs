//! Golden-schema test for the committed `GOLDEN_lint.json` document at
//! the repository root (the `bench_schema.rs` pattern): the file must
//! deserialize into the current [`lems_check::report`] types, carry the
//! current schema version, engine id, and rule-version table, and
//! survive a serde round trip — so the lint emitter and the committed
//! golden report (which CI's differential job diffs against) can never
//! silently drift apart.

use std::fs;
use std::path::PathBuf;

use lems_check::lint::rule_versions;
use lems_check::report::{LintDoc, LINT_ENGINE, LINT_SCHEMA_VERSION};

fn golden() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../GOLDEN_lint.json");
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn committed_golden_lint_matches_schema() {
    let doc: LintDoc = serde_json::from_str(&golden())
        .expect("GOLDEN_lint.json must deserialize into report::LintDoc");
    assert_eq!(doc.schema_version, LINT_SCHEMA_VERSION);
    assert_eq!(doc.engine, LINT_ENGINE);
    assert!(doc.files_scanned > 50);
    // Generated with --no-allow: the document vets raw findings,
    // independent of the allowlist.
    assert_eq!(doc.allow_entries, 0);
    assert!(doc.stale_allows.is_empty());

    // The rule-version table in the golden must match the binary's: a
    // version bump without a regenerated golden is exactly the drift
    // this test exists to catch.
    assert_eq!(doc.rule_versions.len(), rule_versions().len());
    for &(rule, version) in rule_versions() {
        assert_eq!(
            doc.rule_versions.get(rule),
            Some(&version),
            "golden pins {rule} at a different version"
        );
    }

    // Every committed finding names a workspace-relative path and a
    // real rule.
    let known: Vec<&str> = rule_versions().iter().map(|&(r, _)| r).collect();
    for f in &doc.findings {
        assert!(f.path.starts_with("crates/"), "{}", f.path);
        assert!(f.line > 0);
        assert!(known.contains(&f.rule.as_str()), "unknown rule {}", f.rule);
    }
}

#[test]
fn golden_lint_round_trips() {
    let doc: LintDoc = serde_json::from_str(&golden()).expect("deserialize");
    let again = doc.render_json();
    let back: LintDoc = serde_json::from_str(&again).expect("round trip");
    assert_eq!(back.schema_version, doc.schema_version);
    assert_eq!(back.findings.len(), doc.findings.len());
    assert_eq!(back.rule_versions, doc.rule_versions);
}
