//! Machine-readable lint reports.
//!
//! Mirrors the schema-versioned emit pattern established by
//! `lems-bench`'s `emit` module: a serde document with an explicit
//! `schema_version` field so downstream consumers (the CI differential
//! step, dashboards) can detect format drift, rendered either as
//! pretty-printed JSON (`--json`) or as GitHub Actions error
//! annotations (`--github`).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::lint::LintReport;

/// Schema version of the JSON lint document. Bump on any breaking
/// change to the field layout below. v3: engine `lint-v4` (no flow
/// layer), two rules fewer in `rule_versions`, no `timing` block.
pub const LINT_SCHEMA_VERSION: u32 = 3;

/// Engine identifier; bumps when the analysis layers change shape.
pub const LINT_ENGINE: &str = "lint-v4";

/// One finding in the JSON document.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Finding {
    /// Rule id, e.g. `no-panic`.
    pub rule: String,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: u32,
    /// The offending source excerpt.
    pub excerpt: String,
    /// Rule-specific explanation of why this site was flagged.
    pub note: String,
}

/// The full schema-versioned lint document.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LintDoc {
    /// Schema version ([`LINT_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Engine identifier; bumps when the analysis layers change shape.
    pub engine: String,
    /// Rule id → rule version, for allowlist `rule@version` pinning.
    pub rule_versions: BTreeMap<String, u32>,
    /// Number of files the pass scanned.
    pub files_scanned: usize,
    /// Number of (non-comment) allowlist entries in force; 0 when the
    /// allowlist was disabled (`--no-allow`).
    pub allow_entries: usize,
    /// Findings, in deterministic path/line order.
    pub findings: Vec<Finding>,
    /// Allowlist entries that matched nothing (stale: must be removed).
    pub stale_allows: Vec<String>,
}

impl LintDoc {
    /// Builds the document from a finished lint pass. Every field is a
    /// function of the sources and the allowlist, so the rendering is
    /// byte-stable and diffable against `GOLDEN_lint.json`.
    pub fn from_report(report: &LintReport, allow_entries: usize) -> LintDoc {
        LintDoc {
            schema_version: LINT_SCHEMA_VERSION,
            engine: LINT_ENGINE.to_string(),
            rule_versions: crate::lint::rule_versions()
                .iter()
                .map(|&(rule, version)| (rule.to_string(), version))
                .collect(),
            files_scanned: report.files_scanned,
            allow_entries,
            findings: report
                .violations
                .iter()
                .map(|v| Finding {
                    rule: v.rule.to_string(),
                    path: v.path.clone(),
                    line: v.line,
                    excerpt: v.excerpt.clone(),
                    note: v.note.clone(),
                })
                .collect(),
            stale_allows: report.stale_allows.clone(),
        }
    }

    /// Renders the document as pretty-printed JSON (stable field and
    /// key order, so the output is diffable against a golden report).
    pub fn render_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_string());
        s.push('\n');
        s
    }

    /// Renders findings as GitHub Actions workflow commands
    /// (`::error file=…,line=…::…`), one per line, so violations show
    /// up inline on the PR diff. Stale allowlist entries render as
    /// file-less errors.
    pub fn render_github(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for f in &self.findings {
            // Writing to a String cannot fail; ignore the fmt::Result.
            let _ = writeln!(
                out,
                "::error file={},line={}::[{}] {} ({})",
                f.path, f.line, f.rule, f.excerpt, f.note
            );
        }
        for stale in &self.stale_allows {
            let _ = writeln!(out, "::error::stale lint-allow entry: {stale}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::{LintReport, Violation};

    fn sample() -> LintDoc {
        let report = LintReport {
            violations: vec![Violation {
                path: "crates/x/src/lib.rs".to_string(),
                line: 7,
                rule: "no-panic",
                excerpt: "foo.unwrap()".to_string(),
                note: "panic site in non-test library code".to_string(),
            }],
            stale_allows: vec!["no-panic@2 gone.rs nothing".to_string()],
            files_scanned: 3,
        };
        LintDoc::from_report(&report, 2)
    }

    #[test]
    fn json_round_trips_with_schema_version_and_findings() {
        let doc = sample();
        let json = doc.render_json();
        let back: LintDoc = serde_json::from_str(&json).expect("valid json");
        assert_eq!(back.schema_version, LINT_SCHEMA_VERSION);
        assert_eq!(back.engine, LINT_ENGINE);
        assert_eq!(back.findings[0].rule, "no-panic");
        assert_eq!(back.findings[0].line, 7);
        assert_eq!(back.files_scanned, 3);
        assert_eq!(back.allow_entries, 2);
        assert!(!back.rule_versions.is_empty());
        assert_eq!(back.stale_allows.len(), 1);
    }

    #[test]
    fn github_annotations_name_file_and_line() {
        let doc = sample();
        let gh = doc.render_github();
        assert!(gh.contains("::error file=crates/x/src/lib.rs,line=7::[no-panic]"));
        assert!(gh.contains("::error::stale lint-allow entry:"));
    }
}
