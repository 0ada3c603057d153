//! `lems-trace`'s command line: what it refuses, it refuses before it
//! reads the dump, with the usage text and a nonzero exit.

use std::process::{Command, Output};

fn lems_trace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lems-trace"))
        .args(args)
        .output()
        .expect("lems-trace runs")
}

fn golden() -> String {
    format!("{}/../../GOLDEN_spans.jsonl", env!("CARGO_MANIFEST_DIR"))
}

/// Asserts `out` is a refusal carrying `what` and the usage text.
fn refused(out: &Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "accepted: {stderr}");
    assert!(stderr.contains(what), "{stderr}");
    assert!(stderr.contains("usage: lems-trace"), "{stderr}");
    assert!(out.stdout.is_empty());
}

#[test]
fn an_unknown_command_is_refused_before_the_dump_is_read() {
    let out = lems_trace(&["bogus", "missing.jsonl"]);
    refused(&out, "unknown command `bogus`");
    assert!(!String::from_utf8_lossy(&out.stderr).contains("missing.jsonl"));
}

#[test]
fn an_unknown_option_is_refused_not_ignored() {
    let golden = golden();
    refused(
        &lems_trace(&["audit", &golden, "--open_ok"]),
        "unknown option `--open_ok`",
    );
    refused(
        &lems_trace(&["report", &golden, "--open-ok"]),
        "unknown option `--open-ok`",
    );
    refused(&lems_trace(&["timeline", &golden]), "needs --msg");
    refused(
        &lems_trace(&["report", &golden, "extra"]),
        "unexpected argument `extra`",
    );
}

#[test]
fn the_options_a_command_takes_are_accepted() {
    let golden = golden();
    for args in [
        vec!["audit", golden.as_str(), "--open-ok"],
        vec!["report", golden.as_str()],
        vec!["timeline", golden.as_str(), "--msg", "s0"],
    ] {
        let out = lems_trace(&args);
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
