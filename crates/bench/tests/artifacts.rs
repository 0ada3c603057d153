//! `repro <name>` prints exactly its committed `artifacts/repro-<name>.txt`.
//!
//! The experiments are pure functions of their seeds, so the artifacts are
//! goldens: a change that moves a table moves a committed file, in the same
//! diff. Regenerating one is `repro x > artifacts/repro-x.txt`.

use std::path::{Path, PathBuf};
use std::process::Command;

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

/// Runs `repro args` and compares its stdout with `expected` byte for
/// byte, naming the first line that differs.
fn assert_prints(args: &[&str], expected: &[u8], what: &str) {
    let out = Command::new(REPRO)
        .args(args)
        .output()
        .expect("binary starts");
    let exe = format!("repro {}", args.join(" "));
    assert!(
        out.status.success(),
        "{exe} exited with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    if out.stdout == expected {
        return;
    }
    let (got, want) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(expected),
    );
    let mut lines = got.lines().zip(want.lines()).enumerate();
    match lines.find(|(_, (g, w))| g != w) {
        Some((i, (g, w))) => panic!(
            "{exe} differs from {what} at line {}:\n  printed:   {g}\n  committed: {w}",
            i + 1
        ),
        None => panic!(
            "{exe} printed {} lines and {what} has {}; they agree up to the shorter one's end",
            got.lines().count(),
            want.lines().count()
        ),
    }
}

fn artifacts_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../artifacts")
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The committed output of `repro name`.
fn artifact(name: &str) -> Vec<u8> {
    read(&artifacts_dir().join(format!("repro-{name}.txt")))
}

/// The artifact files in the order the shell expands `artifacts/repro-*.txt`.
fn artifact_paths() -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(artifacts_dir())
        .expect("artifacts/ exists")
        .map(|e| e.expect("directory entry").path())
        .collect();
    paths.sort();
    paths
}

macro_rules! artifact_tests {
    ($($(#[$attr:meta])* $test:ident => $name:literal,)*) => {$(
        $(#[$attr])*
        #[test]
        fn $test() {
            assert_prints(
                &[$name],
                &artifact($name),
                concat!("artifacts/repro-", $name, ".txt"),
            );
        }
    )*};
}

artifact_tests! {
    assign_ablate => "assign-ablate",
    attr_cost => "attr-cost",
    cache => "cache",
    fig1 => "fig1",
    fig2 => "fig2",
    getmail => "getmail",
    locindep => "locindep",
    mst_cost => "mst-cost",
    // The million-user tier takes tens of seconds unoptimised; CI runs this
    // file with `--release`.
    #[cfg_attr(debug_assertions, ignore = "slow in a debug build; run with --release")]
    scale => "scale",
    scorecard => "scorecard",
    table1_2 => "table1-2",
    table3 => "table3",
}

/// `repro` with no name prints every artifact back to back, in the order
/// the shell expands `artifacts/repro-*.txt`.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs the scale experiment; run with --release"
)]
fn all() {
    let expected: Vec<u8> = artifact_paths().iter().flat_map(|p| read(p)).collect();
    assert_prints(&[], &expected, "cat artifacts/repro-*.txt");
}

/// Several names print their artifacts back to back, in the order given.
#[test]
fn named_experiments_print_in_the_order_given() {
    let expected = [artifact("fig1"), artifact("table3")].concat();
    assert_prints(
        &["fig1", "table3"],
        &expected,
        "cat artifacts/repro-fig1.txt artifacts/repro-table3.txt",
    );
}

/// An unknown name runs nothing, exits 2 and lists every experiment.
#[test]
fn unknown_name_is_a_usage_error() {
    let out = Command::new(REPRO)
        .arg("nope")
        .output()
        .expect("binary starts");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let usage = String::from_utf8_lossy(&out.stderr);
    let names: Vec<String> = artifact_paths()
        .iter()
        .map(|p| {
            let stem = p.file_stem().expect("file name").to_string_lossy();
            stem.strip_prefix("repro-")
                .expect("repro-* file")
                .to_owned()
        })
        .collect();
    assert_eq!(names.len(), 12, "{names:?}");
    for name in &names {
        assert!(
            usage.lines().any(|l| l.trim() == name),
            "usage does not list `{name}`:\n{usage}"
        );
    }
}
