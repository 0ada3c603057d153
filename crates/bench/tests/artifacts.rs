//! Every `repro-*` binary prints exactly its committed `artifacts/<name>.txt`.
//!
//! The experiments are pure functions of their seeds, so the artifacts are
//! goldens: a change that moves a table moves a committed file, in the same
//! diff. Regenerating one is `repro-x > artifacts/repro-x.txt`.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs `exe` with no arguments and compares its stdout with `expected`
/// byte for byte, naming the first line that differs.
fn assert_prints(exe: &str, expected: &[u8], what: &str) {
    let out = Command::new(exe).output().expect("binary starts");
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

macro_rules! artifact_tests {
    ($($(#[$attr:meta])* $test:ident => $bin:literal,)*) => {$(
        $(#[$attr])*
        #[test]
        fn $test() {
            assert_prints(
                env!(concat!("CARGO_BIN_EXE_", $bin)),
                &read(&artifacts_dir().join(concat!($bin, ".txt"))),
                concat!("artifacts/", $bin, ".txt"),
            );
        }
    )*};
}

artifact_tests! {
    assign_ablate => "repro-assign-ablate",
    attr_cost => "repro-attr-cost",
    cache => "repro-cache",
    fig1 => "repro-fig1",
    fig2 => "repro-fig2",
    getmail => "repro-getmail",
    locindep => "repro-locindep",
    mst_cost => "repro-mst-cost",
    // The million-user tier takes tens of seconds unoptimised; CI runs this
    // file with `--release`.
    #[cfg_attr(debug_assertions, ignore = "slow in a debug build; run with --release")]
    scale => "repro-scale",
    scorecard => "repro-scorecard",
    table1_2 => "repro-table1-2",
    table3 => "repro-table3",
}

/// `repro-all` prints the artifacts back to back, in the order the shell
/// expands `artifacts/repro-*.txt`.
#[test]
#[cfg_attr(debug_assertions, ignore = "runs repro-scale; run with --release")]
fn all() {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(artifacts_dir())
        .expect("artifacts/ exists")
        .map(|e| e.expect("directory entry").path())
        .collect();
    paths.sort();
    let expected: Vec<u8> = paths.iter().flat_map(|p| read(p)).collect();
    assert_prints(
        env!("CARGO_BIN_EXE_repro-all"),
        &expected,
        "cat artifacts/repro-*.txt",
    );
}
