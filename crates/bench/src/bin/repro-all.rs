//! Convenience: run every repro experiment in sequence (the binaries
//! themselves, in the order `cat artifacts/repro-*.txt` lists them), so
//! `repro-all | diff - <(cat artifacts/repro-*.txt)` is empty exactly when
//! every artifact is current.

use std::process::Command;

fn main() {
    let bins = [
        "repro-assign-ablate",
        "repro-attr-cost",
        "repro-cache",
        "repro-fig1",
        "repro-fig2",
        "repro-getmail",
        "repro-locindep",
        "repro-mst-cost",
        "repro-scale",
        "repro-scorecard",
        "repro-table1-2",
        "repro-table3",
    ];
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("bin dir");
    let mut failed = Vec::new();
    for bin in bins {
        match Command::new(dir.join(bin)).status() {
            Ok(s) if s.success() => {}
            other => {
                eprintln!("!! {bin} failed: {other:?}");
                failed.push(bin);
            }
        }
    }
    if !failed.is_empty() {
        eprintln!("\nfailed experiments: {failed:?}");
        std::process::exit(1);
    }
}
