//! Every workload at `--smoke` scale, through the real command line: the
//! names the program prints are the names `BENCHMARK.json` declares, equal
//! seeds give equal digests, different seeds different ones, and a traced
//! run reproduces the untraced run's simulated results.

use std::collections::{BTreeMap, BTreeSet};
use std::process::{Command, Output};

use serde::Deserialize;

const EXE: &str = env!("CARGO_BIN_EXE_lems-benchmark");

#[derive(Deserialize)]
struct Named {
    name: String,
}

#[derive(Deserialize)]
struct Declared {
    name: String,
    unit: String,
}

#[derive(Deserialize)]
struct BenchmarkJson {
    workloads: Vec<Named>,
    end_to_end: Vec<Declared>,
    per_layer: Vec<Declared>,
}

#[derive(Deserialize)]
struct Metric {
    value: f64,
    unit: String,
}

#[derive(Deserialize)]
struct DriverLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Metric>,
}

#[derive(Deserialize)]
struct Detail {
    digest: String,
}

#[derive(Deserialize)]
struct WorkloadReport {
    correct: bool,
    digest: String,
    end_to_end: BTreeMap<String, Metric>,
}

#[derive(Deserialize)]
struct Report {
    workloads: BTreeMap<String, WorkloadReport>,
}

fn benchmark_json() -> BenchmarkJson {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn run(args: &[&str]) -> Output {
    Command::new(EXE)
        .args(args)
        .output()
        .expect("lems-benchmark starts")
}

fn all(seed: &str, file: &str) -> (Report, String) {
    let path = format!("{}/{file}", env!("CARGO_TARGET_TMPDIR"));
    let out = run(&[
        "all", "--smoke", "--reps", "1", "--seed", seed, "--out", &path,
    ]);
    assert!(
        out.status.success(),
        "all --smoke failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("report written");
    (serde_json::from_str(&text).expect("report parses"), path)
}

fn declared(list: &[Declared]) -> BTreeMap<&str, &str> {
    list.iter()
        .map(|d| (d.name.as_str(), d.unit.as_str()))
        .collect()
}

fn printed(metrics: &BTreeMap<String, Metric>) -> BTreeMap<&str, &str> {
    metrics
        .iter()
        .map(|(name, m)| (name.as_str(), m.unit.as_str()))
        .collect()
}

#[test]
fn names_match_benchmark_json_and_digests_follow_the_seed() {
    let bench = benchmark_json();
    let (a, path_a) = all("42", "a.json");
    let (again, path_again) = all("42", "again.json");
    let (other, _) = all("43", "other.json");

    let declared_workloads: BTreeSet<&str> =
        bench.workloads.iter().map(|w| w.name.as_str()).collect();
    let ran: BTreeSet<&str> = a.workloads.keys().map(String::as_str).collect();
    assert_eq!(ran, declared_workloads);

    for (name, w) in &a.workloads {
        assert!(w.correct, "{name}: output checks failed");
        assert_eq!(
            printed(&w.end_to_end),
            declared(&bench.end_to_end),
            "{name}: end-to-end metrics"
        );
        for (metric, m) in &w.end_to_end {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{name}: {metric} = {}, and an end-to-end metric is never 0",
                m.value
            );
        }
        assert_eq!(w.digest, again.workloads[name].digest, "{name}: same seed");
        assert_ne!(w.digest, other.workloads[name].digest, "{name}: other seed");
    }

    let same = run(&["compare", &path_a, &path_again]);
    assert!(
        !String::from_utf8_lossy(&same.stdout).contains("simulated results differ"),
        "equal seeds compare with equal digests"
    );
}

#[test]
fn traced_run_prints_every_layer_metric_and_the_same_simulated_results() {
    let bench = benchmark_json();
    for w in &bench.workloads {
        let mut digests = Vec::new();
        for trace in ["0", "1"] {
            let out = run(&[
                "--workload",
                &w.name,
                "--smoke",
                "--reps",
                "1",
                "--seed",
                "42",
                "--trace",
                trace,
            ]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(out.status.success(), "{} trace {trace}:\n{stdout}", w.name);
            let mut lines = stdout.lines().rev();
            let line: DriverLine =
                serde_json::from_str(lines.next().expect("a last line")).expect("result line");
            let detail = lines
                .next()
                .and_then(|l| l.strip_prefix("detail "))
                .expect("a detail line");
            let detail: Detail = serde_json::from_str(detail).expect("detail parses");
            assert!(line.correct && line.attempted >= 1 && line.failed == 0);
            let want = if trace == "1" {
                &bench.per_layer
            } else {
                &bench.end_to_end
            };
            assert_eq!(
                printed(&line.metrics),
                declared(want),
                "{} trace {trace}",
                w.name
            );
            digests.push(detail.digest);
        }
        assert_eq!(
            digests[0], digests[1],
            "{}: traced and untraced simulated results differ",
            w.name
        );
    }
}

/// `spec.rs` is the one place that names workloads, metrics, units,
/// directions and bounds; `BENCHMARK.json` is its printout.
#[test]
fn benchmark_json_is_the_programs_own_declaration() {
    let out = run(&["declare"]);
    assert!(out.status.success());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).trim(),
        committed.trim(),
        "regenerate with `lems-benchmark declare > BENCHMARK.json`"
    );
}

#[test]
fn failed_check_or_unknown_workload_exits_non_zero() {
    assert!(!run(&["--workload", "no-such-workload"]).status.success());
    assert!(!run(&["--workload", "s1-hotbox-1k", "--trace", "2"])
        .status
        .success());
}
