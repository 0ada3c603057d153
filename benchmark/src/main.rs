//! `lems-benchmark` — the end-to-end mail-path benchmark.
//!
//! ```text
//! lems-benchmark --workload <name> [--seed N] [--seconds S | --reps N] [--trace 0|1]
//!                [--smoke] [--trace-out FILE]
//! lems-benchmark all [--seed N] [--seconds S | --reps N] [--smoke] [--out FILE]
//! lems-benchmark compare <a.json> <b.json>
//! lems-benchmark declare
//! ```
//!
//! A single-workload run prints every metric by name with its unit and, as
//! the last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. It exits
//! non-zero when an output check fails. `all` runs every workload, each in
//! a child process of its own, and writes one report; `compare` applies the
//! bounds to two reports; `declare` prints the text of `BENCHMARK.json`.

mod alloc;
mod compare;
mod rep;
mod report;
mod s1;
mod s3;
mod spans;
mod spec;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use rep::{fastest_sum, median, ratio, Rep};
use report::{Detail, DriverLine, Metric, Report, WorkloadReport};
use spans::Recorder;
use spec::{Kind, Workload, END_TO_END, PER_LAYER};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const DEFAULT_SEED: u64 = 42;
const DEFAULT_SECONDS: f64 = spec::RUN_SECONDS as f64;

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    reps: Option<usize>,
    trace: bool,
    smoke: bool,
    trace_out: Option<String>,
    out: Option<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        reps: None,
        trace: false,
        smoke: false,
        trace_out: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            o.smoke = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => o.workload = Some(value.to_owned()),
            "--seed" => o.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                o.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(o.seconds.is_finite() && o.seconds >= 0.0) {
                    return Err(bad("a non-negative number"));
                }
            }
            "--reps" => {
                let n: usize = value.parse().map_err(|_| bad("a whole number"))?;
                if n == 0 {
                    return Err(bad("at least 1"));
                }
                o.reps = Some(n);
            }
            "--trace" => {
                o.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--trace-out" => o.trace_out = Some(value.to_owned()),
            "--out" => o.out = Some(value.to_owned()),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(o)
}

fn one_rep(w: &Workload, seed: u64, baseline: Option<&Rep>, rec: &mut Recorder) -> Rep {
    match &w.kind {
        Kind::S1(spec) => s1::rep(spec, seed, baseline, rec),
        Kind::S3(spec) => s3::rep(spec, seed, baseline, rec),
    }
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn metric(value: f64, unit: &str) -> Metric {
    Metric {
        value,
        unit: unit.to_owned(),
    }
}

fn hex(digest: u64) -> String {
    format!("{digest:016x}")
}

/// Untraced repetitions until `--seconds` have passed (or `--reps` are
/// done): the end-to-end metrics, host-time ones from the fastest
/// repetition of every slice ([`fastest_sum`]).
fn run_untraced(w: &Workload, o: &Options) -> (DriverLine, Detail) {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(o.seconds);
    let mut reps: Vec<Rep> = Vec::new();
    // Read after the first repetition: later ones only add what the
    // allocator keeps of the earlier (3–28 MiB on `s1-hotbox-1k`, by seed
    // and by how many repetitions fit into the seconds).
    let mut rss = 0.0;
    loop {
        reps.push(one_rep(w, o.seed, None, &mut Recorder::new(false)));
        if reps.len() == 1 {
            rss = peak_rss_mib();
        }
        let done = match o.reps {
            Some(n) => reps.len() >= n,
            None => started.elapsed() >= budget,
        };
        if done {
            break;
        }
    }
    let first = &reps[0];
    let mut detail = Detail {
        workload: w.name.to_owned(),
        seed: o.seed,
        digest: hex(first.digest),
        notes: first.notes.clone(),
        ..Detail::default()
    };
    for r in &reps {
        detail.failures.extend(r.failures.iter().cloned());
        if r.digest != first.digest {
            detail.failures.push(format!(
                "repetitions of one seed disagree: digest {} then {}",
                hex(first.digest),
                hex(r.digest)
            ));
        }
    }
    // Whole-repetition figures go into the detail line; the metrics are
    // built slice by slice from the fastest repetition of each slice.
    let setups: Vec<f64> = reps.iter().map(|r| r.wall["setup_s"]).collect();
    let rates: Vec<f64> = reps
        .iter()
        .map(|r| ratio(r.ops as f64, r.run_slices.iter().sum()))
        .collect();
    let setup_s = fastest_sum(reps.iter().map(|r| &r.setup_slices[..]));
    let run_s = fastest_sum(reps.iter().map(|r| &r.run_slices[..]));
    if setup_s.is_none() || run_s.is_none() {
        detail
            .failures
            .push("repetitions of one seed were cut into different slices".into());
    }
    detail.notes.push(format!(
        "{} repetitions; their medians read setup_s {:.4}, ops_per_s {:.4}",
        reps.len(),
        median(&setups),
        median(&rates)
    ));
    let mut metrics = BTreeMap::new();
    for m in END_TO_END {
        let value = match m.name {
            "setup_s" => setup_s.unwrap_or(0.0),
            "ops_per_s" => ratio(first.ops as f64, run_s.unwrap_or(0.0)),
            "peak_rss_mib" => rss,
            exact => first.exact[exact],
        };
        metrics.insert(m.name.to_owned(), metric(value, m.unit));
    }
    detail.reps.insert("setup_s".into(), setups);
    detail.reps.insert("ops_per_s".into(), rates);
    detail.reps.insert("peak_rss_mib".into(), vec![rss]);
    let line = DriverLine {
        correct: detail.failures.is_empty(),
        attempted: first.attempted.max(1),
        failed: first.attempted - first.ops,
        metrics,
    };
    (line, detail)
}

/// One untraced and one traced repetition: the per-layer metrics. A layer
/// measurement that an untraced run can make comes from the untraced one.
fn run_traced(w: &Workload, o: &Options) -> (DriverLine, Detail) {
    let baseline = one_rep(w, o.seed, None, &mut Recorder::new(false));
    let mut rec = Recorder::new(true);
    let traced = one_rep(w, o.seed, Some(&baseline), &mut rec);

    let mut detail = Detail {
        workload: w.name.to_owned(),
        seed: o.seed,
        digest: hex(traced.digest),
        failures: baseline.failures.clone(),
        notes: traced.notes.clone(),
        ..Detail::default()
    };
    detail.failures.extend(traced.failures.iter().cloned());
    if traced.digest != baseline.digest {
        detail.failures.push(format!(
            "tracing changed simulated results: digest {} untraced, {} traced",
            hex(baseline.digest),
            hex(traced.digest)
        ));
    }
    if let Some(share) = rec.child_coverage("setup") {
        detail.notes.push(format!(
            "set-up spans cover {:.1} % of the set-up phase; {} spans recorded",
            share * 100.0,
            rec.spans().len()
        ));
    }
    if let Some(path) = &o.trace_out {
        if let Err(e) = rec.write_jsonl(w.name, path) {
            detail.failures.push(format!("writing {path}: {e}"));
        }
    }

    let mut metrics = BTreeMap::new();
    for m in PER_LAYER {
        let value = baseline
            .wall
            .get(m.name)
            .or_else(|| traced.wall.get(m.name))
            .or_else(|| traced.exact.get(m.name));
        if value.is_none() {
            detail.not_applicable.push(m.name.to_owned());
        }
        metrics.insert(
            m.name.to_owned(),
            metric(value.copied().unwrap_or(0.0), m.unit),
        );
    }
    let line = DriverLine {
        correct: detail.failures.is_empty(),
        attempted: traced.attempted.max(1),
        failed: traced.attempted - traced.ops,
        metrics,
    };
    (line, detail)
}

fn to_json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("result documents hold only finite numbers and strings")
}

fn run_workload(o: &Options, name: &str) -> ExitCode {
    let workloads = spec::workloads(o.smoke);
    let Some(w) = workloads.iter().find(|w| w.name == name) else {
        let names: Vec<_> = workloads.iter().map(|w| w.name).collect();
        eprintln!("unknown workload {name:?}; the workloads are {names:?}");
        return ExitCode::from(2);
    };
    let (line, detail) = if o.trace {
        run_traced(w, o)
    } else {
        run_untraced(w, o)
    };
    let title = format!(
        "{} seed {} digest {} ({})",
        w.name,
        o.seed,
        detail.digest,
        if o.trace { "per-layer" } else { "end-to-end" }
    );
    report::print_table(&title, &line.metrics, &detail.not_applicable);
    for note in &detail.notes {
        println!("  note: {note}");
    }
    for failure in &detail.failures {
        println!("  FAILED CHECK: {failure}");
    }
    println!("detail {}", to_json(&detail));
    println!("{}", to_json(&line));
    if line.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `--workload name --trace <trace>` in a child process and parses
/// the two result lines it ends with.
fn child(o: &Options, name: &str, trace: bool) -> Result<(DriverLine, Detail), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &o.seed.to_string()]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    match o.reps {
        Some(n) => cmd.args(["--reps", &n.to_string()]),
        None => cmd.args(["--seconds", &o.seconds.to_string()]),
    };
    if o.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let out = cmd.output().map_err(|e| format!("starting {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let last = lines.next().unwrap_or_default();
    let detail = lines
        .next()
        .and_then(|l| l.strip_prefix("detail "))
        .unwrap_or_default();
    let line: DriverLine = serde_json::from_str(last).map_err(|e| {
        format!(
            "{name} (trace {trace}) ended with {} and no result: {e}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    let detail: Detail =
        serde_json::from_str(detail).map_err(|e| format!("{name}: bad detail line: {e}"))?;
    Ok((line, detail))
}

fn run_all(o: &Options) -> ExitCode {
    let mut report = Report {
        seed: o.seed,
        smoke: o.smoke,
        workloads: BTreeMap::new(),
    };
    let mut ok = true;
    for w in spec::workloads(o.smoke) {
        eprintln!("running {} ...", w.name);
        let results = child(o, w.name, false).and_then(|e2e| Ok((e2e, child(o, w.name, true)?)));
        let ((e2e, e2e_detail), (layers, layer_detail)) = match results {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{e}");
                ok = false;
                continue;
            }
        };
        let mut failures = e2e_detail.failures;
        failures.extend(layer_detail.failures);
        if e2e_detail.digest != layer_detail.digest {
            failures.push("traced and untraced children disagree on the digest".into());
        }
        let mut per_layer = layers.metrics;
        per_layer.retain(|name, _| !layer_detail.not_applicable.contains(name));
        let mut notes = e2e_detail.notes;
        notes.extend(
            layer_detail
                .notes
                .into_iter()
                .filter(|n| n.starts_with("set-up spans")),
        );
        let correct = failures.is_empty();
        ok &= correct;
        report.workloads.insert(
            w.name.to_owned(),
            WorkloadReport {
                correct,
                attempted: e2e.attempted,
                failed: e2e.failed,
                digest: e2e_detail.digest,
                end_to_end: e2e.metrics,
                per_layer,
                reps: e2e_detail.reps,
                failures,
                notes,
            },
        );
    }
    for (name, w) in &report.workloads {
        let title = format!("{name} seed {} digest {}", o.seed, w.digest);
        report::print_table(&title, &w.end_to_end, &[]);
        report::print_table("  per layer:", &w.per_layer, &[]);
        for failure in &w.failures {
            println!("  FAILED CHECK: {failure}");
        }
    }
    if let Some(path) = &o.out {
        let text = serde_json::to_string_pretty(&report)
            .expect("result documents hold only finite numbers and strings");
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("writing {path}: {e}");
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some("all") => ("all", &args[1..]),
        Some("compare") => ("compare", &args[1..]),
        Some("declare") if args.len() == 1 => {
            println!("{}", spec::declaration());
            return ExitCode::SUCCESS;
        }
        _ => ("workload", &args[..]),
    };
    if command == "compare" {
        return match rest {
            [a, b] => compare::run(a, b),
            _ => {
                eprintln!("usage: lems-benchmark compare <a.json> <b.json>");
                ExitCode::from(2)
            }
        };
    }
    let options = match parse_options(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match (command, &options.workload) {
        ("all", None) => run_all(&options),
        ("workload", Some(name)) => run_workload(&options, name),
        _ => {
            eprintln!(
                "usage: lems-benchmark --workload <name> [--seed N] [--seconds S | --reps N] \
                 [--trace 0|1] [--smoke] [--trace-out FILE]\n       \
                 lems-benchmark all [--seed N] [--seconds S | --reps N] [--smoke] [--out FILE]\n       \
                 lems-benchmark compare <a.json> <b.json>\n       \
                 lems-benchmark declare"
            );
            ExitCode::from(2)
        }
    }
}
