//! `lems-check` — trace-based invariant auditor and schedule explorer.
//!
//! ```sh
//! cargo run -p lems-check -- audit [--seed <n>] [scenario ...]
//! cargo run --release -p lems-check -- explore [--seed <n>] [scenario ...]
//! ```
//!
//! Exit codes: `0` clean, `1` violations found, `2` usage or I/O error.

use std::env;
use std::path::PathBuf;
use std::process::ExitCode;

use lems_check::explore;
use lems_check::scenarios;

const USAGE: &str = "\
usage: lems-check <command> [options]

commands:
  audit [--seed <n>] [--chaos] [--durability] [--trace-out <path>] [name ...]
                                  replay audit scenarios and check the
                                  engine's conservation laws + mail ledgers
                                  + message-lifecycle span conservation
                                  (scenarios: steady, failover, random-failures,
                                   chaos-lossy, chaos-partition, chaos-crash-loss,
                                   durable-crash, durable-torn-tail,
                                   durable-recrash;
                                   --chaos runs just the chaos trio;
                                   --durability runs just the WAL crash-recovery
                                   trio and fails on any acked-deposit loss;
                                   --trace-out writes each scenario's spans and
                                   metrics as deterministic JSONL for lems-trace,
                                   name-suffixed when several scenarios run;
                                   default: all, seed 3)
  explore [--seed <n>] [--max-schedules <n>] [--require-exhaustive] [name ...]
                                  small-scope schedule model checker: enumerate
                                  every same-instant interleaving of tiny
                                  deployments, audit each terminal trace, and
                                  print failing schedules as replayable
                                  branch-choice lists
                                  (scenarios: s1-steady, s1-crash, s2-roam, s2-crash;
                                   default: all, seed 3;
                                   --require-exhaustive also fails runs the
                                   bounds truncated)
";

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("audit") => run_audit(&args[1..]),
        Some("explore") => run_explore(&args[1..]),
        Some("--help" | "-h") | None => {
            print!("{USAGE}");
            ExitCode::from(if args.is_empty() { 2 } else { 0 })
        }
        Some(other) => {
            eprintln!("lems-check: unknown command `{other}`\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run_audit(args: &[String]) -> ExitCode {
    let mut seed = 3u64;
    let mut chaos_only = false;
    let mut durability_only = false;
    let mut trace_out: Option<PathBuf> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => {
                    eprintln!("lems-check audit: --seed needs an integer");
                    return ExitCode::from(2);
                }
            },
            "--chaos" => chaos_only = true,
            "--durability" => durability_only = true,
            "--trace-out" => match it.next() {
                Some(p) => trace_out = Some(PathBuf::from(p)),
                None => {
                    eprintln!("lems-check audit: --trace-out needs a path");
                    return ExitCode::from(2);
                }
            },
            name => wanted.push(name.to_owned()),
        }
    }

    let all = if chaos_only {
        scenarios::run_chaos(seed)
    } else if durability_only {
        scenarios::run_durability(seed)
    } else {
        scenarios::run_all(seed)
    };
    let outcomes: Vec<_> = all
        .into_iter()
        .filter(|o| wanted.is_empty() || wanted.iter().any(|w| w == o.name))
        .collect();
    if outcomes.is_empty() {
        eprintln!(
            "lems-check audit: no scenario matches {wanted:?} (have: steady, failover, \
             random-failures, chaos-lossy, chaos-partition, chaos-crash-loss, \
             durable-crash, durable-torn-tail, durable-recrash)"
        );
        return ExitCode::from(2);
    }

    let mut dirty = false;
    for o in &outcomes {
        println!("scenario `{}` (seed {seed}): {}", o.name, o.description);
        println!(
            "  {} submitted, {} retrieved, {} bounced, {} retransmit(s), \
             {} wiring error(s); trace: {}",
            o.submitted, o.retrieved, o.bounced, o.retransmits, o.wiring_errors, o.trace
        );
        println!("  spans: {}", o.span_report);
        for line in o.violation_lines() {
            println!("  violation: {line}");
            dirty = true;
        }
        if let Some(base) = &trace_out {
            let path = if outcomes.len() == 1 {
                base.clone()
            } else {
                suffixed(base, o.name)
            };
            match write_trace(o, &path) {
                Ok(lines) => println!("  wrote {lines} line(s) to {}", path.display()),
                Err(e) => {
                    eprintln!("lems-check audit: {e}");
                    return ExitCode::from(2);
                }
            }
        }
    }
    if dirty {
        println!("audit: violations found");
        ExitCode::FAILURE
    } else {
        println!("audit: {} scenario(s) clean", outcomes.len());
        ExitCode::SUCCESS
    }
}

/// `base` with `.{name}` spliced in before the extension, so
/// `--trace-out spans.jsonl` over several scenarios yields
/// `spans.steady.jsonl`, `spans.chaos-lossy.jsonl`, ….
fn suffixed(base: &std::path::Path, name: &str) -> PathBuf {
    let stem = base.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
    match base.extension().and_then(|s| s.to_str()) {
        Some(ext) => base.with_file_name(format!("{stem}.{name}.{ext}")),
        None => base.with_file_name(format!("{stem}.{name}")),
    }
}

/// Exports one scenario's telemetry to `path`; returns the line count.
fn write_trace(o: &scenarios::ScenarioOutcome, path: &std::path::Path) -> Result<usize, String> {
    let text = lems_obs::export::export_jsonl(&lems_obs::export::RunTelemetry {
        run: o.name,
        seed: o.seed,
        finished_at: o.finished_at,
        spans: &o.spans,
        recoveries: &o.recoveries,
        scopes: &o.scopes,
        store: &o.store,
        profile: &o.profile,
    })?;
    let lines = text.lines().count();
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(lines)
}

fn run_explore(args: &[String]) -> ExitCode {
    let mut seed = 3u64;
    let mut bounds = explore::default_bounds();
    let mut require_exhaustive = false;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--require-exhaustive" => require_exhaustive = true,
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => {
                    eprintln!("lems-check explore: --seed needs an integer");
                    return ExitCode::from(2);
                }
            },
            "--max-schedules" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => bounds.max_schedules = n,
                None => {
                    eprintln!("lems-check explore: --max-schedules needs an integer");
                    return ExitCode::from(2);
                }
            },
            name => wanted.push(name.to_owned()),
        }
    }

    let outcomes: Vec<_> = explore::run_all(seed, bounds)
        .into_iter()
        .filter(|o| wanted.is_empty() || wanted.iter().any(|w| w == o.name))
        .collect();
    if outcomes.is_empty() {
        eprintln!(
            "lems-check explore: no scenario matches {wanted:?} \
             (have: s1-steady, s1-crash, s2-roam, s2-crash)"
        );
        return ExitCode::from(2);
    }

    let mut dirty = false;
    for o in &outcomes {
        println!("scenario `{}` (seed {seed}): {}", o.name, o.description);
        println!(
            "  {} schedule(s) explored, {} distinct outcome(s){}",
            o.schedules,
            o.distinct_outcomes,
            if o.truncated {
                " [TRUNCATED: bounds clipped the space]"
            } else {
                " (exhaustive)"
            }
        );
        if o.truncated && require_exhaustive {
            dirty = true;
            println!("  FAIL: --require-exhaustive set but bounds clipped the space");
        }
        if let Some(cx) = &o.counterexample {
            dirty = true;
            println!("  counterexample schedule: {}", cx.schedule);
            println!(
                "  replay: {}",
                if cx.replay_verified {
                    "verified byte-identical"
                } else {
                    "FAILED to reproduce (nondeterministic workload?)"
                }
            );
            for v in &cx.violations {
                println!("  violation: {v}");
            }
        }
    }
    if dirty {
        println!("explore: counterexample(s) or truncated run(s) found");
        ExitCode::FAILURE
    } else {
        println!("explore: {} scenario(s) clean", outcomes.len());
        ExitCode::SUCCESS
    }
}
