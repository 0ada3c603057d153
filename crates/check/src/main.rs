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

use lems_check::audit::audit_trace;
use lems_check::explore;
use lems_check::scenarios::{Scenario, AUDIT, EXPLORE};
use lems_sim::span::audit_spans;

fn usage() -> String {
    format!(
        "\
usage: lems-check <command> [options]

commands:
  audit [--seed <n>] [--trace-out <path>] [name ...]
                                  run audit scenarios once each and judge
                                  every run: the engine's conservation laws,
                                  the mail ledgers, message-lifecycle span
                                  conservation, no acked deposit lost
                                  (default: all, seed 3; --trace-out writes
                                   each scenario's spans and metrics as
                                   deterministic JSONL for lems-trace,
                                   name-suffixed when several scenarios run)
  explore [--seed <n>] [--max-schedules <n>] [--require-exhaustive] [name ...]
                                  small-scope schedule model checker: enumerate
                                  every same-instant interleaving of tiny
                                  deployments, judge each terminal run as
                                  audit does, and print failing schedules as
                                  replayable branch-choice lists
                                  (default: all, seed 3;
                                   --require-exhaustive also fails runs the
                                   bounds truncated)

audit scenarios:
{}
explore scenarios:
{}",
        table(AUDIT),
        table(EXPLORE)
    )
}

/// One `name  description` line per scenario.
fn table(scenarios: &[Scenario]) -> String {
    let lines: Vec<String> = scenarios
        .iter()
        .map(|s| format!("  {:<18} {}\n", s.name, s.description))
        .collect();
    lines.concat()
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("audit") => run_audit(&args[1..]),
        Some("explore") => run_explore(&args[1..]),
        Some("--help" | "-h") | None => {
            print!("{}", usage());
            ExitCode::from(if args.is_empty() { 2 } else { 0 })
        }
        Some(other) => {
            eprintln!("lems-check: unknown command `{other}`\n{}", usage());
            ExitCode::from(2)
        }
    }
}

/// The entries of `scenarios` named in `wanted` (all of them when it is
/// empty); `None`, after printing the table, when a name matches none.
fn select(
    command: &str,
    scenarios: &'static [Scenario],
    wanted: &[String],
) -> Option<Vec<&'static Scenario>> {
    if let Some(w) = wanted
        .iter()
        .find(|w| !scenarios.iter().any(|s| s.name == w.as_str()))
    {
        eprintln!(
            "lems-check {command}: no scenario matches `{w}`; have:\n{}",
            table(scenarios)
        );
        return None;
    }
    Some(
        scenarios
            .iter()
            .filter(|s| wanted.is_empty() || wanted.iter().any(|w| w == s.name))
            .collect(),
    )
}

fn run_audit(args: &[String]) -> ExitCode {
    let mut seed = 3u64;
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
    let Some(chosen) = select("audit", AUDIT, &wanted) else {
        return ExitCode::from(2);
    };

    let mut dirty = false;
    for s in &chosen {
        let o = s.run(seed);
        let d = &o.deployment;
        let stats = d.stats.borrow();
        println!("scenario `{}` (seed {seed}): {}", s.name, s.description);
        println!(
            "  {} submitted, {} retrieved, {} bounced, {} retransmit(s), \
             {} wiring error(s); trace: {}",
            stats.submitted,
            stats.retrieved,
            stats.bounced,
            stats.retransmits,
            d.transport.wiring_errors(),
            audit_trace(d.sim.trace())
        );
        println!("  spans: {}", audit_spans(&d.spans.borrow(), o.quiesced));
        for line in &o.violations {
            println!("  violation: {line}");
            dirty = true;
        }
        if let Some(base) = &trace_out {
            let path = if chosen.len() == 1 {
                base.clone()
            } else {
                suffixed(base, s.name)
            };
            match write_trace(&o, &path) {
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
        println!("audit: {} scenario(s) clean", chosen.len());
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
fn write_trace(
    o: &lems_check::scenarios::ScenarioOutcome,
    path: &std::path::Path,
) -> Result<usize, String> {
    let text = o.export_jsonl()?;
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
    let Some(chosen) = select("explore", EXPLORE, &wanted) else {
        return ExitCode::from(2);
    };

    let mut dirty = false;
    for s in &chosen {
        let o = explore::explore(s, seed, bounds);
        println!("scenario `{}` (seed {seed}): {}", s.name, s.description);
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
        println!("explore: {} scenario(s) clean", chosen.len());
        ExitCode::SUCCESS
    }
}
