//! SCALE: the million-user §3.1.1 assignment pipeline — per-tier wall
//! times, convergence stats, and determinism digests, emitted as the
//! committed `BENCH_assign.json` / `BENCH_getmail.json` documents.
//!
//! ```sh
//! repro-scale [--smoke] [--json] [--seed <n>] [--out <dir>]
//!             [--baseline <BENCH_assign.json>] [--tolerance <frac>]
//! ```
//!
//! `--smoke` runs only the fig1 + 50k tiers (the CI gate); `--out` writes
//! the two JSON documents into a directory; `--baseline` + `--tolerance`
//! fail the run when a tier's solver wall time regressed beyond the
//! tolerance (default 0.25 = +25%).

use std::fs;
use std::process::ExitCode;

use lems_bench::emit::{gate_wall_times, json_flag, AssignBench, Report};
use lems_bench::render::{f1, f3, Table};
use lems_bench::scale_exp::{full_tiers, run_suite, smoke_tiers};

struct Args {
    smoke: bool,
    json: bool,
    seed: u64,
    out: Option<String>,
    baseline: Option<String>,
    tolerance: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        smoke: false,
        json: json_flag(),
        seed: 42,
        out: None,
        baseline: None,
        tolerance: 0.25,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--json" => {} // already consumed by json_flag()
            "--seed" => {
                args.seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--seed needs an integer")?;
            }
            "--out" => args.out = Some(it.next().ok_or("--out needs a directory")?.clone()),
            "--baseline" => {
                args.baseline = Some(it.next().ok_or("--baseline needs a file")?.clone());
            }
            "--tolerance" => {
                args.tolerance = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--tolerance needs a fraction like 0.25")?;
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("repro-scale: {e}");
            return ExitCode::from(2);
        }
    };

    let tiers = if args.smoke {
        smoke_tiers()
    } else {
        full_tiers()
    };
    let (assign, getmail) = run_suite(&tiers, args.seed);

    let mut report = Report::new(
        "scale",
        format!(
            "SCALE — §3.1.1 assignment pipeline at size (seed {})",
            assign.seed
        ),
    );

    let mut t = Table::new(vec![
        "tier",
        "users",
        "hosts",
        "servers",
        "matrix ms",
        "classic ms",
        "sync ms",
        "passes",
        "moves",
        "rho max",
        "rho spread",
        "digest",
    ]);
    for tier in &assign.tiers {
        t.row(vec![
            tier.label.clone(),
            tier.users.to_string(),
            tier.hosts.to_string(),
            tier.servers.to_string(),
            f1(tier.matrix_build_ms),
            tier.classic_ms.map_or_else(|| "-".into(), f1),
            f1(tier.sync_ms),
            tier.passes.to_string(),
            tier.moves.to_string(),
            f3(tier.rho_max),
            f3(tier.rho_spread),
            tier.digest.clone(),
        ]);
    }
    report.table("assign_tiers", &t);

    for tier in &assign.tiers {
        if let Some(s) = tier.speedup_vs_classic {
            report.note(format!(
                "tier {}: scaled solver is {:.1}x the classic full-recompute solver \
                 (O(1) move deltas; the classic cost is O(hosts x servers) per tentative move)",
                tier.label, s
            ));
        }
    }

    let mut g = Table::new(vec![
        "tier",
        "users",
        "list len",
        "build ms",
        "polls mean",
        "digest",
    ]);
    for tier in &getmail.tiers {
        g.row(vec![
            tier.label.clone(),
            tier.users.to_string(),
            tier.list_len.to_string(),
            f1(tier.build_ms),
            f3(tier.polls_mean),
            tier.digest.clone(),
        ]);
    }
    report.table("getmail_tiers", &g);
    report.note("determinism contract: same seed => same digest (tests/assign_differential.rs)");

    report.emit(args.json);

    if let Some(dir) = &args.out {
        fs::create_dir_all(dir).expect("create --out directory");
        let ap = format!("{dir}/BENCH_assign.json");
        let gp = format!("{dir}/BENCH_getmail.json");
        fs::write(&ap, assign.to_json() + "\n").expect("write BENCH_assign.json");
        fs::write(&gp, getmail.to_json() + "\n").expect("write BENCH_getmail.json");
        eprintln!("wrote {ap} and {gp}");
    }

    if let Some(path) = &args.baseline {
        let text = fs::read_to_string(path).expect("read baseline");
        let base: AssignBench = serde_json::from_str(&text).expect("parse baseline");
        let regressions = gate_wall_times(&base, &assign, args.tolerance);
        if regressions.is_empty() {
            eprintln!(
                "perf gate: ok (tolerance {:.0}%, baseline {path})",
                args.tolerance * 100.0
            );
        } else {
            for r in &regressions {
                eprintln!(
                    "perf gate: tier {} {} regressed {:.1} -> {:.1} ms (> {:.0}% over baseline)",
                    r.label,
                    r.metric,
                    r.baseline_ms,
                    r.current_ms,
                    args.tolerance * 100.0
                );
            }
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
