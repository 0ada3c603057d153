//! `lems-trace` — inspect deterministic telemetry dumps.
//!
//! ```text
//! lems-trace report   <dump.jsonl>                the whole dump on one page
//! lems-trace audit    <dump.jsonl> [--open-ok]    span conservation check
//! lems-trace timeline <dump.jsonl> --msg <span>   per-message lifecycle
//! ```
//!
//! `report` prints the run summary (recoveries, counter totals, latency
//! percentiles), each scope's counters and gauges, and — for a dump from a
//! profiled run — the hottest dispatch cells, the payload pool and the
//! event queue's depth over time. `audit` exits nonzero on any
//! conservation violation; pass `--open-ok` when the dump comes from a run
//! that was cut off before draining (open-ended spans are then not
//! violations). `--msg` accepts `s3` or `3`.

use std::fmt::Write as _;
use std::process::ExitCode;

use lems_obs::inspect::Dump;

const USAGE: &str =
    "usage: lems-trace <report|audit|timeline> <dump.jsonl> [--open-ok] [--msg <span>]";

fn run() -> Result<String, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, path) = match (args.first(), args.get(1)) {
        (Some(c), Some(p)) => (c.as_str(), p.as_str()),
        _ => return Err(USAGE.to_owned()),
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let dump = Dump::parse(&text)?;
    match cmd {
        "report" => Ok(dump.report()),
        "audit" => {
            let require_terminal = !args.iter().any(|a| a == "--open-ok");
            let report = dump.audit(require_terminal);
            let mut out = format!("{report}\n");
            for v in &report.violations {
                let _ = writeln!(out, "  violation: {v}");
            }
            if report.is_clean() {
                Ok(out)
            } else {
                Err(out)
            }
        }
        "timeline" => {
            let span = args
                .iter()
                .position(|a| a == "--msg")
                .and_then(|i| args.get(i + 1))
                .ok_or_else(|| format!("timeline needs --msg <span>\n{USAGE}"))?;
            let id: u64 = span
                .strip_prefix('s')
                .unwrap_or(span)
                .parse()
                .map_err(|_| format!("`{span}` is not a span id (expected s<N> or N)"))?;
            dump.timeline(id)
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
