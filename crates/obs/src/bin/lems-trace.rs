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
//! violations). `--msg` accepts `s3` or `3`. An unknown command, an
//! option the command does not take or a stray argument exits nonzero with
//! the usage text before any dump is read.

use std::fmt::Write as _;
use std::process::ExitCode;

use lems_obs::inspect::Dump;

const USAGE: &str =
    "usage: lems-trace <report|audit|timeline> <dump.jsonl> [--open-ok] [--msg <span>]";

/// What to show of the dump.
enum Cmd {
    Report,
    Audit { open_ok: bool },
    Timeline { span: u64 },
}

/// Reads the command line, refusing an unknown command, an option the
/// command does not take and a stray argument before any file is read.
fn parse(args: &[String]) -> Result<(Cmd, &str), String> {
    let usage = |what: &str| format!("{what}\n{USAGE}");
    let Some((cmd, rest)) = args.split_first() else {
        return Err(USAGE.to_owned());
    };
    let cmd = cmd.as_str();
    if !matches!(cmd, "report" | "audit" | "timeline") {
        return Err(usage(&format!("unknown command `{cmd}`")));
    }
    let (mut path, mut open_ok, mut span) = (None, false, None);
    let mut rest = rest.iter().map(String::as_str);
    while let Some(arg) = rest.next() {
        match (cmd, arg) {
            ("audit", "--open-ok") => open_ok = true,
            ("timeline", "--msg") => {
                span = Some(rest.next().ok_or_else(|| usage("--msg needs a span"))?);
            }
            (_, a) if a.starts_with('-') => {
                return Err(usage(&format!("unknown option `{a}` for `{cmd}`")))
            }
            (_, a) if path.is_none() => path = Some(a),
            (_, a) => return Err(usage(&format!("unexpected argument `{a}`"))),
        }
    }
    let path = path.ok_or_else(|| usage(&format!("`{cmd}` needs a dump")))?;
    let cmd = match (cmd, span) {
        ("report", _) => Cmd::Report,
        ("audit", _) => Cmd::Audit { open_ok },
        (_, None) => return Err(usage("timeline needs --msg <span>")),
        (_, Some(span)) => {
            let id = span.strip_prefix('s').unwrap_or(span).parse();
            let id =
                id.map_err(|_| usage(&format!("`{span}` is not a span id (expected s<N> or N)")))?;
            Cmd::Timeline { span: id }
        }
    };
    Ok((cmd, path))
}

fn run() -> Result<String, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, path) = parse(&args)?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let dump = Dump::parse(&text)?;
    match cmd {
        Cmd::Report => Ok(dump.report()),
        Cmd::Audit { open_ok } => {
            let report = dump.audit(!open_ok);
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
        Cmd::Timeline { span } => dump.timeline(span),
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
