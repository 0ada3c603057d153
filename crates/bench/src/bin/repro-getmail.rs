//! C1 + C2: GetMail polls per retrieval vs the poll-every-server
//! baseline, across server availabilities, with the no-lost-mail ledger
//! (§3.1.2c, §5: "the number of polls per retrieval request is
//! approximately one under normal conditions" and "no messages will be
//! lost even when some servers fail").

use lems_bench::getmail_exp::{full_stack_traced, sweep, GetMailSweepConfig};
use lems_bench::render::{f3, Report, Table};
use lems_obs::export::{export_jsonl, RunTelemetry};

fn main() {
    let cfg = GetMailSweepConfig::default();
    let mut report = Report::new(format!(
        "C1/C2 — GetMail vs poll-all ({} users x {} units per point, {}-server authority lists)",
        cfg.users, cfg.horizon, cfg.servers
    ));

    let availabilities = [1.0, 0.99, 0.95, 0.9, 0.8, 0.7];
    let rows = sweep(&availabilities, &cfg);

    let mut t = Table::new(vec![
        "availability",
        "getmail polls",
        "poll-all polls",
        "deposited",
        "retrieved",
        "lost",
        "bounced-at-send",
    ]);
    for r in &rows {
        t.row(vec![
            f3(r.availability),
            f3(r.getmail_polls),
            f3(r.pollall_polls),
            r.deposited.to_string(),
            r.retrieved.to_string(),
            r.lost.to_string(),
            r.undeliverable.to_string(),
        ]);
    }
    report.table(&t);
    report.note("shape checks:");
    report.note("  - polls -> 1 as availability -> 1 (paper: 'approximately one')");
    report.note("  - poll-all always pays the full list length");
    report.note("  - lost = 0 at every point (paper: 'no messages will be lost')");

    report.note("full-stack cross-check (actor pipeline, Fig. 1 network, 95% availability):");
    let (fs, telemetry) = full_stack_traced(0.95, 7);
    report.kv(&[
        ("polls/check".into(), format!("{:.3}", fs.polls_mean)),
        ("submitted".into(), fs.submitted.to_string()),
        ("retrieved".into(), fs.retrieved.to_string()),
        ("bounced".into(), fs.bounced.to_string()),
        ("unaccounted".into(), fs.outstanding.to_string()),
    ]);

    // `--trace-out <path>`: dump the full-stack run's spans and metrics
    // for `lems-trace report/audit/timeline`.
    let args: Vec<String> = std::env::args().skip(1).collect();
    let trace_out = args
        .iter()
        .position(|a| a == "--trace-out")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from);
    if let Some(path) = trace_out {
        let text = export_jsonl(&RunTelemetry {
            run: "getmail-full-stack",
            seed: telemetry.seed,
            finished_at: telemetry.finished_at,
            spans: &telemetry.spans,
            recoveries: &[],
            scopes: &telemetry.scopes,
            store: &[],
            profile: &[],
        })
        .expect("full-stack telemetry must export");
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        report.note(format!("telemetry written to {}", path.display()));
    }

    report.print();
}
