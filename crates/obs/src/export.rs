//! Serialising one run's telemetry into a deterministic JSONL dump.
//!
//! The line order is a pure function of the run: header first, then span
//! events in record order (the span log is append-only and the engine is
//! deterministic), then store-recovery lines in recovery order, then
//! metric lines grouped by scope in the order the deployment lists them
//! (node order), with counters, gauges, and histograms each in name order
//! (the registries keep name-sorted `Vec`s), then per-store durability
//! metrics in node order, then kernel-profiler samples in the profiler's
//! deterministic order. No wall clock, no host names, no environment — a
//! seeded run exports byte-identical bytes every time.
//!
//! The dump is written once: [`export_jsonl`] appends every record from
//! its source to one pre-sized buffer through `crate::schema`'s
//! writers, with no typed line, value tree or per-field `String` in
//! between (DESIGN.md §18).

use lems_core::store::{StoreMetrics, StoreRecovery};
use lems_sim::metrics::MetricsRegistry;
use lems_sim::prof::ProfSample;
use lems_sim::span::SpanLog;
use lems_sim::time::SimTime;

use crate::schema::{
    write_counter, write_gauge, write_header, write_hist, write_metrics, write_profile,
    write_recovery, write_span,
};

/// Everything one dump describes: a labelled run's span log and its
/// per-scope metric registries.
pub struct RunTelemetry<'a> {
    /// Scenario or experiment id stamped into the header.
    pub run: &'a str,
    /// Engine seed of the run.
    pub seed: u64,
    /// Simulated time at quiescence (gauge averages integrate to here).
    pub finished_at: SimTime,
    /// The run's span log.
    pub spans: &'a SpanLog,
    /// Store-recovery reports, in recovery order (empty when no server
    /// crashed or the deployment predates durable storage).
    pub recoveries: &'a [StoreRecovery],
    /// Per-scope metric registries, in deployment (node) order.
    pub scopes: &'a [(String, MetricsRegistry)],
    /// Per-server store durability metrics, in deployment (node) order
    /// (empty when no server has a durable backend).
    pub store: &'a [(String, StoreMetrics)],
    /// Kernel-profiler samples in the profiler's deterministic order
    /// (empty when the run did not enable profiling).
    pub profile: &'a [ProfSample],
}

/// Upper bound on the bytes of one span line: the fixed text, five
/// 20-digit integers and the longest stage name (pinned by
/// `span_line_bound_covers_every_stage`).
const SPAN_LINE_MAX: usize = 192;

/// Serialises `run` to JSONL text (one compact JSON object per line,
/// trailing newline) through the schema's writers.
///
/// Every record goes from its source straight into one buffer sized from
/// the span count, so the export allocates once however long the run was.
///
/// # Errors
///
/// Refuses to export a gauge or histogram whose value is not finite: its
/// own reader would reject it (JSON has no such number).
pub fn export_jsonl(run: &RunTelemetry<'_>) -> Result<String, String> {
    let events = run.spans.events();
    let mut out = Vec::with_capacity(256 + events.len() * SPAN_LINE_MAX);
    write_header(&mut out, run.run, run.seed, run.finished_at.as_ticks());
    for e in events {
        write_span(&mut out, e);
    }
    for r in run.recoveries {
        write_recovery(&mut out, r);
    }
    for (scope, m) in run.scopes {
        for (name, value) in m.counters() {
            write_counter(&mut out, scope, name, value);
        }
        for (name, g) in m.gauges() {
            let values = [g.current(), g.average(run.finished_at)];
            write_gauge(&mut out, scope, name, values)?;
        }
        for (name, h) in m.histograms() {
            let values = [
                h.mean(),
                h.quantile(0.50).unwrap_or(0.0),
                h.quantile(0.90).unwrap_or(0.0),
                h.quantile(0.99).unwrap_or(0.0),
                h.max().unwrap_or(0.0),
            ];
            write_hist(&mut out, scope, name, h.count(), values)?;
        }
    }
    for (scope, m) in run.store {
        write_metrics(&mut out, scope, m);
    }
    for s in run.profile {
        write_profile(&mut out, s);
    }
    // Every byte came from a `&str` or an ASCII literal; the check is one
    // pass over the buffer where a `String` would pay one per integer.
    String::from_utf8(out).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inspect::Dump;
    use lems_core::store::RecoveryReport;
    use lems_sim::span::{SpanEvent, SpanId, SpanStage, NO_NODE};
    use lems_sim::time::SimDuration;

    fn t(u: f64) -> SimTime {
        SimTime::from_units(u)
    }

    fn sample_run() -> (SpanLog, Vec<(String, MetricsRegistry)>) {
        let mut log = SpanLog::unbounded();
        let s = log.open_keyed(1, t(1.0), SpanStage::Submitted, 0);
        log.record(t(2.0), s, SpanStage::Deposited, 4, NO_NODE, 0);
        log.record(t(9.0), s, SpanStage::Retrieved, 0, 4, 0);
        let mut m = MetricsRegistry::new();
        m.inc("deposited");
        m.gauge_add(t(2.0), "storage", 1.0);
        m.gauge_add(t(9.0), "storage", -1.0);
        m.observe("delivery_latency", 1.0);
        (log, vec![("server:n4".to_owned(), m)])
    }

    #[test]
    fn export_is_deterministic_and_ordered() {
        let (log, scopes) = sample_run();
        let store = vec![(
            "server:n4".to_owned(),
            StoreMetrics {
                appended_records: 9,
                fsyncs: 9,
                ..StoreMetrics::default()
            },
        )];
        let profile = vec![ProfSample {
            scope: "dispatch",
            name: "server/deliver".to_owned(),
            at: SimTime::ZERO,
            count: 3,
            ticks: 42,
        }];
        let run = RunTelemetry {
            run: "demo",
            seed: 7,
            finished_at: t(10.0),
            spans: &log,
            recoveries: &[],
            scopes: &scopes,
            store: &store,
            profile: &profile,
        };
        let a = export_jsonl(&run).expect("exports");
        let b = export_jsonl(&run).expect("exports");
        assert_eq!(a, b, "same run must export byte-identical text");
        let lines: Vec<&str> = a.lines().collect();
        assert_eq!(
            lines.len(),
            1 + 3 + 3 + 1 + 1,
            "header + spans + metrics + store + profile"
        );
        assert!(lines[0].contains("Header"));
        assert!(lines[1].contains("submitted"));
        assert!(lines[4].contains("Counter"));
        assert!(lines[7].contains("Metrics"));
        assert!(lines[8].contains("Profile"));
    }

    #[test]
    fn non_finite_metric_is_refused() {
        let mut m = MetricsRegistry::new();
        m.inc("deposited");
        m.gauge_set(t(1.0), "storage", f64::INFINITY);
        let scopes = vec![("server:n4".to_owned(), m)];
        let log = SpanLog::unbounded();
        let run = RunTelemetry {
            run: "demo",
            seed: 7,
            finished_at: t(2.0),
            spans: &log,
            recoveries: &[],
            scopes: &scopes,
            store: &[],
            profile: &[],
        };
        let err = export_jsonl(&run).expect_err("must refuse");
        assert!(
            err.contains("gauge `storage` of scope `server:n4` is inf"),
            "{err}"
        );
        // What the refusal prevents: a JSON printer writes the infinite
        // gauge as `null`, a dump the reader rejects whole.
        let mut unreadable = Vec::new();
        write_header(&mut unreadable, "demo", 7, 2);
        let unreadable = String::from_utf8(unreadable).expect("utf-8")
            + "{\"Gauge\":{\"scope\":\"server:n4\",\"name\":\"storage\",\"current\":null,\"average\":0.5}}\n";
        let err = Dump::parse(&unreadable).expect_err("null is no float");
        assert!(
            err.contains("line 2: `current`: expected a number at `null"),
            "{err}"
        );
    }

    #[test]
    fn gauge_average_integrates_to_finish_time() {
        let mut m = MetricsRegistry::new();
        m.gauge_add(t(2.0), "storage", 4.0);
        let scopes = vec![("server:n0".to_owned(), m)];
        let log = SpanLog::unbounded();
        let run = RunTelemetry {
            run: "demo",
            seed: 1,
            finished_at: SimTime::ZERO.saturating_add(SimDuration::from_units(4.0)),
            spans: &log,
            recoveries: &[],
            scopes: &scopes,
            store: &[],
            profile: &[],
        };
        let dump = Dump::parse(&export_jsonl(&run).expect("exports")).expect("parses");
        let [(_, _, current, average)] = &dump.gauges[..] else {
            panic!("expected one gauge line");
        };
        // 0 for [0,2), 4 for [2,4) => average 2 over the run.
        assert!((average - 2.0).abs() < 1e-9);
        assert!((current - 4.0).abs() < 1e-9);
    }

    #[test]
    fn span_line_bound_covers_every_stage() {
        for stage in SpanStage::ALL {
            let mut out = Vec::new();
            let widest = SpanEvent {
                at: SimTime::MAX,
                span: SpanId(u64::MAX),
                stage,
                site: NO_NODE,
                peer: NO_NODE,
                detail: u64::MAX,
            };
            write_span(&mut out, &widest);
            assert!(out.len() <= SPAN_LINE_MAX, "{} bytes", out.len());
        }
    }

    /// Text the escaping table treats specially (quote, backslash, the
    /// named escapes, other control characters) beside what it passes
    /// through (`/`, two-, three- and four-byte characters).
    const EDGE_TEXT: [&str; 4] = [
        "",
        "q\"b\\n\nr\rt\t",
        "\u{0}\u{1}\u{8}\u{c}\u{1f}",
        "/é日😀",
    ];

    /// 0, 1, a mid-length integer and `u64::MAX` (`NO_NODE`).
    fn edge_int(i: usize) -> u64 {
        [0, 1, 12_345_678_901, u64::MAX][i % 4]
    }

    /// Integral, fractional, signed-zero, subnormal and extreme floats.
    const EDGE_FLOAT: [f64; 16] = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        2.5,
        0.1,
        1e15,
        1e16,
        1e21,
        1e300,
        1e-300,
        -1e-300,
        5e-324,
        f64::MIN_POSITIVE / 2.0,
        f64::MAX,
        f64::MIN,
    ];

    /// A dump with every record kind, its text and integers taken from the
    /// edge lists, followed by histogram lines carrying every edge float.
    fn edge_dump() -> String {
        let events = SpanStage::ALL
            .iter()
            .enumerate()
            .map(|(i, &stage)| SpanEvent {
                at: SimTime::from_ticks(edge_int(i)),
                span: SpanId(edge_int(i + 1)),
                stage,
                site: edge_int(i + 2),
                peer: edge_int(i + 3),
                detail: edge_int(i / 4),
            })
            .collect();
        let log = SpanLog::from_events(events);
        let recoveries: Vec<StoreRecovery> = (0..2)
            .map(|i| StoreRecovery {
                at: SimTime::from_ticks(edge_int(i + 3)),
                site: edge_int(i),
                report: RecoveryReport {
                    backend: EDGE_TEXT[2 * i + 1],
                    replayed_records: edge_int(i + 1),
                    recovered_messages: edge_int(i + 2),
                    recovered_pending: edge_int(i + 3),
                    recovered_forwards: edge_int(i),
                    lost_messages: edge_int(i + 1),
                    torn_bytes: edge_int(i + 2),
                    segments: edge_int(i + 3),
                },
            })
            .collect();
        let scopes: Vec<(String, MetricsRegistry)> = EDGE_TEXT
            .iter()
            .enumerate()
            .map(|(i, scope)| {
                let mut m = MetricsRegistry::new();
                m.counter_add(EDGE_TEXT[(i + 1) % 4], edge_int(i));
                m.counter_add("n", edge_int(i + 3));
                m.gauge_add(t(1.0), "storage", 0.1 * i as f64);
                m.gauge_add(t(4.0), "storage", 2.5);
                m.observe("latency", 1e15);
                m.observe("latency", 0.1 * i as f64);
                (scope.to_string(), m)
            })
            .collect();
        let store = [(
            EDGE_TEXT[3].to_owned(),
            StoreMetrics {
                appended_records: edge_int(0),
                appended_bytes: edge_int(1),
                fsyncs: edge_int(2),
                rotations: edge_int(3),
                compactions: edge_int(0),
                compaction_chunks: edge_int(1),
                replayed_records: edge_int(2),
                replayed_bytes: edge_int(3),
                io_errors: edge_int(1),
            },
        )];
        let profile: Vec<ProfSample> = (0..2)
            .map(|i| ProfSample {
                scope: EDGE_TEXT[2 * i + 1],
                name: EDGE_TEXT[2 * i].to_owned(),
                at: SimTime::from_ticks(edge_int(i + 2)),
                count: edge_int(i + 3),
                ticks: edge_int(i),
            })
            .collect();
        let run = RunTelemetry {
            run: EDGE_TEXT[1],
            seed: u64::MAX,
            finished_at: t(10.0),
            spans: &log,
            recoveries: &recoveries,
            scopes: &scopes,
            store: &store,
            profile: &profile,
        };
        let mut dump = export_jsonl(&run).expect("exports").into_bytes();
        for i in 0..4 {
            let floats = std::array::from_fn(|k| EDGE_FLOAT[(5 * i + k) % 16]);
            write_hist(&mut dump, EDGE_TEXT[i], "h", edge_int(i), floats).expect("finite");
        }
        String::from_utf8(dump).expect("utf-8")
    }

    /// What the typed line's derived JSON printer (the serde reference the
    /// direct writer replaced) wrote for [`edge_dump`]'s inputs, captured
    /// before the direct writer became the only rendering.
    const SERDE_REFERENCE: [&str; 37] = [
        r#"{"Header":{"schema_version":3,"run":"q\"b\\n\nr\rt\t","seed":18446744073709551615,"finished_at_ticks":10000000}}"#,
        r#"{"Span":{"at_ticks":0,"span":1,"stage":"submitted","site":12345678901,"peer":18446744073709551615,"detail":0}}"#,
        r#"{"Span":{"at_ticks":1,"span":12345678901,"stage":"check-started","site":18446744073709551615,"peer":0,"detail":0}}"#,
        r#"{"Span":{"at_ticks":12345678901,"span":18446744073709551615,"stage":"probe","site":0,"peer":1,"detail":0}}"#,
        r#"{"Span":{"at_ticks":18446744073709551615,"span":0,"stage":"accepted","site":1,"peer":12345678901,"detail":0}}"#,
        r#"{"Span":{"at_ticks":0,"span":1,"stage":"resolved","site":12345678901,"peer":18446744073709551615,"detail":1}}"#,
        r#"{"Span":{"at_ticks":1,"span":12345678901,"stage":"forwarded","site":18446744073709551615,"peer":0,"detail":1}}"#,
        r#"{"Span":{"at_ticks":12345678901,"span":18446744073709551615,"stage":"deposited","site":0,"peer":1,"detail":1}}"#,
        r#"{"Span":{"at_ticks":18446744073709551615,"span":0,"stage":"notified","site":1,"peer":12345678901,"detail":1}}"#,
        r#"{"Span":{"at_ticks":0,"span":1,"stage":"retrieved","site":12345678901,"peer":18446744073709551615,"detail":12345678901}}"#,
        r#"{"Span":{"at_ticks":1,"span":12345678901,"stage":"bounced","site":18446744073709551615,"peer":0,"detail":12345678901}}"#,
        r#"{"Span":{"at_ticks":12345678901,"span":18446744073709551615,"stage":"check-done","site":0,"peer":1,"detail":12345678901}}"#,
        r#"{"Recovery":{"at_ticks":18446744073709551615,"site":0,"backend":"q\"b\\n\nr\rt\t","replayed_records":1,"recovered_messages":12345678901,"recovered_pending":18446744073709551615,"recovered_forwards":0,"lost_messages":1,"torn_bytes":12345678901,"segments":18446744073709551615}}"#,
        r#"{"Recovery":{"at_ticks":0,"site":1,"backend":"/é日😀","replayed_records":12345678901,"recovered_messages":18446744073709551615,"recovered_pending":0,"recovered_forwards":1,"lost_messages":12345678901,"torn_bytes":18446744073709551615,"segments":0}}"#,
        r#"{"Counter":{"scope":"","name":"n","value":18446744073709551615}}"#,
        r#"{"Counter":{"scope":"","name":"q\"b\\n\nr\rt\t","value":0}}"#,
        r#"{"Gauge":{"scope":"","name":"storage","current":2.5,"average":1.5}}"#,
        r#"{"Hist":{"scope":"","name":"latency","count":2,"mean":500000000000000.0,"p50":0.5,"p90":1000000000000000.0,"p99":1000000000000000.0,"max":1000000000000000.0}}"#,
        r#"{"Counter":{"scope":"q\"b\\n\nr\rt\t","name":"\u0000\u0001\u0008\u000c\u001f","value":1}}"#,
        r#"{"Counter":{"scope":"q\"b\\n\nr\rt\t","name":"n","value":0}}"#,
        r#"{"Gauge":{"scope":"q\"b\\n\nr\rt\t","name":"storage","current":2.6,"average":1.5900000000000003}}"#,
        r#"{"Hist":{"scope":"q\"b\\n\nr\rt\t","name":"latency","count":2,"mean":500000000000000.06,"p50":0.5,"p90":1000000000000000.0,"p99":1000000000000000.0,"max":1000000000000000.0}}"#,
        r#"{"Counter":{"scope":"\u0000\u0001\u0008\u000c\u001f","name":"/é日😀","value":12345678901}}"#,
        r#"{"Counter":{"scope":"\u0000\u0001\u0008\u000c\u001f","name":"n","value":1}}"#,
        r#"{"Gauge":{"scope":"\u0000\u0001\u0008\u000c\u001f","name":"storage","current":2.7,"average":1.6800000000000004}}"#,
        r#"{"Hist":{"scope":"\u0000\u0001\u0008\u000c\u001f","name":"latency","count":2,"mean":500000000000000.1,"p50":0.5,"p90":1000000000000000.0,"p99":1000000000000000.0,"max":1000000000000000.0}}"#,
        r#"{"Counter":{"scope":"/é日😀","name":"","value":18446744073709551615}}"#,
        r#"{"Counter":{"scope":"/é日😀","name":"n","value":12345678901}}"#,
        r#"{"Gauge":{"scope":"/é日😀","name":"storage","current":2.8,"average":1.7699999999999996}}"#,
        r#"{"Hist":{"scope":"/é日😀","name":"latency","count":2,"mean":500000000000000.1,"p50":0.5,"p90":1000000000000000.0,"p99":1000000000000000.0,"max":1000000000000000.0}}"#,
        r#"{"Metrics":{"scope":"/é日😀","appended_records":0,"appended_bytes":1,"fsyncs":12345678901,"rotations":18446744073709551615,"compactions":0,"compaction_chunks":1,"replayed_records":12345678901,"replayed_bytes":18446744073709551615,"io_errors":1}}"#,
        r#"{"Profile":{"scope":"q\"b\\n\nr\rt\t","name":"","at_ticks":12345678901,"count":18446744073709551615,"ticks":0}}"#,
        r#"{"Profile":{"scope":"/é日😀","name":"\u0000\u0001\u0008\u000c\u001f","at_ticks":18446744073709551615,"count":0,"ticks":1}}"#,
        r#"{"Hist":{"scope":"","name":"h","count":0,"mean":0.0,"p50":-0.0,"p90":1.0,"p99":-1.0,"max":2.5}}"#,
        r#"{"Hist":{"scope":"q\"b\\n\nr\rt\t","name":"h","count":1,"mean":0.1,"p50":1000000000000000.0,"p90":10000000000000000.0,"p99":1000000000000000000000.0,"max":1000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000.0}}"#,
        r#"{"Hist":{"scope":"\u0000\u0001\u0008\u000c\u001f","name":"h","count":12345678901,"mean":0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000001,"p50":-0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000001,"p90":0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000005,"p99":0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000011125369292536007,"max":179769313486231570000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000.0}}"#,
        r#"{"Hist":{"scope":"/é日😀","name":"h","count":18446744073709551615,"mean":-179769313486231570000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000.0,"p50":0.0,"p90":-0.0,"p99":1.0,"max":-1.0}}"#,
    ];

    #[test]
    fn direct_writer_matches_the_serde_reference() {
        let dump = edge_dump();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines, SERDE_REFERENCE);
        assert!(dump.ends_with('\n'));
        let parsed = Dump::parse(&dump).expect("the reader takes it back");
        assert_eq!((parsed.run.as_str(), parsed.seed), (EDGE_TEXT[1], u64::MAX));
        assert_eq!(parsed.spans.len(), SpanStage::ALL.len());
        assert_eq!(parsed.recoveries.len(), 2);
    }
}
