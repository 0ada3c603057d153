//! Reading telemetry dumps back: parsing, per-message timelines, the
//! one-page report, and the exported-evidence span audit.
//!
//! Everything here operates on the JSONL text alone — the inspector never
//! needs the simulation that produced the dump, so `lems-trace` can
//! examine dumps from any `lems-check audit --trace-out` run after the fact.

use std::fmt::Write as _;

use lems_core::store::StoreMetrics;
use lems_sim::span::{audit_spans, SpanAuditReport, SpanEvent, SpanLog};

use crate::schema::{
    read_counter, read_gauge, read_header, read_hist, read_metrics, read_profile, read_recovery,
    read_span, Fields,
};

/// One parsed histogram line.
#[derive(Clone, Debug, PartialEq)]
pub struct HistSummary {
    /// Scope the histogram belongs to.
    pub(crate) scope: String,
    /// Histogram name.
    pub(crate) name: String,
    /// Observations recorded.
    pub(crate) count: u64,
    /// Mean of the raw observations.
    pub(crate) mean: f64,
    /// 50th percentile.
    pub(crate) p50: f64,
    /// 90th percentile.
    pub(crate) p90: f64,
    /// 99th percentile.
    pub(crate) p99: f64,
    /// Exact maximum.
    pub(crate) max: f64,
}

/// One parsed store-recovery line.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoverySummary {
    /// Recovery time in ticks.
    pub(crate) at_ticks: u64,
    /// Node that recovered.
    pub(crate) site: u64,
    /// Backend that performed recovery.
    pub backend: String,
    /// WAL records replayed.
    pub replayed_records: u64,
    /// Mailbox messages present after recovery.
    pub(crate) recovered_messages: u64,
    /// Drained-but-unacked messages present after recovery.
    pub(crate) recovered_pending: u64,
    /// Unsettled forwards re-routed after recovery.
    pub(crate) recovered_forwards: u64,
    /// Stored messages the crash destroyed.
    pub lost_messages: u64,
    /// Torn-tail bytes truncated during replay.
    pub torn_bytes: u64,
    /// Live WAL segments after recovery.
    pub(crate) segments: u64,
}

/// One parsed kernel-profiler sample line.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileLine {
    /// Profiler scope: `dispatch`, `pool`, or `queue`.
    pub scope: String,
    /// Sample name within the scope.
    pub name: String,
    /// Sim time the sample refers to, in ticks (0 for run aggregates).
    pub(crate) at_ticks: u64,
    /// Primary value: a count or a level.
    pub(crate) count: u64,
    /// Sim-time ticks attributed to the sample.
    pub(crate) ticks: u64,
}

/// A fully parsed telemetry dump.
#[derive(Clone, Debug, Default)]
pub struct Dump {
    /// Scenario or experiment id from the header.
    pub run: String,
    /// Engine seed from the header.
    pub seed: u64,
    /// Simulated finish time from the header, in ticks.
    pub(crate) finished_at_ticks: u64,
    /// Span events, in record order.
    pub spans: Vec<SpanEvent>,
    /// Store-recovery reports, in recovery order.
    pub recoveries: Vec<RecoverySummary>,
    /// `(scope, name, value)` counters, in dump order.
    pub counters: Vec<(String, String, u64)>,
    /// `(scope, name, current, average)` gauges, in dump order.
    pub(crate) gauges: Vec<(String, String, f64, f64)>,
    /// Histogram summaries, in dump order.
    pub(crate) hists: Vec<HistSummary>,
    /// `(scope, metrics)` per-store durability counters, in dump order.
    pub(crate) store: Vec<(String, StoreMetrics)>,
    /// Kernel-profiler samples, in dump order.
    pub profile: Vec<ProfileLine>,
}

impl Dump {
    /// Parses JSONL text produced by [`crate::export::export_jsonl`]: each
    /// line goes to the reader of its kind in `crate::schema`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line on a header that is
    /// missing, not first, repeated or of another schema version, an
    /// unknown record kind or span stage, or a line its kind's reader
    /// does not accept (a missing, extra or reordered key, a value of the
    /// wrong type, an escape the writer never prints, trailing bytes).
    pub fn parse(text: &str) -> Result<Dump, String> {
        let mut dump = Dump::default();
        let mut saw_header = false;
        for (i, raw) in text.lines().enumerate() {
            if raw.trim().is_empty() {
                continue;
            }
            let at = |e: String| format!("line {}: {e}", i + 1);
            let (kind, f) = Fields::open(raw).map_err(at)?;
            // The header carries the schema version every later line is
            // read under, so it comes first and only once.
            if saw_header == (kind == "Header") {
                let why = if saw_header {
                    "a second Header line"
                } else {
                    "the first line must be the Header"
                };
                return Err(at(why.to_owned()));
            }
            match kind {
                "Header" => {
                    (dump.run, dump.seed, dump.finished_at_ticks) = read_header(f).map_err(at)?;
                    saw_header = true;
                }
                "Span" => dump.spans.push(read_span(f).map_err(at)?),
                "Recovery" => dump.recoveries.push(read_recovery(f).map_err(at)?),
                "Counter" => dump.counters.push(read_counter(f).map_err(at)?),
                "Gauge" => dump.gauges.push(read_gauge(f).map_err(at)?),
                "Hist" => dump.hists.push(read_hist(f).map_err(at)?),
                "Metrics" => dump.store.push(read_metrics(f).map_err(at)?),
                "Profile" => dump.profile.push(read_profile(f).map_err(at)?),
                other => return Err(at(format!("unknown record kind `{other}`"))),
            }
        }
        if !saw_header {
            return Err("dump has no Header line".to_owned());
        }
        Ok(dump)
    }

    /// The distinct scopes, in first-appearance order.
    pub(crate) fn scopes(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        let names = self
            .counters
            .iter()
            .map(|(s, _, _)| s.as_str())
            .chain(self.gauges.iter().map(|(s, _, _, _)| s.as_str()))
            .chain(self.hists.iter().map(|h| h.scope.as_str()));
        for s in names {
            if !out.contains(&s) {
                out.push(s);
            }
        }
        out
    }

    /// The causal timeline of one span: its events in order, one per line.
    /// Returns an error naming the span when the dump has no events for it.
    ///
    /// # Errors
    ///
    /// When no event carries the requested span id.
    pub fn timeline(&self, span: u64) -> Result<String, String> {
        let events: Vec<&SpanEvent> = self.spans.iter().filter(|e| e.span.0 == span).collect();
        if events.is_empty() {
            return Err(format!("no events for span s{span} in this dump"));
        }
        let mut out = format!("span s{span} — {} event(s)\n", events.len());
        for e in events {
            let _ = writeln!(out, "  {e}");
        }
        Ok(out)
    }

    /// Re-runs the span conservation audit on the exported events — the
    /// same checker the simulator applies in-process, now on the dump as
    /// the evidence.
    pub fn audit(&self, require_terminal: bool) -> SpanAuditReport {
        let log = SpanLog::from_events(self.spans.clone());
        audit_spans(&log, require_terminal)
    }

    /// The whole dump on one page, in three sections: the run summary
    /// (recoveries, fleet-wide counter totals, latency percentiles); each
    /// scope's counters and gauges; and, when the run was profiled, the
    /// dispatch cells ranked by sim-time busy attribution, the payload
    /// pool and the event queue's health. A section with nothing to show
    /// is left out.
    pub fn report(&self) -> String {
        let mut out = String::new();
        self.summary(&mut out);
        self.scope_tables(&mut out);
        self.profile_views(&mut out);
        out
    }

    fn summary(&self, out: &mut String) {
        let _ = writeln!(
            out,
            "run `{}` seed {} finished at {} tick(s): {} span event(s)",
            self.run,
            self.seed,
            self.finished_at_ticks,
            self.spans.len()
        );
        for r in &self.recoveries {
            let _ = writeln!(
                out,
                "  recovery at {} tick(s): n{} via {} — {} record(s) replayed, \
                 {} stored / {} pending / {} forward(s) recovered, {} lost, \
                 {} torn byte(s), {} segment(s)",
                r.at_ticks,
                r.site,
                r.backend,
                r.replayed_records,
                r.recovered_messages,
                r.recovered_pending,
                r.recovered_forwards,
                r.lost_messages,
                r.torn_bytes,
                r.segments
            );
        }
        let mut totals: Vec<(&str, u64)> = Vec::new();
        for (_, name, value) in &self.counters {
            match totals.iter_mut().find(|(n, _)| n == name) {
                Some((_, v)) => *v += value,
                None => totals.push((name, *value)),
            }
        }
        totals.sort_unstable();
        for (name, value) in totals {
            let _ = writeln!(out, "  {name} = {value}");
        }
        if !self.hists.is_empty() {
            let _ = writeln!(
                out,
                "  {:<28} {:>8} {:>9} {:>9} {:>9} {:>9}",
                "latency", "count", "p50", "p90", "p99", "max"
            );
            for h in &self.hists {
                let _ = writeln!(
                    out,
                    "  {:<28} {:>8} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
                    format!("{}/{}", h.scope, h.name),
                    h.count,
                    h.p50,
                    h.p90,
                    h.p99,
                    h.max
                );
            }
        }
    }

    /// Every counter and gauge under its scope: the per-server view (the
    /// paper's server-utilisation lens).
    fn scope_tables(&self, out: &mut String) {
        for scope in self.scopes() {
            let _ = writeln!(out, "{scope}");
            for (s, name, value) in &self.counters {
                if s == scope {
                    let _ = writeln!(out, "  {name} = {value}");
                }
            }
            for (s, name, current, average) in &self.gauges {
                if s == scope {
                    let _ = writeln!(
                        out,
                        "  {name} = {current} (time-weighted mean {average:.3})"
                    );
                }
            }
        }
    }

    /// Where the simulated time went, by (actor kind, event kind) cell; the
    /// payload pool; the event queue's aggregates and depth over time.
    fn profile_views(&self, out: &mut String) {
        let samples = |scope: &'static str| self.profile.iter().filter(move |p| p.scope == scope);
        let mut cells: Vec<&ProfileLine> = samples("dispatch").collect();
        if !cells.is_empty() {
            cells.sort_by(|a, b| {
                (b.ticks, b.count)
                    .cmp(&(a.ticks, a.count))
                    .then(a.name.cmp(&b.name))
            });
            let total_ticks: u64 = cells.iter().map(|c| c.ticks).sum();
            let total_count: u64 = cells.iter().map(|c| c.count).sum();
            let _ = writeln!(
                out,
                "run `{}`: {} dispatch(es), {} busy tick(s) attributed",
                self.run, total_count, total_ticks
            );
            let _ = writeln!(
                out,
                "  {:<28} {:>10} {:>14} {:>7}",
                "kind/event", "count", "busy ticks", "busy%"
            );
            for c in cells {
                let share = if total_ticks == 0 {
                    0.0
                } else {
                    100.0 * c.ticks as f64 / total_ticks as f64
                };
                let _ = writeln!(
                    out,
                    "  {:<28} {:>10} {:>14} {:>6.1}%",
                    c.name, c.count, c.ticks, share
                );
            }
        }
        if samples("pool").next().is_some() {
            let _ = writeln!(out, "pool");
            for r in samples("pool") {
                let _ = writeln!(out, "  {} = {}", r.name, r.count);
            }
        }
        let (depths, aggs): (Vec<&ProfileLine>, Vec<&ProfileLine>) =
            samples("queue").partition(|p| p.name == "depth-sample");
        if depths.is_empty() && aggs.is_empty() {
            return;
        }
        let _ = writeln!(out, "run `{}`: event-queue health", self.run);
        for a in aggs {
            let _ = writeln!(out, "  {} = {}", a.name, a.count);
        }
        if let Some(max) = depths.iter().map(|s| s.count).max() {
            let max = max.max(1);
            let _ = writeln!(
                out,
                "  {:<14} {:>8}  depth over time",
                "at (ticks)", "depth"
            );
            for s in depths {
                let bar = "#".repeat(((s.count * 40).div_ceil(max)) as usize);
                let _ = writeln!(out, "  {:<14} {:>8}  {bar}", s.at_ticks, s.count);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::{export_jsonl, RunTelemetry};
    use lems_sim::metrics::MetricsRegistry;
    use lems_sim::span::{SpanStage, NO_NODE};
    use lems_sim::time::SimTime;

    fn t(u: f64) -> SimTime {
        SimTime::from_units(u)
    }

    /// The parts of a run with every record kind ([`RunTelemetry`] only
    /// borrows them).
    struct DemoRun {
        log: SpanLog,
        scopes: Vec<(String, MetricsRegistry)>,
        recoveries: Vec<lems_core::store::StoreRecovery>,
        store: Vec<(String, StoreMetrics)>,
        profile: Vec<lems_sim::prof::ProfSample>,
    }

    impl DemoRun {
        fn telemetry(&self) -> RunTelemetry<'_> {
            RunTelemetry {
                run: "demo",
                seed: 7,
                finished_at: t(10.0),
                spans: &self.log,
                recoveries: &self.recoveries,
                scopes: &self.scopes,
                store: &self.store,
                profile: &self.profile,
            }
        }
    }

    fn demo_run() -> DemoRun {
        let mut log = SpanLog::unbounded();
        let s = log.open_keyed(1, t(1.0), SpanStage::Submitted, 0);
        log.record(t(1.5), s, SpanStage::Probe, 0, 4, 0);
        log.record(t(2.0), s, SpanStage::Deposited, 4, NO_NODE, 0);
        log.record(t(9.0), s, SpanStage::Retrieved, 0, 4, 0);
        let c = log.open(t(8.0), SpanStage::CheckStarted, 0);
        log.record(t(9.0), c, SpanStage::CheckDone, 0, 4, 1);
        let mut m = MetricsRegistry::new();
        m.inc("deposited");
        m.gauge_add(t(2.0), "storage", 1.0);
        m.observe("delivery_latency", 1.0);
        let scopes = vec![("server:n4".to_owned(), m)];
        let recoveries = vec![lems_core::store::StoreRecovery {
            at: t(5.0),
            site: 4,
            report: lems_core::store::RecoveryReport {
                backend: "wal",
                replayed_records: 12,
                recovered_messages: 1,
                recovered_pending: 0,
                recovered_forwards: 0,
                lost_messages: 0,
                torn_bytes: 7,
                segments: 1,
            },
        }];
        let store = vec![(
            "server:n4".to_owned(),
            StoreMetrics {
                appended_records: 20,
                appended_bytes: 4_100,
                fsyncs: 22,
                rotations: 1,
                compactions: 0,
                compaction_chunks: 0,
                replayed_records: 12,
                replayed_bytes: 2_400,
                io_errors: 0,
            },
        )];
        let profile = vec![
            lems_sim::prof::ProfSample {
                scope: "dispatch",
                name: "server/deliver".to_owned(),
                at: t(0.0),
                count: 30,
                ticks: 9_000,
            },
            lems_sim::prof::ProfSample {
                scope: "dispatch",
                name: "host/timer".to_owned(),
                at: t(0.0),
                count: 5,
                ticks: 1_000,
            },
            lems_sim::prof::ProfSample {
                scope: "queue",
                name: "depth".to_owned(),
                at: t(0.0),
                count: 0,
                ticks: 0,
            },
            lems_sim::prof::ProfSample {
                scope: "queue",
                name: "depth-sample".to_owned(),
                at: t(3.0),
                count: 17,
                ticks: 0,
            },
        ];
        DemoRun {
            log,
            scopes,
            recoveries,
            store,
            profile,
        }
    }

    fn demo_dump() -> Dump {
        let text = export_jsonl(&demo_run().telemetry()).expect("exports");
        Dump::parse(&text).expect("parses")
    }

    #[test]
    fn round_trip_preserves_everything() {
        let d = demo_dump();
        assert_eq!(d.run, "demo");
        assert_eq!(d.seed, 7);
        assert_eq!(d.spans.len(), 6);
        assert_eq!(
            d.counters,
            vec![("server:n4".into(), "deposited".into(), 1)]
        );
        assert_eq!(d.gauges.len(), 1);
        assert_eq!(d.hists.len(), 1);
        assert_eq!(d.scopes(), vec!["server:n4"]);
        assert_eq!(d.recoveries.len(), 1);
        assert_eq!(d.recoveries[0].backend, "wal");
        assert_eq!(d.recoveries[0].replayed_records, 12);
        assert_eq!(d.recoveries[0].torn_bytes, 7);
        assert_eq!(d.store.len(), 1);
        assert_eq!(d.store[0].0, "server:n4");
        assert_eq!(d.store[0].1.fsyncs, 22);
        assert_eq!(d.profile.len(), 4);
        assert_eq!(d.profile[0].name, "server/deliver");
        assert_eq!(d.profile[0].ticks, 9_000);
    }

    #[test]
    fn top_ranks_dispatch_cells_by_busy_ticks() {
        let d = demo_dump();
        let out = d.report();
        let deliver = out.find("server/deliver").expect("hot cell present");
        let timer = out.find("host/timer").expect("cool cell present");
        assert!(deliver < timer, "rows must be ranked by busy ticks");
        assert!(out.contains("90.0%"), "busy share must be rendered:\n{out}");
        // A dump with no profile leaves the profiler's sections out.
        let mut bare = d.clone();
        bare.profile.clear();
        let out = bare.report();
        assert!(
            !out.contains("busy%") && !out.contains("event-queue"),
            "{out}"
        );
        assert!(out.starts_with("run `demo` seed 7"), "{out}");
    }

    #[test]
    fn queues_renders_aggregates_and_depth_timeline() {
        let out = demo_dump().report();
        let queue = out.find("event-queue health").expect("queue section");
        assert!(out[queue..].contains("depth = 0"));
        assert!(out[queue..].contains("17"), "depth sample value:\n{out}");
        assert!(out[queue..].contains('#'), "depth bar:\n{out}");
    }

    #[test]
    fn timeline_lists_one_span_in_order() {
        let d = demo_dump();
        let tl = d.timeline(0).expect("span exists");
        assert!(tl.contains("4 event(s)"));
        assert!(tl.contains("submitted"));
        assert!(tl.contains("retrieved"));
        assert!(!tl.contains("check"), "span 1 must not leak in");
        assert!(d.timeline(99).is_err());
    }

    #[test]
    fn audit_matches_in_process_verdict() {
        let d = demo_dump();
        let report = d.audit(true);
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert_eq!(report.retrieved, 1);
        assert_eq!(report.checks_done, 1);
    }

    #[test]
    fn summary_and_servers_render() {
        let out = demo_dump().report();
        assert!(out.contains("deposited = 1"));
        assert!(out.contains("recovery at 5000000 tick(s): n4 via wal"));
        assert!(out.contains("server:n4/delivery_latency"));
        // The summary, then each scope's table, then the profiler's views.
        let summary = out.find("span event(s)").expect("summary");
        let scope = out.find("\nserver:n4\n").expect("scope table");
        let storage = out
            .find("storage = 1 (time-weighted mean")
            .expect("gauge row");
        let dispatch = out.find("busy tick(s) attributed").expect("dispatch view");
        assert!(
            summary < scope && scope < storage && storage < dispatch,
            "{out}"
        );
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(Dump::parse("").is_err(), "no header");
        assert!(Dump::parse("{\"nonsense\":1}\n").is_err());
        let good = export_jsonl(&RunTelemetry {
            run: "x",
            seed: 1,
            finished_at: t(1.0),
            spans: &SpanLog::unbounded(),
            recoveries: &[],
            scopes: &[],
            store: &[],
            profile: &[],
        })
        .expect("exports");
        let bad = good.replace("\"schema_version\":3", "\"schema_version\":99");
        let err = Dump::parse(&bad).expect_err("version mismatch");
        assert!(err.contains("schema version 99"));
        let counter = "{\"Counter\":{\"scope\":\"s\",\"name\":\"n\",\"value\":1}}\n";
        let err = Dump::parse(&format!("{counter}{good}")).expect_err("header not first");
        assert!(err.contains("line 1: the first line must be the Header"));
        let err = Dump::parse(&format!("\n{good}{counter}{good}")).expect_err("two headers");
        assert!(err.contains("line 4: a second Header line"));
        // Each reader takes its writer's form and nothing else.
        let c = |fields: &str| format!("{{\"Counter\":{{{fields}}}}}");
        let cases = [
            ("{\"Bogus\":{\"value\":1}}".to_owned(), "unknown record kind `Bogus`"),
            (c("\"scope\":\"s\",\"name\":\"n\""), "expected key `value` at `}}`"),
            (c("\"scope\":\"s\",\"name\":\"n\",\"value\":1,\"x\":2"), "expected `}}` at `,\"x\":2}}`"),
            (c("\"name\":\"n\",\"scope\":\"s\",\"value\":1"), "expected key `scope`"),
            (c("\"scope\":\"s\",\"name\":\"n\",\"value\":\"1\""), "`value`: expected a number at `\"1\"}}`"),
            (c("\"scope\":\"s\",\"name\":\"n\",\"value\":-1"), "`value`: `-1` is not an unsigned integer"),
            (c("\"scope\":\"s\",\"name\":\"n\",\"value\":1.5"), "`value`: `1.5` is not an unsigned integer"),
            (c("\"scope\":\"s\",\"name\":\"n\",\"value\":18446744073709551616"), "`value`: `18446744073709551616` overflows u64"),
            (c("\"scope\":\"\\q\",\"name\":\"n\",\"value\":1"), "`scope`: unknown escape `\\q"),
            (c("\"scope\":\"\\u0041\",\"name\":\"n\",\"value\":1"), "`scope`: unknown escape `\\u0041"),
            ("{\"Counter\":{\"scope\":\"s".to_owned(), "`scope`: unterminated string"),
            (c("\"scope\":\"s\",\"name\":\"n\",\"value\":1") + " ", "bytes after `}}`: ` `"),
            (
                "{\"Span\":{\"at_ticks\":1,\"span\":0,\"stage\":\"nope\",\"site\":0,\"peer\":0,\"detail\":0}}".to_owned(),
                "unknown stage `nope`",
            ),
        ];
        for (line, why) in cases {
            let err = Dump::parse(&format!("{good}{line}\n")).expect_err(&line);
            assert!(err.contains(&format!("line 2: {why}")), "{line}: {err}");
        }
    }
}
