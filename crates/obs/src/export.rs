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
//! its source to one pre-sized buffer through a small line writer, with
//! no typed line, value tree or per-field `String` in between (DESIGN.md
//! §18). The typed [`crate::schema::ObsLine`] is what the reader
//! deserialises, and its `Serialize` rendering is the test oracle the
//! writer is held to byte for byte.

use std::io::Write as _;

use lems_core::store::{StoreMetrics, StoreRecovery};
use lems_sim::metrics::MetricsRegistry;
use lems_sim::prof::ProfSample;
use lems_sim::span::{SpanEvent, SpanLog};
use lems_sim::time::SimTime;

use crate::schema::OBS_SCHEMA_VERSION;

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
/// trailing newline).
///
/// Every record goes from its source straight into one buffer sized from
/// the span count, so the export allocates once however long the run was.
/// The bytes are those of `serde_json::to_string` over the typed
/// [`crate::schema::ObsLine`], which the tests keep as the reference.
///
/// # Errors
///
/// Refuses to export a gauge or histogram whose value is not finite: its
/// own reader would reject it (JSON has no such number).
pub fn export_jsonl(run: &RunTelemetry<'_>) -> Result<String, String> {
    let events = run.spans.events();
    let mut out = Vec::with_capacity(256 + events.len() * SPAN_LINE_MAX);
    let mut l = Line::open(&mut out, "Header");
    l.u64("schema_version", u64::from(OBS_SCHEMA_VERSION));
    l.str("run", run.run);
    l.u64("seed", run.seed);
    l.u64("finished_at_ticks", run.finished_at.as_ticks());
    l.close();
    for e in events {
        span_line(&mut out, e);
    }
    for r in run.recoveries {
        let mut l = Line::open(&mut out, "Recovery");
        l.u64("at_ticks", r.at.as_ticks());
        l.u64("site", r.site);
        l.str("backend", r.backend);
        l.u64("replayed_records", r.replayed_records);
        l.u64("recovered_messages", r.recovered_messages);
        l.u64("recovered_pending", r.recovered_pending);
        l.u64("recovered_forwards", r.recovered_forwards);
        l.u64("lost_messages", r.lost_messages);
        l.u64("torn_bytes", r.torn_bytes);
        l.u64("segments", r.segments);
        l.close();
    }
    for (scope, m) in run.scopes {
        for (name, value) in m.counters() {
            let mut l = Line::open(&mut out, "Counter");
            l.str("scope", scope);
            l.str("name", name);
            l.u64("value", value);
            l.close();
        }
        for (name, g) in m.gauges() {
            let values = [g.current(), g.average(run.finished_at)];
            gauge_line(&mut out, scope, name, values)?;
        }
        for (name, h) in m.histograms() {
            let values = [
                h.mean(),
                h.quantile(0.50).unwrap_or(0.0),
                h.quantile(0.90).unwrap_or(0.0),
                h.quantile(0.99).unwrap_or(0.0),
                h.max().unwrap_or(0.0),
            ];
            hist_line(&mut out, scope, name, h.count(), values)?;
        }
    }
    for (scope, m) in run.store {
        let mut l = Line::open(&mut out, "Metrics");
        l.str("scope", scope);
        l.u64("appended_records", m.appended_records);
        l.u64("appended_bytes", m.appended_bytes);
        l.u64("fsyncs", m.fsyncs);
        l.u64("rotations", m.rotations);
        l.u64("compactions", m.compactions);
        l.u64("compaction_chunks", m.compaction_chunks);
        l.u64("replayed_records", m.replayed_records);
        l.u64("replayed_bytes", m.replayed_bytes);
        l.u64("io_errors", m.io_errors);
        l.close();
    }
    for s in run.profile {
        let mut l = Line::open(&mut out, "Profile");
        l.str("scope", s.scope);
        l.str("name", &s.name);
        l.u64("at_ticks", s.at.as_ticks());
        l.u64("count", s.count);
        l.u64("ticks", s.ticks);
        l.close();
    }
    // Every byte came from a `&str` or an ASCII literal; the check is one
    // pass over the buffer where a `String` would pay one per integer.
    String::from_utf8(out).map_err(|e| e.to_string())
}

fn span_line(out: &mut Vec<u8>, e: &SpanEvent) {
    let mut l = Line::open(out, "Span");
    l.u64("at_ticks", e.at.as_ticks());
    l.u64("span", e.span.0);
    l.str("stage", e.stage.name());
    l.u64("site", e.site);
    l.u64("peer", e.peer);
    l.u64("detail", e.detail);
    l.close();
}

/// `values` is `[current, average]`.
fn gauge_line(out: &mut Vec<u8>, scope: &str, name: &str, values: [f64; 2]) -> Result<(), String> {
    require_finite("gauge", scope, name, &values)?;
    let [current, average] = values;
    let mut l = Line::open(out, "Gauge");
    l.str("scope", scope);
    l.str("name", name);
    l.f64("current", current);
    l.f64("average", average);
    l.close();
    Ok(())
}

/// `values` is `[mean, p50, p90, p99, max]`.
fn hist_line(
    out: &mut Vec<u8>,
    scope: &str,
    name: &str,
    count: u64,
    values: [f64; 5],
) -> Result<(), String> {
    require_finite("histogram", scope, name, &values)?;
    let [mean, p50, p90, p99, max] = values;
    let mut l = Line::open(out, "Hist");
    l.str("scope", scope);
    l.str("name", name);
    l.u64("count", count);
    l.f64("mean", mean);
    l.f64("p50", p50);
    l.f64("p90", p90);
    l.f64("p99", p99);
    l.f64("max", max);
    l.close();
    Ok(())
}

/// The vendored printer writes a non-finite float as `null`, which
/// [`crate::inspect::Dump::parse`] rejects for the whole dump.
fn require_finite(kind: &str, scope: &str, name: &str, values: &[f64]) -> Result<(), String> {
    match values.iter().find(|v| !v.is_finite()) {
        Some(v) => Err(format!(
            "{kind} `{name}` of scope `{scope}` is {v}; refusing to export a dump the inspector cannot read"
        )),
        None => Ok(()),
    }
}

/// One record being appended to the dump: `{"Kind":{"key":value,…}}\n`,
/// the externally tagged form the `ObsLine` derive prints. Every field
/// ends in a comma and [`Line::close`] turns the last one into the
/// closing braces, so a field never asks whether it is the first.
struct Line<'a> {
    out: &'a mut Vec<u8>,
}

const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

impl<'a> Line<'a> {
    /// `kind` and every `key` are schema identifiers: no escaping needed.
    fn open(out: &'a mut Vec<u8>, kind: &str) -> Self {
        out.extend_from_slice(b"{\"");
        out.extend_from_slice(kind.as_bytes());
        out.extend_from_slice(b"\":{");
        Line { out }
    }

    fn key(&mut self, key: &str) {
        self.out.push(b'"');
        self.out.extend_from_slice(key.as_bytes());
        self.out.extend_from_slice(b"\":");
    }

    fn u64(&mut self, key: &str, mut v: u64) {
        self.key(key);
        // u64::MAX has 20 digits; filled from the back, two at a time.
        let mut buf = [0u8; 20];
        let mut at = buf.len();
        while v >= 100 {
            let pair = (v % 100) as usize * 2;
            v /= 100;
            at -= 2;
            buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        }
        if v >= 10 {
            let pair = v as usize * 2;
            at -= 2;
            buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        } else {
            at -= 1;
            buf[at] = b'0' + v as u8;
        }
        self.out.extend_from_slice(&buf[at..]);
        self.out.push(b',');
    }

    /// `v` must be finite (the two callers refuse the export otherwise).
    fn f64(&mut self, key: &str, v: f64) {
        debug_assert!(v.is_finite(), "{key} = {v}");
        self.key(key);
        let start = self.out.len();
        // Writing into a `Vec` cannot fail.
        let _ = write!(self.out, "{v}");
        // Keep the float/integer distinction visible so `1.0` parses back
        // as a float (the reference printer's rule).
        if !self.out[start..]
            .iter()
            .any(|b| matches!(b, b'.' | b'e' | b'E'))
        {
            self.out.extend_from_slice(b".0");
        }
        self.out.push(b',');
    }

    fn str(&mut self, key: &str, v: &str) {
        self.key(key);
        self.out.push(b'"');
        // The reference printer's table, bytewise: everything it escapes is
        // ASCII, so multi-byte characters pass through untouched.
        let mut rest = v.as_bytes();
        while let Some(i) = rest
            .iter()
            .position(|&b| b < 0x20 || b == b'"' || b == b'\\')
        {
            self.out.extend_from_slice(&rest[..i]);
            match rest[i] {
                b'"' => self.out.extend_from_slice(b"\\\""),
                b'\\' => self.out.extend_from_slice(b"\\\\"),
                b'\n' => self.out.extend_from_slice(b"\\n"),
                b'\r' => self.out.extend_from_slice(b"\\r"),
                b'\t' => self.out.extend_from_slice(b"\\t"),
                b => {
                    // Writing into a `Vec` cannot fail.
                    let _ = write!(self.out, "\\u{b:04x}");
                }
            }
            rest = &rest[i + 1..];
        }
        self.out.extend_from_slice(rest);
        self.out.extend_from_slice(b"\",");
    }

    fn close(self) {
        self.out.pop();
        self.out.extend_from_slice(b"}}\n");
    }
}

/// The typed line sequence for `run`: the rendering [`export_jsonl`] had
/// before it wrote bytes itself, kept as the oracle it is compared with.
#[cfg(test)]
pub(crate) fn export_lines(run: &RunTelemetry<'_>) -> Vec<crate::schema::ObsLine> {
    use crate::schema::ObsLine;
    let mut lines = Vec::with_capacity(1 + run.spans.events().len());
    lines.push(ObsLine::Header {
        schema_version: OBS_SCHEMA_VERSION,
        run: run.run.to_owned(),
        seed: run.seed,
        finished_at_ticks: run.finished_at.as_ticks(),
    });
    for e in run.spans.events() {
        lines.push(ObsLine::Span {
            at_ticks: e.at.as_ticks(),
            span: e.span.0,
            stage: e.stage.name().to_owned(),
            site: e.site,
            peer: e.peer,
            detail: e.detail,
        });
    }
    for r in run.recoveries {
        lines.push(ObsLine::Recovery {
            at_ticks: r.at.as_ticks(),
            site: r.site,
            backend: r.backend.to_owned(),
            replayed_records: r.replayed_records,
            recovered_messages: r.recovered_messages,
            recovered_pending: r.recovered_pending,
            recovered_forwards: r.recovered_forwards,
            lost_messages: r.lost_messages,
            torn_bytes: r.torn_bytes,
            segments: r.segments,
        });
    }
    for (scope, m) in run.scopes {
        for (name, value) in m.counters() {
            lines.push(ObsLine::Counter {
                scope: scope.clone(),
                name: name.to_owned(),
                value,
            });
        }
        for (name, g) in m.gauges() {
            lines.push(ObsLine::Gauge {
                scope: scope.clone(),
                name: name.to_owned(),
                current: g.current(),
                average: g.average(run.finished_at),
            });
        }
        for (name, h) in m.histograms() {
            lines.push(ObsLine::Hist {
                scope: scope.clone(),
                name: name.to_owned(),
                count: h.count(),
                mean: h.mean(),
                p50: h.quantile(0.50).unwrap_or(0.0),
                p90: h.quantile(0.90).unwrap_or(0.0),
                p99: h.quantile(0.99).unwrap_or(0.0),
                max: h.max().unwrap_or(0.0),
            });
        }
    }
    for (scope, m) in run.store {
        lines.push(ObsLine::Metrics {
            scope: scope.clone(),
            appended_records: m.appended_records,
            appended_bytes: m.appended_bytes,
            fsyncs: m.fsyncs,
            rotations: m.rotations,
            compactions: m.compactions,
            compaction_chunks: m.compaction_chunks,
            replayed_records: m.replayed_records,
            replayed_bytes: m.replayed_bytes,
            io_errors: m.io_errors,
        });
    }
    for s in run.profile {
        lines.push(ObsLine::Profile {
            scope: s.scope.to_owned(),
            name: s.name.clone(),
            at_ticks: s.at.as_ticks(),
            count: s.count,
            ticks: s.ticks,
        });
    }
    lines
}

/// [`export_lines`] through the derived `Serialize`, one line each.
#[cfg(test)]
pub(crate) fn reference_jsonl(run: &RunTelemetry<'_>) -> String {
    export_lines(run)
        .iter()
        .map(|line| serde_json::to_string(line).expect("serialises") + "\n")
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ObsLine;
    use lems_sim::span::{SpanId, SpanStage, NO_NODE};
    use lems_sim::time::SimDuration;
    use proptest::prelude::*;

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
        // What the refusal prevents: the reference rendering of this run
        // is a dump the reader rejects whole.
        let unreadable = crate::inspect::Dump::parse(&reference_jsonl(&run));
        assert!(unreadable.expect_err("null is no float").contains("null"));
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
        let lines = export_lines(&run);
        let Some(ObsLine::Gauge {
            average, current, ..
        }) = lines.last()
        else {
            panic!("expected a gauge line");
        };
        // 0 for [0,2), 4 for [2,4) => average 2 over the run.
        assert!((average - 2.0).abs() < 1e-9);
        assert!((current - 4.0).abs() < 1e-9);
    }

    const STAGES: [SpanStage; 11] = [
        SpanStage::Submitted,
        SpanStage::CheckStarted,
        SpanStage::Probe,
        SpanStage::Accepted,
        SpanStage::Resolved,
        SpanStage::Forwarded,
        SpanStage::Deposited,
        SpanStage::Notified,
        SpanStage::Retrieved,
        SpanStage::Bounced,
        SpanStage::CheckDone,
    ];

    #[test]
    fn span_line_bound_covers_every_stage() {
        for stage in STAGES {
            let mut out = Vec::new();
            let widest = SpanEvent {
                at: SimTime::MAX,
                span: SpanId(u64::MAX),
                stage,
                site: NO_NODE,
                peer: NO_NODE,
                detail: u64::MAX,
            };
            span_line(&mut out, &widest);
            assert!(out.len() <= SPAN_LINE_MAX, "{} bytes", out.len());
        }
    }

    /// Everything the escaping table treats specially (quote, backslash,
    /// the three named escapes, other control characters) beside what it
    /// must pass through (DEL, `/`, two-, three- and four-byte characters).
    const TEXT: &str = "[a-z \"\\\n\r\t\u{0}\u{1}\u{8}\u{c}\u{1f}\u{7f}/é日😀]{0,12}";

    /// 0, `u64::MAX` (`NO_NODE`) and every digit count in between.
    fn edge_u64(r: u64) -> u64 {
        match r % 5 {
            0 => 0,
            1 => u64::MAX,
            _ => r >> (r / 5 % 64),
        }
    }

    /// Integral, fractional, signed-zero, subnormal and extreme floats,
    /// or any finite bit pattern.
    fn edge_f64(r: u64) -> f64 {
        const EDGES: [f64; 16] = [
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
        let bits = f64::from_bits(r);
        if r.is_multiple_of(3) || !bits.is_finite() {
            EDGES[(r / 3 % 16) as usize]
        } else {
            bits
        }
    }

    fn leak(s: &str) -> &'static str {
        Box::leak(s.to_owned().into_boxed_str())
    }

    proptest! {
        #[test]
        fn direct_writer_matches_the_serde_reference(
            ints in collection::vec(0u64..=u64::MAX, 48),
            floats in collection::vec(0u64..=u64::MAX, 7),
            text in collection::vec(TEXT, 7),
        ) {
            let mut ints = ints.into_iter();
            let mut int = move || edge_u64(ints.next().expect("enough draws"));
            let mut floats = floats.into_iter();
            let mut float = move || edge_f64(floats.next().expect("enough draws"));

            // Header, Span, Recovery, Counter, Metrics, Profile: through
            // the whole export, from their real sources.
            let events = (0..3)
                .map(|_| SpanEvent {
                    at: SimTime::from_ticks(int()),
                    span: SpanId(int()),
                    stage: STAGES[(int() % 11) as usize],
                    site: int(),
                    peer: int(),
                    detail: int(),
                })
                .collect();
            let log = SpanLog::from_events(events);
            let recoveries = [StoreRecovery {
                at: SimTime::from_ticks(int()),
                site: int(),
                backend: leak(&text[0]),
                replayed_records: int(),
                recovered_messages: int(),
                recovered_pending: int(),
                recovered_forwards: int(),
                lost_messages: int(),
                torn_bytes: int(),
                segments: int(),
            }];
            let mut m = MetricsRegistry::new();
            m.counter_add(leak(&text[1]), int());
            let scopes = [(text[2].clone(), m)];
            let store = [(
                text[3].clone(),
                StoreMetrics {
                    appended_records: int(),
                    appended_bytes: int(),
                    fsyncs: int(),
                    rotations: int(),
                    compactions: int(),
                    compaction_chunks: int(),
                    replayed_records: int(),
                    replayed_bytes: int(),
                    io_errors: int(),
                },
            )];
            let profile = [ProfSample {
                scope: leak(&text[4]),
                name: text[5].clone(),
                at: SimTime::from_ticks(int()),
                count: int(),
                ticks: int(),
            }];
            let run = RunTelemetry {
                run: &text[6],
                seed: int(),
                finished_at: SimTime::from_ticks(int()),
                spans: &log,
                recoveries: &recoveries,
                scopes: &scopes,
                store: &store,
                profile: &profile,
            };
            prop_assert_eq!(export_jsonl(&run).expect("exports"), reference_jsonl(&run));

            // Gauge, Hist: a registry computes their floats, so the edge
            // values go to the two line functions directly.
            let (scope, name, count) = (&text[2], &text[1], int());
            let g = [float(), float()];
            let h = [float(), float(), float(), float(), float()];
            let mut out = Vec::new();
            gauge_line(&mut out, scope, name, g).expect("finite");
            hist_line(&mut out, scope, name, count, h).expect("finite");
            let reference: String = [
                ObsLine::Gauge {
                    scope: scope.clone(),
                    name: name.clone(),
                    current: g[0],
                    average: g[1],
                },
                ObsLine::Hist {
                    scope: scope.clone(),
                    name: name.clone(),
                    count,
                    mean: h[0],
                    p50: h[1],
                    p90: h[2],
                    p99: h[3],
                    max: h[4],
                },
            ]
            .iter()
            .map(|line| serde_json::to_string(line).expect("serialises") + "\n")
            .collect();
            prop_assert_eq!(String::from_utf8(out).expect("utf-8"), reference);
        }
    }
}
