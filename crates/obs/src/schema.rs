//! The JSONL wire format of a telemetry dump, written and read in one
//! place.
//!
//! A dump is a sequence of lines, one record each, in the externally
//! tagged form `{"Kind":{"key":value,…}}`. The first line is always a
//! `Header`; [`crate::export`] gives the order of the rest. Times are
//! simulated ticks (`u64`, see [`lems_sim::time::TICKS_PER_UNIT`]) — never
//! wall clock — so a dump is a pure function of the run that produced it.
//! Node fields (`site`, `peer`) carry raw node ids with `u64::MAX` as the
//! "none" sentinel, mirroring [`lems_sim::span::NO_NODE`].
//!
//! Each of the eight record kinds is one `write_*`/`read_*` pair below,
//! side by side. The writer appends the kind's keys in order through a
//! `Line`; the reader takes the same keys back in the same order through
//! a `Fields` cursor, `Line`'s mirror. A reader accepts what its writer
//! prints and nothing looser — no whitespace, no other key order, only
//! the writer's escapes — and says what it found otherwise.

use std::borrow::Cow;
use std::io::Write as _;

use lems_core::store::{StoreMetrics, StoreRecovery};
use lems_sim::prof::ProfSample;
use lems_sim::span::{SpanEvent, SpanId, SpanStage};
use lems_sim::time::SimTime;

use crate::inspect::{HistSummary, ProfileLine, RecoverySummary};

/// Version stamp carried by every dump's header; bump when a field
/// changes meaning or disappears (additions are fine).
///
/// History: v1 — header/span/metric lines; v2 — store-recovery lines
/// between the span block and the metric block; v3 — per-store
/// durability metrics and kernel profiler samples after the metric block.
pub(crate) const OBS_SCHEMA_VERSION: u32 = 3;

/// First line of every dump: what produced it.
pub(crate) fn write_header(out: &mut Vec<u8>, run: &str, seed: u64, finished_at_ticks: u64) {
    let mut l = Line::open(out, "Header");
    l.u64("schema_version", u64::from(OBS_SCHEMA_VERSION));
    l.str("run", run);
    l.u64("seed", seed);
    l.u64("finished_at_ticks", finished_at_ticks);
    l.close();
}

/// `(run, seed, finished_at_ticks)`, refusing another schema version.
pub(crate) fn read_header(mut f: Fields<'_>) -> Result<(String, u64, u64), String> {
    let version = f.u64("schema_version")?;
    if version != u64::from(OBS_SCHEMA_VERSION) {
        return Err(format!(
            "schema version {version}, this inspector reads {OBS_SCHEMA_VERSION}"
        ));
    }
    let header = (
        f.str("run")?.into(),
        f.u64("seed")?,
        f.u64("finished_at_ticks")?,
    );
    f.close(header)
}

/// One span event, in record order.
pub(crate) fn write_span(out: &mut Vec<u8>, e: &SpanEvent) {
    let mut l = Line::open(out, "Span");
    l.u64("at_ticks", e.at.as_ticks());
    l.u64("span", e.span.0);
    l.str("stage", e.stage.name());
    l.u64("site", e.site);
    l.u64("peer", e.peer);
    l.u64("detail", e.detail);
    l.close();
}

pub(crate) fn read_span(mut f: Fields<'_>) -> Result<SpanEvent, String> {
    let at = SimTime::from_ticks(f.u64("at_ticks")?);
    let span = SpanId(f.u64("span")?);
    let name = f.str("stage")?;
    let stage = SpanStage::from_name(&name).ok_or_else(|| format!("unknown stage `{name}`"))?;
    let event = SpanEvent {
        at,
        span,
        stage,
        site: f.u64("site")?,
        peer: f.u64("peer")?,
        detail: f.u64("detail")?,
    };
    f.close(event)
}

/// One mailbox-store recovery (a server coming back from a crash), in
/// recovery order.
pub(crate) fn write_recovery(out: &mut Vec<u8>, recovery: &StoreRecovery) {
    let mut l = Line::open(out, "Recovery");
    l.u64("at_ticks", recovery.at.as_ticks());
    l.u64("site", recovery.site);
    let r = &recovery.report;
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

pub(crate) fn read_recovery(mut f: Fields<'_>) -> Result<RecoverySummary, String> {
    let recovery = RecoverySummary {
        at_ticks: f.u64("at_ticks")?,
        site: f.u64("site")?,
        backend: f.str("backend")?.into(),
        replayed_records: f.u64("replayed_records")?,
        recovered_messages: f.u64("recovered_messages")?,
        recovered_pending: f.u64("recovered_pending")?,
        recovered_forwards: f.u64("recovered_forwards")?,
        lost_messages: f.u64("lost_messages")?,
        torn_bytes: f.u64("torn_bytes")?,
        segments: f.u64("segments")?,
    };
    f.close(recovery)
}

/// One named counter of one scope.
pub(crate) fn write_counter(out: &mut Vec<u8>, scope: &str, name: &str, value: u64) {
    let mut l = Line::open(out, "Counter");
    l.str("scope", scope);
    l.str("name", name);
    l.u64("value", value);
    l.close();
}

/// `(scope, name, value)`.
pub(crate) fn read_counter(mut f: Fields<'_>) -> Result<(String, String, u64), String> {
    let counter = (
        f.str("scope")?.into(),
        f.str("name")?.into(),
        f.u64("value")?,
    );
    f.close(counter)
}

/// One time-weighted gauge of one scope; `values` is `[current, average]`.
pub(crate) fn write_gauge(
    out: &mut Vec<u8>,
    scope: &str,
    name: &str,
    values: [f64; 2],
) -> Result<(), String> {
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

/// `(scope, name, current, average)`.
pub(crate) fn read_gauge(mut f: Fields<'_>) -> Result<(String, String, f64, f64), String> {
    let gauge = (
        f.str("scope")?.into(),
        f.str("name")?.into(),
        f.f64("current")?,
        f.f64("average")?,
    );
    f.close(gauge)
}

/// One latency histogram of one scope, reduced to its summary; `values`
/// is `[mean, p50, p90, p99, max]`.
pub(crate) fn write_hist(
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

pub(crate) fn read_hist(mut f: Fields<'_>) -> Result<HistSummary, String> {
    let hist = HistSummary {
        scope: f.str("scope")?.into(),
        name: f.str("name")?.into(),
        count: f.u64("count")?,
        mean: f.f64("mean")?,
        p50: f.f64("p50")?,
        p90: f.f64("p90")?,
        p99: f.f64("p99")?,
        max: f.f64("max")?,
    };
    f.close(hist)
}

/// One mailbox store's durability counters (WAL health), one line per
/// server scope.
pub(crate) fn write_metrics(out: &mut Vec<u8>, scope: &str, m: &StoreMetrics) {
    let mut l = Line::open(out, "Metrics");
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

pub(crate) fn read_metrics(mut f: Fields<'_>) -> Result<(String, StoreMetrics), String> {
    let metrics = (
        f.str("scope")?.into(),
        StoreMetrics {
            appended_records: f.u64("appended_records")?,
            appended_bytes: f.u64("appended_bytes")?,
            fsyncs: f.u64("fsyncs")?,
            rotations: f.u64("rotations")?,
            compactions: f.u64("compactions")?,
            compaction_chunks: f.u64("compaction_chunks")?,
            replayed_records: f.u64("replayed_records")?,
            replayed_bytes: f.u64("replayed_bytes")?,
            io_errors: f.u64("io_errors")?,
        },
    );
    f.close(metrics)
}

/// One kernel-profiler sample, present only when the run enabled
/// profiling.
pub(crate) fn write_profile(out: &mut Vec<u8>, s: &ProfSample) {
    let mut l = Line::open(out, "Profile");
    l.str("scope", s.scope);
    l.str("name", &s.name);
    l.u64("at_ticks", s.at.as_ticks());
    l.u64("count", s.count);
    l.u64("ticks", s.ticks);
    l.close();
}

pub(crate) fn read_profile(mut f: Fields<'_>) -> Result<ProfileLine, String> {
    let sample = ProfileLine {
        scope: f.str("scope")?.into(),
        name: f.str("name")?.into(),
        at_ticks: f.u64("at_ticks")?,
        count: f.u64("count")?,
        ticks: f.u64("ticks")?,
    };
    f.close(sample)
}

/// JSON has no non-finite number: the export refuses one rather than
/// write a dump its own reader rejects.
fn require_finite(kind: &str, scope: &str, name: &str, values: &[f64]) -> Result<(), String> {
    match values.iter().find(|v| !v.is_finite()) {
        Some(v) => Err(format!(
            "{kind} `{name}` of scope `{scope}` is {v}; refusing to export a dump the inspector cannot read"
        )),
        None => Ok(()),
    }
}

/// One record being appended to the dump: `{"Kind":{"key":value,…}}\n`.
/// Every field ends in a comma and [`Line::close`] turns the last one into
/// the closing braces, so a field never asks whether it is the first.
pub(crate) struct Line<'a> {
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
        // Keep the float/integer distinction visible: `1.0`, not `1`.
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
        // Everything escaped is ASCII, so multi-byte characters pass
        // through untouched.
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

/// [`Line`]'s mirror: a cursor over one record (without its newline) that
/// takes the fields back in the order the writer appended them.
pub(crate) struct Fields<'a> {
    rest: &'a str,
    /// What precedes the next key: nothing before the first, then a comma.
    sep: &'static str,
}

impl<'a> Fields<'a> {
    /// Reads `{"Kind":{` and returns the kind with a cursor on its fields.
    pub(crate) fn open(line: &'a str) -> Result<(&'a str, Self), String> {
        let opened = line.strip_prefix("{\"").and_then(|r| r.split_once('"'));
        match opened.and_then(|(kind, r)| Some((kind, r.strip_prefix(":{")?))) {
            Some((kind, rest)) => Ok((kind, Fields { rest, sep: "" })),
            None => Err(format!("expected `{{\"Kind\":{{` at `{}`", excerpt(line))),
        }
    }

    fn key(&mut self, key: &str) -> Result<(), String> {
        let sep = std::mem::replace(&mut self.sep, ",");
        let value = self
            .rest
            .strip_prefix(sep)
            .and_then(|r| r.strip_prefix('"'))
            .and_then(|r| r.strip_prefix(key))
            .and_then(|r| r.strip_prefix("\":"));
        match value {
            Some(rest) => {
                self.rest = rest;
                Ok(())
            }
            None => Err(format!("expected key `{key}` at `{}`", excerpt(self.rest))),
        }
    }

    /// The characters a JSON number may use, after `key`.
    fn number(&mut self, key: &str) -> Result<&'a str, String> {
        self.key(key)?;
        let end = self
            .rest
            .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
            .unwrap_or(self.rest.len());
        if end == 0 {
            return Err(format!(
                "`{key}`: expected a number at `{}`",
                excerpt(self.rest)
            ));
        }
        let (number, rest) = self.rest.split_at(end);
        self.rest = rest;
        Ok(number)
    }

    fn u64(&mut self, key: &str) -> Result<u64, String> {
        let n = self.number(key)?;
        if !n.bytes().all(|b| b.is_ascii_digit()) {
            return Err(format!("`{key}`: `{n}` is not an unsigned integer"));
        }
        n.parse()
            .map_err(|_| format!("`{key}`: `{n}` overflows u64"))
    }

    /// Rust's shortest round-trip text parses back to the same bits.
    fn f64(&mut self, key: &str) -> Result<f64, String> {
        let n = self.number(key)?;
        n.parse()
            .map_err(|_| format!("`{key}`: `{n}` is not a number"))
    }

    /// Borrowed from the line unless the writer escaped something.
    fn str(&mut self, key: &str) -> Result<Cow<'a, str>, String> {
        self.key(key)?;
        let Some(mut rest) = self.rest.strip_prefix('"') else {
            return Err(format!(
                "`{key}`: expected a string at `{}`",
                excerpt(self.rest)
            ));
        };
        let unterminated = || format!("`{key}`: unterminated string");
        // Filled only once an escape is met.
        let mut owned = String::new();
        loop {
            let i = rest.find(['"', '\\']).ok_or_else(unterminated)?;
            let (text, tail) = (&rest[..i], &rest[i + 1..]);
            if rest.as_bytes()[i] == b'"' {
                self.rest = tail;
                if owned.is_empty() {
                    return Ok(Cow::Borrowed(text));
                }
                owned.push_str(text);
                return Ok(Cow::Owned(owned));
            }
            owned.push_str(text);
            let escape = match tail.as_bytes().first() {
                None => return Err(unterminated()),
                Some(b'"') => Some(('"', 1)),
                Some(b'\\') => Some(('\\', 1)),
                Some(b'n') => Some(('\n', 1)),
                Some(b'r') => Some(('\r', 1)),
                Some(b't') => Some(('\t', 1)),
                Some(b'u') => tail.get(1..5).and_then(control).map(|c| (c, 5)),
                Some(_) => None,
            };
            let (c, len) =
                escape.ok_or_else(|| format!("`{key}`: unknown escape `\\{}`", excerpt(tail)))?;
            owned.push(c);
            rest = &tail[len..];
        }
    }

    /// Reads the closing `}}`, which must end the line, and hands back the
    /// record read from it.
    fn close<T>(self, record: T) -> Result<T, String> {
        match self.rest.strip_prefix("}}") {
            Some("") => Ok(record),
            Some(after) => Err(format!("bytes after `}}}}`: `{}`", excerpt(after))),
            None => Err(format!("expected `}}}}` at `{}`", excerpt(self.rest))),
        }
    }
}

/// The writer's `\u00xx` (four lowercase hex digits): a control character
/// without a short escape of its own.
fn control(hex: &str) -> Option<char> {
    let low = hex.strip_prefix("00")?;
    if !low.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
        return None;
    }
    let b = u8::from_str_radix(low, 16).ok()?;
    (b < 0x20 && !matches!(b, b'\n' | b'\r' | b'\t')).then_some(char::from(b))
}

/// At most 24 characters of `s`, for an error message.
fn excerpt(s: &str) -> &str {
    s.char_indices().nth(24).map_or(s, |(i, _)| &s[..i])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inspect::Dump;
    use lems_core::store::RecoveryReport;
    use proptest::prelude::*;

    /// Edge inputs: every character class the escaping treats specially
    /// or passes through, the two extreme integers, and the edge floats
    /// (integral, fractional, signed zero, subnormal, extreme).
    const TEXTS: [&str; 19] = [
        "",
        "az",
        " ",
        "\"",
        "\\",
        "\n",
        "\r",
        "\t",
        "\0",
        "\u{1}",
        "\u{8}",
        "\u{c}",
        "\u{1f}",
        "\u{7f}",
        "/",
        "é",
        "日",
        "😀",
        "a\"b\\c\nd\u{1f}é😀/",
    ];
    const INTS: [u64; 2] = [0, u64::MAX];
    const FLOATS: [f64; 16] = [
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

    /// What the typed line's derived JSON printer wrote for those inputs
    /// (a counter with each text as its scope, a counter of each integer,
    /// a gauge of each float), captured before the writer became the only
    /// rendering.
    const TEXT_LINES: [&str; 19] = [
        r#"{"Counter":{"scope":"","name":"n","value":1}}"#,
        r#"{"Counter":{"scope":"az","name":"n","value":1}}"#,
        r#"{"Counter":{"scope":" ","name":"n","value":1}}"#,
        r#"{"Counter":{"scope":"\"","name":"n","value":1}}"#,
        r#"{"Counter":{"scope":"\\","name":"n","value":1}}"#,
        r#"{"Counter":{"scope":"\n","name":"n","value":1}}"#,
        r#"{"Counter":{"scope":"\r","name":"n","value":1}}"#,
        r#"{"Counter":{"scope":"\t","name":"n","value":1}}"#,
        r#"{"Counter":{"scope":"\u0000","name":"n","value":1}}"#,
        r#"{"Counter":{"scope":"\u0001","name":"n","value":1}}"#,
        r#"{"Counter":{"scope":"\u0008","name":"n","value":1}}"#,
        r#"{"Counter":{"scope":"\u000c","name":"n","value":1}}"#,
        r#"{"Counter":{"scope":"\u001f","name":"n","value":1}}"#,
        "{\"Counter\":{\"scope\":\"\u{7f}\",\"name\":\"n\",\"value\":1}}",
        r#"{"Counter":{"scope":"/","name":"n","value":1}}"#,
        r#"{"Counter":{"scope":"é","name":"n","value":1}}"#,
        r#"{"Counter":{"scope":"日","name":"n","value":1}}"#,
        r#"{"Counter":{"scope":"😀","name":"n","value":1}}"#,
        r#"{"Counter":{"scope":"a\"b\\c\nd\u001fé😀/","name":"n","value":1}}"#,
    ];
    const INT_LINES: [&str; 2] = [
        r#"{"Counter":{"scope":"s","name":"n","value":0}}"#,
        r#"{"Counter":{"scope":"s","name":"n","value":18446744073709551615}}"#,
    ];
    const FLOAT_LINES: [&str; 16] = [
        r#"{"Gauge":{"scope":"s","name":"g","current":0.0,"average":0.0}}"#,
        r#"{"Gauge":{"scope":"s","name":"g","current":-0.0,"average":-0.0}}"#,
        r#"{"Gauge":{"scope":"s","name":"g","current":1.0,"average":1.0}}"#,
        r#"{"Gauge":{"scope":"s","name":"g","current":-1.0,"average":-1.0}}"#,
        r#"{"Gauge":{"scope":"s","name":"g","current":2.5,"average":2.5}}"#,
        r#"{"Gauge":{"scope":"s","name":"g","current":0.1,"average":0.1}}"#,
        r#"{"Gauge":{"scope":"s","name":"g","current":1000000000000000.0,"average":1000000000000000.0}}"#,
        r#"{"Gauge":{"scope":"s","name":"g","current":10000000000000000.0,"average":10000000000000000.0}}"#,
        r#"{"Gauge":{"scope":"s","name":"g","current":1000000000000000000000.0,"average":1000000000000000000000.0}}"#,
        r#"{"Gauge":{"scope":"s","name":"g","current":1000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000.0,"average":1000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000.0}}"#,
        r#"{"Gauge":{"scope":"s","name":"g","current":0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000001,"average":0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000001}}"#,
        r#"{"Gauge":{"scope":"s","name":"g","current":-0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000001,"average":-0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000001}}"#,
        r#"{"Gauge":{"scope":"s","name":"g","current":0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000005,"average":0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000005}}"#,
        r#"{"Gauge":{"scope":"s","name":"g","current":0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000011125369292536007,"average":0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000011125369292536007}}"#,
        r#"{"Gauge":{"scope":"s","name":"g","current":179769313486231570000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000.0,"average":179769313486231570000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000.0}}"#,
        r#"{"Gauge":{"scope":"s","name":"g","current":-179769313486231570000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000.0,"average":-179769313486231570000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000.0}}"#,
    ];

    fn written(write: impl FnOnce(&mut Vec<u8>)) -> String {
        let mut out = Vec::new();
        write(&mut out);
        String::from_utf8(out).expect("utf-8")
    }

    fn fields<'a>(line: &'a str, kind: &str) -> Fields<'a> {
        let (found, f) = Fields::open(line).expect("opens");
        assert_eq!(found, kind);
        f
    }

    #[test]
    fn writer_reproduces_the_reference_bytes() {
        for (scope, line) in TEXTS.into_iter().zip(TEXT_LINES) {
            let text = written(|out| write_counter(out, scope, "n", 1));
            assert_eq!(text, format!("{line}\n"));
            let counter = read_counter(fields(line, "Counter")).expect("reads");
            assert_eq!(counter, (scope.to_owned(), "n".to_owned(), 1));
        }
        for (value, line) in INTS.into_iter().zip(INT_LINES) {
            let text = written(|out| write_counter(out, "s", "n", value));
            assert_eq!(text, format!("{line}\n"));
            assert_eq!(
                read_counter(fields(line, "Counter")).expect("reads").2,
                value
            );
        }
        for (v, line) in FLOATS.into_iter().zip(FLOAT_LINES) {
            let text = written(|out| write_gauge(out, "s", "g", [v, v]).expect("finite"));
            assert_eq!(text, format!("{line}\n"));
            let (_, _, current, average) = read_gauge(fields(line, "Gauge")).expect("reads");
            assert_eq!([current.to_bits(), average.to_bits()], [v.to_bits(); 2]);
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
        let bits = f64::from_bits(r);
        if r.is_multiple_of(3) || !bits.is_finite() {
            FLOATS[(r / 3 % 16) as usize]
        } else {
            bits
        }
    }

    fn leak(s: &str) -> &'static str {
        Box::leak(s.to_owned().into_boxed_str())
    }

    /// A histogram with its floats as bits, so `-0.0` differs from `0.0`.
    fn hist_bits(h: &HistSummary) -> (&str, &str, u64, [u64; 5]) {
        let floats = [h.mean, h.p50, h.p90, h.p99, h.max];
        (&h.scope, &h.name, h.count, floats.map(f64::to_bits))
    }

    proptest! {
        /// Each kind's writer and reader are inverses: every field of every
        /// record comes back equal, floats bit for bit.
        #[test]
        fn lines_round_trip_through_json(
            ints in collection::vec(0u64..=u64::MAX, 48),
            floats in collection::vec(0u64..=u64::MAX, 7),
            text in collection::vec(TEXT, 7),
        ) {
            let mut ints = ints.into_iter();
            let mut int = move || edge_u64(ints.next().expect("enough draws"));
            let mut floats = floats.into_iter();
            let mut float = move || edge_f64(floats.next().expect("enough draws"));

            let header = (text[6].clone(), int(), int());
            let spans: Vec<SpanEvent> = (0..3)
                .map(|_| SpanEvent {
                    at: SimTime::from_ticks(int()),
                    span: SpanId(int()),
                    stage: SpanStage::ALL[(int() % 11) as usize],
                    site: int(),
                    peer: int(),
                    detail: int(),
                })
                .collect();
            let recovery = RecoverySummary {
                at_ticks: int(),
                site: int(),
                backend: text[0].clone(),
                replayed_records: int(),
                recovered_messages: int(),
                recovered_pending: int(),
                recovered_forwards: int(),
                lost_messages: int(),
                torn_bytes: int(),
                segments: int(),
            };
            let counter = (text[2].clone(), text[1].clone(), int());
            let gauge = [float(), float()];
            let hist = HistSummary {
                scope: text[2].clone(),
                name: text[1].clone(),
                count: int(),
                mean: float(),
                p50: float(),
                p90: float(),
                p99: float(),
                max: float(),
            };
            let metrics = StoreMetrics {
                appended_records: int(),
                appended_bytes: int(),
                fsyncs: int(),
                rotations: int(),
                compactions: int(),
                compaction_chunks: int(),
                replayed_records: int(),
                replayed_bytes: int(),
                io_errors: int(),
            };
            let sample = ProfileLine {
                scope: text[4].clone(),
                name: text[5].clone(),
                at_ticks: int(),
                count: int(),
                ticks: int(),
            };

            let mut out = Vec::new();
            write_header(&mut out, &header.0, header.1, header.2);
            for e in &spans {
                write_span(&mut out, e);
            }
            let r = &recovery;
            write_recovery(&mut out, &StoreRecovery {
                at: SimTime::from_ticks(r.at_ticks),
                site: r.site,
                report: RecoveryReport {
                    backend: leak(&r.backend),
                    replayed_records: r.replayed_records,
                    recovered_messages: r.recovered_messages,
                    recovered_pending: r.recovered_pending,
                    recovered_forwards: r.recovered_forwards,
                    lost_messages: r.lost_messages,
                    torn_bytes: r.torn_bytes,
                    segments: r.segments,
                },
            });
            write_counter(&mut out, &counter.0, &counter.1, counter.2);
            write_gauge(&mut out, &text[2], &text[1], gauge).expect("finite");
            let h = &hist;
            let values = [h.mean, h.p50, h.p90, h.p99, h.max];
            write_hist(&mut out, &h.scope, &h.name, h.count, values).expect("finite");
            write_metrics(&mut out, &text[3], &metrics);
            write_profile(&mut out, &ProfSample {
                scope: leak(&sample.scope),
                name: sample.name.clone(),
                at: SimTime::from_ticks(sample.at_ticks),
                count: sample.count,
                ticks: sample.ticks,
            });

            let d = Dump::parse(&String::from_utf8(out).expect("utf-8")).expect("reads back");
            prop_assert_eq!((d.run, d.seed, d.finished_at_ticks), header);
            prop_assert_eq!(d.spans, spans);
            prop_assert_eq!(d.recoveries, vec![recovery]);
            prop_assert_eq!(d.counters, vec![counter]);
            let [(scope, name, current, average)] = &d.gauges[..] else {
                panic!("one gauge, got {:?}", d.gauges);
            };
            prop_assert_eq!((scope, name), (&text[2], &text[1]));
            prop_assert_eq!([current.to_bits(), average.to_bits()], gauge.map(f64::to_bits));
            prop_assert_eq!(d.hists.iter().map(hist_bits).collect::<Vec<_>>(), vec![hist_bits(&hist)]);
            prop_assert_eq!(d.store, vec![(text[3].clone(), metrics)]);
            prop_assert_eq!(d.profile, vec![sample]);
        }
    }
}
