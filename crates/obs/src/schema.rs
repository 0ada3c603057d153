//! The JSONL wire format for exported telemetry.
//!
//! A dump is a sequence of lines, each one serialised [`ObsLine`]. The
//! first line is always [`ObsLine::Header`]; span lines follow in record
//! order, then metric lines grouped by scope. Times are simulated ticks
//! (`u64`, see [`lems_sim::time::TICKS_PER_UNIT`]) — never wall clock —
//! so a dump is a pure function of the run that produced it.

use serde::Deserialize;
#[cfg(test)]
use serde::Serialize;

/// Version stamp carried by every dump's header; bump when a field
/// changes meaning or disappears (additions are fine).
///
/// History: v1 — header/span/metric lines; v2 — store-recovery lines
/// ([`ObsLine::Recovery`]) between the span block and the metric block;
/// v3 — per-store durability metrics ([`ObsLine::Metrics`]) and kernel
/// profiler samples ([`ObsLine::Profile`]) after the metric block.
pub const OBS_SCHEMA_VERSION: u32 = 3;

/// One line of a telemetry dump.
///
/// Node fields (`site`, `peer`) carry raw node ids with `u64::MAX` as the
/// "none" sentinel, mirroring [`lems_sim::span::NO_NODE`].
///
/// This is the type the reader deserialises. The exporter writes the same
/// bytes without building one ([`crate::export`]); `Serialize` is derived
/// for tests only, as the rendering the exporter is compared with.
#[derive(Clone, Debug, PartialEq, Deserialize)]
#[cfg_attr(test, derive(Serialize))]
pub enum ObsLine {
    /// First line of every dump: what produced it.
    Header {
        /// Schema version (see [`OBS_SCHEMA_VERSION`]).
        schema_version: u32,
        /// Scenario or experiment id (e.g. `clean-cycle`, `getmail`).
        run: String,
        /// Engine seed of the run.
        seed: u64,
        /// Simulated time at quiescence, in ticks.
        finished_at_ticks: u64,
    },
    /// One span event, in record order.
    Span {
        /// Event time in simulated ticks.
        at_ticks: u64,
        /// Span id (dense, allocated in open order).
        span: u64,
        /// Stage name (see [`lems_sim::span::SpanStage::name`]).
        stage: String,
        /// Node where the event happened (`u64::MAX` = none).
        site: u64,
        /// The other node involved (`u64::MAX` = none).
        peer: u64,
        /// Stage-specific payload (attempt number, poll count, code).
        detail: u64,
    },
    /// One mailbox-store recovery (a server coming back from a crash),
    /// in recovery order.
    Recovery {
        /// Recovery time in simulated ticks.
        at_ticks: u64,
        /// Node that recovered.
        site: u64,
        /// Backend that performed recovery (e.g. `wal`, `mem-volatile`).
        backend: String,
        /// WAL records replayed (0 for in-memory backends).
        replayed_records: u64,
        /// Mailbox messages present after recovery.
        recovered_messages: u64,
        /// Drained-but-unacked messages present after recovery.
        recovered_pending: u64,
        /// Unsettled forward-journal entries re-routed after recovery.
        recovered_forwards: u64,
        /// Stored messages the crash destroyed (0 means durable).
        lost_messages: u64,
        /// Torn-tail bytes truncated from the log during replay.
        torn_bytes: u64,
        /// Live WAL segments after recovery.
        segments: u64,
    },
    /// One named counter of one scope.
    Counter {
        /// Scope name (e.g. `server:n4`, `host:n0`).
        scope: String,
        /// Counter name.
        name: String,
        /// Final value.
        value: u64,
    },
    /// One time-weighted gauge of one scope.
    Gauge {
        /// Scope name.
        scope: String,
        /// Gauge name.
        name: String,
        /// Value at the end of the run.
        current: f64,
        /// Time-weighted average over the whole run.
        average: f64,
    },
    /// One mailbox store's durability counters (WAL health), one line per
    /// server scope, after the metric block.
    Metrics {
        /// Scope name (e.g. `server:n4`).
        scope: String,
        /// Operation records appended (snapshots excluded).
        appended_records: u64,
        /// Operation-record payload bytes appended.
        appended_bytes: u64,
        /// Durability barriers (fsyncs) issued.
        fsyncs: u64,
        /// Segment rotations performed.
        rotations: u64,
        /// Compactions performed.
        compactions: u64,
        /// Snapshot records written across all compactions.
        compaction_chunks: u64,
        /// Records replayed by recovery scans, lifetime total.
        replayed_records: u64,
        /// Bytes scanned by recovery scans, lifetime total.
        replayed_bytes: u64,
        /// I/O errors observed.
        io_errors: u64,
    },
    /// One kernel-profiler sample (see [`lems_sim::prof::ProfSample`]),
    /// after the store-metrics block. Present only when the run enabled
    /// profiling; values are pure functions of sim time and counters.
    Profile {
        /// Profiler scope: `dispatch`, `pool`, or `queue`.
        scope: String,
        /// Sample name within the scope (e.g. `server/deliver`).
        name: String,
        /// Sim time the sample refers to, in ticks (0 for run aggregates).
        at_ticks: u64,
        /// Primary value: a count or a level.
        count: u64,
        /// Sim-time ticks attributed to the sample (busy attribution).
        ticks: u64,
    },
    /// One latency histogram of one scope, reduced to its summary.
    Hist {
        /// Scope name.
        scope: String,
        /// Histogram name.
        name: String,
        /// Observations recorded.
        count: u64,
        /// Arithmetic mean of the raw observations.
        mean: f64,
        /// 50th percentile (upper bucket edge).
        p50: f64,
        /// 90th percentile (upper bucket edge).
        p90: f64,
        /// 99th percentile (upper bucket edge).
        p99: f64,
        /// Exact maximum observation.
        max: f64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_round_trip_through_json() {
        let lines = vec![
            ObsLine::Header {
                schema_version: OBS_SCHEMA_VERSION,
                run: "demo".into(),
                seed: 7,
                finished_at_ticks: 123,
            },
            ObsLine::Span {
                at_ticks: 5,
                span: 0,
                stage: "submitted".into(),
                site: 1,
                peer: u64::MAX,
                detail: 0,
            },
            ObsLine::Recovery {
                at_ticks: 9,
                site: 4,
                backend: "wal".into(),
                replayed_records: 12,
                recovered_messages: 3,
                recovered_pending: 1,
                recovered_forwards: 2,
                lost_messages: 0,
                torn_bytes: 17,
                segments: 2,
            },
            ObsLine::Counter {
                scope: "host:n0".into(),
                name: "submitted".into(),
                value: 3,
            },
            ObsLine::Gauge {
                scope: "server:n4".into(),
                name: "storage".into(),
                current: 1.0,
                average: 0.25,
            },
            ObsLine::Hist {
                scope: "merged".into(),
                name: "end_to_end".into(),
                count: 3,
                mean: 4.5,
                p50: 4.0,
                p90: 8.0,
                p99: 8.0,
                max: 7.5,
            },
            ObsLine::Metrics {
                scope: "server:n4".into(),
                appended_records: 200,
                appended_bytes: 41_000,
                fsyncs: 210,
                rotations: 6,
                compactions: 1,
                compaction_chunks: 9,
                replayed_records: 80,
                replayed_bytes: 16_000,
                io_errors: 0,
            },
            ObsLine::Profile {
                scope: "dispatch".into(),
                name: "server/deliver".into(),
                at_ticks: 0,
                count: 512,
                ticks: 9_000,
            },
        ];
        for line in lines {
            let json = serde_json::to_string(&line).expect("serialises");
            assert!(!json.contains('\n'), "one line per record");
            let back: ObsLine = serde_json::from_str(&json).expect("parses");
            assert_eq!(back, line);
        }
    }
}
