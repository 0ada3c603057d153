//! # lems-obs — deterministic telemetry export and trace inspection
//!
//! The observability layer of the `lems` workspace. The simulator records
//! message-lifecycle spans ([`lems_sim::span`]) and per-actor metrics
//! ([`lems_sim::metrics`]); this crate turns one run's worth of both into
//! a schema-versioned JSONL document and reads such documents back for
//! inspection:
//!
//! * `schema` — the wire format: each record kind's writer and reader,
//!   side by side;
//! * [`export`] — serialises a run's span log + metric registries, in an
//!   order that is a pure function of the run (same seed ⇒ byte-identical
//!   output, no wall clock anywhere);
//! * [`inspect`] — parses a dump back into a typed [`inspect::Dump`],
//!   renders per-message timelines and a one-page report (summary,
//!   per-scope tables, kernel-profiler views), and re-runs the span
//!   conservation audit on the exported evidence.
//!
//! Schema v3 dumps also carry per-store durability metrics
//! ([`lems_core::store::StoreMetrics`]) and kernel-profiler samples
//! ([`lems_sim::prof::ProfSample`]) when the run enabled profiling.
//!
//! The `lems-trace` binary wraps [`inspect`] as a CLI:
//!
//! ```text
//! lems-trace report   spans.jsonl
//! lems-trace audit    spans.jsonl
//! lems-trace timeline spans.jsonl --msg s0
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod export;
pub mod inspect;
pub(crate) mod schema;
