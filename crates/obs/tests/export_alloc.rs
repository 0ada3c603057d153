//! Pins the allocation cost of one telemetry export.
//!
//! A dump is the evidence a run leaves behind, and a long run leaves a
//! long one: about twenty span lines a message. `export_jsonl` sizes one
//! buffer from the span count and writes every line into it, so a hundred
//! times the events must cost the same allocations — one buffer, whatever
//! its size. Through the typed line and the value tree it replaced, a
//! span line took 22 (44 031 allocations for 2 000 events, 4 400 037 for
//! 200 000).
//!
//! CI runs this against the release build (the claim is about optimised
//! code); the budget holds in a debug build too.
//!
//! Lives in `tests/` (its own crate) because `lems-obs` forbids the
//! `unsafe` a `GlobalAlloc` impl requires; the counting allocator is
//! `tests/support/counting_alloc.rs`, shared by every allocation budget.

use lems_obs::export::{export_jsonl, RunTelemetry};
use lems_sim::span::{SpanLog, SpanStage, NO_NODE};
use lems_sim::time::SimTime;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

/// Allocations of exporting a spans-only run of `events` span events,
/// shaped like mail: a submit, a probe to a far node, a retrieval.
fn export_allocs(events: u64) -> u64 {
    let mut log = SpanLog::unbounded();
    for k in 0..events / 4 {
        let at = SimTime::from_ticks(k * 1_000_003);
        let s = log.open(at, SpanStage::Submitted, k % 200);
        log.record(at, s, SpanStage::Probe, k % 200, 200 + k % 20, 0);
        log.record(at, s, SpanStage::Deposited, 200 + k % 20, NO_NODE, 0);
        log.record(at, s, SpanStage::Retrieved, k % 200, 200 + k % 20, 0);
    }
    assert_eq!(log.events().len() as u64, events);
    let run = RunTelemetry {
        run: "alloc-budget",
        seed: 1,
        finished_at: SimTime::from_ticks(events * 1_000_003),
        spans: &log,
        recoveries: &[],
        scopes: &[],
        store: &[],
        profile: &[],
    };
    let before = counting_alloc::allocations();
    let text = export_jsonl(&run);
    let allocs = counting_alloc::allocations() - before;
    let text = text.expect("a lossless log exports");
    assert_eq!(text.lines().count() as u64, 1 + events);
    allocs
}

#[test]
fn an_export_allocates_the_same_for_a_hundred_times_the_events() {
    let (small, large) = (export_allocs(2_000), export_allocs(200_000));
    assert_eq!(
        small, large,
        "2 000 events took {small} allocations, 200 000 took {large}"
    );
    assert!(small <= 8, "a spans-only export allocated {small} times");
}
