//! Differential test battery: the calendar [`EventQueue`] against an
//! ordered-map model of its contract.
//!
//! [`Model`] below is the reference implementation — a
//! `BTreeMap<(time, seq), payload>`, which is what the queue was before the
//! calendar structure replaced it. It lives here, not in the production
//! type, so this suite can drive both through identical command sequences
//! and demand identical observable behaviour at every step: pop order,
//! peek, ready-set contents, targeted removal, lengths, and final drain.
//!
//! The command generator is weighted to hit the calendar queue's structural
//! edges:
//! * duplicate timestamps (dense low-tick pushes) — FIFO tie-break and
//!   same-instant ready sets;
//! * multi-day spreads — bucket-ring rotation and refill-day scanning;
//! * far-future inserts near `u64::MAX` — the overflow spill and the
//!   jump-to-minimum refill path;
//! * interleaved pops/removals/clears — front-cursor maintenance, ring
//!   growth and shrink mid-sequence.
//!
//! The actor kernel pushes some events under sequence numbers it reserved
//! earlier ([`EventQueue::reserve`], [`EventQueue::push_reserved`]);
//! [`reserved_pushes_match`] interleaves those with ordinary pushes and
//! pops, many of them at the instant last popped.
//!
//! A bucket is a chain through the payload pool's slots, so one scripted
//! sequence ([`chained_buckets_match_model_at_every_structural_edge`])
//! walks the chain operations one by one: days that hash onto one bucket
//! with refills between them, unlinking a chain's head, middle and tail,
//! a key whose slot has been recycled since, ring growth and shrink under
//! populated chains, and reuse after a clear.

use std::collections::BTreeMap;

use lems_sim::queue::{EventQueue, EventSeq, QueueStats};
use lems_sim::time::SimTime;
use proptest::prelude::*;

/// The queue's contract, stated as an ordered map: events fire in
/// `(time, sequence)` order and sequence numbers count every push.
#[derive(Default)]
struct Model {
    map: BTreeMap<(SimTime, EventSeq), u64>,
    next_seq: u64,
}

impl Model {
    fn push(&mut self, at: SimTime, payload: u64) -> EventSeq {
        let seq = self.reserve();
        self.map.insert((at, seq), payload);
        seq
    }

    fn reserve(&mut self) -> EventSeq {
        let seq = EventSeq(self.next_seq);
        self.next_seq += 1;
        seq
    }

    fn pop_with_seq(&mut self) -> Option<(SimTime, EventSeq, u64)> {
        self.map.pop_first().map(|((at, seq), e)| (at, seq, e))
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        self.pop_with_seq().map(|(at, _, e)| (at, e))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.map.first_key_value().map(|((at, _), _)| *at)
    }

    fn ready(&self) -> Vec<(SimTime, u64, u64)> {
        let head = self.peek_time();
        self.map
            .iter()
            .take_while(|((at, _), _)| Some(*at) == head)
            .map(|(&(at, seq), &e)| (at, seq.0, e))
            .collect()
    }

    fn remove(&mut self, at: SimTime, seq: EventSeq) -> Option<u64> {
        self.map.remove(&(at, seq))
    }
}

#[derive(Clone, Debug)]
enum Cmd {
    /// Schedule the next payload at this tick.
    Push(u64),
    /// Pop the earliest event; queue and model must agree on time and payload.
    Pop,
    /// Pop with the sequence number exposed.
    PopWithSeq,
    /// Remove a previously pushed (time, seq) entry, selected by index into
    /// the push history (possibly already popped/removed — both must then
    /// agree it is gone).
    Remove(usize),
    /// Snapshot the full same-instant ready set.
    Ready,
    /// Peek the head firing time.
    Peek,
    /// Drop everything (sequence numbering continues).
    Clear,
    /// Scripted sequences only: the ring's chains hold this many entries.
    Chained(usize),
    /// Take a sequence number for a later `PushReserved`.
    Reserve,
    /// Schedule the next payload this many ticks after the instant last
    /// popped, under an outstanding reservation picked by index (none
    /// outstanding: nothing happens).
    PushReserved { pick: usize, ahead: u64 },
}

/// Decodes one raw generated tuple into a command. The opcode space is
/// weighted: half the opcodes push (split across tick regimes), the rest
/// split between pops, removals, read-only probes, and a rare clear.
fn decode(op: u32, raw: u64, idx: usize) -> Cmd {
    match op {
        // Duplicate-heavy low ticks: FIFO tie-breaks, wide ready sets.
        0..=3 => Cmd::Push(raw % 2_000),
        // Multi-day spread: ring rotation across ~50 initial-width days.
        4..=6 => Cmd::Push(raw % 50_000_000),
        // Far future: overflow spill and saturating day arithmetic.
        7 => Cmd::Push(u64::MAX - raw % 1_000),
        8 | 9 => Cmd::Pop,
        10 => Cmd::PopWithSeq,
        11 | 12 => Cmd::Remove(idx),
        13 => Cmd::Ready,
        14 => Cmd::Peek,
        // Clears derange the whole structure; keep them rare.
        _ => {
            if raw.is_multiple_of(4) {
                Cmd::Clear
            } else {
                Cmd::Pop
            }
        }
    }
}

/// Runs one command sequence through the queue and the model, asserting
/// equal observables after every command, then drains both to empty.
/// Returns the peak pending count and the queue's final structure snapshot.
fn run_differential(cmds: &[Cmd]) -> (usize, QueueStats) {
    let mut cal: EventQueue<u64> = EventQueue::new();
    let mut model = Model::default();
    let mut payload: u64 = 0;
    let mut history: Vec<(SimTime, EventSeq)> = Vec::new();
    let mut peak = 0;
    // Reservations not yet used, and the instant last popped.
    let mut reserved: Vec<EventSeq> = Vec::new();
    let mut now = SimTime::ZERO;

    for c in cmds {
        match c {
            Cmd::Push(t) => {
                let at = SimTime::from_ticks(*t);
                let s1 = cal.push(at, payload);
                let s2 = model.push(at, payload);
                assert_eq!(s1, s2, "seq assignment must match");
                history.push((at, s1));
                payload += 1;
            }
            Cmd::Pop => {
                let popped = model.pop();
                assert_eq!(cal.pop(), popped);
                now = popped.map_or(now, |(at, _)| at);
            }
            Cmd::PopWithSeq => {
                let popped = model.pop_with_seq();
                assert_eq!(cal.pop_with_seq(), popped);
                now = popped.map_or(now, |(at, _, _)| at);
            }
            Cmd::Remove(i) => {
                if !history.is_empty() {
                    let (at, seq) = history[i % history.len()];
                    assert_eq!(cal.remove(at, seq), model.remove(at, seq));
                }
            }
            Cmd::Ready => {
                let r1: Vec<(SimTime, u64, u64)> =
                    cal.ready().map(|(at, s, e)| (at, s.0, *e)).collect();
                assert_eq!(r1, model.ready(), "ready sets must match");
            }
            Cmd::Peek => {
                assert_eq!(cal.peek_time(), model.peek_time());
            }
            Cmd::Clear => {
                cal.clear();
                model.map.clear();
            }
            Cmd::Chained(n) => {
                assert_eq!(cal.stats().in_buckets, *n, "entries chained in the ring");
            }
            Cmd::Reserve => {
                let seq = cal.reserve();
                assert_eq!(seq, model.reserve(), "seq assignment must match");
                reserved.push(seq);
            }
            Cmd::PushReserved { pick, ahead } => {
                if !reserved.is_empty() {
                    let seq = reserved.swap_remove(pick % reserved.len());
                    let at = SimTime::from_ticks(now.as_ticks().saturating_add(*ahead));
                    cal.push_reserved(at, seq, payload);
                    model.map.insert((at, seq), payload);
                    history.push((at, seq));
                    payload += 1;
                }
            }
        }
        assert_eq!(cal.len(), model.map.len());
        assert_eq!(cal.is_empty(), model.map.is_empty());
        assert_eq!(cal.peek_time(), model.peek_time());
        assert_eq!(cal.scheduled_total(), model.next_seq);
        let s = cal.stats();
        assert_eq!(
            s.front + s.in_buckets + s.overflow,
            s.depth,
            "every pending entry is in exactly one structure"
        );
        peak = peak.max(cal.len());
    }

    // Final drain: the complete remaining order must agree.
    loop {
        let a = cal.pop_with_seq();
        let b = model.pop_with_seq();
        assert_eq!(a, b);
        if b.is_none() {
            break;
        }
    }
    (peak, cal.stats())
}

/// One long deterministic sequence, so the structural paths the short
/// random cases only graze — ring growth over many doublings, shrink on
/// the way back down, overflow spill with a deep ring — are crossed against
/// the model on every run. Three LCG-driven phases over the same `decode`:
/// fill (no clears, pushes outnumber pops), drain (pops, removals, probes),
/// then the full opcode mix including clears.
#[test]
fn long_seeded_sequence_matches_model_at_depth() {
    let mut x: u64 = 42;
    let mut draw = || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x >> 16
    };
    let mut cmds = Vec::with_capacity(120_000);
    for (n, ops) in [(60_000, 0..15u32), (40_000, 8..15), (20_000, 0..16)] {
        for _ in 0..n {
            let op = ops.start + (draw() % u64::from(ops.end - ops.start)) as u32;
            cmds.push(decode(op, draw(), draw() as usize));
        }
    }
    let (peak, stats) = run_differential(&cmds);
    assert!(peak >= 4_096, "fill phase reached depth {peak}");
    assert!(
        stats.resizes >= 16,
        "ring grew and shrank: {} resizes",
        stats.resizes
    );
}

/// The chain operations, one by one, on a script (`Remove(i)` names the
/// `i`-th push of the script; `Chained(n)` pins that the step before it
/// really left `n` entries in the ring, not in the front or the overflow).
#[test]
fn chained_buckets_match_model_at_every_structural_edge() {
    const DAY: u64 = 1 << 20;
    let at = |day: u64, off: u64| Cmd::Push(day * DAY + off);
    let mut cmds = vec![
        // (a) Days 3, 19, 35 and 51 all hash onto bucket 3 of the initial
        // 16-bucket ring. Pushed up front, the far ones wait in overflow;
        // pushed again after each refill has moved the window, they chain
        // onto the bucket the previous day has just left.
        at(3, 0),  // 0
        at(19, 0), // 1
        at(35, 0), // 2
        at(51, 0), // 3
        Cmd::Chained(1),
        Cmd::Pop,
        Cmd::Chained(0),
        at(35, 1), // 4
        at(19, 1), // 5: the front's day
        Cmd::Chained(1),
        Cmd::Ready,
        Cmd::Pop,
        Cmd::Pop,
        Cmd::Chained(0),
        at(51, 1), // 6
        at(35, 2), // 7: the front's day
        Cmd::Chained(1),
        Cmd::Pop,
        Cmd::PopWithSeq,
        Cmd::Pop,
        at(51, 2), // 8: the front's day
        Cmd::Pop,
        Cmd::Pop,
        Cmd::Pop,
        Cmd::Pop,
        // (b) A five-long chain on day 60 behind an anchor on day 55; the
        // last pushed is the chain's head.
        at(55, 0), // 9
        at(60, 0), // 10: tail
        at(60, 1), // 11
        at(60, 2), // 12: middle
        at(60, 3), // 13
        at(60, 4), // 14: head
        Cmd::Chained(5),
        Cmd::Remove(14),
        Cmd::Remove(12),
        Cmd::Remove(10),
        Cmd::Chained(2),
        Cmd::Remove(12),
        // The slot push 10 lived in is recycled by push 15; key 10 is gone
        // all the same, and the newcomer is removable from the same chain.
        at(60, 5), // 15
        Cmd::Remove(10),
        Cmd::Chained(3),
        Cmd::Remove(15),
        Cmd::Ready,
        // (d) Clear with chains populated, then reuse: same days, new
        // chains, and nothing of the old ones reachable.
        at(61, 0), // 16
        at(62, 0), // 17
        Cmd::Chained(4),
        Cmd::Clear,
        Cmd::Chained(0),
        Cmd::Peek,
        Cmd::Remove(16),
        at(58, 0), // 18
        at(61, 1), // 19
        at(62, 1), // 20
        at(61, 2), // 21
        Cmd::Chained(3),
        Cmd::Remove(19),
        Cmd::Chained(2),
        Cmd::Pop,
    ];
    // (c) Growth over several doublings with a few days' worth of chains
    // in the ring and removals along them, then a drain through every
    // shrink.
    let mut pushes = 22;
    for i in 0..3_000u64 {
        cmds.push(at(63 + i % 12, i * 7919 % DAY));
        pushes += 1;
        if i % 5 == 0 {
            cmds.push(Cmd::Remove(pushes - 1 - (i as usize % 40).min(pushes - 1)));
        }
    }
    cmds.extend((0..2_900).map(|_| Cmd::Pop));
    let (peak, stats) = run_differential(&cmds);
    assert!(peak >= 2_000, "growth phase reached depth {peak}");
    assert!(stats.resizes >= 10, "{} ring rebuilds", stats.resizes);
}

proptest! {
    /// Random command sequences: every observable identical on queue and
    /// model, step by step.
    #[test]
    fn calendar_matches_model(
        raw in proptest::collection::vec((0u32..16, 0u64..=u64::MAX, 0usize..1_000_000), 1..400),
    ) {
        let cmds: Vec<Cmd> = raw.into_iter().map(|(op, r, i)| decode(op, r, i)).collect();
        run_differential(&cmds);
    }

    /// Duplicate-timestamp stress: many events collapsed onto few distinct
    /// instants, so FIFO tie-breaks and wide ready sets carry the ordering.
    #[test]
    fn duplicate_instants_match(
        raw in proptest::collection::vec((0u64..8, 0u32..4), 1..300),
    ) {
        let cmds: Vec<Cmd> = raw
            .into_iter()
            .map(|(t, op)| match op {
                0 | 1 => Cmd::Push(t * 250_000),
                2 => Cmd::Pop,
                _ => Cmd::Ready,
            })
            .collect();
        run_differential(&cmds);
    }

    /// Bucket-rotation stress: ticks quantized to whole calendar days over
    /// a span far wider than the initial ring, interleaved with pops, so
    /// the ring wraps repeatedly while occupied.
    #[test]
    fn day_boundary_rotation_matches(
        raw in proptest::collection::vec((0u64..512, 0u32..2), 1..300),
    ) {
        let cmds: Vec<Cmd> = raw
            .into_iter()
            .map(|(day, op)| {
                if op == 0 {
                    // Exactly on a day boundary of the initial width (2^20).
                    Cmd::Push(day << 20)
                } else {
                    Cmd::Pop
                }
            })
            .collect();
        run_differential(&cmds);
    }

    /// Pushes under reserved sequence numbers interleave with ordinary
    /// pushes and pops: a third of the reserved pushes land at the
    /// instant last popped, among events pushed after the reservation,
    /// and the rest up to three initial-width days later.
    #[test]
    fn reserved_pushes_match(
        raw in proptest::collection::vec((0u32..10, 0u64..=u64::MAX, 0usize..64), 1..400),
    ) {
        let cmds: Vec<Cmd> = raw
            .into_iter()
            .map(|(op, r, pick)| match op {
                0 | 1 => Cmd::Push(r % 3_000_000),
                2 | 3 => Cmd::Reserve,
                4 | 5 => Cmd::PushReserved {
                    pick,
                    ahead: if r.is_multiple_of(3) { 0 } else { r % 3_000_000 },
                },
                6 | 7 => Cmd::PopWithSeq,
                8 => Cmd::Remove(pick),
                _ => Cmd::Ready,
            })
            .collect();
        run_differential(&cmds);
    }

    /// Far-future stress: every push lands near the top of the tick range,
    /// exercising overflow spill, saturating day arithmetic, and the
    /// jump-to-minimum refill.
    #[test]
    fn far_future_inserts_match(
        raw in proptest::collection::vec(((u64::MAX - 50)..=u64::MAX, 0u32..3), 1..200),
    ) {
        let cmds: Vec<Cmd> = raw
            .into_iter()
            .map(|(t, op)| match op {
                0 => Cmd::Push(t),
                1 => Cmd::Pop,
                _ => Cmd::Peek,
            })
            .collect();
        run_differential(&cmds);
    }
}
