//! Pins the zero-allocation steady state of the sim hot path, and what a
//! cold event list may allocate before it gets there.
//!
//! A counting global allocator wraps the system allocator; after a warm-up
//! phase (which grows the calendar ring, the payload pool's free list, and
//! the actor queue to their steady sizes), a measured phase dispatches many
//! more events and asserts the allocation count did not move. This is the
//! hard evidence for the "pooled events, no steady-state allocation" claim:
//! a regression that reintroduces a per-event `Box`, clone, or rehash fails
//! here, not in a profiler.
//!
//! Lives in `tests/` (its own crate) because `lems-sim` forbids the
//! `unsafe` a `GlobalAlloc` impl requires; the counting allocator is
//! `tests/support/counting_alloc.rs`, shared by every allocation budget.

use lems_sim::actor::{Actor, ActorId, ActorSim, Ctx, TimerId};
use lems_sim::queue::EventQueue;
use lems_sim::time::{SimDuration, SimTime};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

/// Snapshot of (allocs, deallocs, reallocs).
fn snapshot() -> (u64, u64, u64) {
    let c = counting_alloc::counts();
    (c.allocs, c.deallocs, c.reallocs)
}

#[test]
fn queue_steady_state_allocates_nothing() {
    // Steady churn: a bounded pending set cycling through pushes and pops
    // with small bounded delays, so every push lands in the current bucket
    // window and every slot comes off the pool's free list. The pending
    // set is kept small so the bucket ring is small and the warm-up laps
    // it several times — a ring slot only stops allocating once it has
    // been occupied at its high-water size, so steady state begins after
    // the first few full wraps, not after the first pass.
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut now: u64 = 0;
    for i in 0..128u64 {
        q.push(SimTime::from_ticks(now + 1 + i % 97), i);
    }
    for i in 0..400_000u64 {
        if let Some((at, _)) = q.pop() {
            now = at.as_ticks();
        }
        q.push(SimTime::from_ticks(now + 1 + i % 97), i);
    }

    let before = snapshot();
    let pool_before = q.stats();
    for i in 0..100_000u64 {
        if let Some((at, _)) = q.pop() {
            now = at.as_ticks();
        }
        q.push(SimTime::from_ticks(now + 1 + i % 97), i);
    }
    let after = snapshot();
    let pool_after = q.stats();
    assert_eq!(
        before, after,
        "calendar queue steady state must not touch the allocator"
    );
    // The pool counters agree with the counting-allocator proof: all
    // 100k measured inserts recycled freed slots, none grew the slab.
    assert_eq!(
        pool_after.pool_misses, pool_before.pool_misses,
        "steady state must be miss-free"
    );
    assert_eq!(pool_after.pool_grows, pool_before.pool_grows);
    assert_eq!(pool_after.pool_hits, pool_before.pool_hits + 100_000);
    assert_eq!(pool_after.pool_capacity, pool_before.pool_capacity);
    drop(q);
}

#[test]
fn cold_ring_allocates_per_doubling_not_per_bucket() {
    const EVENTS: u64 = 100_000;
    const DAYS: u64 = 25_000;
    // No warm-up: every bucket the ring ever has is met for the first time
    // inside the counted region. With the payload pool pre-sized, what is
    // left to allocate is the ring's rebuilds on the way up and down (one
    // scratch vector and one bucket array each, O(log n) of them) and the
    // sorted front's growth — filing an event under a day nobody has used
    // yet is two stores into slots that already exist. When each bucket
    // was a vector of its own, this same run allocated 35 390 times.
    let mut q: EventQueue<u64> = EventQueue::with_capacity(EVENTS as usize);
    let before = snapshot();
    for i in 0..EVENTS {
        let day = i.wrapping_mul(7_919) % DAYS;
        q.push(SimTime::from_ticks((day << 20) + i % 1_000), i);
    }
    let pushed = snapshot();
    let mut popped = 0;
    let mut last = SimTime::ZERO;
    while let Some((at, _)) = q.pop() {
        assert!(at >= last);
        last = at;
        popped += 1;
    }
    let after = snapshot();
    assert_eq!(popped, EVENTS);
    let stats = q.stats();
    assert_eq!(stats.pool_capacity, EVENTS as usize);
    assert!(stats.resizes >= 20, "{} ring rebuilds", stats.resizes);
    let pushing = (pushed.0 - before.0) + (pushed.2 - before.2);
    let popping = (after.0 - pushed.0) + (after.2 - pushed.2);
    assert!(
        pushing + popping <= 128,
        "a cold ring allocated {pushing} times filling and {popping} times draining"
    );
}

/// Ping-pong pair: every delivery sends one message onward with a constant
/// delay — the classic steady-state dispatch loop.
struct Pong {
    peer: usize,
    got: u64,
}

impl Actor for Pong {
    type Msg = u64;
    fn on_message(&mut self, _from: ActorId, msg: u64, ctx: &mut Ctx<'_, u64>) {
        self.got += 1;
        ctx.send(ActorId(self.peer), msg, SimDuration::from_ticks(3));
    }
}

#[test]
fn actor_dispatch_steady_state_allocates_nothing() {
    let mut sim: ActorSim<u64> = ActorSim::new(42);
    let a = sim.add_actor(Pong { peer: 1, got: 0 });
    let _b = sim.add_actor(Pong { peer: 0, got: 0 });
    // Several balls in flight keep the pending set non-trivial.
    for k in 0..64 {
        sim.inject(a, k, SimDuration::from_ticks(1 + k));
    }
    // Warm-up: fills the FIFO-lane map, trace ring (disabled here), pool
    // free list, and every transient Vec's capacity.
    sim.run_until(SimTime::from_ticks(30_000));

    let before = snapshot();
    let pool_before = sim.queue_stats();
    sim.run_until(SimTime::from_ticks(90_000));
    let after = snapshot();
    let pool_after = sim.queue_stats();
    let delivered = sim.counters().delivered.get();
    assert!(
        delivered > 100_000,
        "expected a busy steady state, got {delivered} deliveries"
    );
    assert_eq!(
        before, after,
        "actor dispatch steady state must not touch the allocator"
    );
    // The same steady state, read back as a queryable metric: every
    // measured-phase event slot was a pool hit, never a miss or growth.
    assert_eq!(
        pool_after.pool_misses, pool_before.pool_misses,
        "steady state must be miss-free"
    );
    assert!(pool_after.pool_hits > pool_before.pool_hits + 100_000);
    assert_eq!(pool_after.pool_capacity, pool_before.pool_capacity);
}

/// Two balls between two actors: never 32 events pending, so the ring
/// never resizes, keeps its first day width, and every event of the run
/// lands in that one day's sorted front. The front drops the prefix it
/// has consumed before it grows, so it stays as long as the pending set.
#[test]
fn a_queue_that_never_resizes_allocates_nothing() {
    let mut sim: ActorSim<u64> = ActorSim::new(42);
    let a = sim.add_actor(Pong { peer: 1, got: 0 });
    let _b = sim.add_actor(Pong { peer: 0, got: 0 });
    for k in 0..2 {
        sim.inject(a, k, SimDuration::from_ticks(1 + k));
    }
    sim.run_until(SimTime::from_ticks(3_000));

    let before = snapshot();
    let resizes = sim.queue_stats().resizes;
    sim.run_until(SimTime::from_ticks(300_000));
    let after = snapshot();
    assert!(sim.counters().delivered.get() > 100_000);
    assert_eq!(sim.queue_stats().resizes, resizes);
    assert_eq!(
        before, after,
        "a front kept on one day must not grow with the day's events"
    );
}

/// Ping-pong pair whose every delivery, after sending on, re-arms its one
/// timer under a sequence number reserved then — the retransmission wake
/// of the mail actors: the pending one is taken out of the queue, and one
/// delivery in seven arms it to fire before the next delivery comes.
struct Rearm {
    peer: usize,
    pending: Option<TimerId>,
    fired: u64,
}

impl Actor for Rearm {
    type Msg = u64;
    fn on_message(&mut self, _from: ActorId, msg: u64, ctx: &mut Ctx<'_, u64>) {
        ctx.send(ActorId(self.peer), msg + 1, SimDuration::from_ticks(3));
        let seq = ctx.reserve_seq();
        if let Some(old) = self.pending.take() {
            ctx.remove_timer(old);
        }
        let ahead = if msg.is_multiple_of(7) { 1 } else { 40 };
        let at = ctx.now() + SimDuration::from_ticks(ahead);
        self.pending = Some(ctx.set_timer_at(at, seq));
    }
    fn on_timer(&mut self, _id: TimerId, _ctx: &mut Ctx<'_, u64>) {
        self.pending = None;
        self.fired += 1;
    }
}

#[test]
fn timers_armed_under_reserved_numbers_allocate_nothing() {
    const PAIRS: usize = 32;
    let mut sim: ActorSim<u64> = ActorSim::new(42);
    for pair in 0..PAIRS {
        for peer in [2 * pair + 1, 2 * pair] {
            sim.add_actor(Rearm {
                peer,
                pending: None,
                fired: 0,
            });
        }
        sim.inject(
            ActorId(2 * pair),
            0,
            SimDuration::from_ticks(1 + pair as u64),
        );
    }
    sim.run_until(SimTime::from_ticks(30_000));

    let before = snapshot();
    let fired_before = sim.counters().timers_fired.get();
    sim.run_until(SimTime::from_ticks(90_000));
    let after = snapshot();
    let fired = sim.counters().timers_fired.get() - fired_before;
    assert!(sim.counters().delivered.get() > 100_000);
    assert!(fired > 10_000, "only {fired} timers fired");
    assert_eq!(sim.counters().timers_suppressed.get(), 0);
    let owned: u64 = (0..2 * PAIRS)
        .map(|i| sim.actor::<Rearm>(ActorId(i)).map_or(0, |r| r.fired))
        .sum();
    assert_eq!(owned, sim.counters().timers_fired.get());
    assert_eq!(
        before, after,
        "arming under reserved numbers must not touch the allocator"
    );
}
