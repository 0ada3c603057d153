//! Pins the profiler's zero-perturbation contract: enabling profiling
//! changes **no** output byte of a run — trace digest, counters, and
//! final clock are identical with profiling on or off.
//!
//! (The PR 5 on/off pin covers spans; this battery covers the kernel
//! profiler.)

use lems_sim::actor::{Actor, ActorId, ActorSim, Ctx, TimerId};
use lems_sim::time::{SimDuration, SimTime};

fn unit(u: f64) -> SimDuration {
    SimDuration::from_units(u)
}

/// Forwards a TTL-carrying token around a ring; also arms a keeper timer
/// whose handler removes a later doomed one. The crashed actor's timers
/// come due while it is down, so every dispatch class shows up.
struct Ring {
    n: usize,
    keeper: Option<TimerId>,
    doomed: Option<TimerId>,
}

impl Actor for Ring {
    type Msg = u64;
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        let next = ActorId((ctx.me().0 + 1) % self.n);
        ctx.send(next, 24, unit(0.5));
        self.keeper = Some(ctx.set_timer(unit(2.0)));
        self.doomed = Some(ctx.set_timer(unit(3.0)));
    }
    fn on_message(&mut self, _f: ActorId, ttl: u64, ctx: &mut Ctx<'_, u64>) {
        if ttl > 0 {
            let next = ActorId((ctx.me().0 + 1) % self.n);
            ctx.send(next, ttl - 1, unit(0.5));
        }
    }
    fn on_timer(&mut self, id: TimerId, ctx: &mut Ctx<'_, u64>) {
        if self.keeper == Some(id) {
            if let Some(d) = self.doomed.take() {
                ctx.remove_timer(d);
            }
        }
    }
    fn kind(&self) -> &'static str {
        "ring"
    }
}

const N: usize = 8;
const SEED: u64 = 42;

/// Every dispatch class is exercised: deliveries, a crash and recovery
/// (with drops while down), a drop to an unknown id, fired and
/// suppressed timers.
struct Fingerprint {
    digest: u64,
    delivered: u64,
    dropped_down: u64,
    dropped_unknown: u64,
    timers_fired: u64,
    timers_suppressed: u64,
    now: SimTime,
}

fn drive(sim: &mut ActorSim<u64>) -> bool {
    sim.schedule_crash(ActorId(2), SimTime::from_units(1.25));
    sim.schedule_recover(ActorId(2), SimTime::from_units(4.25));
    sim.inject(ActorId(999), 0, unit(0.25));
    sim.run_to_quiescence_bounded(100_000)
}

fn fingerprint(sim: &ActorSim<u64>) -> Fingerprint {
    Fingerprint {
        digest: sim.trace().digest(),
        delivered: sim.counters().delivered.get(),
        dropped_down: sim.counters().dropped_down.get(),
        dropped_unknown: sim.counters().dropped_unknown.get(),
        timers_fired: sim.counters().timers_fired.get(),
        timers_suppressed: sim.counters().timers_suppressed.get(),
        now: sim.now(),
    }
}

fn assert_same(a: &Fingerprint, b: &Fingerprint, what: &str) {
    assert_eq!(a.digest, b.digest, "{what}: trace digest diverged");
    assert_eq!(a.delivered, b.delivered, "{what}: delivered");
    assert_eq!(a.dropped_down, b.dropped_down, "{what}: dropped_down");
    assert_eq!(
        a.dropped_unknown, b.dropped_unknown,
        "{what}: dropped_unknown"
    );
    assert_eq!(a.timers_fired, b.timers_fired, "{what}: timers_fired");
    assert_eq!(
        a.timers_suppressed, b.timers_suppressed,
        "{what}: timers_suppressed"
    );
    assert_eq!(a.now, b.now, "{what}: final clock");
}

fn run(prof: bool) -> (Fingerprint, ActorSim<u64>) {
    let mut sim = ActorSim::new(SEED);
    sim.enable_trace();
    for _ in 0..N {
        sim.add_actor(Ring {
            n: N,
            keeper: None,
            doomed: None,
        });
    }
    if prof {
        sim.enable_prof();
    }
    assert!(drive(&mut sim), "run must quiesce");
    (fingerprint(&sim), sim)
}

#[test]
fn profiling_is_invisible() {
    let (off, _) = run(false);
    let (on, sim) = run(true);
    assert_same(&off, &on, "prof on vs off");
    // The workload exercised every dispatch class...
    assert!(off.delivered > 0 && off.dropped_down > 0 && off.dropped_unknown > 0);
    assert!(off.timers_fired > 0 && off.timers_suppressed > 0);
    // ...and the profiler saw all of it.
    assert_eq!(
        sim.prof().dispatches(),
        off.delivered
            + off.dropped_down
            + off.dropped_unknown
            + off.timers_fired
            + off.timers_suppressed
            + 2, // the crash and the recovery
    );
    let samples = sim.profile_samples();
    for cell in [
        "ring/deliver",
        "ring/drop-down",
        "unknown/drop-unknown",
        "ring/timer",
        "ring/timer-suppressed",
        "ring/crash",
        "ring/recover",
    ] {
        assert!(
            samples
                .iter()
                .any(|s| s.scope == "dispatch" && s.name == cell && s.count > 0),
            "missing dispatch cell {cell}"
        );
    }
    // Busy attribution decomposes elapsed sim time: the per-cell charges
    // sum to the instant of the last dispatched event.
    let busy: u64 = samples
        .iter()
        .filter(|s| s.scope == "dispatch")
        .map(|s| s.ticks)
        .sum();
    assert_eq!(busy, off.now.as_ticks());
}

#[test]
fn dispatch_attribution_is_run_invariant() {
    // Everything `profile_samples` exports derives from sim time and event
    // counts, so two runs of one seed export the same list.
    let (_, a) = run(true);
    let (_, b) = run(true);
    assert_eq!(a.profile_samples(), b.profile_samples());
}
