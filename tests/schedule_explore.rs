//! Schedule-exploration regression tests: the FIFO scheduler must replay
//! byte-identically to the pre-refactor engine, and the exhaustive
//! explorer must visit exactly the expected interleavings on known small
//! cases.

use std::collections::BTreeSet;

use lems_net::generators::fig1;
use lems_sim::actor::{Actor, ActorId, ActorSim, Ctx};
use lems_sim::sched::{ExploreBounds, Explorer, FifoScheduler, RandomScheduler, ReplayScheduler};
use lems_sim::time::{SimDuration, SimTime};
use lems_syntax::actors::{Deployment, DeploymentConfig};

const EVENT_BUDGET: u64 = 2_000_000;

fn t(u: f64) -> SimTime {
    SimTime::from_units(u)
}

/// FNV-1a over the rendered trace: any change to event order, timing, or
/// content changes the digest.
fn trace_digest(trace: &lems_sim::trace::Trace) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for ev in trace.events() {
        for b in format!("{ev}\n").bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

fn steady_fig1(seed: u64) -> Deployment {
    let f = fig1();
    let mut d = Deployment::build(
        &f.topology,
        &[2, 2, 2, 2, 2, 2],
        &DeploymentConfig {
            seed,
            ..DeploymentConfig::default()
        },
    );
    d.sim.enable_trace();
    let names = d.user_names();
    for i in 0..names.len() {
        d.send_at(t(1.0 + i as f64), &names[i], &names[(i + 5) % names.len()]);
    }
    for (i, n) in names.iter().enumerate() {
        d.check_at(t(100.0 + i as f64), n);
    }
    d
}

/// The digest of the steady Fig. 1 run, recorded before the engine had a
/// scheduler hook and reproduced by every kernel since (the calendar
/// queue included; it is `audit/steady@3` in `GOLDEN_kernel_digests.txt`).
/// The default `FifoScheduler` path must keep reproducing it byte for
/// byte.
#[test]
fn fifo_scheduler_trace_is_byte_identical_to_pre_refactor_engine() {
    let mut d = steady_fig1(3);
    assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
    assert_eq!(trace_digest(d.sim.trace()), 0x42ce_873a_7a5b_8ce9);
}

/// Same digest with an explicitly installed `FifoScheduler`: the scheduler
/// path (ready-set construction + choose) must not perturb event order.
#[test]
fn installed_fifo_scheduler_matches_default_engine_order() {
    let mut d = steady_fig1(3);
    d.sim.set_scheduler(Box::new(FifoScheduler));
    assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
    assert_eq!(trace_digest(d.sim.trace()), 0x42ce_873a_7a5b_8ce9);
}

/// Records messages in arrival order — lets tests observe the schedule.
#[derive(Default)]
struct Recorder {
    seen: Vec<u32>,
}
impl Actor for Recorder {
    type Msg = u32;
    fn on_message(&mut self, _from: ActorId, msg: u32, _ctx: &mut Ctx<'_, u32>) {
        self.seen.push(msg);
    }
}

/// `k` simultaneous external arrivals at one actor have `k!` observable
/// orders; the explorer must visit each exactly once.
#[test]
fn explorer_visits_all_permutations_of_coincident_arrivals() {
    for (k, expect) in [(2usize, 2u64), (3, 6), (4, 24)] {
        let mut ex = Explorer::new(ExploreBounds::default());
        let mut orders: BTreeSet<Vec<u32>> = BTreeSet::new();
        loop {
            let mut sim = ActorSim::new(7);
            let a = sim.add_actor(Recorder::default());
            for m in 0..k {
                sim.inject(a, m as u32, SimDuration::from_units(1.0));
            }
            sim.set_scheduler(Box::new(ex.begin_run()));
            assert!(sim.run_to_quiescence_bounded(1_000));
            orders.insert(sim.actor::<Recorder>(a).unwrap().seen.clone());
            if !ex.advance() {
                break;
            }
        }
        assert_eq!(ex.schedules_run(), expect, "k = {k}");
        assert_eq!(orders.len() as u64, expect, "k = {k}");
        assert!(!ex.truncated());
    }
}

/// Partial-order reduction: coincident arrivals at *distinct* actors
/// commute, so one schedule is enough. Two coincident arrivals at each of
/// two actors branch per-actor: 2! x 2! = 4 schedules, not 4! = 24.
#[test]
fn partial_order_reduction_prunes_cross_actor_orderings() {
    // One message per actor: no contention anywhere -> single schedule.
    let mut ex = Explorer::new(ExploreBounds::default());
    loop {
        let mut sim = ActorSim::new(7);
        for m in 0..4u32 {
            let a = sim.add_actor(Recorder::default());
            sim.inject(a, m, SimDuration::from_units(1.0));
        }
        sim.set_scheduler(Box::new(ex.begin_run()));
        assert!(sim.run_to_quiescence_bounded(1_000));
        if !ex.advance() {
            break;
        }
    }
    assert_eq!(ex.schedules_run(), 1);

    // Two contended pairs: the product of per-actor orders.
    let mut ex = Explorer::new(ExploreBounds::default());
    let mut states: BTreeSet<(Vec<u32>, Vec<u32>)> = BTreeSet::new();
    loop {
        let mut sim = ActorSim::new(7);
        let a = sim.add_actor(Recorder::default());
        let b = sim.add_actor(Recorder::default());
        for m in 0..2u32 {
            sim.inject(a, m, SimDuration::from_units(1.0));
            sim.inject(b, 10 + m, SimDuration::from_units(1.0));
        }
        sim.set_scheduler(Box::new(ex.begin_run()));
        assert!(sim.run_to_quiescence_bounded(1_000));
        states.insert((
            sim.actor::<Recorder>(a).unwrap().seen.clone(),
            sim.actor::<Recorder>(b).unwrap().seen.clone(),
        ));
        if !ex.advance() {
            break;
        }
    }
    assert_eq!(ex.schedules_run(), 4);
    assert_eq!(states.len(), 4);
}

/// A pinger that fires one ping at its peer on startup; the peer
/// (`PongServer`) acks every ping back to its sender.
struct Pinger {
    peer: ActorId,
    acked: bool,
}
impl Actor for Pinger {
    type Msg = u32;
    fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
        ctx.send(self.peer, ctx.me().0 as u32, SimDuration::from_units(1.0));
    }
    fn on_message(&mut self, _from: ActorId, _msg: u32, _ctx: &mut Ctx<'_, u32>) {
        self.acked = true;
    }
}
#[derive(Default)]
struct PongServer {
    order: Vec<u32>,
}
impl Actor for PongServer {
    type Msg = u32;
    fn on_message(&mut self, from: ActorId, msg: u32, ctx: &mut Ctx<'_, u32>) {
        self.order.push(msg);
        ctx.send(from, msg, SimDuration::from_units(1.0));
    }
}

/// Ping/ack harness: `k` pingers ping one server at the same instant. The
/// pings contend (k! orders at the server); each ack returns on its own
/// lane to its own pinger, so acks add no decision points. Exactly k!
/// schedules, every pinger acked in all of them.
#[test]
fn ping_ack_harness_has_exactly_factorial_schedules() {
    for (k, expect) in [(2usize, 2u64), (3, 6)] {
        let mut ex = Explorer::new(ExploreBounds::default());
        let mut orders: BTreeSet<Vec<u32>> = BTreeSet::new();
        loop {
            let mut sim = ActorSim::new(11);
            let server = sim.add_actor(PongServer::default());
            let pingers: Vec<ActorId> = (0..k)
                .map(|_| {
                    sim.add_actor(Pinger {
                        peer: server,
                        acked: false,
                    })
                })
                .collect();
            sim.set_scheduler(Box::new(ex.begin_run()));
            assert!(sim.run_to_quiescence_bounded(1_000));
            for &p in &pingers {
                assert!(sim.actor::<Pinger>(p).unwrap().acked);
            }
            orders.insert(sim.actor::<PongServer>(server).unwrap().order.clone());
            if !ex.advance() {
                break;
            }
        }
        assert_eq!(ex.schedules_run(), expect, "k = {k}");
        assert_eq!(orders.len() as u64, expect, "k = {k}");
    }
}

/// The acceptance floor for the model checker: the 3-server System-1
/// scenario with one crash point must enumerate >= 500 distinct
/// interleavings, all clean. (The CI `explore` job runs the same scenario
/// unbounded in release mode and exhausts the full space — 8640 schedules
/// at the pinned seed; this test caps the budget to stay fast in debug.)
#[test]
fn s1_crash_exploration_meets_acceptance_floor() {
    let bounds = ExploreBounds {
        max_schedules: 1_000,
        ..lems_check::explore::default_bounds()
    };
    let s1_crash = lems_check::scenarios::Scenario::named("s1-crash");
    let o = lems_check::explore::explore(s1_crash, 3, bounds);
    assert!(
        o.schedules >= 500,
        "only {} schedules explored",
        o.schedules
    );
    assert_eq!(
        o.distinct_outcomes as u64, o.schedules,
        "every schedule must reach a distinct terminal state here"
    );
    assert!(
        o.is_clean(),
        "counterexample: {:?}",
        o.counterexample
            .as_ref()
            .map(|c| (c.schedule.to_string(), c.violations.clone()))
    );
}

/// A schedule recorded by the seeded fuzzer replays byte-identically.
#[test]
fn random_schedule_replays_byte_identically() {
    fn run(sched: Box<dyn lems_sim::sched::Scheduler>) -> (Vec<u32>, u64) {
        let mut sim = ActorSim::new(5).with_trace();
        let a = sim.add_actor(Recorder::default());
        for m in 0..5u32 {
            sim.inject(a, m, SimDuration::from_units(1.0));
        }
        sim.set_scheduler(sched);
        assert!(sim.run_to_quiescence_bounded(1_000));
        let seen = sim.actor::<Recorder>(a).unwrap().seen.clone();
        (seen, trace_digest(sim.trace()))
    }

    let fuzz = RandomScheduler::new(99);
    let log = fuzz.schedule_log();
    let (seen_a, digest_a) = run(Box::new(fuzz));
    let recorded = log.schedule();
    assert!(!recorded.0.is_empty(), "coincident arrivals must branch");
    let (seen_b, digest_b) = run(Box::new(ReplayScheduler::new(recorded)));
    assert_eq!(seen_a, seen_b);
    assert_eq!(digest_a, digest_b);

    // Now record a schedule explicitly through the explorer and replay it.
    let mut ex = Explorer::new(ExploreBounds::default());
    let sched = ex.begin_run();
    let (seen_first, digest_first) = run(Box::new(sched));
    let recorded = ex.finish_run();
    let (seen_replay, digest_replay) = run(Box::new(ReplayScheduler::new(recorded)));
    assert_eq!(seen_first, seen_replay);
    assert_eq!(digest_first, digest_replay);
}
