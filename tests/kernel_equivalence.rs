//! Kernel equivalence regression battery.
//!
//! The sim kernel's refactor safety net: every audit scenario family
//! (steady/failover/chaos/durability), the explore s1/s2 kernels, and a
//! kernel-level feature battery are pinned byte-identical — by trace digest —
//! to `GOLDEN_kernel_digests.txt`, which was generated on the pre-refactor
//! engine (PR 8, `BTreeMap` event queue, sequential dispatch) and is
//! committed. A kernel change that reorders, retimes, drops, or duplicates
//! any observable event fails these tests.
//!
//! Two evidence layers:
//!
//! 1. **Production scenarios** — the full audit and explore scenarios
//!    replayed on the current kernel must digest equal to the committed
//!    values.
//! 2. **Kernel battery** — small kernel-level scenarios that between them
//!    cover every engine feature (FIFO lanes, timers + removal,
//!    crash/recover windows, link faults with drop/dup/jitter), so a
//!    divergence points at the feature rather than at a mail protocol.
//!
//! Regenerate the golden file (only after an *intentional* semantic
//! change, with the diff reviewed) via:
//!
//! ```sh
//! cargo test --test kernel_equivalence -- --ignored regenerate_golden_digests
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

use lems_check::scenarios::{Scenario, AUDIT, EXPLORE};
use lems_sim::actor::{Actor, ActorId, ActorSim, Ctx, TimerId};
use lems_sim::linkfault::{LinkFaultPlan, LinkProfile};
use lems_sim::time::{SimDuration, SimTime};

/// Event budget for one battery run — far above what any scenario needs,
/// so exhaustion means a runaway loop, not a tight limit.
const BATTERY_BUDGET: u64 = 500_000;

/// Seeds every family is pinned at.
const SEEDS: [u64; 2] = [3, 7];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("GOLDEN_kernel_digests.txt")
}

/// Parses `GOLDEN_kernel_digests.txt`: `name 0xHEX` per line, `#` comments.
fn load_golden() -> BTreeMap<String, u64> {
    let text = std::fs::read_to_string(golden_path()).expect(
        "GOLDEN_kernel_digests.txt missing — regenerate with \
         `cargo test --test kernel_equivalence -- --ignored regenerate_golden_digests`",
    );
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, hex) = line.split_once(' ').expect("golden line is `name 0xHEX`");
        let digest = u64::from_str_radix(hex.trim().trim_start_matches("0x"), 16)
            .expect("golden digest parses as hex");
        let fresh = out.insert(name.to_owned(), digest).is_none();
        assert!(fresh, "`{name}` is pinned twice");
    }
    out
}

fn assert_pinned(golden: &BTreeMap<String, u64>, name: &str, digest: u64) {
    let Some(&expected) = golden.get(name) else {
        panic!("no committed digest for `{name}` — regenerate the golden file");
    };
    assert_eq!(
        digest, expected,
        "`{name}` diverged from the committed pre-refactor digest: \
         got {digest:#018x}, pinned {expected:#018x}"
    );
}

// ---------------------------------------------------------------------------
// Kernel battery.
//
// These exercise every engine feature: same-instant contention on FIFO
// lanes, self-sends, timers armed/removed (including a removal by a
// same-instant earlier timer), crash and recovery windows with traffic in
// flight, and link faults drawing drop/dup/jitter decisions from the
// engine's fault stream.
// ---------------------------------------------------------------------------

fn unit(u: f64) -> SimDuration {
    SimDuration::from_units(u)
}

fn t(u: f64) -> SimTime {
    SimTime::from_units(u)
}

/// Battery message: `(ttl << 8) | hop-salt`, packed so forwarding rules are
/// pure arithmetic on the payload.
type Msg = u64;

fn ttl_of(m: Msg) -> u64 {
    m >> 8
}

fn with_ttl(m: Msg, ttl: u64) -> Msg {
    (ttl << 8) | (m & 0xff)
}

/// Quantized mesh delays: a small set of grid-aligned values so many
/// events share instants (same-instant ties are where ordering bugs
/// live).
fn mesh_delay(a: u64, b: u64) -> SimDuration {
    unit(0.25 * (1.0 + ((a * 7 + b * 3) % 4) as f64))
}

/// Forwards each message to an arithmetically chosen neighbour until its
/// TTL runs out; every third hop also loops through a self-send.
struct MeshActor {
    n: usize,
    received: u64,
}

impl Actor for MeshActor {
    type Msg = Msg;
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let me = ctx.me().0 as u64;
        for k in 1..=3u64 {
            let to = ActorId(((me + k) as usize) % self.n);
            ctx.send(to, with_ttl(k, 40), mesh_delay(me, k));
        }
    }
    fn on_message(&mut self, from: ActorId, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        self.received += 1;
        let ttl = ttl_of(msg);
        if ttl == 0 {
            return;
        }
        let me = ctx.me().0 as u64;
        let from_salt = if from == ActorId::EXTERNAL {
            97
        } else {
            from.0 as u64
        };
        if self.received.is_multiple_of(3) {
            ctx.send_self(with_ttl(msg, ttl - 1), unit(0.25));
        } else {
            let to =
                ActorId(((me + 1 + (ttl + from_salt) % (self.n as u64 - 1)) as usize) % self.n);
            ctx.send(to, with_ttl(msg, ttl - 1), mesh_delay(me + from_salt, ttl));
        }
    }
}

/// `mesh-burst`: 8 mesh actors, FIFO links, plus one injection to an
/// unregistered id (the dropped-unknown path).
fn mesh_burst(sim: &mut ActorSim<Msg>) {
    for _ in 0..8 {
        sim.add_actor(MeshActor { n: 8, received: 0 });
    }
    sim.inject(ActorId(999), with_ttl(0, 1), unit(1.0));
    sim.inject(ActorId(0), with_ttl(5, 12), unit(0.5));
    sim.enable_trace();
}

/// Arms periodic timers, re-arms across rounds, and removes: one timer
/// removed at arm time, and a same-instant pair where the earlier-seq
/// timer's handler removes the later-seq one *at the same instant*.
struct TimerActor {
    n: usize,
    rounds: u64,
    /// Every timer this actor has armed, with its role.
    armed: Vec<(TimerId, u64)>,
    doomed: Option<TimerId>,
}

const TAG_TICK: u64 = 0;
const TAG_KILLER: u64 = 1;
const TAG_DOOMED: u64 = 2;

impl TimerActor {
    fn arm(&mut self, ctx: &mut Ctx<'_, Msg>, delay: SimDuration, tag: u64) -> TimerId {
        let id = ctx.set_timer(delay);
        self.armed.push((id, tag));
        id
    }
}

impl Actor for TimerActor {
    type Msg = Msg;
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let me = ctx.me().0 as f64;
        self.arm(ctx, unit(1.0 + 0.25 * me), TAG_TICK);
        // Armed and removed at once: must never pop.
        let stillborn = self.arm(ctx, unit(2.0), TAG_DOOMED);
        ctx.remove_timer(stillborn);
        // Same-instant pair: KILLER (earlier seq) fires first at t=3 and
        // removes DOOMED (later seq, same instant).
        self.arm(ctx, unit(3.0), TAG_KILLER);
        self.doomed = Some(self.arm(ctx, unit(3.0), TAG_DOOMED));
    }
    fn on_timer(&mut self, id: TimerId, ctx: &mut Ctx<'_, Msg>) {
        let tag = self
            .armed
            .iter()
            .find(|&&(armed, _)| armed == id)
            .map(|&(_, tag)| tag);
        match tag {
            Some(TAG_TICK) if self.rounds < 6 => {
                self.rounds += 1;
                let me = ctx.me().0;
                ctx.send(ActorId((me + 1) % self.n), with_ttl(TAG_TICK, 2), unit(0.5));
                self.arm(ctx, unit(1.0), TAG_TICK);
            }
            Some(TAG_KILLER) => {
                if let Some(doomed) = self.doomed.take() {
                    ctx.remove_timer(doomed);
                }
            }
            _ => {}
        }
    }
    fn on_message(&mut self, _from: ActorId, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        let ttl = ttl_of(msg);
        if ttl > 0 {
            let me = ctx.me().0;
            ctx.send(
                ActorId((me + 2) % self.n),
                with_ttl(msg, ttl - 1),
                unit(0.75),
            );
        }
    }
}

/// `timer-remove`: 6 timer actors ticking, re-arming, and removing.
fn timer_remove(sim: &mut ActorSim<Msg>) {
    for _ in 0..6 {
        sim.add_actor(TimerActor {
            n: 6,
            rounds: 0,
            armed: Vec::new(),
            doomed: None,
        });
    }
    sim.enable_trace();
}

/// Mesh actor that announces its recovery to two neighbours.
struct ChurnActor {
    inner: MeshActor,
}

impl Actor for ChurnActor {
    type Msg = Msg;
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.inner.on_start(ctx);
    }
    fn on_message(&mut self, from: ActorId, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        self.inner.on_message(from, msg, ctx);
    }
    fn on_crash(&mut self, _now: SimTime) {
        // Volatile state is lost; the received tally survives as "stable".
    }
    fn on_recover(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let me = ctx.me().0;
        let n = self.inner.n;
        ctx.send(ActorId((me + 1) % n), with_ttl(9, 6), unit(0.25));
        ctx.send(ActorId((me + 3) % n), with_ttl(9, 6), unit(0.5));
    }
}

/// `crash-churn`: 8 churn actors under two staggered crash/recover waves
/// with mesh traffic in flight — deliveries into the windows drop.
fn crash_churn(sim: &mut ActorSim<Msg>) {
    for _ in 0..8 {
        sim.add_actor(ChurnActor {
            inner: MeshActor { n: 8, received: 0 },
        });
    }
    for i in 0..4usize {
        let a = ActorId(i);
        sim.schedule_crash(a, t(2.0 + 0.5 * i as f64));
        sim.schedule_recover(a, t(6.0 + 0.5 * i as f64));
        sim.schedule_crash(a, t(9.0 + 0.25 * i as f64));
        sim.schedule_recover(a, t(12.0 + 0.25 * i as f64));
    }
    sim.enable_trace();
}

/// `chaos-links`: the mesh under a lossy, duplicating, jittery default
/// profile plus one hard outage window — every fault draw comes from the
/// engine's dedicated fault stream.
fn chaos_links(sim: &mut ActorSim<Msg>) {
    for _ in 0..8 {
        sim.add_actor(MeshActor { n: 8, received: 0 });
    }
    let mut plan = LinkFaultPlan::new().with_default_profile(
        LinkProfile::new(0.15, 0.05, unit(0.5)).expect("probabilities are in range"),
    );
    plan.add_link_outage(ActorId(0), ActorId(1), t(1.0), t(4.0))
        .expect("window is well-formed");
    sim.set_link_faults(plan);
    sim.enable_trace();
}

/// The battery scenario names; [`battery`] builds each one.
const BATTERY: [&str; 4] = ["mesh-burst", "timer-remove", "crash-churn", "chaos-links"];

/// Builds the named battery scenario.
fn battery(name: &str, seed: u64) -> ActorSim<Msg> {
    let mut sim = ActorSim::new(seed);
    match name {
        "mesh-burst" => mesh_burst(&mut sim),
        "timer-remove" => timer_remove(&mut sim),
        "crash-churn" => crash_churn(&mut sim),
        "chaos-links" => chaos_links(&mut sim),
        other => panic!("unknown battery scenario `{other}`"),
    }
    sim
}

/// Runs a battery sim to quiescence and fingerprints it: the trace digest
/// folded with every counter and the final clock, so a divergence in any
/// observable — event stream, drop accounting, timer suppression, end time
/// — changes the digest.
fn battery_digest(sim: &mut ActorSim<Msg>) -> u64 {
    assert!(
        sim.run_to_quiescence_bounded(BATTERY_BUDGET),
        "battery scenario failed to quiesce"
    );
    let c = sim.counters();
    let mut h = sim.trace().digest();
    for x in [
        c.delivered.get(),
        c.dropped_down.get(),
        c.dropped_unknown.get(),
        c.dropped_link.get(),
        c.duplicated.get(),
        c.timers_fired.get(),
        c.timers_suppressed.get(),
        c.crashes.get(),
        c.recoveries.get(),
        sim.now().as_ticks(),
    ] {
        h ^= x;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// `(name, trace digest)` of every scenario in `table` run once at `seed`
/// under the default FIFO engine. The explore worlds exercise contended
/// same-instant ready sets, crash windows, and System-2 roaming on top of
/// the raw event queue, so any kernel ordering change surfaces there.
fn fifo_digests(table: &'static [Scenario], seed: u64) -> Vec<(&'static str, u64)> {
    table
        .iter()
        .map(|s| {
            let o = s.run(seed);
            assert!(o.quiesced, "{} failed to quiesce", s.name);
            (s.name, o.deployment.sim.trace().digest())
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The pinned comparisons.
// ---------------------------------------------------------------------------

#[test]
fn audit_scenarios_match_pre_refactor_digests_seed_3() {
    let golden = load_golden();
    for (name, digest) in fifo_digests(AUDIT, 3) {
        assert_pinned(&golden, &format!("audit/{name}@3"), digest);
    }
}

#[test]
fn audit_scenarios_match_pre_refactor_digests_seed_7() {
    let golden = load_golden();
    for (name, digest) in fifo_digests(AUDIT, 7) {
        assert_pinned(&golden, &format!("audit/{name}@7"), digest);
    }
}

#[test]
fn explore_kernels_match_pre_refactor_digests() {
    let golden = load_golden();
    for seed in SEEDS {
        for (name, digest) in fifo_digests(EXPLORE, seed) {
            assert_pinned(&golden, &format!("explore/{name}@{seed}"), digest);
        }
    }
}

#[test]
fn kernel_battery_matches_pre_refactor_digests() {
    let golden = load_golden();
    for name in BATTERY {
        for seed in SEEDS {
            let digest = battery_digest(&mut battery(name, seed));
            assert_pinned(&golden, &format!("battery/{name}@{seed}"), digest);
        }
    }
}

/// The golden file pins exactly the scenarios of `AUDIT`, `EXPLORE` and
/// `BATTERY` at `SEEDS`: a renamed or deleted scenario leaves no orphan
/// pin behind.
#[test]
fn golden_file_names_exactly_the_pinned_scenarios() {
    let mut expected = BTreeSet::new();
    for seed in SEEDS {
        for s in AUDIT {
            expected.insert(format!("audit/{}@{seed}", s.name));
        }
        for s in EXPLORE {
            expected.insert(format!("explore/{}@{seed}", s.name));
        }
        for name in BATTERY {
            expected.insert(format!("battery/{name}@{seed}"));
        }
    }
    let pinned: BTreeSet<String> = load_golden().into_keys().collect();
    assert_eq!(pinned, expected);
}

/// Rewrites `GOLDEN_kernel_digests.txt` from the current engine. Ignored:
/// run explicitly, review the diff, and commit it only for an intentional
/// semantic change.
#[test]
#[ignore = "regenerates the committed golden digest file"]
fn regenerate_golden_digests() {
    let mut lines = vec![
        "# Kernel trace digests captured on the pre-refactor engine".to_owned(),
        "# (BTreeMap event queue, sequential dispatch, PR 8 HEAD).".to_owned(),
        "# tests/kernel_equivalence.rs pins every later kernel against these.".to_owned(),
        "# Re-pinned since: battery/timer-remove@3 and @7 (once timer-cancel),".to_owned(),
        "# when the kernel's cancel-and-suppress path was deleted. The scenario".to_owned(),
        "# removes the timers it cancelled, and a removed timer never pops: its".to_owned(),
        "# trace digest, timers_fired (48) and end tick (9 250 000) held, and".to_owned(),
        "# timers_suppressed went 12 -> 0.".to_owned(),
        "# Regenerate (intentional semantic changes only):".to_owned(),
        "#   cargo test --test kernel_equivalence -- --ignored regenerate_golden_digests"
            .to_owned(),
    ];
    for seed in SEEDS {
        for (name, digest) in fifo_digests(AUDIT, seed) {
            lines.push(format!("audit/{name}@{seed} {digest:#018x}"));
        }
    }
    for seed in SEEDS {
        for (name, digest) in fifo_digests(EXPLORE, seed) {
            lines.push(format!("explore/{name}@{seed} {digest:#018x}"));
        }
    }
    for name in BATTERY {
        for seed in SEEDS {
            let digest = battery_digest(&mut battery(name, seed));
            lines.push(format!("battery/{name}@{seed} {digest:#018x}"));
        }
    }
    std::fs::write(golden_path(), lines.join("\n") + "\n").expect("write golden file");
}
