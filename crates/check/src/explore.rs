//! Small-scope schedule model checking (`lems-check -- explore`).
//!
//! The audit scenarios in [`scenarios`](crate::scenarios) replay exactly one
//! schedule per seed. This module closes that gap for *small* deployments:
//! it rebuilds the same workload once per schedule and drives it through
//! [`lems_sim::sched::Explorer`], which enumerates every interleaving of
//! same-instant ready events (up to configurable bounds, with partial-order
//! reduction — see `DESIGN.md` §8). Every terminal state is fed through the
//! trace auditor's conservation laws plus two terminal checks:
//!
//! * **no-lost-mail** — every submitted, unbounced message id is either
//!   retrieved or physically present in server storage;
//! * **no-stuck-retry** — the run quiesces within its event budget
//!   (deadlock/livelock detection: a retry loop that never converges under
//!   some ordering shows up here).
//!
//! A failing schedule is reported as a [`Counterexample`] carrying the
//! branch-choice list; replaying it through
//! [`ReplayScheduler`](lems_sim::sched::ReplayScheduler) reproduces the
//! violating run byte-identically, which the driver verifies before
//! reporting.

use std::collections::BTreeSet;

use lems_locindep::roaming_deployment;
use lems_net::generators::{fig1, multi_region, MultiRegionConfig};
use lems_sim::rng::SimRng;
use lems_sim::sched::{ExploreBounds, Explorer, ReplayScheduler, Schedule, Scheduler};
use lems_sim::time::SimTime;
use lems_syntax::actors::{Deployment, DeploymentConfig, ServerFailurePlan};

use crate::audit::audit_trace;

/// Per-run event budget. Explore deployments are tiny (2–3 servers, a
/// handful of messages); a run that needs more events than this is stuck.
pub const RUN_EVENT_BUDGET: u64 = 200_000;

/// Default bounds for one exploration: deep enough to exhaust the shipped
/// scenarios without truncation, with a hard schedule budget so CI cannot
/// run away if a scenario edit explodes the state space.
pub fn default_bounds() -> ExploreBounds {
    ExploreBounds {
        max_decisions: 256,
        branch_bound: 8,
        max_schedules: 50_000,
    }
}

/// A schedule that violated an invariant, plus what it violated.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// Branch-choice list; replay with
    /// [`ReplayScheduler`](lems_sim::sched::ReplayScheduler).
    pub schedule: Schedule,
    /// The violated checks, rendered.
    pub violations: Vec<String>,
    /// True when replaying the schedule reproduced the identical terminal
    /// fingerprint and violations (it always should; `false` would mean
    /// the workload itself is nondeterministic).
    pub replay_verified: bool,
}

/// The verdict of exploring one scenario.
#[derive(Clone, Debug)]
pub struct ExploreOutcome {
    /// Stable scenario name (CLI selector).
    pub name: &'static str,
    /// One-line human description.
    pub description: &'static str,
    /// Schedules (distinct interleavings) enumerated.
    pub schedules: u64,
    /// Distinct terminal fingerprints (trace digest + ledger state) seen
    /// across those schedules.
    pub distinct_outcomes: usize,
    /// True when a bound clipped the exploration (sample, not proof).
    pub truncated: bool,
    /// First violating schedule found, if any.
    pub counterexample: Option<Counterexample>,
}

impl ExploreOutcome {
    /// True when every explored schedule passed every check.
    pub fn is_clean(&self) -> bool {
        self.counterexample.is_none()
    }
}

fn t(u: f64) -> SimTime {
    SimTime::from_units(u)
}

/// Installs `scheduler` and runs to quiescence within [`RUN_EVENT_BUDGET`].
fn run_under(d: &mut Deployment, scheduler: impl Scheduler + 'static) -> bool {
    d.sim.set_scheduler(Box::new(scheduler));
    d.sim.run_to_quiescence_bounded(RUN_EVENT_BUDGET)
}

/// DFS driver: rebuild, install scheduler, run, check, backtrack.
///
/// `check` returns the violated-invariant lines for one terminal state
/// (empty = clean); [`fingerprint`] captures everything the shipped checks
/// look at, so replay verification can compare terminal states across runs.
fn drive(
    name: &'static str,
    description: &'static str,
    bounds: ExploreBounds,
    build: impl Fn() -> Deployment,
    check: impl Fn(&Deployment, bool) -> Vec<String>,
) -> ExploreOutcome {
    let mut ex = Explorer::new(bounds);
    let mut distinct: BTreeSet<u64> = BTreeSet::new();
    let mut counterexample: Option<Counterexample> = None;
    loop {
        let mut d = build();
        let quiesced = run_under(&mut d, ex.begin_run());
        let violations = check(&d, quiesced);
        let print = fingerprint(&d);
        distinct.insert(print);
        if !violations.is_empty() && counterexample.is_none() {
            let schedule = ex.finish_run();
            // Replay the recorded schedule against a fresh build: the
            // counterexample must reproduce byte-identically or it is
            // useless as a regression artefact.
            let mut replay = build();
            let replay_quiesced = run_under(&mut replay, ReplayScheduler::new(schedule.clone()));
            let replay_verified =
                fingerprint(&replay) == print && check(&replay, replay_quiesced) == violations;
            counterexample = Some(Counterexample {
                schedule,
                violations,
                replay_verified,
            });
        }
        if !ex.advance() {
            break;
        }
    }
    ExploreOutcome {
        name,
        description,
        schedules: ex.schedules_run(),
        distinct_outcomes: distinct.len(),
        truncated: ex.truncated(),
        counterexample,
    }
}

/// Terminal checks for a deployment of either system: trace conservation
/// laws, no-stuck-retry, and no-lost-mail.
fn system1_checks(d: &Deployment, quiesced: bool) -> Vec<String> {
    let mut out = Vec::new();
    if !quiesced {
        out.push(format!(
            "no-stuck-retry: {RUN_EVENT_BUDGET} events processed without quiescence"
        ));
    }
    let trace = audit_trace(d.sim.trace());
    out.extend(trace.violations.iter().map(|v| format!("trace: {v}")));

    let stats = d.stats.borrow();
    let stored: BTreeSet<_> = d.stranded_mail().iter().map(|&(_, _, id, _)| id).collect();
    for id in &stats.ledger_submitted {
        if !stats.ledger_retrieved.contains(id)
            && !stats.ledger_bounced.contains_key(id)
            && !stored.contains(id)
        {
            out.push(format!(
                "no-lost-mail: message {id:?} neither retrieved, bounced, nor stored"
            ));
        }
    }
    // Ledger sanity that must hold under *any* schedule: nothing counted
    // twice, nothing conjured from nowhere.
    for id in &stats.ledger_retrieved {
        if !stats.ledger_submitted.contains(id) {
            out.push(format!(
                "ledger: message {id:?} retrieved but never submitted"
            ));
        }
        if stats.ledger_bounced.contains_key(id) {
            out.push(format!("ledger: message {id:?} both retrieved and bounced"));
        }
    }
    if stats.retrieved != stats.ledger_retrieved.len() as u64 {
        out.push(format!(
            "ledger: retrieved counter ({}) disagrees with ledger ({} ids)",
            stats.retrieved,
            stats.ledger_retrieved.len()
        ));
    }
    if d.transport.wiring_errors() != 0 {
        out.push(format!(
            "ledger: {} transport wiring error(s)",
            d.transport.wiring_errors()
        ));
    }
    out
}

fn fingerprint(d: &Deployment) -> u64 {
    let stats = d.stats.borrow();
    let mut h = d.sim.trace().digest();
    for x in [
        stats.submitted,
        stats.retrieved,
        stats.bounced,
        stats.retransmits,
        d.mail_in_storage() as u64,
    ] {
        h ^= x;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// System-1 steady exchange, shrunk to explorable size: the Fig. 1
/// topology's 3-server chain with one user on each of the first three
/// hosts. Each user fires a burst of *simultaneous* sends (simultaneity is
/// what creates schedule branch points), then everyone checks mail.
fn s1_steady_deployment(seed: u64) -> Deployment {
    let f = fig1();
    let mut d = Deployment::build(
        &f.topology,
        &[1, 1, 1, 0, 0, 0],
        &DeploymentConfig {
            seed,
            ..DeploymentConfig::default()
        },
    );
    d.sim.enable_trace();
    let names = d.user_names();
    // Three coincident submissions per user: every host actor has a 3-way
    // contended arrival group (3!^3 base schedules), and the submit/forward
    // traffic they fan out into races organically further downstream.
    for (i, from) in names.iter().enumerate() {
        for k in 1..=3usize {
            d.send_at(t(1.0), from, &names[(i + k) % names.len()]);
        }
    }
    for (i, n) in names.iter().enumerate() {
        d.check_at(t(120.0 + i as f64), n);
        d.check_at(t(200.0 + i as f64), n);
    }
    d
}

/// Exhaustive exploration of the shrunken steady-exchange scenario.
pub fn s1_steady(seed: u64, bounds: ExploreBounds) -> ExploreOutcome {
    drive(
        "s1-steady",
        "System-1, 3 servers, 3 users, coincident send bursts, no failures",
        bounds,
        move || s1_steady_deployment(seed),
        system1_checks,
    )
}

/// The acceptance scenario: same shrunken System-1 deployment plus one
/// crash point — the first server (primary authority for the user hosts)
/// dies at t=6 with traffic in flight and recovers at t=40, before the
/// check waves. Every interleaving of the send bursts, the submit/forward
/// races, and the crash must conserve mail.
fn s1_crash_deployment(seed: u64) -> Deployment {
    let f = fig1();
    let mut d = s1_steady_deployment(seed);
    let mut plan = ServerFailurePlan::new();
    plan.add(f.servers[0], t(6.0), t(40.0));
    d.apply_server_failures(&plan);
    d
}

/// Exhaustive exploration of the crash-point scenario.
pub fn s1_crash(seed: u64, bounds: ExploreBounds) -> ExploreOutcome {
    drive(
        "s1-crash",
        "System-1, 3 servers, coincident send bursts, server 0 down in [6, 40)",
        bounds,
        move || s1_crash_deployment(seed),
        system1_checks,
    )
}

/// System-2 (location-independent addressing) shrunk to explorable size:
/// one region, three hosts, two sub-group servers. Users log in and fire
/// sends at the same instant, racing the `LocationUpdate` broadcasts
/// against mail routing — the orderings where mail outruns the location
/// update are exactly the ones a single seed rarely hits.
fn s2_roam_deployment(seed: u64) -> Deployment {
    let mut rng = SimRng::seed(seed).fork("explore-s2-topo");
    let topo = multi_region(
        &mut rng,
        &MultiRegionConfig {
            regions: 1,
            hosts_per_region: 3,
            servers_per_region: 2,
            ..MultiRegionConfig::default()
        },
    );
    let cfg = DeploymentConfig {
        seed,
        ..DeploymentConfig::default()
    };
    let mut d = roaming_deployment(&topo, &[1, 1, 1], 16, &cfg);
    d.sim.enable_trace();
    let users = d.user_names();
    let homes: Vec<_> = users
        .iter()
        .filter_map(|u| Some(d.directory.by_name(u)?.home_host))
        .collect();
    // Everyone logs in at the same instant — at their *neighbour's* host,
    // so location knowledge matters — and the first user immediately
    // mails the other two, racing the location broadcasts.
    for (i, u) in users.iter().enumerate() {
        d.login_at(t(1.0), u, homes[(i + 1) % homes.len()]);
    }
    d.send_at(t(1.0), &users[0], &users[1]);
    d.send_at(t(1.0), &users[0], &users[2]);
    d.send_at(t(1.0), &users[1], &users[2]);
    for (i, u) in users.iter().enumerate() {
        d.check_at(t(120.0 + i as f64), u);
    }
    d
}

/// Exhaustive exploration of the System-2 roaming scenario.
pub fn s2_roam(seed: u64, bounds: ExploreBounds) -> ExploreOutcome {
    drive(
        "s2-roam",
        "System-2, 2 servers, 3 roaming users: logins race mail routing",
        bounds,
        move || s2_roam_deployment(seed),
        system1_checks,
    )
}

/// The twin of [`s1_crash`] on the System-2 world: the first server — a
/// sub-group's only authority and a tracking peer — dies at t=4 with
/// submissions accepted and login reports, location updates and forwards
/// in flight, and recovers at t=40, before the check wave.
fn s2_crash_deployment(seed: u64) -> Deployment {
    let mut d = s2_roam_deployment(seed);
    let first = d.problem.servers[0].0;
    let mut plan = ServerFailurePlan::new();
    plan.add(first, t(4.0), t(40.0));
    d.apply_server_failures(&plan);
    d
}

/// Exhaustive exploration of the System-2 crash-point scenario.
pub fn s2_crash(seed: u64, bounds: ExploreBounds) -> ExploreOutcome {
    drive(
        "s2-crash",
        "System-2, 2 servers, 3 roaming users, server 0 down in [4, 40)",
        bounds,
        move || s2_crash_deployment(seed),
        system1_checks,
    )
}

/// Trace digests of the four explore deployments run once each under the
/// default FIFO engine (no scheduler installed). These are the kernel-level
/// fingerprints `tests/kernel_equivalence.rs` pins against the committed
/// pre-refactor values: the explore workloads exercise contended
/// same-instant ready sets, crash windows, and System-2 roaming on top of
/// the raw event queue, so any kernel ordering change surfaces here.
///
/// # Panics
///
/// Panics if a deployment fails to quiesce within [`RUN_EVENT_BUDGET`] —
/// the shipped explore scenarios always do, so non-quiescence means the
/// engine itself regressed.
pub fn kernel_fifo_digests(seed: u64) -> Vec<(&'static str, u64)> {
    let digest = |name, mut d: Deployment| {
        let quiesced = d.sim.run_to_quiescence_bounded(RUN_EVENT_BUDGET);
        assert!(quiesced, "{name} failed to quiesce");
        (name, d.sim.trace().digest())
    };
    vec![
        digest("s1-steady", s1_steady_deployment(seed)),
        digest("s1-crash", s1_crash_deployment(seed)),
        digest("s2-roam", s2_roam_deployment(seed)),
        digest("s2-crash", s2_crash_deployment(seed)),
    ]
}

/// Runs every explore scenario with `seed`.
pub fn run_all(seed: u64, bounds: ExploreBounds) -> Vec<ExploreOutcome> {
    vec![
        s1_steady(seed, bounds),
        s1_crash(seed, bounds),
        s2_roam(seed, bounds),
        s2_crash(seed, bounds),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cheap bounds for unit tests: schedule budget trimmed but deep
    /// enough that the shipped scenarios still exhaust (not truncate).
    fn bounds(max_schedules: u64) -> ExploreBounds {
        ExploreBounds {
            max_schedules,
            ..default_bounds()
        }
    }

    #[test]
    fn s2_roam_and_crash_explore_clean() {
        for o in [s2_roam(3, bounds(20_000)), s2_crash(3, bounds(20_000))] {
            assert!(
                o.is_clean(),
                "{}: counterexample {:?}",
                o.name,
                o.counterexample
                    .as_ref()
                    .map(|c| (&c.schedule, &c.violations))
            );
            assert!(o.schedules >= 2, "logins/sends must contend");
            assert!(!o.truncated);
        }
    }

    /// Injected violation: a check that rejects a specific message order
    /// must produce a counterexample whose schedule replays to the same
    /// terminal fingerprint.
    #[test]
    fn counterexamples_replay_byte_identically() {
        // Baseline: the FIFO schedule's terminal fingerprint.
        let baseline = {
            let mut d = s1_steady_deployment(3);
            assert!(d.sim.run_to_quiescence_bounded(RUN_EVENT_BUDGET));
            fingerprint(&d)
        };
        let o = drive(
            "synthetic",
            "synthetic failing check",
            bounds(50),
            || s1_steady_deployment(3),
            // "Violation": any terminal state that differs from the FIFO
            // baseline. The very second schedule diverges, so the
            // replay-verification path is exercised for real — on a
            // schedule with a non-trivial branch-choice list.
            move |d, _| {
                if fingerprint(d) == baseline {
                    Vec::new()
                } else {
                    vec!["synthetic: diverged from the FIFO baseline".into()]
                }
            },
        );
        let cx = o
            .counterexample
            .expect("a non-FIFO schedule must diverge somewhere");
        assert!(!cx.schedule.0.is_empty(), "counterexample must branch");
        assert!(cx.replay_verified, "schedule {} must replay", cx.schedule);
    }
}
