//! Small-scope schedule model checking (`lems-check -- explore`).
//!
//! `lems-check audit` runs exactly one schedule per seed. This module
//! closes that gap for the *small* deployments of
//! [`EXPLORE`](crate::scenarios::EXPLORE): it rebuilds the scenario once
//! per schedule and drives it through [`lems_sim::sched::Explorer`], which
//! enumerates every interleaving of same-instant ready events (up to
//! configurable bounds, with partial-order reduction — see `DESIGN.md`
//! §8). Every terminal run is judged by [`verdict`], the same function
//! that judges the audit scenarios; under exploration its no-stuck-retry
//! clause is deadlock/livelock detection (a retry loop that never
//! converges under some ordering exhausts [`RUN_EVENT_BUDGET`]).
//!
//! A failing schedule is reported as a [`Counterexample`] carrying the
//! branch-choice list; replaying it through
//! [`ReplayScheduler`] reproduces the
//! violating run byte-identically, which the driver verifies before
//! reporting.

use std::collections::BTreeSet;

use lems_sim::sched::{ExploreBounds, Explorer, ReplayScheduler, Schedule, Scheduler};
use lems_syntax::actors::Deployment;

use crate::audit::verdict;
use crate::scenarios::Scenario;

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
    /// [`ReplayScheduler`].
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
    /// The scenario explored.
    pub scenario: &'static Scenario,
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

/// Installs `scheduler` and runs to quiescence within [`RUN_EVENT_BUDGET`].
fn run_under(d: &mut Deployment, scheduler: impl Scheduler + 'static) -> bool {
    d.sim.set_scheduler(Box::new(scheduler));
    d.sim.run_to_quiescence_bounded(RUN_EVENT_BUDGET)
}

/// DFS driver: rebuild, install scheduler, run, check, backtrack.
///
/// `check` returns the violated-invariant lines for one terminal state
/// (empty = clean); replay verification compares those lines and the
/// [`fingerprint`] of the terminal state across runs.
fn drive(
    scenario: &'static Scenario,
    seed: u64,
    bounds: ExploreBounds,
    check: impl Fn(&Deployment, bool) -> Vec<String>,
) -> ExploreOutcome {
    let build = || (scenario.build)(seed);
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
        scenario,
        schedules: ex.schedules_run(),
        distinct_outcomes: distinct.len(),
        truncated: ex.truncated(),
        counterexample,
    }
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

/// Explores every schedule of `scenario` at `seed` within `bounds`,
/// judging each terminal run with [`verdict`].
pub fn explore(scenario: &'static Scenario, seed: u64, bounds: ExploreBounds) -> ExploreOutcome {
    drive(scenario, seed, bounds, verdict)
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
        for name in ["s2-roam", "s2-crash"] {
            let o = explore(Scenario::named(name), 3, bounds(20_000));
            assert!(
                o.is_clean(),
                "{name}: counterexample {:?}",
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
        let s1_steady = Scenario::named("s1-steady");
        let baseline = {
            let mut d = (s1_steady.build)(3);
            assert!(d.sim.run_to_quiescence_bounded(RUN_EVENT_BUDGET));
            fingerprint(&d)
        };
        let o = drive(
            s1_steady,
            3,
            bounds(50),
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
