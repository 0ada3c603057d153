//! Experiments C1 and C2: GetMail polls per retrieval and the no-lost-mail
//! guarantee, against the poll-every-server baseline, under a sweep of
//! server failure rates.
//!
//! The analytic harness drives the pure GetMail algorithm over a
//! [`FailurePlan`]-backed store (thousands of checks per configuration);
//! the full-stack harness cross-checks one configuration end to end
//! through the actor-based deployment, timeouts and all.
//!
//! [`FailurePlan`]: lems_sim::failure::FailurePlan

use lems_core::message::MessageId;
use lems_net::generators::fig1;
use lems_net::graph::NodeId;
use lems_sim::actor::ActorId;
use lems_sim::failure::FailurePlan;
use lems_sim::metrics::Summary;
use lems_sim::rng::SimRng;
use lems_sim::time::{SimDuration, SimTime};
use lems_syntax::actors::{Deployment, DeploymentConfig, ServerFailurePlan};
use lems_syntax::getmail::{poll_all, GetMailState, PlanStore};

use crate::render::{f3, Report, Table};

/// Generous per-run event budget: a non-quiescing run is a livelocked
/// retry loop and aborts the experiment rather than hanging it.
const EVENT_BUDGET: u64 = 20_000_000;

/// One row of the C1/C2 sweep.
#[derive(Clone, Copy, Debug)]
struct GetMailRow {
    /// Target per-server availability (MTBF / (MTBF + MTTR)).
    availability: f64,
    /// Mean polls per retrieval, GetMail.
    getmail_polls: f64,
    /// Mean polls per retrieval, poll-all baseline.
    pollall_polls: f64,
    /// Messages deposited across the run.
    deposited: u64,
    /// Messages retrieved (GetMail side).
    retrieved: u64,
    /// Messages silently lost (must be 0 — the §5 claim).
    lost: u64,
    /// Deposit attempts that bounced because every server was down.
    undeliverable: u64,
}

/// Sweep configuration.
#[derive(Clone, Copy, Debug)]
struct GetMailSweepConfig {
    /// Authority servers per user.
    servers: usize,
    /// Independent users simulated per availability point.
    users: usize,
    /// Scenario horizon, in time units.
    horizon: f64,
    /// Mean time between mailbox checks.
    check_interval: f64,
    /// Mean time between deposits for a user.
    deposit_interval: f64,
    /// MTTR (repair time) in units; MTBF is derived from the availability.
    mttr: f64,
    /// Base RNG seed.
    seed: u64,
}

impl Default for GetMailSweepConfig {
    fn default() -> Self {
        GetMailSweepConfig {
            servers: 3,
            users: 50,
            horizon: 2_000.0,
            check_interval: 10.0,
            deposit_interval: 15.0,
            mttr: 20.0,
            seed: 42,
        }
    }
}

/// Runs the analytic sweep over the given availability targets. An
/// availability of 1.0 means no failures at all ("normal conditions").
fn sweep(availabilities: &[f64], cfg: &GetMailSweepConfig) -> Vec<GetMailRow> {
    availabilities
        .iter()
        .map(|&avail| one_point(avail, cfg))
        .collect()
}

fn one_point(availability: f64, cfg: &GetMailSweepConfig) -> GetMailRow {
    assert!((0.0..=1.0).contains(&availability));
    let root = SimRng::seed(cfg.seed).fork(&format!("avail{availability}"));
    let horizon = SimTime::from_units(cfg.horizon);
    let servers: Vec<NodeId> = (0..cfg.servers).map(NodeId).collect();
    let actors: Vec<ActorId> = (0..cfg.servers).map(ActorId).collect();

    let mut getmail_polls = Summary::new();
    let mut pollall_polls = Summary::new();
    let mut deposited = 0u64;
    let mut retrieved = 0u64;
    let mut undeliverable = 0u64;
    let mut left_in_storage = 0u64;

    for user in 0..cfg.users {
        let mut rng = root.fork(&format!("user{user}"));
        let plan = if availability >= 1.0 {
            FailurePlan::new()
        } else {
            let mtbf = cfg.mttr * availability / (1.0 - availability);
            FailurePlan::random(
                &mut rng,
                &actors,
                SimDuration::from_units(mtbf),
                SimDuration::from_units(cfg.mttr),
                horizon,
            )
            .expect("experiment parameters are valid")
        };
        // Identical deposit schedules feed both retrieval strategies.
        let mut store_g = PlanStore::new(plan.clone());
        let mut store_p = PlanStore::new(plan);
        let mut state = GetMailState::new();

        let mut next_id = 0u64;
        let mut t = 0.0;
        let mut next_deposit = rng.exp_duration(SimDuration::from_units(cfg.deposit_interval));
        let mut next_check = rng.exp_duration(SimDuration::from_units(cfg.check_interval));
        let mut t_dep = next_deposit.as_units();
        let mut t_chk = next_check.as_units();
        while t < cfg.horizon {
            if t_dep <= t_chk {
                t = t_dep;
                if t >= cfg.horizon {
                    break;
                }
                let id = MessageId(next_id);
                next_id += 1;
                let at = SimTime::from_units(t);
                match store_g.deposit(&servers, id, at) {
                    Some(_) => deposited += 1,
                    None => undeliverable += 1,
                }
                let _ = store_p.deposit(&servers, id, at);
                next_deposit = rng.exp_duration(SimDuration::from_units(cfg.deposit_interval));
                t_dep += next_deposit.as_units();
            } else {
                t = t_chk;
                if t >= cfg.horizon {
                    break;
                }
                let at = SimTime::from_units(t);
                let out = state.get_mail(&servers, &mut store_g, at);
                getmail_polls.observe(f64::from(out.polls));
                retrieved += out.retrieved.len() as u64;
                let base = poll_all(&servers, &mut store_p, at);
                pollall_polls.observe(f64::from(base.polls));
                next_check = rng.exp_duration(SimDuration::from_units(cfg.check_interval));
                t_chk += next_check.as_units();
            }
        }
        // Drain after the horizon (all outages have ended by then).
        let drain1 = state.get_mail(
            &servers,
            &mut store_g,
            horizon + SimDuration::from_units(1.0),
        );
        let drain2 = state.get_mail(
            &servers,
            &mut store_g,
            horizon + SimDuration::from_units(2.0),
        );
        retrieved += (drain1.retrieved.len() + drain2.retrieved.len()) as u64;
        left_in_storage += store_g.in_storage() as u64;
    }

    GetMailRow {
        availability,
        getmail_polls: getmail_polls.mean(),
        pollall_polls: pollall_polls.mean(),
        deposited,
        retrieved,
        // Lost = deposited but neither retrieved nor still sitting in
        // storage after the final drain.
        lost: deposited.saturating_sub(retrieved + left_in_storage),
        undeliverable,
    }
}

/// Result of the full-stack cross-check (C1 through the actor pipeline).
#[derive(Clone, Copy, Debug)]
struct FullStackRow {
    /// Mean polls per retrieval measured end to end.
    polls_mean: f64,
    /// Messages submitted.
    submitted: u64,
    /// Messages retrieved.
    retrieved: u64,
    /// Messages bounced (sender notified — not lost).
    bounced: u64,
    /// Messages unaccounted for at drain time.
    outstanding: usize,
}

/// Runs the actor-based deployment on the Fig. 1 network with random
/// server outages and periodic checks; the deliverable is the same
/// polls/lost metrics as the analytic sweep, now including timeouts,
/// forwarding, and store-and-forward effects.
fn full_stack(availability: f64, seed: u64) -> FullStackRow {
    let f = fig1();
    let mut d = Deployment::build(
        &f.topology,
        &[2, 2, 2, 2, 2, 2],
        &DeploymentConfig {
            seed,
            ..DeploymentConfig::default()
        },
    );
    let names = d.user_names();
    let mut rng = SimRng::seed(seed).fork("full-stack");

    // Failures on all servers.
    if availability < 1.0 {
        let mttr = 20.0;
        let mtbf = mttr * availability / (1.0 - availability);
        let plan = ServerFailurePlan::random(
            &mut rng,
            &f.topology.servers(),
            SimDuration::from_units(mtbf),
            SimDuration::from_units(mttr),
            SimTime::from_units(1_000.0),
        );
        d.apply_server_failures(&plan);
    }

    // Workload: sends in the first 900 units, checks throughout, then a
    // final drain round of checks once everything is back up.
    let mut t = 1.0;
    while t < 900.0 {
        let from = rng.index(names.len());
        let mut to = rng.index(names.len());
        if to == from {
            to = (to + 1) % names.len();
        }
        d.send_at(
            SimTime::from_units(t),
            &names[from].clone(),
            &names[to].clone(),
        );
        t += rng.unit() * 8.0 + 1.0;
    }
    let mut t = 5.0;
    while t < 1_000.0 {
        for name in &names.clone() {
            d.check_at(SimTime::from_units(t + rng.unit()), name);
        }
        t += 40.0;
    }
    for (i, name) in names.clone().iter().enumerate() {
        d.check_at(SimTime::from_units(1_100.0 + i as f64), name);
        d.check_at(SimTime::from_units(1_200.0 + i as f64), name);
    }
    assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));

    let st = d.stats.borrow();
    FullStackRow {
        polls_mean: st.retrieval_polls.mean(),
        submitted: st.submitted,
        retrieved: st.retrieved,
        bounced: st.bounced,
        outstanding: st.outstanding(),
    }
}

/// C1 + C2: GetMail polls per retrieval vs the poll-every-server
/// baseline, across server availabilities, with the no-lost-mail ledger
/// (§3.1.2c, §5: "the number of polls per retrieval request is
/// approximately one under normal conditions" and "no messages will be
/// lost even when some servers fail").
pub(crate) fn report() -> Report {
    let cfg = GetMailSweepConfig::default();
    let mut report = Report::new(format!(
        "C1/C2 — GetMail vs poll-all ({} users x {} units per point, {}-server authority lists)",
        cfg.users, cfg.horizon, cfg.servers
    ));

    let availabilities = [1.0, 0.99, 0.95, 0.9, 0.8, 0.7];
    let rows = sweep(&availabilities, &cfg);

    let mut t = Table::new(vec![
        "availability",
        "getmail polls",
        "poll-all polls",
        "deposited",
        "retrieved",
        "lost",
        "bounced-at-send",
    ]);
    for r in &rows {
        t.row(vec![
            f3(r.availability),
            f3(r.getmail_polls),
            f3(r.pollall_polls),
            r.deposited.to_string(),
            r.retrieved.to_string(),
            r.lost.to_string(),
            r.undeliverable.to_string(),
        ]);
    }
    report.table(&t);
    report.note("shape checks:");
    report.note("  - polls -> 1 as availability -> 1 (paper: 'approximately one')");
    report.note("  - poll-all always pays the full list length");
    report.note("  - lost = 0 at every point (paper: 'no messages will be lost')");

    report.note("full-stack cross-check (actor pipeline, Fig. 1 network, 95% availability):");
    let fs = full_stack(0.95, 7);
    report.kv(&[
        ("polls/check".into(), format!("{:.3}", fs.polls_mean)),
        ("submitted".into(), fs.submitted.to_string()),
        ("retrieved".into(), fs.retrieved.to_string()),
        ("bounced".into(), fs.bounced.to_string()),
        ("unaccounted".into(), fs.outstanding.to_string()),
    ]);

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> GetMailSweepConfig {
        GetMailSweepConfig {
            users: 10,
            horizon: 500.0,
            ..GetMailSweepConfig::default()
        }
    }

    #[test]
    fn no_failures_means_one_poll_and_nothing_lost() {
        let rows = sweep(&[1.0], &quick_cfg());
        let r = rows[0];
        // First check per user walks the list; amortised mean stays near 1.
        assert!(r.getmail_polls < 1.2, "polls {}", r.getmail_polls);
        assert_eq!(r.pollall_polls, 3.0);
        assert_eq!(r.lost, 0);
        assert_eq!(r.undeliverable, 0);
    }

    #[test]
    fn failures_increase_polls_but_never_lose_mail() {
        let rows = sweep(&[0.99, 0.9, 0.7], &quick_cfg());
        for r in &rows {
            assert_eq!(r.lost, 0, "lost mail at availability {}", r.availability);
            assert!(r.getmail_polls < r.pollall_polls);
        }
        // Polls grow as availability drops.
        assert!(rows[0].getmail_polls <= rows[2].getmail_polls);
    }

    #[test]
    fn full_stack_accounts_for_every_message() {
        let r = full_stack(0.95, 7);
        assert!(r.submitted > 50);
        assert_eq!(
            r.outstanding, 0,
            "every message must be retrieved or bounced: {r:?}"
        );
        assert!(r.polls_mean >= 1.0);
    }
}
