//! Experiment C5: the System-2 overhead story — "overhead is only
//! incurred if a user moves to other locations other than his primary
//! location" (§3.2.2c), and the remote-access / redirect / rename
//! trade-off for cross-region migration (§3.2.4).

use lems_locindep::delivery::{
    delivery_cost, rename_breakeven, CostParams, CrossRegionPolicy, DeliveryCost, UserLocation,
};
use lems_locindep::tracking::RegionTracker;
use lems_net::shortest_path::DistanceTable;
use lems_net::topology::RegionId;
use lems_sim::metrics::LogHistogram;
use lems_sim::rng::SimRng;

use crate::mst_exp::distinct_world;
use crate::render::{f1, f3, Report, Table};

/// Generous per-run event budget: a non-quiescing run is a livelocked
/// retry loop and aborts the experiment rather than hanging it.
const EVENT_BUDGET: u64 = 20_000_000;

/// One row of the mobility sweep.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MobilityRow {
    /// Fraction of recipients away from their primary host.
    moved_fraction: f64,
    /// Mean delivery cost (units) across sampled deliveries.
    pub(crate) mean_cost: f64,
    /// Mean consultations per delivery.
    mean_consults: f64,
}

/// Sweeps the fraction of roaming users on a two-region world: deliveries
/// to stationary users must cost the same regardless of the sweep, and
/// the marginal cost comes only from roamers.
pub(crate) fn mobility_sweep(fractions: &[f64], seed: u64) -> Vec<MobilityRow> {
    let t = distinct_world(seed, 2, 3, 6);
    let dist = t.distances();
    let region = RegionId(0);
    let servers = t.servers_in(region);
    let hosts = t.hosts_in(region);
    let mut rng = SimRng::seed(seed).fork("mobility");
    let params = CostParams::default();

    fractions
        .iter()
        .map(|&frac| {
            let mut tracker = RegionTracker::new(servers.clone());
            let mut total_cost = 0.0;
            let mut total_consults = 0.0;
            let samples = 400;
            for i in 0..samples {
                let sender_server = *rng.pick(&servers);
                let authority = *rng.pick(&servers);
                let primary = *rng.pick(&hosts);
                let user: lems_core::name::MailName = format!("r0.{}.user{i}", t.name(primary))
                    .parse()
                    .expect("valid");

                let location = if rng.chance(frac) {
                    // Roamer: logs in from a random other host through the
                    // server nearest to it; the authority must locate them.
                    let current = *rng.pick(&hosts);
                    let via = *rng.pick(&servers);
                    tracker.login(&user, current, via);
                    let found = tracker.locate(&user, authority);
                    UserLocation::WithinRegion {
                        current_host: found.host.unwrap_or(current),
                        consults: found.consults,
                    }
                } else {
                    UserLocation::Primary
                };
                let c: DeliveryCost = delivery_cost(
                    &dist,
                    sender_server,
                    authority,
                    primary,
                    &servers,
                    location,
                    CrossRegionPolicy::Redirect,
                    &params,
                );
                total_cost += c.total();
                total_consults += c.consult_units;
            }
            MobilityRow {
                moved_fraction: frac,
                mean_cost: total_cost / samples as f64,
                mean_consults: total_consults / samples as f64,
            }
        })
        .collect()
}

/// Cross-region policy comparison on one representative migrant.
#[derive(Clone, Copy, Debug)]
struct PolicyRow {
    /// Per-message cost under remote access.
    remote_access: f64,
    /// Per-message cost under redirection.
    redirect: f64,
    /// Per-message cost after renaming.
    rename: f64,
    /// Messages after which renaming beats redirecting (None = never).
    breakeven_messages: Option<u64>,
}

/// Computes the §3.2.4 policy comparison on a two-region world.
fn policy_comparison(seed: u64) -> PolicyRow {
    let t = distinct_world(seed, 2, 3, 4);
    let dist: DistanceTable = t.distances();
    let params = CostParams::default();

    let old_servers = t.servers_in(RegionId(0));
    let new_servers = t.servers_in(RegionId(1));
    let sender_server = old_servers[0];
    let authority = old_servers[1 % old_servers.len()];
    let primary = t.hosts_in(RegionId(0))[0];
    let new_server = new_servers[0];
    let new_host = t.hosts_in(RegionId(1))[0];

    let loc = UserLocation::CrossRegion {
        current_host: new_host,
        new_region_server: new_server,
    };
    let cost_for = |policy| {
        delivery_cost(
            &dist,
            sender_server,
            authority,
            primary,
            &old_servers,
            loc,
            policy,
            &params,
        )
        .total()
    };
    let remote_access = cost_for(CrossRegionPolicy::RemoteAccess);
    let redirect = cost_for(CrossRegionPolicy::Redirect);
    let rename = cost_for(CrossRegionPolicy::Rename);
    PolicyRow {
        remote_access,
        redirect,
        rename,
        breakeven_messages: rename_breakeven(redirect, rename, &params),
    }
}

/// Reconfiguration comparison (System 1 vs System 2): System 1 reassigns
/// user records when a server is added; System 2 just rehashes sub-groups
/// and moves only the remapped groups' records.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ReconfigComparisonRow {
    /// Fraction of the name space System 2 moves on a server addition.
    pub(crate) rehash_moved_fraction: f64,
    /// Fraction of users System 1 moves on the same addition (from the
    /// C6c experiment's assignment delta).
    assignment_moved_fraction: f64,
}

/// Runs the reconfiguration comparison.
pub(crate) fn reconfig_comparison() -> ReconfigComparisonRow {
    // System 2 side: 64 sub-groups over 3 servers -> add a 4th.
    let mut map = lems_locindep::subgroup::SubgroupMap::new(
        64,
        vec![
            lems_net::graph::NodeId(0),
            lems_net::graph::NodeId(1),
            lems_net::graph::NodeId(2),
        ],
    );
    let report = map.rehash(vec![
        lems_net::graph::NodeId(0),
        lems_net::graph::NodeId(1),
        lems_net::graph::NodeId(2),
        lems_net::graph::NodeId(3),
    ]);

    // System 1 side: the C6c add-server experiment.
    let r = crate::assign_exp::add_server_reconvergence();
    let total_users = 270.0;
    ReconfigComparisonRow {
        rehash_moved_fraction: report.moved_fraction(),
        assignment_moved_fraction: r.moved_users as f64 / total_users,
    }
}

/// One row of the *actor-measured* mobility sweep: the same question as
/// [`mobility_sweep`], answered by the running System-2 protocol
/// (`lems_locindep::roaming_deployment`) instead of the analytic cost model.
#[derive(Clone, Copy, Debug)]
struct ActorMobilityRow {
    /// Fraction of recipients who roamed before their mail arrived.
    moved_fraction: f64,
    /// `WhereIs` consultations per stored message.
    consults_per_message: f64,
    /// Notifications that reached a non-primary host.
    roaming_notifications: u64,
    /// Mean submission-to-deposit latency (units); the alert leaves the
    /// depositing server at that instant unless it has to consult peers.
    notify_latency: f64,
}

/// Runs the actor-based System-2 protocol at each mobility point.
///
/// Every user logs in at their primary host by t ≈ 2; at t = 50 the given
/// fraction of them log in again at a random other host, all by t = 51;
/// from t = 101 the first user mails each of the others. Every login thus
/// precedes the mail, and login reports propagate cooperatively
/// (`LocationUpdate` broadcasts), so the depositing server already holds
/// each recipient's current host: alerts follow roamers off their primary
/// host without a peer consultation. The sweep does not reach the §3.2.2c
/// "server has to consult with other local servers" path: `repro locindep`
/// reads 0.000 consults per message at each of its three points.
fn actor_mobility_sweep(fractions: &[f64], seed: u64) -> Vec<ActorMobilityRow> {
    use lems_sim::time::SimTime;
    use lems_syntax::DeploymentConfig;

    fractions
        .iter()
        .map(|&frac| {
            let mut rng = SimRng::seed(seed).fork(&format!("actor-mob{frac}"));
            let topo = distinct_world(seed, 1, 3, 6);
            let cfg = DeploymentConfig {
                seed,
                ..DeploymentConfig::default()
            };
            let mut d = lems_locindep::roaming_deployment(&topo, &[2; 6], 32, &cfg);
            let users = d.user_names();
            let hosts = topo.hosts();
            let homes: Vec<_> = users
                .iter()
                .map(|u| d.directory.by_name(u).expect("registered").home_host)
                .collect();

            // Everyone starts logged in at their primary host.
            for (i, (u, &home)) in users.iter().zip(&homes).enumerate() {
                d.login_at(SimTime::from_units(1.0 + i as f64 * 0.1), u, home);
            }
            // A fraction roams to a random other host at t=50.
            for (u, &home) in users.iter().zip(&homes) {
                if rng.chance(frac) {
                    let away = *hosts
                        .iter()
                        .filter(|&&h| h != home)
                        .nth(rng.index(hosts.len() - 1))
                        .expect("other host");
                    d.login_at(SimTime::from_units(50.0 + rng.unit()), u, away);
                }
            }
            // Mail to everyone at t=100 (locations settled).
            let sender = users[0].clone();
            for (i, u) in users.iter().enumerate().skip(1) {
                d.send_at(SimTime::from_units(100.0 + i as f64), &sender, u);
            }
            assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));

            let merged = d.merged_metrics();
            let st = d.stats.borrow();
            ActorMobilityRow {
                moved_fraction: frac,
                consults_per_message: st.consults as f64 / st.deposited.max(1) as f64,
                roaming_notifications: st.notifications - st.notified_at_primary,
                notify_latency: merged
                    .histogram("delivery_latency")
                    .map_or(0.0, LogHistogram::mean),
            }
        })
        .collect()
}

/// C5: System 2's overhead profile — free until users move (§3.2.2c),
/// the remote-access / redirect / rename trade-off for cross-region moves
/// (§3.2.4), and the rehash-vs-reassign reconfiguration comparison
/// (§3.2.3c).
pub(crate) fn report() -> Report {
    let mut report = Report::new("C5 — location-independent access overheads");

    report.note("mobility sweep (two-region world, 400 sampled deliveries per point):");
    let rows = mobility_sweep(&[0.0, 0.1, 0.25, 0.5, 0.75, 1.0], 1);
    let mut t = Table::new(vec![
        "moved fraction",
        "mean cost (u)",
        "mean consult cost (u)",
    ]);
    for r in &rows {
        t.row(vec![
            f3(r.moved_fraction),
            f3(r.mean_cost),
            f3(r.mean_consults),
        ]);
    }
    report.table(&t);
    report.note(
        "shape check: consult cost is 0 at fraction 0 ('overhead is only\n\
         incurred if a user moves') and grows with mobility.",
    );

    report.note("cross-region policies for one migrant (per-message cost):");
    let p = policy_comparison(2);
    report.kv(&[
        ("remote access (u)".into(), f1(p.remote_access)),
        ("redirect (u)".into(), f1(p.redirect)),
        ("rename (u)".into(), f1(p.rename)),
    ]);
    match p.breakeven_messages {
        Some(n) => report.note(format!(
            "renaming pays for itself after {n} redirected message(s)\n\
             (paper: 'obtaining a new name … may place less overhead on the system')"
        )),
        None => report.note("redirecting never costs more here — no break-even"),
    }

    report.note("actor-measured sweep (running System-2 protocol, cooperative tracking):");
    let rows = actor_mobility_sweep(&[0.0, 0.5, 1.0], 3);
    let mut t2 = Table::new(vec![
        "moved fraction",
        "consults/message",
        "roaming notifications",
        "notify latency (u)",
    ]);
    for r in &rows {
        t2.row(vec![
            f3(r.moved_fraction),
            f3(r.consults_per_message),
            r.roaming_notifications.to_string(),
            f3(r.notify_latency),
        ]);
    }
    report.table(&t2);
    report.note(
        "shape check: cooperative LocationUpdate broadcasts keep consults near\n\
         zero even under mobility; alerts follow the user off their primary host.",
    );

    report.note("reconfiguration on adding a server:");
    let r = reconfig_comparison();
    report.note(format!(
        "  System 2 rehash moves {:.1}% of the name space (rendezvous hashing)",
        100.0 * r.rehash_moved_fraction
    ));
    report.note(format!(
        "  System 1 reassignment moves {:.1}% of the users (assignment algorithm)",
        100.0 * r.assignment_moved_fraction
    ));
    report.note("  (paper: System 2's 'reconfiguration can be done easily without much overhead')");

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actor_sweep_consults_only_for_roamers() {
        let rows = actor_mobility_sweep(&[0.0, 1.0], 3);
        assert_eq!(rows[0].roaming_notifications, 0);
        // With full mobility, some notifications reach non-primary hosts.
        assert!(rows[1].roaming_notifications > 0);
        // Cooperative LocationUpdates keep consults rare even then.
        assert!(rows[1].consults_per_message < 1.0);
        assert!(rows[1].notify_latency > 0.0);
    }

    #[test]
    fn stationary_users_cost_nothing_extra() {
        let rows = mobility_sweep(&[0.0, 0.5, 1.0], 1);
        assert_eq!(rows[0].mean_consults, 0.0);
        // Cost grows with mobility.
        assert!(rows[2].mean_cost >= rows[0].mean_cost);
        assert!(rows[2].mean_consults > rows[0].mean_consults);
    }

    #[test]
    fn policy_ranking_matches_the_paper() {
        let p = policy_comparison(2);
        assert!(
            p.remote_access > p.redirect,
            "remote access must be the slow option: {p:?}"
        );
        assert!(p.rename <= p.redirect);
    }

    #[test]
    fn rehash_moves_less_than_reassignment() {
        let r = reconfig_comparison();
        assert!(r.rehash_moved_fraction > 0.0);
        assert!(r.rehash_moved_fraction < 0.5);
    }
}
