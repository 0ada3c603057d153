//! System 2 as a running deployment (§3.2.2).
//!
//! §3.2 keeps System 1's names, servers, mailboxes and delivery and changes
//! two things, both of them data handed to `lems_syntax::actors`:
//!
//! * **who a name's server is** — the [`SubgroupMap`] hash of the name, so
//!   every authority list is that one server, while a host "always contacts
//!   the nearest active server" of its region to submit;
//! * **where the alert goes** — the region's servers are each other's
//!   tracking peers, so a login reported to one is known to all and the
//!   depositing server alerts the user's *current* host, consulting its
//!   peers only when it holds no location (the §3.2.2c overhead that "is
//!   only incurred if a user moves").
//!
//! Custody, acks, retransmission, fail-over, dedup, GetMail, durable
//! stores, spans and crash recovery are System 1's, unchanged.

use std::collections::BTreeMap;

use lems_core::user::AuthorityList;
use lems_net::graph::NodeId;
use lems_net::topology::{RegionId, Topology};
use lems_syntax::actors::{Deployment, DeploymentConfig, Placement};
use lems_syntax::assign::{Assignment, AssignmentProblem};

use crate::subgroup::SubgroupMap;

/// Wires a System-2 deployment over `topology` with `users_per_host[i]`
/// users on the i-th host: every region is hashed into `groups` sub-groups
/// over its own servers. `cfg.authority_list_len` and `cfg.balance` belong
/// to the §3.1.1 solver and are not read.
///
/// # Panics
///
/// Panics under the conditions of [`AssignmentProblem::from_topology`], if
/// `groups` is zero, or if a region has hosts but no server.
pub fn roaming_deployment(
    topology: &Topology,
    users_per_host: &[u32],
    groups: usize,
    cfg: &DeploymentConfig,
) -> Deployment {
    let problem =
        AssignmentProblem::from_topology(topology, users_per_host, cfg.server_spec, cfg.cost_model);
    let servers: Vec<NodeId> = problem.servers.iter().map(|(n, _)| *n).collect();
    let index: BTreeMap<NodeId, usize> = servers.iter().zip(0..).map(|(&s, j)| (s, j)).collect();
    let in_region = |r: RegionId| servers.iter().filter(move |&&s| topology.region(s) == r);
    let peers = servers
        .iter()
        .map(|&s| {
            let others = in_region(topology.region(s)).filter(|&&p| p != s);
            others.copied().collect()
        })
        .collect();

    let mut maps: BTreeMap<RegionId, SubgroupMap> = BTreeMap::new();
    let mut assignment = Assignment::empty(&problem);
    let mut authorities = Vec::new();
    let mut contact = Vec::new();
    for (i, host) in problem.hosts.iter().enumerate() {
        let region = topology.region(host.node);
        let map = maps
            .entry(region)
            .or_insert_with(|| SubgroupMap::new(groups, in_region(region).copied().collect()));
        let mut nearest: Vec<NodeId> = map.servers().to_vec();
        let cost = |s: &NodeId| problem.comm.cost(i, index[s]);
        nearest.sort_by(|a, b| cost(a).total_cmp(&cost(b)).then(a.cmp(b)));
        contact.push(nearest);
        let lists = (0..host.users as usize).map(|k| {
            let server = map.server_of(&Deployment::user_name(topology, host.node, k));
            assignment.place(i, index[&server], 1);
            AuthorityList::new(vec![server])
        });
        authorities.push(lists.collect());
    }
    let placement = Placement {
        problem,
        assignment,
        authorities,
        contact,
        peers,
    };
    Deployment::wire(topology, placement, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lems_core::name::MailName;
    use lems_net::generators::{multi_region, MultiRegionConfig};
    use lems_sim::linkfault::{LinkFaultPlan, LinkProfile};
    use lems_sim::rng::SimRng;
    use lems_sim::time::{SimDuration, SimTime};

    /// Every test scenario quiesces far below this; exhausting it means
    /// a stuck retry loop, which must fail the test rather than hang it.
    const EVENT_BUDGET: u64 = 2_000_000;

    fn world() -> Topology {
        let mut rng = SimRng::seed(8);
        multi_region(
            &mut rng,
            &MultiRegionConfig {
                regions: 1,
                hosts_per_region: 4,
                servers_per_region: 3,
                ..MultiRegionConfig::default()
            },
        )
    }

    fn build(topo: &Topology, users_per_host: &[u32], seed: u64) -> Deployment {
        let cfg = DeploymentConfig {
            seed,
            ..DeploymentConfig::default()
        };
        roaming_deployment(topo, users_per_host, 16, &cfg)
    }

    fn home(d: &Deployment, user: &MailName) -> NodeId {
        d.directory.by_name(user).unwrap().home_host
    }

    fn t(u: f64) -> SimTime {
        SimTime::from_units(u)
    }

    #[test]
    fn mail_to_stationary_user_notifies_primary_without_consults() {
        let topo = world();
        let mut d = build(&topo, &[1, 1, 1, 1], 1);
        let users = d.user_names();
        let (alice, bob) = (users[0].clone(), users[1].clone());
        let bob_home = home(&d, &bob);

        // Both log in at their primary hosts.
        d.login_at(t(1.0), &alice, home(&d, &alice));
        d.login_at(t(1.0), &bob, bob_home);
        d.send_at(t(20.0), &alice, &bob);
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));

        let st = d.stats.borrow();
        assert_eq!(st.submitted, 1);
        assert_eq!(st.deposited, 1);
        assert_eq!(st.notifications, 1);
        assert_eq!(st.notified_at_primary, 1);
        assert_eq!(st.consults, 0, "no lookup overhead when nobody moves");
        drop(st);
        assert_eq!(d.alerts_at(bob_home, &bob), 1);
    }

    #[test]
    fn roaming_user_is_notified_at_current_host() {
        let topo = world();
        let mut d = build(&topo, &[1, 1, 1, 1], 2);
        let users = d.user_names();
        let (alice, bob) = (users[0].clone(), users[2].clone());
        let bob_home = home(&d, &bob);
        let away = *topo.hosts().iter().find(|&&h| h != bob_home).unwrap();

        // Bob roams to a different host before the mail arrives.
        d.login_at(t(1.0), &bob, away);
        d.send_at(t(30.0), &alice, &bob);
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));

        assert_eq!(d.alerts_at(away, &bob), 1, "alert must follow bob");
        assert_eq!(d.alerts_at(bob_home, &bob), 0);
        let st = d.stats.borrow();
        assert_eq!(st.notifications, 1);
        assert_eq!(st.unknown_location, 0);
    }

    #[test]
    fn never_logged_in_user_defaults_to_primary() {
        let topo = world();
        let mut d = build(&topo, &[1, 1, 1, 1], 3);
        let users = d.user_names();
        let (alice, bob) = (users[0].clone(), users[3].clone());
        let bob_home = home(&d, &bob);

        d.send_at(t(5.0), &alice, &bob);
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));

        // Bob never logged in: after the peers come up empty, the alert
        // goes to the primary host derived from his name.
        assert_eq!(d.alerts_at(bob_home, &bob), 1);
        let st = d.stats.borrow();
        assert_eq!(st.notified_at_primary, 1);
        assert_eq!(st.unknown_location, 0);
        assert_eq!(
            d.mail_in_storage(),
            1,
            "mail is stored at the sub-group server"
        );
    }

    #[test]
    fn relogin_moves_the_alert_target() {
        let topo = world();
        let mut d = build(&topo, &[1, 1, 1, 1], 4);
        let users = d.user_names();
        let (alice, bob) = (users[0].clone(), users[1].clone());
        let bob_home = home(&d, &bob);
        let away = *topo.hosts().iter().find(|&&h| h != bob_home).unwrap();

        d.login_at(t(1.0), &bob, away);
        d.send_at(t(30.0), &alice, &bob);
        // Bob goes home; a second message follows him there.
        d.login_at(t(60.0), &bob, bob_home);
        d.send_at(t(90.0), &alice, &bob);
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));

        assert_eq!(d.alerts_at(away, &bob), 1);
        assert_eq!(d.alerts_at(bob_home, &bob), 1);
    }

    #[test]
    fn cooperative_tracking_broadcasts_locations() {
        let topo = world();
        let mut d = build(&topo, &[2, 2, 2, 2], 5);
        let users = d.user_names();
        // Everyone logs in somewhere; all servers must end up agreeing.
        let hosts = topo.hosts();
        for (i, u) in users.iter().enumerate() {
            d.login_at(t(1.0 + i as f64), u, hosts[i % hosts.len()]);
        }
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
        // Mail to every user notifies without any WhereIs consults,
        // because LocationUpdates already spread the knowledge.
        let sender = users[0].clone();
        for (i, u) in users.iter().enumerate().skip(1) {
            d.send_at(t(100.0 + i as f64), &sender, u);
        }
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
        let st = d.stats.borrow();
        assert_eq!(st.consults, 0, "cooperative updates make lookups free");
        assert_eq!(st.notifications, users.len() as u64 - 1);
    }

    /// Everyone logs in at home, then the first user mails the others.
    fn home_logins_then_mail(d: &mut Deployment) {
        let users = d.user_names();
        for u in &users {
            d.login_at(t(1.0), u, home(d, u));
        }
        for (i, u) in users.iter().enumerate().skip(1) {
            d.send_at(t(20.0 + i as f64 * 5.0), &users[0], u);
        }
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
    }

    #[test]
    fn lossy_wire_mail_still_reaches_storage() {
        let topo = world();
        let mut d = build(&topo, &[1, 1, 1, 1], 6);
        let plan = LinkFaultPlan::new()
            .with_default_profile(
                LinkProfile::new(0.25, 0.0, SimDuration::from_units(0.5)).unwrap(),
            )
            .with_stochastic_horizon(t(300.0));
        d.sim.set_link_faults(plan);
        home_logins_then_mail(&mut d);

        let st = d.stats.borrow();
        assert_eq!(st.submitted, 3);
        assert_eq!(st.deposited, 3, "session layer must mask 25% loss");
        assert_eq!(st.bounced, 0);
        assert!(
            st.retransmits > 0,
            "a 25% lossy wire must force at least one retransmission"
        );
        drop(st);
        assert_eq!(d.mail_in_storage(), 3);
    }

    #[test]
    fn wire_duplicates_store_once() {
        let topo = world();
        let mut d = build(&topo, &[1, 1, 1, 1], 7);
        let plan = LinkFaultPlan::new()
            .with_default_profile(LinkProfile::new(0.0, 1.0, SimDuration::ZERO).unwrap())
            .with_stochastic_horizon(t(200.0));
        d.sim.set_link_faults(plan);

        let users = d.user_names();
        let (alice, bob) = (users[0].clone(), users[1].clone());
        d.login_at(t(1.0), &bob, home(&d, &bob));
        d.send_at(t(10.0), &alice, &bob);
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));

        let st = d.stats.borrow();
        assert_eq!(st.submitted, 1);
        assert_eq!(st.deposited, 1, "duplicated hops must dedup");
        drop(st);
        assert_eq!(d.mail_in_storage(), 1);
        assert!(d.sim.counters().duplicated.get() > 0);
    }

    /// `recipient` logs in at two non-home hosts, `first_login` then `gap`
    /// later, while mail sent at `send` races the logins; true if mail
    /// sent 500 units after the last login is alerted anywhere but at the
    /// host of that login.
    fn late_mail_misdirected(recipient: usize, first_login: f64, gap: f64, send: f64) -> bool {
        let topo = world();
        let mut d = build(&topo, &[1, 1, 1, 1], 1);
        let users = d.user_names();
        let (to, from) = (&users[recipient], &users[(recipient + 1) % users.len()]);
        let away: Vec<NodeId> = topo
            .hosts()
            .into_iter()
            .filter(|&h| h != home(&d, to))
            .collect();
        let last_login = first_login + gap;
        d.login_at(t(first_login), to, away[0]);
        d.login_at(t(last_login), to, away[1]);
        d.send_at(t(send), from, to);
        d.sim.run_until(t(last_login + 499.0));
        let before = d.alerts_at(away[1], to);
        d.send_at(t(last_login + 500.0), from, to);
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
        assert_eq!(d.stats.borrow().notifications, 2);
        d.alerts_at(away[1], to) != before + 1
    }

    /// A `LocationReply` carries the login time its sender holds. Stamped
    /// with its arrival time instead, a stale answer overwrote the newer
    /// `LocationUpdate` that had overtaken it, for good: at the first point
    /// below both alerts went to the host the user had left.
    #[test]
    fn stale_location_reply_does_not_outlive_a_newer_login() {
        assert!(!late_mail_misdirected(0, 1.5, 2.0, 1.0));
        let half_units = |n: u32| (1..=n).map(|k| f64::from(k) * 0.5);
        let mut misdirected = 0;
        for recipient in 0..4 {
            for first_login in half_units(12) {
                for gap in half_units(11) {
                    for send in half_units(12) {
                        let miss = late_mail_misdirected(recipient, first_login, gap, send);
                        misdirected += u32::from(miss);
                    }
                }
            }
        }
        assert_eq!(misdirected, 0, "of {} schedules", 4 * 12 * 11 * 12);
    }

    /// Per-actor registries, merged region-wide, must agree with the
    /// shared stats ledger — even under a lossy wire that forces
    /// session-layer retransmissions.
    #[test]
    fn merged_metrics_agree_with_shared_stats() {
        let topo = world();
        let mut d = build(&topo, &[1, 1, 1, 1], 9);
        let plan = LinkFaultPlan::new()
            .with_default_profile(LinkProfile::new(0.2, 0.0, SimDuration::from_units(0.5)).unwrap())
            .with_stochastic_horizon(t(300.0));
        d.sim.set_link_faults(plan);
        home_logins_then_mail(&mut d);

        let merged = d.merged_metrics();
        let st = d.stats.borrow();
        assert_eq!(merged.counter("submitted"), st.submitted);
        assert_eq!(merged.counter("deposited"), st.deposited);
        assert_eq!(merged.counter("notifications"), st.notifications);
        assert_eq!(
            merged.counter("notified_at_primary"),
            st.notified_at_primary
        );
        assert_eq!(merged.counter("consults"), st.consults);
        assert_eq!(merged.counter("retransmits"), st.retransmits);
        assert_eq!(merged.counter("bounced"), st.bounced);
        let lat = merged
            .histogram("delivery_latency")
            .expect("latency recorded");
        assert_eq!(lat.count(), st.deposited);
        // Storage gauges stay per-server: merging must not invent one.
        assert!(merged.gauge("storage").is_none());
        assert!(d
            .metrics_snapshot()
            .iter()
            .any(|(scope, m)| scope.starts_with("server:") && m.gauge("storage").is_some()));
    }
}
