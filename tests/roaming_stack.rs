//! Integration: the running System-2 protocol driven by the core mobility
//! generator — alerts always follow the user's latest login, and the
//! cooperative tracking keeps consult overhead sub-linear — and what it
//! inherits from the System-1 mail path: GetMail from any host, durable
//! stores, crash recovery, spans.

use lems::core::workload::{generate_mobility, MobilityConfig};
use lems::core::{MailName, UserId};
use lems::locindep::roaming_deployment;
use lems::net::generators::{multi_region, MultiRegionConfig};
use lems::net::{NodeId, Topology};
use lems::sim::rng::SimRng;
use lems::sim::span::audit_spans;
use lems::sim::time::{SimDuration, SimTime};
use lems::store::{DurabilityConfig, WalConfig};
use lems::syntax::{Deployment, DeploymentConfig, MailMsg, ServerFailurePlan};

/// Every scenario here quiesces far below this; exhausting it means a
/// stuck retry loop, which must fail the test rather than hang it.
const EVENT_BUDGET: u64 = 2_000_000;

fn t(u: f64) -> SimTime {
    SimTime::from_units(u)
}

/// One region, five hosts with two users each, three sub-group servers.
fn roaming_world(
    rng: &mut SimRng,
    seed: u64,
    durability: DurabilityConfig,
) -> (Topology, Deployment) {
    let topo = multi_region(
        rng,
        &MultiRegionConfig {
            regions: 1,
            hosts_per_region: 5,
            servers_per_region: 3,
            ..MultiRegionConfig::default()
        },
    );
    let cfg = DeploymentConfig {
        seed,
        durability,
        ..DeploymentConfig::default()
    };
    let d = roaming_deployment(&topo, &[2; 5], 32, &cfg);
    (topo, d)
}

fn home(d: &Deployment, user: &MailName) -> NodeId {
    d.directory.by_name(user).expect("registered").home_host
}

#[test]
fn generated_mobility_delivers_alerts_to_latest_location() {
    let mut rng = SimRng::seed(21);
    let (topo, mut d) = roaming_world(&mut rng, 21, DurabilityConfig::Ideal);
    let users = d.user_names();
    let hosts = topo.hosts();

    // Mobility: every user starts home and roams a few times.
    let ids: Vec<UserId> = (0..users.len()).map(UserId).collect();
    let schedule = generate_mobility(
        &mut rng,
        &ids,
        hosts.len(),
        &MobilityConfig {
            mean_move_interval: SimDuration::from_units(150.0),
            homing_bias: 0.3,
            horizon: SimTime::from_units(500.0),
        },
    );
    let mut last_host = vec![0usize; users.len()];
    for &(at, user, host_idx) in &schedule.logins {
        // Host index 0 = the user's own primary host; others map to the
        // region's host list.
        let target = if host_idx == 0 {
            home(&d, &users[user.0])
        } else {
            hosts[host_idx]
        };
        d.login_at(at + SimDuration::from_units(0.001), &users[user.0], target);
        last_host[user.0] = host_idx;
    }

    // After all movement settles, mail everyone.
    let sender = users[0].clone();
    for (i, u) in users.iter().enumerate().skip(1) {
        d.send_at(SimTime::from_units(600.0 + i as f64), &sender, u);
    }
    assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));

    // Every recipient got exactly one alert, at their last login host.
    for (i, u) in users.iter().enumerate().skip(1) {
        let expected_host = if last_host[i] == 0 {
            home(&d, u)
        } else {
            hosts[last_host[i]]
        };
        assert_eq!(
            d.alerts_at(expected_host, u),
            1,
            "alert for {u} must land at their latest login host"
        );
    }

    let st = d.stats.borrow();
    assert_eq!(st.notifications as usize, users.len() - 1);
    assert_eq!(st.unknown_location, 0);
    // Cooperative updates mean location lookups almost never fan out.
    assert!(st.consults as usize <= users.len());
}

/// "Any host in the region may be used": a user who logged in away from
/// home fetches their mail through that host, from the one server their
/// name hashes to.
#[test]
fn login_elsewhere_then_getmail_polls_one_server() {
    let (topo, mut d) = roaming_world(&mut SimRng::seed(23), 23, DurabilityConfig::Ideal);
    d.enable_spans();
    let users = d.user_names();
    let (alice, bob) = (users[0].clone(), users[5].clone());
    let bob_home = home(&d, &bob);
    let away = *topo.hosts().iter().find(|&&h| h != bob_home).unwrap();

    d.login_at(t(1.0), &bob, away);
    d.send_at(t(30.0), &alice, &bob);
    // The visited host keeps bob in a slot only it knows: inject by name.
    let check = MailMsg::DoCheck {
        user: bob.clone(),
        slot: MailMsg::NO_SLOT_HINT,
    };
    d.sim.inject(
        d.host_actor(away).unwrap(),
        check,
        SimDuration::from_units(80.0),
    );
    assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));

    assert_eq!(d.alerts_at(away, &bob), 1);
    assert_eq!(d.alerts_at(bob_home, &bob), 0);
    let st = d.stats.borrow();
    assert_eq!(st.retrieved, 1, "fetched through the visited host");
    assert_eq!(st.retrieval_polls.count(), 1);
    assert_eq!(
        st.retrieval_polls.mean(),
        1.0,
        "GetMail is one hashed server"
    );
    assert_eq!(st.ledger_retrieved, st.ledger_submitted);
    assert_eq!(st.outstanding(), 0);
    drop(st);
    assert_eq!(d.mail_in_storage(), 0);
    let report = audit_spans(&d.spans.borrow(), true);
    assert!(report.is_clean(), "violations: {:?}", report.violations);
    assert_eq!((report.retrieved, report.checks_done), (1, 1));
}

/// A sub-group has one server, so its crash is the worst case System 2
/// has: mail deposited before it must come back from the WAL, mail sent
/// during it must wait in its senders' custody, and nothing acked is lost.
#[test]
fn subgroup_server_crash_on_wal_loses_nothing() {
    let wal = DurabilityConfig::Wal(WalConfig::default());
    let (_, mut d) = roaming_world(&mut SimRng::seed(24), 24, wal);
    let users = d.user_names();
    let server = d.responsible_server(&users[1]).unwrap();
    let served: Vec<&MailName> = users
        .iter()
        .filter(|u| d.responsible_server(u) == Some(server))
        .collect();
    assert!(served.len() >= 2, "the sub-group server serves {served:?}");

    let mut plan = ServerFailurePlan::new();
    plan.add(server, t(50.0), t(80.0));
    d.apply_server_failures(&plan);
    // One burst deposited before the crash, one sent into the outage.
    for (i, to) in served.iter().enumerate() {
        d.send_at(t(5.0 + i as f64), &users[0], to);
        d.send_at(t(52.0 + i as f64), &users[0], to);
    }
    for wave in [300.0, 400.0] {
        for (i, u) in served.iter().enumerate() {
            d.check_at(t(wave + i as f64), u);
        }
    }
    assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));

    let recoveries = d.recoveries.borrow();
    assert_eq!(recoveries.len(), 1, "one crash, one recovery");
    assert_eq!(recoveries[0].report.recovered_messages, served.len() as u64);
    assert_eq!(recoveries[0].report.lost_messages, 0);
    let st = d.stats.borrow();
    assert_eq!(st.submitted, 2 * served.len() as u64);
    assert!(st.retransmits > 0, "the outage must have been felt");
    assert_eq!(st.bounced, 0);
    assert_eq!(st.ledger_retrieved, st.ledger_submitted);
    drop(st);
    assert_eq!(d.mail_in_storage(), 0);
}

#[test]
fn scale_smoke_eight_regions() {
    // A moderately large world exercised end to end through System 1:
    // 8 regions, 48 hosts, 96 users, cross-region traffic.
    let mut rng = SimRng::seed(22);
    let topo = multi_region(
        &mut rng,
        &MultiRegionConfig {
            regions: 8,
            hosts_per_region: 6,
            servers_per_region: 3,
            ..MultiRegionConfig::default()
        },
    );
    let users = vec![2u32; topo.hosts().len()];
    let mut d = Deployment::build(&topo, &users, &DeploymentConfig::default());
    let names = d.user_names();
    assert_eq!(names.len(), 96);

    for i in 0..names.len() {
        let to = (i + 29) % names.len(); // mostly cross-region hops
        d.send_at(SimTime::from_units(1.0 + i as f64), &names[i], &names[to]);
    }
    for (i, n) in names.iter().enumerate() {
        d.check_at(SimTime::from_units(500.0 + i as f64), n);
    }
    assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));

    let st = d.stats.borrow();
    assert_eq!(st.submitted, 96);
    assert_eq!(st.outstanding(), 0, "all 96 messages accounted for");
    assert_eq!(st.retrieved, 96);
}
