//! Integration: a multi-region System-1 deployment driven by the
//! lems-core workload generator, with failures, verified by the message
//! ledger (every submitted message is retrieved or bounced — none lost).

use lems::core::workload::{generate, WorkloadConfig, WorkloadEvent};
use lems::core::UserId;
use lems::net::generators::{multi_region, MultiRegionConfig};
use lems::sim::rng::SimRng;
use lems::sim::time::{SimDuration, SimTime};
use lems::syntax::actors::MAX_TIMEOUT;
use lems::syntax::{Deployment, DeploymentConfig, ServerFailurePlan};

/// Every scenario here quiesces far below this; exhausting it means a
/// stuck retry loop, which must fail the test rather than hang it.
const EVENT_BUDGET: u64 = 2_000_000;

fn build_world(seed: u64) -> Deployment {
    let mut rng = SimRng::seed(seed);
    let topo = multi_region(
        &mut rng,
        &MultiRegionConfig {
            regions: 3,
            hosts_per_region: 3,
            servers_per_region: 2,
            ..MultiRegionConfig::default()
        },
    );
    let users: Vec<u32> = vec![2; topo.hosts().len()];
    Deployment::build(
        &topo,
        &users,
        &DeploymentConfig {
            seed,
            ..DeploymentConfig::default()
        },
    )
}

#[test]
fn cross_region_mail_is_delivered() {
    let mut d = build_world(1);
    let names = d.user_names();
    // Find a pair in different regions.
    let a = names
        .iter()
        .find(|n| n.region() == "r0")
        .expect("region 0 user")
        .clone();
    let b = names
        .iter()
        .find(|n| n.region() == "r2")
        .expect("region 2 user")
        .clone();
    d.send_at(SimTime::from_units(1.0), &a, &b);
    d.check_at(SimTime::from_units(200.0), &b);
    assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
    let st = d.stats.borrow();
    assert_eq!(st.retrieved, 1, "cross-region message must arrive");
    assert_eq!(st.outstanding(), 0);
}

#[test]
fn generated_workload_with_failures_loses_nothing() {
    let mut d = build_world(2);
    let names = d.user_names();
    let mut rng = SimRng::seed(2).fork("driver");

    // Failures across all servers, healed well before the drain.
    let servers: Vec<_> = d.problem.servers.iter().map(|(n, _)| *n).collect();
    let plan = ServerFailurePlan::random(
        &mut rng,
        &servers,
        SimDuration::from_units(120.0),
        SimDuration::from_units(15.0),
        SimTime::from_units(600.0),
    );
    d.apply_server_failures(&plan);

    // Drive with the core workload generator.
    let population: Vec<(UserId, lems::net::RegionId)> = names
        .iter()
        .enumerate()
        .map(|(i, n)| {
            let region =
                lems::net::RegionId(n.region().trim_start_matches('r').parse::<usize>().unwrap());
            (UserId(i), region)
        })
        .collect();
    let wl = generate(
        &mut rng,
        &population,
        &WorkloadConfig {
            horizon: SimTime::from_units(600.0),
            mean_interarrival: SimDuration::from_units(120.0),
            mean_check_interval: SimDuration::from_units(60.0),
            ..WorkloadConfig::default()
        },
    );
    assert!(wl.send_count() > 10, "workload too small to be meaningful");
    for ev in wl.events() {
        match *ev {
            WorkloadEvent::Send { at, from, to } => {
                d.send_at(at, &names[from.0].clone(), &names[to.0].clone());
            }
            WorkloadEvent::CheckMail { at, user } => {
                d.check_at(at, &names[user.0].clone());
            }
        }
    }
    // Drain sweeps after every outage has healed.
    for (i, n) in names.iter().enumerate() {
        d.check_at(SimTime::from_units(800.0 + i as f64), n);
        d.check_at(SimTime::from_units(900.0 + i as f64), n);
    }
    assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));

    let st = d.stats.borrow();
    assert!(st.submitted > 10);
    assert_eq!(
        st.outstanding(),
        0,
        "ledger: submitted {} retrieved {} bounced {}",
        st.submitted,
        st.retrieved,
        st.bounced
    );
    // Checks under failure still average far below list length.
    assert!(st.retrieval_polls.mean() < 2.5);
}

/// On a network with no faults no exchange times out, however long its
/// round trip: the session cap bounds how far a timeout backs off, never
/// the first timeout. Every inter-region link here is longer than half the
/// cap, so each cross-region forward's round trip exceeds it.
#[test]
fn fault_free_long_haul_links_see_no_retransmits() {
    let mut rng = SimRng::seed(4);
    let topo = multi_region(
        &mut rng,
        &MultiRegionConfig {
            regions: 3,
            hosts_per_region: 2,
            servers_per_region: 2,
            inter_weight: (35.0, 40.0),
            ..MultiRegionConfig::default()
        },
    );
    let users: Vec<u32> = vec![1; topo.hosts().len()];
    let config = DeploymentConfig {
        seed: 4,
        ..DeploymentConfig::default()
    };
    let mut d = Deployment::build(&topo, &users, &config);
    let names = d.user_names();
    let primary = |name| {
        d.directory
            .by_name(name)
            .expect("registered")
            .authorities
            .servers()[0]
    };
    let mut sends = Vec::new();
    for a in &names {
        for b in names.iter().filter(|b| b.region() != a.region()) {
            let one_way = d.transport.delay(primary(a), primary(b));
            assert!(one_way * 2 > MAX_TIMEOUT, "{a} -> {b}: {one_way:?} one way");
            sends.push((a.clone(), b.clone()));
        }
    }
    assert!(!sends.is_empty());
    for (i, (a, b)) in sends.iter().enumerate() {
        d.send_at(SimTime::from_units(1.0 + i as f64), a, b);
    }
    for (i, n) in names.iter().enumerate() {
        d.check_at(SimTime::from_units(1000.0 + i as f64), n);
    }
    assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
    let st = d.stats.borrow();
    assert_eq!(st.retransmits, 0);
    assert_eq!(st.retrieved, sends.len() as u64);
    assert_eq!(st.outstanding(), 0);
}

#[test]
fn notifications_follow_deposits() {
    let mut d = build_world(3);
    let names = d.user_names();
    let (a, b) = (names[0].clone(), names[1].clone());
    d.send_at(SimTime::from_units(1.0), &a, &b);
    d.send_at(SimTime::from_units(2.0), &a, &b);
    assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
    let st = d.stats.borrow();
    assert_eq!(st.deposited, 2);
    assert_eq!(st.notifications, 2, "one alert per deposit (§3.1.2c)");
}
