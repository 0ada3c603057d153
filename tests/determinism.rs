//! Integration: every layer of the stack is a pure function of its seed —
//! identical seeds give identical results, different seeds differ.

use lems::net::generators::{multi_region, MultiRegionConfig};
use lems::net::graph::Weight;
use lems::sim::linkfault::LinkProfile;
use lems::sim::rng::SimRng;
use lems::sim::time::{SimDuration, SimTime};
use lems::syntax::{Deployment, DeploymentConfig, LinkChaos, ServerFailurePlan};

/// Every scenario here quiesces far below this; exhausting it means a
/// stuck retry loop, which must fail the test rather than hang it.
const EVENT_BUDGET: u64 = 2_000_000;

fn topo_fingerprint(seed: u64) -> Vec<(usize, usize, Weight)> {
    let mut rng = SimRng::seed(seed);
    let t = multi_region(&mut rng, &MultiRegionConfig::default());
    t.graph()
        .edges()
        .iter()
        .map(|e| (e.a.0, e.b.0, e.weight))
        .collect()
}

#[test]
fn topology_generation_is_deterministic() {
    assert_eq!(topo_fingerprint(5), topo_fingerprint(5));
    assert_ne!(topo_fingerprint(5), topo_fingerprint(6));
}

fn ghs_fingerprint(seed: u64) -> (Vec<(usize, usize)>, u64) {
    let mut rng = SimRng::seed(seed);
    let raw = multi_region(&mut rng, &MultiRegionConfig::default());
    let g = raw.graph().with_distinct_weights();
    let run = lems::mst::ghs::run_ghs(&g, seed);
    (
        run.edges.iter().map(|&(a, b)| (a.0, b.0)).collect(),
        run.stats.total_sent(),
    )
}

#[test]
fn ghs_runs_are_deterministic() {
    assert_eq!(ghs_fingerprint(9), ghs_fingerprint(9));
}

fn deployment_fingerprint(seed: u64) -> (u64, u64, SimTime) {
    let f = lems::net::generators::fig1();
    let mut d = Deployment::build(
        &f.topology,
        &[2, 2, 2, 2, 2, 2],
        &DeploymentConfig {
            seed,
            ..DeploymentConfig::default()
        },
    );
    let names = d.user_names();
    for i in 0..names.len() {
        d.send_at(
            SimTime::from_units(1.0 + i as f64),
            &names[i],
            &names[(i + 5) % names.len()],
        );
    }
    for (i, n) in names.iter().enumerate() {
        d.check_at(SimTime::from_units(100.0 + i as f64), n);
    }
    assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
    let st = d.stats.borrow();
    (st.retrieved, st.deposited, d.sim.now())
}

#[test]
fn full_deployments_replay_exactly() {
    assert_eq!(deployment_fingerprint(3), deployment_fingerprint(3));
}

/// Renders the complete engine trace of a fig1 deployment run — with
/// optional server failures — as one string, one event per line.
fn trace_stream(seed: u64, with_failures: bool) -> String {
    let f = lems::net::generators::fig1();
    let mut d = Deployment::build(
        &f.topology,
        &[2, 2, 2, 2, 2, 2],
        &DeploymentConfig {
            seed,
            ..DeploymentConfig::default()
        },
    );
    d.sim.enable_trace();
    if with_failures {
        let mut rng = SimRng::seed(seed).fork("determinism-failures");
        let plan = ServerFailurePlan::random(
            &mut rng,
            &f.servers,
            SimDuration::from_units(60.0),
            SimDuration::from_units(10.0),
            SimTime::from_units(120.0),
        );
        d.apply_server_failures(&plan);
    }
    let names = d.user_names();
    for i in 0..names.len() {
        d.send_at(
            SimTime::from_units(1.0 + i as f64),
            &names[i],
            &names[(i + 5) % names.len()],
        );
    }
    for (i, n) in names.iter().enumerate() {
        d.check_at(SimTime::from_units(200.0 + i as f64), n);
    }
    assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
    let lines: Vec<String> = d
        .sim
        .trace()
        .events()
        .map(std::string::ToString::to_string)
        .collect();
    assert!(
        lines.len() > 50,
        "trace unexpectedly small: {} events",
        lines.len()
    );
    lines.join("\n")
}

#[test]
fn trace_streams_replay_byte_identically() {
    for seed in [3, 11] {
        assert_eq!(
            trace_stream(seed, false),
            trace_stream(seed, false),
            "seed {seed}: steady trace diverged between runs"
        );
    }
}

#[test]
fn trace_streams_replay_byte_identically_under_failures() {
    for seed in [3, 11] {
        assert_eq!(
            trace_stream(seed, true),
            trace_stream(seed, true),
            "seed {seed}: failure-injected trace diverged between runs"
        );
    }
}

/// Renders the complete engine trace of a fig1 run under link-level chaos
/// — probabilistic drop/duplication/jitter plus a flapping partition — as
/// one string, one event per line.
fn chaos_trace_stream(seed: u64) -> String {
    let f = lems::net::generators::fig1();
    let mut d = Deployment::build(
        &f.topology,
        &[2, 2, 2, 2, 2, 2],
        &DeploymentConfig {
            seed,
            ..DeploymentConfig::default()
        },
    );
    d.sim.enable_trace();
    let isolated = vec![f.servers[0]];
    let mut others = f.hosts.clone();
    others.extend(f.servers.iter().skip(1).copied());
    let chaos = LinkChaos::new(
        LinkProfile::new(0.10, 0.03, SimDuration::from_units(1.0))
            .expect("probabilities are in range"),
        SimTime::from_units(250.0),
    )
    .partition(
        isolated,
        others,
        SimTime::from_units(40.0),
        SimTime::from_units(80.0),
    );
    d.apply_link_chaos(&chaos).expect("fig1 nodes are bound");
    let names = d.user_names();
    for i in 0..names.len() {
        d.send_at(
            SimTime::from_units(1.0 + 3.0 * i as f64),
            &names[i],
            &names[(i + 5) % names.len()],
        );
    }
    for (i, n) in names.iter().enumerate() {
        d.check_at(SimTime::from_units(300.0 + i as f64), n);
    }
    assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
    let stream: String = d
        .sim
        .trace()
        .events()
        .map(std::string::ToString::to_string)
        .collect::<Vec<_>>()
        .join("\n");
    assert!(
        stream.contains("link-drop"),
        "chaos trace has no link-drop events — faults were not active"
    );
    stream
}

#[test]
fn trace_streams_replay_byte_identically_under_link_faults() {
    for seed in [3, 11] {
        assert_eq!(
            chaos_trace_stream(seed),
            chaos_trace_stream(seed),
            "seed {seed}: link-fault trace diverged between runs"
        );
    }
}

#[test]
fn workload_generation_is_deterministic() {
    use lems::core::workload::{generate, WorkloadConfig};
    use lems::core::UserId;
    use lems::net::RegionId;
    let pop: Vec<(UserId, RegionId)> = (0..12).map(|i| (UserId(i), RegionId(i % 3))).collect();
    let a = generate(&mut SimRng::seed(4), &pop, &WorkloadConfig::default());
    let b = generate(&mut SimRng::seed(4), &pop, &WorkloadConfig::default());
    assert_eq!(a.events(), b.events());
}
