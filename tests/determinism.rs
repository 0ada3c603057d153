//! Integration: every layer of the stack is a pure function of its seed —
//! identical seeds give identical results, different seeds differ.

use lems::net::generators::{multi_region, MultiRegionConfig};
use lems::net::graph::Weight;
use lems::sim::rng::SimRng;
use lems::sim::time::SimTime;
use lems_check::scenarios::{Chaos, Event, Outage, RandomOutages, RunSpec, Scenario, Step};

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
    let mut d = Scenario::named("steady").spec.build(seed);
    assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
    let st = d.stats.borrow();
    (st.retrieved, st.deposited, d.sim.now())
}

#[test]
fn full_deployments_replay_exactly() {
    assert_eq!(deployment_fingerprint(3), deployment_fingerprint(3));
}

/// Renders the complete engine trace of `spec` at `seed` as one string,
/// one event per line.
fn trace_stream(spec: &RunSpec<'_>, seed: u64) -> String {
    let mut d = spec.build(seed);
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

/// `steady`'s sends, with the checks later.
fn late_checks() -> RunSpec<'static> {
    RunSpec {
        events: &[
            Event::Wave(&[Step::Send(1.0, 1.0, 5)]),
            Event::Wave(&[Step::Check(200.0, 1.0)]),
        ],
        ..Scenario::named("steady").spec.clone()
    }
}

#[test]
fn trace_streams_replay_byte_identically() {
    let spec = late_checks();
    for seed in [3, 11] {
        assert_eq!(
            trace_stream(&spec, seed),
            trace_stream(&spec, seed),
            "seed {seed}: steady trace diverged between runs"
        );
    }
}

#[test]
fn trace_streams_replay_byte_identically_under_failures() {
    let spec = RunSpec {
        random_outages: Some(RandomOutages {
            mtbf: 60.0,
            mttr: 10.0,
            horizon: 120.0,
        }),
        ..late_checks()
    };
    for seed in [3, 11] {
        assert_eq!(
            trace_stream(&spec, seed),
            trace_stream(&spec, seed),
            "seed {seed}: failure-injected trace diverged between runs"
        );
    }
}

/// Link-level chaos — probabilistic drop, duplication and jitter plus a
/// partition of the first server — under staggered sends.
#[test]
fn trace_streams_replay_byte_identically_under_link_faults() {
    let spec = RunSpec {
        chaos: Some(Chaos {
            loss: 0.10,
            duplicate: 0.03,
            jitter: 1.0,
            until: 250.0,
            partitions: &[Outage(0, 40.0, 80.0)],
        }),
        events: &[
            Event::Wave(&[Step::Send(1.0, 3.0, 5)]),
            Event::Wave(&[Step::Check(300.0, 1.0)]),
        ],
        ..Scenario::named("steady").spec.clone()
    };
    for seed in [3, 11] {
        let stream = trace_stream(&spec, seed);
        assert!(
            stream.contains("link-drop"),
            "chaos trace has no link-drop events — faults were not active"
        );
        assert_eq!(
            stream,
            trace_stream(&spec, seed),
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
