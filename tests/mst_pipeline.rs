//! Integration: topology generation -> distributed GHS -> two-level
//! structure -> broadcast/convergecast -> attribute search, checked
//! against centralized oracles at every stage.

use std::collections::BTreeMap;

use lems::attr::{
    AttrKey, AttributeNetwork, AttributeRegistry, AttributeSet, Query, RequesterContext, Visibility,
};
use lems::mst::backbone::{build_two_level, build_two_level_distributed};
use lems::mst::broadcast::{simulate_broadcast, Aggregate, BroadcastConfig};
use lems::mst::ghs::run_ghs;
use lems::net::generators::{multi_region, MultiRegionConfig};
use lems::net::mst::kruskal;
use lems::net::topology::Topology;
use lems::sim::actor::ActorId;
use lems::sim::failure::FailurePlan;
use lems::sim::rng::SimRng;
use lems::sim::time::{SimDuration, SimTime};

fn distinct_topology(seed: u64, regions: usize) -> Topology {
    let mut rng = SimRng::seed(seed);
    let raw = multi_region(
        &mut rng,
        &MultiRegionConfig {
            regions,
            hosts_per_region: 3,
            servers_per_region: 3,
            ..MultiRegionConfig::default()
        },
    );
    let g = raw.graph().with_distinct_weights();
    let mut t = Topology::new();
    for n in raw.nodes() {
        match raw.kind(n) {
            lems::net::NodeKind::Host => t.add_host(raw.region(n), raw.name(n)),
            lems::net::NodeKind::Server => t.add_server(raw.region(n), raw.name(n)),
        };
    }
    for e in g.edges() {
        t.link(e.a, e.b, e.weight);
    }
    t
}

#[test]
fn ghs_equals_kruskal_on_generated_topologies() {
    for seed in 0..5 {
        let t = distinct_topology(seed, 3);
        let run = run_ghs(t.graph(), seed);
        let k = kruskal(t.graph());
        assert_eq!(run.total_weight, k.total_weight(), "seed {seed}");
        assert_eq!(run.edges.len(), t.node_count() - 1);
    }
}

#[test]
fn two_level_constructions_agree_and_span() {
    for seed in 0..5 {
        let t = distinct_topology(seed + 10, 4);
        let central = build_two_level(&t);
        let (distributed, stats) = build_two_level_distributed(&t, seed);
        assert_eq!(central, distributed, "seed {seed}");
        assert!(distributed.spans(&t));
        assert!(stats.total_sent() > 0);
    }
}

#[test]
fn convergecast_counts_every_node_and_masks_failures() {
    let t = distinct_topology(42, 4);
    let two = build_two_level(&t);
    let adjacency = two.adjacency(&t);
    let root = t.servers()[0];
    let cfg = BroadcastConfig {
        root,
        local_matches: (0..t.node_count() as u64).collect(),
        grace: SimDuration::from_units(2.0),
        seed: 42,
    };
    let out = simulate_broadcast(t.graph(), &adjacency, &cfg, &FailurePlan::new()).unwrap();
    let expected: u64 = (0..t.node_count() as u64).sum();
    assert_eq!(out.aggregate.matches, expected, "sum aggregated exactly");
    assert_eq!(out.aggregate.responded as usize, t.node_count());

    // Kill a leaf: only its contribution disappears.
    let leaf = t
        .nodes()
        .find(|&n| adjacency[n.0].len() == 1 && n != root)
        .expect("a leaf exists");
    let mut plan = FailurePlan::new();
    plan.add_outage(ActorId(leaf.0), SimTime::ZERO, SimTime::from_units(1e9))
        .unwrap();
    let degraded = simulate_broadcast(t.graph(), &adjacency, &cfg, &plan).unwrap();
    assert_eq!(degraded.aggregate.matches, expected - leaf.0 as u64);
    assert_eq!(degraded.aggregate.unavailable, 1);
}

#[test]
fn attribute_search_over_generated_world_matches_oracle() {
    let t = distinct_topology(77, 3);
    let mut registries = BTreeMap::new();
    let mut expected = 0u64;
    for (i, &s) in t.servers().iter().enumerate() {
        let mut reg = AttributeRegistry::new();
        let mut a = AttributeSet::new();
        let field = if i % 3 == 0 { "mail" } else { "other" };
        if field == "mail" {
            expected += 1;
        }
        a.add(AttrKey::Expertise, field, Visibility::Public);
        reg.upsert(format!("r{}.h.u{i}", t.region(s).0).parse().unwrap(), a);
        registries.insert(s, reg);
    }
    let net = AttributeNetwork::new(t, registries);
    let root = net.topology().servers()[0];
    let q = Query::text_eq(AttrKey::Expertise, "mail");
    let out = net
        .search(
            root,
            &q,
            &RequesterContext::default(),
            &FailurePlan::new(),
            1,
        )
        .unwrap();
    assert_eq!(out.matches, expected);
    assert_eq!(out.matches, out.ground_truth_matches);
}

/// What `lems-mst` computed on one small world at commit `1e2ce94`, the
/// last one whose actors sent through a shared `Transport`.
struct MstPin {
    seed: u64,
    /// `(responded, matches, unavailable)` and the completion tick.
    fault_free: ((u64, u64, u64), u64),
    /// The same with the first interior (degree ≥ 2, non-root) tree node
    /// down for the whole run.
    dead_interior: ((u64, u64, u64), u64),
    ghs_edges: [(usize, usize); 17],
    ghs_sent: u64,
    ghs_requeues: u64,
    ghs_finished_ticks: u64,
}

const MST_PINS: [MstPin; 2] = [
    MstPin {
        seed: 3,
        fault_free: ((18, 153, 0), 954_501_192),
        dead_interior: ((14, 142, 1), 970_501_192),
        ghs_edges: [
            (0, 1),
            (0, 4),
            (0, 8),
            (1, 2),
            (1, 5),
            (2, 3),
            (6, 7),
            (6, 14),
            (7, 8),
            (7, 10),
            (7, 11),
            (8, 9),
            (12, 13),
            (12, 14),
            (12, 16),
            (13, 15),
            (13, 17),
        ],
        ghs_sent: 132,
        ghs_requeues: 52,
        ghs_finished_ticks: 1_725_000_227,
    },
    MstPin {
        seed: 7,
        fault_free: ((18, 153, 0), 862_501_072),
        dead_interior: ((8, 56, 1), 874_501_072),
        ghs_edges: [
            (0, 1),
            (0, 5),
            (0, 8),
            (1, 2),
            (1, 3),
            (1, 4),
            (2, 13),
            (6, 8),
            (7, 8),
            (7, 9),
            (7, 10),
            (7, 11),
            (12, 13),
            (12, 15),
            (12, 16),
            (13, 14),
            (13, 17),
        ],
        ghs_sent: 181,
        ghs_requeues: 61,
        ghs_finished_ticks: 3_473_000_295,
    },
];

/// `determinism.rs` compares a run only with itself and no golden holds a
/// `lems-mst` result, so a change to delays or send order inside the
/// actors would go unseen: these constants are what sees it.
#[test]
fn broadcast_and_ghs_results_match_pinned_constants() {
    let flat = |a: Aggregate| (a.responded, a.matches, a.unavailable);
    for pin in &MST_PINS {
        let seed = pin.seed;
        let t = distinct_topology(seed, 3);
        let adjacency = build_two_level(&t).adjacency(&t);
        let root = t.servers()[0];
        let cfg = BroadcastConfig {
            root,
            local_matches: (0..t.node_count() as u64).collect(),
            grace: SimDuration::from_units(2.0),
            seed,
        };
        let free = simulate_broadcast(t.graph(), &adjacency, &cfg, &FailurePlan::new()).unwrap();
        assert_eq!(
            (flat(free.aggregate), free.completed_at.as_ticks()),
            pin.fault_free,
            "fault-free broadcast, seed {seed}"
        );

        let interior = t
            .nodes()
            .find(|&n| n != root && adjacency[n.0].len() >= 2)
            .expect("an interior node exists");
        let mut plan = FailurePlan::new();
        plan.add_outage(ActorId(interior.0), SimTime::ZERO, SimTime::from_units(1e9))
            .unwrap();
        let dead = simulate_broadcast(t.graph(), &adjacency, &cfg, &plan).unwrap();
        assert_eq!(
            (flat(dead.aggregate), dead.completed_at.as_ticks()),
            pin.dead_interior,
            "dead interior node, seed {seed}"
        );

        let run = run_ghs(t.graph(), seed);
        let edges: Vec<(usize, usize)> = run.edges.iter().map(|&(a, b)| (a.0, b.0)).collect();
        assert_eq!(edges, pin.ghs_edges, "GHS tree, seed {seed}");
        assert_eq!(
            (
                run.stats.total_sent(),
                run.stats.requeues,
                run.finished_at.as_ticks()
            ),
            (pin.ghs_sent, pin.ghs_requeues, pin.ghs_finished_ticks),
            "GHS (sent, requeues, finished_at), seed {seed}"
        );
    }
}
