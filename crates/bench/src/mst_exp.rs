//! Experiments FIG2, C3, C4: the backbone+local MST worked example,
//! broadcast cost scaling, and the per-region cost table.

use std::collections::BTreeMap;

use lems_attr::attribute::{AttrKey, AttributeSet, RequesterContext, Visibility};
use lems_attr::query::Query;
use lems_attr::registry::AttributeRegistry;
use lems_attr::search::AttributeNetwork;
use lems_attr::{distribute, estimate};
use lems_net::generators::{multi_region, MultiRegionConfig};
use lems_net::graph::NodeId;
use lems_net::shortest_path::DistanceTable;
use lems_net::topology::Topology;
use lems_sim::failure::FailurePlan;
use lems_sim::rng::SimRng;
use lems_sim::time::SimDuration;

use lems_mst::backbone::{
    build_two_level, build_two_level_distributed, flat_mst_weight, TwoLevelMst,
};
use lems_mst::broadcast::{cost_comparison, simulate_broadcast, BroadcastConfig, CostComparison};
use lems_mst::ghs::GhsStats;

use crate::render::{f1, f3, Report, Table};

/// Builds a multi-region topology with globally distinct weights (GHS
/// requirement), deterministically from `seed`.
pub(crate) fn distinct_world(
    seed: u64,
    regions: usize,
    servers_per_region: usize,
    hosts_per_region: usize,
) -> Topology {
    let mut rng = SimRng::seed(seed);
    let cfg = MultiRegionConfig {
        regions,
        servers_per_region,
        hosts_per_region,
        ..MultiRegionConfig::default()
    };
    let raw = multi_region(&mut rng, &cfg);
    let g = raw.graph().with_distinct_weights();
    let mut t = Topology::new();
    for n in raw.nodes() {
        match raw.kind(n) {
            lems_net::topology::NodeKind::Host => t.add_host(raw.region(n), raw.name(n)),
            lems_net::topology::NodeKind::Server => t.add_server(raw.region(n), raw.name(n)),
        };
    }
    for e in g.edges() {
        t.link(e.a, e.b, e.weight);
    }
    t
}

/// The FIG2 reproduction: the two-level structure on a worked example,
/// described edge by edge.
#[derive(Clone, Debug)]
struct Fig2Result {
    /// The topology used.
    topology: Topology,
    /// The structure (distributed construction).
    two_level: TwoLevelMst,
    /// Aggregate GHS statistics of the distributed build.
    ghs_stats: GhsStats,
    /// Weight of the two-level structure.
    two_level_weight: f64,
    /// Weight of the unconstrained flat MST (lower bound).
    flat_weight: f64,
}

/// Runs FIG2 on a small 4-region example.
fn fig2(seed: u64) -> Fig2Result {
    let topology = distinct_world(seed, 4, 3, 3);
    let (two_level, ghs_stats) = build_two_level_distributed(&topology, seed);
    let central = build_two_level(&topology);
    assert_eq!(
        two_level, central,
        "distributed and centralized constructions must agree"
    );
    let two_level_weight = two_level.total_weight(topology.graph()).as_units();
    let flat_weight = flat_mst_weight(&topology).as_units();
    Fig2Result {
        topology,
        two_level,
        ghs_stats,
        two_level_weight,
        flat_weight,
    }
}

/// One row of the C3 scaling sweep.
#[derive(Clone, Copy, Debug)]
pub(crate) struct C3Row {
    /// Regions in the topology.
    regions: usize,
    /// Total nodes.
    pub(crate) nodes: usize,
    /// Total edges.
    edges: usize,
    /// MST broadcast cost (units).
    pub(crate) mst_units: f64,
    /// Flooding cost (units).
    flooding_units: f64,
    /// Per-recipient unicast cost (units).
    unicast_units: f64,
    /// GHS protocol messages spent building the structure.
    pub(crate) ghs_messages: u64,
    /// Nodes that answered the simulated convergecast.
    responded: u64,
    /// Virtual completion time of the convergecast (units).
    pub(crate) completed_units: f64,
}

/// C3: broadcast-cost scaling — MST vs flooding vs unicast as the network
/// grows, plus a live convergecast run to confirm full coverage.
pub(crate) fn c3_sweep(region_counts: &[usize], seed: u64) -> Vec<C3Row> {
    region_counts
        .iter()
        .map(|&regions| {
            let t = distinct_world(seed ^ regions as u64, regions, 3, 4);
            let (two, stats) = build_two_level_distributed(&t, seed);
            let g = t.graph();
            let dist = DistanceTable::build(g);
            let root = t.servers()[0];
            let cc: CostComparison = cost_comparison(g, &dist, root, &two.all_edges());

            let adjacency = two.adjacency(&t);
            let out = simulate_broadcast(
                g,
                &adjacency,
                &BroadcastConfig {
                    root,
                    local_matches: vec![1; g.node_count()],
                    grace: SimDuration::from_units(2.0),
                    seed,
                },
                &FailurePlan::new(),
            )
            .expect("root is up");
            assert_eq!(out.aggregate.responded as usize, g.node_count());

            C3Row {
                regions,
                nodes: g.node_count(),
                edges: g.edge_count(),
                mst_units: cc.mst_units,
                flooding_units: cc.flooding_units,
                unicast_units: cc.unicast_units,
                ghs_messages: stats.total_sent(),
                responded: out.aggregate.responded,
                completed_units: out.completed_at.as_units(),
            }
        })
        .collect()
}

/// Convergecast resilience companion to C3: kill one random non-root
/// server and report coverage loss and unavailable marks.
#[derive(Clone, Copy, Debug)]
struct ResilienceRow {
    /// Nodes reached without failures.
    full_coverage: u64,
    /// Nodes reached with the victim down.
    degraded_coverage: u64,
    /// Subtrees marked unavailable.
    unavailable_marks: u64,
}

/// Runs the resilience companion.
fn convergecast_resilience(seed: u64) -> ResilienceRow {
    let t = distinct_world(seed, 4, 3, 3);
    let two = build_two_level(&t);
    let g = t.graph();
    let adjacency = two.adjacency(&t);
    let root = t.servers()[0];
    let cfg = BroadcastConfig {
        root,
        local_matches: vec![1; g.node_count()],
        grace: SimDuration::from_units(2.0),
        seed,
    };
    let full = simulate_broadcast(g, &adjacency, &cfg, &FailurePlan::new()).expect("root up");

    // Pick the victim as a tree neighbor of the root, guaranteeing a
    // severed subtree.
    let victim: NodeId = adjacency[root.0][0];
    let mut plan = FailurePlan::new();
    plan.add_outage(
        lems_sim::actor::ActorId(victim.0),
        lems_sim::time::SimTime::ZERO,
        lems_sim::time::SimTime::from_units(1e9),
    )
    .expect("outage window is well-formed");
    let degraded = simulate_broadcast(g, &adjacency, &cfg, &plan).expect("root up");

    ResilienceRow {
        full_coverage: full.aggregate.responded,
        degraded_coverage: degraded.aggregate.responded,
        unavailable_marks: degraded.aggregate.unavailable,
    }
}

/// FIG2: the backbone MST + local MSTs of §3.3.1A(ii), built by the real
/// distributed GHS protocol and checked against the centralized planner.
pub(crate) fn fig2_report() -> Report {
    let r = fig2(3);
    let t = &r.topology;

    let mut report = Report::new("FIG2 — backbone MST over gateways + local MST per region");
    report.note(format!(
        "world: {} regions, {} nodes, {} edges; gateways: {}",
        t.region_ids().len(),
        t.node_count(),
        t.graph().edge_count(),
        t.gateways().len(),
    ));

    for (region, edges) in &r.two_level.local_edges {
        let mut table = Table::new(vec!["local MST edge", "weight"]);
        for &eid in edges {
            let e = t.graph().edge(eid);
            table.row(vec![
                format!("{} - {}", t.name(e.a), t.name(e.b)),
                format!("{}", e.weight),
            ]);
        }
        report.note(format!("region {region}:"));
        report.table(&table);
    }

    let mut bb = Table::new(vec!["backbone edge", "regions", "weight"]);
    for &eid in &r.two_level.backbone_edges {
        let e = t.graph().edge(eid);
        bb.row(vec![
            format!("{} - {}", t.name(e.a), t.name(e.b)),
            format!("{} - {}", t.region(e.a), t.region(e.b)),
            format!("{}", e.weight),
        ]);
    }
    report.note("backbone:");
    report.table(&bb);

    report.note(format!("spans the whole network: {}", r.two_level.spans(t)));
    report.note(format!(
        "two-level weight: {} units (flat MST lower bound: {} units, +{:.1}%)",
        f1(r.two_level_weight),
        f1(r.flat_weight),
        100.0 * (r.two_level_weight - r.flat_weight) / r.flat_weight,
    ));
    report.note(format!(
        "distributed GHS messages: {} ({} deferred), by type: {:?}",
        r.ghs_stats.total_sent(),
        r.ghs_stats.requeues,
        r.ghs_stats.sent,
    ));
    report.note("distributed construction == centralized Kruskal planner: verified");

    report
}

/// C3: MST broadcast cost vs flooding vs per-recipient unicast as the
/// network grows, with GHS construction cost and a live convergecast
/// (§3.3.1A-B), plus the failure-resilience companion.
pub(crate) fn mst_cost_report() -> Report {
    let mut report =
        Report::new("C3 — broadcast cost scaling (per point: fresh multi-region world)");
    let rows = c3_sweep(&[2, 4, 8, 12, 16], 1);
    let mut t = Table::new(vec![
        "regions",
        "nodes",
        "edges",
        "mst (u)",
        "flooding (u)",
        "unicast (u)",
        "mst/flooding",
        "ghs msgs",
        "reached",
        "done at (u)",
    ]);
    for r in &rows {
        t.row(vec![
            r.regions.to_string(),
            r.nodes.to_string(),
            r.edges.to_string(),
            f1(r.mst_units),
            f1(r.flooding_units),
            f1(r.unicast_units),
            f3(r.mst_units / r.flooding_units),
            r.ghs_messages.to_string(),
            r.responded.to_string(),
            f1(r.completed_units),
        ]);
    }
    report.table(&t);
    report.note("shape checks:");
    report.note("  - MST cost < flooding cost at every size, gap grows with size");
    report.note("  - MST cost <= unicast sum (shared prefixes are paid once)");
    report.note("  - convergecast reaches every node when nothing fails");

    report.note("failure resilience (one tree neighbor of the root dead):");
    let r = convergecast_resilience(4);
    report.kv(&[
        ("full coverage".into(), r.full_coverage.to_string()),
        ("degraded coverage".into(), r.degraded_coverage.to_string()),
        (
            "unavailable subtrees marked".into(),
            r.unavailable_marks.to_string(),
        ),
    ]);
    report.note("(the paper: parents 'time out … and the unavailable estimates can be marked so')");

    report
}

/// C4: the §3.3.1B per-region cost table for attribute-based mass
/// distribution, and the budget-driven flow-control walk ("the user can
/// select his recipients and the level of search he wants to be done").
pub(crate) fn attr_cost_report() -> Report {
    let t = distinct_world(11, 5, 3, 3);
    // Seed every server with one "opera" fan and one "sailing" fan.
    let mut registries = BTreeMap::new();
    for (i, &s) in t.servers().iter().enumerate() {
        let region = t.region(s).0;
        let mut reg = AttributeRegistry::new();
        for (k, interest) in [("opera", "opera"), ("sailing", "sailing")] {
            let mut a = AttributeSet::new();
            a.add(AttrKey::Interest, interest, Visibility::Public);
            reg.upsert(
                format!("r{region}.h.{k}{i}").parse().expect("valid name"),
                a,
            );
        }
        registries.insert(s, reg);
    }
    let net = AttributeNetwork::new(t, registries);
    let root = net.topology().servers()[0];
    let query = Query::text_eq(AttrKey::Interest, "opera");

    let mut report = Report::new(format!(
        "C4 — §3.3.1B cost table from region {}",
        net.topology().region(root)
    ));
    let est = estimate(&net, root, &query);
    let mut table = Table::new(vec!["region", "delivery cost (u)"]);
    for &(r, c) in &est.region_costs {
        table.row(vec![format!("{r}"), f1(c)]);
    }
    report.table(&table);
    report.note(format!(
        "total = {} units; search charge estimate = {} units",
        f1(est.total_cost),
        f1(est.search_charge)
    ));

    report.note("budget walk (cheapest regions first):");
    let ctx = RequesterContext::default();
    let mut walk = Table::new(vec![
        "budget (u)",
        "regions",
        "recipients",
        "skipped",
        "cost (u)",
    ]);
    for frac in [1.0, 0.6, 0.3, 0.1] {
        let budget = est.total_cost * frac;
        let out = distribute(&net, root, &query, &ctx, Some(budget));
        walk.row(vec![
            f1(budget),
            out.regions.len().to_string(),
            out.recipients.len().to_string(),
            out.skipped_recipients.to_string(),
            f1(out.cost),
        ]);
    }
    report.table(&walk);

    let full = distribute(&net, root, &query, &ctx, None);
    report.note(format!(
        "unlimited budget: {} recipients across {} regions, cost {} units",
        full.recipients.len(),
        full.regions.len(),
        f1(full.cost)
    ));

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_structure_is_sound() {
        let r = fig2(3);
        assert!(r.two_level.spans(&r.topology));
        assert_eq!(r.two_level.backbone_edges.len(), 3);
        assert!(r.two_level_weight >= r.flat_weight);
        assert!(r.ghs_stats.total_sent() > 0);
    }

    #[test]
    fn c3_mst_beats_flooding_and_gap_grows() {
        let rows = c3_sweep(&[2, 4, 8], 1);
        for r in &rows {
            assert!(r.mst_units < r.flooding_units, "{r:?}");
            assert_eq!(r.responded as usize, r.nodes);
        }
        let gap_small = rows[0].flooding_units - rows[0].mst_units;
        let gap_large = rows[2].flooding_units - rows[2].mst_units;
        assert!(gap_large > gap_small, "gap should grow with size");
    }

    #[test]
    fn resilience_degrades_gracefully() {
        let r = convergecast_resilience(4);
        assert!(r.degraded_coverage < r.full_coverage);
        assert!(r.unavailable_marks >= 1);
    }
}
