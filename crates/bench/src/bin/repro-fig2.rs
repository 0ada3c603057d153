//! FIG2: the backbone MST + local MSTs of §3.3.1A(ii), built by the real
//! distributed GHS protocol and checked against the centralized planner.

use lems_bench::mst_exp::fig2;
use lems_bench::render::{f1, Report, Table};

fn main() {
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

    report.print();
}
