//! C4: the §3.3.1B per-region cost table for attribute-based mass
//! distribution, and the budget-driven flow-control walk ("the user can
//! select his recipients and the level of search he wants to be done").

use std::collections::BTreeMap;

use lems_attr::attribute::{AttrKey, AttributeSet, RequesterContext, Visibility};
use lems_attr::query::Query;
use lems_attr::registry::AttributeRegistry;
use lems_attr::search::AttributeNetwork;
use lems_attr::{distribute, estimate};
use lems_bench::mst_exp::distinct_world;
use lems_bench::render::{f1, Report, Table};

fn main() {
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

    report.print();
}
