//! Mass distribution of attribute-addressed mail with cost estimation and
//! flow control (§3.3.1B).
//!
//! "Attribute-based mail systems can generate a large amount of traffic…
//! It is very important to estimate the cost of broadcasting and searching
//! before sending mail to the potential recipients… Based on the detailed
//! estimate of charges and traffic volume, the user can select his
//! recipients and the level of search he wants to be done."
//!
//! A distribution therefore runs in two stages: **estimate** (build the
//! per-region cost table from the spanning structure) and **execute**
//! (deliver to the regions the sender's budget covers, counting actual
//! recipients and cost).

use lems_net::graph::NodeId;
use lems_net::topology::RegionId;

use crate::attribute::RequesterContext;
use crate::query::Query;
use crate::search::AttributeNetwork;

/// The pre-send estimate shown to the user.
#[derive(Clone, Debug)]
pub struct DistributionEstimate {
    /// `(region, cost)` rows of the §3.3.1B table.
    pub region_costs: Vec<(RegionId, f64)>,
    /// Total cost of covering every region.
    pub total_cost: f64,
    /// A crude per-region search charge proportional to query complexity
    /// (the paper's "processing cost for searching the databases").
    pub search_charge: f64,
}

/// What a distribution actually did.
#[derive(Clone, Debug)]
pub struct DistributionOutcome {
    /// Regions covered (possibly limited by budget).
    pub regions: Vec<RegionId>,
    /// Matched recipients in the covered regions.
    pub recipients: Vec<lems_core::name::MailName>,
    /// Communication cost actually incurred.
    pub cost: f64,
    /// Matches that were skipped because their region was out of budget.
    pub skipped_recipients: usize,
}

/// Per-message processing charge used in the search-cost estimate, in
/// cost units per predicate per region.
pub(crate) const SEARCH_CHARGE_PER_LEAF: f64 = 0.1;

/// Produces the §3.3.1B estimate for distributing from `root`.
pub fn estimate(net: &AttributeNetwork, root: NodeId, query: &Query) -> DistributionEstimate {
    let table = net.cost_table(root);
    let search_charge =
        SEARCH_CHARGE_PER_LEAF * query.leaf_count() as f64 * table.rows.len() as f64;
    DistributionEstimate {
        total_cost: table.total(),
        region_costs: table.rows,
        search_charge,
    }
}

/// Executes a distribution from `root`: covers the cheapest regions that
/// fit `budget` (`None` = unlimited), evaluates the query in the covered
/// regions, and reports recipients plus incurred cost.
pub fn distribute(
    net: &AttributeNetwork,
    root: NodeId,
    query: &Query,
    ctx: &RequesterContext,
    budget: Option<f64>,
) -> DistributionOutcome {
    let table = net.cost_table(root);
    let regions: Vec<RegionId> = match budget {
        Some(b) => table.regions_within_budget(b),
        None => {
            let mut rs: Vec<RegionId> = table.rows.iter().map(|&(r, _)| r).collect();
            rs.sort_unstable();
            rs
        }
    };
    let cost: f64 = table
        .rows
        .iter()
        .filter(|(r, _)| regions.contains(r))
        .map(|&(_, c)| c)
        .sum();

    let mut recipients = Vec::new();
    let mut skipped = 0usize;
    for &server in &net.topology().servers() {
        let region = net.topology().region(server);
        let Some(reg) = net.registry(server) else {
            continue;
        };
        let hits = reg.search(query, ctx);
        if regions.contains(&region) {
            recipients.extend(hits.into_iter().cloned());
        } else {
            skipped += hits.len();
        }
    }
    recipients.sort_unstable();
    recipients.dedup();

    DistributionOutcome {
        regions,
        recipients,
        cost,
        skipped_recipients: skipped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::{AttrKey, AttributeSet, Visibility};
    use crate::registry::AttributeRegistry;
    use lems_net::generators::{multi_region, MultiRegionConfig};
    use lems_net::topology::Topology;
    use lems_sim::rng::SimRng;
    use std::collections::BTreeMap;

    fn network() -> AttributeNetwork {
        let mut rng = SimRng::seed(5);
        let cfg = MultiRegionConfig {
            regions: 4,
            hosts_per_region: 2,
            servers_per_region: 2,
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

        let mut registries = BTreeMap::new();
        for (i, &s) in t.servers().iter().enumerate() {
            let mut reg = AttributeRegistry::new();
            let mut a = AttributeSet::new();
            a.add(AttrKey::Interest, "opera", Visibility::Public);
            reg.upsert(format!("r{}.h.fan{i}", t.region(s).0).parse().unwrap(), a);
            registries.insert(s, reg);
        }
        AttributeNetwork::new(t, registries)
    }

    #[test]
    fn estimate_covers_all_regions() {
        let net = network();
        let root = net.topology().servers()[0];
        let q = Query::text_eq(AttrKey::Interest, "opera");
        let est = estimate(&net, root, &q);
        assert_eq!(est.region_costs.len(), 4);
        assert!(est.total_cost > 0.0);
        assert!(est.search_charge > 0.0);
    }

    #[test]
    fn unlimited_budget_reaches_everyone() {
        let net = network();
        let root = net.topology().servers()[0];
        let q = Query::text_eq(AttrKey::Interest, "opera");
        let out = distribute(&net, root, &q, &RequesterContext::default(), None);
        assert_eq!(out.regions.len(), 4);
        assert_eq!(out.recipients.len(), 8); // one fan per server
        assert_eq!(out.skipped_recipients, 0);
    }

    #[test]
    fn budget_limits_regions_and_reports_skips() {
        let net = network();
        let root = net.topology().servers()[0];
        let q = Query::text_eq(AttrKey::Interest, "opera");
        let full = distribute(&net, root, &q, &RequesterContext::default(), None);
        // Budget for roughly half the total cost.
        let out = distribute(
            &net,
            root,
            &q,
            &RequesterContext::default(),
            Some(full.cost / 2.0),
        );
        assert!(out.regions.len() < 4);
        assert!(out.cost <= full.cost / 2.0 + 1e-9);
        assert_eq!(
            out.recipients.len() + out.skipped_recipients,
            full.recipients.len()
        );
    }

    #[test]
    fn zero_budget_sends_nothing() {
        let net = network();
        let root = net.topology().servers()[0];
        let q = Query::text_eq(AttrKey::Interest, "opera");
        let out = distribute(&net, root, &q, &RequesterContext::default(), Some(0.0));
        assert!(out.regions.is_empty());
        assert!(out.recipients.is_empty());
        assert_eq!(out.cost, 0.0);
        assert_eq!(out.skipped_recipients, 8);
    }
}
