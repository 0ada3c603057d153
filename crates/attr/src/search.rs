//! Distributed attribute search over the two-level MST (§3.3.1A).
//!
//! "One interesting feature of attribute-based mail system is how to
//! efficiently search for a class of customers in a large network." The
//! query is broadcast down the backbone+local MST; each server evaluates
//! it against its local registry; responses convergecast back up as
//! summary messages, with parent timeouts masking dead servers.

use std::collections::BTreeMap;

use lems_core::name::MailName;
use lems_net::graph::NodeId;
use lems_net::topology::Topology;
use lems_sim::failure::FailurePlan;
use lems_sim::time::{SimDuration, SimTime};

use lems_mst::backbone::{build_two_level, TwoLevelMst};
use lems_mst::broadcast::{BroadcastConfig, PreparedTree, RegionCostTable};

use crate::attribute::RequesterContext;
use crate::query::{PreparedQuery, Query, Scratch};
use crate::registry::AttributeRegistry;

/// A multi-region network of attribute servers glued to its spanning
/// structure.
#[derive(Clone, Debug)]
pub struct AttributeNetwork {
    topology: Topology,
    two_level: TwoLevelMst,
    /// `two_level`'s edges wired as each node's links: what a broadcast
    /// walks.
    tree: PreparedTree,
    registries: BTreeMap<NodeId, AttributeRegistry>,
    /// The servers with a registry, in the order of each registry's
    /// smallest name: the order a search visits them in.
    by_first_name: Vec<NodeId>,
}

// A network may be shared across threads or copied whole: the tree it
// shares with every broadcast's nodes is held by `Arc`, not `Rc`.
const _: () = {
    const fn shareable<T: Send + Sync + Clone>() {}
    shareable::<AttributeNetwork>();
};

/// Result of one distributed search.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// Total matches reported to the root.
    pub matches: u64,
    /// Nodes that answered.
    pub responded: u64,
    /// Subtrees lost to timeouts.
    pub unavailable: u64,
    /// Virtual time until the root had the full summary.
    pub completed_at: SimTime,
    /// Ground truth (all registries evaluated centrally) — lets
    /// experiments verify what failures cost.
    pub ground_truth_matches: u64,
}

impl AttributeNetwork {
    /// Builds the network: the two-level MST is derived from `topology`,
    /// and each server node gets its registry from `registries` (servers
    /// without an entry hold an empty registry).
    ///
    /// # Panics
    ///
    /// Panics if the topology is disconnected or a region is internally
    /// disconnected (as [`build_two_level`]), or if a registry is keyed by
    /// a node the topology does not have: no broadcast could reach it, so
    /// every search would report its matches as lost.
    #[expect(
        clippy::panic,
        reason = "a registry no broadcast can reach is a caller bug"
    )]
    pub fn new(topology: Topology, registries: BTreeMap<NodeId, AttributeRegistry>) -> Self {
        if let Some(&stray) = registries.keys().find(|n| n.0 >= topology.node_count()) {
            panic!("registry keyed by {stray}, which is not a node of the topology");
        }
        let two_level = build_two_level(&topology);
        let tree = PreparedTree::new(topology.graph(), &two_level.adjacency(&topology));
        let mut firsts: Vec<_> = registries
            .iter()
            .map(|(&n, r)| (r.first_name(), n))
            .collect();
        firsts.sort_unstable();
        let by_first_name = firsts.into_iter().map(|(_, n)| n).collect();
        AttributeNetwork {
            topology,
            two_level,
            tree,
            registries,
            by_first_name,
        }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The spanning structure used for broadcasts.
    pub fn two_level(&self) -> &TwoLevelMst {
        &self.two_level
    }

    /// The registry at `server` (empty default if none installed).
    pub fn registry(&self, server: NodeId) -> Option<&AttributeRegistry> {
        self.registries.get(&server)
    }

    /// Evaluates `query` once against every registry: the match count of
    /// each node (what its convergecast summary carries) and the distinct
    /// matching users, in name order.
    ///
    /// Each registry holds a name once and yields its hits in name order,
    /// so its hits are a strictly increasing run; and as the registries are
    /// visited in the order of their smallest names, the runs follow one
    /// another whenever the registries' name ranges do not interleave (one
    /// server per `region.host`). Then the hits are already the answer,
    /// which one comparison per registry confirms: the first hit of each
    /// run against the last one before it. A run that does not start
    /// strictly after it (interleaved ranges, or a user registered at two
    /// servers) leaves the hits to be sorted and deduplicated. A user
    /// registered at two servers is thus one user here and two matches in
    /// the counts: the surplus `ground_truth_matches` exposes.
    fn evaluate(&self, query: &Query, ctx: &RequesterContext) -> (Vec<u64>, Vec<&MailName>) {
        let prepared = PreparedQuery::new(query, ctx);
        let mut scratch = Scratch::default();
        let mut counts = vec![0; self.topology.node_count()];
        let mut hits: Vec<&MailName> = Vec::new();
        let mut in_order = true;
        for node in &self.by_first_name {
            let Some(registry) = self.registries.get(node) else {
                continue;
            };
            let before = hits.len();
            hits.extend(registry.hits(&prepared, &mut scratch));
            counts[node.0] = (hits.len() - before) as u64;
            if let (Some(last), Some(first)) = (before.checked_sub(1), hits.get(before)) {
                in_order &= hits[last] < *first;
            }
        }
        if !in_order {
            hits.sort_unstable();
            hits.dedup();
        }
        (counts, hits)
    }

    /// Evaluates `query` once against every registry, as
    /// [`evaluate`](Self::evaluate) does, and counts what it would list:
    /// the match count of each node and the number of distinct matching
    /// users.
    ///
    /// A registry counts its hits and names only the first and last of
    /// them; the runs follow one another, and the hits are distinct, when
    /// each run's first hit is past the last hit before it, the comparison
    /// `evaluate` makes. Then the distinct users are the counts' sum. At
    /// the first run that is not (interleaved ranges, or a user registered
    /// at two servers), only the names can tell the users apart, and
    /// `evaluate` lists them.
    fn count(&self, query: &Query, ctx: &RequesterContext) -> (Vec<u64>, u64) {
        let prepared = PreparedQuery::new(query, ctx);
        let mut scratch = Scratch::default();
        let mut counts = vec![0; self.topology.node_count()];
        let mut distinct = 0;
        let mut last_hit: Option<&MailName> = None;
        for node in &self.by_first_name {
            let Some(registry) = self.registries.get(node) else {
                continue;
            };
            let (count, ends) = registry.hit_ends(&prepared, &mut scratch);
            if let Some((first, last)) = ends {
                if last_hit.is_some_and(|before| before >= first) {
                    let (counts, hits) = self.evaluate(query, ctx);
                    return (counts, hits.len() as u64);
                }
                last_hit = Some(last);
            }
            counts[node.0] = count;
            distinct += count;
        }
        (counts, distinct)
    }

    /// Users matching `query` across all registries (centralized ground
    /// truth — what a failure-free search would find).
    pub fn central_matches(&self, query: &Query, ctx: &RequesterContext) -> Vec<MailName> {
        let (_, hits) = self.evaluate(query, ctx);
        hits.into_iter().cloned().collect()
    }

    /// Runs the distributed search from `root` under `plan`'s failures.
    /// Returns `None` if the root was down.
    pub fn search(
        &self,
        root: NodeId,
        query: &Query,
        ctx: &RequesterContext,
        plan: &FailurePlan,
        seed: u64,
    ) -> Option<SearchOutcome> {
        let (local_matches, distinct) = self.count(query, ctx);
        let cfg = BroadcastConfig {
            root,
            local_matches,
            grace: SimDuration::from_units(2.0),
            seed,
        };
        let out = self.tree.broadcast(&cfg, plan)?;
        Some(SearchOutcome {
            matches: out.aggregate.matches,
            responded: out.aggregate.responded,
            unavailable: out.aggregate.unavailable,
            completed_at: out.completed_at,
            ground_truth_matches: distinct,
        })
    }

    /// The §3.3.1B cost table: per-region delivery cost as seen from the
    /// root's region.
    pub(crate) fn cost_table(&self, root: NodeId) -> RegionCostTable {
        lems_mst::broadcast::region_cost_table(
            &self.topology,
            &self.two_level,
            self.topology.region(root),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::{AttrKey, AttributeSet, Visibility};
    use lems_net::generators::{multi_region, MultiRegionConfig};
    use lems_sim::actor::ActorId;
    use lems_sim::rng::SimRng;

    fn network(seed: u64) -> AttributeNetwork {
        let mut rng = SimRng::seed(seed);
        let cfg = MultiRegionConfig {
            regions: 3,
            hosts_per_region: 2,
            servers_per_region: 2,
            ..MultiRegionConfig::default()
        };
        let raw = multi_region(&mut rng, &cfg);
        // Distinct weights for deterministic trees.
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
            a.add(AttrKey::Expertise, "mail", Visibility::Public);
            reg.upsert(format!("r{}.h.user{i}", t.region(s).0).parse().unwrap(), a);
            if i % 2 == 0 {
                let mut b = AttributeSet::new();
                b.add(AttrKey::Expertise, "networks", Visibility::Public);
                reg.upsert(format!("r{}.h.extra{i}", t.region(s).0).parse().unwrap(), b);
            }
            registries.insert(s, reg);
        }
        AttributeNetwork::new(t, registries)
    }

    #[test]
    fn failure_free_search_matches_ground_truth() {
        let net = network(1);
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
        assert_eq!(out.matches, out.ground_truth_matches);
        assert_eq!(out.matches, 6); // one per server
        assert_eq!(out.responded as usize, net.topology().node_count());
        assert_eq!(out.unavailable, 0);
    }

    #[test]
    fn failures_cost_matches_and_are_reported() {
        let net = network(2);
        let root = net.topology().servers()[0];
        let q = Query::text_eq(AttrKey::Expertise, "mail");
        // Kill a non-root server for the whole run.
        let victim = net.topology().servers()[3];
        let mut plan = FailurePlan::new();
        plan.add_outage(ActorId(victim.0), SimTime::ZERO, SimTime::from_units(1e9))
            .unwrap();
        let out = net
            .search(root, &q, &RequesterContext::default(), &plan, 2)
            .unwrap();
        assert!(out.matches < out.ground_truth_matches);
        assert!(out.unavailable >= 1);
    }

    #[test]
    fn a_user_registered_at_two_servers_shows_as_a_surplus() {
        let net = network(4);
        let servers = net.topology().servers();
        let twice = net.registry(servers[0]).unwrap().clone();
        let mut registries: BTreeMap<NodeId, AttributeRegistry> = servers
            .iter()
            .map(|&s| (s, net.registry(s).unwrap().clone()))
            .collect();
        registries.insert(servers[5], twice);
        let net = AttributeNetwork::new(net.topology().clone(), registries);

        let q = Query::text_eq(AttrKey::Expertise, "mail");
        let ctx = RequesterContext::default();
        let out = net
            .search(servers[0], &q, &ctx, &FailurePlan::new(), 4)
            .unwrap();
        // Servers 0 and 5 both answer for `user0`; server 5's own user is gone.
        assert_eq!(out.matches, 6);
        assert_eq!(out.ground_truth_matches, 5);
        assert_eq!(net.central_matches(&q, &ctx).len(), 5);
    }

    /// Visiting registries by their smallest name is what makes the hits
    /// arrive sorted when name ranges do not interleave; when they do, the
    /// answer must not depend on it.
    #[test]
    fn interleaved_name_ranges_still_count_each_user_once() {
        let net = network(6);
        let servers = net.topology().servers();
        let mut registries: BTreeMap<NodeId, AttributeRegistry> = servers
            .iter()
            .map(|&s| (s, net.registry(s).unwrap().clone()))
            .collect();
        for (server, names) in [
            (servers[1], ["a.h.ann", "m.h.both", "z.h.zed"]),
            (servers[4], ["b.h.bob", "m.h.both", "y.h.yan"]),
        ] {
            let registry = registries.get_mut(&server).unwrap();
            for name in names {
                let mut a = AttributeSet::new();
                a.add(AttrKey::Expertise, "mail", Visibility::Public);
                registry.upsert(name.parse().unwrap(), a);
            }
        }
        let net = AttributeNetwork::new(net.topology().clone(), registries);

        let q = Query::text_eq(AttrKey::Expertise, "mail");
        let ctx = RequesterContext::default();
        let out = net
            .search(servers[0], &q, &ctx, &FailurePlan::new(), 6)
            .unwrap();
        // Six servers' own users, five new names, `m.h.both` at two servers.
        assert_eq!(out.matches, 12);
        assert_eq!(out.matches - out.ground_truth_matches, 1);
        let central = net.central_matches(&q, &ctx);
        assert_eq!(out.ground_truth_matches, central.len() as u64);
        assert!(central.is_sorted());
    }

    #[test]
    #[should_panic(expected = "not a node of the topology")]
    fn registry_at_an_unknown_node_is_rejected() {
        let net = network(5);
        let stray = NodeId(net.topology().node_count());
        let registries = BTreeMap::from([(stray, AttributeRegistry::new())]);
        let _ = AttributeNetwork::new(net.topology().clone(), registries);
    }

    #[test]
    fn cost_table_covers_every_region() {
        let net = network(3);
        let root = net.topology().servers()[0];
        let table = net.cost_table(root);
        assert_eq!(table.rows.len(), 3);
        assert!(table.total() > 0.0);
        // The root's own region has no backbone component; it must be the
        // row with the smallest backbone contribution (not necessarily the
        // cheapest overall, but finite).
        assert!(table.rows.iter().all(|&(_, c)| c.is_finite()));
    }
}
