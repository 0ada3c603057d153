//! Broadcasting and response collection over a spanning tree (§3.3.1A/B).
//!
//! "Upon receiving a request from the parent node in the MST, each node
//! sends the message to its children nodes, and waits for the messages to
//! come back from all the children nodes. It then combines them into a
//! single summary message and returns it to its parent node. … a parent
//! node should time out if it waits for a certain period of time and the
//! unavailable estimates can be marked so."
//!
//! The actor-based simulation exercises exactly that protocol, including
//! node failures masked by parent timeouts; pure cost functions compare
//! MST broadcast against flooding and per-recipient unicast (the paper's
//! efficiency argument for using the MST).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

#[cfg(test)]
use lems_net::graph::Weight;
use lems_net::graph::{Graph, NodeId};
use lems_net::shortest_path::DistanceTable;
use lems_sim::actor::{Actor, ActorId, ActorSim, Ctx, TimerId};
use lems_sim::failure::FailurePlan;
use lems_sim::time::{SimDuration, SimTime};

/// Aggregated result flowing up the tree.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Aggregate {
    /// Nodes that answered (including the subtree root).
    pub responded: u64,
    /// Matches found (e.g. users whose attributes satisfy the query).
    pub matches: u64,
    /// Subtrees marked unavailable by a parent timeout.
    pub unavailable: u64,
}

impl Aggregate {
    fn merge(&mut self, other: Aggregate) {
        self.responded += other.responded;
        self.matches += other.matches;
        self.unavailable += other.unavailable;
    }
}

/// Tree protocol messages.
#[derive(Clone, Copy, Debug)]
pub enum BcastMsg {
    /// Query flowing down from the parent.
    Query,
    /// Aggregated response flowing up to the parent.
    Response(Aggregate),
}

/// A tree neighbour: the actor simulating it and the delay across the
/// edge to it.
type Link = (ActorId, SimDuration);

/// One tree node in the broadcast/convergecast protocol. The protocol is
/// hop-by-hop, so a node knows its own tree links and nothing else of the
/// network.
struct BcastNode {
    links: Vec<Link>,
    /// Matches this node contributes (its local search result).
    local_matches: u64,
    /// Per-child aggregation state for the in-flight query.
    parent: Option<Link>,
    waiting_children: Vec<ActorId>,
    acc: Aggregate,
    timer: Option<TimerId>,
    /// How long to wait for children before marking them unavailable
    /// (precomputed per node from its subtree depth).
    timeout: SimDuration,
    /// Filled in at the root when the convergecast completes.
    result: Rc<RefCell<Option<(Aggregate, SimTime)>>>,
    is_root: bool,
}

impl BcastNode {
    fn finish(&mut self, ctx: &mut Ctx<'_, BcastMsg>) {
        if let Some(t) = self.timer.take() {
            ctx.cancel_timer(t);
        }
        let mut out = self.acc;
        out.responded += 1;
        out.matches += self.local_matches;
        if self.is_root {
            *self.result.borrow_mut() = Some((out, ctx.now()));
        } else if let Some((parent, delay)) = self.parent {
            ctx.send(parent, BcastMsg::Response(out), delay);
        }
    }

    fn maybe_finish(&mut self, ctx: &mut Ctx<'_, BcastMsg>) {
        if self.waiting_children.is_empty() {
            self.finish(ctx);
        }
    }
}

impl Actor for BcastNode {
    type Msg = BcastMsg;

    fn on_message(&mut self, from: ActorId, msg: BcastMsg, ctx: &mut Ctx<'_, BcastMsg>) {
        match msg {
            BcastMsg::Query => {
                // The injected query comes from no neighbour: no parent.
                self.parent = self.links.iter().copied().find(|&(n, _)| n == from);
                self.acc = Aggregate::default();
                self.waiting_children.clear();
                for &(child, delay) in &self.links {
                    if child != from {
                        self.waiting_children.push(child);
                        ctx.send(child, BcastMsg::Query, delay);
                    }
                }
                if !self.waiting_children.is_empty() {
                    self.timer = Some(ctx.set_timer(self.timeout, 0));
                }
                self.maybe_finish(ctx);
            }
            BcastMsg::Response(agg) => {
                if let Some(pos) = self.waiting_children.iter().position(|&c| c == from) {
                    self.waiting_children.swap_remove(pos);
                    self.acc.merge(agg);
                    self.maybe_finish(ctx);
                }
            }
        }
    }

    fn on_timer(&mut self, _id: TimerId, _tag: u64, ctx: &mut Ctx<'_, BcastMsg>) {
        // Children that have not answered are marked unavailable, as the
        // paper prescribes.
        self.timer = None;
        self.acc.unavailable += self.waiting_children.len() as u64;
        self.waiting_children.clear();
        self.finish(ctx);
    }
}

/// Outcome of one simulated broadcast/convergecast.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BroadcastOutcome {
    /// The root's final aggregate.
    pub aggregate: Aggregate,
    /// Virtual time from query injection to root completion.
    pub completed_at: SimTime,
}

/// Configuration for [`simulate_broadcast`].
#[derive(Clone, Debug)]
pub struct BroadcastConfig {
    /// The node initiating the query.
    pub root: NodeId,
    /// Matches contributed by each node (aligned with graph nodes;
    /// missing entries count 0).
    pub local_matches: Vec<u64>,
    /// Extra waiting slack granted per tree level. Each node's timeout is
    /// `2 × (its subtree's longest path delay) + grace × (levels below + 1)`,
    /// so a parent always outlasts its children's own timeouts.
    pub grace: SimDuration,
    /// Engine seed.
    pub seed: u64,
}

/// Computes each node's timeout from the tree `links` oriented at `root`
/// (node `i` is actor `i`).
fn subtree_timeouts(links: &[Vec<Link>], root: NodeId, grace: SimDuration) -> Vec<SimDuration> {
    let n = links.len();
    // Orient the tree: compute order by DFS from root.
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut order = Vec::with_capacity(n);
    let mut stack = vec![root.0];
    let mut seen = vec![false; n];
    seen[root.0] = true;
    while let Some(u) = stack.pop() {
        order.push(u);
        for &(ActorId(v), _) in &links[u] {
            if !seen[v] {
                seen[v] = true;
                parent[v] = Some(u);
                stack.push(v);
            }
        }
    }
    // Bottom-up: longest path delay and height below each node.
    let mut path_delay = vec![SimDuration::ZERO; n];
    let mut height = vec![0u32; n];
    for &u in order.iter().rev() {
        for &(ActorId(v), delay) in &links[u] {
            if parent[v] == Some(u) {
                let d = delay + path_delay[v];
                if d > path_delay[u] {
                    path_delay[u] = d;
                }
                height[u] = height[u].max(height[v] + 1);
            }
        }
    }
    (0..n)
        .map(|i| path_delay[i] * 2 + grace * u64::from(height[i] + 1))
        .collect()
}

/// Event budget for one broadcast/convergecast run. The protocol
/// processes O(nodes) messages plus bounded retry timers, so any
/// legitimate run sits orders of magnitude below this; exhausting it
/// means a non-converging retry loop, reported as a failed broadcast.
pub(crate) const BROADCAST_EVENT_BUDGET: u64 = 1_000_000;

/// Runs the broadcast/convergecast protocol over `tree_adjacency` (a
/// spanning tree of `g`), with failures from `plan` (indexed by node id).
///
/// Returns `None` if the root itself is down for the whole run, or if the
/// run exceeds a budget of a million events without quiescing (a
/// livelocked retry loop rather than a finishing protocol).
///
/// # Panics
///
/// Panics if the adjacency is not shaped for `g`, or names a pair of nodes
/// `g` has no edge between.
#[expect(
    clippy::panic,
    reason = "a tree edge the graph lacks is a caller bug, not a run outcome"
)]
pub fn simulate_broadcast(
    g: &Graph,
    tree_adjacency: &[Vec<NodeId>],
    cfg: &BroadcastConfig,
    plan: &FailurePlan,
) -> Option<BroadcastOutcome> {
    assert_eq!(
        tree_adjacency.len(),
        g.node_count(),
        "adjacency must cover every node"
    );
    // Node i is actor i: the engine is fresh and hands ids out in
    // registration order (asserted below). Each node is given the delays of
    // its own tree edges and nothing else.
    let links: Vec<Vec<Link>> = g
        .nodes()
        .map(|u| {
            tree_adjacency[u.0]
                .iter()
                .map(|&v| match g.edge_between(u, v) {
                    Some(eid) => (ActorId(v.0), g.edge(eid).weight.as_duration()),
                    None => panic!("tree adjacency names {u}-{v}, which is not an edge"),
                })
                .collect()
        })
        .collect();
    let timeouts = subtree_timeouts(&links, cfg.root, cfg.grace);
    let result: Rc<RefCell<Option<(Aggregate, SimTime)>>> = Rc::new(RefCell::new(None));

    let mut sim: ActorSim<BcastMsg> = ActorSim::new(cfg.seed);
    for (n, links) in g.nodes().zip(links) {
        let aid = sim.add_actor(BcastNode {
            links,
            local_matches: cfg.local_matches.get(n.0).copied().unwrap_or(0),
            parent: None,
            waiting_children: Vec::new(),
            acc: Aggregate::default(),
            timer: None,
            timeout: timeouts[n.0],
            result: Rc::clone(&result),
            is_root: n == cfg.root,
        });
        assert_eq!(aid, ActorId(n.0), "node i is actor i");
    }

    // Apply failures (the plan is indexed by node id, which is the actor id).
    for actor in plan.affected_actors() {
        if actor.0 < g.node_count() {
            for o in plan.outages(actor) {
                sim.schedule_crash(actor, o.down_at);
                sim.schedule_recover(actor, o.up_at);
            }
        }
    }

    sim.inject(
        ActorId(cfg.root.0),
        BcastMsg::Query,
        SimDuration::from_units(0.001),
    );
    if !sim.run_to_quiescence_bounded(BROADCAST_EVENT_BUDGET) {
        return None;
    }

    let out = result.borrow();
    out.map(|(aggregate, completed_at)| BroadcastOutcome {
        aggregate,
        completed_at,
    })
}

/// Pure cost comparison (§3.3.1B): "the total cost of traversing the MST
/// is the sum of the weights of the MST".
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CostComparison {
    /// Broadcast once over the tree edges.
    pub mst_units: f64,
    /// Naive flooding: one transmission on every edge of the graph.
    pub flooding_units: f64,
    /// Separate unicast from the root to every other node along shortest
    /// paths.
    pub unicast_units: f64,
}

/// Computes all three costs for broadcasting from `root` over the tree
/// whose edge ids are `tree_edges`.
pub fn cost_comparison(
    g: &Graph,
    dist: &DistanceTable,
    root: NodeId,
    tree_edges: &[lems_net::graph::EdgeId],
) -> CostComparison {
    let mst_units: f64 = tree_edges
        .iter()
        .map(|&e| g.edge(e).weight.as_units())
        .sum();
    let flooding_units: f64 = g.edges().iter().map(|e| e.weight.as_units()).sum();
    let unicast_units: f64 = g
        .nodes()
        .filter(|&n| n != root)
        .map(|n| dist.distance(root, n).as_units())
        .sum();
    CostComparison {
        mst_units,
        flooding_units,
        unicast_units,
    }
}

/// Per-region cost table of §3.3.1B: "a table listing the costs for
/// delivery to the targeted recipients in each region can be generated.
/// The user who is interested in broadcasting mail then can choose the
/// regions he wants to send his mail to."
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RegionCostTable {
    /// `(region, delivery cost in units)`, ascending by region id.
    pub rows: Vec<(lems_net::topology::RegionId, f64)>,
}

impl RegionCostTable {
    /// Total cost of broadcasting to every region.
    pub fn total(&self) -> f64 {
        self.rows.iter().map(|&(_, c)| c).sum()
    }

    /// Cheapest subset of regions whose combined cost fits `budget`
    /// (greedy, cheapest-first — the flow-control use of the table).
    pub fn regions_within_budget(&self, budget: f64) -> Vec<lems_net::topology::RegionId> {
        let mut rows = self.rows.clone();
        rows.sort_by(|a, b| a.1.total_cmp(&b.1));
        let mut chosen = Vec::new();
        let mut spent = 0.0;
        for (r, c) in rows {
            if spent + c <= budget {
                spent += c;
                chosen.push(r);
            }
        }
        chosen.sort_unstable();
        chosen
    }
}

/// Builds the per-region cost table for a two-level structure: a region's
/// cost is its local MST weight plus the backbone edges on the (backbone)
/// path from the root's region.
pub fn region_cost_table(
    t: &lems_net::topology::Topology,
    two_level: &crate::backbone::TwoLevelMst,
    root_region: lems_net::topology::RegionId,
) -> RegionCostTable {
    use lems_net::topology::RegionId;
    let regions = t.region_ids();
    // Build the backbone graph over regions to compute path costs.
    let index: BTreeMap<RegionId, usize> =
        regions.iter().enumerate().map(|(i, &r)| (r, i)).collect();
    let mut bg = Graph::with_nodes(regions.len());
    for &eid in &two_level.backbone_edges {
        let e = t.graph().edge(eid);
        bg.add_edge(
            NodeId(index[&t.region(e.a)]),
            NodeId(index[&t.region(e.b)]),
            e.weight,
        );
    }
    let dist = DistanceTable::build(&bg);
    let root_idx = NodeId(index[&root_region]);

    let rows = regions
        .iter()
        .map(|&r| {
            let local: f64 = two_level.local_edges[&r]
                .iter()
                .map(|&e| t.graph().edge(e).weight.as_units())
                .sum();
            let backbone = if r == root_region {
                0.0
            } else {
                let w = dist.distance(root_idx, NodeId(index[&r]));
                if w.is_infinite() {
                    f64::INFINITY
                } else {
                    w.as_units()
                }
            };
            (r, local + backbone)
        })
        .collect();
    RegionCostTable { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lems_net::mst::kruskal;
    use lems_sim::actor::ActorId;

    fn chain(n: usize) -> Graph {
        let mut g = Graph::with_nodes(n);
        for i in 1..n {
            g.add_edge(
                NodeId(i - 1),
                NodeId(i),
                Weight::from_units(1.0 + i as f64 * 0.125),
            );
        }
        g
    }

    fn tree_adj(g: &Graph) -> Vec<Vec<NodeId>> {
        kruskal(g).adjacency(g)
    }

    #[test]
    fn full_tree_aggregation() {
        let g = chain(6);
        let adj = tree_adj(&g);
        let cfg = BroadcastConfig {
            root: NodeId(0),
            local_matches: vec![1, 0, 2, 0, 3, 1],
            grace: SimDuration::from_units(2.0),
            seed: 1,
        };
        let out = simulate_broadcast(&g, &adj, &cfg, &FailurePlan::new()).unwrap();
        assert_eq!(out.aggregate.responded, 6);
        assert_eq!(out.aggregate.matches, 7);
        assert_eq!(out.aggregate.unavailable, 0);
    }

    #[test]
    fn dead_subtree_is_marked_unavailable() {
        let g = chain(6);
        let adj = tree_adj(&g);
        let mut plan = FailurePlan::new();
        // Node 3 dead for the whole run: nodes 3,4,5 unreachable.
        plan.add_outage(ActorId(3), SimTime::ZERO, SimTime::from_units(1e9))
            .unwrap();
        let cfg = BroadcastConfig {
            root: NodeId(0),
            local_matches: vec![1; 6],
            grace: SimDuration::from_units(2.0),
            seed: 2,
        };
        let out = simulate_broadcast(&g, &adj, &cfg, &plan).unwrap();
        assert_eq!(out.aggregate.responded, 3); // 0,1,2
        assert_eq!(out.aggregate.matches, 3);
        assert_eq!(out.aggregate.unavailable, 1); // node 2 marked its child
    }

    #[test]
    fn root_down_returns_none() {
        let g = chain(3);
        let adj = tree_adj(&g);
        let mut plan = FailurePlan::new();
        plan.add_outage(ActorId(0), SimTime::ZERO, SimTime::from_units(1e9))
            .unwrap();
        let cfg = BroadcastConfig {
            root: NodeId(0),
            local_matches: vec![1; 3],
            grace: SimDuration::from_units(2.0),
            seed: 3,
        };
        assert_eq!(simulate_broadcast(&g, &adj, &cfg, &plan), None);
    }

    #[test]
    fn star_aggregates_in_one_round() {
        let mut g = Graph::with_nodes(5);
        for i in 1..5 {
            g.add_edge(NodeId(0), NodeId(i), Weight::from_units(i as f64));
        }
        let adj = tree_adj(&g);
        let cfg = BroadcastConfig {
            root: NodeId(0),
            local_matches: vec![0, 1, 1, 1, 1],
            grace: SimDuration::from_units(2.0),
            seed: 4,
        };
        let out = simulate_broadcast(&g, &adj, &cfg, &FailurePlan::new()).unwrap();
        assert_eq!(out.aggregate.matches, 4);
        // Completion = 2 × the slowest spoke (4 units), plus injection;
        // well inside the root's timeout of 8 + grace.
        assert!(out.completed_at <= SimTime::from_units(8.01));
    }

    #[test]
    fn mst_broadcast_is_cheapest() {
        // A graph with redundancy: flooding must cost more than the tree.
        let mut g = Graph::with_nodes(6);
        for i in 0..6 {
            for j in (i + 1)..6 {
                g.add_edge(
                    NodeId(i),
                    NodeId(j),
                    Weight::from_units(1.0 + (i * 7 + j) as f64 * 0.25),
                );
            }
        }
        let tree = kruskal(&g);
        let dist = DistanceTable::build(&g);
        let c = cost_comparison(&g, &dist, NodeId(0), tree.edges());
        assert!(c.mst_units < c.flooding_units);
        assert!(c.mst_units <= c.unicast_units);
    }

    #[test]
    fn region_cost_table_budget_selection() {
        let table = RegionCostTable {
            rows: vec![
                (lems_net::topology::RegionId(0), 5.0),
                (lems_net::topology::RegionId(1), 20.0),
                (lems_net::topology::RegionId(2), 10.0),
            ],
        };
        assert_eq!(table.total(), 35.0);
        let chosen = table.regions_within_budget(16.0);
        assert_eq!(
            chosen,
            vec![
                lems_net::topology::RegionId(0),
                lems_net::topology::RegionId(2)
            ]
        );
        assert!(table.regions_within_budget(1.0).is_empty());
    }
}
