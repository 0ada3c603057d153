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

use std::collections::BTreeMap;
use std::sync::Arc;

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

/// Every node's tree links, node after node: node `i`'s are
/// `links[offsets[i]..offsets[i + 1]]`.
#[derive(Debug)]
struct Links {
    links: Vec<Link>,
    offsets: Vec<usize>,
}

impl Links {
    fn of(&self, node: usize) -> &[Link] {
        &self.links[self.offsets[node]..self.offsets[node + 1]]
    }

    fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }
}

/// One tree node in the broadcast/convergecast protocol. The protocol is
/// hop-by-hop, so a node knows its own tree links and nothing else of the
/// network.
struct BcastNode {
    /// The tree's links, shared by every node; this node's are
    /// `links.of(node)`.
    links: Arc<Links>,
    node: usize,
    /// Matches this node contributes (its local search result).
    local_matches: u64,
    /// Per-child aggregation state for the in-flight query. The root's
    /// query comes from no tree neighbour, so it alone has no parent.
    parent: Option<Link>,
    waiting_children: Vec<ActorId>,
    acc: Aggregate,
    timer: Option<TimerId>,
    /// How long to wait for children before marking them unavailable
    /// (precomputed per node from its subtree depth).
    timeout: SimDuration,
    /// Filled in at the root when the convergecast completes.
    result: Option<(Aggregate, SimTime)>,
}

impl BcastNode {
    fn finish(&mut self, ctx: &mut Ctx<'_, BcastMsg>) {
        if let Some(t) = self.timer.take() {
            ctx.remove_timer(t);
        }
        let mut out = self.acc;
        out.responded += 1;
        out.matches += self.local_matches;
        match self.parent {
            Some((parent, delay)) => ctx.send(parent, BcastMsg::Response(out), delay),
            None => self.result = Some((out, ctx.now())),
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
                let links = self.links.of(self.node);
                self.parent = links.iter().copied().find(|&(n, _)| n == from);
                self.acc = Aggregate::default();
                self.waiting_children.clear();
                for &(child, delay) in links {
                    if child != from {
                        self.waiting_children.push(child);
                        ctx.send(child, BcastMsg::Query, delay);
                    }
                }
                if !self.waiting_children.is_empty() {
                    self.timer = Some(ctx.set_timer(self.timeout));
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

    fn on_timer(&mut self, _id: TimerId, ctx: &mut Ctx<'_, BcastMsg>) {
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

/// Configuration for one broadcast ([`PreparedTree::broadcast`],
/// [`simulate_broadcast`]).
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
fn subtree_timeouts(links: &Links, root: NodeId, grace: SimDuration) -> Vec<SimDuration> {
    let n = links.node_count();
    // Orient the tree: compute order by DFS from root.
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut order = Vec::with_capacity(n);
    let mut stack = vec![root.0];
    let mut seen = vec![false; n];
    seen[root.0] = true;
    while let Some(u) = stack.pop() {
        order.push(u);
        for &(ActorId(v), _) in links.of(u) {
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
        for &(ActorId(v), delay) in links.of(u) {
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

/// A spanning tree wired for broadcasts: each node's tree links with the
/// delay across each, looked up in the graph once. The tree of a network
/// does not change from one broadcast to the next, so a caller that runs
/// many keeps one and [`broadcast`](Self::broadcast)s over it; cloning
/// it shares the links.
#[derive(Clone, Debug)]
pub struct PreparedTree {
    links: Arc<Links>,
}

impl PreparedTree {
    /// Wires `tree_adjacency`, a spanning tree of `g` as per-node
    /// neighbour lists (node `i` is actor `i` of every broadcast).
    ///
    /// # Panics
    ///
    /// Panics if the adjacency is not shaped for `g`, or names a pair of
    /// nodes `g` has no edge between.
    #[expect(
        clippy::panic,
        reason = "a tree edge the graph lacks is a caller bug, not a run outcome"
    )]
    pub fn new(g: &Graph, tree_adjacency: &[Vec<NodeId>]) -> Self {
        assert_eq!(
            tree_adjacency.len(),
            g.node_count(),
            "adjacency must cover every node"
        );
        let mut links = Vec::with_capacity(tree_adjacency.iter().map(Vec::len).sum());
        let mut offsets = Vec::with_capacity(g.node_count() + 1);
        offsets.push(0);
        for u in g.nodes() {
            for &v in &tree_adjacency[u.0] {
                match g.edge_between(u, v) {
                    Some(eid) => links.push((ActorId(v.0), g.edge(eid).weight.as_duration())),
                    None => panic!("tree adjacency names {u}-{v}, which is not an edge"),
                }
            }
            offsets.push(links.len());
        }
        PreparedTree {
            links: Arc::new(Links { links, offsets }),
        }
    }

    /// Runs the broadcast/convergecast protocol over this tree, with
    /// failures from `plan` (indexed by node id).
    ///
    /// Returns `None` if the root itself is down for the whole run, or if
    /// the run exceeds a budget of a million events without quiescing (a
    /// livelocked retry loop rather than a finishing protocol).
    ///
    /// # Panics
    ///
    /// Panics if the engine does not hand actor ids out in registration
    /// order: node `i` must be actor `i`.
    pub fn broadcast(&self, cfg: &BroadcastConfig, plan: &FailurePlan) -> Option<BroadcastOutcome> {
        let sim = self.run(cfg, plan)?;
        let root: &BcastNode = sim.actor(ActorId(cfg.root.0))?;
        let (aggregate, completed_at) = root.result?;
        Some(BroadcastOutcome {
            aggregate,
            completed_at,
        })
    }

    /// Builds one broadcast's engine and runs it: `None` if the run does
    /// not quiesce within [`BROADCAST_EVENT_BUDGET`].
    fn run(&self, cfg: &BroadcastConfig, plan: &FailurePlan) -> Option<ActorSim<BcastMsg>> {
        let n = self.links.node_count();
        let timeouts = subtree_timeouts(&self.links, cfg.root, cfg.grace);

        // Node i is actor i: the engine is fresh and hands ids out in
        // registration order (asserted below). Each node is given its own
        // tree links and nothing else.
        let mut sim: ActorSim<BcastMsg> = ActorSim::new(cfg.seed);
        for (node, &timeout) in timeouts.iter().enumerate() {
            let aid = sim.add_actor(BcastNode {
                links: Arc::clone(&self.links),
                node,
                local_matches: cfg.local_matches.get(node).copied().unwrap_or(0),
                parent: None,
                waiting_children: Vec::new(),
                acc: Aggregate::default(),
                timer: None,
                timeout,
                result: None,
            });
            assert_eq!(aid, ActorId(node), "node i is actor i");
        }

        // Apply failures (the plan is indexed by node id, which is the actor id).
        for actor in plan.affected_actors() {
            if actor.0 < n {
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
        sim.run_to_quiescence_bounded(BROADCAST_EVENT_BUDGET)
            .then_some(sim)
    }
}

/// Runs the broadcast/convergecast protocol over `tree_adjacency` (a
/// spanning tree of `g`), with failures from `plan` (indexed by node id):
/// [`PreparedTree::new`] then [`PreparedTree::broadcast`], for a caller
/// that broadcasts over a tree once.
///
/// Returns `None` if the root itself is down for the whole run, or if the
/// run exceeds a budget of a million events without quiescing (a
/// livelocked retry loop rather than a finishing protocol).
///
/// # Panics
///
/// Panics if the adjacency is not shaped for `g`, or names a pair of nodes
/// `g` has no edge between.
pub fn simulate_broadcast(
    g: &Graph,
    tree_adjacency: &[Vec<NodeId>],
    cfg: &BroadcastConfig,
    plan: &FailurePlan,
) -> Option<BroadcastOutcome> {
    PreparedTree::new(g, tree_adjacency).broadcast(cfg, plan)
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

    /// Runs one broadcast over `adjacency` from `root` and hands back its
    /// quiesced engine.
    fn engine(
        g: &Graph,
        adjacency: &[Vec<NodeId>],
        root: NodeId,
        plan: &FailurePlan,
    ) -> ActorSim<BcastMsg> {
        let cfg = BroadcastConfig {
            root,
            local_matches: vec![1; g.node_count()],
            grace: SimDuration::from_units(2.0),
            seed: 5,
        };
        PreparedTree::new(g, adjacency)
            .run(&cfg, plan)
            .expect("the broadcast must quiesce")
    }

    /// Every node takes its timeout out of the queue as it finishes, so a
    /// fault-free broadcast pops its query's deliveries and nothing else:
    /// one down and one up each tree edge, plus the injection.
    #[test]
    fn a_fault_free_broadcast_pops_no_timer() {
        use crate::backbone::build_two_level;
        use lems_net::generators::{multi_region, MultiRegionConfig};
        use lems_sim::rng::SimRng;

        let path = chain(6);
        let t = multi_region(
            &mut SimRng::seed(11),
            &MultiRegionConfig {
                regions: 4,
                hosts_per_region: 5,
                servers_per_region: 3,
                ..MultiRegionConfig::default()
            },
        );
        for (g, adjacency, root) in [
            (&path, tree_adj(&path), NodeId(0)),
            (t.graph(), build_two_level(&t).adjacency(&t), t.servers()[0]),
        ] {
            let sim = engine(g, &adjacency, root, &FailurePlan::new());
            let n = g.node_count() as u64;
            let c = sim.counters();
            assert_eq!(c.delivered.get(), 2 * (n - 1) + 1);
            assert_eq!((c.timers_fired.get(), c.timers_suppressed.get()), (0, 0));
            let root = sim.actor::<BcastNode>(ActorId(root.0)).unwrap();
            assert_eq!(root.result.map(|(agg, _)| agg.responded), Some(n));
        }
    }

    /// Under `dead_subtree_is_marked_unavailable`'s plan exactly one
    /// timer fires: that of the dead node's parent, which marks it.
    #[test]
    fn a_dead_node_fires_only_its_parents_timer() {
        let g = chain(6);
        let mut plan = FailurePlan::new();
        plan.add_outage(ActorId(3), SimTime::ZERO, SimTime::from_units(1e9))
            .unwrap();
        let sim = engine(&g, &tree_adj(&g), NodeId(0), &plan);
        assert_eq!(sim.counters().timers_fired.get(), 1);
        assert_eq!(sim.counters().timers_suppressed.get(), 0);
        // Node 2 heard nothing from its one child: only its own timeout
        // finishes it.
        let parent = sim.actor::<BcastNode>(ActorId(2)).unwrap();
        let marked = Aggregate {
            unavailable: 1,
            ..Aggregate::default()
        };
        assert_eq!((parent.acc, parent.timer), (marked, None));
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

    /// One tree wired once and broadcast over again and again, from
    /// several roots and under random outages (some with the root down
    /// throughout), answers as a tree wired afresh for every run: nothing
    /// of one broadcast outlives it.
    #[test]
    fn a_prepared_tree_answers_as_one_wired_afresh() {
        use crate::backbone::build_two_level;
        use lems_net::generators::{multi_region, MultiRegionConfig};
        use lems_sim::rng::SimRng;

        let mut rng = SimRng::seed(11);
        let cfg = MultiRegionConfig {
            regions: 4,
            hosts_per_region: 5,
            servers_per_region: 3,
            ..MultiRegionConfig::default()
        };
        let t = multi_region(&mut rng, &cfg);
        let g = t.graph();
        let adjacency = build_two_level(&t).adjacency(&t);
        let tree = PreparedTree::new(g, &adjacency);
        let local_matches: Vec<u64> = g.nodes().map(|n| n.0 as u64 % 3).collect();
        let (mut lost, mut root_down) = (0, 0);
        for round in 0..24 {
            let root = t.servers()[round % t.servers().len()];
            let others: Vec<ActorId> = g
                .nodes()
                .filter(|&n| n != root)
                .map(|n| ActorId(n.0))
                .collect();
            let mut plan = match round % 4 {
                0 => FailurePlan::new(),
                _ => FailurePlan::random(
                    &mut rng,
                    &others,
                    SimDuration::from_units(400.0),
                    SimDuration::from_units(40.0),
                    SimTime::from_units(400.0),
                )
                .unwrap(),
            };
            if round % 8 == 5 {
                plan.add_outage(ActorId(root.0), SimTime::ZERO, SimTime::from_units(1e9))
                    .unwrap();
            }
            let cfg = BroadcastConfig {
                root,
                local_matches: local_matches.clone(),
                grace: SimDuration::from_units(2.0),
                seed: round as u64,
            };
            let prepared = tree.broadcast(&cfg, &plan);
            assert_eq!(
                prepared,
                simulate_broadcast(g, &adjacency, &cfg, &plan),
                "round {round}"
            );
            match prepared {
                Some(out) => lost += u64::from(out.aggregate.unavailable > 0),
                None => root_down += 1,
            }
        }
        assert_eq!(root_down, 3);
        assert!(lost > 0, "no outage cost a subtree");
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
