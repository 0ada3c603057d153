//! The distributed minimum-spanning-tree algorithm of Gallager, Humblet,
//! and Spira \[GAL83\], §3.3.1A(i) of the paper.
//!
//! "Each node performs the same local algorithm, which consists of sending
//! messages over attached links and waiting for incoming messages and
//! processing these messages. Messages can be transmitted independently in
//! both directions on an edge and arrive after an unpredictable but finite
//! delay, without error and in sequence." — exactly the semantics of
//! `lems-sim`'s actor engine with FIFO links.
//!
//! This is a faithful transcription of the GHS automaton: node states
//! *Sleeping / Find / Found*, edge states *Basic / Branch / Rejected*, the
//! seven message types, level-based merging and absorbing, and deferred
//! processing ("place received message on end of queue") implemented with a
//! per-node pending queue retried after every handled message.
//!
//! Edge weights must be pairwise distinct (use
//! [`Graph::with_distinct_weights`] for graphs that are not).
//!
//! [`Graph::with_distinct_weights`]: lems_net::graph::Graph::with_distinct_weights

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use lems_net::graph::{Graph, NodeId, Weight};
use lems_sim::actor::{Actor, ActorId, ActorSim, Ctx};

use crate::messages::{FragmentId, GhsMsg, NodePhase};

/// The state of an incident edge.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EdgeState {
    /// Not yet decided.
    Basic,
    /// Part of the fragment's spanning tree.
    Branch,
    /// Proven to lead inside the same fragment.
    Rejected,
}

/// Counters for the protocol's message complexity (the paper's efficiency
/// argument: GHS uses `O(N log N + E)` messages).
#[derive(Clone, Debug, Default)]
pub struct GhsStats {
    /// Messages sent, by type tag.
    pub sent: BTreeMap<&'static str, u64>,
    /// Deferred deliveries (messages that had to wait for a local state
    /// change before they could be processed).
    pub requeues: u64,
    /// Nodes that have locally detected termination.
    pub(crate) halted_nodes: usize,
}

impl GhsStats {
    /// Total protocol messages (excluding requeues).
    pub fn total_sent(&self) -> u64 {
        self.sent.values().sum()
    }
}

/// The message envelope carried by the simulation: GHS messages are
/// edge-local, so the sending node rides along.
#[derive(Clone, Copy, Debug)]
pub struct Env {
    /// The neighbor that sent this message.
    pub(crate) from: NodeId,
    /// The protocol message.
    pub(crate) msg: GhsMsg,
}

/// One GHS node.
pub struct GhsNode {
    node: NodeId,
    /// Neighbor -> edge weight: the node's whole view of the network (GHS
    /// is hop-by-hop, so the weight is also the delay of every send).
    weights: BTreeMap<NodeId, Weight>,
    edge_state: BTreeMap<NodeId, EdgeState>,
    sleeping: bool,
    level: u32,
    fragment: FragmentId,
    phase: NodePhase,
    find_count: u32,
    best_edge: Option<NodeId>,
    best_wt: Option<Weight>,
    test_edge: Option<NodeId>,
    in_branch: Option<NodeId>,
    stats: Rc<RefCell<GhsStats>>,
    /// Messages waiting for a local state change ("place received message
    /// on end of queue" in \[GAL83\]); retried after every handled message.
    pending: Vec<Env>,
    /// Whether this node awakens spontaneously at start. GHS only needs
    /// *some* non-empty subset to do so; the rest wake on their first
    /// incoming message.
    spontaneous: bool,
}

impl GhsNode {
    fn new(node: NodeId, neighbors: &[(NodeId, Weight)], stats: Rc<RefCell<GhsStats>>) -> Self {
        GhsNode {
            node,
            weights: neighbors.iter().copied().collect(),
            edge_state: neighbors
                .iter()
                .map(|&(n, _)| (n, EdgeState::Basic))
                .collect(),
            sleeping: true,
            level: 0,
            fragment: 0,
            phase: NodePhase::Found,
            find_count: 0,
            best_edge: None,
            best_wt: None,
            test_edge: None,
            in_branch: None,
            stats,
            pending: Vec::new(),
            spontaneous: true,
        }
    }

    /// Edges currently marked Branch (the node's view of the MST).
    pub(crate) fn branches(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self
            .edge_state
            .iter()
            .filter(|&(_, &s)| s == EdgeState::Branch)
            .map(|(&n, _)| n)
            .collect();
        v.sort_unstable();
        v
    }

    fn send(&mut self, ctx: &mut Ctx<'_, Env>, to: NodeId, msg: GhsMsg) {
        *self.stats.borrow_mut().sent.entry(msg.kind()).or_insert(0) += 1;
        // Node i is actor i (asserted at spawn), and the automaton only
        // ever addresses a neighbor.
        let delay = self.weights[&to].as_duration();
        let env = Env {
            from: self.node,
            msg,
        };
        ctx.send(ActorId(to.0), env, delay);
    }

    fn defer(&mut self, from: NodeId, msg: GhsMsg) {
        self.stats.borrow_mut().requeues += 1;
        self.pending.push(Env { from, msg });
    }

    fn min_basic_edge(&self) -> Option<NodeId> {
        self.edge_state
            .iter()
            .filter(|&(_, &s)| s == EdgeState::Basic)
            .map(|(&n, _)| n)
            .min_by_key(|&n| (self.weights[&n], n))
    }

    /// Procedure *wakeup*.
    fn wakeup(&mut self, ctx: &mut Ctx<'_, Env>) {
        if !self.sleeping {
            return;
        }
        self.sleeping = false;
        // GHS requires every node to have at least one edge; an isolated
        // node (a broken input) simply never joins a fragment.
        let Some(m) = self.min_basic_edge() else {
            return;
        };
        self.edge_state.insert(m, EdgeState::Branch);
        self.level = 0;
        self.phase = NodePhase::Found;
        self.find_count = 0;
        self.send(ctx, m, GhsMsg::Connect { level: 0 });
    }

    /// Procedure *test*.
    fn test(&mut self, ctx: &mut Ctx<'_, Env>) {
        match self.min_basic_edge() {
            Some(e) => {
                self.test_edge = Some(e);
                self.send(
                    ctx,
                    e,
                    GhsMsg::Test {
                        level: self.level,
                        fragment: self.fragment,
                    },
                );
            }
            None => {
                self.test_edge = None;
                self.report(ctx);
            }
        }
    }

    /// Procedure *report*.
    fn report(&mut self, ctx: &mut Ctx<'_, Env>) {
        if self.find_count == 0 && self.test_edge.is_none() {
            self.phase = NodePhase::Found;
            // Reporting requires an in_branch (an Initiate was received).
            let Some(in_branch) = self.in_branch else {
                return;
            };
            self.send(ctx, in_branch, GhsMsg::Report { best: self.best_wt });
        }
    }

    /// Procedure *change-root*.
    fn change_root(&mut self, ctx: &mut Ctx<'_, Env>) {
        // change_root is only reached after a best edge was elected.
        let Some(best) = self.best_edge else { return };
        if self.edge_state[&best] == EdgeState::Branch {
            self.send(ctx, best, GhsMsg::ChangeRoot);
        } else {
            self.edge_state.insert(best, EdgeState::Branch);
            self.send(ctx, best, GhsMsg::Connect { level: self.level });
        }
    }

    fn on_connect(&mut self, from: NodeId, level: u32, ctx: &mut Ctx<'_, Env>) -> bool {
        if self.sleeping {
            self.wakeup(ctx);
        }
        if level < self.level {
            // Absorb the lower-level fragment.
            self.edge_state.insert(from, EdgeState::Branch);
            self.send(
                ctx,
                from,
                GhsMsg::Initiate {
                    level: self.level,
                    fragment: self.fragment,
                    phase: self.phase,
                },
            );
            if self.phase == NodePhase::Find {
                self.find_count += 1;
            }
        } else if self.edge_state[&from] == EdgeState::Basic {
            // Same/higher level over a basic edge: wait.
            self.defer(from, GhsMsg::Connect { level });
            return false;
        } else {
            // Merge: the edge becomes the new core at level+1.
            self.send(
                ctx,
                from,
                GhsMsg::Initiate {
                    level: self.level + 1,
                    fragment: self.weights[&from].0,
                    phase: NodePhase::Find,
                },
            );
        }
        true
    }

    fn on_initiate(
        &mut self,
        from: NodeId,
        level: u32,
        fragment: FragmentId,
        phase: NodePhase,
        ctx: &mut Ctx<'_, Env>,
    ) {
        self.level = level;
        self.fragment = fragment;
        self.phase = phase;
        self.in_branch = Some(from);
        self.best_edge = None;
        self.best_wt = None;
        let branch_neighbors: Vec<NodeId> = self
            .edge_state
            .iter()
            .filter(|&(&n, &s)| n != from && s == EdgeState::Branch)
            .map(|(&n, _)| n)
            .collect();
        for n in branch_neighbors {
            self.send(
                ctx,
                n,
                GhsMsg::Initiate {
                    level,
                    fragment,
                    phase,
                },
            );
            if phase == NodePhase::Find {
                self.find_count += 1;
            }
        }
        if phase == NodePhase::Find {
            self.test(ctx);
        }
    }

    fn on_test(
        &mut self,
        from: NodeId,
        level: u32,
        fragment: FragmentId,
        ctx: &mut Ctx<'_, Env>,
    ) -> bool {
        if self.sleeping {
            self.wakeup(ctx);
        }
        if level > self.level {
            self.defer(from, GhsMsg::Test { level, fragment });
            return false;
        } else if fragment != self.fragment {
            self.send(ctx, from, GhsMsg::Accept);
        } else {
            if self.edge_state[&from] == EdgeState::Basic {
                self.edge_state.insert(from, EdgeState::Rejected);
            }
            if self.test_edge == Some(from) {
                self.test(ctx);
            } else {
                self.send(ctx, from, GhsMsg::Reject);
            }
        }
        true
    }

    fn on_accept(&mut self, from: NodeId, ctx: &mut Ctx<'_, Env>) {
        self.test_edge = None;
        let w = self.weights[&from];
        if self.best_wt.is_none_or(|b| w < b) {
            self.best_edge = Some(from);
            self.best_wt = Some(w);
        }
        self.report(ctx);
    }

    fn on_reject(&mut self, from: NodeId, ctx: &mut Ctx<'_, Env>) {
        if self.edge_state[&from] == EdgeState::Basic {
            self.edge_state.insert(from, EdgeState::Rejected);
        }
        self.test(ctx);
    }

    fn on_report(&mut self, from: NodeId, best: Option<Weight>, ctx: &mut Ctx<'_, Env>) -> bool {
        if Some(from) != self.in_branch {
            self.find_count -= 1;
            if let Some(w) = best {
                if self.best_wt.is_none_or(|b| w < b) {
                    self.best_wt = Some(w);
                    self.best_edge = Some(from);
                }
            }
            self.report(ctx);
        } else if self.phase == NodePhase::Find {
            self.defer(from, GhsMsg::Report { best });
            return false;
        } else {
            // This node and `from` are the two core nodes comparing
            // subtree results.
            match (best, self.best_wt) {
                (None, None) => {
                    // Minimum outgoing edge does not exist: the fragment
                    // spans the whole graph. Halt.
                    self.stats.borrow_mut().halted_nodes += 1;
                }
                (Some(their), Some(ours)) if their > ours => self.change_root(ctx),
                (None, Some(_)) => self.change_root(ctx),
                _ => {
                    // Their side holds the minimum outgoing edge; they will
                    // change root.
                }
            }
        }
        true
    }

    /// Dispatches one message; returns false if it was deferred.
    fn dispatch(&mut self, env: Env, ctx: &mut Ctx<'_, Env>) -> bool {
        let Env { from, msg } = env;
        match msg {
            GhsMsg::Connect { level } => self.on_connect(from, level, ctx),
            GhsMsg::Initiate {
                level,
                fragment,
                phase,
            } => {
                self.on_initiate(from, level, fragment, phase, ctx);
                true
            }
            GhsMsg::Test { level, fragment } => self.on_test(from, level, fragment, ctx),
            GhsMsg::Accept => {
                self.on_accept(from, ctx);
                true
            }
            GhsMsg::Reject => {
                self.on_reject(from, ctx);
                true
            }
            GhsMsg::Report { best } => self.on_report(from, best, ctx),
            GhsMsg::ChangeRoot => {
                self.change_root(ctx);
                true
            }
        }
    }

    /// Retries deferred messages until a full pass makes no progress.
    fn drain_pending(&mut self, ctx: &mut Ctx<'_, Env>) {
        loop {
            if self.pending.is_empty() {
                return;
            }
            let batch = std::mem::take(&mut self.pending);
            let mut progressed = false;
            for env in batch {
                if self.dispatch(env, ctx) {
                    progressed = true;
                }
            }
            if !progressed {
                return;
            }
        }
    }
}

impl Actor for GhsNode {
    type Msg = Env;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Env>) {
        // GHS allows any non-empty subset of nodes to awaken
        // spontaneously; the others wake on their first message.
        if self.spontaneous {
            self.wakeup(ctx);
        }
    }

    fn on_message(&mut self, _from: ActorId, env: Env, ctx: &mut Ctx<'_, Env>) {
        self.dispatch(env, ctx);
        self.drain_pending(ctx);
    }
}

/// The result of a distributed MST run.
#[derive(Clone, Debug)]
pub struct GhsRun {
    /// The tree edges, as sorted `(a, b)` node pairs with `a < b`.
    pub edges: Vec<(NodeId, NodeId)>,
    /// Total tree weight.
    pub total_weight: Weight,
    /// Protocol statistics.
    pub stats: GhsStats,
    /// Virtual time at quiescence.
    pub finished_at: lems_sim::time::SimTime,
}

/// Runs GHS on `g` inside a fresh simulation and returns the tree.
///
/// # Examples
///
/// ```
/// use lems_net::graph::{Graph, NodeId, Weight};
/// use lems_mst::ghs::run_ghs;
///
/// let mut g = Graph::with_nodes(3);
/// g.add_edge(NodeId(0), NodeId(1), Weight::from_units(1.0));
/// g.add_edge(NodeId(1), NodeId(2), Weight::from_units(2.0));
/// g.add_edge(NodeId(0), NodeId(2), Weight::from_units(3.0));
/// let run = run_ghs(&g, 7);
/// assert_eq!(run.edges.len(), 2);
/// assert_eq!(run.total_weight, Weight::from_units(3.0));
/// ```
///
/// # Panics
///
/// Panics if `g` is not connected, has fewer than 2 nodes, or has
/// duplicate edge weights.
pub fn run_ghs(g: &Graph, seed: u64) -> GhsRun {
    let mut sim = GhsSim::start(g, seed);
    let quiesced = sim.run_bounded(50_000_000);
    assert!(quiesced, "GHS did not quiesce within the event bound");
    sim.into_run()
}

/// A started GHS simulation, steppable for debugging and experiments.
pub struct GhsSim {
    sim: ActorSim<Env>,
    actor_ids: Vec<ActorId>,
    stats: Rc<RefCell<GhsStats>>,
    weights: BTreeMap<(NodeId, NodeId), Weight>,
}

impl GhsSim {
    /// Spawns one [`GhsNode`] per graph node, each holding the weights of
    /// its own edges; every node awakens spontaneously.
    ///
    /// # Panics
    ///
    /// Panics if `g` has fewer than 2 nodes, is disconnected, or has
    /// duplicate edge weights.
    pub(crate) fn start(g: &Graph, seed: u64) -> Self {
        Self::start_with_initiators(g, seed, None)
    }

    /// As [`GhsSim::start`], but only `initiators` awaken spontaneously
    /// (`None` = all). The paper's model requires at least one initiator.
    ///
    /// # Panics
    ///
    /// As [`GhsSim::start`], plus an empty initiator set.
    pub(crate) fn start_with_initiators(
        g: &Graph,
        seed: u64,
        initiators: Option<&[NodeId]>,
    ) -> Self {
        assert!(g.node_count() >= 2, "GHS needs at least two nodes");
        assert!(g.is_connected(), "GHS requires a connected graph");
        assert!(
            g.has_distinct_weights(),
            "GHS requires distinct edge weights; use Graph::with_distinct_weights"
        );
        if let Some(init) = initiators {
            assert!(!init.is_empty(), "GHS needs at least one initiator");
        }

        let mut sim: ActorSim<Env> = ActorSim::new(seed);
        let stats = Rc::new(RefCell::new(GhsStats::default()));

        let mut actor_ids = Vec::with_capacity(g.node_count());
        for n in g.nodes() {
            let neighbors: Vec<(NodeId, Weight)> = g
                .neighbors(n)
                .map(|(m, eid)| (m, g.edge(eid).weight))
                .collect();
            let mut node = GhsNode::new(n, &neighbors, Rc::clone(&stats));
            if let Some(init) = initiators {
                node.spontaneous = init.contains(&n);
            }
            // Actors are created in node order in a fresh engine, which is
            // what lets a node address its neighbor `m` as `ActorId(m.0)`.
            let aid = sim.add_actor(node);
            assert_eq!(aid, ActorId(n.0), "node i is actor i");
            actor_ids.push(aid);
        }

        let mut weights = BTreeMap::new();
        for e in g.edges() {
            weights.insert((e.a, e.b), e.weight);
            weights.insert((e.b, e.a), e.weight);
        }

        GhsSim {
            sim,
            actor_ids,
            stats,
            weights,
        }
    }

    /// Runs up to `max_events`; returns true on quiescence.
    pub(crate) fn run_bounded(&mut self, max_events: u64) -> bool {
        self.sim.run_to_quiescence_bounded(max_events)
    }

    /// Collects the result (callable once quiesced).
    pub(crate) fn into_run(self) -> GhsRun {
        let mut edge_set = std::collections::BTreeSet::<(NodeId, NodeId)>::new();
        for (i, &aid) in self.actor_ids.iter().enumerate() {
            let Some(node) = self.sim.actor::<GhsNode>(aid) else {
                continue;
            };
            for m in node.branches() {
                let pair = if NodeId(i) < m {
                    (NodeId(i), m)
                } else {
                    (m, NodeId(i))
                };
                edge_set.insert(pair);
            }
        }
        let edges: Vec<(NodeId, NodeId)> = edge_set.into_iter().collect();
        let total_weight = edges.iter().map(|&(a, b)| self.weights[&(a, b)]).sum();

        let stats = self.stats.borrow().clone();
        GhsRun {
            edges,
            total_weight,
            stats,
            finished_at: self.sim.now(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lems_net::mst::kruskal;
    use lems_sim::rng::SimRng;

    fn assert_matches_kruskal(g: &Graph, seed: u64) {
        let run = run_ghs(g, seed);
        let k = kruskal(g);
        assert_eq!(run.edges.len(), g.node_count() - 1, "edge count");
        assert_eq!(run.total_weight, k.total_weight(), "total weight");
        // Edge sets must be identical (distinct weights -> unique MST).
        let kruskal_set: std::collections::BTreeSet<(NodeId, NodeId)> = k
            .edges()
            .iter()
            .map(|&eid| {
                let e = g.edge(eid);
                (e.a, e.b)
            })
            .collect();
        let ghs_set: std::collections::BTreeSet<(NodeId, NodeId)> =
            run.edges.iter().copied().collect();
        assert_eq!(ghs_set, kruskal_set);
        // Exactly one core pair halts.
        assert!(run.stats.halted_nodes >= 1, "no node detected termination");
    }

    #[test]
    fn two_nodes() {
        let mut g = Graph::with_nodes(2);
        g.add_edge(NodeId(0), NodeId(1), Weight::from_units(5.0));
        assert_matches_kruskal(&g, 1);
    }

    #[test]
    fn triangle() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), Weight::from_units(1.0));
        g.add_edge(NodeId(1), NodeId(2), Weight::from_units(2.0));
        g.add_edge(NodeId(0), NodeId(2), Weight::from_units(3.0));
        assert_matches_kruskal(&g, 2);
    }

    #[test]
    fn line_and_ring() {
        let mut line = Graph::with_nodes(8);
        for i in 1..8 {
            line.add_edge(NodeId(i - 1), NodeId(i), Weight::from_units(1.0 + i as f64));
        }
        assert_matches_kruskal(&line, 3);

        let mut ring = Graph::with_nodes(8);
        for i in 0..8 {
            ring.add_edge(
                NodeId(i),
                NodeId((i + 1) % 8),
                Weight::from_units(1.0 + i as f64),
            );
        }
        assert_matches_kruskal(&ring, 4);
    }

    #[test]
    fn the_ghs_paper_example_shape() {
        // A complete graph on 5 nodes with distinct weights.
        let mut g = Graph::with_nodes(5);
        let mut w = 1.0;
        for a in 0..5 {
            for b in (a + 1)..5 {
                g.add_edge(NodeId(a), NodeId(b), Weight::from_units(w));
                w += 1.0;
            }
        }
        assert_matches_kruskal(&g, 5);
    }

    fn random_connected(rng: &mut SimRng, n: usize, extra: usize) -> Graph {
        let mut g = Graph::with_nodes(n);
        for i in 1..n {
            let j = rng.index(i);
            g.add_edge(
                NodeId(i),
                NodeId(j),
                Weight::from_units(rng.range(1..=1000) as f64),
            );
        }
        let mut added = 0;
        let mut attempts = 0;
        while added < extra && attempts < extra * 20 {
            attempts += 1;
            let a = rng.index(n);
            let b = rng.index(n);
            if a != b && g.edge_between(NodeId(a), NodeId(b)).is_none() {
                g.add_edge(
                    NodeId(a),
                    NodeId(b),
                    Weight::from_units(rng.range(1..=1000) as f64),
                );
                added += 1;
            }
        }
        g.with_distinct_weights()
    }

    #[test]
    fn random_graphs_match_kruskal() {
        for seed in 0..15 {
            let mut rng = SimRng::seed(seed);
            let n = 5 + rng.index(20);
            let g = random_connected(&mut rng, n, n);
            assert_matches_kruskal(&g, seed);
        }
    }

    #[test]
    fn message_complexity_is_reasonable() {
        // GHS bound: 5·N·log2(N) + 2·E messages.
        let mut rng = SimRng::seed(99);
        let n = 32;
        let g = random_connected(&mut rng, n, 2 * n);
        let run = run_ghs(&g, 99);
        let e = g.edge_count() as f64;
        let bound = 5.0 * (n as f64) * (n as f64).log2() + 2.0 * e;
        assert!(
            (run.stats.total_sent() as f64) < bound,
            "sent {} messages, bound {bound}",
            run.stats.total_sent()
        );
    }

    #[test]
    #[should_panic(expected = "distinct edge weights")]
    fn duplicate_weights_rejected() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), Weight::UNIT);
        g.add_edge(NodeId(1), NodeId(2), Weight::UNIT);
        let _ = run_ghs(&g, 1);
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn disconnected_graph_rejected() {
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1), Weight::UNIT);
        g.add_edge(NodeId(2), NodeId(3), Weight::from_units(2.0));
        let _ = run_ghs(&g, 1);
    }
}

#[cfg(test)]
mod initiator_tests {
    use super::*;
    use lems_net::mst::kruskal;
    use lems_sim::rng::SimRng;

    fn random_connected(rng: &mut SimRng, n: usize, extra: usize) -> Graph {
        let mut g = Graph::with_nodes(n);
        for i in 1..n {
            let j = rng.index(i);
            g.add_edge(
                NodeId(i),
                NodeId(j),
                Weight::from_units(rng.range(1..=500) as f64),
            );
        }
        let mut added = 0;
        let mut attempts = 0;
        while added < extra && attempts < extra * 20 {
            attempts += 1;
            let a = rng.index(n);
            let b = rng.index(n);
            if a != b && g.edge_between(NodeId(a), NodeId(b)).is_none() {
                g.add_edge(
                    NodeId(a),
                    NodeId(b),
                    Weight::from_units(rng.range(1..=500) as f64),
                );
                added += 1;
            }
        }
        g.with_distinct_weights()
    }

    /// GHS must produce the unique MST regardless of which (non-empty)
    /// subset of nodes awakens spontaneously — the others wake on their
    /// first Connect/Test message.
    #[test]
    fn any_initiator_subset_yields_the_mst() {
        for seed in 0..8u64 {
            let mut rng = SimRng::seed(seed ^ 0x51ee9);
            let n = 6 + rng.index(10);
            let g = random_connected(&mut rng, n, n / 2);
            let k = kruskal(&g);

            // Single initiator, two initiators, and a random half.
            let subsets: Vec<Vec<NodeId>> = vec![
                vec![NodeId(0)],
                vec![NodeId(0), NodeId(n - 1)],
                (0..n).filter(|i| i % 2 == 0).map(NodeId).collect(),
            ];
            for subset in subsets {
                let mut sim = GhsSim::start_with_initiators(&g, seed, Some(&subset));
                assert!(sim.run_bounded(10_000_000), "quiesce (seed {seed})");
                let run = sim.into_run();
                assert_eq!(
                    run.total_weight,
                    k.total_weight(),
                    "seed {seed}, initiators {subset:?}"
                );
                assert_eq!(run.edges.len(), n - 1);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one initiator")]
    fn empty_initiator_set_panics() {
        let mut g = Graph::with_nodes(2);
        g.add_edge(NodeId(0), NodeId(1), Weight::UNIT);
        let _ = GhsSim::start_with_initiators(&g, 1, Some(&[]));
    }
}
