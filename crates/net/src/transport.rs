//! Binding between topology nodes and simulation actors.
//!
//! A [`Transport`] owns the mapping `NodeId <-> ActorId` plus the network's
//! distance table, and computes end-to-end shortest-path delays for
//! protocols modelled at the session level (mail submission and retrieval).
//! Protocols that are explicitly hop-by-hop (GHS, tree broadcast) do not go
//! through it: their actors hold the delays of their own links.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap, VecDeque};

use lems_sim::actor::{ActorId, Ctx};
use lems_sim::failure::Outage;
use lems_sim::time::{SimDuration, SimTime};

use crate::error::NetError;
use crate::graph::{Graph, NodeId};
use crate::shortest_path::DistanceTable;

/// Maps nodes to actors and computes delays from topology.
///
/// # Examples
///
/// ```
/// use lems_net::graph::{Graph, NodeId, Weight};
/// use lems_net::transport::Transport;
/// use lems_sim::actor::ActorId;
///
/// let mut g = Graph::with_nodes(2);
/// g.add_edge(NodeId(0), NodeId(1), Weight::from_units(2.0));
/// let mut tr = Transport::new(&g);
/// tr.bind(NodeId(0), ActorId(10));
/// tr.bind(NodeId(1), ActorId(11));
/// assert_eq!(tr.delay(NodeId(0), NodeId(1)).as_units(), 2.0);
/// assert_eq!(tr.actor_of(NodeId(1)), Ok(ActorId(11)));
/// assert_eq!(tr.node_of(ActorId(10)), Some(NodeId(0)));
/// ```
#[derive(Clone, Debug)]
pub struct Transport {
    dist: DistanceTable,
    edge_weights: HashMap<(NodeId, NodeId), SimDuration>,
    adjacency: Vec<Vec<NodeId>>,
    node_to_actor: Vec<Option<ActorId>>,
    /// Indexed by actor id — the engine hands those out densely.
    actor_to_node: Vec<Option<NodeId>>,
    /// Sends that failed because of a bad binding. A correctly built
    /// deployment never increments this; tests assert it stays zero instead
    /// of relying on a panic deep inside an actor.
    wiring_errors: Cell<u64>,
    /// Planned per-edge outages (directed). Interior mutability because the
    /// transport is `Rc`-shared across actors once a deployment is built,
    /// and chaos drivers register outages after that point.
    link_outages: RefCell<BTreeMap<(NodeId, NodeId), Vec<Outage>>>,
}

impl Transport {
    /// Builds a transport for `g` (all-pairs distances are precomputed).
    pub fn new(g: &Graph) -> Self {
        let mut edge_weights = HashMap::with_capacity(g.edge_count() * 2);
        let mut adjacency = vec![Vec::new(); g.node_count()];
        for e in g.edges() {
            let d = e.weight.as_duration();
            edge_weights.insert((e.a, e.b), d);
            edge_weights.insert((e.b, e.a), d);
            adjacency[e.a.0].push(e.b);
            adjacency[e.b.0].push(e.a);
        }
        // Deterministic neighbor order regardless of edge insertion order.
        for list in &mut adjacency {
            list.sort_unstable();
        }
        Transport {
            dist: DistanceTable::build(g),
            edge_weights,
            adjacency,
            node_to_actor: vec![None; g.node_count()],
            actor_to_node: Vec::new(),
            wiring_errors: Cell::new(0),
            link_outages: RefCell::new(BTreeMap::new()),
        }
    }

    /// Associates a node with the actor simulating it.
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range, either side is already bound, or
    /// `actor` is [`ActorId::EXTERNAL`].
    pub fn bind(&mut self, node: NodeId, actor: ActorId) {
        assert!(node.0 < self.node_to_actor.len(), "unknown node {node}");
        assert!(
            self.node_to_actor[node.0].is_none(),
            "node {node} already bound"
        );
        assert!(
            actor != ActorId::EXTERNAL,
            "the external sender has no node"
        );
        assert!(self.node_of(actor).is_none(), "actor {actor} already bound");
        self.node_to_actor[node.0] = Some(actor);
        if self.actor_to_node.len() <= actor.0 {
            self.actor_to_node.resize(actor.0 + 1, None);
        }
        self.actor_to_node[actor.0] = Some(node);
    }

    /// The actor bound to `node`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownNode`] if the node id is out of range and
    /// [`NetError::UnboundNode`] if no actor has been bound to it.
    pub fn actor_of(&self, node: NodeId) -> Result<ActorId, NetError> {
        self.node_to_actor
            .get(node.0)
            .ok_or(NetError::UnknownNode(node))?
            .ok_or(NetError::UnboundNode(node))
    }

    /// The node bound to `actor`, if any.
    pub fn node_of(&self, actor: ActorId) -> Option<NodeId> {
        self.actor_to_node.get(actor.0).copied().flatten()
    }

    /// End-to-end delay along the shortest path between two nodes.
    ///
    /// # Panics
    ///
    /// Panics if the nodes are disconnected.
    pub fn delay(&self, from: NodeId, to: NodeId) -> SimDuration {
        let w = self.dist.distance(from, to);
        assert!(!w.is_infinite(), "no path between {from} and {to}");
        w.as_duration()
    }

    /// The distance table (for cost computations).
    pub fn distances(&self) -> &DistanceTable {
        &self.dist
    }

    /// Sends `msg` from the actor at `from` to the actor at `to` with the
    /// end-to-end shortest-path delay plus `extra` (processing time and the
    /// like).
    ///
    /// A destination with no bound actor is a deployment wiring bug; the
    /// message is dropped and counted in [`Transport::wiring_errors`]
    /// rather than panicking inside an actor handler.
    pub fn send<M: Clone>(
        &self,
        ctx: &mut Ctx<'_, M>,
        from: NodeId,
        to: NodeId,
        msg: M,
        extra: SimDuration,
    ) {
        let delay = self.delay(from, to) + extra;
        match self.actor_of(to) {
            Ok(actor) => ctx.send(actor, msg, delay),
            Err(_) => self.wiring_errors.set(self.wiring_errors.get() + 1),
        }
    }

    /// Messages silently dropped by [`Transport::send`] because of a
    /// binding error. Zero on any correctly wired deployment.
    pub fn wiring_errors(&self) -> u64 {
        self.wiring_errors.get()
    }

    /// Registers an outage for the directed edge `from -> to`, mirroring
    /// what [`lems_sim::failure::FailurePlan`] records for nodes. The
    /// transport does not enforce outages (the engine's link-fault plan
    /// does); it answers ground-truth queries ([`Transport::is_link_up`],
    /// [`Transport::reachable`]) so experiments can cross-check simulated
    /// behaviour against the plan.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NotAdjacent`] if there is no direct edge.
    pub fn add_link_outage(
        &self,
        from: NodeId,
        to: NodeId,
        outage: Outage,
    ) -> Result<(), NetError> {
        if !self.edge_weights.contains_key(&(from, to)) {
            return Err(NetError::NotAdjacent(from, to));
        }
        self.link_outages
            .borrow_mut()
            .entry((from, to))
            .or_default()
            .push(outage);
        Ok(())
    }

    /// Registers `outage` for both directions of the edge `a`-`b`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NotAdjacent`] if there is no direct edge.
    pub fn add_link_outage_bidi(
        &self,
        a: NodeId,
        b: NodeId,
        outage: Outage,
    ) -> Result<(), NetError> {
        self.add_link_outage(a, b, outage)?;
        self.add_link_outage(b, a, outage)
    }

    /// True if the directed edge `from -> to` exists and carries traffic at
    /// `t` under the registered outages.
    pub fn is_link_up(&self, from: NodeId, to: NodeId, t: SimTime) -> bool {
        self.edge_weights.contains_key(&(from, to))
            && self
                .link_outages
                .borrow()
                .get(&(from, to))
                .is_none_or(|list| !list.iter().any(|o| o.covers(t)))
    }

    /// Total number of registered directed edge outages.
    pub fn link_outage_count(&self) -> usize {
        self.link_outages.borrow().values().map(Vec::len).sum()
    }

    /// True if a path of up links leads from `from` to `to` at instant `t` —
    /// the partition ground truth, mirroring what
    /// [`FailurePlan::is_up`](lems_sim::failure::FailurePlan::is_up) answers
    /// for nodes. Unknown nodes are unreachable; a node always reaches
    /// itself.
    pub fn reachable(&self, from: NodeId, to: NodeId, t: SimTime) -> bool {
        let n = self.adjacency.len();
        if from.0 >= n || to.0 >= n {
            return false;
        }
        if from == to {
            return true;
        }
        let mut seen = vec![false; n];
        seen[from.0] = true;
        let mut frontier = VecDeque::from([from]);
        while let Some(u) = frontier.pop_front() {
            for &v in &self.adjacency[u.0] {
                if !seen[v.0] && self.is_link_up(u, v, t) {
                    if v == to {
                        return true;
                    }
                    seen[v.0] = true;
                    frontier.push_back(v);
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Weight;
    use lems_sim::actor::{Actor, ActorSim};

    /// Every test scenario quiesces far below this; exhausting it means
    /// a stuck retry loop, which must fail the test rather than hang it.
    const EVENT_BUDGET: u64 = 100_000;

    fn g3() -> Graph {
        let mut g = Graph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), Weight::from_units(1.0));
        g.add_edge(NodeId(1), NodeId(2), Weight::from_units(2.0));
        g
    }

    #[test]
    fn delays_follow_shortest_paths() {
        let tr = Transport::new(&g3());
        assert_eq!(tr.delay(NodeId(0), NodeId(2)).as_units(), 3.0);
        assert_eq!(tr.delay(NodeId(2), NodeId(1)).as_units(), 2.0);
        assert_eq!(tr.delay(NodeId(1), NodeId(1)).as_units(), 0.0);
    }

    #[test]
    fn lookups_report_unbound_and_unknown_nodes() {
        let mut tr = Transport::new(&g3());
        tr.bind(NodeId(0), ActorId(7));
        assert_eq!(tr.actor_of(NodeId(0)), Ok(ActorId(7)));
        assert_eq!(
            tr.actor_of(NodeId(1)),
            Err(crate::error::NetError::UnboundNode(NodeId(1)))
        );
        assert_eq!(
            tr.actor_of(NodeId(99)),
            Err(crate::error::NetError::UnknownNode(NodeId(99)))
        );
    }

    #[test]
    #[should_panic(expected = "already bound")]
    fn double_bind_panics() {
        let mut tr = Transport::new(&g3());
        tr.bind(NodeId(0), ActorId(1));
        tr.bind(NodeId(0), ActorId(2));
    }

    struct Sink {
        got: Vec<u32>,
    }
    impl Actor for Sink {
        type Msg = u32;
        fn on_message(&mut self, _f: ActorId, m: u32, _c: &mut lems_sim::actor::Ctx<'_, u32>) {
            self.got.push(m);
        }
    }

    struct Src {
        tr: Transport,
        me: NodeId,
        dest: NodeId,
    }
    impl Actor for Src {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut lems_sim::actor::Ctx<'_, u32>) {
            self.tr
                .send(ctx, self.me, self.dest, 42, SimDuration::from_units(0.5));
        }
        fn on_message(&mut self, _f: ActorId, _m: u32, _c: &mut lems_sim::actor::Ctx<'_, u32>) {}
    }

    #[test]
    fn send_to_unbound_node_is_counted_not_fatal() {
        let g = g3();
        let mut sim: ActorSim<u32> = ActorSim::new(1);
        let mut tr = Transport::new(&g);
        let src_actor = ActorId(0);
        tr.bind(NodeId(0), src_actor);
        // NodeId(2) is never bound: the send must be dropped and counted.
        let id = sim.add_actor(Src {
            tr,
            me: NodeId(0),
            dest: NodeId(2),
        });
        assert_eq!(id, src_actor);
        assert!(sim.run_to_quiescence_bounded(EVENT_BUDGET));
        let s: &Src = sim.actor(src_actor).unwrap();
        assert_eq!(s.tr.wiring_errors(), 1);
    }

    #[test]
    fn link_outages_answer_ground_truth_queries() {
        let tr = Transport::new(&g3());
        let t = SimTime::from_units;
        let cut = Outage::new(t(5.0), t(9.0)).unwrap();
        tr.add_link_outage_bidi(NodeId(0), NodeId(1), cut).unwrap();
        assert!(tr.is_link_up(NodeId(0), NodeId(1), t(4.9)));
        assert!(!tr.is_link_up(NodeId(0), NodeId(1), t(5.0)));
        assert!(!tr.is_link_up(NodeId(1), NodeId(0), t(8.9)));
        assert!(tr.is_link_up(NodeId(0), NodeId(1), t(9.0)));
        // A pair with no direct edge is never "up".
        assert!(!tr.is_link_up(NodeId(0), NodeId(2), t(0.0)));
        assert_eq!(tr.link_outage_count(), 2);
        assert_eq!(
            tr.add_link_outage(NodeId(0), NodeId(2), cut),
            Err(crate::error::NetError::NotAdjacent(NodeId(0), NodeId(2)))
        );
    }

    #[test]
    fn reachable_reflects_partitions() {
        // Path topology 0-1-2: cutting 0-1 partitions {0} from {1, 2}.
        let tr = Transport::new(&g3());
        let t = SimTime::from_units;
        tr.add_link_outage_bidi(NodeId(0), NodeId(1), Outage::new(t(5.0), t(9.0)).unwrap())
            .unwrap();
        assert!(tr.reachable(NodeId(0), NodeId(2), t(4.0)));
        assert!(!tr.reachable(NodeId(0), NodeId(2), t(6.0)));
        assert!(!tr.reachable(NodeId(2), NodeId(0), t(6.0)));
        assert!(
            tr.reachable(NodeId(1), NodeId(2), t(6.0)),
            "far side intact"
        );
        assert!(
            tr.reachable(NodeId(0), NodeId(2), t(9.0)),
            "heals on repair"
        );
        assert!(tr.reachable(NodeId(0), NodeId(0), t(6.0)), "self-reachable");
        assert!(!tr.reachable(NodeId(0), NodeId(99), t(0.0)));
    }

    #[test]
    fn asymmetric_cut_blocks_one_direction_only() {
        let tr = Transport::new(&g3());
        let t = SimTime::from_units;
        tr.add_link_outage(NodeId(1), NodeId(2), Outage::new(t(0.0), t(10.0)).unwrap())
            .unwrap();
        assert!(!tr.reachable(NodeId(0), NodeId(2), t(1.0)));
        assert!(tr.reachable(NodeId(2), NodeId(0), t(1.0)));
    }

    #[test]
    fn send_reaches_bound_actor_with_topology_delay() {
        let g = g3();
        let mut sim: ActorSim<u32> = ActorSim::new(1);
        let sink = sim.add_actor(Sink { got: Vec::new() });

        let mut tr = Transport::new(&g);
        tr.bind(NodeId(2), sink);
        // Bind source node now; the Src actor id is created after but the
        // transport only needs the destination binding for sending.
        let src_actor = ActorId(1);
        tr.bind(NodeId(0), src_actor);

        let id = sim.add_actor(Src {
            tr,
            me: NodeId(0),
            dest: NodeId(2),
        });
        assert_eq!(id, src_actor);
        assert!(sim.run_to_quiescence_bounded(EVENT_BUDGET));
        let s: &Sink = sim.actor(sink).unwrap();
        assert_eq!(s.got, vec![42]);
        assert_eq!(sim.now().as_units(), 3.5);
    }
}
