//! Binding between topology nodes and simulation actors.
//!
//! A [`Transport`] owns the mapping `NodeId <-> ActorId` plus the network's
//! distance table, and computes end-to-end shortest-path delays for
//! protocols modelled at the session level (mail submission and retrieval).
//! Protocols that are explicitly hop-by-hop (GHS, tree broadcast) do not go
//! through it: their actors hold the delays of their own links.

use std::cell::Cell;

use lems_sim::actor::{ActorId, Ctx};
use lems_sim::time::SimDuration;

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
    node_to_actor: Vec<Option<ActorId>>,
    /// Indexed by actor id — the engine hands those out densely.
    actor_to_node: Vec<Option<NodeId>>,
    /// Sends that failed because of a bad binding. A correctly built
    /// deployment never increments this; tests assert it stays zero instead
    /// of relying on a panic deep inside an actor.
    wiring_errors: Cell<u64>,
}

impl Transport {
    /// Builds a transport for `g` (all-pairs distances are precomputed).
    pub fn new(g: &Graph) -> Self {
        Transport {
            dist: DistanceTable::build(g),
            node_to_actor: vec![None; g.node_count()],
            actor_to_node: Vec::new(),
            wiring_errors: Cell::new(0),
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
