//! Undirected weighted graphs.
//!
//! The paper models the mail network as "a connected undirected graph with
//! computers (hosts, servers, mail-forwarders, …) as nodes and the
//! communication links as the edges. Each edge is assigned a finite weight
//! cost" (§3.3.1A). This module is that graph.
//!
//! Edge weights are integer [`Weight`]s on the same tick scale as simulated
//! time, so path costs convert exactly to message delays and minimum
//! spanning trees are free of floating-point tie ambiguity.

use std::collections::HashMap;
use std::fmt;

use lems_sim::time::{SimDuration, TICKS_PER_UNIT};

/// Identifies a node within one [`Graph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifies an edge within one [`Graph`] (index into edge list).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EdgeId(pub usize);

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// An edge cost: communication time across a link, in ticks.
///
/// # Examples
///
/// ```
/// use lems_net::graph::Weight;
///
/// let w = Weight::from_units(1.5);
/// assert_eq!(w.as_units(), 1.5);
/// assert_eq!((w + w).as_units(), 3.0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Weight(pub u64);

impl Weight {
    /// Zero cost.
    pub const ZERO: Weight = Weight(0);
    /// Effectively infinite cost (used as "unreachable" sentinel).
    pub const INFINITY: Weight = Weight(u64::MAX);

    /// A weight of exactly one paper time unit.
    pub const UNIT: Weight = Weight(TICKS_PER_UNIT);

    /// Creates a weight from (possibly fractional) paper time units.
    ///
    /// # Panics
    ///
    /// Panics if `units` is negative or not finite.
    pub fn from_units(units: f64) -> Self {
        assert!(
            units.is_finite() && units >= 0.0,
            "weight must be finite and non-negative, got {units}"
        );
        Weight((units * TICKS_PER_UNIT as f64).round() as u64)
    }

    /// This weight in paper time units.
    pub fn as_units(self) -> f64 {
        self.0 as f64 / TICKS_PER_UNIT as f64
    }

    /// Converts a (finite) weight into a message delay.
    ///
    /// # Panics
    ///
    /// Panics on [`Weight::INFINITY`]: an unreachable destination has no
    /// delay.
    pub fn as_duration(self) -> SimDuration {
        assert!(self != Weight::INFINITY, "infinite weight has no duration");
        SimDuration::from_ticks(self.0)
    }

    /// Saturating addition, treating [`Weight::INFINITY`] as absorbing.
    pub fn saturating_add(self, rhs: Weight) -> Weight {
        Weight(self.0.saturating_add(rhs.0))
    }

    /// True for the unreachable sentinel.
    pub fn is_infinite(self) -> bool {
        self == Weight::INFINITY
    }
}

impl std::ops::Add for Weight {
    type Output = Weight;
    fn add(self, rhs: Weight) -> Weight {
        self.saturating_add(rhs)
    }
}

impl std::iter::Sum for Weight {
    fn sum<I: Iterator<Item = Weight>>(iter: I) -> Weight {
        iter.fold(Weight::ZERO, Weight::saturating_add)
    }
}

impl fmt::Debug for Weight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_infinite() {
            write!(f, "w=inf")
        } else {
            write!(f, "w={:.3}", self.as_units())
        }
    }
}

impl fmt::Display for Weight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_infinite() {
            write!(f, "inf")
        } else {
            write!(f, "{:.3}", self.as_units())
        }
    }
}

/// One undirected edge.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Edge {
    /// One endpoint (the smaller `NodeId` by construction).
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// The communication cost of the link.
    pub weight: Weight,
}

impl Edge {
    /// The endpoint opposite to `n`.
    ///
    /// # Errors
    ///
    /// Returns
    /// [`NetError::NotAnEndpoint`](crate::error::NetError::NotAnEndpoint)
    /// if `n` is not an endpoint of this edge.
    pub fn other(&self, n: NodeId) -> Result<NodeId, crate::error::NetError> {
        if n == self.a {
            Ok(self.b)
        } else if n == self.b {
            Ok(self.a)
        } else {
            Err(crate::error::NetError::NotAnEndpoint {
                node: n,
                a: self.a,
                b: self.b,
            })
        }
    }
}

/// An undirected weighted graph with stable node and edge ids.
///
/// Nodes are dense indices `0..node_count()`. Removal is not supported at
/// the graph layer (the mail systems model server removal by marking nodes
/// out of service at a higher layer), which keeps ids stable across an
/// experiment.
///
/// # Examples
///
/// ```
/// use lems_net::graph::{Graph, Weight};
///
/// let mut g = Graph::new();
/// let a = g.add_node();
/// let b = g.add_node();
/// let c = g.add_node();
/// g.add_edge(a, b, Weight::UNIT);
/// g.add_edge(b, c, Weight::from_units(2.0));
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.edge_count(), 2);
/// assert!(g.is_connected());
/// assert_eq!(g.neighbors(b).count(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Graph {
    edges: Vec<Edge>,
    /// adjacency: node -> Vec<(neighbor, edge id)>
    adj: Vec<Vec<(NodeId, EdgeId)>>,
    edge_index: HashMap<(NodeId, NodeId), EdgeId>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Creates a graph with `n` isolated nodes.
    pub fn with_nodes(n: usize) -> Self {
        let mut g = Graph::new();
        for _ in 0..n {
            g.add_node();
        }
        g
    }

    /// Adds a node; returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.adj.len());
        self.adj.push(Vec::new());
        id
    }

    /// Adds an undirected edge between distinct existing nodes.
    ///
    /// # Panics
    ///
    /// Panics on self-loops, unknown endpoints, duplicate edges, or an
    /// infinite weight.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, weight: Weight) -> EdgeId {
        assert!(a != b, "self-loops are not allowed ({a})");
        assert!(a.0 < self.adj.len(), "unknown node {a}");
        assert!(b.0 < self.adj.len(), "unknown node {b}");
        assert!(!weight.is_infinite(), "edge weight must be finite");
        let key = if a.0 < b.0 { (a, b) } else { (b, a) };
        assert!(
            !self.edge_index.contains_key(&key),
            "duplicate edge {a}-{b}"
        );
        let id = EdgeId(self.edges.len());
        self.edges.push(Edge {
            a: key.0,
            b: key.1,
            weight,
        });
        self.adj[a.0].push((b, id));
        self.adj[b.0].push((a, id));
        self.edge_index.insert(key, id);
        id
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterates all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.adj.len()).map(NodeId)
    }

    /// All edges, in insertion order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn edge(&self, id: EdgeId) -> Edge {
        self.edges[id.0]
    }

    /// Looks up the edge between `a` and `b`, if present.
    pub fn edge_between(&self, a: NodeId, b: NodeId) -> Option<EdgeId> {
        let key = if a.0 < b.0 { (a, b) } else { (b, a) };
        self.edge_index.get(&key).copied()
    }

    /// Neighbors of `n` with the connecting edge id, in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `n` is unknown.
    pub fn neighbors(&self, n: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        self.adj[n.0].iter().copied()
    }

    /// Degree of `n`.
    pub fn degree(&self, n: NodeId) -> usize {
        self.adj[n.0].len()
    }

    /// Sum of all edge weights.
    pub fn total_weight(&self) -> Weight {
        self.edges.iter().map(|e| e.weight).sum()
    }

    /// True if every node can reach every other (an empty graph counts as
    /// connected).
    pub fn is_connected(&self) -> bool {
        let n = self.node_count();
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut visited = 1;
        while let Some(u) = stack.pop() {
            for (v, _) in self.neighbors(u) {
                if !seen[v.0] {
                    seen[v.0] = true;
                    visited += 1;
                    stack.push(v);
                }
            }
        }
        visited == n
    }

    /// Returns a copy whose edge weights have been perturbed by their edge
    /// id so all weights are pairwise distinct (weights gain at most
    /// `edge_count` ticks).
    ///
    /// Gallager's MST algorithm requires distinct weights; the paper adopts
    /// the standard remedy of breaking ties deterministically.
    pub fn with_distinct_weights(&self) -> Graph {
        let mut g = self.clone();
        for (i, e) in g.edges.iter_mut().enumerate() {
            e.weight = Weight(e.weight.0 * (self.edges.len() as u64 + 1) + i as u64);
        }
        g
    }

    /// True if all edge weights are pairwise distinct.
    pub fn has_distinct_weights(&self) -> bool {
        let mut ws: Vec<u64> = self.edges.iter().map(|e| e.weight.0).collect();
        ws.sort_unstable();
        ws.windows(2).all(|w| w[0] != w[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_conversions() {
        assert_eq!(Weight::UNIT.as_units(), 1.0);
        assert_eq!(
            Weight::from_units(0.5).as_duration(),
            SimDuration::from_units(0.5)
        );
        assert!(Weight::INFINITY.is_infinite());
        assert_eq!(
            Weight::INFINITY.saturating_add(Weight::UNIT),
            Weight::INFINITY
        );
    }

    #[test]
    #[should_panic(expected = "no duration")]
    fn infinite_weight_duration_panics() {
        let _ = Weight::INFINITY.as_duration();
    }

    #[test]
    fn build_and_query() {
        let mut g = Graph::with_nodes(4);
        let e0 = g.add_edge(NodeId(0), NodeId(1), Weight::UNIT);
        g.add_edge(NodeId(1), NodeId(2), Weight::from_units(2.0));
        assert_eq!(g.edge_between(NodeId(1), NodeId(0)), Some(e0));
        assert_eq!(g.edge_between(NodeId(0), NodeId(3)), None);
        assert_eq!(g.degree(NodeId(1)), 2);
        assert_eq!(g.edge(e0).other(NodeId(0)), Ok(NodeId(1)));
        assert!(g.edge(e0).other(NodeId(3)).is_err());
        assert_eq!(g.total_weight(), Weight::from_units(3.0));
        assert!(!g.is_connected()); // node 3 isolated
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        let mut g = Graph::with_nodes(1);
        g.add_edge(NodeId(0), NodeId(0), Weight::UNIT);
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn duplicate_edge_panics() {
        let mut g = Graph::with_nodes(2);
        g.add_edge(NodeId(0), NodeId(1), Weight::UNIT);
        g.add_edge(NodeId(1), NodeId(0), Weight::UNIT);
    }

    #[test]
    fn distinct_weights_preserve_order() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), Weight::UNIT);
        g.add_edge(NodeId(1), NodeId(2), Weight::UNIT);
        g.add_edge(NodeId(0), NodeId(2), Weight::from_units(5.0));
        assert!(!g.has_distinct_weights());
        let d = g.with_distinct_weights();
        assert!(d.has_distinct_weights());
        // Strictly lighter edges stay strictly lighter.
        assert!(d.edges()[0].weight < d.edges()[2].weight);
        assert!(d.edges()[1].weight < d.edges()[2].weight);
    }

    #[test]
    fn connectivity() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), Weight::UNIT);
        assert!(!g.is_connected());
        g.add_edge(NodeId(1), NodeId(2), Weight::UNIT);
        assert!(g.is_connected());
        assert!(Graph::new().is_connected());
        assert!(Graph::with_nodes(1).is_connected());
    }
}
