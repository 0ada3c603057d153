//! Mail-network topologies: the graph plus node roles and regions.
//!
//! The paper's world (§2) consists of *hosts* (computers users sit at),
//! *mail servers* (processes that store, resolve, forward, and deliver
//! mail), and the links between them, partitioned into *regions* — the top
//! level of the `region.host.user` hierarchy. A [`Topology`] carries that
//! structure on top of [`Graph`].

use std::collections::HashSet;
use std::fmt;

use crate::graph::{EdgeId, Graph, NodeId, Weight};
use crate::shortest_path::DistanceTable;

/// Identifies a region (globally unique per §3.1.1).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RegionId(pub usize);

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// The role a node plays in the mail system.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeKind {
    /// A computer users access the system from — possibly a personal
    /// computer or workstation that "may not be turned on all the time"
    /// (§3.1.2c).
    Host,
    /// A mail server: stores mailboxes, resolves names, forwards and
    /// delivers messages.
    Server,
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeKind::Host => f.write_str("host"),
            NodeKind::Server => f.write_str("server"),
        }
    }
}

/// A network of hosts and servers partitioned into regions.
///
/// # Examples
///
/// ```
/// use lems_net::topology::{NodeKind, RegionId, Topology};
/// use lems_net::graph::Weight;
///
/// let mut t = Topology::new();
/// let r = RegionId(0);
/// let s = t.add_server(r, "S1");
/// let h = t.add_host(r, "H1");
/// t.link(h, s, Weight::UNIT);
/// assert_eq!(t.kind(s), NodeKind::Server);
/// assert_eq!(t.servers_in(r), vec![s]);
/// assert_eq!(t.name(h), "H1");
/// ```
#[derive(Clone, Debug, Default)]
pub struct Topology {
    graph: Graph,
    kinds: Vec<NodeKind>,
    regions: Vec<RegionId>,
    names: Vec<String>,
    /// Every name given so far, to refuse a duplicate.
    taken: HashSet<String>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    fn add_node(&mut self, kind: NodeKind, region: RegionId, name: &str) -> NodeId {
        let fresh = self.taken.insert(name.to_owned());
        assert!(fresh, "duplicate node name {name:?}");
        let id = self.graph.add_node();
        self.kinds.push(kind);
        self.regions.push(region);
        self.names.push(name.to_owned());
        id
    }

    /// Adds a host named `name` in `region`.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken.
    pub fn add_host(&mut self, region: RegionId, name: &str) -> NodeId {
        self.add_node(NodeKind::Host, region, name)
    }

    /// Adds a server named `name` in `region`.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken.
    pub fn add_server(&mut self, region: RegionId, name: &str) -> NodeId {
        self.add_node(NodeKind::Server, region, name)
    }

    /// Connects two nodes with a link of the given communication cost.
    ///
    /// # Panics
    ///
    /// Propagates the panics of [`Graph::add_edge`] (self-loop, duplicate,
    /// unknown node).
    pub fn link(&mut self, a: NodeId, b: NodeId, weight: Weight) -> EdgeId {
        self.graph.add_edge(a, b, weight)
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The role of `n`.
    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.kinds[n.0]
    }

    /// The region of `n`.
    pub fn region(&self, n: NodeId) -> RegionId {
        self.regions[n.0]
    }

    /// The display name of `n`.
    pub fn name(&self, n: NodeId) -> &str {
        &self.names[n.0]
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        self.graph.nodes()
    }

    /// All hosts.
    pub fn hosts(&self) -> Vec<NodeId> {
        self.nodes()
            .filter(|&n| self.kind(n) == NodeKind::Host)
            .collect()
    }

    /// All servers.
    pub fn servers(&self) -> Vec<NodeId> {
        self.nodes()
            .filter(|&n| self.kind(n) == NodeKind::Server)
            .collect()
    }

    /// Servers located in `region`.
    pub fn servers_in(&self, region: RegionId) -> Vec<NodeId> {
        self.nodes()
            .filter(|&n| self.kind(n) == NodeKind::Server && self.region(n) == region)
            .collect()
    }

    /// Hosts located in `region`.
    pub fn hosts_in(&self, region: RegionId) -> Vec<NodeId> {
        self.nodes()
            .filter(|&n| self.kind(n) == NodeKind::Host && self.region(n) == region)
            .collect()
    }

    /// The distinct regions present, ascending.
    pub fn region_ids(&self) -> Vec<RegionId> {
        let mut rs: Vec<RegionId> = self.regions.clone();
        rs.sort_unstable();
        rs.dedup();
        rs
    }

    /// Nodes with at least one link into another region — the candidates
    /// for the backbone MST of §3.3.1A(ii) ("nodes which are directly
    /// connected to nodes in other regions").
    pub fn gateways(&self) -> Vec<NodeId> {
        self.nodes()
            .filter(|&n| {
                self.graph
                    .neighbors(n)
                    .any(|(m, _)| self.region(m) != self.region(n))
            })
            .collect()
    }

    /// Edges whose endpoints lie in different regions.
    pub fn inter_region_edges(&self) -> Vec<EdgeId> {
        (0..self.graph.edge_count())
            .map(EdgeId)
            .filter(|&eid| {
                let e = self.graph.edge(eid);
                self.region(e.a) != self.region(e.b)
            })
            .collect()
    }

    /// Builds the all-pairs distance table for this topology.
    pub fn distances(&self) -> DistanceTable {
        DistanceTable::build(&self.graph)
    }

    /// True if the network is connected.
    pub fn is_connected(&self) -> bool {
        self.graph.is_connected()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_region_topology() -> Topology {
        let mut t = Topology::new();
        let (r0, r1) = (RegionId(0), RegionId(1));
        let s0 = t.add_server(r0, "S0");
        let h0 = t.add_host(r0, "H0");
        let s1 = t.add_server(r1, "S1");
        let h1 = t.add_host(r1, "H1");
        t.link(h0, s0, Weight::UNIT);
        t.link(h1, s1, Weight::UNIT);
        t.link(s0, s1, Weight::from_units(5.0));
        t
    }

    #[test]
    fn roles_and_regions() {
        let t = two_region_topology();
        assert_eq!(t.hosts().len(), 2);
        assert_eq!(t.servers().len(), 2);
        assert_eq!(t.servers_in(RegionId(0)), vec![NodeId(0)]);
        assert_eq!(t.hosts_in(RegionId(1)), vec![NodeId(3)]);
        assert_eq!(t.region_ids(), vec![RegionId(0), RegionId(1)]);
        assert!(t.is_connected());
    }

    #[test]
    fn gateways_cross_regions() {
        let t = two_region_topology();
        let gw = t.gateways();
        assert_eq!(gw, vec![NodeId(0), NodeId(2)]); // S0 and S1
        assert_eq!(t.inter_region_edges().len(), 1);
    }

    #[test]
    fn name_lookup() {
        let t = two_region_topology();
        assert_eq!(t.name(NodeId(3)), "H1");
        assert_eq!(t.name(NodeId(0)), "S0");
    }

    #[test]
    #[should_panic(expected = "duplicate node name")]
    fn duplicate_names_panic() {
        let mut t = Topology::new();
        t.add_host(RegionId(0), "X");
        t.add_server(RegionId(0), "X");
    }

    #[test]
    fn distances_use_links() {
        let t = two_region_topology();
        let d = t.distances();
        let (h0, h1) = (NodeId(1), NodeId(3));
        assert_eq!(d.distance(h0, h1), Weight::from_units(7.0));
    }
}
