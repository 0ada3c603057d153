//! Shortest paths: Dijkstra single-source and all-pairs tables.
//!
//! The server-assignment algorithm of §3.1.1 initialises connection costs
//! "using the shortest-path zero-load (i.e., no traffic) algorithm between
//! hosts and servers"; message forwarding and the transport layer reuse the
//! same tables.

use std::collections::BinaryHeap;

use crate::graph::{Graph, NodeId, Weight};

/// The result of a single-source shortest-path run.
#[derive(Clone, Debug)]
pub struct ShortestPaths {
    dist: Vec<Weight>,
}

impl ShortestPaths {
    /// Distance from the source to `n` (`Weight::INFINITY` when
    /// unreachable).
    pub fn distance(&self, n: NodeId) -> Weight {
        self.dist[n.0]
    }
}

/// Dijkstra's algorithm from `source`.
///
/// Deterministic: ties between equal-distance frontier nodes break toward
/// the lower node id.
///
/// # Examples
///
/// ```
/// use lems_net::graph::{Graph, NodeId, Weight};
/// use lems_net::shortest_path::dijkstra;
///
/// let mut g = Graph::with_nodes(3);
/// g.add_edge(NodeId(0), NodeId(1), Weight::UNIT);
/// g.add_edge(NodeId(1), NodeId(2), Weight::UNIT);
/// let sp = dijkstra(&g, NodeId(0));
/// assert_eq!(sp.distance(NodeId(2)), Weight::from_units(2.0));
/// assert_eq!(sp.distance(NodeId(1)), Weight::UNIT);
/// ```
///
/// # Panics
///
/// Panics if `source` is not a node of `g`.
pub fn dijkstra(g: &Graph, source: NodeId) -> ShortestPaths {
    assert!(source.0 < g.node_count(), "unknown source {source}");
    let n = g.node_count();
    let mut dist = vec![Weight::INFINITY; n];
    let mut done = vec![false; n];
    dist[source.0] = Weight::ZERO;

    // Max-heap over Reverse ordering: (distance, node id).
    let mut heap: BinaryHeap<std::cmp::Reverse<(Weight, usize)>> = BinaryHeap::new();
    heap.push(std::cmp::Reverse((Weight::ZERO, source.0)));

    while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
        if done[u] {
            continue;
        }
        done[u] = true;
        for (v, eid) in g.neighbors(NodeId(u)) {
            let nd = d.saturating_add(g.edge(eid).weight);
            if nd < dist[v.0] {
                dist[v.0] = nd;
                heap.push(std::cmp::Reverse((nd, v.0)));
            }
        }
    }

    ShortestPaths { dist }
}

/// All-pairs shortest-path distances (repeated Dijkstra; suitable for the
/// sparse topologies mail networks have).
#[derive(Clone, Debug)]
pub struct DistanceTable {
    n: usize,
    dist: Vec<Weight>,
}

impl DistanceTable {
    /// Builds the table for `g`.
    pub fn build(g: &Graph) -> Self {
        let n = g.node_count();
        let mut dist = vec![Weight::INFINITY; n * n];
        for s in g.nodes() {
            let sp = dijkstra(g, s);
            for t in g.nodes() {
                dist[s.0 * n + t.0] = sp.distance(t);
            }
        }
        DistanceTable { n, dist }
    }

    /// Distance between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn distance(&self, a: NodeId, b: NodeId) -> Weight {
        assert!(a.0 < self.n && b.0 < self.n, "node out of range");
        self.dist[a.0 * self.n + b.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lems_sim::rng::SimRng;
    use proptest::prelude::*;

    fn line_graph(n: usize) -> Graph {
        let mut g = Graph::with_nodes(n);
        for i in 1..n {
            g.add_edge(NodeId(i - 1), NodeId(i), Weight::UNIT);
        }
        g
    }

    #[test]
    fn line_distances() {
        let g = line_graph(5);
        let sp = dijkstra(&g, NodeId(0));
        for i in 0..5 {
            assert_eq!(sp.distance(NodeId(i)), Weight::from_units(i as f64));
        }
    }

    #[test]
    fn unreachable_nodes() {
        let mut g = line_graph(3);
        let lonely = g.add_node();
        let sp = dijkstra(&g, NodeId(0));
        assert!(sp.distance(lonely).is_infinite());
    }

    #[test]
    fn prefers_lighter_detour() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(2), Weight::from_units(10.0));
        g.add_edge(NodeId(0), NodeId(1), Weight::from_units(1.0));
        g.add_edge(NodeId(1), NodeId(2), Weight::from_units(2.0));
        let sp = dijkstra(&g, NodeId(0));
        assert_eq!(sp.distance(NodeId(2)), Weight::from_units(3.0));
    }

    #[test]
    fn distance_table_symmetry_and_diameter() {
        let g = line_graph(4);
        let t = DistanceTable::build(&g);
        for a in g.nodes() {
            for b in g.nodes() {
                assert_eq!(t.distance(a, b), t.distance(b, a));
            }
        }
        let diameter = g
            .nodes()
            .flat_map(|a| g.nodes().map(move |b| (a, b)))
            .map(|(a, b)| t.distance(a, b))
            .max();
        assert_eq!(diameter, Some(Weight::from_units(3.0)));
    }

    fn random_connected(rng: &mut SimRng, n: usize, extra: usize) -> Graph {
        let mut g = Graph::with_nodes(n);
        // Random spanning tree first, then extra edges.
        for i in 1..n {
            let j = rng.index(i);
            g.add_edge(
                NodeId(i),
                NodeId(j),
                Weight::from_units(rng.range(1..=10) as f64),
            );
        }
        let mut added = 0;
        while added < extra {
            let a = rng.index(n);
            let b = rng.index(n);
            if a != b && g.edge_between(NodeId(a), NodeId(b)).is_none() {
                g.add_edge(
                    NodeId(a),
                    NodeId(b),
                    Weight::from_units(rng.range(1..=10) as f64),
                );
                added += 1;
            }
        }
        g
    }

    proptest! {
        /// Triangle inequality holds for every pair via every intermediate.
        #[test]
        fn triangle_inequality(seed in 0u64..50) {
            let mut rng = SimRng::seed(seed);
            let g = random_connected(&mut rng, 12, 8);
            let t = DistanceTable::build(&g);
            for a in g.nodes() {
                for b in g.nodes() {
                    for c in g.nodes() {
                        let ab = t.distance(a, b);
                        let ac = t.distance(a, c);
                        let cb = t.distance(c, b);
                        prop_assert!(ab <= ac.saturating_add(cb));
                    }
                }
            }
        }

        /// Dijkstra and the all-pairs table agree with Floyd–Warshall
        /// computed here from the edge list: every distance is the weight
        /// of a shortest walk in the graph.
        #[test]
        fn distances_match_floyd_warshall(seed in 0u64..50) {
            let mut rng = SimRng::seed(seed);
            let g = random_connected(&mut rng, 10, 5);
            let n = g.node_count();
            let mut fw = vec![vec![Weight::INFINITY; n]; n];
            for (i, row) in fw.iter_mut().enumerate() {
                row[i] = Weight::ZERO;
            }
            for e in g.edges() {
                let (a, b) = (e.a.0, e.b.0);
                fw[a][b] = fw[a][b].min(e.weight);
                fw[b][a] = fw[b][a].min(e.weight);
            }
            for k in 0..n {
                for i in 0..n {
                    for j in 0..n {
                        let via = fw[i][k].saturating_add(fw[k][j]);
                        if via < fw[i][j] {
                            fw[i][j] = via;
                        }
                    }
                }
            }
            let table = DistanceTable::build(&g);
            for s in g.nodes() {
                let sp = dijkstra(&g, s);
                for v in g.nodes() {
                    prop_assert_eq!(sp.distance(v), fw[s.0][v.0]);
                    prop_assert_eq!(table.distance(s, v), fw[s.0][v.0]);
                }
            }
        }
    }
}
