//! Centralized minimum spanning trees (Kruskal; the tests hold it to Prim).
//!
//! These serve two roles: a verification oracle for the *distributed* GHS
//! implementation in `lems-mst` (both must produce the identical edge set on
//! distinct-weight graphs), and a fast planning tool for the attribute-mail
//! cost tables of §3.3.1B.

use crate::graph::{EdgeId, Graph, NodeId, Weight};

/// Disjoint-set union with path compression and union by rank.
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
    components: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            rank: vec![0; n],
            components: n,
        }
    }

    /// Representative of `x`'s set.
    pub(crate) fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    /// Merges the sets containing `a` and `b`; returns `false` if already
    /// joined.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb,
            std::cmp::Ordering::Greater => self.parent[rb] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
        self.components -= 1;
        true
    }

    /// Number of disjoint sets remaining.
    pub fn component_count(&self) -> usize {
        self.components
    }
}

/// A spanning tree (or forest, for disconnected inputs) of a graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanningTree {
    edges: Vec<EdgeId>,
    weight: Weight,
}

impl SpanningTree {
    /// The tree's edges (sorted by id for canonical comparison).
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// Sum of the tree's edge weights — the total broadcast cost of
    /// §3.3.1B.
    pub fn total_weight(&self) -> Weight {
        self.weight
    }

    /// Number of edges (== nodes − components).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True for an empty tree.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Adjacency restricted to tree edges: node -> tree neighbors.
    pub fn adjacency(&self, g: &Graph) -> Vec<Vec<NodeId>> {
        let mut adj = vec![Vec::new(); g.node_count()];
        for &eid in &self.edges {
            let e = g.edge(eid);
            adj[e.a.0].push(e.b);
            adj[e.b.0].push(e.a);
        }
        adj
    }
}

/// Kruskal's algorithm. Works on forests; ties break by edge id, so the
/// result is deterministic even with duplicate weights.
///
/// # Examples
///
/// ```
/// use lems_net::graph::{Graph, NodeId, Weight};
/// use lems_net::mst::kruskal;
///
/// let mut g = Graph::with_nodes(3);
/// g.add_edge(NodeId(0), NodeId(1), Weight::from_units(1.0));
/// g.add_edge(NodeId(1), NodeId(2), Weight::from_units(2.0));
/// g.add_edge(NodeId(0), NodeId(2), Weight::from_units(9.0));
/// let t = kruskal(&g);
/// assert_eq!(t.len(), 2);
/// assert_eq!(t.total_weight(), Weight::from_units(3.0));
/// ```
pub fn kruskal(g: &Graph) -> SpanningTree {
    let mut order: Vec<EdgeId> = (0..g.edge_count()).map(EdgeId).collect();
    order.sort_by_key(|&e| (g.edge(e).weight, e));
    let mut uf = UnionFind::new(g.node_count());
    let mut edges = Vec::new();
    let mut weight = Weight::ZERO;
    for eid in order {
        let e = g.edge(eid);
        if uf.union(e.a.0, e.b.0) {
            edges.push(eid);
            weight = weight.saturating_add(e.weight);
        }
    }
    edges.sort_unstable();
    SpanningTree { edges, weight }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lems_sim::rng::SimRng;
    use proptest::prelude::*;

    /// Prim's algorithm from an arbitrary root (node 0), Kruskal's
    /// cross-check. Only defined on connected graphs.
    ///
    /// # Panics
    ///
    /// Panics if `g` is empty or not connected.
    fn prim(g: &Graph) -> SpanningTree {
        assert!(g.node_count() > 0, "prim requires a non-empty graph");
        let mut in_tree = vec![false; g.node_count()];
        in_tree[0] = true;
        let mut edges = Vec::new();
        let mut weight = Weight::ZERO;
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(Weight, EdgeId)>> =
            std::collections::BinaryHeap::new();
        for (_, eid) in g.neighbors(NodeId(0)) {
            heap.push(std::cmp::Reverse((g.edge(eid).weight, eid)));
        }
        while let Some(std::cmp::Reverse((w, eid))) = heap.pop() {
            let e = g.edge(eid);
            let fresh = match (in_tree[e.a.0], in_tree[e.b.0]) {
                (true, false) => Some(e.b),
                (false, true) => Some(e.a),
                _ => None,
            };
            let Some(v) = fresh else { continue };
            in_tree[v.0] = true;
            edges.push(eid);
            weight = weight.saturating_add(w);
            for (_, ne) in g.neighbors(v) {
                heap.push(std::cmp::Reverse((g.edge(ne).weight, ne)));
            }
        }
        assert!(
            edges.len() + 1 == g.node_count(),
            "prim requires a connected graph"
        );
        edges.sort_unstable();
        SpanningTree { edges, weight }
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(4);
        assert_eq!(uf.component_count(), 4);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert_eq!(uf.find(0), uf.find(1));
        assert_ne!(uf.find(0), uf.find(2));
        assert_eq!(uf.component_count(), 3);
    }

    fn diamond() -> Graph {
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1), Weight::from_units(1.0));
        g.add_edge(NodeId(1), NodeId(3), Weight::from_units(4.0));
        g.add_edge(NodeId(0), NodeId(2), Weight::from_units(3.0));
        g.add_edge(NodeId(2), NodeId(3), Weight::from_units(2.0));
        g.add_edge(NodeId(0), NodeId(3), Weight::from_units(10.0));
        g
    }

    #[test]
    fn kruskal_picks_light_edges() {
        let t = kruskal(&diamond());
        assert_eq!(t.len(), 3);
        assert_eq!(t.total_weight(), Weight::from_units(6.0));
    }

    #[test]
    fn kruskal_and_prim_agree_on_distinct_weights() {
        let g = diamond();
        assert_eq!(kruskal(&g), prim(&g));
    }

    #[test]
    fn kruskal_on_forest() {
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1), Weight::UNIT);
        g.add_edge(NodeId(2), NodeId(3), Weight::UNIT);
        let t = kruskal(&g);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn adjacency_matches_edges() {
        let g = diamond();
        let t = kruskal(&g);
        let adj = t.adjacency(&g);
        let degree_sum: usize = adj.iter().map(Vec::len).sum();
        assert_eq!(degree_sum, 2 * t.len());
    }

    fn random_connected(rng: &mut SimRng, n: usize, extra: usize) -> Graph {
        let mut g = Graph::with_nodes(n);
        for i in 1..n {
            let j = rng.index(i);
            g.add_edge(
                NodeId(i),
                NodeId(j),
                Weight::from_units(rng.range(1..=100) as f64),
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
                    Weight::from_units(rng.range(1..=100) as f64),
                );
                added += 1;
            }
        }
        g
    }

    proptest! {
        /// Kruskal == Prim on connected graphs with distinct weights, and
        /// the tree weight is minimal among a sample of random spanning
        /// trees.
        #[test]
        fn mst_invariants(seed in 0u64..60) {
            let mut rng = SimRng::seed(seed);
            let g = random_connected(&mut rng, 12, 10).with_distinct_weights();
            let k = kruskal(&g);
            let p = prim(&g);
            prop_assert_eq!(&k, &p);
            prop_assert_eq!(k.len() + 1, g.node_count());

            // Exchange check: every non-tree edge closes a cycle whose tree
            // edges are all at most as heavy (cut property corollary).
            let tree_set: std::collections::HashSet<EdgeId> =
                k.edges().iter().copied().collect();
            let adj = k.adjacency(&g);
            for eid in (0..g.edge_count()).map(EdgeId) {
                if tree_set.contains(&eid) {
                    continue;
                }
                let e = g.edge(eid);
                // Find the tree path a..b by DFS.
                let mut stack = vec![(e.a, e.a)];
                let mut parent = vec![None; g.node_count()];
                while let Some((u, from)) = stack.pop() {
                    for &v in &adj[u.0] {
                        if v != from && parent[v.0].is_none() && v != e.a {
                            parent[v.0] = Some(u);
                            stack.push((v, u));
                        }
                    }
                }
                let mut cur = e.b;
                while let Some(p) = parent[cur.0] {
                    let pe = g.edge_between(cur, p).unwrap();
                    prop_assert!(g.edge(pe).weight < e.weight,
                        "non-tree edge lighter than a cycle tree edge");
                    cur = p;
                }
            }
        }
    }
}
