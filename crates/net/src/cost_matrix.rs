//! The host→server zero-load cost matrix behind the §3.1.1 pipeline.
//!
//! The assignment solver, the §3.1.3 reconfigurator, and GetMail
//! authority-list construction all consume the same quantity: `C_ij`, the
//! zero-load shortest-path communication time between host `i` and server
//! `j`. Building it through [`DistanceTable`] computes (and stores) the
//! full `n × n` all-pairs table — at the million-user scale tier (10k
//! hosts, 500 servers, ~10.5k nodes) that is ~110M entries and 10.5k
//! Dijkstra runs for a matrix that only needs `10k × 500` of them.
//!
//! [`CostMatrix`] computes exactly the host→server block: one Dijkstra per
//! *server* (servers are the smaller side by an order of magnitude),
//! stored as a single flat `Vec<f64>` in host-major order. Build once,
//! share everywhere.
//!
//! [`DistanceTable`]: crate::shortest_path::DistanceTable

use crate::shortest_path::dijkstra;
use crate::topology::Topology;

/// Flat host-major matrix of zero-load host→server shortest-path costs,
/// in time units.
///
/// # Examples
///
/// ```
/// use lems_net::cost_matrix::CostMatrix;
/// use lems_net::generators::fig1;
///
/// let f = fig1();
/// let m = CostMatrix::build(&f.topology);
/// assert_eq!(m.host_count(), 6);
/// assert_eq!(m.server_count(), 3);
/// // The §3.1.1 example: C(H2, S1) is two time units.
/// assert_eq!(m[1][0], 2.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct CostMatrix {
    hosts: usize,
    servers: usize,
    /// `costs[i * servers + j]` = C_ij in units.
    costs: Vec<f64>,
}

impl CostMatrix {
    /// Builds the matrix for `topology`'s hosts × servers (both in node
    /// order, matching [`Topology::hosts`] / [`Topology::servers`]). Runs
    /// one Dijkstra per server.
    ///
    /// # Panics
    ///
    /// Panics if some host cannot reach some server — a disconnected mail
    /// network has no meaningful assignment.
    pub fn build(topology: &Topology) -> Self {
        let host_nodes = topology.hosts();
        let server_nodes = topology.servers();
        let servers = server_nodes.len();
        let hosts = host_nodes.len();
        let mut costs = vec![0.0; hosts * servers];
        for (j, &s) in server_nodes.iter().enumerate() {
            let sp = dijkstra(topology.graph(), s);
            for (i, &h) in host_nodes.iter().enumerate() {
                let w = sp.distance(h);
                assert!(!w.is_infinite(), "host {h} cannot reach server {s}");
                costs[i * servers + j] = w.as_units();
            }
        }
        CostMatrix {
            hosts,
            servers,
            costs,
        }
    }

    /// Number of hosts (rows).
    pub fn host_count(&self) -> usize {
        self.hosts
    }

    /// Number of servers (columns).
    pub fn server_count(&self) -> usize {
        self.servers
    }

    /// `C_ij` for host `i`, server `j`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn cost(&self, host: usize, server: usize) -> f64 {
        assert!(
            host < self.hosts && server < self.servers,
            "cost matrix index out of range"
        );
        self.costs[host * self.servers + server]
    }

    /// Host `i`'s full row of server costs.
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range.
    pub fn row(&self, host: usize) -> &[f64] {
        &self.costs[host * self.servers..(host + 1) * self.servers]
    }

    /// Removes host `i`'s row (§3.1.3b delete-host reconfiguration).
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range.
    pub fn remove_host_row(&mut self, host: usize) {
        assert!(host < self.hosts, "unknown host row {host}");
        let start = host * self.servers;
        self.costs.drain(start..start + self.servers);
        self.hosts -= 1;
    }

    /// Appends a server column (§3.1.3c add-server reconfiguration);
    /// `col[i]` is host `i`'s cost to the new server.
    ///
    /// # Panics
    ///
    /// Panics if the column is misaligned with the hosts.
    pub fn push_server_col(&mut self, col: &[f64]) {
        assert_eq!(col.len(), self.hosts, "server column must cover every host");
        let old = self.servers;
        let mut costs = Vec::with_capacity(self.hosts * (old + 1));
        for (i, &c) in col.iter().enumerate() {
            costs.extend_from_slice(&self.costs[i * old..(i + 1) * old]);
            costs.push(c);
        }
        self.costs = costs;
        self.servers = old + 1;
    }

    /// Removes server `j`'s column (§3.1.3c delete-server
    /// reconfiguration).
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn remove_server_col(&mut self, server: usize) {
        assert!(server < self.servers, "unknown server column {server}");
        let old = self.servers;
        let mut costs = Vec::with_capacity(self.hosts * (old - 1));
        for i in 0..self.hosts {
            for j in 0..old {
                if j != server {
                    costs.push(self.costs[i * old + j]);
                }
            }
        }
        self.costs = costs;
        self.servers = old - 1;
    }
}

impl std::ops::Index<usize> for CostMatrix {
    type Output = [f64];

    /// Indexes by host, yielding the row slice — so `m[i][j]` reads
    /// exactly like the nested-`Vec` layout it replaced.
    fn index(&self, host: usize) -> &[f64] {
        self.row(host)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{fig1, multi_region, MultiRegionConfig};
    use lems_sim::rng::SimRng;

    #[test]
    fn matches_distance_table_on_fig1() {
        let f = fig1();
        let m = CostMatrix::build(&f.topology);
        let d = f.topology.distances();
        for (i, &h) in f.hosts.iter().enumerate() {
            for (j, &s) in f.servers.iter().enumerate() {
                assert_eq!(m.cost(i, j), d.distance(h, s).as_units(), "C[{i}][{j}]");
            }
        }
    }

    #[test]
    fn matches_distance_table_on_random_topology() {
        let mut rng = SimRng::seed(11);
        let t = multi_region(&mut rng, &MultiRegionConfig::default());
        let m = CostMatrix::build(&t);
        let d = t.distances();
        let hosts = t.hosts();
        let servers = t.servers();
        assert_eq!(m.host_count(), hosts.len());
        assert_eq!(m.server_count(), servers.len());
        for (i, &h) in hosts.iter().enumerate() {
            for (j, &s) in servers.iter().enumerate() {
                assert_eq!(m.cost(i, j), d.distance(h, s).as_units());
            }
        }
    }

    /// Rows `[1, 2]` and `[3, 4]`.
    fn two_by_two() -> CostMatrix {
        CostMatrix {
            hosts: 2,
            servers: 2,
            costs: vec![1.0, 2.0, 3.0, 4.0],
        }
    }

    #[test]
    fn index_sugar_reads_rows() {
        let m = two_by_two();
        assert_eq!(m[0][1], 2.0);
        assert_eq!(m[1], [3.0, 4.0]);
    }

    #[test]
    fn push_and_remove_rows_and_cols() {
        let mut m = two_by_two();
        m.push_server_col(&[7.0, 8.0]);
        assert_eq!(m.server_count(), 3);
        assert_eq!(m[0], [1.0, 2.0, 7.0]);
        assert_eq!(m[1], [3.0, 4.0, 8.0]);
        m.remove_host_row(0);
        assert_eq!(m.host_count(), 1);
        assert_eq!(m[0], [3.0, 4.0, 8.0]);
        m.remove_server_col(0);
        assert_eq!(m.server_count(), 2);
        assert_eq!(m[0], [4.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "cannot reach")]
    fn disconnected_host_panics() {
        use crate::topology::RegionId;
        let mut t = crate::topology::Topology::new();
        let _s = t.add_server(RegionId(0), "S0");
        let _h = t.add_host(RegionId(0), "H0"); // never linked
        let _ = CostMatrix::build(&t);
    }
}
