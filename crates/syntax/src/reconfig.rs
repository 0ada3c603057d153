//! Reconfiguration procedures of §3.1.3: adding and deleting users, hosts,
//! and servers, with re-balancing through the §3.1.1 assignment algorithm.
//!
//! Reconfiguration operates on the assignment state (`AssignmentProblem` +
//! `Assignment`); pushing the resulting authority-list changes into a
//! running deployment is the caller's job (the paper: "some changes are
//! made to tables in all servers").

use lems_net::graph::NodeId;

use crate::assign::{
    balance, Assignment, AssignmentProblem, BalanceOptions, BalanceReport, HostSpec,
};
use crate::cost::ServerSpec;

/// What a reconfiguration step did.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReconfigReport {
    /// Users whose server assignment changed.
    pub moved_users: u64,
    /// Servers that had to be told about the change (table updates).
    pub notified_servers: usize,
    /// The balancing pass that followed, if one ran.
    pub rebalance: Option<BalanceReport>,
}

/// Assignment state plus the operations of §3.1.3.
#[derive(Clone, Debug)]
pub struct Reconfigurator {
    problem: AssignmentProblem,
    assignment: Assignment,
}

impl Reconfigurator {
    /// Wraps an existing problem/assignment pair.
    pub fn new(problem: AssignmentProblem, assignment: Assignment) -> Self {
        Reconfigurator {
            problem,
            assignment,
        }
    }

    /// The current problem.
    pub fn problem(&self) -> &AssignmentProblem {
        &self.problem
    }

    /// The current assignment.
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// Runs §3.1.1's [`balance`] with the paper's one-user moves.
    fn rebalance(&mut self) -> BalanceReport {
        balance(
            &self.problem,
            &mut self.assignment,
            BalanceOptions::default(),
        )
    }

    fn snapshot(&self) -> Vec<Vec<u32>> {
        (0..self.problem.host_count())
            .map(|i| {
                (0..self.problem.server_count())
                    .map(|j| self.assignment.count(i, j))
                    .collect()
            })
            .collect()
    }

    /// Users moved between two snapshots with identical shapes.
    fn moved_since(&self, before: &[Vec<u32>]) -> u64 {
        let mut moved = 0u64;
        for (i, row_before) in before.iter().enumerate().take(self.problem.host_count()) {
            for (j, &b) in row_before
                .iter()
                .enumerate()
                .take(self.problem.server_count())
            {
                let after = self.assignment.count(i, j);
                if after < b {
                    moved += u64::from(b - after);
                }
            }
        }
        moved
    }

    /// §3.1.3a: adds `k` users to host `host` — "a simple procedure that
    /// does not have to balance the load": they go to the cheapest server
    /// at current loads. If that overloads servers, a rebalance runs.
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range.
    pub fn add_users(&mut self, host: usize, k: u32) -> ReconfigReport {
        assert!(
            host < self.problem.host_count(),
            "unknown host index {host}"
        );
        let before = self.snapshot();
        self.problem.hosts[host].users += k;
        let j = (0..self.problem.server_count())
            .min_by(|&x, &y| {
                self.problem
                    .tc(host, x, self.assignment.load(x))
                    .total_cmp(&self.problem.tc(host, y, self.assignment.load(y)))
            })
            .unwrap_or(0);
        self.assignment.place(host, j, k);

        let mut report = ReconfigReport {
            notified_servers: 1,
            ..ReconfigReport::default()
        };
        if !self.assignment.overloaded(&self.problem).is_empty() {
            report.rebalance = Some(self.rebalance());
            report.notified_servers = self.problem.server_count();
        }
        report.moved_users = self.moved_since(&before);
        report
    }

    /// §3.1.3a: removes `k` users from host `host`, draining its most
    /// loaded servers first.
    ///
    /// # Panics
    ///
    /// Panics if the host has fewer than `k` users.
    pub fn remove_users(&mut self, host: usize, k: u32) -> ReconfigReport {
        assert!(
            self.problem.hosts[host].users >= k,
            "host {host} has fewer than {k} users"
        );
        self.problem.hosts[host].users -= k;
        let mut left = k;
        while left > 0 {
            // The assertion above guarantees enough placed users exist.
            let Some(j) = (0..self.problem.server_count())
                .filter(|&j| self.assignment.count(host, j) > 0)
                .max_by_key(|&j| self.assignment.count(host, j))
            else {
                break;
            };
            let take = left.min(self.assignment.count(host, j));
            self.assignment.remove(host, j, take);
            left -= take;
        }
        ReconfigReport {
            moved_users: u64::from(k),
            notified_servers: 1,
            ..ReconfigReport::default()
        }
    }

    /// §3.1.3b: adds a host with `users` users; `comm_row[j]` is its
    /// zero-load distance to server `j`. The new load is distributed by
    /// nearest-server placement followed by balancing.
    ///
    /// # Panics
    ///
    /// Panics if `comm_row` is misaligned with the servers.
    pub fn add_host(&mut self, node: NodeId, users: u32, comm_row: &[f64]) -> ReconfigReport {
        assert_eq!(
            comm_row.len(),
            self.problem.server_count(),
            "comm_row must cover every server"
        );
        self.problem.hosts.push(HostSpec { node, users });
        self.problem.comm.push_host_row(comm_row);
        // Grow the assignment matrix by rebuilding shape-compatibly.
        let mut grown = Assignment::empty(&self.problem);
        for i in 0..self.problem.host_count() - 1 {
            for j in 0..self.problem.server_count() {
                let c = self.assignment.count(i, j);
                if c > 0 {
                    grown.place(i, j, c);
                }
            }
        }
        self.assignment = grown;
        let host = self.problem.host_count() - 1;
        let j = (0..self.problem.server_count())
            .min_by(|&x, &y| self.problem.comm[host][x].total_cmp(&self.problem.comm[host][y]))
            .unwrap_or(0);
        self.assignment.place(host, j, users);
        let before = self.snapshot();
        let rebalance = self.rebalance();
        ReconfigReport {
            moved_users: self.moved_since(&before),
            notified_servers: self.problem.server_count(),
            rebalance: Some(rebalance),
        }
    }

    /// §3.1.3b: removes host `host` and its users; "the load balancing
    /// state among the servers is upset and our load balancing algorithm
    /// should be applied".
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range.
    pub fn remove_host(&mut self, host: usize) -> ReconfigReport {
        assert!(
            host < self.problem.host_count(),
            "unknown host index {host}"
        );
        let users = self.problem.hosts[host].users;
        for j in 0..self.problem.server_count() {
            let c = self.assignment.count(host, j);
            if c > 0 {
                self.assignment.remove(host, j, c);
            }
        }
        self.problem.hosts.remove(host);
        self.problem.comm.remove_host_row(host);
        // Rebuild the matrix without the removed row.
        let mut shrunk = Assignment::empty(&self.problem);
        let mut old_i = 0;
        for i in 0..self.problem.host_count() {
            if old_i == host {
                old_i += 1;
            }
            for j in 0..self.problem.server_count() {
                let c = self.assignment.count(old_i, j);
                if c > 0 {
                    shrunk.place(i, j, c);
                }
            }
            old_i += 1;
        }
        self.assignment = shrunk;
        let before = self.snapshot();
        let rebalance = self.rebalance();
        ReconfigReport {
            moved_users: self.moved_since(&before) + u64::from(users),
            notified_servers: self.problem.server_count(),
            rebalance: Some(rebalance),
        }
    }

    /// §3.1.3c: adds a server. "First, the new server notifies all other
    /// servers about its being added … Then the server assignment procedure
    /// is performed to redistribute the load so that some users are
    /// assigned to the new server."
    ///
    /// `comm_col[i]` is host `i`'s zero-load distance to the new server.
    ///
    /// # Panics
    ///
    /// Panics if `comm_col` is misaligned with the hosts.
    pub fn add_server(
        &mut self,
        node: NodeId,
        spec: ServerSpec,
        comm_col: &[f64],
    ) -> ReconfigReport {
        assert_eq!(
            comm_col.len(),
            self.problem.host_count(),
            "comm_col must cover every host"
        );
        let notified = self.problem.server_count();
        self.problem.servers.push((node, spec));
        self.problem.comm.push_server_col(comm_col);
        // Extend the matrix with a zero column.
        let mut grown = Assignment::empty(&self.problem);
        for i in 0..self.problem.host_count() {
            for j in 0..self.problem.server_count() - 1 {
                let c = self.assignment.count(i, j);
                if c > 0 {
                    grown.place(i, j, c);
                }
            }
        }
        self.assignment = grown;
        let before = self.snapshot();
        let rebalance = self.rebalance();
        ReconfigReport {
            moved_users: self.moved_since(&before),
            notified_servers: notified,
            rebalance: Some(rebalance),
        }
    }

    /// §3.1.3c: deletes server `server`. "The server to be deleted notifies
    /// all other servers before it is removed. Those servers then cooperate
    /// to share the load of the removed server."
    ///
    /// # Panics
    ///
    /// Panics if it is the last server (users would have nowhere to go) or
    /// the index is out of range.
    pub fn remove_server(&mut self, server: usize) -> ReconfigReport {
        assert!(
            server < self.problem.server_count(),
            "unknown server {server}"
        );
        assert!(
            self.problem.server_count() > 1,
            "cannot remove the last server"
        );
        let displaced: u64 = (0..self.problem.host_count())
            .map(|i| u64::from(self.assignment.count(i, server)))
            .sum();

        // Move each host's users on the dying server to its cheapest other
        // server, then drop the column and rebalance.
        for i in 0..self.problem.host_count() {
            let c = self.assignment.count(i, server);
            if c == 0 {
                continue;
            }
            // Another server exists: the last-server case is asserted out
            // at the top of `remove_server`.
            let Some(j) = (0..self.problem.server_count())
                .filter(|&j| j != server)
                .min_by(|&x, &y| {
                    self.problem
                        .tc(i, x, self.assignment.load(x))
                        .total_cmp(&self.problem.tc(i, y, self.assignment.load(y)))
                })
            else {
                continue;
            };
            self.assignment.transfer(i, server, j, c);
        }

        self.problem.servers.remove(server);
        self.problem.comm.remove_server_col(server);
        let mut shrunk = Assignment::empty(&self.problem);
        for i in 0..self.problem.host_count() {
            let mut old_j = 0;
            for j in 0..self.problem.server_count() {
                if old_j == server {
                    old_j += 1;
                }
                let c = self.assignment.count(i, old_j);
                if c > 0 {
                    shrunk.place(i, j, c);
                }
                old_j += 1;
            }
        }
        self.assignment = shrunk;
        let before = self.snapshot();
        let rebalance = self.rebalance();
        ReconfigReport {
            moved_users: self.moved_since(&before) + displaced,
            notified_servers: self.problem.server_count(),
            rebalance: Some(rebalance),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::{initialize, solve};
    use crate::cost::CostModel;
    use lems_net::generators::fig1;

    fn reconf() -> Reconfigurator {
        let f = fig1();
        let p = AssignmentProblem::from_topology(
            &f.topology,
            &f.users_per_host,
            ServerSpec::paper_example(),
            CostModel::paper_example(),
        );
        let (a, _) = solve(&p, BalanceOptions::default());
        Reconfigurator::new(p, a)
    }

    #[test]
    fn add_users_simple_path() {
        let mut r = reconf();
        let before_total: u32 = r.assignment().loads().iter().sum();
        let rep = r.add_users(0, 5);
        assert_eq!(r.assignment().loads().iter().sum::<u32>(), before_total + 5);
        // Plenty of headroom: no rebalance needed.
        assert!(rep.rebalance.is_none());
    }

    #[test]
    fn add_users_triggers_rebalance_when_overloading() {
        let mut r = reconf();
        let rep = r.add_users(0, 25); // 270 + 25 = 295 of 300: tight
                                      // Either way the invariant holds: totals preserved.
        assert_eq!(r.assignment().loads().iter().sum::<u32>(), 295);
        let _ = rep;
    }

    #[test]
    fn remove_users_shrinks_population() {
        let mut r = reconf();
        let rep = r.remove_users(1, 10);
        assert_eq!(rep.moved_users, 10);
        assert_eq!(r.problem().hosts[1].users, 50);
        assert_eq!(r.assignment().loads().iter().sum::<u32>(), 260);
    }

    #[test]
    fn add_and_remove_host_preserve_population_balance() {
        let mut r = reconf();
        let rep = r.add_host(NodeId(99), 30, &[2.0, 1.0, 2.0]);
        assert!(rep.rebalance.is_some());
        assert_eq!(r.assignment().loads().iter().sum::<u32>(), 300);
        assert_eq!(r.problem().host_count(), 7);

        let rep = r.remove_host(6);
        assert!(rep.moved_users >= 30);
        assert_eq!(r.assignment().loads().iter().sum::<u32>(), 270);
        assert_eq!(r.problem().host_count(), 6);
    }

    #[test]
    fn add_server_attracts_load() {
        let mut r = reconf();
        // New server very close to the overloaded middle hosts.
        let rep = r.add_server(
            NodeId(100),
            ServerSpec::paper_example(),
            &[2.0, 1.0, 2.0, 1.0, 1.0, 2.0],
        );
        assert_eq!(rep.notified_servers, 3);
        assert_eq!(r.problem().server_count(), 4);
        let new_load = r.assignment().load(3);
        assert!(new_load > 0, "new server should take load, got {new_load}");
        assert_eq!(r.assignment().loads().iter().sum::<u32>(), 270);
    }

    #[test]
    fn remove_server_redistributes_users() {
        let mut r = reconf();
        let displaced = r.assignment().load(2);
        let rep = r.remove_server(2);
        assert!(rep.moved_users >= u64::from(displaced));
        assert_eq!(r.problem().server_count(), 2);
        assert_eq!(r.assignment().loads().iter().sum::<u32>(), 270);
    }

    #[test]
    #[should_panic(expected = "cannot remove the last server")]
    fn removing_last_server_panics() {
        let mut r = reconf();
        r.remove_server(0);
        r.remove_server(0);
        r.remove_server(0);
    }

    #[test]
    fn initialize_then_reconfigure_is_consistent() {
        let f = fig1();
        let p = AssignmentProblem::from_topology(
            &f.topology,
            &f.users_per_host,
            ServerSpec::paper_example(),
            CostModel::paper_example(),
        );
        let a = initialize(&p);
        let mut r = Reconfigurator::new(p, a);
        r.add_users(5, 3);
        r.remove_users(0, 3);
        assert_eq!(r.assignment().loads().iter().sum::<u32>(), 270);
    }
}
