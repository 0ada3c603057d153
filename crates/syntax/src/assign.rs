//! The server-assignment and load-balancing algorithm of §3.1.1.
//!
//! The algorithm assigns users (grouped by host) to mail servers so as to
//! (i) minimise user connection cost and (ii) balance expected load among
//! servers:
//!
//! 1. **Initialisation** — connection cost is computed "as a function of
//!    the communication time alone using the shortest-path zero-load
//!    algorithm"; all users on a host are assigned to the nearest server.
//!    (Reproduces Tables 1 and 3.)
//! 2. **Balancing** — repeatedly, for each host, pick the assigned server
//!    with the highest current connection cost (`S_max`) and the server
//!    with the lowest (`S_min`); tentatively move users from `S_max` to
//!    `S_min`, recompute costs, and undo the move if it did not improve the
//!    objective. Stop when a full pass makes no change. (Reproduces
//!    Table 2.)
//!
//! The objective being improved is the total connection cost
//! `Σ_ij A_ij · TC_ij`, which decomposes as
//! `W1·Σ_ij A_ij·C_ij + W2·Σ_j L_j·(Q(ρ_j) + z_j)` — the second term
//! depends only on per-server loads, which makes move evaluation O(1).
//!
//! The paper notes the algorithm "can be made much faster if in each
//! iteration more than one user is moved"; [`BalanceOptions::batch`]
//! implements that ablation.
//!
//! ## Scaling beyond the worked example
//!
//! [`balance`] judges each tentative move by its exact `O(1)` change of
//! the objective ([`transfer_delta`]), so a trial costs the two
//! `O(servers)` scans that find `S_min` and `S_max`, and the paper's rule
//! runs at a million users. Recomputing the whole `O(hosts × servers)`
//! sum before and after each move would cost more, and it would also
//! decide wrongly: the two sums' round-off outweighs `COST_EPS`, so a
//! move that changes nothing could pass as a gain.
//!
//! The rule can stop with a server still over capacity. `S_min` is the
//! cheapest server by *average* cost, and a server just below the ρ
//! cutoff looks cheap on average although one more user sends every
//! resident's waiting time to β; the `S_max → S_min` move is then refused
//! while farther, emptier servers go unused. The paper's last step checks
//! for this ([`Assignment::overloaded`]).
//!
//! The solver is single-threaded: §3.1.1's one named speed-up is
//! batching, and a thread fan-out of a per-host evaluate step measured
//! 0.75–1.11× (DESIGN.md §13), so there is none.
//!
//! ## Authority lists
//!
//! [`authority_lists`] draws each user's list from the solved assignment:
//! the assigned server first ("the first server in the list is the
//! primary server"), then the servers its host finds cheapest by `TC_ij`
//! at the final loads.

use lems_net::cost_matrix::CostMatrix;
use lems_net::graph::NodeId;
use lems_net::topology::Topology;

use crate::cost::{CostModel, ServerSpec};

/// Moves below this margin are treated as non-improving (guards against
/// float round-off oscillation).
const COST_EPS: f64 = 1e-12;

/// Safety bound on [`balance`]'s full passes over the hosts.
const MAX_PASSES: u64 = 100_000;

/// A host together with its user population (`N_i`).
#[derive(Clone, Copy, Debug)]
pub struct HostSpec {
    /// The host's node in the topology.
    pub node: NodeId,
    /// Number of users on the host.
    pub users: u32,
}

/// An instance of the assignment problem.
#[derive(Clone, Debug)]
pub struct AssignmentProblem {
    /// Hosts with their populations.
    pub hosts: Vec<HostSpec>,
    /// Servers with their capacities and processing times.
    pub servers: Vec<(NodeId, ServerSpec)>,
    /// `C_ij`: zero-load shortest-path communication time (in units)
    /// between host `i` and server `j`, as a shared flat matrix.
    pub comm: CostMatrix,
    /// Cost constants.
    pub model: CostModel,
}

impl AssignmentProblem {
    /// Builds a problem from a topology: hosts/servers are taken from the
    /// topology (in node order), `C_ij` from all-pairs shortest paths, and
    /// every server gets the same `spec`.
    ///
    /// # Panics
    ///
    /// Panics if `users_per_host` length differs from the topology's host
    /// count, if there are no servers, or if some host cannot reach some
    /// server.
    pub fn from_topology(
        topology: &Topology,
        users_per_host: &[u32],
        spec: ServerSpec,
        model: CostModel,
    ) -> Self {
        Self::from_matrix(
            topology,
            CostMatrix::build(topology),
            users_per_host,
            spec,
            model,
        )
    }

    /// Builds a problem around an already-computed [`CostMatrix`] — the
    /// scale path, where the matrix is built once and shared by
    /// assignment, reconfiguration, and GetMail authority lists.
    ///
    /// # Panics
    ///
    /// Panics if the matrix shape does not match the topology's
    /// hosts × servers, plus the conditions of
    /// [`AssignmentProblem::from_topology`].
    pub fn from_matrix(
        topology: &Topology,
        comm: CostMatrix,
        users_per_host: &[u32],
        spec: ServerSpec,
        model: CostModel,
    ) -> Self {
        let host_nodes = topology.hosts();
        let server_nodes = topology.servers();
        assert_eq!(
            host_nodes.len(),
            users_per_host.len(),
            "users_per_host must align with the topology's hosts"
        );
        assert!(!server_nodes.is_empty(), "need at least one server");
        assert_eq!(
            (comm.host_count(), comm.server_count()),
            (host_nodes.len(), server_nodes.len()),
            "cost matrix shape must match the topology"
        );
        let validation = model.validate();
        assert!(validation.is_ok(), "invalid cost model: {validation:?}");

        AssignmentProblem {
            hosts: host_nodes
                .iter()
                .zip(users_per_host)
                .map(|(&node, &users)| HostSpec { node, users })
                .collect(),
            servers: server_nodes.into_iter().map(|n| (n, spec)).collect(),
            comm,
            model,
        }
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Number of servers.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// Total user population.
    pub fn total_users(&self) -> u32 {
        self.hosts.iter().map(|h| h.users).sum()
    }

    /// Total server capacity.
    pub fn total_capacity(&self) -> u32 {
        self.servers.iter().map(|(_, s)| s.max_load).sum()
    }

    /// `TC_ij` given a hypothetical load on server `j`.
    pub fn tc(&self, host: usize, server: usize, load: u32) -> f64 {
        let (_, spec) = self.servers[server];
        self.model
            .connection_cost(self.comm[host][server], load, spec.max_load, spec.proc_time)
    }

    /// The per-server term of the objective: `L·(Q(L/M)+z)·W2`.
    fn load_term(&self, server: usize, load: u32) -> f64 {
        let (_, spec) = self.servers[server];
        f64::from(load)
            * (self.model.queueing_delay(load, spec.max_load) + spec.proc_time)
            * self.model.w_proc
    }
}

/// `A_ij`: how many users of each host are assigned to each server.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Assignment {
    counts: Vec<Vec<u32>>,
    loads: Vec<u32>,
}

impl Assignment {
    /// An all-zero assignment shaped for `p`.
    pub fn empty(p: &AssignmentProblem) -> Self {
        Assignment {
            counts: vec![vec![0; p.server_count()]; p.host_count()],
            loads: vec![0; p.server_count()],
        }
    }

    /// `A_ij`.
    pub fn count(&self, host: usize, server: usize) -> u32 {
        self.counts[host][server]
    }

    /// `L_j`: current load on server `j`.
    pub fn load(&self, server: usize) -> u32 {
        self.loads[server]
    }

    /// All server loads.
    pub fn loads(&self) -> &[u32] {
        &self.loads
    }

    /// `ρ_j` under problem `p`.
    pub fn utilization(&self, p: &AssignmentProblem, server: usize) -> f64 {
        f64::from(self.loads[server]) / f64::from(p.servers[server].1.max_load)
    }

    /// Moves `k` users of `host` from `from` to `to`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `k` users of `host` are on `from`.
    pub(crate) fn transfer(&mut self, host: usize, from: usize, to: usize, k: u32) {
        assert!(
            self.counts[host][from] >= k,
            "host {host} has only {} users on server {from}, cannot move {k}",
            self.counts[host][from]
        );
        self.counts[host][from] -= k;
        self.counts[host][to] += k;
        self.loads[from] -= k;
        self.loads[to] += k;
    }

    /// Adds `k` users of `host` to `server` (used by initialisation and
    /// add-user reconfiguration).
    pub fn place(&mut self, host: usize, server: usize, k: u32) {
        self.counts[host][server] += k;
        self.loads[server] += k;
    }

    /// Removes `k` users of `host` from `server` (delete-user
    /// reconfiguration).
    ///
    /// # Panics
    ///
    /// Panics if fewer than `k` users are placed there.
    pub(crate) fn remove(&mut self, host: usize, server: usize, k: u32) {
        assert!(self.counts[host][server] >= k, "not enough users to remove");
        self.counts[host][server] -= k;
        self.loads[server] -= k;
    }

    /// Total connection cost `Σ_ij A_ij · TC_ij` under `p`.
    pub fn total_cost(&self, p: &AssignmentProblem) -> f64 {
        let mut comm_term = 0.0;
        for i in 0..p.host_count() {
            for j in 0..p.server_count() {
                comm_term += f64::from(self.counts[i][j]) * p.comm[i][j];
            }
        }
        let mut load_term = 0.0;
        for j in 0..p.server_count() {
            load_term += p.load_term(j, self.loads[j]);
        }
        comm_term * p.model.w_comm + load_term
    }

    /// Server indices still loaded beyond capacity (the paper's final
    /// "check if some of the servers are still overloaded").
    pub fn overloaded(&self, p: &AssignmentProblem) -> Vec<usize> {
        (0..p.server_count())
            .filter(|&j| self.loads[j] > p.servers[j].1.max_load)
            .collect()
    }

    /// Non-zero rows as `(host index, server index, users)` — the layout of
    /// the paper's Tables 1–3.
    pub fn table_rows(&self) -> Vec<(usize, usize, u32)> {
        let mut rows = Vec::new();
        for (i, row) in self.counts.iter().enumerate() {
            for (j, &k) in row.iter().enumerate() {
                if k > 0 {
                    rows.push((i, j, k));
                }
            }
        }
        rows
    }

    /// FNV-1a digest over the full `A_ij` matrix (shape included) — a
    /// compact fingerprint for determinism checks: byte-identical
    /// assignments, and nothing else, share a digest.
    pub fn digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        eat(self.counts.len() as u64);
        eat(self.loads.len() as u64);
        for row in &self.counts {
            for &c in row {
                eat(u64::from(c));
            }
        }
        h
    }
}

/// Initialisation: every host's users go to its nearest server by
/// zero-load communication time (ties break toward the lower server
/// index, deterministically).
///
/// # Examples
///
/// ```
/// use lems_net::generators::fig1;
/// use lems_syntax::assign::{initialize, AssignmentProblem};
/// use lems_syntax::cost::{CostModel, ServerSpec};
///
/// let f = fig1();
/// let p = AssignmentProblem::from_topology(
///     &f.topology, &f.users_per_host,
///     ServerSpec::paper_example(), CostModel::paper_example());
/// let a = initialize(&p);
/// // Table 1: S1 = 100, S2 = 150, S3 = 20.
/// assert_eq!(a.loads(), &[100, 150, 20]);
/// ```
pub fn initialize(p: &AssignmentProblem) -> Assignment {
    let mut a = Assignment::empty(p);
    for (i, host) in p.hosts.iter().enumerate() {
        // `from_topology` asserts at least one server exists.
        let j = (0..p.server_count())
            .min_by(|&x, &y| p.comm[i][x].total_cmp(&p.comm[i][y]))
            .unwrap_or(0);
        a.place(i, j, host.users);
    }
    a
}

/// Options for [`balance`].
#[derive(Clone, Copy, Debug)]
pub struct BalanceOptions {
    /// Users moved per accepted transfer. The paper's base algorithm moves
    /// one; larger batches are the paper's suggested speed-up.
    pub batch: u32,
}

impl Default for BalanceOptions {
    fn default() -> Self {
        BalanceOptions { batch: 1 }
    }
}

/// Outcome of a balancing run.
#[derive(Clone, Copy, Debug, Default)]
pub struct BalanceReport {
    /// Full passes over all hosts.
    pub passes: u64,
    /// Accepted user transfers (each of up to `batch` users).
    pub moves: u64,
    /// Tentative transfers that were refused (the paper's undo).
    pub undone: u64,
    /// Objective before balancing.
    pub initial_cost: f64,
    /// Objective after balancing.
    pub final_cost: f64,
}

/// The balancing loop of §3.1.1.
///
/// Each pass visits hosts in index order. For host `i`, `S_min` is the
/// server with minimum `TC_ij` at current loads and `S_max` the
/// maximum-cost server among those with `A_ik > 0`. If they differ and
/// `S_min` is strictly cheaper, up to `batch` users move from `S_max` to
/// `S_min`; the move is made only if its exact change of the total
/// objective ([`transfer_delta`]) is below `-COST_EPS` ("otherwise undo
/// the previous action"). Passes repeat "until no more changes are
/// needed".
///
/// Termination: every kept move strictly decreases the objective, and the
/// (finite) assignment space contains no infinite strictly-decreasing
/// chain; `MAX_PASSES` is a belt-and-braces bound.
///
/// # Panics
///
/// Panics if `opts.batch` is 0: no move could ever be tried.
pub fn balance(p: &AssignmentProblem, a: &mut Assignment, opts: BalanceOptions) -> BalanceReport {
    assert!(opts.batch >= 1, "batch must be at least 1");
    let mut report = BalanceReport {
        initial_cost: a.total_cost(p),
        final_cost: 0.0,
        ..BalanceReport::default()
    };

    for _pass in 0..MAX_PASSES {
        report.passes += 1;
        let mut changed = false;

        for i in 0..p.host_count() {
            loop {
                // S_min: cheapest server for host i at current loads.
                let s_min = (0..p.server_count())
                    .min_by(|&x, &y| p.tc(i, x, a.load(x)).total_cmp(&p.tc(i, y, a.load(y))))
                    .unwrap_or(0);
                // S_max: costliest server among those hosting users of i.
                let Some(s_max) = (0..p.server_count())
                    .filter(|&j| a.count(i, j) > 0)
                    .max_by(|&x, &y| p.tc(i, x, a.load(x)).total_cmp(&p.tc(i, y, a.load(y))))
                else {
                    break; // host has no users
                };

                if s_min == s_max {
                    break;
                }
                let tc_min = p.tc(i, s_min, a.load(s_min));
                let tc_max = p.tc(i, s_max, a.load(s_max));
                if tc_min >= tc_max {
                    break;
                }

                // Try the full batch first; if that overshoots, fall back
                // to a single user so batching never changes the fixpoint,
                // only the speed (the paper's suggested optimisation).
                let mut accepted = false;
                for k in [opts.batch.min(a.count(i, s_max)), 1] {
                    if k == 0 {
                        break;
                    }
                    // "Recompute costs" exactly: two total_cost sums
                    // differ by more round-off than COST_EPS.
                    if transfer_delta(p, a, i, s_max, s_min, k) < -COST_EPS {
                        a.transfer(i, s_max, s_min, k);
                        report.moves += 1;
                        changed = true;
                        accepted = true;
                        break;
                    }
                    report.undone += 1;
                    if k == 1 {
                        break;
                    }
                }
                if !accepted {
                    break;
                }
            }
        }

        if !changed {
            break;
        }
    }

    report.final_cost = a.total_cost(p);
    report
}

/// Convenience: initialise then balance, returning both the assignment and
/// the report.
pub fn solve(p: &AssignmentProblem, opts: BalanceOptions) -> (Assignment, BalanceReport) {
    let mut a = initialize(p);
    let report = balance(p, &mut a, opts);
    (a, report)
}

/// Exact `O(1)` objective change for moving `k` users of `host` from
/// server `from` to server `to` at the assignment's *current* loads.
///
/// Derived from the decomposition in the module docs: the comm term
/// changes by `k·(C_i,to − C_i,from)·W1` and only the two touched
/// servers' load terms change.
pub fn transfer_delta(
    p: &AssignmentProblem,
    a: &Assignment,
    host: usize,
    from: usize,
    to: usize,
    k: u32,
) -> f64 {
    let comm_delta =
        f64::from(k) * (p.comm.cost(host, to) - p.comm.cost(host, from)) * p.model.w_comm;
    let load_delta = p.load_term(to, a.load(to) + k) - p.load_term(to, a.load(to))
        + p.load_term(from, a.load(from) - k)
        - p.load_term(from, a.load(from));
    comm_delta + load_delta
}

/// The per-server term of `TC` at the assignment's current loads:
/// `(Q(ρ_j) + z_j)·W2` for every server.
fn server_terms(p: &AssignmentProblem, a: &Assignment) -> Vec<f64> {
    (0..p.server_count())
        .map(|j| {
            let (_, spec) = p.servers[j];
            (p.model.queueing_delay(a.load(j), spec.max_load) + spec.proc_time) * p.model.w_proc
        })
        .collect()
}

/// Every host's `depth` cheapest servers by `TC_ij` at `a`'s loads,
/// cheapest first, ties toward the lower server index. The key is
/// `C_ij·W1` plus the per-server term, bit for bit the value
/// [`AssignmentProblem::tc`] computes; the per-server term is computed
/// once for all hosts, so a comparison is one mul-add even at 500
/// servers.
pub fn server_rankings(p: &AssignmentProblem, a: &Assignment, depth: usize) -> Vec<Vec<usize>> {
    let srv_term = server_terms(p, a);
    let w1 = p.model.w_comm;
    (0..p.host_count())
        .map(|i| {
            let row = p.comm.row(i);
            let mut order: Vec<usize> = (0..p.server_count()).collect();
            order.sort_by(|&x, &y| {
                (row[x] * w1 + srv_term[x])
                    .total_cmp(&(row[y] * w1 + srv_term[y]))
                    .then(x.cmp(&y))
            });
            order.truncate(depth);
            order
        })
        .collect()
}

/// The §3.2.3 authority lists of a solved assignment. For host `i`, one
/// `(users, list)` entry per server `j` with `A_ij > 0`, in server-index
/// order: the `A_ij` users whose primary is `j` share the list of server
/// *node ids* that starts with `j` and goes on with the host's
/// next-cheapest servers ([`server_rankings`]), `list_len` servers in all
/// (at least the primary).
pub fn authority_lists(
    p: &AssignmentProblem,
    a: &Assignment,
    list_len: usize,
) -> Vec<Vec<(u32, Vec<NodeId>)>> {
    let len = list_len.max(1);
    server_rankings(p, a, len)
        .iter()
        .enumerate()
        .map(|(i, ranking)| {
            (0..p.server_count())
                .filter(|&j| a.count(i, j) > 0)
                .map(|primary| {
                    let list = std::iter::once(primary)
                        .chain(ranking.iter().copied().filter(|&j| j != primary))
                        .take(len)
                        .map(|j| p.servers[j].0)
                        .collect();
                    (a.count(i, primary), list)
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lems_net::generators::{fig1, table3};
    use proptest::prelude::*;

    fn fig1_problem() -> AssignmentProblem {
        let f = fig1();
        AssignmentProblem::from_topology(
            &f.topology,
            &f.users_per_host,
            ServerSpec::paper_example(),
            CostModel::paper_example(),
        )
    }

    #[test]
    fn table1_initial_assignment() {
        let p = fig1_problem();
        let a = initialize(&p);
        // Paper Table 1: H1,H3 -> S1; H2,H4,H5 -> S2; H6 -> S3.
        assert_eq!(a.count(0, 0), 50);
        assert_eq!(a.count(1, 1), 60);
        assert_eq!(a.count(2, 0), 50);
        assert_eq!(a.count(3, 1), 50);
        assert_eq!(a.count(4, 1), 40);
        assert_eq!(a.count(5, 2), 20);
        assert_eq!(a.loads(), &[100, 150, 20]);
        // Only S2 exceeds its capacity of 100; S1 sits exactly at capacity.
        assert_eq!(a.overloaded(&p), vec![1]);
    }

    #[test]
    fn table2_balancing_relieves_s2() {
        let p = fig1_problem();
        let (a, report) = solve(&p, BalanceOptions::default());
        // All users still assigned.
        assert_eq!(a.loads().iter().sum::<u32>(), 270);
        // No server over capacity.
        assert!(a.overloaded(&p).is_empty());
        // Objective strictly improved.
        assert!(report.final_cost < report.initial_cost);
        // S2's overload was drained below the M/M/1 cutoff.
        assert!(a.utilization(&p, 1) < 0.99);
        // "Users on one host may be assigned to different servers."
        let split_hosts = (0..p.host_count())
            .filter(|&i| (0..p.server_count()).filter(|&j| a.count(i, j) > 0).count() > 1)
            .count();
        assert!(split_hosts >= 1, "expected at least one split host");
    }

    #[test]
    fn table3_initialization() {
        let f = table3();
        let p = AssignmentProblem::from_topology(
            &f.topology,
            &f.users_per_host,
            ServerSpec::paper_example(),
            CostModel::paper_example(),
        );
        let a = initialize(&p);
        assert_eq!(a.loads(), &[100, 100, 20]);
        let (b, _) = solve(&p, BalanceOptions::default());
        assert!(b.overloaded(&p).is_empty());
        assert_eq!(b.loads().iter().sum::<u32>(), 220);
    }

    #[test]
    fn balancing_never_loses_users() {
        let p = fig1_problem();
        let (a, _) = solve(&p, BalanceOptions::default());
        for i in 0..p.host_count() {
            let total: u32 = (0..p.server_count()).map(|j| a.count(i, j)).sum();
            assert_eq!(total, p.hosts[i].users, "host {i} population changed");
        }
    }

    #[test]
    fn batch_moves_converge_faster() {
        let p = fig1_problem();
        let mut a1 = initialize(&p);
        let r1 = balance(&p, &mut a1, BalanceOptions::default());
        let mut a8 = initialize(&p);
        let r8 = balance(&p, &mut a8, BalanceOptions { batch: 8 });
        assert!(r8.moves < r1.moves, "batched should use fewer moves");
        // Both end in comparable cost (within 5%).
        assert!((r8.final_cost - r1.final_cost).abs() / r1.final_cost < 0.05);
    }

    #[test]
    fn ranking_puts_cheapest_first() {
        let p = fig1_problem();
        let (a, _) = solve(&p, BalanceOptions::default());
        let rankings = server_rankings(&p, &a, p.server_count());
        for (i, rank) in rankings.iter().enumerate() {
            assert_eq!(rank.len(), p.server_count());
            let costs: Vec<f64> = rank.iter().map(|&j| p.tc(i, j, a.load(j))).collect();
            assert!(costs.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn transfer_bookkeeping() {
        let p = fig1_problem();
        let mut a = initialize(&p);
        a.transfer(1, 1, 2, 10);
        assert_eq!(a.count(1, 1), 50);
        assert_eq!(a.count(1, 2), 10);
        assert_eq!(a.load(1), 140);
        assert_eq!(a.load(2), 30);
        a.remove(1, 2, 10);
        assert_eq!(a.load(2), 20);
    }

    #[test]
    #[should_panic(expected = "cannot move")]
    fn over_transfer_panics() {
        let p = fig1_problem();
        let mut a = initialize(&p);
        a.transfer(5, 2, 0, 21); // H6 has only 20 users on S3
    }

    #[test]
    fn transfer_delta_matches_full_recompute() {
        let p = fig1_problem();
        let mut a = initialize(&p);
        for (host, from, to, k) in [(1usize, 1usize, 2usize, 5u32), (3, 1, 0, 2), (0, 0, 2, 10)] {
            let predicted = transfer_delta(&p, &a, host, from, to, k);
            let before = a.total_cost(&p);
            a.transfer(host, from, to, k);
            let actual = a.total_cost(&p) - before;
            assert!(
                (predicted - actual).abs() < 1e-9,
                "delta mismatch: predicted {predicted}, actual {actual}"
            );
        }
    }

    #[test]
    fn digest_distinguishes_assignments() {
        let p = fig1_problem();
        let a = initialize(&p);
        let mut b = a.clone();
        assert_eq!(a.digest(), b.digest());
        b.transfer(1, 1, 2, 1);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn authority_lists_rank_by_final_tc() {
        let p = fig1_problem();
        let (a, _) = solve(&p, BalanceOptions::default());
        let node = |j: usize| p.servers[j].0;
        for len in [1, 2, p.server_count()] {
            let lists = authority_lists(&p, &a, len);
            assert_eq!(lists.len(), p.host_count());
            for (i, host_lists) in lists.iter().enumerate() {
                // The oracle ranks by `TC_ij` itself; the stable sort keeps
                // ties in index order.
                let mut by_tc: Vec<usize> = (0..p.server_count()).collect();
                by_tc.sort_by(|&x, &y| p.tc(i, x, a.load(x)).total_cmp(&p.tc(i, y, a.load(y))));
                // One list per server holding users of host i: that server
                // first, then the others by ascending TC.
                let expect: Vec<(u32, Vec<NodeId>)> = (0..p.server_count())
                    .filter(|&j| a.count(i, j) > 0)
                    .map(|primary| {
                        let rest = by_tc.iter().copied().filter(|&j| j != primary);
                        let list = std::iter::once(primary).chain(rest).take(len);
                        (a.count(i, primary), list.map(node).collect())
                    })
                    .collect();
                assert_eq!(host_lists, &expect, "host {i}, len {len}");
            }
        }
    }

    proptest! {
        /// On random populations over the Fig. 1 network, balancing never
        /// increases the objective, never loses users, and (with total
        /// population comfortably below the ρ = 0.99 M/M/1 wall) leaves no
        /// server overloaded. Near saturation the paper's own algorithm
        /// can legitimately stop with residual overload — its final step is
        /// "check if some of the servers are still overloaded".
        #[test]
        fn balance_invariants(users in proptest::collection::vec(1u32..45, 6)) {
            let f = fig1();
            let p = AssignmentProblem::from_topology(
                &f.topology,
                &users,
                ServerSpec::paper_example(),
                CostModel::paper_example(),
            );
            let (a, report) = solve(&p, BalanceOptions::default());
            prop_assert!(report.final_cost <= report.initial_cost + 1e-9);
            prop_assert_eq!(a.loads().iter().sum::<u32>(), users.iter().sum::<u32>());
            if p.total_users() <= p.total_capacity() {
                prop_assert!(a.overloaded(&p).is_empty(),
                    "loads {:?} with capacity available", a.loads());
            }
        }
    }
}
