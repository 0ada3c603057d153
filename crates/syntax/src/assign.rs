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
//! The scaled solver ([`balance_sync`], options in [`ScaleOptions`]) is a
//! different rule, not a faster one. Near the ρ cutoff the paper's
//! average-cost `S_min` stalls (see `propose_move`), and the scaled
//! solver reaches lower-cost fixed points. It runs *synchronous passes*:
//!
//! 1. **Evaluate** — against loads frozen at the start of the pass, each
//!    host independently proposes moving users off its most expensive
//!    current server to the destination with the best exact marginal
//!    cost change;
//! 2. **Merge** — proposals are applied in host-index order, each
//!    re-validated against *current* loads with an `O(1)` exact cost
//!    delta ([`transfer_delta`]) and dropped if it no longer improves
//!    the objective.
//!
//! Both solvers are single-threaded: §3.1.1's one named speed-up is
//! batching, and a thread fan-out of the evaluate step measured 0.75–1.11×
//! (DESIGN.md §13), so there is none.

use lems_net::cost_matrix::CostMatrix;
use lems_net::graph::NodeId;
use lems_net::topology::{NodeKind, Topology};

use crate::cost::{CostModel, ServerSpec};

/// Moves below this margin are treated as non-improving (guards against
/// float round-off oscillation); shared by the classic and scaled solvers.
const COST_EPS: f64 = 1e-12;

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

    /// Builds a problem where each server keeps its own spec, taken from
    /// `specs` aligned with the topology's servers.
    ///
    /// # Panics
    ///
    /// Same conditions as [`AssignmentProblem::from_topology`], plus a
    /// length mismatch between servers and `specs`.
    pub fn from_topology_with_specs(
        topology: &Topology,
        users_per_host: &[u32],
        specs: &[ServerSpec],
        model: CostModel,
    ) -> Self {
        let mut p = Self::from_topology(
            topology,
            users_per_host,
            specs
                .first()
                .copied()
                .unwrap_or_else(ServerSpec::paper_example),
            model,
        );
        assert_eq!(
            p.servers.len(),
            specs.len(),
            "specs must align with the topology's servers"
        );
        for ((_, s), &spec) in p.servers.iter_mut().zip(specs) {
            *s = spec;
        }
        p
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
    pub fn transfer(&mut self, host: usize, from: usize, to: usize, k: u32) {
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
    pub fn remove(&mut self, host: usize, server: usize, k: u32) {
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

    /// Expands host `i`'s row into one server index per user (users are
    /// ordered by server index) — used to hand each individual user an
    /// assignment.
    pub fn server_of_users(&self, host: usize) -> Vec<usize> {
        let mut out = Vec::new();
        for (j, &k) in self.counts[host].iter().enumerate() {
            out.extend(std::iter::repeat_n(j, k as usize));
        }
        out
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
    /// Safety bound on full passes over the hosts.
    pub max_passes: u64,
}

impl Default for BalanceOptions {
    fn default() -> Self {
        BalanceOptions {
            batch: 1,
            max_passes: 100_000,
        }
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
/// chain; `max_passes` is a belt-and-braces bound.
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

    for _pass in 0..opts.max_passes {
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

/// Options for the scaled synchronous solver ([`balance_sync`]).
#[derive(Clone, Copy, Debug)]
pub struct ScaleOptions {
    /// Users moved per accepted transfer (with a fall-back retry of 1, so
    /// batching never changes which fixpoints are reachable, only speed).
    pub batch: u32,
    /// Safety bound on synchronous passes.
    pub max_passes: u64,
}

impl Default for ScaleOptions {
    fn default() -> Self {
        ScaleOptions {
            batch: 64,
            max_passes: 100_000,
        }
    }
}

/// One host's proposed `S_max → S_min` transfer, computed against loads
/// frozen at the start of a synchronous pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MoveProposal {
    /// Proposing host.
    pub host: usize,
    /// Source server (`S_max`).
    pub from: usize,
    /// Destination server (`S_min`).
    pub to: usize,
    /// Users to move (`min(batch, A_ij)` at evaluation time).
    pub users: u32,
}

/// Outcome of a scaled balancing run, including the per-pass objective
/// trace used by the monotonicity invariants.
#[derive(Clone, Debug, Default)]
pub struct ScaleReport {
    /// Synchronous passes executed.
    pub passes: u64,
    /// Accepted transfers.
    pub moves: u64,
    /// Proposals rejected at merge time (stale after earlier merges).
    pub undone: u64,
    /// Objective before balancing.
    pub initial_cost: f64,
    /// Objective after balancing.
    pub final_cost: f64,
    /// Objective after initialisation and after each pass
    /// (`cost_trace[0] == initial_cost`, last element `== final_cost`).
    pub cost_trace: Vec<f64>,
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

/// Host `host`'s best move against frozen pass-start state: `S_max` is
/// the most expensive server currently holding its users (by the frozen
/// average `TC_ij = C_ij·W1 + srv_term[j]`), the destination is the
/// server with the best exact *marginal* cost change ([`transfer_delta`]
/// at pass-start loads, `O(1)` per candidate). Ties break toward the
/// lower server index.
///
/// The destination must be chosen by marginal — not average — cost: a
/// server sitting just below the ρ cutoff looks cheap on average, but
/// one more user pushes *every* resident user's waiting-time estimate to
/// β, so its marginal cost is enormous. An average-cost argmin stalls on
/// exactly that server while emptier (merely farther) servers go unused,
/// leaving overload the solver could have drained.
fn propose_move(
    p: &AssignmentProblem,
    a: &Assignment,
    srv_term: &[f64],
    dest_term1: &[f64],
    host: usize,
    batch: u32,
) -> Option<MoveProposal> {
    let row = p.comm.row(host);
    let w1 = p.model.w_comm;
    let mut s_max = None;
    let mut tc_max = f64::NEG_INFINITY;
    for (j, (&c, &t)) in row.iter().zip(srv_term).enumerate() {
        if a.count(host, j) > 0 {
            let tc = c * w1 + t;
            if tc > tc_max {
                tc_max = tc;
                s_max = Some(j);
            }
        }
    }
    let s_max = s_max?;
    // The source-side part of the one-user marginal delta is the same for
    // every candidate destination, so the argmin only needs the
    // destination-side unit terms — one mul-add per server, like the
    // classic `TC` scan, not a full `transfer_delta` per candidate.
    let mut to = None;
    let mut d1_min = f64::INFINITY;
    for (j, (&c, &t1)) in row.iter().zip(dest_term1).enumerate() {
        if j == s_max {
            continue;
        }
        let d1 = c * w1 + t1;
        if d1 < d1_min {
            d1_min = d1;
            to = Some(j);
        }
    }
    let to = to?;
    let users = batch.min(a.count(host, s_max));
    // Exact check only for the winner, at both granularities the merge
    // step will try (whole batch, then a single user).
    let d =
        transfer_delta(p, a, host, s_max, to, users).min(transfer_delta(p, a, host, s_max, to, 1));
    if d < -COST_EPS {
        Some(MoveProposal {
            host,
            from: s_max,
            to,
            users,
        })
    } else {
        None
    }
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

/// The destination-side part of the one-user marginal cost at the
/// assignment's current loads: `load_term(j, L_j + 1) − load_term(j, L_j)`
/// for every server. This is what makes a server sitting just below the ρ
/// cutoff expensive as a *destination* even though its average cost is
/// still low — one more user sends every resident's waiting time to β.
fn dest_unit_terms(p: &AssignmentProblem, a: &Assignment) -> Vec<f64> {
    (0..p.server_count())
        .map(|j| p.load_term(j, a.load(j) + 1) - p.load_term(j, a.load(j)))
        .collect()
}

/// Deterministic merge: applies proposals in host-index order, each
/// re-validated with [`transfer_delta`] against *current* loads (earlier
/// merges may have invalidated it). Falls back from the batch size to a
/// single user before giving up, mirroring [`balance`].
fn merge_proposals(
    p: &AssignmentProblem,
    a: &mut Assignment,
    proposals: &[MoveProposal],
    report: &mut ScaleReport,
) -> bool {
    let mut changed = false;
    for m in proposals {
        let avail = a.count(m.host, m.from);
        for k in [m.users.min(avail), 1] {
            if k == 0 || k > avail {
                break;
            }
            if transfer_delta(p, a, m.host, m.from, m.to, k) < -COST_EPS {
                a.transfer(m.host, m.from, m.to, k);
                report.moves += 1;
                changed = true;
                break;
            }
            report.undone += 1;
            if k == 1 {
                break;
            }
        }
    }
    changed
}

/// The scaled §3.1.1 solver: synchronous evaluate-then-merge passes (see
/// the module docs) until a pass accepts no move.
///
/// # Panics
///
/// Panics if `opts.batch` is 0: no move could ever be tried.
pub fn balance_sync(p: &AssignmentProblem, a: &mut Assignment, opts: ScaleOptions) -> ScaleReport {
    assert!(opts.batch >= 1, "batch must be at least 1");
    let initial = a.total_cost(p);
    let mut report = ScaleReport {
        initial_cost: initial,
        final_cost: initial,
        cost_trace: vec![initial],
        ..ScaleReport::default()
    };

    for _pass in 0..opts.max_passes {
        report.passes += 1;
        let srv_term = server_terms(p, a);
        let dest_term1 = dest_unit_terms(p, a);
        let proposals: Vec<MoveProposal> = (0..p.host_count())
            .filter_map(|i| propose_move(p, a, &srv_term, &dest_term1, i, opts.batch))
            .collect();
        let changed = merge_proposals(p, a, &proposals, &mut report);
        report.final_cost = a.total_cost(p);
        report.cost_trace.push(report.final_cost);
        if !changed {
            break;
        }
    }
    report
}

/// Convenience: initialise then [`balance_sync`].
pub fn solve_sync(p: &AssignmentProblem, opts: ScaleOptions) -> (Assignment, ScaleReport) {
    let mut a = initialize(p);
    let report = balance_sync(p, &mut a, opts);
    (a, report)
}

/// Ranks all servers for host `i` by `TC_ij` at the final loads — the order
/// in which authority lists are drawn ("the first server in the list is the
/// primary server").
pub fn server_ranking(p: &AssignmentProblem, a: &Assignment, host: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..p.server_count()).collect();
    order.sort_by(|&x, &y| {
        p.tc(host, x, a.load(x))
            .total_cmp(&p.tc(host, y, a.load(y)))
            .then(x.cmp(&y))
    });
    order
}

/// Top-`k` authority lists for every host: server *node ids* ranked by
/// `TC_ij` at the final loads, truncated to `list_len` — the §3.2.3 lists
/// GetMail polls. Shares the solver's precomputed per-server terms so the
/// sort key is `O(1)` per comparison even at 500 servers.
pub fn authority_lists(p: &AssignmentProblem, a: &Assignment, list_len: usize) -> Vec<Vec<NodeId>> {
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
            order.truncate(list_len);
            order.into_iter().map(|j| p.servers[j].0).collect()
        })
        .collect()
}

/// Checks that a topology has the hosts/servers the problem assumes —
/// useful before reusing a problem after topology edits.
pub fn consistent_with(p: &AssignmentProblem, topology: &Topology) -> bool {
    p.hosts
        .iter()
        .all(|h| topology.kind(h.node) == NodeKind::Host)
        && p.servers
            .iter()
            .all(|(n, _)| topology.kind(*n) == NodeKind::Server)
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
        let r8 = balance(
            &p,
            &mut a8,
            BalanceOptions {
                batch: 8,
                ..BalanceOptions::default()
            },
        );
        assert!(r8.moves < r1.moves, "batched should use fewer moves");
        // Both end in comparable cost (within 5%).
        assert!((r8.final_cost - r1.final_cost).abs() / r1.final_cost < 0.05);
    }

    #[test]
    fn ranking_puts_cheapest_first() {
        let p = fig1_problem();
        let (a, _) = solve(&p, BalanceOptions::default());
        for i in 0..p.host_count() {
            let rank = server_ranking(&p, &a, i);
            let costs: Vec<f64> = rank.iter().map(|&j| p.tc(i, j, a.load(j))).collect();
            assert!(costs.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn consistency_check() {
        let f = fig1();
        let p = fig1_problem();
        assert!(consistent_with(&p, &f.topology));
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
    fn scaled_solver_reaches_a_fixpoint_on_fig1() {
        let p = fig1_problem();
        let (a, r) = solve_sync(&p, ScaleOptions::default());
        assert_eq!(a.loads().iter().sum::<u32>(), 270);
        assert!(a.overloaded(&p).is_empty());
        assert!(r.final_cost < r.initial_cost);
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
    fn scaled_cost_trace_is_monotone() {
        let p = fig1_problem();
        let (_, r) = solve_sync(&p, ScaleOptions::default());
        assert_eq!(r.cost_trace.first(), Some(&r.initial_cost));
        assert_eq!(r.cost_trace.last(), Some(&r.final_cost));
        assert!(r
            .cost_trace
            .windows(2)
            .all(|w| w[1] <= w[0] + 1e-9 * w[0].abs().max(1.0)));
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
        let (a, _) = solve_sync(&p, ScaleOptions::default());
        let lists = authority_lists(&p, &a, 2);
        assert_eq!(lists.len(), p.host_count());
        for (i, list) in lists.iter().enumerate() {
            assert_eq!(list.len(), 2);
            let rank = server_ranking(&p, &a, i);
            let expect: Vec<NodeId> = rank.iter().take(2).map(|&j| p.servers[j].0).collect();
            assert_eq!(list, &expect, "host {i}");
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
