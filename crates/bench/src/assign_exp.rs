//! Experiments FIG1, T1, T2, T3, C6: the server-assignment worked
//! examples and their ablations.

use std::fmt::Write;

use lems_net::generators::{fig1, table3, Fig1Scenario};
use lems_net::graph::NodeId;
use lems_syntax::assign::{
    balance, initialize, server_rankings, Assignment, AssignmentProblem, BalanceOptions,
    BalanceReport,
};
use lems_syntax::cost::{CostModel, ServerSpec};
use lems_syntax::reconfig::Reconfigurator;

use crate::render::{f1, f3, Table};

/// The assignment problem for the Fig. 1 scenario with the paper's
/// constants (`W1=4`, `W2=1`, `z=0.5`, `M=100`).
pub fn fig1_problem() -> (Fig1Scenario, AssignmentProblem) {
    let f = fig1();
    let p = AssignmentProblem::from_topology(
        &f.topology,
        &f.users_per_host,
        ServerSpec::paper_example(),
        CostModel::paper_example(),
    );
    (f, p)
}

/// The Table 3 variant (host populations 100/100/20).
pub fn table3_problem() -> (Fig1Scenario, AssignmentProblem) {
    let f = table3();
    let p = AssignmentProblem::from_topology(
        &f.topology,
        &f.users_per_host,
        ServerSpec::paper_example(),
        CostModel::paper_example(),
    );
    (f, p)
}

/// Renders an assignment in the paper's table layout (host, server,
/// users), plus a per-server load/utilisation footer.
pub fn render_assignment(scenario: &Fig1Scenario, p: &AssignmentProblem, a: &Assignment) -> String {
    let mut t = Table::new(vec!["host", "server", "users"]);
    for (i, j, k) in a.table_rows() {
        t.row(vec![
            scenario.topology.name(p.hosts[i].node).to_owned(),
            scenario.topology.name(p.servers[j].0).to_owned(),
            k.to_string(),
        ]);
    }
    let mut out = t.render();
    out.push('\n');
    let mut loads = Table::new(vec!["server", "load", "capacity", "utilisation"]);
    for j in 0..p.server_count() {
        loads.row(vec![
            scenario.topology.name(p.servers[j].0).to_owned(),
            a.load(j).to_string(),
            p.servers[j].1.max_load.to_string(),
            f3(a.utilization(p, j)),
        ]);
    }
    out.push_str(&loads.render());
    let _ = write!(out, "\ntotal connection cost: {}\n", f1(a.total_cost(p)));
    out
}

/// Runs T1 + T2: initial assignment and balanced assignment for Fig. 1.
pub fn tables_1_and_2() -> (Assignment, Assignment, BalanceReport) {
    let (_, p) = fig1_problem();
    let initial = initialize(&p);
    let mut balanced = initial.clone();
    let report = balance(&p, &mut balanced, BalanceOptions::default());
    (initial, balanced, report)
}

/// One row of the C6 batch-size ablation.
#[derive(Clone, Copy, Debug)]
pub struct BatchRow {
    /// Users moved per accepted transfer.
    pub batch: u32,
    /// Accepted transfers until convergence.
    pub moves: u64,
    /// Passes over the hosts.
    pub passes: u64,
    /// Final objective.
    pub final_cost: f64,
}

/// C6a: "the algorithm can be made much faster if in each iteration more
/// than one user is moved" — sweep the batch size.
pub fn batch_ablation(batches: &[u32]) -> Vec<BatchRow> {
    let (_, p) = fig1_problem();
    batches
        .iter()
        .map(|&batch| {
            let mut a = initialize(&p);
            let r = balance(&p, &mut a, BalanceOptions { batch });
            BatchRow {
                batch,
                moves: r.moves,
                passes: r.passes,
                final_cost: r.final_cost,
            }
        })
        .collect()
}

/// One row of the C6 weight-sensitivity ablation.
#[derive(Clone, Copy, Debug)]
pub struct WeightRow {
    /// `W1` (communication weight).
    pub w_comm: f64,
    /// `W2` (processing weight).
    pub w_proc: f64,
    /// Final objective.
    pub final_cost: f64,
    /// Spread between the most and least utilised servers.
    pub utilisation_spread: f64,
    /// Hosts whose users ended up split across servers.
    pub split_hosts: usize,
}

/// C6b: weight sensitivity. Heavier `W2` buys tighter load balance at the
/// price of longer communication paths; heavier `W1` pins users to close
/// servers.
pub fn weight_ablation(weights: &[(f64, f64)]) -> Vec<WeightRow> {
    let f = fig1();
    weights
        .iter()
        .map(|&(w_comm, w_proc)| {
            let model = CostModel {
                w_comm,
                w_proc,
                ..CostModel::paper_example()
            };
            let p = AssignmentProblem::from_topology(
                &f.topology,
                &f.users_per_host,
                ServerSpec::paper_example(),
                model,
            );
            let mut a = initialize(&p);
            let r = balance(&p, &mut a, BalanceOptions::default());
            let utils: Vec<f64> = (0..p.server_count())
                .map(|j| a.utilization(&p, j))
                .collect();
            let spread = utils.iter().copied().fold(f64::MIN, f64::max)
                - utils.iter().copied().fold(f64::MAX, f64::min);
            let split_hosts = (0..p.host_count())
                .filter(|&i| (0..p.server_count()).filter(|&j| a.count(i, j) > 0).count() > 1)
                .count();
            WeightRow {
                w_comm,
                w_proc,
                final_cost: r.final_cost,
                utilisation_spread: spread,
                split_hosts,
            }
        })
        .collect()
}

/// C6c: add-server reconvergence — drop a fourth server next to the
/// hot-spot hosts and measure how much load it attracts and how many
/// users move.
#[derive(Clone, Copy, Debug)]
pub struct ReconfigRow {
    /// Users moved by the reconfiguration.
    pub moved_users: u64,
    /// Load attracted by the new server.
    pub new_server_load: u32,
    /// Objective before.
    pub cost_before: f64,
    /// Objective after.
    pub cost_after: f64,
}

/// Runs the C6c add-server experiment.
pub fn add_server_reconvergence() -> ReconfigRow {
    let (_, p) = fig1_problem();
    let (a, _) = lems_syntax::assign::solve(&p, BalanceOptions::default());
    let cost_before = a.total_cost(&p);
    let mut rec = Reconfigurator::new(p, a);
    let report = rec.add_server(
        NodeId(100),
        ServerSpec::paper_example(),
        &[2.0, 1.0, 2.0, 1.0, 1.0, 2.0],
    );
    let p2 = rec.problem();
    let a2 = rec.assignment();
    ReconfigRow {
        moved_users: report.moved_users,
        new_server_load: a2.load(p2.server_count() - 1),
        cost_before,
        cost_after: a2.total_cost(p2),
    }
}

/// Authority-list ranking sanity for the Fig. 1 scenario: returns for each
/// host the server ranking after balancing (used by `repro-table1-2`'s
/// footer).
pub fn fig1_rankings() -> Vec<(String, Vec<String>)> {
    let (f, p) = fig1_problem();
    let (a, _) = lems_syntax::assign::solve(&p, BalanceOptions::default());
    server_rankings(&p, &a, p.server_count())
        .into_iter()
        .enumerate()
        .map(|(i, ranking)| {
            let names: Vec<String> = ranking
                .into_iter()
                .map(|j| f.topology.name(p.servers[j].0).to_owned())
                .collect();
            (f.topology.name(p.hosts[i].node).to_owned(), names)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_reproduce_paper_shape() {
        let (initial, balanced, report) = tables_1_and_2();
        assert_eq!(initial.loads(), &[100, 150, 20]);
        let (_, p) = fig1_problem();
        assert!(balanced.overloaded(&p).is_empty());
        assert!(report.final_cost < report.initial_cost);
    }

    #[test]
    fn render_contains_hosts_and_servers() {
        let (f, p) = fig1_problem();
        let a = initialize(&p);
        let s = render_assignment(&f, &p, &a);
        assert!(s.contains("H1") && s.contains("S2") && s.contains("150"));
    }

    #[test]
    fn batch_ablation_monotone_moves() {
        let rows = batch_ablation(&[1, 4, 16]);
        assert!(rows[0].moves > rows[1].moves);
        assert!(rows[1].moves >= rows[2].moves);
        // All converge to comparable cost.
        for r in &rows {
            assert!((r.final_cost - rows[0].final_cost).abs() / rows[0].final_cost < 0.1);
        }
    }

    #[test]
    fn weight_ablation_tradeoff() {
        let rows = weight_ablation(&[(8.0, 1.0), (1.0, 8.0)]);
        // Processing-heavy weights should not balance worse than
        // communication-heavy ones.
        assert!(rows[1].utilisation_spread <= rows[0].utilisation_spread + 1e-9);
    }

    #[test]
    fn add_server_attracts_load_and_lowers_cost() {
        let r = add_server_reconvergence();
        assert!(r.new_server_load > 0);
        assert!(r.cost_after <= r.cost_before);
        assert!(r.moved_users > 0);
    }

    #[test]
    fn rankings_start_with_primary() {
        let ranks = fig1_rankings();
        assert_eq!(ranks.len(), 6);
        for (_, servers) in &ranks {
            assert_eq!(servers.len(), 3);
        }
    }
}
