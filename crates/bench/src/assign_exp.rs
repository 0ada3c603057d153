//! Experiments FIG1, T1, T2, T3, C6: the server-assignment worked
//! examples and their ablations.

use std::fmt::Write;

use lems_net::generators::{fig1, table3, Fig1Scenario};
use lems_net::graph::NodeId;
use lems_syntax::assign::{
    balance, initialize, server_rankings, solve, Assignment, AssignmentProblem, BalanceOptions,
    BalanceReport,
};
use lems_syntax::cost::{CostModel, ServerSpec};
use lems_syntax::reconfig::Reconfigurator;

use crate::render::{f1, f3, Report, Table};

/// The assignment problem for the Fig. 1 scenario with the paper's
/// constants (`W1=4`, `W2=1`, `z=0.5`, `M=100`).
fn fig1_problem() -> (Fig1Scenario, AssignmentProblem) {
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
fn table3_problem() -> (Fig1Scenario, AssignmentProblem) {
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
fn render_assignment(scenario: &Fig1Scenario, p: &AssignmentProblem, a: &Assignment) -> String {
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
fn tables_1_and_2() -> (Assignment, Assignment, BalanceReport) {
    let (_, p) = fig1_problem();
    let initial = initialize(&p);
    let mut balanced = initial.clone();
    let report = balance(&p, &mut balanced, BalanceOptions::default());
    (initial, balanced, report)
}

/// One row of the C6 batch-size ablation.
#[derive(Clone, Copy, Debug)]
struct BatchRow {
    /// Users moved per accepted transfer.
    batch: u32,
    /// Accepted transfers until convergence.
    moves: u64,
    /// Passes over the hosts.
    passes: u64,
    /// Final objective.
    final_cost: f64,
}

/// C6a: "the algorithm can be made much faster if in each iteration more
/// than one user is moved" — sweep the batch size.
fn batch_ablation(batches: &[u32]) -> Vec<BatchRow> {
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
struct WeightRow {
    /// `W1` (communication weight).
    w_comm: f64,
    /// `W2` (processing weight).
    w_proc: f64,
    /// Final objective.
    final_cost: f64,
    /// Spread between the most and least utilised servers.
    utilisation_spread: f64,
    /// Hosts whose users ended up split across servers.
    split_hosts: usize,
}

/// C6b: weight sensitivity. Heavier `W2` buys tighter load balance at the
/// price of longer communication paths; heavier `W1` pins users to close
/// servers.
fn weight_ablation(weights: &[(f64, f64)]) -> Vec<WeightRow> {
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
pub(crate) struct ReconfigRow {
    /// Users moved by the reconfiguration.
    pub(crate) moved_users: u64,
    /// Load attracted by the new server.
    new_server_load: u32,
    /// Objective before.
    cost_before: f64,
    /// Objective after.
    cost_after: f64,
}

/// Runs the C6c add-server experiment.
pub(crate) fn add_server_reconvergence() -> ReconfigRow {
    let (_, p) = fig1_problem();
    let (a, _) = solve(&p, BalanceOptions::default());
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
/// host the server ranking after balancing (the footer of
/// [`table1_2_report`]).
fn fig1_rankings() -> Vec<(String, Vec<String>)> {
    let (f, p) = fig1_problem();
    let (a, _) = solve(&p, BalanceOptions::default());
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

/// FIG1: the worked-example topology and user distribution of Fig. 1,
/// with the zero-load host-to-server cost matrix that seeds the §3.1.1
/// assignment algorithm.
pub(crate) fn fig1_report() -> Report {
    let (scenario, problem) = fig1_problem();
    let t = &scenario.topology;

    let mut report = Report::new("FIG1 — topology and user distribution (reconstruction)");
    report.note(format!(
        "nodes: {} ({} hosts, {} servers), links: {} (all 1.0 unit)",
        t.node_count(),
        scenario.hosts.len(),
        scenario.servers.len(),
        t.graph().edge_count(),
    ));

    let mut links = Table::new(vec!["link", "weight (units)"]);
    for e in t.graph().edges() {
        links.row(vec![
            format!("{} - {}", t.name(e.a), t.name(e.b)),
            format!("{}", e.weight),
        ]);
    }
    report.table(&links);

    let mut users = Table::new(vec!["host", "users"]);
    for (h, &n) in scenario.hosts.iter().zip(&scenario.users_per_host) {
        users.row(vec![t.name(*h).to_owned(), n.to_string()]);
    }
    report.table(&users);
    report.note(format!(
        "total users: {}",
        scenario.users_per_host.iter().sum::<u32>()
    ));

    report.note("zero-load shortest-path cost matrix C_ij (units):");
    let mut c = Table::new(vec!["host", "S1", "S2", "S3"]);
    for (i, &h) in scenario.hosts.iter().enumerate() {
        c.row(vec![
            t.name(h).to_owned(),
            f1(problem.comm[i][0]),
            f1(problem.comm[i][1]),
            f1(problem.comm[i][2]),
        ]);
    }
    report.table(&c);
    report.note(format!(
        "paper check: C(H2,S1) = {} units (the §3.1.1 example says 2).",
        f1(problem.comm[1][0])
    ));

    report
}

/// T1 + T2: initial server assignment (Table 1) and the balanced
/// assignment (Table 2) for the Fig. 1 scenario, with the paper's
/// constants W1=4, W2=1, z=0.5, M=100.
pub(crate) fn table1_2_report() -> Report {
    let (scenario, problem) = fig1_problem();
    let (initial, balanced, balance_report) = tables_1_and_2();

    let mut report =
        Report::new("TABLE 1 + TABLE 2 — initial and balanced server assignment (Fig. 1)");

    report.note("TABLE 1 — initial server assignment (nearest server, zero-load costs)");
    report.note(render_assignment(&scenario, &problem, &initial));
    report.note("paper: S1=100, S2=150 (overloaded), S3=20.");

    report.note("TABLE 2 — final load distribution after balancing");
    report.note(render_assignment(&scenario, &problem, &balanced));
    report.kv(&[
        ("passes".into(), balance_report.passes.to_string()),
        ("accepted moves".into(), balance_report.moves.to_string()),
        ("undone".into(), balance_report.undone.to_string()),
        ("initial cost".into(), f1(balance_report.initial_cost)),
        ("final cost".into(), f1(balance_report.final_cost)),
    ]);

    let split = (0..problem.host_count())
        .filter(|&i| {
            (0..problem.server_count())
                .filter(|&j| balanced.count(i, j) > 0)
                .count()
                > 1
        })
        .count();
    report.note("paper shape checks:");
    report.note(format!(
        "  - every server within capacity: {}",
        balanced.overloaded(&problem).is_empty()
    ));
    report.note(format!(
        "  - 'users on one host may be assigned to different servers': {split} host(s) split"
    ));

    report.note("authority-server rankings per host at final loads (primary first):");
    for (host, servers) in fig1_rankings() {
        report.note(format!("  {host}: {}", servers.join(" > ")));
    }

    report
}

/// T3: the second worked example — three hosts with 100/100/20 users,
/// one server apiece (Table 3) — initial assignment and what balancing
/// does to it.
pub(crate) fn table3_report() -> Report {
    let (scenario, problem) = table3_problem();
    let initial = initialize(&problem);

    let mut report = Report::new("TABLE 3 — initial server assignment (100/100/20)");
    report.note(render_assignment(&scenario, &problem, &initial));
    report.note("paper: H1->S1 100, H2->S2 100, H3->S3 20.");

    let (balanced, balance_report) = solve(&problem, BalanceOptions::default());
    report.note("after balancing:");
    report.note(render_assignment(&scenario, &problem, &balanced));
    report.note(format!(
        "cost {} -> {} ({} moves): the 100-user servers sit at the M/M/1\n\
         knee (rho = 1.0 -> beta), so the algorithm spreads users toward S3\n\
         until the marginal 4-unit communication penalty outweighs the\n\
         queueing relief.",
        f1(balance_report.initial_cost),
        f1(balance_report.final_cost),
        balance_report.moves,
    ));

    report
}

/// C6: ablations of the §3.1.1 assignment algorithm — batch-size speedup
/// ("the algorithm can be made much faster if in each iteration more than
/// one user is moved"), W1:W2 weight sensitivity, and add-server
/// reconvergence.
pub(crate) fn ablate_report() -> Report {
    let mut report = Report::new("C6 — assignment-algorithm ablations (Fig. 1 scenario)");

    report.note("C6a: batch size vs convergence effort");
    let rows = batch_ablation(&[1, 2, 4, 8, 16, 32]);
    let mut t = Table::new(vec!["batch", "moves", "passes", "final cost"]);
    for r in &rows {
        t.row(vec![
            r.batch.to_string(),
            r.moves.to_string(),
            r.passes.to_string(),
            f1(r.final_cost),
        ]);
    }
    report.table(&t);
    report.note("shape check: moves drop sharply with batch size at (near-)equal final cost.");

    report.note("C6b: weight sensitivity (W1 = communication, W2 = processing)");
    let rows = weight_ablation(&[(8.0, 1.0), (4.0, 1.0), (1.0, 1.0), (1.0, 4.0), (1.0, 8.0)]);
    let mut t = Table::new(vec![
        "W1",
        "W2",
        "final cost",
        "utilisation spread",
        "split hosts",
    ]);
    for r in &rows {
        t.row(vec![
            f1(r.w_comm),
            f1(r.w_proc),
            f1(r.final_cost),
            f3(r.utilisation_spread),
            r.split_hosts.to_string(),
        ]);
    }
    report.table(&t);
    report.note(
        "shape check: processing-heavy weights tighten load balance;\n\
         communication-heavy weights pin users to nearby servers.",
    );

    report.note("C6c: add-server reconvergence (4th server adjacent to the hot spot)");
    let r = add_server_reconvergence();
    report.kv(&[
        ("moved users".into(), r.moved_users.to_string()),
        ("new server load".into(), r.new_server_load.to_string()),
        ("cost before".into(), f1(r.cost_before)),
        ("cost after".into(), f1(r.cost_after)),
    ]);
    report.note(
        "(paper §3.1.3c: 'the server assignment procedure is performed to\n\
         redistribute the load so that some users are assigned to the new server')",
    );

    report
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
