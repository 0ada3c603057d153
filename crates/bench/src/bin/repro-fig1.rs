//! FIG1: the worked-example topology and user distribution of Fig. 1,
//! with the zero-load host-to-server cost matrix that seeds the §3.1.1
//! assignment algorithm.

use lems_bench::assign_exp::fig1_problem;
use lems_bench::render::{f1, Report, Table};

fn main() {
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

    report.print();
}
