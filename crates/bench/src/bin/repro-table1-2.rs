//! T1 + T2: initial server assignment (Table 1) and the balanced
//! assignment (Table 2) for the Fig. 1 scenario, with the paper's
//! constants W1=4, W2=1, z=0.5, M=100.

use lems_bench::assign_exp::{fig1_problem, fig1_rankings, render_assignment, tables_1_and_2};
use lems_bench::render::{f1, Report};

fn main() {
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

    report.print();
}
