//! T3: the second worked example — three hosts with 100/100/20 users,
//! one server apiece (Table 3) — initial assignment and what balancing
//! does to it.

use lems_bench::assign_exp::{render_assignment, table3_problem};
use lems_bench::render::{f1, Report};
use lems_syntax::assign::{initialize, solve, BalanceOptions};

fn main() {
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

    report.print();
}
