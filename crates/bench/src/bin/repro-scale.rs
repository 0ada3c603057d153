//! SCALE: the §3.1.1 assignment pipeline at four sizes, Fig. 1 to a
//! million users — convergence, balance and determinism digests of the
//! scaled solver, then the authority lists and GetMail polls built off
//! each final assignment. Everything printed is a function of the seed.

use lems_bench::render::{f1, f3, Report, Table};
use lems_bench::scale_exp::{run_tier, LIST_LEN, SEED, TIERS};

fn main() {
    let rows: Vec<_> = TIERS.iter().map(|spec| run_tier(spec, SEED)).collect();

    let mut report = Report::new(format!(
        "SCALE — §3.1.1 assignment pipeline at size (seed {SEED})"
    ));

    let mut t = Table::new(vec![
        "tier",
        "users",
        "hosts",
        "servers",
        "passes",
        "moves",
        "rho max",
        "rho spread",
        "total cost",
        "digest",
    ]);
    for r in &rows {
        t.row(vec![
            r.label.to_owned(),
            r.users.to_string(),
            r.hosts.to_string(),
            r.servers.to_string(),
            r.passes.to_string(),
            r.moves.to_string(),
            f3(r.rho_max),
            f3(r.rho_spread),
            f1(r.total_cost),
            format!("{:016x}", r.assign_digest),
        ]);
    }
    report.table(&t);

    report.note("authority lists and sampled GetMail retrievals off each final assignment:");
    let mut g = Table::new(vec!["tier", "users", "list len", "polls mean", "digest"]);
    for r in &rows {
        g.row(vec![
            r.label.to_owned(),
            r.users.to_string(),
            LIST_LEN.to_string(),
            f3(r.polls_mean),
            format!("{:016x}", r.lists_digest),
        ]);
    }
    report.table(&g);
    report.note("determinism contract: same seed => same digest (tests/assign_differential.rs)");

    report.print();
}
