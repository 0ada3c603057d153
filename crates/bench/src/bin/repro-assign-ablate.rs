//! C6: ablations of the §3.1.1 assignment algorithm — batch-size speedup
//! ("the algorithm can be made much faster if in each iteration more than
//! one user is moved"), W1:W2 weight sensitivity, and add-server
//! reconvergence.

use lems_bench::assign_exp::{add_server_reconvergence, batch_ablation, weight_ablation};
use lems_bench::render::{f1, f3, Report, Table};

fn main() {
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

    report.print();
}
