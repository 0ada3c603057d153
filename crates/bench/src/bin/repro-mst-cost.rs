//! C3: MST broadcast cost vs flooding vs per-recipient unicast as the
//! network grows, with GHS construction cost and a live convergecast
//! (§3.3.1A-B), plus the failure-resilience companion.

use lems_bench::mst_exp::{c3_sweep, convergecast_resilience};
use lems_bench::render::{f1, f3, Report, Table};

fn main() {
    let mut report =
        Report::new("C3 — broadcast cost scaling (per point: fresh multi-region world)");
    let rows = c3_sweep(&[2, 4, 8, 12, 16], 1);
    let mut t = Table::new(vec![
        "regions",
        "nodes",
        "edges",
        "mst (u)",
        "flooding (u)",
        "unicast (u)",
        "mst/flooding",
        "ghs msgs",
        "reached",
        "done at (u)",
    ]);
    for r in &rows {
        t.row(vec![
            r.regions.to_string(),
            r.nodes.to_string(),
            r.edges.to_string(),
            f1(r.mst_units),
            f1(r.flooding_units),
            f1(r.unicast_units),
            f3(r.mst_units / r.flooding_units),
            r.ghs_messages.to_string(),
            r.responded.to_string(),
            f1(r.completed_units),
        ]);
    }
    report.table(&t);
    report.note("shape checks:");
    report.note("  - MST cost < flooding cost at every size, gap grows with size");
    report.note("  - MST cost <= unicast sum (shared prefixes are paid once)");
    report.note("  - convergecast reaches every node when nothing fails");

    report.note("failure resilience (one tree neighbor of the root dead):");
    let r = convergecast_resilience(4);
    report.kv(&[
        ("full coverage".into(), r.full_coverage.to_string()),
        ("degraded coverage".into(), r.degraded_coverage.to_string()),
        (
            "unavailable subtrees marked".into(),
            r.unavailable_marks.to_string(),
        ),
    ]);
    report.note("(the paper: parents 'time out … and the unavailable estimates can be marked so')");

    report.print();
}
