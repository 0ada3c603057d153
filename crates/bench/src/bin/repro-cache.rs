//! C8: the §4.1 "caching capability" — resolution-cache hit rates under
//! Zipf-skewed recipient popularity, and what reconfiguration-driven
//! invalidation costs.

use lems_bench::cache_exp::{invalidation_cost, sweep};
use lems_bench::render::{f3, Report, Table};

fn main() {
    let mut report = Report::new("C8 — resolution caching (500 names, 20k lookups per point)");
    let rows = sweep(
        500,
        20_000,
        &[0.02, 0.05, 0.1, 0.25, 0.5],
        &[0.0, 0.8, 1.2],
        1,
    );
    let mut t = Table::new(vec!["capacity frac", "zipf", "hit rate", "evictions/1k"]);
    for r in &rows {
        t.row(vec![
            f3(r.capacity_fraction),
            f3(r.zipf),
            f3(r.hit_rate),
            f3(r.evictions_per_k),
        ]);
    }
    report.table(&t);
    report.note("shape checks:");
    report.note("  - hit rate rises with capacity at fixed skew;");
    report.note("  - skewed (Zipf) popularity makes small caches effective —");
    report.note("    'a list of both frequently and recently used names' (§4.1)");

    report.note("invalidation on removing 1 of 3 servers from a warm cache:");
    let frac = invalidation_cost(300, 3);
    report.note(format!(
        "  {:.1}% of entries dropped (every cached list naming the dead server)",
        100.0 * frac
    ));

    report.print();
}
