//! C5: System 2's overhead profile — free until users move (§3.2.2c),
//! the remote-access / redirect / rename trade-off for cross-region moves
//! (§3.2.4), and the rehash-vs-reassign reconfiguration comparison
//! (§3.2.3c).

use lems_bench::locindep_exp::{
    actor_mobility_sweep, mobility_sweep, policy_comparison, reconfig_comparison,
};
use lems_bench::render::{f1, f3, Report, Table};

fn main() {
    let mut report = Report::new("C5 — location-independent access overheads");

    report.note("mobility sweep (two-region world, 400 sampled deliveries per point):");
    let rows = mobility_sweep(&[0.0, 0.1, 0.25, 0.5, 0.75, 1.0], 1);
    let mut t = Table::new(vec![
        "moved fraction",
        "mean cost (u)",
        "mean consult cost (u)",
    ]);
    for r in &rows {
        t.row(vec![
            f3(r.moved_fraction),
            f3(r.mean_cost),
            f3(r.mean_consults),
        ]);
    }
    report.table(&t);
    report.note(
        "shape check: consult cost is 0 at fraction 0 ('overhead is only\n\
         incurred if a user moves') and grows with mobility.",
    );

    report.note("cross-region policies for one migrant (per-message cost):");
    let p = policy_comparison(2);
    report.kv(&[
        ("remote access (u)".into(), f1(p.remote_access)),
        ("redirect (u)".into(), f1(p.redirect)),
        ("rename (u)".into(), f1(p.rename)),
    ]);
    match p.breakeven_messages {
        Some(n) => report.note(format!(
            "renaming pays for itself after {n} redirected message(s)\n\
             (paper: 'obtaining a new name … may place less overhead on the system')"
        )),
        None => report.note("redirecting never costs more here — no break-even"),
    }

    report.note("actor-measured sweep (running System-2 protocol, cooperative tracking):");
    let rows = actor_mobility_sweep(&[0.0, 0.5, 1.0], 3);
    let mut t2 = Table::new(vec![
        "moved fraction",
        "consults/message",
        "roaming notifications",
        "notify latency (u)",
    ]);
    for r in &rows {
        t2.row(vec![
            f3(r.moved_fraction),
            f3(r.consults_per_message),
            r.roaming_notifications.to_string(),
            f3(r.notify_latency),
        ]);
    }
    report.table(&t2);
    report.note(
        "shape check: cooperative LocationUpdate broadcasts keep consults near\n\
         zero even under mobility; alerts follow the user off their primary host.",
    );

    report.note("reconfiguration on adding a server:");
    let r = reconfig_comparison(3);
    report.note(format!(
        "  System 2 rehash moves {:.1}% of the name space (rendezvous hashing)",
        100.0 * r.rehash_moved_fraction
    ));
    report.note(format!(
        "  System 1 reassignment moves {:.1}% of the users (assignment algorithm)",
        100.0 * r.assignment_moved_fraction
    ));
    report.note("  (paper: System 2's 'reconfiguration can be done easily without much overhead')");

    report.print();
}
