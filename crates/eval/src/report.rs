//! Rendering scorecards side by side (the C7 experiment's output).

use std::fmt::Write;

use crate::criteria::Scorecard;

/// Renders a fixed-width comparison table of several scorecards, one
/// column per system, one row per metric — the shape of §4's discussion.
///
/// # Examples
///
/// ```
/// use lems_eval::criteria::Scorecard;
/// use lems_eval::report::comparison_table;
///
/// let a = Scorecard::new("syntax", "s");
/// let b = Scorecard::new("locindep", "s");
/// let table = comparison_table(&[a, b]);
/// assert!(table.contains("syntax"));
/// assert!(table.contains("retrieval polls"));
/// ```
pub fn comparison_table(cards: &[Scorecard]) -> String {
    let label_width = 28;
    let col_width = cards
        .iter()
        .map(|c| c.system.len())
        .max()
        .unwrap_or(0)
        .max(14)
        + 2;

    let mut scenarios: Vec<&str> = cards.iter().map(|c| c.scenario.as_str()).collect();
    scenarios.dedup();
    let mut out = format!("scenario: {}\n\n", scenarios.join(" | "));
    let mut header = String::new();
    for c in cards {
        let _ = write!(header, "{:>col_width$}", c.system);
    }
    let _ = writeln!(out, "{:<label_width$}{header}", "criterion");
    out.push_str(&"-".repeat(label_width + col_width * cards.len()));
    out.push('\n');

    let mut row = |label: &str, value: fn(&Scorecard) -> String| {
        let _ = write!(out, "{label:<label_width$}");
        for c in cards {
            let _ = write!(out, "{:>col_width$}", value(c));
        }
        out.push('\n');
    };
    row("connection attempts", |c| {
        format!("{:.3}", c.efficiency.connection_attempts_mean)
    });
    row("delivery latency (u)", |c| {
        format!("{:.3}", c.efficiency.delivery_latency_mean)
    });
    row("end-to-end latency (u)", |c| {
        format!("{:.3}", c.efficiency.end_to_end_latency_mean)
    });
    row("retrieval polls", |c| {
        format!("{:.3}", c.efficiency.retrieval_polls_mean)
    });
    row("notification rate", |c| {
        format!("{:.3}", c.efficiency.notification_rate)
    });
    row("delivered fraction", |c| {
        format!("{:.4}", c.reliability.delivered_fraction)
    });
    row("bounced fraction", |c| {
        format!("{:.4}", c.reliability.bounced_fraction)
    });
    row("lost fraction", |c| {
        format!("{:.4}", c.reliability.lost_fraction)
    });
    row("availability (mean)", |c| {
        format!("{:.4}", c.reliability.availability_mean)
    });
    row("move requires rename", |c| {
        c.flexibility.move_requires_rename.to_string()
    });
    row("group naming", |c| {
        c.flexibility.supports_group_naming.to_string()
    });
    row("reconfig moved users", |c| {
        c.flexibility.reconfig_moved_users.to_string()
    });
    row("reconfig tables touched", |c| {
        c.flexibility.reconfig_tables_touched.to_string()
    });
    row("msgs per delivery", |c| {
        format!("{:.3}", c.cost.messages_per_delivery)
    });
    row("total comm (u)", |c| {
        format!("{:.1}", c.cost.total_comm_units)
    });
    row("peak storage (msgs)", |c| c.cost.peak_storage.to_string());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_contains_all_systems_and_rows() {
        let mut a = Scorecard::new("syntax", "s");
        a.efficiency.retrieval_polls_mean = 1.23;
        let mut b = Scorecard::new("attr", "s");
        b.flexibility.supports_group_naming = true;
        b.cost.peak_storage = 18;
        let t = comparison_table(&[a, b]);
        assert!(t.contains("syntax") && t.contains("attr"));
        assert!(t.contains("1.230"));
        assert!(t.contains("group naming"));
        assert!(t
            .lines()
            .any(|l| l.starts_with("peak storage") && l.ends_with(" 18")));
        assert_eq!(t.matches("scenario: s\n").count(), 1, "{t}");
        assert!(t.lines().count() >= 18);
    }
}
