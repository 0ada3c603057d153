//! C7: the §4 criteria scorecard — efficiency, reliability, flexibility,
//! cost — for all three designs on a common scenario.

use lems_bench::render::Report;
use lems_eval::criteria::{rank, CriteriaWeights};
use lems_eval::report::comparison_table;

use lems_bench::scorecard_exp::scorecards;

fn main() {
    let mut report = Report::new("C7 — §4 criteria scorecard");
    let cards = scorecards(5);
    report.note(comparison_table(&cards));
    report.note("reading guide (the paper's trade-off in §4):");
    report.note("  - syntax-directed: most efficient, least flexible (rename on every move);");
    report.note("  - location-independent: small delivery overhead buys rename-free mobility");
    report.note("    and cheap rehash reconfiguration;");
    report.note("  - attribute-based: group naming and broadcast delivery; pays tree-building");
    report.note("    and per-search costs.");
    report.note("weighted rankings (min-max normalised within this comparison):");
    let mut pairs = Vec::new();
    for (label, weights) in [
        ("equal weights", CriteriaWeights::default()),
        (
            "efficiency-first",
            CriteriaWeights {
                efficiency: 4.0,
                ..CriteriaWeights::default()
            },
        ),
        (
            "flexibility-first",
            CriteriaWeights {
                flexibility: 4.0,
                ..CriteriaWeights::default()
            },
        ),
    ] {
        let ranking = rank(&cards, &weights);
        let order: Vec<String> = ranking
            .iter()
            .map(|&(i, s)| format!("{} ({:.2})", cards[i].system, s))
            .collect();
        pairs.push((label.to_owned(), order.join("  >  ")));
    }
    report.kv(&pairs);

    report.print();
}
