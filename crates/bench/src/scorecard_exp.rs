//! Experiment C7: the §4 criteria scorecard for all three designs on a
//! common scenario.
//!
//! System 1 is measured end to end through the actor deployment; Systems
//! 2 and 3 reuse System 1's delivery fabric conceptually, so their
//! scorecards combine the measured System-1 baseline with their own
//! analytic deltas (consultation overhead, rehash-based reconfiguration,
//! group naming support) — the same way the paper argues §3.2/§3.3
//! relative to §3.1.

use lems_net::generators::fig1;
use lems_sim::metrics::LogHistogram;
use lems_sim::rng::SimRng;
use lems_sim::time::{SimDuration, SimTime};
use lems_syntax::actors::{Deployment, DeploymentConfig, ServerFailurePlan};

/// Generous per-run event budget: a non-quiescing run is a livelocked
/// retry loop and aborts the experiment rather than hanging it.
const EVENT_BUDGET: u64 = 20_000_000;

use crate::locindep_exp::{mobility_sweep, reconfig_comparison};
use crate::mst_exp::c3_sweep;
use crate::render::Report;
use crate::scorecard::{comparison_table, rank, CriteriaWeights, Scorecard};

/// The measured + derived scorecards.
fn scorecards(seed: u64) -> Vec<Scorecard> {
    let scenario = "fig1 workload, 95% server availability";

    // ---- System 1: measured through the actor pipeline. ----
    let f = fig1();
    let mut d = Deployment::build(
        &f.topology,
        &[2, 2, 2, 2, 2, 2],
        &DeploymentConfig {
            seed,
            ..DeploymentConfig::default()
        },
    );
    let names = d.user_names();
    let mut rng = SimRng::seed(seed).fork("scorecard");
    let horizon = 800.0;
    let plan = ServerFailurePlan::random(
        &mut rng,
        &f.topology.servers(),
        SimDuration::from_units(190.0), // availability ~0.95 with mttr 10
        SimDuration::from_units(10.0),
        SimTime::from_units(horizon),
    );
    d.apply_server_failures(&plan);

    let mut t = 1.0;
    while t < horizon - 100.0 {
        let a = rng.index(names.len());
        let mut b = rng.index(names.len());
        if b == a {
            b = (b + 1) % names.len();
        }
        d.send_at(SimTime::from_units(t), &names[a].clone(), &names[b].clone());
        t += rng.unit() * 6.0 + 1.0;
    }
    let mut t = 10.0;
    while t < horizon {
        for n in names.clone() {
            d.check_at(SimTime::from_units(t + rng.unit()), &n);
        }
        t += 50.0;
    }
    for (i, n) in names.clone().iter().enumerate() {
        d.check_at(SimTime::from_units(horizon + 100.0 + i as f64), n);
        d.check_at(SimTime::from_units(horizon + 200.0 + i as f64), n);
    }
    assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));

    let merged = d.merged_metrics();
    let mean = |name: &str| merged.histogram(name).map_or(0.0, LogHistogram::mean);
    let st = d.stats.borrow();
    let submitted = st.submitted.max(1) as f64;
    let mut syntax = Scorecard::new("syntax-directed", scenario);
    syntax.efficiency.connection_attempts_mean = st.submit_attempts as f64 / submitted;
    syntax.efficiency.delivery_latency_mean = mean("delivery_latency");
    syntax.efficiency.end_to_end_latency_mean = mean("end_to_end");
    syntax.efficiency.retrieval_polls_mean = st.retrieval_polls.mean();
    syntax.efficiency.notification_rate = if st.deposited > 0 {
        st.notifications as f64 / st.deposited as f64
    } else {
        0.0
    };
    syntax.reliability.delivered_fraction = st.retrieved as f64 / submitted;
    syntax.reliability.bounced_fraction = st.bounced as f64 / submitted;
    syntax.reliability.lost_fraction = st.outstanding() as f64 / submitted;
    syntax.reliability.availability_mean = 0.95;
    syntax.flexibility.move_requires_rename = true; // §3.1.4
    syntax.flexibility.supports_group_naming = false;
    let reconfig = crate::assign_exp::add_server_reconvergence();
    syntax.flexibility.reconfig_moved_users = reconfig.moved_users;
    syntax.flexibility.reconfig_tables_touched = 3;
    syntax.cost.messages_per_delivery =
        (st.submit_attempts + st.forward_attempts + st.notifications) as f64
            / st.deposited.max(1) as f64;
    syntax.cost.total_comm_units = syntax.efficiency.delivery_latency_mean * st.deposited as f64;
    syntax.cost.peak_storage = st.peak_storage;
    drop(st);

    // ---- System 2: System 1 baseline + measured roaming deltas. ----
    let mut locindep = syntax.clone();
    locindep.system = "location-independent".into();
    let mob = mobility_sweep(&[0.0, 0.3], seed);
    let overhead = mob[1].mean_cost / mob[0].mean_cost.max(1e-9);
    locindep.efficiency.delivery_latency_mean *= overhead;
    locindep.efficiency.end_to_end_latency_mean *= overhead;
    locindep.flexibility.move_requires_rename = false; // the whole point
    let rcmp = reconfig_comparison();
    locindep.flexibility.reconfig_moved_users = (rcmp.rehash_moved_fraction * 270.0).round() as u64;
    locindep.cost.total_comm_units *= overhead;

    // ---- System 3: attribute addressing over the MST fabric. ----
    let mut attr = syntax.clone();
    attr.system = "attribute-based".into();
    attr.flexibility.move_requires_rename = false;
    attr.flexibility.supports_group_naming = true;
    let c3 = c3_sweep(&[4], seed);
    // Broadcast delivery to a group costs the tree weight instead of one
    // unicast per recipient.
    attr.cost.total_comm_units = c3[0].mst_units;
    attr.cost.messages_per_delivery = c3[0].ghs_messages as f64 / c3[0].nodes as f64; // amortised tree build
    attr.efficiency.end_to_end_latency_mean = c3[0].completed_units;

    let cards = vec![syntax, locindep, attr];
    for c in &cards {
        c.validate().expect("scorecards must validate");
    }
    cards
}

/// C7: the §4 criteria scorecard — efficiency, reliability, flexibility,
/// cost — for all three designs on a common scenario.
pub(crate) fn report() -> Report {
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

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_validated_scorecards() {
        let cards = scorecards(5);
        assert_eq!(cards.len(), 3);
        assert_eq!(cards[0].system, "syntax-directed");
        // The paper's no-loss claim, end to end.
        assert_eq!(cards[0].reliability.lost_fraction, 0.0);
        // System 2's defining flexibility win.
        assert!(cards[0].flexibility.move_requires_rename);
        assert!(!cards[1].flexibility.move_requires_rename);
        // System 3 is the only one with group naming.
        assert!(cards[2].flexibility.supports_group_naming);
    }

    #[test]
    fn retrieval_polls_near_one() {
        let cards = scorecards(6);
        let polls = cards[0].efficiency.retrieval_polls_mean;
        assert!(
            polls < 2.0,
            "polls per retrieval should stay near 1, got {polls}"
        );
    }
}
