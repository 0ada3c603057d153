//! The §4 performance criteria: efficiency, reliability, flexibility,
//! cost.
//!
//! "The main performance measures are efficiency, reliability,
//! flexibility, and cost. Actually some of these performance measures may
//! have conflicting requirements with each other… it is necessary for
//! designers and administrators to weigh different alternatives and
//! strike a balance."
//!
//! Each criterion is a bag of concrete measurements taken from simulation
//! runs; [`Scorecard`] bundles all four for one system under one scenario,
//! and [`comparison_table`] puts the three designs side by side — the C7
//! experiment's output.

use std::fmt::Write;

/// §4.1: "connection set-up time, message transportation, message
/// delivery, name resolution, message storage, caching capability, and
/// receiving server notification for existence of mail."
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct Efficiency {
    /// Mean attempts needed to reach a live server at submission.
    pub(crate) connection_attempts_mean: f64,
    /// Mean submission-to-deposit latency (time units).
    pub(crate) delivery_latency_mean: f64,
    /// Mean submission-to-retrieval latency (time units).
    pub(crate) end_to_end_latency_mean: f64,
    /// Mean server polls per mailbox check.
    pub(crate) retrieval_polls_mean: f64,
    /// Notifications delivered per deposited message.
    pub(crate) notification_rate: f64,
}

/// §4.2: "users can have confidence that their messages, once accepted
/// for delivery, will be made available to the intended recipient or
/// returned with proper error messages."
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct Reliability {
    /// Fraction of submitted messages eventually retrieved.
    pub(crate) delivered_fraction: f64,
    /// Fraction bounced back with an error (still "reliable" by the
    /// paper's definition — the sender learns).
    pub(crate) bounced_fraction: f64,
    /// Fraction silently lost: neither retrieved nor bounced once the
    /// scenario has drained. The paper's claim is zero.
    pub(crate) lost_fraction: f64,
    /// Mean server availability during the scenario.
    pub(crate) availability_mean: f64,
}

/// §4.3: "the ability to provide wide range of functions, to minimize
/// restrictions and constraints on users, and to adjust to changes in the
/// system: user migration, group naming, system reconfiguration."
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct Flexibility {
    /// Whether a within-region move forces a name change.
    pub(crate) move_requires_rename: bool,
    /// Whether recipients can be addressed by predicate (group naming).
    pub(crate) supports_group_naming: bool,
    /// Users whose assignment changed during the scenario's
    /// reconfiguration step (lower = less disruptive).
    pub(crate) reconfig_moved_users: u64,
    /// Servers whose tables had to change during reconfiguration.
    pub(crate) reconfig_tables_touched: usize,
}

/// §4.4: "response time, storage space used, implementation overhead."
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct Cost {
    /// Protocol messages sent per successfully delivered message.
    pub(crate) messages_per_delivery: f64,
    /// Total communication spent, in weight/time units.
    pub(crate) total_comm_units: f64,
    /// Peak number of messages buffered in server storage.
    pub(crate) peak_storage: u64,
}

/// All four criteria for one system on one scenario.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct Scorecard {
    /// System label (e.g. "syntax-directed").
    pub(crate) system: String,
    /// Scenario label (workload / failure description).
    scenario: String,
    /// §4.1 numbers.
    pub(crate) efficiency: Efficiency,
    /// §4.2 numbers.
    pub(crate) reliability: Reliability,
    /// §4.3 numbers.
    pub(crate) flexibility: Flexibility,
    /// §4.4 numbers.
    pub(crate) cost: Cost,
}

impl Scorecard {
    /// Creates a named scorecard with zeroed metrics.
    pub(crate) fn new(system: impl Into<String>, scenario: impl Into<String>) -> Self {
        Scorecard {
            system: system.into(),
            scenario: scenario.into(),
            ..Scorecard::default()
        }
    }

    /// Sanity check: fractions in range, non-negative means. Returns the
    /// first violation.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let fracs = [
            ("delivered_fraction", self.reliability.delivered_fraction),
            ("bounced_fraction", self.reliability.bounced_fraction),
            ("lost_fraction", self.reliability.lost_fraction),
            ("availability_mean", self.reliability.availability_mean),
        ];
        for (name, v) in fracs {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} out of [0,1]: {v}"));
            }
        }
        let sums = self.reliability.delivered_fraction
            + self.reliability.bounced_fraction
            + self.reliability.lost_fraction;
        if !(0.0..=1.0 + 1e-9).contains(&sums) {
            return Err(format!("delivery fractions sum to {sums}"));
        }
        let non_neg = [
            self.efficiency.connection_attempts_mean,
            self.efficiency.delivery_latency_mean,
            self.efficiency.end_to_end_latency_mean,
            self.efficiency.retrieval_polls_mean,
            self.cost.messages_per_delivery,
            self.cost.total_comm_units,
        ];
        if non_neg.iter().any(|&v| v < 0.0 || !v.is_finite()) {
            return Err("negative or non-finite efficiency/cost metric".to_owned());
        }
        Ok(())
    }
}

/// Designer-chosen weights for ranking scorecards (§4: "it is necessary
/// for designers and administrators to weigh different alternatives and
/// strike a balance between the benefits and the costs").
///
/// Each criterion is first normalised across the compared scorecards to
/// `[0, 1]` (1 = best), then combined by these weights.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CriteriaWeights {
    /// Weight on efficiency (lower latency/polls is better).
    pub(crate) efficiency: f64,
    /// Weight on reliability (delivered high, lost low).
    pub(crate) reliability: f64,
    /// Weight on flexibility (rename-free moves, group naming, cheap
    /// reconfiguration).
    pub(crate) flexibility: f64,
    /// Weight on cost (fewer messages and comm units is better).
    pub(crate) cost: f64,
}

impl Default for CriteriaWeights {
    fn default() -> Self {
        CriteriaWeights {
            efficiency: 1.0,
            reliability: 1.0,
            flexibility: 1.0,
            cost: 1.0,
        }
    }
}

/// Scores to `[0, 1]`-ish per criterion and ranks the scorecards best
/// first under `weights`. Returns `(index into cards, weighted score)`.
///
/// Normalisation is min-max within the compared set per metric, so the
/// result is a *relative* ranking — exactly the designer's trade-off
/// exercise the paper describes, not an absolute grade.
pub(crate) fn rank(cards: &[Scorecard], weights: &CriteriaWeights) -> Vec<(usize, f64)> {
    if cards.is_empty() {
        return Vec::new();
    }
    // Lower-is-better metrics per criterion.
    let eff = |c: &Scorecard| {
        c.efficiency.end_to_end_latency_mean
            + c.efficiency.retrieval_polls_mean
            + c.efficiency.connection_attempts_mean
    };
    let rel = |c: &Scorecard| {
        // Higher delivered, lower lost: make lower-better.
        1.0 - c.reliability.delivered_fraction + 2.0 * c.reliability.lost_fraction
    };
    let flex = |c: &Scorecard| {
        let mut penalty = c.flexibility.reconfig_moved_users as f64;
        if c.flexibility.move_requires_rename {
            penalty += 100.0;
        }
        if !c.flexibility.supports_group_naming {
            penalty += 50.0;
        }
        penalty
    };
    let cost = |c: &Scorecard| c.cost.messages_per_delivery + c.cost.total_comm_units / 100.0;

    let normalise = |vals: Vec<f64>| -> Vec<f64> {
        let lo = vals.iter().copied().fold(f64::MAX, f64::min);
        let hi = vals.iter().copied().fold(f64::MIN, f64::max);
        vals.into_iter()
            .map(|v| {
                if (hi - lo).abs() < 1e-12 {
                    1.0
                } else {
                    1.0 - (v - lo) / (hi - lo) // lower metric -> higher score
                }
            })
            .collect()
    };

    let e = normalise(cards.iter().map(eff).collect());
    let r = normalise(cards.iter().map(rel).collect());
    let f = normalise(cards.iter().map(flex).collect());
    let k = normalise(cards.iter().map(cost).collect());

    let total_w = weights.efficiency + weights.reliability + weights.flexibility + weights.cost;
    let mut scored: Vec<(usize, f64)> = (0..cards.len())
        .map(|i| {
            let s = (e[i] * weights.efficiency
                + r[i] * weights.reliability
                + f[i] * weights.flexibility
                + k[i] * weights.cost)
                / total_w.max(1e-12);
            (i, s)
        })
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1));
    scored
}

/// Renders a fixed-width comparison table of several scorecards, one
/// column per system, one row per metric — the shape of §4's discussion.
pub(crate) fn comparison_table(cards: &[Scorecard]) -> String {
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
    fn default_scorecard_is_valid() {
        let s = Scorecard::new("syntax-directed", "fig1-steady");
        assert_eq!(s.system, "syntax-directed");
        assert!(s.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_fractions() {
        let mut s = Scorecard::new("x", "y");
        s.reliability.delivered_fraction = 1.5;
        assert!(s.validate().unwrap_err().contains("delivered_fraction"));

        let mut s = Scorecard::new("x", "y");
        s.reliability.delivered_fraction = 0.8;
        s.reliability.bounced_fraction = 0.5;
        assert!(s.validate().unwrap_err().contains("sum"));

        let mut s = Scorecard::new("x", "y");
        s.cost.messages_per_delivery = f64::NAN;
        assert!(s.validate().is_err());
    }

    #[test]
    fn ranking_responds_to_weights() {
        let mut fast = Scorecard::new("fast-but-rigid", "s");
        fast.efficiency.end_to_end_latency_mean = 10.0;
        fast.flexibility.move_requires_rename = true;
        fast.cost.total_comm_units = 100.0;

        let mut flexible = Scorecard::new("flexible-but-slow", "s");
        flexible.efficiency.end_to_end_latency_mean = 50.0;
        flexible.flexibility.move_requires_rename = false;
        flexible.flexibility.supports_group_naming = true;
        flexible.cost.total_comm_units = 300.0;

        let cards = vec![fast, flexible];
        // Efficiency-weighted: the fast system wins.
        let eff_first = rank(
            &cards,
            &CriteriaWeights {
                efficiency: 10.0,
                flexibility: 0.1,
                ..CriteriaWeights::default()
            },
        );
        assert_eq!(eff_first[0].0, 0);
        // Flexibility-weighted: the flexible system wins.
        let flex_first = rank(
            &cards,
            &CriteriaWeights {
                efficiency: 0.1,
                flexibility: 10.0,
                ..CriteriaWeights::default()
            },
        );
        assert_eq!(flex_first[0].0, 1);
        // Scores are in [0, 1] and sorted descending.
        for w in [eff_first, flex_first] {
            assert!(w.windows(2).all(|p| p[0].1 >= p[1].1));
            assert!(w.iter().all(|&(_, s)| (0.0..=1.0).contains(&s)));
        }
    }

    #[test]
    fn empty_ranking_is_empty() {
        assert!(rank(&[], &CriteriaWeights::default()).is_empty());
    }

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

    #[test]
    fn comparison_table_names_systems_and_metrics() {
        let a = Scorecard::new("syntax", "s");
        let b = Scorecard::new("locindep", "s");
        let table = comparison_table(&[a, b]);
        assert!(table.contains("syntax"));
        assert!(table.contains("retrieval polls"));
    }
}
