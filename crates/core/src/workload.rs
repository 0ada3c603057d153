//! Synthetic mail workloads.
//!
//! The paper gives no traffic traces; its claims are distributional (polls
//! per retrieval, load balance, broadcast cost), so experiments drive the
//! systems with Poisson mail submission per user, Zipf-skewed recipient
//! popularity, and a locality bias (most mail stays inside the sender's
//! region, the premise behind the paper's region-first forwarding).

use lems_net::topology::RegionId;
use lems_sim::rng::{SimRng, WeightTable};
use lems_sim::time::{SimDuration, SimTime};

use crate::user::UserId;

/// Workload generation parameters.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadConfig {
    /// Mean time between two sends by one user (exponential).
    pub mean_interarrival: SimDuration,
    /// Mean time between two mailbox checks by one user (exponential).
    pub mean_check_interval: SimDuration,
    /// Probability that a message's recipient is in the sender's region.
    pub local_bias: f64,
    /// Zipf exponent for recipient popularity (0.0 = uniform).
    pub zipf_exponent: f64,
    /// Events are generated for `[0, horizon)`.
    pub horizon: SimTime,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            mean_interarrival: SimDuration::from_units(50.0),
            mean_check_interval: SimDuration::from_units(20.0),
            local_bias: 0.8,
            zipf_exponent: 0.8,
            horizon: SimTime::from_units(1_000.0),
        }
    }
}

/// One generated workload event.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum WorkloadEvent {
    /// `from` submits a message addressed to `to`.
    Send {
        /// Submission instant.
        at: SimTime,
        /// Sending user.
        from: UserId,
        /// Receiving user.
        to: UserId,
    },
    /// `user` checks their mail.
    CheckMail {
        /// Check instant.
        at: SimTime,
        /// The checking user.
        user: UserId,
    },
}

impl WorkloadEvent {
    /// The instant the event occurs.
    pub fn at(&self) -> SimTime {
        match *self {
            WorkloadEvent::Send { at, .. } | WorkloadEvent::CheckMail { at, .. } => at,
        }
    }
}

/// A generated, time-sorted workload.
#[derive(Clone, Debug, Default)]
pub struct Workload {
    events: Vec<WorkloadEvent>,
    sends: usize,
    checks: usize,
}

impl Workload {
    /// The events, ascending by time.
    pub fn events(&self) -> &[WorkloadEvent] {
        &self.events
    }

    /// Number of send events.
    pub fn send_count(&self) -> usize {
        self.sends
    }

    /// Number of check-mail events.
    pub fn check_count(&self) -> usize {
        self.checks
    }

    /// Total event count.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events were generated.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Generates a workload over `population`, a slice of `(user, region)`
/// pairs.
///
/// Recipient choice: with probability [`WorkloadConfig::local_bias`] the
/// recipient is drawn from the sender's region (excluding the sender),
/// otherwise from the whole population; either draw is weighted by a Zipf
/// distribution over a per-run random popularity permutation, so "popular"
/// users receive disproportionately much mail.
///
/// Deterministic for a given `rng` state and input ordering.
///
/// # Examples
///
/// ```
/// use lems_core::workload::{generate, WorkloadConfig};
/// use lems_core::user::UserId;
/// use lems_net::topology::RegionId;
/// use lems_sim::rng::SimRng;
///
/// let pop: Vec<(UserId, RegionId)> =
///     (0..10).map(|i| (UserId(i), RegionId(i % 2))).collect();
/// let mut rng = SimRng::seed(1);
/// let wl = generate(&mut rng, &pop, &WorkloadConfig::default());
/// assert!(wl.send_count() > 0);
/// assert!(wl.events().windows(2).all(|w| w[0].at() <= w[1].at()));
/// ```
///
/// # Panics
///
/// Panics if `population` has fewer than two users (nobody to mail) or
/// `local_bias` is outside `[0, 1]`.
pub fn generate(
    rng: &mut SimRng,
    population: &[(UserId, RegionId)],
    cfg: &WorkloadConfig,
) -> Workload {
    generate_counting_scans(rng, population, cfg).0
}

/// [`generate`], and how many of its recipient draws fell back to the
/// weight scan ([`WeightTable::scans`]).
fn generate_counting_scans(
    rng: &mut SimRng,
    population: &[(UserId, RegionId)],
    cfg: &WorkloadConfig,
) -> (Workload, u64) {
    assert!(
        population.len() >= 2,
        "workload needs at least two users, got {}",
        population.len()
    );
    assert!(
        (0.0..=1.0).contains(&cfg.local_bias),
        "local_bias must be in [0,1]"
    );

    // Zipf popularity over a random permutation of the population.
    let n = population.len();
    let mut perm: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut perm);
    let mut weight = vec![0.0f64; n];
    for (rank, &idx) in perm.iter().enumerate() {
        weight[idx] = 1.0 / ((rank + 1) as f64).powf(cfg.zipf_exponent);
    }

    // Candidate lists for a draw: everyone (in popularity order) and, for
    // local draws, each region. A list's weight table is built once, not
    // per draw.
    let weighted = |members: Vec<usize>| {
        let table = WeightTable::new(members.iter().map(|&c| weight[c]).collect());
        (members, table)
    };
    let mut regions = std::collections::BTreeMap::<RegionId, Vec<usize>>::new();
    for (i, &(_, r)) in population.iter().enumerate() {
        regions.entry(r).or_default().push(i);
    }
    let regions: std::collections::BTreeMap<RegionId, _> = regions
        .into_iter()
        .map(|(r, members)| (r, weighted(members)))
        .collect();
    let everyone = weighted(perm);

    let mut events = Vec::new();
    let mut sends = 0;
    let mut checks = 0;

    for (i, &(user, region)) in population.iter().enumerate() {
        // Send process.
        let mut t = SimTime::ZERO + rng.exp_duration(cfg.mean_interarrival);
        while t < cfg.horizon {
            let local = rng.chance(cfg.local_bias);
            let (candidates, table) = if local { &regions[&region] } else { &everyone };
            // Weighted pick excluding self; retry a few times then fall back
            // to any other user.
            let mut to_idx = None;
            for _ in 0..8 {
                let pick = candidates[rng.weighted_draw(table)];
                if pick != i {
                    to_idx = Some(pick);
                    break;
                }
            }
            let to_idx = to_idx.unwrap_or_else(|| {
                // Deterministic fallback: next user cyclically.
                let mut j = (i + 1) % n;
                while j == i {
                    j = (j + 1) % n;
                }
                j
            });
            events.push(WorkloadEvent::Send {
                at: t,
                from: user,
                to: population[to_idx].0,
            });
            sends += 1;
            t += rng.exp_duration(cfg.mean_interarrival);
        }
        // Check process.
        let mut t = SimTime::ZERO + rng.exp_duration(cfg.mean_check_interval);
        while t < cfg.horizon {
            events.push(WorkloadEvent::CheckMail { at: t, user });
            checks += 1;
            t += rng.exp_duration(cfg.mean_check_interval);
        }
    }

    events.sort_by_key(WorkloadEvent::at);
    let scans = everyone.1.scans() + regions.values().map(|(_, t)| t.scans()).sum::<u64>();
    let workload = Workload {
        events,
        sends,
        checks,
    };
    (workload, scans)
}

/// A user-mobility schedule for System-2 experiments: who logs in where,
/// when.
#[derive(Clone, Debug, Default)]
pub struct MobilitySchedule {
    /// `(instant, user, host index into the caller's host list)`,
    /// ascending by time.
    pub logins: Vec<(SimTime, UserId, usize)>,
}

/// Parameters for [`generate_mobility`].
#[derive(Clone, Copy, Debug)]
pub struct MobilityConfig {
    /// Mean time between two moves by one user (exponential).
    pub mean_move_interval: SimDuration,
    /// Probability that a move returns the user to their primary host
    /// (index 0 by convention) rather than a random other host.
    pub homing_bias: f64,
    /// Events are generated for `[0, horizon)`.
    pub horizon: SimTime,
}

impl Default for MobilityConfig {
    fn default() -> Self {
        MobilityConfig {
            mean_move_interval: SimDuration::from_units(200.0),
            homing_bias: 0.5,
            horizon: SimTime::from_units(1_000.0),
        }
    }
}

/// Generates login events for `users` over `host_count` hosts: each user
/// starts at host 0 (their primary by convention) and moves at
/// exponential intervals, returning home with the configured bias.
///
/// # Panics
///
/// Panics if `host_count == 0` or `homing_bias` is outside `[0, 1]`.
pub fn generate_mobility(
    rng: &mut SimRng,
    users: &[UserId],
    host_count: usize,
    cfg: &MobilityConfig,
) -> MobilitySchedule {
    assert!(host_count > 0, "need at least one host");
    assert!(
        (0.0..=1.0).contains(&cfg.homing_bias),
        "homing_bias must be in [0,1]"
    );
    let mut logins = Vec::new();
    for &u in users {
        logins.push((SimTime::ZERO, u, 0));
        let mut t = SimTime::ZERO + rng.exp_duration(cfg.mean_move_interval);
        while t < cfg.horizon {
            let dest = if host_count == 1 || rng.chance(cfg.homing_bias) {
                0
            } else {
                1 + rng.index(host_count - 1)
            };
            logins.push((t, u, dest));
            t += rng.exp_duration(cfg.mean_move_interval);
        }
    }
    logins.sort_by_key(|&(at, u, _)| (at, u));
    MobilitySchedule { logins }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pop(n: usize, regions: usize) -> Vec<(UserId, RegionId)> {
        (0..n).map(|i| (UserId(i), RegionId(i % regions))).collect()
    }

    /// FNV-1a over every event's time, kind and users.
    fn digest(wl: &Workload) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        for e in wl.events() {
            match *e {
                WorkloadEvent::Send { at, from, to } => {
                    eat(at.as_ticks());
                    eat(from.0 as u64);
                    eat(to.0 as u64);
                }
                WorkloadEvent::CheckMail { at, user } => {
                    eat(at.as_ticks());
                    eat(u64::MAX);
                    eat(user.0 as u64);
                }
            }
        }
        h
    }

    /// The default rates, which the benchmark's `s1-steady-25k` uses: a
    /// send every 50 units, a check every 20, Zipf 0.8, four fifths of the
    /// mail inside the sender's region.
    fn steady(horizon: f64) -> WorkloadConfig {
        WorkloadConfig {
            horizon: SimTime::from_units(horizon),
            ..WorkloadConfig::default()
        }
    }

    /// The events of three configurations, pinned to the digests the
    /// generator gave when every draw scanned its weights.
    #[test]
    fn generated_events_match_their_pinned_digests() {
        let steady_2k = generate(&mut SimRng::seed(42), &pop(2_000, 20), &steady(40.0));
        let hot = WorkloadConfig {
            mean_interarrival: SimDuration::from_units(5.0),
            local_bias: 0.5,
            zipf_exponent: 1.0,
            horizon: SimTime::from_units(20.0),
            ..WorkloadConfig::default()
        };
        let hot_5k = generate(&mut SimRng::seed(7), &pop(5_000, 7), &hot);
        let global = WorkloadConfig {
            local_bias: 0.0,
            zipf_exponent: 1.2,
            horizon: SimTime::from_units(5_000.0),
            ..WorkloadConfig::default()
        };
        let global_300 = generate(&mut SimRng::seed(3), &pop(300, 1), &global);
        assert_eq!(
            (digest(&steady_2k), steady_2k.len()),
            (0xef22_b72f_c7b0_438f, 5_453)
        );
        assert_eq!(
            (digest(&hot_5k), hot_5k.len()),
            (0xbe10_90b0_d0c2_2900, 24_935)
        );
        assert_eq!(
            (digest(&global_300), global_300.len()),
            (0x0aea_050f_30b1_803d, 104_639)
        );
    }

    /// 400 000 users in 20 regions at the default rates: the events are the
    /// ones every draw scanning gave, and fewer than one draw in a
    /// thousand falls back to the scan (each send draws at least once).
    #[test]
    #[cfg_attr(debug_assertions, ignore = "slow in a debug build; run with --release")]
    fn generate_at_400k_users_is_pinned_and_rarely_scans() {
        let (wl, scans) =
            generate_counting_scans(&mut SimRng::seed(42), &pop(400_000, 20), &steady(20.0));
        assert_eq!((digest(&wl), wl.len()), (0x6ee9_e7f9_2bf9_0f1d, 559_826));
        assert!(
            scans * 1_000 < wl.send_count() as u64,
            "{scans} scans for {} sends",
            wl.send_count()
        );
    }

    #[test]
    fn events_are_sorted_and_bounded() {
        let mut rng = SimRng::seed(2);
        let cfg = WorkloadConfig::default();
        let wl = generate(&mut rng, &pop(20, 4), &cfg);
        assert!(wl.events().windows(2).all(|w| w[0].at() <= w[1].at()));
        assert!(wl.events().iter().all(|e| e.at() < cfg.horizon));
        assert_eq!(wl.len(), wl.send_count() + wl.check_count());
    }

    #[test]
    fn nobody_mails_themselves() {
        let mut rng = SimRng::seed(3);
        let wl = generate(&mut rng, &pop(5, 1), &WorkloadConfig::default());
        for e in wl.events() {
            if let WorkloadEvent::Send { from, to, .. } = e {
                assert_ne!(from, to);
            }
        }
    }

    #[test]
    fn local_bias_keeps_mail_in_region() {
        let mut rng = SimRng::seed(4);
        let population = pop(40, 4);
        let cfg = WorkloadConfig {
            local_bias: 1.0,
            horizon: SimTime::from_units(2_000.0),
            ..WorkloadConfig::default()
        };
        let wl = generate(&mut rng, &population, &cfg);
        let region_of = |u: UserId| population[u.0].1;
        for e in wl.events() {
            if let WorkloadEvent::Send { from, to, .. } = e {
                assert_eq!(region_of(*from), region_of(*to));
            }
        }
    }

    #[test]
    fn zipf_skews_recipients() {
        let mut rng = SimRng::seed(5);
        let population = pop(30, 1);
        let cfg = WorkloadConfig {
            zipf_exponent: 1.2,
            local_bias: 0.0,
            horizon: SimTime::from_units(5_000.0),
            ..WorkloadConfig::default()
        };
        let wl = generate(&mut rng, &population, &cfg);
        let mut counts = vec![0usize; 30];
        for e in wl.events() {
            if let WorkloadEvent::Send { to, .. } = e {
                counts[to.0] += 1;
            }
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top3: usize = counts[..3].iter().sum();
        let bottom10: usize = counts[20..].iter().sum();
        assert!(
            top3 > bottom10,
            "expected skew: top3={top3} bottom10={bottom10}"
        );
    }

    #[test]
    fn mobility_schedule_starts_everyone_home() {
        let mut rng = SimRng::seed(9);
        let users: Vec<UserId> = (0..5).map(UserId).collect();
        let sched = generate_mobility(&mut rng, &users, 4, &MobilityConfig::default());
        // First event per user is at t=0, host 0.
        for &u in &users {
            let first = sched
                .logins
                .iter()
                .find(|&&(_, user, _)| user == u)
                .unwrap();
            assert_eq!(first.0, SimTime::ZERO);
            assert_eq!(first.2, 0);
        }
        // Sorted by time.
        assert!(sched.logins.windows(2).all(|w| w[0].0 <= w[1].0));
        // Host indices in range.
        assert!(sched.logins.iter().all(|&(_, _, h)| h < 4));
    }

    #[test]
    fn full_homing_bias_never_roams() {
        let mut rng = SimRng::seed(10);
        let users: Vec<UserId> = (0..3).map(UserId).collect();
        let cfg = MobilityConfig {
            homing_bias: 1.0,
            ..MobilityConfig::default()
        };
        let sched = generate_mobility(&mut rng, &users, 4, &cfg);
        assert!(sched.logins.iter().all(|&(_, _, h)| h == 0));
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = WorkloadConfig::default();
        let a = generate(&mut SimRng::seed(7), &pop(10, 2), &cfg);
        let b = generate(&mut SimRng::seed(7), &pop(10, 2), &cfg);
        assert_eq!(a.events(), b.events());
    }

    #[test]
    #[should_panic(expected = "at least two users")]
    fn tiny_population_panics() {
        let mut rng = SimRng::seed(1);
        let _ = generate(&mut rng, &pop(1, 1), &WorkloadConfig::default());
    }

    proptest! {
        /// Rate sanity: halving the mean interarrival roughly doubles the
        /// number of sends.
        #[test]
        fn send_rate_scales(seed in 0u64..20) {
            let population = pop(10, 2);
            let slow = WorkloadConfig {
                mean_interarrival: SimDuration::from_units(100.0),
                ..WorkloadConfig::default()
            };
            let fast = WorkloadConfig {
                mean_interarrival: SimDuration::from_units(50.0),
                ..WorkloadConfig::default()
            };
            let ws = generate(&mut SimRng::seed(seed), &population, &slow);
            let wf = generate(&mut SimRng::seed(seed), &population, &fast);
            let ratio = wf.send_count() as f64 / ws.send_count().max(1) as f64;
            prop_assert!(ratio > 1.4 && ratio < 2.8, "ratio {ratio}");
        }
    }
}
