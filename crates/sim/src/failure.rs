//! Failure injection: planned outages and random crash/repair processes.
//!
//! The paper's reliability story (ordered authority-server lists, the
//! GetMail recovery bookkeeping, convergecast timeouts) only matters when
//! servers actually fail. A [`FailurePlan`] is an explicit, inspectable list
//! of outages that can be applied to an [`ActorSim`] and also queried
//! analytically (e.g. "was server 3 up at time 17.5?"), so experiments can
//! cross-check simulated behaviour against ground truth.

use std::collections::BTreeMap;

use crate::actor::{ActorId, ActorSim};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// One actor's `(down, up)` outage instants over `[0, horizon)`, in
/// order: up intervals are exponential with mean `mtbf`, down intervals
/// exponential with mean `mttr`. Both random plans draw through here, so
/// a seed gives the same outages whichever plan type it builds. The draws
/// come from `rng` lazily, up, down, up, …; exhaust the iterator before
/// drawing for the next actor.
pub fn exp_outages(
    rng: &mut SimRng,
    mtbf: SimDuration,
    mttr: SimDuration,
    horizon: SimTime,
) -> impl Iterator<Item = (SimTime, SimTime)> + '_ {
    let mut t = SimTime::ZERO + rng.exp_duration(mtbf);
    std::iter::from_fn(move || {
        if t >= horizon {
            return None;
        }
        // An exponential draw can round down to zero ticks; stretch to one
        // tick so the outage interval stays non-empty.
        let mut down = rng.exp_duration(mttr);
        if down.is_zero() {
            down = SimDuration::from_ticks(1);
        }
        let outage = (t, t + down);
        t = outage.1 + rng.exp_duration(mtbf);
        Some(outage)
    })
}

/// Why a failure or link-fault plan could not be constructed.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum FailureError {
    /// An outage interval was empty or inverted (`up_at <= down_at`).
    EmptyOutage {
        /// Requested crash instant.
        down_at: SimTime,
        /// Requested repair instant.
        up_at: SimTime,
    },
    /// A mean time (MTBF or MTTR) was zero.
    ZeroMeanTime,
    /// A probability was outside `[0, 1]` or NaN.
    InvalidProbability(f64),
}

impl std::fmt::Display for FailureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureError::EmptyOutage { down_at, up_at } => {
                write!(f, "outage must end after it starts ({down_at} >= {up_at})")
            }
            FailureError::ZeroMeanTime => write!(f, "mtbf/mttr must be positive"),
            FailureError::InvalidProbability(p) => {
                write!(f, "probability {p} outside [0, 1]")
            }
        }
    }
}

impl std::error::Error for FailureError {}

/// One contiguous down interval `[down_at, up_at)` for an actor.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Outage {
    /// Instant the actor crashes.
    pub down_at: SimTime,
    /// Instant the actor recovers. `SimTime::MAX` means it never does.
    pub up_at: SimTime,
}

impl Outage {
    /// Creates an outage, rejecting empty or inverted intervals.
    pub fn new(down_at: SimTime, up_at: SimTime) -> Result<Self, FailureError> {
        if up_at <= down_at {
            return Err(FailureError::EmptyOutage { down_at, up_at });
        }
        Ok(Outage { down_at, up_at })
    }

    /// True if `t` falls inside the outage.
    pub fn covers(&self, t: SimTime) -> bool {
        t >= self.down_at && t < self.up_at
    }

    /// Length of the outage (saturating for never-repaired outages).
    pub fn duration(&self) -> SimDuration {
        self.up_at.duration_since(self.down_at)
    }
}

/// A set of outages per actor.
///
/// # Examples
///
/// ```
/// use lems_sim::failure::FailurePlan;
/// use lems_sim::actor::ActorId;
/// use lems_sim::time::SimTime;
///
/// let mut plan = FailurePlan::new();
/// plan.add_outage(ActorId(2), SimTime::from_units(5.0), SimTime::from_units(9.0)).unwrap();
/// assert!(plan.is_up(ActorId(2), SimTime::from_units(4.9)));
/// assert!(!plan.is_up(ActorId(2), SimTime::from_units(5.0)));
/// assert!(plan.is_up(ActorId(2), SimTime::from_units(9.0)));
/// assert!(plan.is_up(ActorId(0), SimTime::ZERO)); // no outages -> always up
/// ```
#[derive(Clone, Debug, Default)]
pub struct FailurePlan {
    outages: BTreeMap<ActorId, Vec<Outage>>,
}

impl FailurePlan {
    /// An empty plan (everything stays up).
    pub fn new() -> Self {
        FailurePlan::default()
    }

    /// Adds an outage for `actor` (O(1): insertion order is preserved;
    /// call [`normalize`] to sort and merge overlaps when needed).
    /// Rejects empty or inverted intervals.
    ///
    /// [`normalize`]: FailurePlan::normalize
    pub fn add_outage(
        &mut self,
        actor: ActorId,
        down_at: SimTime,
        up_at: SimTime,
    ) -> Result<(), FailureError> {
        let outage = Outage::new(down_at, up_at)?;
        self.outages.entry(actor).or_default().push(outage);
        Ok(())
    }

    /// Merges overlapping or adjacent outages per actor.
    pub fn normalize(&mut self) {
        for list in self.outages.values_mut() {
            list.sort_by_key(|o| o.down_at);
            let mut merged: Vec<Outage> = Vec::with_capacity(list.len());
            for o in list.drain(..) {
                match merged.last_mut() {
                    Some(last) if o.down_at <= last.up_at => {
                        if o.up_at > last.up_at {
                            last.up_at = o.up_at;
                        }
                    }
                    _ => merged.push(o),
                }
            }
            *list = merged;
        }
    }

    /// Generates a plan where each actor alternates exponentially
    /// distributed up intervals (mean `mtbf`) and down intervals (mean
    /// `mttr`) over `[0, horizon)`. Rejects zero means.
    pub fn random(
        rng: &mut SimRng,
        actors: &[ActorId],
        mtbf: SimDuration,
        mttr: SimDuration,
        horizon: SimTime,
    ) -> Result<Self, FailureError> {
        if mtbf.is_zero() || mttr.is_zero() {
            return Err(FailureError::ZeroMeanTime);
        }
        let mut plan = FailurePlan::new();
        for &actor in actors {
            for (down, up) in exp_outages(rng, mtbf, mttr, horizon) {
                plan.add_outage(actor, down, up)?;
            }
        }
        Ok(plan)
    }

    /// True if `actor` is up at instant `t` under this plan.
    pub fn is_up(&self, actor: ActorId, t: SimTime) -> bool {
        self.outages
            .get(&actor)
            .is_none_or(|list| !list.iter().any(|o| o.covers(t)))
    }

    /// The outages recorded for `actor` (empty slice if none).
    pub fn outages(&self, actor: ActorId) -> &[Outage] {
        self.outages.get(&actor).map_or(&[], Vec::as_slice)
    }

    /// Actors with at least one outage.
    pub fn affected_actors(&self) -> impl Iterator<Item = ActorId> + '_ {
        self.outages.keys().copied()
    }

    /// Fraction of `[0, horizon)` that `actor` spends up.
    pub fn availability(&self, actor: ActorId, horizon: SimTime) -> f64 {
        let total = horizon.as_units();
        if total <= 0.0 {
            return 1.0;
        }
        let down: f64 = self
            .outages(actor)
            .iter()
            .map(|o| {
                let start = o.down_at.min(horizon);
                let end = o.up_at.min(horizon);
                end.duration_since(start).as_units()
            })
            .sum();
        ((total - down) / total).clamp(0.0, 1.0)
    }

    /// Schedules every outage onto the simulation engine.
    pub fn apply<M: 'static>(&self, sim: &mut ActorSim<M>) {
        for (&actor, list) in &self.outages {
            for o in list {
                sim.schedule_crash(actor, o.down_at);
                if o.up_at < SimTime::MAX {
                    sim.schedule_recover(actor, o.up_at);
                }
            }
        }
    }

    /// Total number of outages across all actors.
    pub fn outage_count(&self) -> usize {
        self.outages.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(u: f64) -> SimTime {
        SimTime::from_units(u)
    }

    #[test]
    fn outage_covers_half_open_interval() {
        let o = Outage::new(t(1.0), t(2.0)).unwrap();
        assert!(!o.covers(t(0.99)));
        assert!(o.covers(t(1.0)));
        assert!(o.covers(t(1.99)));
        assert!(!o.covers(t(2.0)));
        assert_eq!(o.duration(), SimDuration::from_units(1.0));
    }

    #[test]
    fn normalize_merges_overlaps() {
        let mut p = FailurePlan::new();
        let a = ActorId(0);
        p.add_outage(a, t(1.0), t(3.0)).unwrap();
        p.add_outage(a, t(2.0), t(4.0)).unwrap();
        p.add_outage(a, t(6.0), t(7.0)).unwrap();
        p.normalize();
        assert_eq!(
            p.outages(a),
            &[
                Outage::new(t(1.0), t(4.0)).unwrap(),
                Outage::new(t(6.0), t(7.0)).unwrap()
            ]
        );
    }

    #[test]
    fn availability_accounts_for_truncation() {
        let mut p = FailurePlan::new();
        let a = ActorId(0);
        p.add_outage(a, t(8.0), t(20.0)).unwrap(); // truncated by horizon 10 -> 2 down
        assert!((p.availability(a, t(10.0)) - 0.8).abs() < 1e-9);
        assert_eq!(p.availability(ActorId(9), t(10.0)), 1.0);
    }

    #[test]
    fn random_plan_matches_target_availability_roughly() {
        let mut rng = SimRng::seed(5);
        let actors: Vec<ActorId> = (0..50).map(ActorId).collect();
        let mtbf = SimDuration::from_units(90.0);
        let mttr = SimDuration::from_units(10.0);
        let horizon = t(10_000.0);
        let plan = FailurePlan::random(&mut rng, &actors, mtbf, mttr, horizon).unwrap();
        let avg: f64 = actors
            .iter()
            .map(|&a| plan.availability(a, horizon))
            .sum::<f64>()
            / actors.len() as f64;
        // Expected availability = mtbf / (mtbf + mttr) = 0.9.
        assert!((avg - 0.9).abs() < 0.02, "avg availability {avg}");
    }

    #[test]
    fn apply_schedules_crashes_on_engine() {
        use crate::actor::{Actor, Ctx};
        struct Nop;
        impl Actor for Nop {
            type Msg = ();
            fn on_message(&mut self, _f: ActorId, _m: (), _c: &mut Ctx<'_, ()>) {}
        }
        let mut sim = ActorSim::new(1);
        let a = sim.add_actor(Nop);
        let mut plan = FailurePlan::new();
        plan.add_outage(a, t(1.0), t(2.0)).unwrap();
        plan.apply(&mut sim);
        sim.run_until(t(1.5));
        assert!(sim.is_down(a));
        sim.run_until(t(3.0));
        assert!(!sim.is_down(a));
    }

    proptest! {
        /// After normalization outages are sorted and disjoint, and the
        /// point query agrees with a brute-force interval check.
        #[test]
        fn normalized_plan_is_consistent(
            spans in proptest::collection::vec((0u64..100, 1u64..20), 1..20),
            probe in 0u64..130
        ) {
            let mut p = FailurePlan::new();
            let a = ActorId(1);
            for &(start, len) in &spans {
                p.add_outage(a, SimTime::from_ticks(start), SimTime::from_ticks(start + len))
                    .unwrap();
            }
            let brute_down = spans.iter().any(|&(s, l)| probe >= s && probe < s + l);
            p.normalize();
            let list = p.outages(a);
            for w in list.windows(2) {
                prop_assert!(w[0].up_at < w[1].down_at);
            }
            prop_assert_eq!(!p.is_up(a, SimTime::from_ticks(probe)), brute_down);
        }
    }
}
