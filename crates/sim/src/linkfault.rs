//! Link-level fault injection: outages, partitions, loss, duplication,
//! delay jitter.
//!
//! The paper's delivery protocols (§3.1.2: ordered authority-server lists,
//! store-and-forward, GetMail) were exercised only against *actor* crashes
//! until this module existed — every link was perfect. A [`LinkFaultPlan`]
//! is the network-side sibling of [`FailurePlan`](crate::failure::FailurePlan):
//! an explicit, inspectable description of when directed links are down
//! (outages, partitions) and how the surviving links misbehave
//! (probabilistic drop, duplication, uniform delay jitter). The engine
//! consults the plan on every send, so protocols face lost, delayed, and
//! duplicated messages rather than an idealised wire.
//!
//! All stochastic decisions draw from a dedicated engine fork
//! (`"link-faults"`), so enabling faults never perturbs the randomness
//! actors observe through [`Ctx::rng`](crate::actor::Ctx::rng) — the same
//! seed with faults on/off keeps the actor-visible streams identical.

use std::collections::BTreeMap;

use crate::actor::ActorId;
use crate::failure::{FailureError, Outage};
use crate::time::{SimDuration, SimTime};

/// How a (directed) link misbehaves while it is up.
///
/// A profile is *stochastic*: each send across the link independently
/// draws for drop, then duplication, then jitter. The zero profile
/// ([`LinkProfile::lossless`]) is a perfect wire.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct LinkProfile {
    /// Probability that a message is lost on the wire.
    pub(crate) drop_prob: f64,
    /// Probability that a delivered message arrives twice.
    pub(crate) dup_prob: f64,
    /// Maximum extra delay, drawn uniformly from `[0, jitter]`.
    pub(crate) jitter: SimDuration,
}

impl LinkProfile {
    /// A perfect link: no loss, no duplication, no jitter.
    pub fn lossless() -> Self {
        LinkProfile::default()
    }

    /// Creates a profile, rejecting probabilities outside `[0, 1]`.
    pub fn new(drop_prob: f64, dup_prob: f64, jitter: SimDuration) -> Result<Self, FailureError> {
        for p in [drop_prob, dup_prob] {
            if !(0.0..=1.0).contains(&p) {
                return Err(FailureError::InvalidProbability(p));
            }
        }
        Ok(LinkProfile {
            drop_prob,
            dup_prob,
            jitter,
        })
    }
}

/// Faults for the message-passing substrate: per-link outages/partitions
/// plus stochastic misbehaviour profiles.
///
/// Links are *directed* actor pairs — an asymmetric cut (A can reach B but
/// not vice versa) is expressible. Helpers with a `_bidi` suffix apply to
/// both directions at once.
///
/// Stochastic effects (drop/dup/jitter) can be confined to
/// `[0, stochastic_horizon)`: chaos experiments set a horizon so the final
/// drain of in-flight retries runs on a clean network and the run
/// converges deterministically. Explicit outages are unaffected by the
/// horizon — they carry their own intervals.
///
/// # Examples
///
/// ```
/// use lems_sim::actor::ActorId;
/// use lems_sim::linkfault::{LinkFaultPlan, LinkProfile};
/// use lems_sim::time::{SimDuration, SimTime};
///
/// let lossy = LinkProfile::new(0.05, 0.01, SimDuration::from_units(0.5)).unwrap();
/// let mut plan = LinkFaultPlan::new().with_default_profile(lossy);
/// plan.set_link_profile(ActorId(0), ActorId(2), LinkProfile::lossless());
/// // Cut {0} from {1, 2} in both directions over [10, 20).
/// plan.add_partition(
///     &[ActorId(0)],
///     &[ActorId(1), ActorId(2)],
///     SimTime::from_units(10.0),
///     SimTime::from_units(20.0),
/// )
/// .unwrap();
/// assert_eq!(plan.outage_count(), 4);
/// assert_eq!(plan.profile(ActorId(0), ActorId(1)), lossy);
/// assert_eq!(plan.profile(ActorId(0), ActorId(2)), LinkProfile::lossless());
/// ```
#[derive(Clone, Debug)]
pub struct LinkFaultPlan {
    default_profile: LinkProfile,
    overrides: BTreeMap<(ActorId, ActorId), LinkProfile>,
    outages: BTreeMap<(ActorId, ActorId), Vec<Outage>>,
    stochastic_horizon: SimTime,
}

impl Default for LinkFaultPlan {
    fn default() -> Self {
        LinkFaultPlan {
            default_profile: LinkProfile::lossless(),
            overrides: BTreeMap::new(),
            outages: BTreeMap::new(),
            stochastic_horizon: SimTime::MAX,
        }
    }
}

impl LinkFaultPlan {
    /// An empty plan: every link is perfect and always up.
    pub fn new() -> Self {
        LinkFaultPlan::default()
    }

    /// Sets the profile applied to every link without an override.
    pub fn with_default_profile(mut self, profile: LinkProfile) -> Self {
        self.default_profile = profile;
        self
    }

    /// Overrides the profile for the directed link `from -> to`.
    pub fn set_link_profile(&mut self, from: ActorId, to: ActorId, profile: LinkProfile) {
        self.overrides.insert((from, to), profile);
    }

    /// The profile in effect for `from -> to`.
    pub fn profile(&self, from: ActorId, to: ActorId) -> LinkProfile {
        self.overrides
            .get(&(from, to))
            .copied()
            .unwrap_or(self.default_profile)
    }

    /// Cuts the directed link `from -> to` over `[down_at, up_at)`.
    pub fn add_link_outage(
        &mut self,
        from: ActorId,
        to: ActorId,
        down_at: SimTime,
        up_at: SimTime,
    ) -> Result<(), FailureError> {
        let outage = Outage::new(down_at, up_at)?;
        self.outages.entry((from, to)).or_default().push(outage);
        Ok(())
    }

    /// Cuts both directions between `a` and `b` over `[down_at, up_at)`.
    pub(crate) fn add_link_outage_bidi(
        &mut self,
        a: ActorId,
        b: ActorId,
        down_at: SimTime,
        up_at: SimTime,
    ) -> Result<(), FailureError> {
        self.add_link_outage(a, b, down_at, up_at)?;
        self.add_link_outage(b, a, down_at, up_at)
    }

    /// Partitions `group_a` from `group_b` over `[down_at, up_at)`: every
    /// cross-group link is cut in both directions. Call repeatedly with
    /// different intervals for a flapping partition.
    pub fn add_partition(
        &mut self,
        group_a: &[ActorId],
        group_b: &[ActorId],
        down_at: SimTime,
        up_at: SimTime,
    ) -> Result<(), FailureError> {
        for &a in group_a {
            for &b in group_b {
                self.add_link_outage_bidi(a, b, down_at, up_at)?;
            }
        }
        Ok(())
    }

    /// True if the directed link `from -> to` carries traffic at `t`.
    pub(crate) fn is_link_up(&self, from: ActorId, to: ActorId, t: SimTime) -> bool {
        self.outages
            .get(&(from, to))
            .is_none_or(|list| !list.iter().any(|o| o.covers(t)))
    }

    /// Stops drop/dup/jitter draws at `t` (outages are unaffected).
    pub fn with_stochastic_horizon(mut self, t: SimTime) -> Self {
        self.stochastic_horizon = t;
        self
    }

    /// True if stochastic effects (drop/dup/jitter) apply at `t`.
    pub(crate) fn stochastic_active(&self, t: SimTime) -> bool {
        t < self.stochastic_horizon
    }

    /// Total number of directed link outages.
    pub fn outage_count(&self) -> usize {
        self.outages.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(u: f64) -> SimTime {
        SimTime::from_units(u)
    }

    #[test]
    fn profile_rejects_bad_probabilities() {
        assert!(LinkProfile::new(1.5, 0.0, SimDuration::ZERO).is_err());
        assert!(LinkProfile::new(0.0, -0.1, SimDuration::ZERO).is_err());
        assert!(LinkProfile::new(0.0, f64::NAN, SimDuration::ZERO).is_err());
        assert!(LinkProfile::new(0.05, 0.01, SimDuration::from_units(1.0)).is_ok());
    }

    #[test]
    fn outages_are_directed() {
        let mut plan = LinkFaultPlan::new();
        plan.add_link_outage(ActorId(0), ActorId(1), t(1.0), t(2.0))
            .unwrap();
        assert!(!plan.is_link_up(ActorId(0), ActorId(1), t(1.5)));
        assert!(plan.is_link_up(ActorId(1), ActorId(0), t(1.5)));
        assert_eq!(plan.outage_count(), 1);
    }

    #[test]
    fn rejects_empty_outage() {
        let mut plan = LinkFaultPlan::new();
        assert!(plan
            .add_link_outage(ActorId(0), ActorId(1), t(2.0), t(2.0))
            .is_err());
    }

    #[test]
    fn partition_cuts_every_cross_pair_both_ways() {
        let mut plan = LinkFaultPlan::new();
        let left = [ActorId(0), ActorId(1)];
        let right = [ActorId(2), ActorId(3)];
        plan.add_partition(&left, &right, t(5.0), t(6.0)).unwrap();
        for &a in &left {
            for &b in &right {
                assert!(!plan.is_link_up(a, b, t(5.5)));
                assert!(!plan.is_link_up(b, a, t(5.5)));
            }
        }
        // Intra-group links stay up.
        assert!(plan.is_link_up(ActorId(0), ActorId(1), t(5.5)));
        assert!(plan.is_link_up(ActorId(2), ActorId(3), t(5.5)));
        assert_eq!(plan.outage_count(), 8);
    }

    #[test]
    fn horizon_gates_stochastic_effects_only() {
        let mut plan = LinkFaultPlan::new()
            .with_default_profile(LinkProfile::new(0.5, 0.0, SimDuration::ZERO).unwrap())
            .with_stochastic_horizon(t(10.0));
        plan.add_link_outage(ActorId(0), ActorId(1), t(12.0), t(14.0))
            .unwrap();
        assert!(plan.stochastic_active(t(9.9)));
        assert!(!plan.stochastic_active(t(10.0)));
        // The explicit outage still applies past the horizon.
        assert!(!plan.is_link_up(ActorId(0), ActorId(1), t(13.0)));
    }

    #[test]
    fn per_link_override_beats_default() {
        let mut plan = LinkFaultPlan::new()
            .with_default_profile(LinkProfile::new(0.1, 0.0, SimDuration::ZERO).unwrap());
        plan.set_link_profile(ActorId(3), ActorId(4), LinkProfile::lossless());
        assert_eq!(
            plan.profile(ActorId(3), ActorId(4)),
            LinkProfile::lossless()
        );
        assert_eq!(
            plan.profile(ActorId(4), ActorId(3)).drop_prob,
            0.1,
            "override is directed"
        );
    }
}
