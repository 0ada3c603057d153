//! Session-layer retry discipline: capped exponential backoff with jitter.
//!
//! The paper's senders assume a perfect network; once links can lose and
//! delay messages (see [`linkfault`](crate::linkfault)), every
//! request/response exchange needs an end-to-end session: arm a timeout,
//! retransmit with backoff on expiry, give up after a bounded budget and
//! fall back (e.g. to the next authority server). [`RetryPolicy`] is the
//! shared timing discipline used by the System-1 and System-2 actors; it is
//! pure arithmetic over simulated time, so both protocol crates share one
//! deterministic implementation.

use crate::rng::SimRng;
use crate::time::SimDuration;

/// Timeout/retransmit parameters for one peer exchange.
///
/// Attempt `k` (0-based) times out after
/// `max(base, min(base * backoff_factor^k, max_timeout))` plus a uniform
/// jitter of up to `jitter_frac` of that value: the cap bounds how far
/// backoff grows, never the first timeout, which is the exchange's round
/// trip. Jitter decorrelates retransmissions from different senders so
/// retry storms do not synchronise.
///
/// # Examples
///
/// ```
/// use lems_sim::rng::SimRng;
/// use lems_sim::session::RetryPolicy;
/// use lems_sim::time::SimDuration;
///
/// let policy = RetryPolicy::default_session();
/// let mut rng = SimRng::seed(7).fork("session");
/// let base = SimDuration::from_units(4.0);
/// let t0 = policy.timeout(base, 0, &mut rng);
/// let t1 = policy.timeout(base, 1, &mut rng);
/// assert!(t1 >= t0, "backoff grows");
/// assert!(!policy.exhausted(1));
/// assert!(policy.exhausted(policy.max_attempts));
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RetryPolicy {
    /// Total attempts per peer (first try + retransmissions). Zero means
    /// "don't even try"; callers treat every exchange as instantly failed.
    pub max_attempts: u32,
    /// Multiplier applied to the timeout per attempt.
    pub backoff_factor: f64,
    /// Upper bound on backoff growth (before jitter). A `base` above it is
    /// kept: a timeout shorter than the round trip would always fire.
    pub max_timeout: SimDuration,
    /// Uniform jitter as a fraction of the timeout (`0.1` = up to +10%).
    pub jitter_frac: f64,
}

impl RetryPolicy {
    /// The default session discipline: 3 attempts, a timeout that doubles
    /// up to 60 time units (or stays at a longer round trip), 10% jitter.
    pub fn default_session() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_factor: 2.0,
            max_timeout: SimDuration::from_units(60.0),
            jitter_frac: 0.1,
        }
    }

    /// A single attempt with no backoff and no jitter — the pre-session
    /// behaviour, kept so experiments can prove the retry layer is
    /// load-bearing.
    pub fn no_retry() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff_factor: 1.0,
            max_timeout: SimDuration::MAX,
            jitter_frac: 0.0,
        }
    }

    /// The timeout to arm for 0-based attempt `attempt` given the
    /// first-attempt timeout `base`.
    pub fn timeout(&self, base: SimDuration, attempt: u32, rng: &mut SimRng) -> SimDuration {
        let factor = self.backoff_factor.powi(attempt.min(63) as i32);
        let base = base.as_units();
        let backed = (base * factor).min(self.max_timeout.as_units()).max(base);
        let jitter = if self.jitter_frac > 0.0 {
            backed * self.jitter_frac * rng.unit()
        } else {
            0.0
        };
        SimDuration::from_units(backed + jitter)
    }

    /// True once `attempts` tries have been spent on the current peer.
    pub fn exhausted(&self, attempts: u32) -> bool {
        attempts >= self.max_attempts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = RetryPolicy {
            max_attempts: 5,
            backoff_factor: 2.0,
            max_timeout: SimDuration::from_units(10.0),
            jitter_frac: 0.0,
        };
        let mut rng = SimRng::seed(1).fork("t");
        let base = SimDuration::from_units(3.0);
        assert_eq!(policy.timeout(base, 0, &mut rng), base);
        assert_eq!(
            policy.timeout(base, 1, &mut rng),
            SimDuration::from_units(6.0)
        );
        // 3 * 2^2 = 12 > cap 10.
        assert_eq!(
            policy.timeout(base, 2, &mut rng),
            SimDuration::from_units(10.0)
        );
        // A base above the cap is the round trip: kept, and not grown.
        let long = SimDuration::from_units(14.0);
        for attempt in 0..3 {
            assert_eq!(policy.timeout(long, attempt, &mut rng), long);
        }
    }

    #[test]
    fn jitter_stays_within_fraction() {
        let policy = RetryPolicy {
            max_attempts: 3,
            backoff_factor: 1.0,
            max_timeout: SimDuration::MAX,
            jitter_frac: 0.25,
        };
        let mut rng = SimRng::seed(9).fork("t");
        let base = SimDuration::from_units(8.0);
        for _ in 0..100 {
            let t = policy.timeout(base, 0, &mut rng);
            assert!(t >= base);
            assert!(t <= SimDuration::from_units(8.0 * 1.25));
        }
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let policy = RetryPolicy::default_session();
        let base = SimDuration::from_units(5.0);
        let draw = |seed: u64| {
            let mut rng = SimRng::seed(seed).fork("t");
            (0..10)
                .map(|k| policy.timeout(base, k, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(4), draw(4));
        assert_ne!(draw(4), draw(5));
    }

    #[test]
    fn no_retry_is_one_shot() {
        let policy = RetryPolicy::no_retry();
        assert!(!policy.exhausted(0));
        assert!(policy.exhausted(1));
        let mut rng = SimRng::seed(2).fork("t");
        let base = SimDuration::from_units(4.0);
        assert_eq!(policy.timeout(base, 0, &mut rng), base);
    }
}
