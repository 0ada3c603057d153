//! Simulated time.
//!
//! The paper expresses all costs in abstract "time units" (e.g. the average
//! communication time of every link in Fig. 1 is one time unit, message
//! processing takes 0.5 time units). We represent simulated time as an
//! integer number of *ticks*, with [`TICKS_PER_UNIT`] ticks per paper time
//! unit, so that event ordering is exact and runs are reproducible while the
//! fractional constants from the paper stay representable.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Number of integer ticks per paper "time unit".
///
/// One million ticks gives microsecond-like resolution relative to the
/// paper's unit costs, which is far finer than any constant the paper uses.
pub const TICKS_PER_UNIT: u64 = 1_000_000;

/// A point in simulated time, measured in ticks since the start of the run.
///
/// `SimTime` is an absolute instant; [`SimDuration`] is a length of time.
/// Arithmetic that would underflow saturates to zero (times before the start
/// of a simulation do not exist), while overflow panics in debug builds like
/// ordinary integer arithmetic.
///
/// # Examples
///
/// ```
/// use lems_sim::time::{SimTime, SimDuration};
///
/// let start = SimTime::ZERO;
/// let later = start + SimDuration::from_units(1.5);
/// assert_eq!(later.as_units(), 1.5);
/// assert!(later > start);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A length of simulated time, measured in ticks.
///
/// # Examples
///
/// ```
/// use lems_sim::time::SimDuration;
///
/// let one = SimDuration::from_units(1.0);
/// let half = SimDuration::from_units(0.5);
/// assert_eq!((one + half).as_units(), 1.5);
/// assert_eq!(one * 3, SimDuration::from_units(3.0));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The beginning of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinite" deadline.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from a raw tick count.
    pub const fn from_ticks(ticks: u64) -> Self {
        SimTime(ticks)
    }

    /// Creates an instant from a (possibly fractional) number of paper time
    /// units.
    ///
    /// # Panics
    ///
    /// Panics if `units` is negative or not finite.
    pub fn from_units(units: f64) -> Self {
        assert!(
            units.is_finite() && units >= 0.0,
            "SimTime units must be finite and non-negative, got {units}"
        );
        SimTime((units * TICKS_PER_UNIT as f64).round() as u64)
    }

    /// Raw tick count since the start of the run.
    pub const fn as_ticks(self) -> u64 {
        self.0
    }

    /// This instant expressed in paper time units.
    pub fn as_units(self) -> f64 {
        self.0 as f64 / TICKS_PER_UNIT as f64
    }

    /// Duration since an earlier instant, saturating to zero if `earlier` is
    /// actually later.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Adds a duration, saturating at [`SimTime::MAX`].
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from a raw tick count.
    pub const fn from_ticks(ticks: u64) -> Self {
        SimDuration(ticks)
    }

    /// Creates a duration from a (possibly fractional) number of paper time
    /// units.
    ///
    /// # Panics
    ///
    /// Panics if `units` is negative or not finite.
    pub fn from_units(units: f64) -> Self {
        assert!(
            units.is_finite() && units >= 0.0,
            "SimDuration units must be finite and non-negative, got {units}"
        );
        SimDuration((units * TICKS_PER_UNIT as f64).round() as u64)
    }

    /// Raw tick count.
    pub const fn as_ticks(self) -> u64 {
        self.0
    }

    /// This duration expressed in paper time units.
    pub fn as_units(self) -> f64 {
        self.0 as f64 / TICKS_PER_UNIT as f64
    }

    /// True if this is the zero-length duration.
    pub(crate) const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}", self.as_units())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.as_units())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Δ{:.6}", self.as_units())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.as_units())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_round_trip() {
        let t = SimTime::from_units(2.5);
        assert_eq!(t.as_ticks(), 2_500_000);
        assert_eq!(t.as_units(), 2.5);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_units(1.0) + SimDuration::from_units(0.5);
        assert_eq!(t, SimTime::from_units(1.5));
        assert_eq!(t - SimTime::from_units(1.0), SimDuration::from_units(0.5));
    }

    #[test]
    fn subtraction_saturates() {
        let early = SimTime::from_units(1.0);
        let late = SimTime::from_units(3.0);
        assert_eq!(early - late, SimDuration::ZERO);
        assert_eq!(early.duration_since(late), SimDuration::ZERO);
        assert_eq!(late.duration_since(early), SimDuration::from_units(2.0));
    }

    #[test]
    fn duration_ops() {
        let d = SimDuration::from_units(2.0);
        assert_eq!(d * 3, SimDuration::from_units(6.0));
        assert_eq!(d / 4, SimDuration::from_units(0.5));
        assert!(SimDuration::ZERO.is_zero());
        assert!(!d.is_zero());
        assert_eq!(d - SimDuration::from_units(3.0), SimDuration::ZERO);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(|i| SimDuration::from_units(i as f64)).sum();
        assert_eq!(total, SimDuration::from_units(10.0));
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_units_panic() {
        let _ = SimDuration::from_units(-1.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimTime::from_units(1.25)), "1.250");
        assert_eq!(format!("{}", SimDuration::from_units(0.5)), "0.500");
        assert_eq!(format!("{:?}", SimTime::from_units(1.0)), "t=1.000000");
    }
}
