//! Measurement: counters, summaries, time-weighted gauges, log-scale
//! histograms, and the per-actor [`MetricsRegistry`] that names them.
//!
//! The experiments in `lems-bench` report polls per retrieval, delivery
//! latencies, server utilizations, and broadcast costs; the primitives here
//! collect those observations inside simulations without imposing any I/O.
//!
//! Each instrumented actor owns one [`MetricsRegistry`]; a deployment
//! collects the per-actor registries under scope names like `server:n4`
//! and [`MetricsRegistry::merge`] folds them into fleet-wide aggregates —
//! counters add, histograms add bucket-wise (see `LogHistogram::merge`);
//! merging is associative and commutative, so the fold order is free.
//!
//! Keys are `&'static str` and each table is kept sorted by name, so
//! iteration order — and therefore any export built from it — is
//! deterministic.

use std::fmt;

use crate::time::SimTime;

/// A monotonically increasing event counter.
///
/// # Examples
///
/// ```
/// use lems_sim::metrics::Counter;
///
/// let mut polls = Counter::default();
/// polls.inc();
/// polls.add(2);
/// assert_eq!(polls.get(), 3);
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Increments by one.
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Increments by `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    pub const fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Running mean/min/max/variance over a stream of `f64` observations
/// (Welford's algorithm; numerically stable, O(1) memory).
///
/// # Examples
///
/// ```
/// use lems_sim::metrics::Summary;
///
/// let mut s = Summary::default();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     s.observe(x);
/// }
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.min(), Some(1.0));
/// assert_eq!(s.max(), Some(4.0));
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not finite.
    pub fn observe(&mut self, x: f64) {
        assert!(x.is_finite(), "Summary::observe requires finite values");
        if self.count == 0 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0.0 with fewer than two observations).
    pub(crate) fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub(crate) fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation, if any.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, if any.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} max={:.4}",
            self.count,
            self.mean(),
            self.stddev(),
            self.min().unwrap_or(0.0),
            self.max().unwrap_or(0.0)
        )
    }
}

/// A time-weighted gauge: tracks a piecewise-constant value (queue length,
/// number of users assigned to a server, up/down state) and reports its
/// time-average.
///
/// # Examples
///
/// ```
/// use lems_sim::metrics::TimeWeighted;
/// use lems_sim::time::SimTime;
///
/// let mut g = TimeWeighted::new(SimTime::ZERO, 0.0);
/// g.set(SimTime::from_units(2.0), 10.0); // 0.0 for 2 units
/// g.set(SimTime::from_units(4.0), 0.0);  // 10.0 for 2 units
/// assert_eq!(g.average(SimTime::from_units(4.0)), 5.0);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct TimeWeighted {
    last_change: SimTime,
    current: f64,
    weighted_sum: f64,
    origin: SimTime,
}

impl TimeWeighted {
    /// Starts tracking at `start` with initial value `value`.
    pub fn new(start: SimTime, value: f64) -> Self {
        TimeWeighted {
            last_change: start,
            current: value,
            weighted_sum: 0.0,
            origin: start,
        }
    }

    /// Updates the value at instant `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous update.
    pub fn set(&mut self, now: SimTime, value: f64) {
        assert!(
            now >= self.last_change,
            "TimeWeighted updates must be in time order"
        );
        self.weighted_sum += self.current * now.duration_since(self.last_change).as_units();
        self.last_change = now;
        self.current = value;
    }

    /// Adds `delta` to the current value at instant `now`.
    pub(crate) fn add(&mut self, now: SimTime, delta: f64) {
        let next = self.current + delta;
        self.set(now, next);
    }

    /// The current value.
    pub fn current(&self) -> f64 {
        self.current
    }

    /// Time-average of the value from the start of tracking until `now`.
    /// Returns the current value if no time has elapsed.
    pub fn average(&self, now: SimTime) -> f64 {
        let span = now.duration_since(self.origin).as_units();
        if span <= 0.0 {
            return self.current;
        }
        let tail = self.current * now.duration_since(self.last_change).as_units();
        (self.weighted_sum + tail) / span
    }
}

/// A fixed-bucket log-scale histogram for latency-style observations whose
/// interesting behavior lives in the tail: bucket edges grow geometrically,
/// so relative quantile error is bounded by the growth factor across the
/// whole range instead of degrading at the high end like a uniform layout.
///
/// Buckets with the same `(first_edge, growth, buckets)` shape merge
/// losslessly across actors.
///
/// # Examples
///
/// ```
/// use lems_sim::metrics::LogHistogram;
///
/// let mut h = LogHistogram::latency();
/// for x in [0.3, 1.0, 2.0, 4.0, 250.0] {
///     h.observe(x);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.max(), Some(250.0));
/// assert!(h.quantile(0.5).unwrap() >= 1.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct LogHistogram {
    /// Upper edge of bucket 0; buckets below cover `[0, first_edge)`.
    first_edge: f64,
    /// Ratio between consecutive bucket edges (> 1).
    growth: f64,
    bins: Vec<u64>,
    overflow: u64,
    count: u64,
    sum: f64,
    max: f64,
}

impl LogHistogram {
    /// Creates a log-scale histogram: bucket `i` covers
    /// `[first_edge * growth^(i-1), first_edge * growth^i)` with bucket 0
    /// absorbing everything below `first_edge`.
    ///
    /// # Panics
    ///
    /// Panics if `buckets == 0`, `first_edge` is not positive and finite,
    /// or `growth <= 1`.
    pub(crate) fn new(first_edge: f64, growth: f64, buckets: usize) -> Self {
        assert!(buckets > 0, "log histogram needs at least one bucket");
        assert!(
            first_edge > 0.0 && first_edge.is_finite(),
            "first bucket edge must be positive and finite"
        );
        assert!(
            growth > 1.0 && growth.is_finite(),
            "bucket growth factor must exceed 1"
        );
        LogHistogram {
            first_edge,
            growth,
            bins: vec![0; buckets],
            overflow: 0,
            count: 0,
            sum: 0.0,
            max: 0.0,
        }
    }

    /// The default latency layout: 64 buckets from 0.5 paper-time units
    /// growing by `2^(1/4)` per bucket (≈19% relative quantile error),
    /// covering roughly `[0.5, 32768)` units before overflow.
    pub fn latency() -> Self {
        LogHistogram::new(0.5, std::f64::consts::SQRT_2.sqrt(), 64)
    }

    /// Records one observation. Negative values clamp into bucket 0.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not finite.
    pub fn observe(&mut self, x: f64) {
        assert!(
            x.is_finite(),
            "LogHistogram::observe requires finite values"
        );
        if self.count == 0 || x > self.max {
            self.max = x;
        }
        self.count += 1;
        self.sum += x;
        let idx = self.bucket_of(x);
        if idx < self.bins.len() {
            self.bins[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// The bucket index `x` falls into (may be `bins.len()` = overflow).
    fn bucket_of(&self, x: f64) -> usize {
        if x < self.first_edge {
            return 0;
        }
        // Edge of bucket i is first_edge * growth^i; invert via log.
        let i = ((x / self.first_edge).ln() / self.growth.ln()).floor();
        1 + i as usize
    }

    /// Upper edge of bucket `i`.
    pub fn bucket_edge(&self, i: usize) -> f64 {
        self.first_edge * self.growth.powi(i as i32)
    }

    /// Total observations (including overflow).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Per-bucket counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Mean of all observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Largest observation seen (exact, not bucketed), if any.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Estimates quantile `q` in `[0, 1]`; returns `None` when empty.
    /// Reports the upper edge of the bucket holding the target rank;
    /// overflow observations report as the exact maximum.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.count == 0 {
            return None;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.bins.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(self.bucket_edge(i));
            }
        }
        Some(self.max)
    }

    /// True if `other` has the same bucket layout and can merge losslessly.
    pub(crate) fn same_layout(&self, other: &LogHistogram) -> bool {
        self.bins.len() == other.bins.len()
            && self.first_edge == other.first_edge
            && self.growth == other.growth
    }

    /// Merges another histogram into this one (associative, commutative).
    ///
    /// # Panics
    ///
    /// Panics if the layouts differ (bucket count, first edge or growth).
    pub(crate) fn merge(&mut self, other: &LogHistogram) {
        assert!(
            self.same_layout(other),
            "LogHistogram::merge requires identical bucket layouts"
        );
        if other.count > 0 && (self.count == 0 || other.max > self.max) {
            self.max = other.max;
        }
        for (b, &o) in self.bins.iter_mut().zip(&other.bins) {
            *b += o;
        }
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// Named counters, gauges, and histograms for one actor (or one merged
/// scope).
///
/// # Examples
///
/// ```
/// use lems_sim::metrics::MetricsRegistry;
/// use lems_sim::time::SimTime;
///
/// let mut m = MetricsRegistry::new();
/// m.inc("deposited");
/// m.counter_add("deposited", 2);
/// m.gauge_add(SimTime::from_units(1.0), "storage", 3.0);
/// m.observe("delivery_latency", 4.2);
/// assert_eq!(m.counter("deposited"), 3);
/// assert_eq!(m.counter("never_touched"), 0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: NameTable<u64>,
    gauges: NameTable<TimeWeighted>,
    histograms: NameTable<LogHistogram>,
}

/// A handful of values keyed by metric name, kept sorted by name.
///
/// An actor records under a dozen string literals, millions of times. The
/// same literal is the same pointer, so the hot lookup is a scan for the
/// key's address; only a name not found that way (first touch, a merge, or
/// an equal literal from another crate) is compared as text.
#[derive(Clone, Debug)]
struct NameTable<T>(Vec<(&'static str, T)>);

impl<T> Default for NameTable<T> {
    fn default() -> Self {
        NameTable(Vec::new())
    }
}

impl<T> NameTable<T> {
    fn get(&self, name: &str) -> Option<&T> {
        let i = self.0.binary_search_by(|(k, _)| (*k).cmp(name)).ok()?;
        Some(&self.0[i].1)
    }

    /// The value under `name`, inserted from `init` on first touch.
    fn slot(&mut self, name: &'static str, init: impl FnOnce() -> T) -> &mut T {
        let same_literal = |(k, _): &(&'static str, T)| {
            std::ptr::eq(k.as_ptr(), name.as_ptr()) && k.len() == name.len()
        };
        let i = match self.0.iter().position(same_literal) {
            Some(i) => i,
            None => match self.0.binary_search_by(|(k, _)| (*k).cmp(name)) {
                Ok(i) => i,
                Err(i) => {
                    self.0.insert(i, (name, init()));
                    i
                }
            },
        };
        &mut self.0[i].1
    }

    fn iter(&self) -> impl Iterator<Item = (&'static str, &T)> + '_ {
        self.0.iter().map(|(k, v)| (*k, v))
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Increments counter `name` by one.
    pub fn inc(&mut self, name: &'static str) {
        self.counter_add(name, 1);
    }

    /// Increments counter `name` by `n`.
    pub fn counter_add(&mut self, name: &'static str, n: u64) {
        *self.counters.slot(name, || 0) += n;
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Adds `delta` to gauge `name` at instant `now`, creating it at zero
    /// from `SimTime::ZERO` on first touch. Updates must be in time order
    /// (see [`TimeWeighted::set`]).
    pub fn gauge_add(&mut self, now: SimTime, name: &'static str, delta: f64) {
        self.gauges
            .slot(name, || TimeWeighted::new(SimTime::ZERO, 0.0))
            .add(now, delta);
    }

    /// Sets gauge `name` to `value` at instant `now`, creating it at zero
    /// from `SimTime::ZERO` on first touch.
    pub fn gauge_set(&mut self, now: SimTime, name: &'static str, value: f64) {
        self.gauges
            .slot(name, || TimeWeighted::new(SimTime::ZERO, 0.0))
            .set(now, value);
    }

    /// The gauge named `name`, if it was ever touched.
    pub fn gauge(&self, name: &str) -> Option<&TimeWeighted> {
        self.gauges.get(name)
    }

    /// Records `x` into histogram `name`, creating it with the
    /// [`LogHistogram::latency`] layout on first touch. All histograms in
    /// all registries share that layout, so cross-actor merges are always
    /// compatible.
    pub fn observe(&mut self, name: &'static str, x: f64) {
        self.histograms.slot(name, LogHistogram::latency).observe(x);
    }

    /// The histogram named `name`, if it was ever touched.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms.get(name)
    }

    /// Iterates counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, &v)| (k, v))
    }

    /// Iterates gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, &TimeWeighted)> + '_ {
        self.gauges.iter()
    }

    /// Iterates histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &LogHistogram)> + '_ {
        self.histograms.iter()
    }

    /// Folds `other` into this registry: counters add and histograms merge
    /// bucket-wise. Gauges are *not* merged — a time-weighted average of
    /// one server's storage has no meaning summed with another's — so the
    /// merged registry keeps only its own gauges; read per-scope gauges
    /// from the per-actor registries.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, v) in other.counters() {
            self.counter_add(name, v);
        }
        for (name, h) in other.histograms() {
            self.histograms.slot(name, LogHistogram::latency).merge(h);
        }
    }
}

impl fmt::Display for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} counter(s), {} gauge(s), {} histogram(s)",
            self.counters.0.len(),
            self.gauges.0.len(),
            self.histograms.0.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::default();
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(format!("{c}"), "5");
    }

    #[test]
    fn summary_statistics() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.observe(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn time_weighted_average() {
        let mut g = TimeWeighted::new(SimTime::ZERO, 1.0);
        g.set(SimTime::from_units(1.0), 3.0);
        g.add(SimTime::from_units(3.0), -2.0); // value 1.0 from t=3
                                               // [0,1): 1.0, [1,3): 3.0, [3,5): 1.0 => (1 + 6 + 2)/5 = 1.8
        assert!((g.average(SimTime::from_units(5.0)) - 1.8).abs() < 1e-9);
        assert_eq!(g.current(), 1.0);
    }

    #[test]
    fn time_weighted_empty_span() {
        let g = TimeWeighted::new(SimTime::from_units(2.0), 7.0);
        assert_eq!(g.average(SimTime::from_units(2.0)), 7.0);
    }

    #[test]
    fn summary_variance_exact_on_known_stream() {
        // Population variance of [1..=8] is 5.25; mean 4.5. Welford must
        // reproduce both exactly (small integers are exact in f64).
        let mut s = Summary::new();
        for x in 1..=8 {
            s.observe(f64::from(x));
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 4.5).abs() < 1e-12);
        assert!((s.variance() - 5.25).abs() < 1e-12);
        // Constant stream: variance exactly zero, no drift.
        let mut c = Summary::new();
        for _ in 0..1000 {
            c.observe(3.75);
        }
        assert_eq!(c.mean(), 3.75);
        assert!(c.variance().abs() < 1e-18);
    }

    #[test]
    fn log_histogram_exact_quantiles_and_max() {
        // Powers of two land exactly on bucket boundaries of a growth-2
        // layout: value 2^k falls in the bucket whose upper edge is
        // 2^(k+1).
        let mut h = LogHistogram::new(1.0, 2.0, 12);
        for k in 0..10 {
            h.observe(f64::from(1u32 << k)); // 1, 2, 4, ..., 512
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.max(), Some(512.0));
        // Rank 5 of 10 (q=0.5) is value 16 -> bucket edge 32.
        assert_eq!(h.quantile(0.5), Some(32.0));
        // q=1.0 is the last bucket holding data: value 512 -> edge 1024.
        assert_eq!(h.quantile(1.0), Some(1024.0));
        // Everything below the first edge clamps into bucket 0.
        let mut lo = LogHistogram::new(1.0, 2.0, 4);
        lo.observe(0.0);
        lo.observe(-3.0);
        assert_eq!(lo.bins()[0], 2);
        assert_eq!(lo.quantile(0.5), Some(1.0));
    }

    #[test]
    fn log_histogram_merge_is_associative() {
        let mk = |xs: &[f64]| {
            let mut h = LogHistogram::latency();
            for &x in xs {
                h.observe(x);
            }
            h
        };
        let a = mk(&[0.1, 1.0, 7.0]);
        let b = mk(&[2.0, 2.0, 90.0]);
        let c = mk(&[0.4, 400.0, 1e6]); // 1e6 overflows the latency layout
                                        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left.bins(), right.bins());
        assert_eq!(left.count(), right.count());
        assert_eq!(left.max(), right.max());
        // And both equal observing the whole stream directly.
        let whole = mk(&[0.1, 1.0, 7.0, 2.0, 2.0, 90.0, 0.4, 400.0, 1e6]);
        assert_eq!(left.bins(), whole.bins());
        assert_eq!(left.count(), whole.count());
        assert_eq!(left.max(), whole.max());
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(left.quantile(q), whole.quantile(q), "q={q}");
        }
    }

    proptest! {
        /// Summary mean is always within [min, max].
        #[test]
        fn summary_mean_bounded(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let mut s = Summary::new();
            for &x in &xs {
                s.observe(x);
            }
            prop_assert!(s.mean() >= s.min().unwrap() - 1e-9);
            prop_assert!(s.mean() <= s.max().unwrap() + 1e-9);
            prop_assert!(s.variance() >= -1e-9);
        }
    }

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsRegistry::new();
        m.inc("a");
        m.inc("a");
        m.counter_add("b", 5);
        assert_eq!(m.counter("a"), 2);
        assert_eq!(m.counter("b"), 5);
        assert_eq!(m.counter("c"), 0);
        let names: Vec<_> = m.counters().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    /// The pointer scan is only a shortcut: equal text under two addresses
    /// is one counter, and insertion order never shows in iteration order.
    #[test]
    fn equal_names_at_distinct_addresses_share_one_counter() {
        let heap: &'static str = Box::leak(String::from("polls").into_boxed_str());
        let literal: &'static str = "polls";
        assert!(!std::ptr::eq(heap.as_ptr(), literal.as_ptr()));
        let mut m = MetricsRegistry::new();
        m.inc("zeta");
        m.inc(literal);
        m.inc(heap);
        m.inc("alpha");
        assert_eq!(m.counter("polls"), 2);
        let names: Vec<_> = m.counters().collect();
        assert_eq!(names, vec![("alpha", 1), ("polls", 2), ("zeta", 1)]);
    }

    #[test]
    fn gauges_track_time_average() {
        let mut m = MetricsRegistry::new();
        m.gauge_add(SimTime::from_units(2.0), "storage", 4.0);
        m.gauge_add(SimTime::from_units(4.0), "storage", -4.0);
        let g = m.gauge("storage").expect("gauge was touched");
        // 0 for [0,2), 4 for [2,4), 0 after => average over [0,4) is 2.
        assert!((g.average(SimTime::from_units(4.0)) - 2.0).abs() < 1e-9);
        assert_eq!(g.current(), 0.0);
        assert!(m.gauge("absent").is_none());
    }

    #[test]
    fn merge_adds_counters_and_histograms_but_not_gauges() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.inc("x");
        b.counter_add("x", 9);
        b.inc("y");
        a.observe("lat", 1.0);
        b.observe("lat", 100.0);
        b.gauge_set(SimTime::from_units(1.0), "storage", 7.0);
        a.merge(&b);
        assert_eq!(a.counter("x"), 10);
        assert_eq!(a.counter("y"), 1);
        let h = a.histogram("lat").expect("histogram was touched");
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), Some(100.0));
        assert!(a.gauge("storage").is_none(), "gauges must not merge");
    }

    #[test]
    fn merge_order_does_not_matter() {
        let mk = |vals: &[f64], n: u64| {
            let mut m = MetricsRegistry::new();
            m.counter_add("c", n);
            for &v in vals {
                m.observe("h", v);
            }
            m
        };
        let parts = [mk(&[1.0], 2), mk(&[5.0, 9.0], 3), mk(&[0.2], 7)];
        let mut fwd = MetricsRegistry::new();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = MetricsRegistry::new();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd.counter("c"), rev.counter("c"));
        assert_eq!(
            fwd.histogram("h").map(LogHistogram::bins),
            rev.histogram("h").map(LogHistogram::bins)
        );
    }
}
