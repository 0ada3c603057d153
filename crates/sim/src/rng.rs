//! Deterministic, forkable random number generation.
//!
//! Every stochastic element of a simulation (workload arrivals, failure
//! times, topology generation) draws from a [`SimRng`] derived from a single
//! run seed, so that a run is exactly reproducible from its seed alone.
//! Independent subsystems *fork* their own streams by label, which keeps the
//! streams decoupled: adding draws in one subsystem does not perturb another.

use std::cell::Cell;

use rand::distributions::uniform::{SampleRange, SampleUniform};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::time::SimDuration;

/// A deterministic random stream.
///
/// # Examples
///
/// ```
/// use lems_sim::rng::SimRng;
///
/// let mut a = SimRng::seed(42).fork("workload");
/// let mut b = SimRng::seed(42).fork("workload");
/// assert_eq!(a.range(0..100u32), b.range(0..100u32));
///
/// // Different labels give decoupled streams.
/// let mut c = SimRng::seed(42).fork("failures");
/// let _ = c.range(0..100u32); // does not affect `a`/`b`
/// ```
#[derive(Clone, Debug)]
pub struct SimRng {
    inner: StdRng,
    seed: u64,
}

impl SimRng {
    /// Creates the root stream for a run from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
            seed,
        }
    }

    /// The `label` fork of the root stream for `seed` — the only way
    /// sim-driven code outside this module starts a stream, so every RNG
    /// there descends from the seeded fork tree ([`SimRng::seed`] is in
    /// those crates' `clippy.toml` `disallowed-methods`).
    #[expect(clippy::disallowed_methods, reason = "the fork tree's own root")]
    pub fn forked(seed: u64, label: &str) -> Self {
        SimRng::seed(seed).fork(label)
    }

    /// Derives an independent labelled stream.
    ///
    /// Forking does not consume randomness from `self`, so the set of forks
    /// taken from a root is stable regardless of draw order.
    pub fn fork(&self, label: &str) -> SimRng {
        // FNV-1a over the label, mixed with the root seed. Stable across
        // platforms and Rust versions (unlike `DefaultHasher`).
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        let derived = h ^ self.seed.rotate_left(17);
        SimRng {
            inner: StdRng::seed_from_u64(derived),
            seed: derived,
        }
    }

    /// Uniform draw from a range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: SampleRange<T>,
    {
        self.inner.gen_range(range)
    }

    /// A uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.inner.gen::<f64>() < p
        }
    }

    /// Exponentially distributed duration with the given mean.
    ///
    /// Used for Poisson inter-arrival times and failure/repair processes.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not finite and positive.
    pub fn exp_duration(&mut self, mean: SimDuration) -> SimDuration {
        let mean_units = mean.as_units();
        assert!(
            mean_units > 0.0 && mean_units.is_finite(),
            "exponential mean must be positive, got {mean_units}"
        );
        // Inverse-CDF sampling; 1-u avoids ln(0).
        let u: f64 = self.inner.gen();
        let draw = -mean_units * (1.0 - u).ln();
        SimDuration::from_units(draw.min(mean_units * 1e6))
    }

    /// Picks an index in `0..len` (uniform).
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "cannot pick an index from an empty collection");
        self.inner.gen_range(0..len)
    }

    /// Picks a reference to a uniformly random element of a slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.inner.gen_range(0..=i);
            items.swap(i, j);
        }
    }

    /// Samples an index from a discrete distribution proportional to
    /// `weights`.
    ///
    /// Zipf-style recipient popularity in the workload generators is built
    /// on this.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative/non-finite value,
    /// or sums to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total = checked_total(weights);
        scan_from(self.inner.gen::<f64>() * total, weights)
    }

    /// [`SimRng::weighted_index`] over a prepared [`WeightTable`]: the same
    /// single uniform draw and the same answer, found by bisecting the
    /// table's running sums instead of scanning its weights.
    ///
    /// The answer is the scan's bit for bit. The scan sets `x = u·T` and
    /// subtracts `w_0, w_1, …` from it until what is left is below the next
    /// weight; in exact arithmetic it returns the first `i` whose exact
    /// prefix sum `S_i = w_0 + … + w_i` exceeds `x`. The table holds the
    /// running sums `c_i`, added in list order as the total is, and the
    /// bisection finds the first `i` with `c_i > x` (between two marks of
    /// a guide table, so it reads a handful of sums). Every operand and
    /// every partial result of either chain lies in `[0, T]`, so each
    /// rounding errs by at most half an ulp of `T`, which is at most
    /// `ε/2·T` (`ε` = [`f64::EPSILON`]). After `k` subtractions the scan's
    /// remainder is `x − S_{k−1}` to within `k·ε/2·T`, and `c_k` is `S_k`
    /// to within `k·ε/2·T`; the comparison itself is exact. So where `x`
    /// lies more than `i·ε·T` above `c_{i−1}` and below `c_i`, the scan
    /// walks past every earlier weight and stops at `i`. The draw takes
    /// the bisection's `i` only when both gaps, computed in floating
    /// point, exceed `δ_i = 4(i+2)·ε·T`, which also covers the rounding of
    /// the two gaps and of `δ_i` itself. Anywhere else — within `δ_i` of a
    /// boundary, or `x ≥ T` — it runs the scan itself on the same `x`.
    /// Both gaps positive means `c_{i−1} < x < c_i`, so the check holds
    /// however the candidate `i` was found. On a Zipf table of `n` weights
    /// the margins sum to about `4ε·n²` of the unit interval: a scan in
    /// about 10⁻³ of draws at `n` = 10⁶, and fewer below.
    pub fn weighted_draw(&mut self, table: &WeightTable) -> usize {
        table.pick(self.inner.gen::<f64>() * table.total)
    }
}

/// The first index whose weight exceeds what is left of `target` after
/// the weights before it are subtracted in order; the last index if none
/// does.
fn scan_from(mut target: f64, weights: &[f64]) -> usize {
    for (i, &w) in weights.iter().enumerate() {
        if target < w {
            return i;
        }
        target -= w;
    }
    weights.len() - 1
}

/// A weight list validated and summed once, for a caller that draws from
/// it many times ([`SimRng::weighted_draw`]).
#[derive(Clone, Debug)]
pub struct WeightTable {
    weights: Vec<f64>,
    /// `sums[i]` = `weights[0] + … + weights[i]`, added in list order.
    sums: Vec<f64>,
    /// `guide[j]`: the first `i` with `sums[i] > j/n·T`, for `n` weights —
    /// where a target's bisection starts (Chen and Asau's indexed search).
    guide: Vec<u32>,
    /// The last running sum, which is what [`checked_total`] returns.
    total: f64,
    /// Draws that fell back to the scan.
    scans: Cell<u64>,
}

impl WeightTable {
    /// Validates and sums `weights`.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`SimRng::weighted_index`].
    pub fn new(weights: Vec<f64>) -> Self {
        let total = checked_total(&weights);
        let mut sum = 0.0;
        let sums: Vec<f64> = weights
            .iter()
            .map(|&w| {
                sum += w;
                sum
            })
            .collect();
        debug_assert_eq!(sums.last().copied(), Some(total));
        let n = sums.len();
        let mut guide = Vec::with_capacity(n);
        let mut first = 0;
        for j in 0..n {
            let mark = j as f64 / n as f64 * total;
            while first < n && sums[first] <= mark {
                first += 1;
            }
            guide.push(first as u32);
        }
        WeightTable {
            weights,
            sums,
            guide,
            total,
            scans: Cell::new(0),
        }
    }

    /// How many of the draws from this table fell back to the scan.
    pub fn scans(&self) -> u64 {
        self.scans.get()
    }

    /// The scan's answer for the target `x = u·T`: the bisection's where
    /// the running sums settle it, the scan's within the error margin of a
    /// boundary or at `x ≥ T` (see [`SimRng::weighted_draw`]).
    fn pick(&self, x: f64) -> usize {
        // Between the guide marks around `x`; a window that rounding put
        // off by one only costs the scan, as the margin check fails.
        let n = self.sums.len();
        let j = (x / self.total * n as f64) as usize;
        let lo = self.guide.get(j).map_or(n, |&g| g as usize);
        let hi = self.guide.get(j + 1).map_or(n, |&g| n.min(g as usize + 1));
        let i = lo + self.sums[lo..hi].partition_point(|&c| c <= x);
        if let Some(&above) = self.sums.get(i) {
            let below = if i == 0 { 0.0 } else { self.sums[i - 1] };
            let margin = 4.0 * (i + 2) as f64 * f64::EPSILON * self.total;
            if x - below > margin && above - x > margin {
                return i;
            }
        }
        self.scans.set(self.scans.get() + 1);
        scan_from(x, &self.weights)
    }
}

/// The sum of a valid weight list, added in list order.
fn checked_total(weights: &[f64]) -> f64 {
    assert!(
        !weights.is_empty(),
        "weighted_index needs at least one weight"
    );
    let total: f64 = weights
        .iter()
        .map(|&w| {
            assert!(w >= 0.0 && w.is_finite(), "weights must be finite and >= 0");
            w
        })
        .sum();
    assert!(total > 0.0, "weights must not all be zero");
    total
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest);
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed(7);
        let mut b = SimRng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_independent_of_draw_order() {
        let root = SimRng::seed(7);
        let mut f1 = root.fork("a");
        // Draw from the root's clone heavily; fork again — identical stream.
        let mut noisy = root.clone();
        for _ in 0..50 {
            let _ = noisy.next_u64();
        }
        let mut f2 = noisy.fork("a");
        for _ in 0..20 {
            assert_eq!(f1.next_u64(), f2.next_u64());
        }
    }

    #[test]
    fn forks_with_different_labels_differ() {
        let root = SimRng::seed(7);
        let mut a = root.fork("x");
        let mut b = root.fork("y");
        let same = (0..16).all(|_| a.next_u64() == b.next_u64());
        assert!(!same, "labelled forks should diverge");
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed(1);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-3.0));
        assert!(r.chance(42.0));
    }

    #[test]
    fn exp_duration_mean_roughly_correct() {
        let mut r = SimRng::seed(11);
        let mean = SimDuration::from_units(2.0);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| r.exp_duration(mean).as_units()).sum();
        let avg = total / n as f64;
        assert!(
            (avg - 2.0).abs() < 0.1,
            "empirical mean {avg} too far from 2.0"
        );
    }

    #[test]
    fn weighted_index_prefers_heavy_weights() {
        let mut r = SimRng::seed(3);
        let weights = [0.0, 9.0, 1.0];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[r.weighted_index(&weights)] += 1;
        }
        assert_eq!(counts[0], 0);
        assert!(counts[1] > counts[2] * 5);
    }

    /// Targets that probe `table` where the bisection and the scan could
    /// part: on every running sum, on `u = c_k / T` as a draw reaches it,
    /// a few ulps either side of both, and the ends of `[0, T]`.
    fn boundary_targets(table: &WeightTable, every: usize) -> Vec<f64> {
        let total = table.total;
        let mut targets = vec![0.0, total, total.next_down()];
        for &c in table.sums.iter().step_by(every) {
            for x in [c, (c / total) * total] {
                let (mut down, mut up) = (x, x);
                targets.push(x);
                for _ in 0..3 {
                    down = down.next_down();
                    up = up.next_up();
                    targets.extend([down, up]);
                }
            }
        }
        targets.retain(|x| (0.0..=total).contains(x));
        targets
    }

    /// The table's answer for each target, next to the scan's.
    fn assert_picks_as_scan(table: &WeightTable, targets: impl IntoIterator<Item = f64>) {
        for x in targets {
            assert_eq!(
                table.pick(x),
                scan_from(x, &table.weights),
                "x = {x:e} of T = {:e}",
                table.total
            );
        }
    }

    /// A Zipf table of 10⁶ weights over a shuffled popularity order, as
    /// the workload generator builds its largest one: uniform draws and
    /// every ten-thousandth running sum give the scan's answer.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "slow in a debug build; run with --release")]
    fn a_million_weight_zipf_draw_is_the_scan() {
        let n = 1_000_000;
        let mut rng = SimRng::seed(42);
        let mut rank: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut rank);
        let weights = rank.iter().map(|&r| 1.0 / ((r + 1) as f64).powf(0.8));
        let table = WeightTable::new(weights.collect());
        let uniform: Vec<f64> = (0..2_000).map(|_| rng.unit() * table.total).collect();
        assert_picks_as_scan(&table, uniform);
        assert_picks_as_scan(&table, boundary_targets(&table, 10_000));
    }

    proptest::proptest! {
        /// Over weight lists with zeros and magnitudes across sixty orders,
        /// the draw gives the scan's answer at uniform targets and at every
        /// boundary, and `weighted_draw` consumes the stream as
        /// `weighted_index` does.
        #[test]
        fn weighted_draw_is_the_scan(
            raw in proptest::collection::vec((0u8..4, 0.0f64..1.0, -30i32..30), 1..200),
            seed in 0u64..1_000,
        ) {
            let mut weights: Vec<f64> = raw
                .iter()
                .map(|&(kind, m, e)| if kind == 0 { 0.0 } else { m * 10f64.powi(e) })
                .collect();
            weights.push(1.0);
            let table = WeightTable::new(weights.clone());
            let mut rng = SimRng::seed(seed);
            let uniform: Vec<f64> = (0..64).map(|_| rng.unit() * table.total).collect();
            assert_picks_as_scan(&table, uniform);
            assert_picks_as_scan(&table, boundary_targets(&table, 1));
            let (mut a, mut b) = (SimRng::seed(seed), SimRng::seed(seed));
            for _ in 0..16 {
                proptest::prop_assert_eq!(a.weighted_draw(&table), b.weighted_index(&weights));
            }
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::seed(5);
        let mut v: Vec<u32> = (0..64).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn index_empty_panics() {
        SimRng::seed(0).index(0);
    }
}
