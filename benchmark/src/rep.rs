//! What one repetition of a workload hands back, and the helpers the
//! workload modules share.

use std::collections::BTreeMap;

/// One set-up-and-run of a workload.
#[derive(Default)]
pub struct Rep {
    /// Host-time measurements (seconds, ns, ratios of them): differ run to run.
    pub wall: BTreeMap<&'static str, f64>,
    /// Simulated-time results and counts: a pure function of the seed.
    pub exact: BTreeMap<&'static str, f64>,
    /// Operations completed (messages retrieved, searches answered in full).
    pub ops: u64,
    /// Operations attempted (messages submitted, searches issued).
    pub attempted: u64,
    /// FNV-1a over `ops`, `attempted` and every entry of `exact` that both
    /// traced and untraced runs produce.
    pub digest: u64,
    /// Wall seconds of the slices the set-up phase and the run phase were
    /// timed in, in the order they ran. A slice is the same work in every
    /// repetition of a seed (a set-up call, a stretch of the event list cut
    /// at fixed simulated instants, one search), so slice k of one repetition
    /// compares with slice k of another: see [`fastest_sum`].
    pub setup_slices: Vec<f64>,
    pub run_slices: Vec<f64>,
    /// Output checks that did not hold; empty means correct.
    pub failures: Vec<String>,
    pub notes: Vec<String>,
}

impl Rep {
    /// Seals the digest over everything recorded in `exact` so far. Called
    /// before any trace-only entry is added, so traced and untraced runs of
    /// one seed must agree.
    pub fn seal_digest(&mut self) {
        let mut h = Fnv::new();
        h.eat(&self.ops.to_le_bytes());
        h.eat(&self.attempted.to_le_bytes());
        for (name, value) in &self.exact {
            h.eat(name.as_bytes());
            h.eat(&value.to_bits().to_le_bytes());
        }
        self.digest = h.0;
    }

    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.failures.push(what());
        }
    }
}

pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// A phase's time over several repetitions: for each slice the fastest
/// repetition, summed over the slices. `None` when the repetitions were not
/// cut into the same slices.
///
/// Interference on a shared machine only ever slows a slice down — on the
/// sandbox this was written on a neighbour halves the speed for 0.3–1 s at a
/// time, up to 40 % of the time — so the fastest of a few repetitions of a
/// 30 ms slice is the one that timed the program. A median over whole
/// 2-second repetitions, each a mixture of clean and slowed stretches,
/// spread by 10–20 % between runs of the same binary.
pub fn fastest_sum<'a>(mut reps: impl Iterator<Item = &'a [f64]>) -> Option<f64> {
    let mut fastest = reps.next()?.to_vec();
    for slices in reps {
        if slices.len() != fastest.len() {
            return None;
        }
        for (best, &t) in fastest.iter_mut().zip(slices) {
            *best = best.min(t);
        }
    }
    Some(fastest.iter().sum())
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Nearest-rank quantile of an unsorted sample; 0 for an empty one.
pub fn quantile<T: Copy + PartialOrd + Into<f64>>(values: &mut [T], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are finite"));
    let rank = (q * values.len() as f64).ceil().max(1.0) as usize;
    values[rank.min(values.len()) - 1].into()
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are finite"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}
