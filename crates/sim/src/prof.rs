//! A deterministic kernel profiler: dispatch attribution and queue health
//! — zero-cost when off.
//!
//! The profiler answers the sizing questions of the paper's §3–§4 (which
//! actor kinds consume the simulated capacity, how deep does the event
//! queue run) for *our* kernel: per-(actor-kind, event-kind) dispatch
//! counts with sim-time busy attribution, periodic event-queue depth
//! samples, calendar-queue structure snapshots (bucket ring, front,
//! overflow, resizes), and event-pool hit/miss/grow counters.
//!
//! # Determinism
//!
//! Everything exported through [`Prof::samples`] is a pure function of sim
//! time and event counts: enabling the profiler changes **no** output byte
//! of a run — trace digests, span logs, and metrics are identical with
//! profiling on or off (pinned by `crates/sim/tests/prof_digest.rs`).
//!
//! *Busy attribution* charges each dispatched event the sim-time advance
//! it caused: when the clock moves from `t0` to `t1` to fire an event,
//! that event's (actor-kind, event-kind) cell absorbs `t1 - t0` ticks.
//! Same-instant followers absorb zero. Summed over a run this decomposes
//! total simulated time across the actor kinds that consumed it.
//!
//! Wall-clock readings live in a separate [`Wall`] side channel lapped
//! around the run loops — two `Instant` reads per run call, never per
//! event. The side channel is deliberately *not* part of
//! [`Prof::samples`]: nothing wall-clock-derived can reach a deterministic
//! artifact. This module is the single vetted wall-clock site in the
//! crate: the `Instant` ban of `crates/sim/clippy.toml` is waived here
//! and nowhere else.

#![expect(
    clippy::disallowed_types,
    reason = "`Wall` laps whole run calls and never enters `Prof::samples` \
              (tests/prof_digest.rs pins digests identical with profiling on and off)"
)]

use crate::queue::QueueStats;
use crate::time::SimTime;

/// The event classes the profiler attributes dispatches to.
///
/// These mirror the kernel's dispatch dispositions (the arms of
/// `ActorSim::step`): every processed event lands in exactly one class.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum ProfEvent {
    /// A message reached a live actor's `on_message`.
    Deliver,
    /// A message was dropped because its destination was down.
    DropDown,
    /// A message was dropped because its destination was never registered.
    DropUnknown,
    /// A timer fired and reached a live actor's `on_timer`.
    TimerFired,
    /// A timer was suppressed (cancelled, unknown target, or target down).
    TimerSuppressed,
    /// A crash event was applied.
    Crash,
    /// A recovery event was applied.
    Recover,
}

impl ProfEvent {
    /// Every event class, in [`Ord`] (declaration) order — the iteration
    /// order of [`Prof::samples`]' dispatch cells within one actor kind.
    const ALL: [ProfEvent; EVENT_CLASSES] = [
        ProfEvent::Deliver,
        ProfEvent::DropDown,
        ProfEvent::DropUnknown,
        ProfEvent::TimerFired,
        ProfEvent::TimerSuppressed,
        ProfEvent::Crash,
        ProfEvent::Recover,
    ];

    /// Stable label used in exported sample names.
    pub fn name(self) -> &'static str {
        match self {
            ProfEvent::Deliver => "deliver",
            ProfEvent::DropDown => "drop-down",
            ProfEvent::DropUnknown => "drop-unknown",
            ProfEvent::TimerFired => "timer",
            ProfEvent::TimerSuppressed => "timer-suppressed",
            ProfEvent::Crash => "crash",
            ProfEvent::Recover => "recover",
        }
    }
}

impl std::fmt::Display for ProfEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Actor-kind label used when an event targets an unregistered id.
const UNKNOWN_KIND: &str = "unknown";

/// Number of [`ProfEvent`] classes; sizes one actor kind's row in the
/// flat dispatch-cell table.
const EVENT_CLASSES: usize = 7;

/// How many dispatches between queue-depth samples.
///
/// Depth sampling keyed to the dispatch count (not to sim time) keeps the
/// sample schedule deterministic and the memory bound proportional to
/// events processed, independent of the simulated clock's scale.
const SAMPLE_EVERY: u64 = 1024;

#[derive(Clone, Copy, Default, Debug)]
struct Cell {
    count: u64,
    busy_ticks: u64,
}

/// One deterministic profiler sample, ready for export.
///
/// Samples come in three scopes:
///
/// * `"dispatch"` — one per (actor-kind, event-kind) cell; `name` is
///   `"{kind}/{event}"`, `count` the dispatch count, `ticks` the sim-time
///   busy attribution.
/// * `"pool"` — event-pool counters (`hits`, `misses`, `grows`, `live`,
///   `capacity`).
/// * `"queue"` — calendar-queue aggregates (`depth`, `front`,
///   `in-buckets`, `overflow`, `buckets`, `resizes`) and the depth
///   timeline (`name == "depth-sample"`, one per 1024
///   dispatches, `at` carrying the sample instant).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ProfSample {
    /// Which subsystem the sample describes.
    pub scope: &'static str,
    /// Stable metric name within the scope.
    pub name: String,
    /// Sim time the sample refers to (`SimTime::ZERO` for run aggregates).
    pub at: SimTime,
    /// Primary value: a count or a level.
    pub count: u64,
    /// Sim-time ticks attributed to the sample (0 where not applicable).
    pub ticks: u64,
}

/// Wall-clock side channel: total real time spent inside profiled run
/// loops.
///
/// This is the **only** wall-clock reader in `lems-sim`, and its readings
/// never enter [`Prof::samples`] — they surface separately (e.g. as bench
/// report notes) so deterministic artifacts stay pure functions of the
/// seed. Laps wrap whole run calls, not events, so the cost is two
/// `Instant` reads per `run_*` invocation.
#[derive(Default, Debug)]
pub struct Wall {
    nanos: u128,
    started: Option<std::time::Instant>,
}

impl Wall {
    fn start(&mut self) {
        if self.started.is_none() {
            self.started = Some(std::time::Instant::now());
        }
    }

    fn stop(&mut self) {
        if let Some(s) = self.started.take() {
            self.nanos += s.elapsed().as_nanos();
        }
    }

    /// Total nanoseconds accumulated across completed laps.
    pub fn nanos(&self) -> u128 {
        self.nanos
    }
}

/// The kernel profiler. Owned by the engine core; disabled (and free
/// beyond one branch per event) until `enable_prof` is called on the
/// engine.
///
/// # Examples
///
/// ```
/// use lems_sim::actor::{Actor, ActorId, ActorSim, Ctx};
/// use lems_sim::time::SimDuration;
///
/// struct Echo;
/// impl Actor for Echo {
///     type Msg = ();
///     fn on_message(&mut self, _f: ActorId, _m: (), _c: &mut Ctx<'_, ()>) {}
///     fn kind(&self) -> &'static str { "echo" }
/// }
///
/// let mut sim = ActorSim::new(1);
/// let a = sim.add_actor(Echo);
/// sim.enable_prof();
/// sim.inject(a, (), SimDuration::from_units(1.0));
/// sim.run_to_quiescence();
/// let samples = sim.profile_samples();
/// assert!(samples
///     .iter()
///     .any(|s| s.scope == "dispatch" && s.name == "echo/deliver" && s.count == 1));
/// ```
#[derive(Default, Debug)]
pub struct Prof {
    enabled: bool,
    /// Deduplicated actor-kind labels; slot 0 is [`UNKNOWN_KIND`]. One
    /// row of [`EVENT_CLASSES`] cells per slot in `cells`.
    kind_names: Vec<&'static str>,
    /// Actor id -> slot in `kind_names`; registered at `add_actor`
    /// regardless of the enabled flag so late `enable_prof` calls still
    /// attribute correctly.
    kind_slots: Vec<usize>,
    /// Flat dispatch-cell table, indexed `slot * EVENT_CLASSES + event`.
    /// A dense array lookup keeps the per-dispatch hook to a couple of
    /// adds — no string compares, no tree walk — which is what holds the
    /// profiler inside its gated 5% overhead budget.
    cells: Vec<Cell>,
    last_now: SimTime,
    dispatches: u64,
    queue_samples: Vec<(SimTime, u64)>,
    wall: Wall,
}

impl Prof {
    /// True once profiling has been switched on.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    pub(crate) fn enable(&mut self) {
        self.enabled = true;
        self.ensure_unknown_slot();
    }

    /// Guarantees slot 0 ([`UNKNOWN_KIND`]) and its cell row exist, so
    /// the dispatch hook can index unconditionally.
    fn ensure_unknown_slot(&mut self) {
        if self.kind_names.is_empty() {
            self.kind_names.push(UNKNOWN_KIND);
            self.cells.resize(EVENT_CLASSES, Cell::default());
        }
    }

    pub(crate) fn register_kind(&mut self, kind: &'static str) {
        self.ensure_unknown_slot();
        let slot = self
            .kind_names
            .iter()
            .position(|&k| k == kind)
            .unwrap_or_else(|| {
                self.kind_names.push(kind);
                self.cells
                    .resize(self.kind_names.len() * EVENT_CLASSES, Cell::default());
                self.kind_names.len() - 1
            });
        self.kind_slots.push(slot);
    }

    /// Records one dispatched event: bumps the (actor-kind, event-kind)
    /// cell, charges it the sim-time advance since the previous dispatch,
    /// and samples the queue depth every [`SAMPLE_EVERY`] dispatches.
    ///
    /// Callers guard on [`Prof::is_enabled`]; the hook is a no-op when
    /// profiling is off.
    pub(crate) fn dispatch(&mut self, actor_idx: usize, ev: ProfEvent, now: SimTime, depth: u64) {
        if !self.enabled {
            return;
        }
        let slot = self.kind_slots.get(actor_idx).copied().unwrap_or(0);
        let delta = now.as_ticks().saturating_sub(self.last_now.as_ticks());
        self.last_now = now;
        let cell = &mut self.cells[slot * EVENT_CLASSES + ev as usize];
        cell.count += 1;
        cell.busy_ticks += delta;
        self.dispatches += 1;
        if self.dispatches.is_multiple_of(SAMPLE_EVERY) {
            self.queue_samples.push((now, depth));
        }
    }

    pub(crate) fn wall_start(&mut self) {
        if self.enabled {
            self.wall.start();
        }
    }

    pub(crate) fn wall_stop(&mut self) {
        if self.enabled {
            self.wall.stop();
        }
    }

    /// Total events the profiler has attributed.
    pub fn dispatches(&self) -> u64 {
        self.dispatches
    }

    /// Wall-clock nanoseconds spent inside profiled run loops — the
    /// non-deterministic side channel, surfaced separately from
    /// [`Prof::samples`] by design.
    pub fn wall_nanos(&self) -> u128 {
        self.wall.nanos()
    }

    /// Renders the profiler state as a deterministic, ordered sample list:
    /// dispatch cells (sorted by kind then event), pool counters, queue
    /// aggregates, and the depth timeline. `queue` supplies the owning
    /// engine's current queue structure snapshot.
    ///
    /// Empty when profiling is disabled.
    pub fn samples(&self, queue: QueueStats) -> Vec<ProfSample> {
        if !self.enabled {
            return Vec::new();
        }
        let agg = |name: &str, count: u64| ProfSample {
            scope: "queue",
            name: name.to_owned(),
            at: SimTime::ZERO,
            count,
            ticks: 0,
        };
        let pool = |name: &str, count: u64| ProfSample {
            scope: "pool",
            name: name.to_owned(),
            at: SimTime::ZERO,
            count,
            ticks: 0,
        };
        // Render touched cells sorted by (kind label, event class) — the
        // order the old tree-keyed table exported, kept stable for the
        // golden dumps.
        let mut touched: Vec<(&'static str, ProfEvent, Cell)> = Vec::new();
        for (slot, &kind) in self.kind_names.iter().enumerate() {
            for ev in ProfEvent::ALL {
                let cell = self.cells[slot * EVENT_CLASSES + ev as usize];
                if cell.count > 0 {
                    touched.push((kind, ev, cell));
                }
            }
        }
        touched.sort_by_key(|&(kind, ev, _)| (kind, ev));
        let mut out = Vec::with_capacity(touched.len() + self.queue_samples.len() + 16);
        for (kind, ev, cell) in touched {
            out.push(ProfSample {
                scope: "dispatch",
                name: format!("{kind}/{ev}"),
                at: SimTime::ZERO,
                count: cell.count,
                ticks: cell.busy_ticks,
            });
        }
        out.push(pool("hits", queue.pool_hits));
        out.push(pool("misses", queue.pool_misses));
        out.push(pool("grows", queue.pool_grows));
        out.push(pool("live", queue.pool_live as u64));
        out.push(pool("capacity", queue.pool_capacity as u64));
        out.push(agg("depth", queue.depth as u64));
        out.push(agg("front", queue.front as u64));
        out.push(agg("in-buckets", queue.in_buckets as u64));
        out.push(agg("overflow", queue.overflow as u64));
        out.push(agg("buckets", queue.buckets as u64));
        out.push(agg("resizes", queue.resizes));
        for &(at, depth) in &self.queue_samples {
            out.push(ProfSample {
                scope: "queue",
                name: "depth-sample".to_owned(),
                at,
                count: depth,
                ticks: 0,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_prof_records_nothing() {
        let mut p = Prof::default();
        p.register_kind("a");
        p.dispatch(0, ProfEvent::Deliver, SimTime::from_ticks(5), 1);
        assert_eq!(p.dispatches(), 0);
        assert!(p.samples(QueueStats::default()).is_empty());
        assert_eq!(p.wall_nanos(), 0);
    }

    #[test]
    fn busy_attribution_charges_time_advances() {
        let mut p = Prof::default();
        p.register_kind("server");
        p.register_kind("host");
        p.enable();
        // Clock advances 10 ticks to fire the first event, then a
        // same-instant follower, then 5 more ticks.
        p.dispatch(0, ProfEvent::Deliver, SimTime::from_ticks(10), 4);
        p.dispatch(1, ProfEvent::Deliver, SimTime::from_ticks(10), 3);
        p.dispatch(0, ProfEvent::TimerFired, SimTime::from_ticks(15), 2);
        let samples = p.samples(QueueStats::default());
        let cell = |name: &str| {
            samples
                .iter()
                .find(|s| s.scope == "dispatch" && s.name == name)
                .expect("cell present")
        };
        assert_eq!(cell("server/deliver").count, 1);
        assert_eq!(cell("server/deliver").ticks, 10);
        assert_eq!(cell("host/deliver").ticks, 0, "same-instant follower");
        assert_eq!(cell("server/timer").ticks, 5);
        assert_eq!(p.dispatches(), 3);
    }

    #[test]
    fn unknown_actor_indices_fall_back_to_unknown_kind() {
        let mut p = Prof::default();
        p.enable();
        p.dispatch(999, ProfEvent::DropUnknown, SimTime::from_ticks(1), 0);
        let samples = p.samples(QueueStats::default());
        assert!(samples
            .iter()
            .any(|s| s.name == "unknown/drop-unknown" && s.count == 1));
    }

    #[test]
    fn depth_samples_land_on_the_sampling_grid() {
        let mut p = Prof::default();
        p.register_kind("a");
        p.enable();
        for i in 0..(SAMPLE_EVERY * 2 + 10) {
            p.dispatch(0, ProfEvent::Deliver, SimTime::from_ticks(i), i % 7);
        }
        let samples = p.samples(QueueStats::default());
        let depth_samples: Vec<&ProfSample> = samples
            .iter()
            .filter(|s| s.name == "depth-sample")
            .collect();
        assert_eq!(depth_samples.len(), 2);
        assert_eq!(depth_samples[0].at, SimTime::from_ticks(SAMPLE_EVERY - 1));
    }

    #[test]
    fn wall_side_channel_accumulates_only_when_enabled() {
        let mut p = Prof::default();
        p.wall_start();
        p.wall_stop();
        assert_eq!(p.wall_nanos(), 0, "disabled prof must not read the clock");
        p.enable();
        p.wall_start();
        std::thread::sleep(std::time::Duration::from_millis(1));
        p.wall_stop();
        assert!(p.wall_nanos() > 0);
    }
}
