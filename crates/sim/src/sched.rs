//! Pluggable event scheduling: FIFO replay, seeded schedule fuzzing, and
//! exhaustive small-scope exploration of same-instant interleavings.
//!
//! The engine's future-event list is totally ordered by `(time, sequence)`,
//! which makes every run deterministic — and means each run exercises
//! exactly *one* of the many message orderings a real distributed system
//! could produce. A [`Scheduler`] intercepts the moments where that order is
//! not forced: whenever two or more events are ready at the same simulated
//! instant, the engine hands the scheduler the candidate list and lets it
//! pick which event fires first.
//!
//! Three strategies are provided:
//!
//! * [`FifoScheduler`] — always picks the lowest sequence number,
//!   byte-identical to the engine's built-in order (and to the engine before
//!   schedulers existed);
//! * [`RandomScheduler`] — a seeded fuzzer that picks uniformly at each
//!   branch point and records its choices as a replayable [`Schedule`];
//! * [`ExploreScheduler`] (driven by [`Explorer`]) — depth-first exhaustive
//!   enumeration of all schedules up to configurable bounds, with a
//!   partial-order reduction that only branches when two ready events
//!   target the *same* actor.
//!
//! ## What counts as a branch point
//!
//! Candidate lists the engine builds already respect FIFO link order: for
//! deliveries, only the oldest undelivered message per ordered `(from, to)`
//! actor pair is eligible ("without error and in sequence", §3.3.1A), so no
//! scheduler can reorder one sender's messages to one receiver. Messages
//! injected from [`ActorId::EXTERNAL`] model independent workload arrivals
//! and are each their own lane.
//!
//! The partial-order reduction then skips candidate sets where every ready
//! event targets a distinct actor: actor handlers touch only their own
//! state, so those events commute and any one order is representative. Only
//! *contended* sets — two or more ready events aimed at the same actor —
//! produce a logged decision. A [`Schedule`] is the list of those decisions,
//! and replaying it through [`ReplayScheduler`] reproduces the run
//! byte-for-byte.
//!
//! The reduction is exact for handlers whose same-instant effects stay
//! local (the rule in this workspace: sends schedule strictly positive
//! delays). A handler that sent to a *third* actor with zero delay could
//! create a same-instant ordering the reduction does not enumerate.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::str::FromStr;

use crate::actor::ActorId;
use crate::queue::EventSeq;
use crate::rng::SimRng;
use crate::time::SimTime;

/// What kind of event a ready candidate is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReadyKind {
    /// A message delivery.
    Deliver,
    /// A timer firing.
    Timer,
    /// A scheduled crash.
    Crash,
    /// A scheduled recovery.
    Recover,
}

/// Summary of one event in the ready set, as shown to a [`Scheduler`].
///
/// Candidates are always presented in ascending sequence order, so index 0
/// is the event the engine would fire under plain FIFO order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ReadyEvent {
    /// The event's position in global scheduling order.
    pub(crate) seq: EventSeq,
    /// The instant the event fires (identical for all candidates).
    pub(crate) at: SimTime,
    /// The kind of event.
    pub(crate) kind: ReadyKind,
    /// The actor the event acts on (delivery destination, timer owner,
    /// crash/recovery subject).
    pub(crate) target: ActorId,
    /// The sender for deliveries; for other kinds, equal to `target`.
    pub(crate) from: ActorId,
}

/// Picks which of several same-instant ready events fires next.
///
/// The engine calls [`Scheduler::choose`] only when the (FIFO-filtered)
/// candidate list has two or more entries; a single ready event always
/// fires directly. Implementations return an index into `candidates`.
pub trait Scheduler {
    /// Returns the index (into `candidates`) of the event to fire next.
    ///
    /// `candidates` is non-empty and sorted by ascending sequence number.
    /// Returning an out-of-range index is a contract violation; the engine
    /// clamps it to the last candidate.
    fn choose(&mut self, candidates: &[ReadyEvent]) -> usize;
}

/// The default strategy: always fire the lowest sequence number.
///
/// Byte-identical to the engine's behaviour with no scheduler installed
/// (and to the pre-scheduler engine): same seed, same trace.
#[derive(Clone, Copy, Debug, Default)]
pub struct FifoScheduler;

impl Scheduler for FifoScheduler {
    fn choose(&mut self, _candidates: &[ReadyEvent]) -> usize {
        0
    }
}

/// A recorded series of branch decisions — one entry per contended choice
/// point, in the order the run reached them.
///
/// Schedules render as a comma-separated choice list (`"0,2,1"`; the empty
/// schedule renders as `"-"`) and parse back from that form, so a
/// counterexample printed by the explorer can be replayed from the command
/// line or pinned in a regression test.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Schedule(pub Vec<u32>);

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return write!(f, "-");
        }
        for (i, c) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

impl FromStr for Schedule {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.is_empty() || s == "-" {
            return Ok(Schedule(Vec::new()));
        }
        s.split(',')
            .map(|p| {
                p.trim()
                    .parse::<u32>()
                    .map_err(|e| format!("bad schedule element {p:?}: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()
            .map(Schedule)
    }
}

/// Splits a candidate set into the partial-order-reduced decision.
///
/// Returns `Forced(i)` when no decision is needed (fire candidate `i`
/// without logging a branch), or `Branch(indices)` with the candidate
/// indices of the first contended group — all ready events aimed at the
/// same actor — to choose among.
enum PorDecision {
    Forced(usize),
    Branch(Vec<usize>),
}

fn por_decision(candidates: &[ReadyEvent]) -> PorDecision {
    // Count how many candidates target each actor.
    let contended = |target: ActorId| candidates.iter().filter(|c| c.target == target).count() > 1;

    // Uncontended events commute with everything at this instant: fire the
    // oldest one first, no branching. (Candidates are in sequence order, so
    // the first uncontended candidate is the oldest.)
    if let Some(i) = candidates.iter().position(|c| !contended(c.target)) {
        return PorDecision::Forced(i);
    }
    // Every candidate's target is contended; order within a group is
    // observable. Branch over the group containing the oldest candidate.
    let group_target = candidates[0].target;
    PorDecision::Branch(
        (0..candidates.len())
            .filter(|&i| candidates[i].target == group_target)
            .collect(),
    )
}

/// Seeded schedule fuzzing: at each contended choice point, picks uniformly
/// among the contended group and records the choice.
///
/// Uses the same partial-order reduction (and therefore the same decision
/// points) as the exhaustive explorer, so a schedule recorded here replays
/// byte-identically through [`ReplayScheduler`]. Because the scheduler is
/// boxed into the engine, the choice log is read back through a
/// [`ScheduleLog`] handle taken before installation.
#[derive(Debug)]
pub struct RandomScheduler {
    rng: SimRng,
    log: Rc<RefCell<Vec<u32>>>,
}

/// Read-side handle onto a [`RandomScheduler`]'s recorded choices.
#[derive(Clone, Debug)]
pub struct ScheduleLog(Rc<RefCell<Vec<u32>>>);

impl ScheduleLog {
    /// The choices recorded so far, as a replayable schedule.
    pub fn schedule(&self) -> Schedule {
        Schedule(self.0.borrow().clone())
    }
}

impl RandomScheduler {
    /// Creates a fuzzer whose choices derive from `seed`.
    pub fn new(seed: u64) -> Self {
        RandomScheduler {
            rng: SimRng::forked(seed, "sched-fuzz"),
            log: Rc::new(RefCell::new(Vec::new())),
        }
    }

    /// A handle that can read the recorded schedule after the scheduler
    /// has been installed into an engine.
    pub fn schedule_log(&self) -> ScheduleLog {
        ScheduleLog(Rc::clone(&self.log))
    }
}

impl Scheduler for RandomScheduler {
    fn choose(&mut self, candidates: &[ReadyEvent]) -> usize {
        match por_decision(candidates) {
            PorDecision::Forced(i) => i,
            PorDecision::Branch(group) => {
                let k = self.rng.index(group.len());
                self.log.borrow_mut().push(k as u32);
                group[k]
            }
        }
    }
}

/// Replays a recorded [`Schedule`]: consumes one recorded choice per
/// contended choice point, then falls back to choice 0 once exhausted.
#[derive(Clone, Debug)]
pub struct ReplayScheduler {
    choices: Vec<u32>,
    cursor: usize,
}

impl ReplayScheduler {
    /// Creates a scheduler replaying `schedule`.
    pub fn new(schedule: Schedule) -> Self {
        ReplayScheduler {
            choices: schedule.0,
            cursor: 0,
        }
    }
}

impl Scheduler for ReplayScheduler {
    fn choose(&mut self, candidates: &[ReadyEvent]) -> usize {
        match por_decision(candidates) {
            PorDecision::Forced(i) => i,
            PorDecision::Branch(group) => {
                let k = self.choices.get(self.cursor).copied().unwrap_or(0) as usize;
                self.cursor += 1;
                group[k.min(group.len() - 1)]
            }
        }
    }
}

/// Bounds on an exhaustive exploration.
#[derive(Clone, Copy, Debug)]
pub struct ExploreBounds {
    /// Maximum number of logged decision points per run; deeper choice
    /// points fall back to choice 0 and mark the exploration truncated.
    pub max_decisions: usize,
    /// Maximum branches explored per decision point; wider groups are
    /// clamped and mark the exploration truncated.
    pub branch_bound: usize,
    /// Maximum number of schedules to run before giving up (marks the
    /// exploration truncated).
    pub max_schedules: u64,
}

impl Default for ExploreBounds {
    fn default() -> Self {
        ExploreBounds {
            max_decisions: 64,
            branch_bound: 8,
            max_schedules: 100_000,
        }
    }
}

/// Shared state between an [`Explorer`] and the [`ExploreScheduler`] it
/// hands to each run.
#[derive(Debug)]
struct ExplorerCore {
    /// Choice prefix the current run must follow; beyond it, choice 0.
    prescribed: Vec<u32>,
    /// `(chosen, arity)` per decision point reached by the current run.
    log: Vec<(u32, u32)>,
    bounds: ExploreBounds,
    truncated: bool,
}

impl ExplorerCore {
    fn choose(&mut self, candidates: &[ReadyEvent]) -> usize {
        match por_decision(candidates) {
            PorDecision::Forced(i) => i,
            PorDecision::Branch(group) => {
                let depth = self.log.len();
                if depth >= self.bounds.max_decisions {
                    // Depth bound reached: stop logging (so the DFS cannot
                    // backtrack into this region) and follow FIFO order.
                    self.truncated = true;
                    return group[0];
                }
                let mut arity = group.len();
                if arity > self.bounds.branch_bound {
                    self.truncated = true;
                    arity = self.bounds.branch_bound;
                }
                let k = self.prescribed.get(depth).copied().unwrap_or(0) as usize;
                let k = k.min(arity - 1);
                self.log.push((k as u32, arity as u32));
                group[k]
            }
        }
    }
}

/// The scheduler handle an [`Explorer`] installs into each run.
#[derive(Debug)]
pub struct ExploreScheduler {
    core: Rc<RefCell<ExplorerCore>>,
}

impl Scheduler for ExploreScheduler {
    fn choose(&mut self, candidates: &[ReadyEvent]) -> usize {
        self.core.borrow_mut().choose(candidates)
    }
}

/// Depth-first exhaustive enumeration of schedules.
///
/// Drive it in a loop: [`Explorer::begin_run`] yields the scheduler for a
/// fresh simulation of the *same* workload, [`Explorer::finish_run`]
/// returns the schedule the run followed, and [`Explorer::advance`]
/// backtracks to the next unexplored branch (returning `false` once the
/// space — within bounds — is exhausted).
///
/// # Examples
///
/// ```
/// use lems_sim::actor::{Actor, ActorId, ActorSim, Ctx};
/// use lems_sim::time::SimDuration;
/// use lems_sim::sched::{Explorer, ExploreBounds};
///
/// struct Sink;
/// impl Actor for Sink {
///     type Msg = u8;
///     fn on_message(&mut self, _f: ActorId, _m: u8, _c: &mut Ctx<'_, u8>) {}
/// }
///
/// let mut ex = Explorer::new(ExploreBounds::default());
/// let mut schedules = 0;
/// loop {
///     let mut sim = ActorSim::new(1);
///     let a = sim.add_actor(Sink);
///     // Three simultaneous external arrivals at one actor: 3! orders.
///     for m in 0..3 {
///         sim.inject(a, m, SimDuration::from_units(1.0));
///     }
///     sim.set_scheduler(Box::new(ex.begin_run()));
///     sim.run_to_quiescence_bounded(1_000);
///     schedules += 1;
///     if !ex.advance() {
///         break;
///     }
/// }
/// assert_eq!(schedules, 6);
/// assert!(!ex.truncated());
/// ```
#[derive(Debug)]
pub struct Explorer {
    core: Rc<RefCell<ExplorerCore>>,
    schedules_run: u64,
}

impl Explorer {
    /// Creates an explorer with the given bounds.
    pub fn new(bounds: ExploreBounds) -> Self {
        Explorer {
            core: Rc::new(RefCell::new(ExplorerCore {
                prescribed: Vec::new(),
                log: Vec::new(),
                bounds,
                truncated: false,
            })),
            schedules_run: 0,
        }
    }

    /// Starts the next run: resets the per-run choice log and returns the
    /// scheduler to install into a freshly built simulation of the same
    /// workload.
    pub fn begin_run(&mut self) -> ExploreScheduler {
        let mut core = self.core.borrow_mut();
        core.log.clear();
        ExploreScheduler {
            core: Rc::clone(&self.core),
        }
    }

    /// The schedule the just-completed run followed (replayable via
    /// [`ReplayScheduler`]).
    pub fn finish_run(&self) -> Schedule {
        Schedule(self.core.borrow().log.iter().map(|&(c, _)| c).collect())
    }

    /// Backtracks to the next unexplored schedule. Returns `false` when the
    /// bounded space is exhausted (the driving loop should stop).
    pub fn advance(&mut self) -> bool {
        self.schedules_run += 1;
        let mut core = self.core.borrow_mut();
        if self.schedules_run >= core.bounds.max_schedules {
            core.truncated = true;
            return false;
        }
        // Deepest decision point with an unexplored sibling branch.
        let log = std::mem::take(&mut core.log);
        for i in (0..log.len()).rev() {
            let (chosen, arity) = log[i];
            if chosen + 1 < arity {
                core.prescribed = log[..i].iter().map(|&(c, _)| c).collect();
                core.prescribed.push(chosen + 1);
                return true;
            }
        }
        false
    }

    /// Number of schedules completed so far.
    pub fn schedules_run(&self) -> u64 {
        self.schedules_run
    }

    /// True when any bound clipped the exploration: results are a
    /// best-effort sample, not an exhaustive proof.
    pub fn truncated(&self) -> bool {
        self.core.borrow().truncated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(seq: u64, target: usize) -> ReadyEvent {
        ReadyEvent {
            seq: EventSeq(seq),
            at: SimTime::from_units(1.0),
            kind: ReadyKind::Deliver,
            target: ActorId(target),
            from: ActorId::EXTERNAL,
        }
    }

    #[test]
    fn fifo_scheduler_always_picks_head() {
        let mut s = FifoScheduler;
        assert_eq!(s.choose(&[cand(0, 1), cand(1, 1), cand(2, 2)]), 0);
    }

    #[test]
    fn por_forces_uncontended_candidates() {
        // Targets 1,2,3 all distinct: forced, oldest first.
        match por_decision(&[cand(0, 1), cand(1, 2), cand(2, 3)]) {
            PorDecision::Forced(i) => assert_eq!(i, 0),
            PorDecision::Branch(_) => panic!("expected forced"),
        }
        // Target 2 contended, target 9 not: the uncontended one is forced
        // first even though it is younger.
        match por_decision(&[cand(0, 2), cand(1, 2), cand(2, 9)]) {
            PorDecision::Forced(i) => assert_eq!(i, 2),
            PorDecision::Branch(_) => panic!("expected forced"),
        }
    }

    #[test]
    fn por_branches_on_first_contended_group() {
        match por_decision(&[cand(0, 5), cand(1, 7), cand(2, 5), cand(3, 7)]) {
            PorDecision::Branch(g) => assert_eq!(g, vec![0, 2]),
            PorDecision::Forced(_) => panic!("expected branch"),
        }
    }

    #[test]
    fn schedule_round_trips_through_display() {
        let s = Schedule(vec![0, 2, 1]);
        assert_eq!(s.to_string(), "0,2,1");
        assert_eq!("0,2,1".parse::<Schedule>().unwrap(), s);
        assert_eq!(Schedule::default().to_string(), "-");
        assert_eq!("-".parse::<Schedule>().unwrap(), Schedule::default());
        assert!(" 1, x ".parse::<Schedule>().is_err());
    }

    #[test]
    fn explorer_enumerates_a_two_way_branch_twice() {
        let mut ex = Explorer::new(ExploreBounds::default());
        let mut seen = Vec::new();
        loop {
            let mut s = ex.begin_run();
            // One decision point with two contended candidates.
            let pick = s.choose(&[cand(0, 1), cand(1, 1)]);
            seen.push(pick);
            if !ex.advance() {
                break;
            }
        }
        assert_eq!(seen, vec![0, 1]);
        assert_eq!(ex.schedules_run(), 2);
        assert!(!ex.truncated());
    }

    #[test]
    fn branch_bound_truncates() {
        let mut ex = Explorer::new(ExploreBounds {
            branch_bound: 2,
            ..ExploreBounds::default()
        });
        let cands: Vec<ReadyEvent> = (0..4).map(|s| cand(s, 1)).collect();
        let mut count = 0;
        loop {
            let mut s = ex.begin_run();
            let _ = s.choose(&cands);
            count += 1;
            if !ex.advance() {
                break;
            }
        }
        assert_eq!(count, 2, "clamped to branch_bound");
        assert!(ex.truncated());
    }

    #[test]
    fn replay_follows_recorded_choices() {
        let mut r = ReplayScheduler::new(Schedule(vec![1]));
        let picked = r.choose(&[cand(0, 1), cand(1, 1)]);
        assert_eq!(picked, 1);
        // Exhausted: falls back to choice 0.
        assert_eq!(r.choose(&[cand(2, 1), cand(3, 1)]), 0);
    }
}
