//! A deterministic actor layer over the future-event list.
//!
//! Mail servers, hosts, and user interfaces are modelled as *actors*: state
//! machines that react to messages and timers. The engine delivers messages
//! after caller-chosen delays (the network substrate in `lems-net` computes
//! those delays from topology), fires timers, and injects crash/recovery
//! events from a [failure plan](crate::failure).
//!
//! Delivery semantics match the model assumed by the paper's §3.3.1A (and by
//! Gallager's MST algorithm): messages travel independently in both
//! directions on an edge and arrive after an unpredictable but finite delay,
//! *without error and in sequence*. In-sequence (FIFO) delivery per ordered
//! actor pair is always enforced: a send is clamped to arrive no earlier
//! than the previous send on the same pair, and a [`Scheduler`] only ever
//! sees the oldest pending message of each pair.

use std::collections::BTreeSet;
use std::hash::{BuildHasherDefault, Hasher};

use crate::linkfault::LinkFaultPlan;
use crate::metrics::Counter;
use crate::pool::Handle;
use crate::prof::{Prof, ProfEvent, ProfSample};
use crate::queue::{EventQueue, EventSeq, QueueStats};
use crate::rng::SimRng;
use crate::sched::{ReadyEvent, ReadyKind, Scheduler};
use crate::time::{SimDuration, SimTime};
use crate::trace::{Trace, TraceKind};

/// Identifies an actor within one [`ActorSim`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ActorId(pub usize);

impl ActorId {
    /// Pseudo-sender used for messages injected from outside the simulation
    /// (workload generators, test drivers).
    pub const EXTERNAL: ActorId = ActorId(usize::MAX);
}

impl std::fmt::Display for ActorId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if *self == ActorId::EXTERNAL {
            write!(f, "ext")
        } else {
            write!(f, "a{}", self.0)
        }
    }
}

/// Handle to a pending timer, used to remove it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TimerId {
    /// Arming order; unique per engine, so a stale id never matches.
    seq: u64,
    /// Where the pending timer event sits in the queue's payload pool.
    /// Generation-checked: dead once the timer has popped, even if the
    /// slot has been recycled since.
    slot: Handle,
}

/// A simulated node: reacts to messages and timers via `&mut self`.
///
/// All methods receive a [`Ctx`] for reading the clock, sending messages,
/// and managing timers. Handlers run only while the actor is up; messages
/// and timers addressed to a crashed actor are silently dropped (and
/// counted), mirroring a failed mail server.
pub trait Actor: std::any::Any {
    /// The message type exchanged in this simulation.
    type Msg;

    /// Invoked once when the simulation starts (or when the actor is added
    /// to an already-running simulation).
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        let _ = ctx;
    }

    /// Invoked for each delivered message.
    fn on_message(&mut self, from: ActorId, msg: Self::Msg, ctx: &mut Ctx<'_, Self::Msg>);

    /// Invoked when a timer set via [`Ctx::set_timer`] or
    /// [`Ctx::set_timer_at`] fires; `id` is the one arming returned.
    fn on_timer(&mut self, id: TimerId, ctx: &mut Ctx<'_, Self::Msg>) {
        let _ = (id, ctx);
    }

    /// Invoked at the instant the actor crashes, before it stops receiving
    /// events. Implementations typically discard volatile state here while
    /// keeping "stable storage" fields intact.
    fn on_crash(&mut self, now: SimTime) {
        let _ = now;
    }

    /// Invoked when the actor recovers. Timers that came due while the
    /// actor was down were suppressed; later ones still fire. This is the
    /// place to re-arm the former.
    fn on_recover(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        let _ = ctx;
    }

    /// A short static label grouping actors of the same role, used by the
    /// kernel profiler ([`prof`](crate::prof)) for per-(kind, event)
    /// dispatch attribution. Defaults to `"actor"`; override it for
    /// deployments mixing roles (servers, hosts, workload drivers).
    fn kind(&self) -> &'static str {
        "actor"
    }
}

enum Ev<M> {
    Deliver { from: ActorId, to: ActorId, msg: M },
    Timer { actor: ActorId, id: TimerId },
    Crash { actor: ActorId },
    Recover { actor: ActorId },
}

/// Hasher for the `(from, to)` FIFO-clamp table: one multiply-xor round per
/// actor index. The keys are dense engine-assigned ids, never outside
/// input, and the table is never iterated, so neither SipHash's collision
/// resistance nor a stable iteration order is needed.
#[derive(Default)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_usize(usize::from(b));
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.0 = (self.0.rotate_left(32) ^ n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        // The table indexes by low bits and tags by high bits; fold so
        // both see the whole product.
        self.0 ^ (self.0 >> 32)
    }
}

/// The `(from, to)` FIFO-clamp table — the one hash map in sim-driven code,
/// named in this alias only so its waiver covers nothing else.
#[expect(
    clippy::disallowed_types,
    reason = "one lookup per send (the hottest map on the benchmark ladder), never iterated: \
              hash order cannot reach a simulated result"
)]
type PairClamp =
    std::collections::HashMap<(ActorId, ActorId), SimTime, BuildHasherDefault<PairHasher>>;

/// Counters describing one simulation run.
#[derive(Clone, Debug, Default)]
pub struct SimCounters {
    /// Messages handed to a live actor's `on_message`.
    pub delivered: Counter,
    /// Messages dropped because the destination was down.
    pub dropped_down: Counter,
    /// Messages dropped because the destination id was never registered.
    pub dropped_unknown: Counter,
    /// Messages lost on the wire by the link-fault plan (outage or
    /// probabilistic loss).
    pub dropped_link: Counter,
    /// Extra copies created by link-level duplication.
    pub duplicated: Counter,
    /// Timers that fired and reached a live actor.
    pub timers_fired: Counter,
    /// Timers that came due while their actor was down.
    pub timers_suppressed: Counter,
    /// Crash events applied.
    pub crashes: Counter,
    /// Recovery events applied.
    pub recoveries: Counter,
}

/// Engine internals shared with handlers through [`Ctx`].
struct Core<M> {
    now: SimTime,
    queue: EventQueue<Ev<M>>,
    down: Vec<bool>,
    next_timer: u64,
    /// Latest arrival scheduled per ordered `(from, to)` pair — the FIFO
    /// clamp. Looked up once per send and never iterated.
    last_arrival: PairClamp,
    counters: SimCounters,
    trace: Trace,
    rng: SimRng,
    link_faults: Option<LinkFaultPlan>,
    fault_rng: SimRng,
    scheduler: Option<Box<dyn Scheduler>>,
    prof: Prof,
}

impl<M> Core<M> {
    /// Engine state with all defaults, randomness derived from `seed`.
    fn new(seed: u64) -> Self {
        Core {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            down: Vec::new(),
            next_timer: 0,
            last_arrival: PairClamp::default(),
            counters: SimCounters::default(),
            trace: Trace::disabled(),
            rng: SimRng::forked(seed, "actor-sim"),
            link_faults: None,
            // A dedicated stream: enabling faults must not perturb the
            // randomness actors observe via `Ctx::rng`.
            fault_rng: SimRng::forked(seed, "link-faults"),
            scheduler: None,
            prof: Prof::default(),
        }
    }

    /// Queues a message for delivery after `delay` (FIFO clamp + trace).
    fn enqueue(&mut self, from: ActorId, to: ActorId, msg: M, delay: SimDuration) {
        let mut at = self.now + delay;
        // External injections model independent workload arrivals, not a
        // physical link, so they are exempt from FIFO clamping.
        if from != ActorId::EXTERNAL {
            // Clamp so a later send on the same ordered pair never overtakes
            // an earlier one ("without error and in sequence").
            let last = self.last_arrival.entry((from, to)).or_insert(SimTime::ZERO);
            if at < *last {
                at = *last;
            }
            *last = at;
        }
        self.trace.record(at, TraceKind::Send, from, to);
        self.queue.push(at, Ev::Deliver { from, to, msg });
    }

    fn send(&mut self, from: ActorId, to: ActorId, msg: M, delay: SimDuration)
    where
        M: Clone,
    {
        // Link faults apply only to real network hops: external injections
        // (workload arrivals) and self-sends (local processing stages) never
        // traverse a link.
        if let Some(plan) = &self.link_faults {
            if from != ActorId::EXTERNAL && from != to {
                let profile = plan.profile(from, to);
                let stochastic = plan.stochastic_active(self.now);
                let lost = !plan.is_link_up(from, to, self.now)
                    || (stochastic
                        && profile.drop_prob > 0.0
                        && self.fault_rng.chance(profile.drop_prob));
                if lost {
                    // Trace the send and its loss under the same
                    // (from, to, at) key so the conservation law "every send
                    // terminates in exactly one deliver-or-drop" still holds.
                    // The FIFO clamp is not updated: nothing arrives.
                    let at = self.now + delay;
                    self.counters.dropped_link.inc();
                    self.trace.record(at, TraceKind::Send, from, to);
                    self.trace.record(at, TraceKind::LinkDrop, from, to);
                    return;
                }
                let jitter = |rng: &mut SimRng| {
                    if stochastic && !profile.jitter.is_zero() {
                        SimDuration::from_ticks(rng.range(0..=profile.jitter.as_ticks()))
                    } else {
                        SimDuration::ZERO
                    }
                };
                let extra = jitter(&mut self.fault_rng);
                if stochastic && profile.dup_prob > 0.0 && self.fault_rng.chance(profile.dup_prob) {
                    // The duplicate takes its own jitter draw so the two
                    // copies land at distinct instants (FIFO still orders
                    // them per the clamp above).
                    let dup_extra = jitter(&mut self.fault_rng);
                    self.counters.duplicated.inc();
                    self.enqueue(from, to, msg.clone(), delay + dup_extra);
                }
                self.enqueue(from, to, msg, delay + extra);
                return;
            }
        }
        self.enqueue(from, to, msg, delay);
    }

    fn set_timer(&mut self, actor: ActorId, delay: SimDuration) -> TimerId {
        let seq = self.queue.reserve();
        self.set_timer_at(actor, self.now + delay, seq)
    }

    /// Arms `actor`'s timer at `at` under the queue sequence number `seq`.
    fn set_timer_at(&mut self, actor: ActorId, at: SimTime, seq: EventSeq) -> TimerId {
        debug_assert!(at >= self.now, "a timer armed in the past");
        let timer = self.next_timer;
        self.next_timer += 1;
        let slot = self.queue.push_reserved_with(at, seq, |slot| Ev::Timer {
            actor,
            id: TimerId { seq: timer, slot },
        });
        TimerId { seq: timer, slot }
    }

    /// Takes `actor`'s pending timer `id` out of the queue. A fired
    /// timer's handle is dead, so its id reaches nothing.
    fn remove_timer(&mut self, actor: ActorId, id: TimerId) {
        let pending = matches!(
            self.queue.get(id.slot),
            Some(Ev::Timer { actor: owner, id: pending }) if *owner == actor && *pending == id
        );
        if pending {
            self.queue.remove_handle(id.slot);
        }
    }

    /// Removes and returns the next event to fire.
    ///
    /// Without a scheduler this is a plain pop (lowest `(time, seq)`). With
    /// one installed, the ready set — every event at the earliest pending
    /// instant — is summarised into candidates and the scheduler picks.
    /// FIFO link order is enforced *before* the scheduler sees anything:
    /// for deliveries on a real link, only the oldest pending message per
    /// ordered `(from, to)` pair is a candidate, so no schedule can violate
    /// the in-sequence delivery assumption. External injections model
    /// independent arrivals and are each freely orderable.
    fn pop_next(&mut self) -> Option<(SimTime, Ev<M>)> {
        if self.scheduler.is_none() {
            return self.queue.pop();
        }
        let mut lanes: BTreeSet<(ActorId, ActorId)> = BTreeSet::new();
        let mut candidates: Vec<ReadyEvent> = Vec::new();
        for (at, seq, ev) in self.queue.ready() {
            let (kind, target, from) = match ev {
                Ev::Deliver { from, to, .. } => {
                    if *from != ActorId::EXTERNAL && !lanes.insert((*from, *to)) {
                        // Not the lane head: an older message on the same
                        // ordered pair must fire first.
                        continue;
                    }
                    (ReadyKind::Deliver, *to, *from)
                }
                Ev::Timer { actor, .. } => (ReadyKind::Timer, *actor, *actor),
                Ev::Crash { actor } => (ReadyKind::Crash, *actor, *actor),
                Ev::Recover { actor } => (ReadyKind::Recover, *actor, *actor),
            };
            candidates.push(ReadyEvent {
                seq,
                at,
                kind,
                target,
                from,
            });
        }
        let chosen = match candidates.len() {
            0 => return None,
            1 => candidates[0],
            n => {
                let idx = self
                    .scheduler
                    .as_mut()
                    .map_or(0, |s| s.choose(&candidates))
                    .min(n - 1);
                candidates[idx]
            }
        };
        let ev = self.queue.remove(chosen.at, chosen.seq)?;
        Some((chosen.at, ev))
    }
}

/// Handler-side view of the engine: clock, messaging, timers, randomness.
///
/// Effects apply to the engine immediately, in the order the handler
/// issues them.
pub struct Ctx<'a, M> {
    core: &'a mut Core<M>,
    me: ActorId,
}

impl<M> Ctx<'_, M> {
    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// The id of the actor whose handler is running.
    pub fn me(&self) -> ActorId {
        self.me
    }

    /// Sends `msg` to `to`, arriving after `delay`.
    ///
    /// The delay models transmission + propagation on the path between the
    /// two nodes; the network substrate computes it from topology. Links
    /// are FIFO: arrival order per ordered pair matches send order even if
    /// later sends carry smaller delays.
    pub fn send(&mut self, to: ActorId, msg: M, delay: SimDuration)
    where
        M: Clone,
    {
        self.core.send(self.me, to, msg, delay);
    }

    /// Sends `msg` to the actor itself after `delay` — a convenience for
    /// modelling local processing stages. Self-sends never traverse a link,
    /// so link faults do not apply.
    pub fn send_self(&mut self, msg: M, delay: SimDuration) {
        self.core.enqueue(self.me, self.me, msg, delay);
    }

    /// Arms a timer that calls [`Actor::on_timer`] after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration) -> TimerId {
        self.core.set_timer(self.me, delay)
    }

    /// Takes the kernel's next event sequence number for a timer armed
    /// later by [`Ctx::set_timer_at`]. Sequence numbers break ties between
    /// events of one instant, so such a timer fires exactly where one
    /// armed by [`Ctx::set_timer`] at the reservation would have.
    pub fn reserve_seq(&mut self) -> EventSeq {
        self.core.queue.reserve()
    }

    /// Arms a timer that calls [`Actor::on_timer`] at `at` (not before
    /// now) under `seq`, a number from [`Ctx::reserve_seq`] that no other
    /// pending event holds.
    pub fn set_timer_at(&mut self, at: SimTime, seq: EventSeq) -> TimerId {
        self.core.set_timer_at(self.me, at, seq)
    }

    /// Stops a pending timer by taking it out of the queue: it never pops
    /// and is counted nowhere. Its sequence number may then be armed
    /// again. Removing an already-fired or foreign timer is a no-op.
    pub fn remove_timer(&mut self, id: TimerId) {
        self.core.remove_timer(self.me, id);
    }

    /// Deterministic randomness: a single stream scoped to the whole
    /// simulation, drawn in handler execution order.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.core.rng
    }
}

/// The deterministic actor simulation engine.
///
/// # Examples
///
/// A two-actor ping-pong:
///
/// ```
/// use lems_sim::actor::{Actor, ActorId, ActorSim, Ctx};
/// use lems_sim::time::{SimDuration, SimTime};
///
/// struct Pinger { peer: Option<ActorId>, bounces: u32 }
/// impl Actor for Pinger {
///     type Msg = u32;
///     fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
///         if let Some(peer) = self.peer {
///             ctx.send(peer, 0, SimDuration::from_units(1.0));
///         }
///     }
///     fn on_message(&mut self, from: ActorId, n: u32, ctx: &mut Ctx<'_, u32>) {
///         self.bounces += 1;
///         if n < 5 {
///             ctx.send(from, n + 1, SimDuration::from_units(1.0));
///         }
///     }
/// }
///
/// let mut sim = ActorSim::new(42);
/// let a = sim.add_actor(Pinger { peer: None, bounces: 0 });
/// let b = sim.add_actor(Pinger { peer: Some(a), bounces: 0 });
/// # let _ = b;
/// assert!(sim.run_to_quiescence_bounded(1_000));
/// assert_eq!(sim.now(), SimTime::from_units(6.0));
/// ```
pub struct ActorSim<M> {
    core: Core<M>,
    actors: Vec<Option<Box<dyn Actor<Msg = M>>>>,
    /// Actors below this index have had `on_start`. Actors are only ever
    /// appended and started in index order, so one index says which are
    /// still waiting.
    first_unstarted: usize,
}

impl<M: 'static> ActorSim<M> {
    /// Creates an engine whose randomness derives from `seed`.
    pub fn new(seed: u64) -> Self {
        ActorSim {
            core: Core::new(seed),
            actors: Vec::new(),
            first_unstarted: 0,
        }
    }

    /// Enables in-memory event tracing (for debugging and tests), replacing
    /// any existing trace: the trace keeps every event from here on.
    pub fn enable_trace(&mut self) {
        self.core.trace = Trace::unbounded();
    }

    /// Enables the kernel profiler ([`prof`](crate::prof)). Profiling
    /// changes no output byte of the run — dispatch attribution, queue
    /// depth samples, and pool counters derive from sim time and counts
    /// only (pinned by `tests/prof_digest.rs`).
    pub fn enable_prof(&mut self) {
        self.core.prof.enable();
    }

    /// The kernel profiler's accumulated state.
    pub fn prof(&self) -> &Prof {
        &self.core.prof
    }

    /// Renders the profiler state as a deterministic sample list, folding
    /// in the current queue-structure snapshot. Empty when profiling is
    /// off.
    pub fn profile_samples(&self) -> Vec<ProfSample> {
        self.core.prof.samples(self.core.queue.stats())
    }

    /// A structural snapshot of the future-event list (depth, calendar
    /// ring, payload-pool counters).
    pub fn queue_stats(&self) -> QueueStats {
        self.core.queue.stats()
    }

    /// Registers an actor; returns its id. `on_start` runs at the current
    /// simulation time the next time the engine advances.
    pub fn add_actor<A>(&mut self, actor: A) -> ActorId
    where
        A: Actor<Msg = M> + 'static,
    {
        let id = ActorId(self.actors.len());
        self.core.prof.register_kind(actor.kind());
        self.actors.push(Some(Box::new(actor)));
        self.core.down.push(false);
        id
    }

    /// Number of registered actors.
    pub fn actor_count(&self) -> usize {
        self.actors.len()
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Counters accumulated so far.
    pub fn counters(&self) -> &SimCounters {
        &self.core.counters
    }

    /// The event trace (empty unless enabled).
    pub fn trace(&self) -> &Trace {
        &self.core.trace
    }

    /// Injects a message from outside the simulation, delivered to `to` at
    /// `now + delay`. Injections model workload arrivals, not link traffic,
    /// so link faults do not apply.
    pub fn inject(&mut self, to: ActorId, msg: M, delay: SimDuration) {
        self.core.enqueue(ActorId::EXTERNAL, to, msg, delay);
    }

    /// Installs (or replaces) the link-fault plan consulted on every
    /// actor-to-actor send. See [`LinkFaultPlan`] for the fault taxonomy.
    pub fn set_link_faults(&mut self, plan: LinkFaultPlan) {
        self.core.link_faults = Some(plan);
    }

    /// Installs (or replaces) the event [`Scheduler`] consulted whenever
    /// two or more events are ready at the same instant. Without one, the
    /// engine fires events in scheduling order ([`FifoScheduler`]
    /// semantics, zero overhead).
    ///
    /// [`FifoScheduler`]: crate::sched::FifoScheduler
    pub fn set_scheduler(&mut self, scheduler: Box<dyn Scheduler>) {
        self.core.scheduler = Some(scheduler);
    }

    /// Schedules `actor` to crash at `at` (no-op if already down then).
    pub fn schedule_crash(&mut self, actor: ActorId, at: SimTime) {
        self.core.queue.push(at, Ev::Crash { actor });
    }

    /// Schedules `actor` to recover at `at` (no-op if already up then).
    pub fn schedule_recover(&mut self, actor: ActorId, at: SimTime) {
        self.core.queue.push(at, Ev::Recover { actor });
    }

    /// Immutable access to an actor's state (for assertions and metrics).
    ///
    /// Returns `None` if the id is unknown or the actor's concrete type is
    /// not `A`.
    pub fn actor<A>(&self, id: ActorId) -> Option<&A>
    where
        A: Actor<Msg = M> + 'static,
        M: 'static,
    {
        self.actors
            .get(id.0)
            .and_then(|slot| slot.as_deref())
            .and_then(|a| (a as &dyn std::any::Any).downcast_ref::<A>())
    }

    /// Mutable access to an actor's state between runs (e.g. for
    /// reconfiguration drivers).
    pub fn actor_mut<A>(&mut self, id: ActorId) -> Option<&mut A>
    where
        A: Actor<Msg = M> + 'static,
        M: 'static,
    {
        self.actors
            .get_mut(id.0)
            .and_then(|slot| slot.as_deref_mut())
            .and_then(|a| (a as &mut dyn std::any::Any).downcast_mut::<A>())
    }

    fn start_pending(&mut self) {
        while self.first_unstarted < self.actors.len() {
            let id = ActorId(self.first_unstarted);
            self.first_unstarted += 1;
            self.with_actor(id, Actor::on_start);
        }
    }

    fn with_actor<R>(
        &mut self,
        id: ActorId,
        f: impl FnOnce(&mut dyn Actor<Msg = M>, &mut Ctx<'_, M>) -> R,
    ) -> Option<R> {
        let mut boxed = self.actors.get_mut(id.0)?.take()?;
        let mut ctx = Ctx {
            core: &mut self.core,
            me: id,
        };
        let out = f(boxed.as_mut(), &mut ctx);
        self.actors[id.0] = Some(boxed);
        Some(out)
    }

    /// Processes one event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.start_pending();
        let Some((at, ev)) = self.core.pop_next() else {
            return false;
        };
        debug_assert!(at >= self.core.now, "time went backwards");
        self.core.now = at;
        // Each arm yields the profiler disposition: the target actor index
        // and the event class the dispatch resolved to (`None` for silent
        // no-ops, which the profiler — like the counters — ignores).
        let hook: Option<(usize, ProfEvent)> = match ev {
            Ev::Deliver { from, to, msg } => {
                if to.0 >= self.actors.len() {
                    self.core.counters.dropped_unknown.inc();
                    // Traced as a drop so every traced send still terminates
                    // in exactly one deliver-or-drop (conservation law).
                    self.core.trace.record(at, TraceKind::Drop, from, to);
                    Some((to.0, ProfEvent::DropUnknown))
                } else if self.core.down[to.0] {
                    self.core.counters.dropped_down.inc();
                    self.core.trace.record(at, TraceKind::Drop, from, to);
                    Some((to.0, ProfEvent::DropDown))
                } else {
                    self.core.counters.delivered.inc();
                    self.core.trace.record(at, TraceKind::Deliver, from, to);
                    self.with_actor(to, |actor, ctx| actor.on_message(from, msg, ctx));
                    Some((to.0, ProfEvent::Deliver))
                }
            }
            Ev::Timer { actor, id } => {
                if actor.0 >= self.actors.len() || self.core.down[actor.0] {
                    self.core.counters.timers_suppressed.inc();
                    Some((actor.0, ProfEvent::TimerSuppressed))
                } else {
                    self.core.counters.timers_fired.inc();
                    self.with_actor(actor, |a, ctx| a.on_timer(id, ctx));
                    Some((actor.0, ProfEvent::TimerFired))
                }
            }
            Ev::Crash { actor } => {
                if actor.0 < self.actors.len() && !self.core.down[actor.0] {
                    self.core.down[actor.0] = true;
                    self.core.counters.crashes.inc();
                    self.core.trace.record(at, TraceKind::Crash, actor, actor);
                    if let Some(slot) = self.actors.get_mut(actor.0) {
                        if let Some(a) = slot.as_deref_mut() {
                            a.on_crash(at);
                        }
                    }
                    Some((actor.0, ProfEvent::Crash))
                } else {
                    None
                }
            }
            Ev::Recover { actor } => {
                if actor.0 < self.actors.len() && self.core.down[actor.0] {
                    self.core.down[actor.0] = false;
                    self.core.counters.recoveries.inc();
                    self.core.trace.record(at, TraceKind::Recover, actor, actor);
                    self.with_actor(actor, Actor::on_recover);
                    Some((actor.0, ProfEvent::Recover))
                } else {
                    None
                }
            }
        };
        if self.core.prof.is_enabled() {
            if let Some((idx, pe)) = hook {
                let depth = self.core.queue.len() as u64;
                self.core.prof.dispatch(idx, pe, at, depth);
            }
        }
        true
    }

    /// Runs until the queue is empty or the next event is later than
    /// `deadline`; the clock then rests at `deadline` (or where it was, if
    /// that is later).
    pub fn run_until(&mut self, deadline: SimTime) {
        self.start_pending();
        while let Some(t) = self.core.queue.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        if self.core.now < deadline {
            self.core.now = deadline;
        }
    }

    /// Runs until quiescence or until `max_events` have been processed.
    /// Returns `true` if the simulation quiesced.
    pub fn run_to_quiescence_bounded(&mut self, max_events: u64) -> bool {
        let mut quiesced = false;
        for _ in 0..max_events {
            if !self.step() {
                quiesced = true;
                break;
            }
        }
        quiesced || self.core.queue.is_empty()
    }
}

impl<M> std::fmt::Debug for ActorSim<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActorSim")
            .field("now", &self.core.now)
            .field("actors", &self.actors.len())
            .field("pending_events", &self.core.queue.len())
            .field("counters", &self.core.counters)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Event budget for the unit tests' runs; each quiesces far below it.
    const BUDGET: u64 = 1_000_000;

    #[derive(Default)]
    struct Recorder {
        seen: Vec<(SimTime, u32)>,
        recovered: u32,
    }

    impl Actor for Recorder {
        type Msg = u32;
        fn on_message(&mut self, _from: ActorId, msg: u32, ctx: &mut Ctx<'_, u32>) {
            self.seen.push((ctx.now(), msg));
        }
        fn on_recover(&mut self, _ctx: &mut Ctx<'_, u32>) {
            self.recovered += 1;
        }
    }

    fn unit(u: f64) -> SimDuration {
        SimDuration::from_units(u)
    }

    #[test]
    fn injected_messages_arrive_in_order() {
        let mut sim = ActorSim::new(1);
        let r = sim.add_actor(Recorder::default());
        sim.inject(r, 10, unit(2.0));
        sim.inject(r, 20, unit(1.0));
        assert!(sim.run_to_quiescence_bounded(BUDGET));
        let rec: &Recorder = sim.actor(r).unwrap();
        assert_eq!(
            rec.seen,
            vec![
                (SimTime::from_units(1.0), 20),
                (SimTime::from_units(2.0), 10)
            ]
        );
    }

    /// Logs every callback in order; arms a timer from `on_start`.
    #[derive(Default)]
    struct Lifecycle {
        log: Vec<&'static str>,
    }
    impl Actor for Lifecycle {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            self.log.push("start");
            ctx.set_timer(unit(1.0));
        }
        fn on_message(&mut self, _f: ActorId, _m: u32, _c: &mut Ctx<'_, u32>) {
            self.log.push("message");
        }
        fn on_timer(&mut self, _id: TimerId, _c: &mut Ctx<'_, u32>) {
            self.log.push("timer");
        }
    }

    #[test]
    fn late_actor_starts_once_before_its_first_event() {
        let mut sim = ActorSim::new(1);
        let early = sim.add_actor(Lifecycle::default());
        sim.inject(early, 1, unit(2.0));
        sim.run_until(SimTime::from_units(5.0));

        // Added after the run began, with a message due at the current
        // instant: `on_start` must still come first.
        let late = sim.add_actor(Lifecycle::default());
        sim.inject(late, 2, SimDuration::ZERO);
        assert!(sim.step());
        let l: &Lifecycle = sim.actor(late).unwrap();
        assert_eq!(l.log, vec!["start", "message"]);

        sim.inject(early, 3, unit(3.0));
        assert!(sim.run_to_quiescence_bounded(BUDGET));
        for (id, expect) in [
            (early, vec!["start", "timer", "message", "message"]),
            (late, vec!["start", "message", "timer"]),
        ] {
            let a: &Lifecycle = sim.actor(id).unwrap();
            assert_eq!(a.log, expect);
        }
    }

    /// Sends two messages to `target` back-to-back, the second with a
    /// smaller delay than the first.
    struct BurstSender {
        target: ActorId,
    }
    impl Actor for BurstSender {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            ctx.send(self.target, 1, unit(5.0));
            ctx.send(self.target, 2, unit(1.0));
        }
        fn on_message(&mut self, _f: ActorId, _m: u32, _c: &mut Ctx<'_, u32>) {}
    }

    #[test]
    fn fifo_links_prevent_overtaking() {
        let mut sim = ActorSim::new(1);
        let r = sim.add_actor(Recorder::default());
        let _ = sim.add_actor(BurstSender { target: r });
        assert!(sim.run_to_quiescence_bounded(BUDGET));
        let rec: &Recorder = sim.actor(r).unwrap();
        assert_eq!(rec.seen[0].1, 1);
        assert_eq!(rec.seen[1].1, 2);
        assert_eq!(rec.seen[1].0, SimTime::from_units(5.0), "clamped to FIFO");
    }

    #[test]
    fn crashed_actor_drops_messages_then_recovers() {
        let mut sim = ActorSim::new(1);
        let r = sim.add_actor(Recorder::default());
        sim.schedule_crash(r, SimTime::from_units(1.0));
        sim.schedule_recover(r, SimTime::from_units(3.0));
        sim.inject(r, 99, unit(2.0)); // lands while down -> dropped
        sim.inject(r, 7, unit(4.0)); // lands after recovery
        assert!(sim.run_to_quiescence_bounded(BUDGET));
        let rec: &Recorder = sim.actor(r).unwrap();
        assert_eq!(rec.seen.len(), 1);
        assert_eq!(rec.seen[0].1, 7);
        assert_eq!(rec.recovered, 1);
        assert_eq!(sim.counters().dropped_down.get(), 1);
        assert_eq!(sim.counters().crashes.get(), 1);
        assert_eq!(sim.counters().recoveries.get(), 1);
    }

    struct TimerSetter;
    impl Actor for TimerSetter {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            let _keep = ctx.set_timer(unit(1.0));
            let stop = ctx.set_timer(unit(2.0));
            ctx.remove_timer(stop);
        }
        fn on_message(&mut self, _f: ActorId, _m: u32, _c: &mut Ctx<'_, u32>) {}
    }

    #[test]
    fn cancelled_timers_do_not_fire() {
        let mut sim = ActorSim::new(1);
        let _ = sim.add_actor(TimerSetter);
        assert!(sim.run_to_quiescence_bounded(BUDGET));
        assert_eq!(sim.counters().timers_fired.get(), 1);
        assert_eq!(
            sim.counters().timers_suppressed.get(),
            0,
            "removed, not popped"
        );
        assert_eq!(sim.now(), SimTime::from_units(1.0));
    }

    /// Arms a timer at 1 and one at 4 from `on_start`, and logs when each
    /// fires.
    #[derive(Default)]
    struct TwoTimers {
        fired: Vec<SimTime>,
    }
    impl Actor for TwoTimers {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            ctx.set_timer(unit(1.0));
            ctx.set_timer(unit(4.0));
        }
        fn on_message(&mut self, _f: ActorId, _m: u32, _c: &mut Ctx<'_, u32>) {}
        fn on_timer(&mut self, _id: TimerId, ctx: &mut Ctx<'_, u32>) {
            self.fired.push(ctx.now());
        }
    }

    #[test]
    fn a_crash_suppresses_only_the_timers_due_while_down() {
        let mut sim = ActorSim::new(1);
        let a = sim.add_actor(TwoTimers::default());
        sim.schedule_crash(a, SimTime::from_units(0.5));
        sim.schedule_recover(a, SimTime::from_units(2.0));
        assert!(sim.run_to_quiescence_bounded(BUDGET));
        let fired = &sim.actor::<TwoTimers>(a).unwrap().fired;
        assert_eq!(fired, &vec![SimTime::from_units(4.0)]);
        assert_eq!(sim.counters().timers_suppressed.get(), 1);
    }

    /// Message `None` arms timer 1; `Some(id)` removes that id (a foreign
    /// id when sent to a second instance). With `chain`, timer 1's
    /// handler arms timer 2.
    #[derive(Default)]
    struct Rearm {
        chain: bool,
        first: Option<TimerId>,
        fired: Vec<u64>,
    }
    impl Actor for Rearm {
        type Msg = Option<TimerId>;
        fn on_message(&mut self, _f: ActorId, m: Self::Msg, ctx: &mut Ctx<'_, Self::Msg>) {
            match m {
                None => self.first = Some(ctx.set_timer(unit(1.0))),
                Some(id) => ctx.remove_timer(id),
            }
        }
        fn on_timer(&mut self, id: TimerId, ctx: &mut Ctx<'_, Self::Msg>) {
            let first = self.first == Some(id);
            self.fired.push(if first { 1 } else { 2 });
            if self.chain && first {
                ctx.set_timer(unit(5.0));
            }
        }
    }

    #[test]
    fn cancel_after_fire_is_inert() {
        let mut sim = ActorSim::new(1);
        let a = sim.add_actor(Rearm::default());
        sim.inject(a, None, SimDuration::ZERO);
        assert!(sim.run_to_quiescence_bounded(BUDGET));
        let id = sim.actor::<Rearm>(a).unwrap().first.unwrap();
        sim.inject(a, Some(id), SimDuration::ZERO);
        assert!(sim.run_to_quiescence_bounded(BUDGET));
        assert_eq!(sim.actor::<Rearm>(a).unwrap().fired, vec![1]);
        assert_eq!(sim.counters().timers_suppressed.get(), 0);
        assert_eq!(sim.queue_stats().pool_live, 0, "nothing left behind");
    }

    #[test]
    fn stale_timer_id_cannot_cancel_a_timer_that_recycled_its_slot() {
        let mut sim = ActorSim::new(1);
        let a = sim.add_actor(Rearm {
            chain: true,
            ..Rearm::default()
        });
        sim.inject(a, None, SimDuration::ZERO);
        // Deliver (arms timer 1), then timer 1 fires and its handler arms
        // timer 2 — into the pool slot timer 1 just vacated.
        assert!(sim.step() && sim.step());
        let stale = sim.actor::<Rearm>(a).unwrap().first.unwrap();
        sim.inject(a, Some(stale), SimDuration::ZERO);
        assert!(sim.run_to_quiescence_bounded(BUDGET));
        assert_eq!(sim.actor::<Rearm>(a).unwrap().fired, vec![1, 2]);
        assert_eq!(sim.counters().timers_suppressed.get(), 0);
        assert_eq!(
            sim.queue_stats().pool_capacity,
            2,
            "timers 1 and 2 shared a slot; the remove message took the second"
        );
    }

    #[test]
    fn foreign_timer_cannot_be_cancelled() {
        let mut sim = ActorSim::new(1);
        let owner = sim.add_actor(Rearm::default());
        let other = sim.add_actor(Rearm::default());
        sim.inject(owner, None, SimDuration::ZERO);
        assert!(sim.step());
        let id = sim.actor::<Rearm>(owner).unwrap().first.unwrap();
        sim.inject(other, Some(id), SimDuration::ZERO);
        assert!(sim.run_to_quiescence_bounded(BUDGET));
        assert_eq!(sim.actor::<Rearm>(owner).unwrap().fired, vec![1]);
        // The owner itself can.
        sim.inject(owner, None, SimDuration::ZERO);
        assert!(sim.step());
        let id = sim.actor::<Rearm>(owner).unwrap().first.unwrap();
        sim.inject(owner, Some(id), SimDuration::ZERO);
        assert!(sim.run_to_quiescence_bounded(BUDGET));
        assert_eq!(sim.actor::<Rearm>(owner).unwrap().fired, vec![1]);
        assert_eq!(sim.counters().timers_fired.get(), 1);
        assert_eq!(
            sim.queue_stats().pool_live,
            0,
            "the owner's removal took it out"
        );
    }

    #[test]
    fn run_until_stops_clock_at_deadline() {
        let mut sim: ActorSim<u32> = ActorSim::new(1);
        let r = sim.add_actor(Recorder::default());
        sim.inject(r, 1, unit(10.0));
        sim.run_until(SimTime::from_units(4.0));
        assert_eq!(sim.now(), SimTime::from_units(4.0));
        sim.run_until(SimTime::from_units(20.0));
        let rec: &Recorder = sim.actor(r).unwrap();
        assert_eq!(rec.seen.len(), 1);
        assert_eq!(sim.now(), SimTime::from_units(20.0));
    }

    #[test]
    fn determinism_same_seed_same_counters() {
        fn run(seed: u64) -> (u64, SimTime) {
            let mut sim = ActorSim::new(seed);
            let r = sim.add_actor(Recorder::default());
            let mut delays: Vec<f64> = Vec::new();
            {
                // Use engine-independent rng for the workload.
                let mut rng = SimRng::seed(seed).fork("wl");
                for _ in 0..100 {
                    delays.push(rng.unit() * 10.0);
                }
            }
            for (i, d) in delays.into_iter().enumerate() {
                sim.inject(r, i as u32, unit(d));
            }
            assert!(sim.run_to_quiescence_bounded(BUDGET));
            (sim.counters().delivered.get(), sim.now())
        }
        assert_eq!(run(9), run(9));
        assert_ne!(run(9).1, run(10).1);
    }

    #[test]
    fn bounded_run_reports_quiescence() {
        let mut sim: ActorSim<u32> = ActorSim::new(1);
        let r = sim.add_actor(Recorder::default());
        for i in 0..10 {
            sim.inject(r, i, unit(i as f64));
        }
        assert!(!sim.run_to_quiescence_bounded(3));
        assert!(sim.run_to_quiescence_bounded(100));
    }

    #[test]
    fn unknown_destination_is_counted() {
        let mut sim: ActorSim<u32> = ActorSim::new(1);
        sim.inject(ActorId(999), 1, unit(1.0));
        assert!(sim.run_to_quiescence_bounded(BUDGET));
        assert_eq!(sim.counters().dropped_unknown.get(), 1);
    }

    /// Relays every received message to `target` after 1 unit.
    struct Relay {
        target: ActorId,
    }
    impl Actor for Relay {
        type Msg = u32;
        fn on_message(&mut self, _f: ActorId, m: u32, ctx: &mut Ctx<'_, u32>) {
            ctx.send(self.target, m, unit(1.0));
        }
    }

    #[test]
    fn link_outage_drops_wire_traffic_but_not_injections() {
        use crate::linkfault::LinkFaultPlan;
        let mut sim = ActorSim::new(1);
        let r = sim.add_actor(Recorder::default());
        let relay = sim.add_actor(Relay { target: r });
        let mut plan = LinkFaultPlan::new();
        plan.add_link_outage(relay, r, SimTime::ZERO, SimTime::from_units(10.0))
            .unwrap();
        sim.set_link_faults(plan);
        sim.enable_trace();
        // Injection reaches the relay (injections are exempt), but the
        // relay's forward crosses the dead link and is lost.
        sim.inject(relay, 5, unit(1.0));
        // After the outage lifts, the same route works.
        sim.inject(relay, 6, unit(11.0));
        assert!(sim.run_to_quiescence_bounded(BUDGET));
        let rec: &Recorder = sim.actor(r).unwrap();
        assert_eq!(rec.seen.len(), 1);
        assert_eq!(rec.seen[0].1, 6);
        assert_eq!(sim.counters().dropped_link.get(), 1);
        // Conservation: every traced send has a deliver or a drop.
        let sends = sim
            .trace()
            .events()
            .filter(|e| e.kind == TraceKind::Send)
            .count();
        let ends = sim
            .trace()
            .events()
            .filter(|e| {
                matches!(
                    e.kind,
                    TraceKind::Deliver | TraceKind::Drop | TraceKind::LinkDrop
                )
            })
            .count();
        assert_eq!(sends, ends);
    }

    #[test]
    fn certain_loss_loses_everything_on_the_wire() {
        use crate::linkfault::{LinkFaultPlan, LinkProfile};
        let mut sim = ActorSim::new(1);
        let r = sim.add_actor(Recorder::default());
        let relay = sim.add_actor(Relay { target: r });
        sim.set_link_faults(
            LinkFaultPlan::new()
                .with_default_profile(LinkProfile::new(1.0, 0.0, SimDuration::ZERO).unwrap()),
        );
        for i in 0..10 {
            sim.inject(relay, i, unit(i as f64));
        }
        assert!(sim.run_to_quiescence_bounded(BUDGET));
        let rec: &Recorder = sim.actor(r).unwrap();
        assert!(rec.seen.is_empty());
        assert_eq!(sim.counters().dropped_link.get(), 10);
    }

    #[test]
    fn certain_duplication_doubles_delivery() {
        use crate::linkfault::{LinkFaultPlan, LinkProfile};
        let mut sim = ActorSim::new(1);
        let r = sim.add_actor(Recorder::default());
        let relay = sim.add_actor(Relay { target: r });
        sim.set_link_faults(
            LinkFaultPlan::new()
                .with_default_profile(LinkProfile::new(0.0, 1.0, SimDuration::ZERO).unwrap()),
        );
        sim.inject(relay, 7, unit(1.0));
        assert!(sim.run_to_quiescence_bounded(BUDGET));
        let rec: &Recorder = sim.actor(r).unwrap();
        assert_eq!(rec.seen.len(), 2, "original + duplicate");
        assert_eq!(sim.counters().duplicated.get(), 1);
    }

    #[test]
    fn self_sends_bypass_link_faults() {
        use crate::linkfault::{LinkFaultPlan, LinkProfile};
        struct SelfLooper {
            got: u32,
        }
        impl Actor for SelfLooper {
            type Msg = u32;
            fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
                ctx.send_self(3, unit(1.0));
            }
            fn on_message(&mut self, _f: ActorId, m: u32, _c: &mut Ctx<'_, u32>) {
                self.got = m;
            }
        }
        let mut sim = ActorSim::new(1);
        let a = sim.add_actor(SelfLooper { got: 0 });
        sim.set_link_faults(
            LinkFaultPlan::new()
                .with_default_profile(LinkProfile::new(1.0, 0.0, SimDuration::ZERO).unwrap()),
        );
        assert!(sim.run_to_quiescence_bounded(BUDGET));
        let looper: &SelfLooper = sim.actor(a).unwrap();
        assert_eq!(looper.got, 3);
        assert_eq!(sim.counters().dropped_link.get(), 0);
    }

    #[test]
    fn link_faults_are_deterministic_per_seed() {
        use crate::linkfault::{LinkFaultPlan, LinkProfile};
        fn run(seed: u64) -> (u64, u64, u64, SimTime) {
            let mut sim = ActorSim::new(seed);
            let r = sim.add_actor(Recorder::default());
            let relay = sim.add_actor(Relay { target: r });
            sim.set_link_faults(LinkFaultPlan::new().with_default_profile(
                LinkProfile::new(0.3, 0.1, SimDuration::from_units(0.5)).unwrap(),
            ));
            for i in 0..200 {
                sim.inject(relay, i, unit(i as f64 * 0.1));
            }
            assert!(sim.run_to_quiescence_bounded(BUDGET));
            (
                sim.counters().delivered.get(),
                sim.counters().dropped_link.get(),
                sim.counters().duplicated.get(),
                sim.now(),
            )
        }
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }
}
