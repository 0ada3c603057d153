//! Trace-based invariant checking.
//!
//! The engine records a [`TraceEvent`] for every send, delivery, drop,
//! crash, and recovery (see [`lems_sim::trace`]). Because the engine
//! stamps a `Send` with its *scheduled arrival time*, a send and the
//! deliver-or-drop that consumes it share the same `(from, to, at)` key,
//! which lets the auditor match them as multisets without understanding
//! message payloads:
//!
//! * **Message conservation** — every traced send terminates in exactly
//!   one deliver, drop, or link-drop; no consume appears without a
//!   matching send; nothing is consumed twice. Link-level duplication
//!   preserves the law because the engine records a separate `Send` for
//!   the duplicate copy; retransmissions are likewise fresh sends.
//! * **Failure alternation** — per actor, crash and recover events
//!   strictly alternate, starting from the up state.
//!
//! On top of the stream-level laws, [`audit_deployment`] checks the
//! System-1 domain ledgers: retrieved/bounced ids are subsets of
//! submitted ids, nothing is both retrieved and bounced, outstanding
//! mail equals mail physically in server storage at quiescence, and —
//! for scenarios that end with every server up and every user polling —
//! no delivered message is stranded.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use lems_core::message::MessageId;
use lems_sim::actor::ActorId;
use lems_sim::time::SimTime;
use lems_sim::trace::{Trace, TraceEvent, TraceKind};
use lems_syntax::actors::Deployment;

/// One broken invariant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AuditViolation {
    /// A send was never consumed by a deliver or drop.
    UnmatchedSend {
        /// Sender.
        from: ActorId,
        /// Destination.
        to: ActorId,
        /// Scheduled arrival time.
        at: SimTime,
        /// How many sends on this key are left dangling.
        count: u32,
    },
    /// A deliver or drop appeared with no matching send (or the send was
    /// already consumed once).
    UnmatchedConsume {
        /// `Deliver` or `Drop`.
        kind: TraceKind,
        /// Sender.
        from: ActorId,
        /// Destination.
        to: ActorId,
        /// Event time.
        at: SimTime,
    },
    /// A crash event hit an actor that was already down.
    CrashWhileDown {
        /// The actor.
        actor: ActorId,
        /// Event time.
        at: SimTime,
    },
    /// A recover event hit an actor that was not down.
    RecoverWhileUp {
        /// The actor.
        actor: ActorId,
        /// Event time.
        at: SimTime,
    },
    /// A domain-level (ledger / storage) inconsistency.
    Domain(String),
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditViolation::UnmatchedSend {
                from,
                to,
                at,
                count,
            } => write!(
                f,
                "send {from} -> {to} scheduled for [{at}] never delivered or dropped (x{count})"
            ),
            AuditViolation::UnmatchedConsume { kind, from, to, at } => {
                write!(f, "{kind} {from} -> {to} at [{at}] has no matching send")
            }
            AuditViolation::CrashWhileDown { actor, at } => {
                write!(f, "crash of {actor} at [{at}] while already down")
            }
            AuditViolation::RecoverWhileUp { actor, at } => {
                write!(f, "recover of {actor} at [{at}] while not down")
            }
            AuditViolation::Domain(msg) => f.write_str(msg),
        }
    }
}

/// Result of an audit pass.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    /// Broken invariants, in detection order.
    pub violations: Vec<AuditViolation>,
    /// Sends observed.
    pub sends: u64,
    /// Delivers observed.
    pub delivers: u64,
    /// Drops observed.
    pub drops: u64,
    /// Messages lost on the wire (link outages, probabilistic loss).
    pub link_drops: u64,
    /// Crashes observed.
    pub crashes: u64,
    /// Recoveries observed.
    pub recoveries: u64,
}

impl AuditReport {
    /// True when every invariant held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} sends, {} delivers, {} drops, {} link-drops, {} crashes, {} recoveries: {}",
            self.sends,
            self.delivers,
            self.drops,
            self.link_drops,
            self.crashes,
            self.recoveries,
            if self.is_clean() {
                "all invariants hold".to_owned()
            } else {
                format!("{} violation(s)", self.violations.len())
            }
        )
    }
}

/// Streaming auditor over [`TraceEvent`]s.
///
/// Feed events in stream order via [`observe`](TraceAuditor::observe),
/// then call [`finish`](TraceAuditor::finish) to flush end-of-stream
/// checks (dangling sends).
#[derive(Debug, Default)]
pub struct TraceAuditor {
    /// Pending sends: `(from, to) -> arrival time -> count`. Ordered maps
    /// keep reports deterministic.
    pending: BTreeMap<(ActorId, ActorId), BTreeMap<SimTime, u32>>,
    /// Actors currently observed down.
    down: BTreeMap<ActorId, bool>,
    report: AuditReport,
}

impl TraceAuditor {
    /// A fresh auditor.
    pub fn new() -> Self {
        TraceAuditor::default()
    }

    /// Consumes one event.
    pub fn observe(&mut self, ev: &TraceEvent) {
        match ev.kind {
            TraceKind::Send => {
                self.report.sends += 1;
                *self
                    .pending
                    .entry((ev.from, ev.to))
                    .or_default()
                    .entry(ev.at)
                    .or_insert(0) += 1;
            }
            TraceKind::Deliver | TraceKind::Drop | TraceKind::LinkDrop => {
                match ev.kind {
                    TraceKind::Deliver => self.report.delivers += 1,
                    TraceKind::Drop => self.report.drops += 1,
                    _ => self.report.link_drops += 1,
                }
                let consumed = self
                    .pending
                    .get_mut(&(ev.from, ev.to))
                    .and_then(|per_time| per_time.get_mut(&ev.at))
                    .map(|n| {
                        *n -= 1;
                        *n
                    });
                match consumed {
                    Some(0) => {
                        // Tidy empty slots so `finish` only sees real leftovers.
                        if let Some(per_time) = self.pending.get_mut(&(ev.from, ev.to)) {
                            per_time.remove(&ev.at);
                            if per_time.is_empty() {
                                self.pending.remove(&(ev.from, ev.to));
                            }
                        }
                    }
                    Some(_) => {}
                    None => self
                        .report
                        .violations
                        .push(AuditViolation::UnmatchedConsume {
                            kind: ev.kind,
                            from: ev.from,
                            to: ev.to,
                            at: ev.at,
                        }),
                }
            }
            TraceKind::Crash => {
                self.report.crashes += 1;
                let down = self.down.entry(ev.from).or_insert(false);
                if *down {
                    self.report.violations.push(AuditViolation::CrashWhileDown {
                        actor: ev.from,
                        at: ev.at,
                    });
                }
                *down = true;
            }
            TraceKind::Recover => {
                self.report.recoveries += 1;
                let down = self.down.entry(ev.from).or_insert(false);
                if !*down {
                    self.report.violations.push(AuditViolation::RecoverWhileUp {
                        actor: ev.from,
                        at: ev.at,
                    });
                }
                *down = false;
            }
        }
    }

    /// Consumes a whole stream.
    pub fn observe_all<'a>(&mut self, events: impl IntoIterator<Item = &'a TraceEvent>) {
        for ev in events {
            self.observe(ev);
        }
    }

    /// Flushes end-of-stream checks and returns the report.
    pub fn finish(mut self) -> AuditReport {
        for (&(from, to), per_time) in &self.pending {
            for (&at, &count) in per_time {
                if count > 0 {
                    self.report.violations.push(AuditViolation::UnmatchedSend {
                        from,
                        to,
                        at,
                        count,
                    });
                }
            }
        }
        self.report
    }
}

/// Audits a complete [`Trace`].
pub fn audit_trace(trace: &Trace) -> AuditReport {
    let mut auditor = TraceAuditor::new();
    auditor.observe_all(trace.events());
    auditor.finish()
}

/// Domain-level audit of a quiescent System-1 [`Deployment`].
///
/// Always checked:
///
/// * retrieved and bounced ledgers are subsets of the submitted ledger,
///   and disjoint from each other;
/// * every outstanding id (submitted − retrieved − bounced) is physically
///   present in server storage — at quiescence nothing is in flight, so
///   a missing id is lost mail;
/// * every stored id was submitted and not bounced. A stored id that was
///   *retrieved* is tolerated: at-least-once submission over a lossy wire
///   can legally deposit a message on two authority servers (the ack for
///   the first deposit was lost), the UI dedups on retrieval, and the
///   residue copy is indistinguishable from unread mail to the server
///   holding it;
/// * the transport counted no wiring errors (sends to unbound nodes).
///
/// With `expect_drained` (scenarios that end with every server up and
/// every user checking mail until quiet), additionally:
///
/// * no unretrieved message is stranded in storage, and
/// * every submitted message was retrieved or bounced.
pub fn audit_deployment(d: &Deployment, expect_drained: bool) -> Vec<AuditViolation> {
    let mut out = Vec::new();
    let stats = d.stats.borrow();

    for id in &stats.ledger_retrieved {
        if !stats.ledger_submitted.contains(id) {
            out.push(AuditViolation::Domain(format!(
                "message {id:?} retrieved but never submitted"
            )));
        }
        if stats.ledger_bounced.contains_key(id) {
            out.push(AuditViolation::Domain(format!(
                "message {id:?} both retrieved and bounced"
            )));
        }
    }
    for id in stats.ledger_bounced.keys() {
        if !stats.ledger_submitted.contains(id) {
            out.push(AuditViolation::Domain(format!(
                "message {id:?} bounced but never submitted"
            )));
        }
    }

    // Counters must agree with the id ledgers: a drift means something
    // was counted twice (e.g. a duplicate drain after a crash re-route)
    // or not at all.
    if stats.retrieved != stats.ledger_retrieved.len() as u64 {
        out.push(AuditViolation::Domain(format!(
            "retrieved counter ({}) disagrees with the retrieved ledger ({} unique ids)",
            stats.retrieved,
            stats.ledger_retrieved.len()
        )));
    }
    if stats.submitted != stats.ledger_submitted.len() as u64 {
        out.push(AuditViolation::Domain(format!(
            "submitted counter ({}) disagrees with the submitted ledger ({} unique ids)",
            stats.submitted,
            stats.ledger_submitted.len()
        )));
    }

    let stored = d.stranded_mail();
    let stored_ids: BTreeSet<MessageId> = stored.iter().map(|&(_, _, id, _)| id).collect();
    let outstanding_ids: BTreeSet<MessageId> = stats
        .ledger_submitted
        .iter()
        .filter(|id| !stats.ledger_retrieved.contains(id) && !stats.ledger_bounced.contains_key(id))
        .copied()
        .collect();

    for id in &outstanding_ids {
        if !stored_ids.contains(id) {
            out.push(AuditViolation::Domain(format!(
                "outstanding message {id:?} is nowhere in server storage (lost)"
            )));
        }
    }
    for id in &stored_ids {
        if !stats.ledger_submitted.contains(id) {
            out.push(AuditViolation::Domain(format!(
                "stored message {id:?} was never submitted"
            )));
        }
        if stats.ledger_bounced.contains_key(id) {
            out.push(AuditViolation::Domain(format!(
                "message {id:?} bounced yet still in server storage"
            )));
        }
    }

    let wiring = d.transport.wiring_errors();
    if wiring != 0 {
        out.push(AuditViolation::Domain(format!(
            "transport counted {wiring} wiring error(s) (sends to unbound/unknown nodes)"
        )));
    }

    if expect_drained {
        if !outstanding_ids.is_empty() {
            out.push(AuditViolation::Domain(format!(
                "drained run left {} message(s) outstanding \
                 (submitted {} retrieved {} bounced {})",
                outstanding_ids.len(),
                stats.ledger_submitted.len(),
                stats.ledger_retrieved.len(),
                stats.ledger_bounced.len()
            )));
        }
        for (node, owner, id, auth) in &stored {
            // Residue copies of already-retrieved mail are legal (see
            // above); only unretrieved mail counts as stranded.
            if !stats.ledger_retrieved.contains(id) {
                out.push(AuditViolation::Domain(format!(
                    "message {id:?} for {owner} stranded on server {node:?} \
                     (authorities {auth:?})"
                )));
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lems_sim::actor::{Actor, ActorSim, Ctx};
    use lems_sim::time::SimDuration;

    /// Every test scenario quiesces far below this; exhausting it means
    /// a stuck retry loop, which must fail the test rather than hang it.
    const EVENT_BUDGET: u64 = 100_000;

    fn t(u: f64) -> SimTime {
        SimTime::from_units(u)
    }

    fn ev(at: f64, kind: TraceKind, from: usize, to: usize) -> TraceEvent {
        TraceEvent {
            at: t(at),
            kind,
            from: ActorId(from),
            to: ActorId(to),
        }
    }

    #[test]
    fn balanced_stream_is_clean() {
        let mut a = TraceAuditor::new();
        a.observe(&ev(1.0, TraceKind::Send, 0, 1));
        a.observe(&ev(2.0, TraceKind::Send, 1, 0));
        a.observe(&ev(1.0, TraceKind::Deliver, 0, 1));
        a.observe(&ev(2.0, TraceKind::Drop, 1, 0));
        let r = a.finish();
        assert!(r.is_clean(), "{r}");
        assert_eq!((r.sends, r.delivers, r.drops), (2, 1, 1));
    }

    #[test]
    fn dangling_send_is_reported() {
        let mut a = TraceAuditor::new();
        a.observe(&ev(1.0, TraceKind::Send, 0, 1));
        let r = a.finish();
        assert_eq!(
            r.violations,
            vec![AuditViolation::UnmatchedSend {
                from: ActorId(0),
                to: ActorId(1),
                at: t(1.0),
                count: 1,
            }]
        );
    }

    #[test]
    fn consume_without_send_is_reported() {
        let mut a = TraceAuditor::new();
        a.observe(&ev(1.0, TraceKind::Deliver, 0, 1));
        let r = a.finish();
        assert!(matches!(
            r.violations[..],
            [AuditViolation::UnmatchedConsume {
                kind: TraceKind::Deliver,
                ..
            }]
        ));
    }

    #[test]
    fn double_consume_is_reported() {
        let mut a = TraceAuditor::new();
        a.observe(&ev(1.0, TraceKind::Send, 0, 1));
        a.observe(&ev(1.0, TraceKind::Deliver, 0, 1));
        a.observe(&ev(1.0, TraceKind::Drop, 0, 1));
        let r = a.finish();
        assert!(matches!(
            r.violations[..],
            [AuditViolation::UnmatchedConsume {
                kind: TraceKind::Drop,
                ..
            }]
        ));
    }

    #[test]
    fn repeated_sends_on_one_key_are_counted() {
        // FIFO clamping can legitimately give two sends on the same
        // ordered pair the same arrival time.
        let mut a = TraceAuditor::new();
        a.observe(&ev(5.0, TraceKind::Send, 0, 1));
        a.observe(&ev(5.0, TraceKind::Send, 0, 1));
        a.observe(&ev(5.0, TraceKind::Deliver, 0, 1));
        let r = a.finish();
        assert_eq!(
            r.violations,
            vec![AuditViolation::UnmatchedSend {
                from: ActorId(0),
                to: ActorId(1),
                at: t(5.0),
                count: 1,
            }]
        );
    }

    #[test]
    fn link_drop_consumes_its_send() {
        let mut a = TraceAuditor::new();
        a.observe(&ev(1.0, TraceKind::Send, 0, 1));
        a.observe(&ev(1.0, TraceKind::LinkDrop, 0, 1));
        // A duplicated message is two sends consumed by two delivers.
        a.observe(&ev(2.0, TraceKind::Send, 0, 1));
        a.observe(&ev(2.5, TraceKind::Send, 0, 1));
        a.observe(&ev(2.0, TraceKind::Deliver, 0, 1));
        a.observe(&ev(2.5, TraceKind::Deliver, 0, 1));
        let r = a.finish();
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.link_drops, 1);
        assert_eq!(r.sends, r.delivers + r.drops + r.link_drops);
    }

    #[test]
    fn crash_recover_alternation_is_enforced() {
        let mut a = TraceAuditor::new();
        a.observe(&ev(1.0, TraceKind::Crash, 2, 2));
        a.observe(&ev(2.0, TraceKind::Recover, 2, 2));
        a.observe(&ev(3.0, TraceKind::Recover, 2, 2));
        a.observe(&ev(4.0, TraceKind::Crash, 3, 3));
        a.observe(&ev(5.0, TraceKind::Crash, 3, 3));
        let r = a.finish();
        assert_eq!(
            r.violations,
            vec![
                AuditViolation::RecoverWhileUp {
                    actor: ActorId(2),
                    at: t(3.0),
                },
                AuditViolation::CrashWhileDown {
                    actor: ActorId(3),
                    at: t(5.0),
                },
            ]
        );
    }

    /// Echoes every message back to its sender, `bounces` times.
    struct Echo {
        bounces: u32,
    }

    impl Actor for Echo {
        type Msg = u32;
        fn on_message(&mut self, from: ActorId, msg: u32, ctx: &mut Ctx<'_, u32>) {
            if self.bounces > 0 && from != ActorId::EXTERNAL {
                self.bounces -= 1;
                ctx.send(from, msg + 1, SimDuration::from_units(1.0));
            } else if from == ActorId::EXTERNAL {
                // Kick off the rally with a peer chosen by convention: the
                // other of actors 0 and 1.
                let peer = ActorId(1 - ctx.me().0);
                ctx.send(peer, msg, SimDuration::from_units(1.0));
            }
        }
    }

    #[test]
    fn live_engine_run_with_failures_audits_clean() {
        let mut sim: ActorSim<u32> = ActorSim::new(7).with_trace();
        let a = sim.add_actor(Echo { bounces: 5 });
        let b = sim.add_actor(Echo { bounces: 5 });
        sim.inject(a, 0, SimDuration::from_units(0.5));
        // Crash the peer mid-rally so some sends become drops, and
        // recover it before the rally's retries would matter.
        sim.schedule_crash(b, t(2.5));
        sim.schedule_recover(b, t(4.5));
        assert!(sim.run_to_quiescence_bounded(EVENT_BUDGET));

        let r = audit_trace(sim.trace());
        assert!(r.is_clean(), "{r}");
        assert!(r.sends > 0 && r.crashes == 1 && r.recoveries == 1);
        assert_eq!(r.sends, r.delivers + r.drops);
    }

    #[test]
    fn send_to_unknown_actor_still_conserves() {
        let mut sim: ActorSim<u32> = ActorSim::new(7).with_trace();
        let a = sim.add_actor(Echo { bounces: 0 });
        sim.inject(a, 0, SimDuration::ZERO);
        sim.inject(ActorId(99), 1, SimDuration::ZERO);
        assert!(sim.run_to_quiescence_bounded(EVENT_BUDGET));
        let r = audit_trace(sim.trace());
        assert!(r.is_clean(), "{r}");
        assert!(r.drops >= 1);
    }
}
