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
//! [`verdict`] is the one judgement of a finished run: those laws plus
//! the mail ledgers by message id, span conservation, and the store
//! recoveries. `lems-check audit` and `lems-check explore` hand every
//! terminal run to it.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use lems_core::message::MessageId;
use lems_sim::actor::ActorId;
use lems_sim::span::audit_spans;
use lems_sim::time::SimTime;
use lems_sim::trace::{Trace, TraceEvent, TraceKind};
use lems_syntax::actors::Deployment;

/// One broken trace law.
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
        }
    }
}

/// Result of an audit pass.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    /// Broken invariants, in detection order.
    pub(crate) violations: Vec<AuditViolation>,
    /// Sends observed.
    pub sends: u64,
    /// Delivers observed.
    pub delivers: u64,
    /// Drops observed.
    pub drops: u64,
    /// Messages lost on the wire (link outages, probabilistic loss).
    pub(crate) link_drops: u64,
    /// Crashes observed.
    pub crashes: u64,
    /// Recoveries observed.
    pub recoveries: u64,
}

impl AuditReport {
    /// True when every invariant held.
    pub(crate) fn is_clean(&self) -> bool {
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
/// Feed events in stream order via `observe`,
/// then call `finish` to flush end-of-stream
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
    pub(crate) fn new() -> Self {
        TraceAuditor::default()
    }

    /// Consumes one event.
    pub(crate) fn observe(&mut self, ev: &TraceEvent) {
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
    pub(crate) fn observe_all<'a>(&mut self, events: impl IntoIterator<Item = &'a TraceEvent>) {
        for ev in events {
            self.observe(ev);
        }
    }

    /// Flushes end-of-stream checks and returns the report.
    pub(crate) fn finish(mut self) -> AuditReport {
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

/// The judgement of a finished run, one line per broken clause (empty =
/// clean). `quiesced` is whether the run drained within its event budget.
///
/// Every scenario ends with every server up and every user checking mail
/// until quiet, so a finished run must have settled all of its mail. `d`
/// must record its trace and spans from before the first injection
/// ([`RunSpec::build`](crate::scenarios::RunSpec::build) switches both
/// on).
///
/// * **no-stuck-retry** — the run quiesced;
/// * **trace conservation** — the laws of [`audit_trace`];
/// * **id ledgers** — retrieved and bounced ids were submitted and are
///   disjoint, and the submitted, retrieved and bounced counters agree
///   with their ledgers; nothing is outstanding, and every stored id was
///   submitted, not bounced, and retrieved. A stored *retrieved* id is
///   tolerated: at-least-once submission over a lossy wire can legally
///   deposit a message on two authority servers (the ack for the first
///   deposit was lost), the UI dedups on retrieval, and the residue copy
///   is indistinguishable from unread mail to the server holding it. The
///   transport counted no wiring errors;
/// * **span conservation** — every span reaches at most one terminal
///   stage, exactly one if the run quiesced, and the spans count as many
///   retransmissions as the session layer;
/// * **durability** — no store recovery reports lost mail.
pub fn verdict(d: &Deployment, quiesced: bool) -> Vec<String> {
    let mut out = Vec::new();
    if !quiesced {
        out.push(
            "no-stuck-retry: event budget exhausted without quiescence \
             (runaway retry loop?)"
                .to_owned(),
        );
    }
    out.extend(
        audit_trace(d.sim.trace())
            .violations
            .iter()
            .map(|v| format!("trace: {v}")),
    );

    let stats = d.stats.borrow();
    for id in &stats.ledger_retrieved {
        if !stats.ledger_submitted.contains(id) {
            out.push(format!("message {id:?} retrieved but never submitted"));
        }
        if stats.ledger_bounced.contains_key(id) {
            out.push(format!("message {id:?} both retrieved and bounced"));
        }
    }
    for id in stats.ledger_bounced.keys() {
        if !stats.ledger_submitted.contains(id) {
            out.push(format!("message {id:?} bounced but never submitted"));
        }
    }
    // A counter drifting from its ledger means something was counted
    // twice (e.g. a duplicate drain after a crash re-route) or not at all.
    for (what, counter, ids) in [
        ("retrieved", stats.retrieved, stats.ledger_retrieved.len()),
        ("submitted", stats.submitted, stats.ledger_submitted.len()),
        ("bounced", stats.bounced, stats.ledger_bounced.len()),
    ] {
        if counter != ids as u64 {
            out.push(format!(
                "{what} counter ({counter}) disagrees with the {what} ledger ({ids} unique ids)"
            ));
        }
    }

    let stored = d.stranded_mail();
    let stored_ids: BTreeSet<MessageId> = stored.iter().map(|&(_, _, id, _)| id).collect();
    let outstanding: Vec<&MessageId> = stats
        .ledger_submitted
        .iter()
        .filter(|id| !stats.ledger_retrieved.contains(id) && !stats.ledger_bounced.contains_key(id))
        .collect();
    for id in &outstanding {
        if !stored_ids.contains(id) {
            out.push(format!(
                "outstanding message {id:?} is nowhere in server storage (lost)"
            ));
        }
    }
    if !outstanding.is_empty() {
        out.push(format!(
            "run left {} message(s) outstanding (submitted {} retrieved {} bounced {})",
            outstanding.len(),
            stats.ledger_submitted.len(),
            stats.ledger_retrieved.len(),
            stats.ledger_bounced.len()
        ));
    }
    for id in &stored_ids {
        if !stats.ledger_submitted.contains(id) {
            out.push(format!("stored message {id:?} was never submitted"));
        }
        if stats.ledger_bounced.contains_key(id) {
            out.push(format!(
                "message {id:?} bounced yet still in server storage"
            ));
        }
    }
    for (node, owner, id, auth) in &stored {
        if !stats.ledger_retrieved.contains(id) {
            out.push(format!(
                "message {id:?} for {owner} stranded on server {node:?} (authorities {auth:?})"
            ));
        }
    }
    let wiring = d.transport.wiring_errors();
    if wiring != 0 {
        out.push(format!(
            "transport counted {wiring} wiring error(s) (sends to unbound/unknown nodes)"
        ));
    }

    let spans = audit_spans(&d.spans.borrow(), quiesced);
    out.extend(spans.violations.iter().map(|v| format!("span: {v}")));
    if spans.retransmits != stats.retransmits {
        out.push(format!(
            "span ledger disagrees with session stats: {} retransmit probe(s) \
             recorded in spans, {} counted by the session layer",
            spans.retransmits, stats.retransmits
        ));
    }

    for r in d.recoveries.borrow().iter() {
        if r.report.lost_messages > 0 {
            out.push(format!(
                "store recovery at {} on n{} lost {} acked message(s) (backend {})",
                r.at, r.site, r.report.lost_messages, r.report.backend
            ));
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
        let mut sim: ActorSim<u32> = ActorSim::new(7);
        sim.enable_trace();
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

    /// Each clause of the verdict catches a fault planted into an
    /// otherwise clean run.
    #[test]
    fn verdict_reports_one_planted_fault_per_clause() {
        use crate::scenarios::Scenario;
        use lems_core::store::{RecoveryReport, StoreRecovery};
        use lems_sim::span::SpanStage;

        let steady = || {
            let o = Scenario::named("steady").run(3);
            assert!(o.is_clean(), "{:?}", o.violations);
            o.deployment
        };
        let reports = |v: Vec<String>, needle: &str| {
            assert!(
                v.iter().any(|l| l.contains(needle)),
                "`{needle}` not reported: {v:?}"
            );
        };

        reports(verdict(&steady(), false), "no-stuck-retry");

        let d = steady();
        d.stats.borrow_mut().retrieved += 1;
        reports(verdict(&d, true), "retrieved counter");

        let d = steady();
        d.stats.borrow_mut().bounced += 1;
        reports(verdict(&d, true), "bounced counter");

        let d = steady();
        {
            let mut st = d.stats.borrow_mut();
            let id = *st.ledger_retrieved.iter().next().expect("steady retrieves");
            st.ledger_submitted.remove(&id);
        }
        reports(verdict(&d, true), "retrieved but never submitted");

        let d = steady();
        {
            let mut log = d.spans.borrow_mut();
            let e = *log
                .events()
                .iter()
                .find(|e| e.stage == SpanStage::Retrieved)
                .expect("steady retrieves");
            log.record(e.at, e.span, e.stage, e.site, e.peer, e.detail);
        }
        reports(verdict(&d, true), "terminal stages");

        let d = steady();
        d.recoveries.borrow_mut().push(StoreRecovery {
            at: d.sim.now(),
            site: 0,
            report: RecoveryReport {
                backend: "mem-volatile",
                lost_messages: 1,
                ..RecoveryReport::default()
            },
        });
        reports(verdict(&d, true), "lost 1 acked message");
    }

    #[test]
    fn send_to_unknown_actor_still_conserves() {
        let mut sim: ActorSim<u32> = ActorSim::new(7);
        sim.enable_trace();
        let a = sim.add_actor(Echo { bounces: 0 });
        sim.inject(a, 0, SimDuration::ZERO);
        sim.inject(ActorId(99), 1, SimDuration::ZERO);
        assert!(sim.run_to_quiescence_bounded(EVENT_BUDGET));
        let r = audit_trace(sim.trace());
        assert!(r.is_clean(), "{r}");
        assert!(r.drops >= 1);
    }
}
