//! Causal message-lifecycle spans.
//!
//! A *span* follows one unit of end-to-end work — a mail message from
//! submission to retrieval, or a GetMail check from its first poll to its
//! last — across every actor it touches. The engine's [`crate::trace`]
//! records raw link events; spans sit one level up, at the protocol layer,
//! where retries, name resolution, and responsibility hand-offs are
//! visible.
//!
//! Spans obey a conservation law, checked by [`audit_spans`]: every span
//! opens with exactly one opening stage and terminates in exactly one
//! terminal stage, with session-layer retries accounted as non-zero
//! `attempt` numbers on [`SpanStage::Probe`] events.
//!
//! Recording is deliberately decoupled from the engine: a [`SpanLog`] is
//! shared by the domain actors (via `Rc<RefCell<..>>`, like their stats
//! ledgers) and never touches the scheduler or any RNG stream, so enabling
//! spans cannot perturb event order — the determinism pins hold by
//! construction.

use std::collections::BTreeMap;
use std::fmt;

use crate::time::SimTime;

/// Sentinel for "no node involved" in [`SpanEvent::site`] / [`SpanEvent::peer`].
pub const NO_NODE: u64 = u64::MAX;

/// Identifies one span. Allocated densely from 0 in open order, so ids are
/// deterministic for a fixed seed and double as stable export keys.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub struct SpanId(pub u64);

/// The id handed out when recording is disabled.
pub const NO_SPAN: SpanId = SpanId(u64::MAX);

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// One step in a span's life. Stage payloads live in the uniform numeric
/// fields of [`SpanEvent`] (`site`, `peer`, `detail`) so events stay `Copy`
/// and export without per-variant schemas.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpanStage {
    /// Opening: a user handed mail to the UI (message spans).
    Submitted,
    /// Opening: a GetMail session started (check spans).
    CheckStarted,
    /// A session-layer probe left `site` for `peer`; `detail` is the
    /// 0-based attempt number — `detail > 0` is a retransmission.
    Probe,
    /// `peer` acknowledged and responsibility transferred away from `site`.
    Accepted,
    /// A server at `site` resolved the recipient; `detail` is a
    /// [`ResolveCode`].
    Resolved,
    /// A server at `site` handed the message to the authority at `peer`.
    Forwarded,
    /// The message reached stable storage at server `site`.
    Deposited,
    /// Server `site` alerted the recipient's host `peer`.
    Notified,
    /// Terminal: the recipient pulled the message down to host `site`.
    Retrieved,
    /// Terminal: the message was returned to sender; `detail` is a
    /// [`BounceCode`].
    Bounced,
    /// Terminal: the GetMail session finished; `detail` is the number of
    /// server polls it took.
    CheckDone,
}

impl SpanStage {
    /// Every stage, in the order [`SpanStage::name`] lists them.
    pub const ALL: [SpanStage; 11] = [
        SpanStage::Submitted,
        SpanStage::CheckStarted,
        SpanStage::Probe,
        SpanStage::Accepted,
        SpanStage::Resolved,
        SpanStage::Forwarded,
        SpanStage::Deposited,
        SpanStage::Notified,
        SpanStage::Retrieved,
        SpanStage::Bounced,
        SpanStage::CheckDone,
    ];

    /// True for stages that open a span.
    pub(crate) fn is_opening(self) -> bool {
        matches!(self, SpanStage::Submitted | SpanStage::CheckStarted)
    }

    /// True for stages that terminate a span.
    pub(crate) fn is_terminal(self) -> bool {
        matches!(
            self,
            SpanStage::Retrieved | SpanStage::Bounced | SpanStage::CheckDone
        )
    }

    /// Stable lowercase name, used by the JSONL export and the inspector.
    pub fn name(self) -> &'static str {
        match self {
            SpanStage::Submitted => "submitted",
            SpanStage::CheckStarted => "check-started",
            SpanStage::Probe => "probe",
            SpanStage::Accepted => "accepted",
            SpanStage::Resolved => "resolved",
            SpanStage::Forwarded => "forwarded",
            SpanStage::Deposited => "deposited",
            SpanStage::Notified => "notified",
            SpanStage::Retrieved => "retrieved",
            SpanStage::Bounced => "bounced",
            SpanStage::CheckDone => "check-done",
        }
    }

    /// Parses a [`SpanStage::name`] back into a stage.
    pub fn from_name(s: &str) -> Option<SpanStage> {
        Some(match s {
            "submitted" => SpanStage::Submitted,
            "check-started" => SpanStage::CheckStarted,
            "probe" => SpanStage::Probe,
            "accepted" => SpanStage::Accepted,
            "resolved" => SpanStage::Resolved,
            "forwarded" => SpanStage::Forwarded,
            "deposited" => SpanStage::Deposited,
            "notified" => SpanStage::Notified,
            "retrieved" => SpanStage::Retrieved,
            "bounced" => SpanStage::Bounced,
            "check-done" => SpanStage::CheckDone,
            _ => return None,
        })
    }
}

impl fmt::Display for SpanStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// `detail` codes for [`SpanStage::Bounced`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BounceCode {
    /// The recipient name failed to resolve anywhere.
    UnknownRecipient,
    /// Every authority server for the recipient was unavailable.
    AllServersDown,
    /// The recipient region was unreachable.
    RegionUnreachable,
}

impl BounceCode {
    /// The wire value stored in [`SpanEvent::detail`].
    pub fn as_detail(self) -> u64 {
        match self {
            BounceCode::UnknownRecipient => 0,
            BounceCode::AllServersDown => 1,
            BounceCode::RegionUnreachable => 2,
        }
    }
}

/// `detail` codes for [`SpanStage::Resolved`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ResolveCode {
    /// This server is the recipient's authority.
    LocalAuthority,
    /// Another server in this region is the authority.
    RegionalAuthority,
    /// The recipient lives in another region.
    ForwardToRegion,
    /// Resolution failed.
    Failed,
}

impl ResolveCode {
    /// The wire value stored in [`SpanEvent::detail`].
    pub fn as_detail(self) -> u64 {
        match self {
            ResolveCode::LocalAuthority => 0,
            ResolveCode::RegionalAuthority => 1,
            ResolveCode::ForwardToRegion => 2,
            ResolveCode::Failed => 3,
        }
    }
}

/// One recorded span event.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SpanEvent {
    /// When the event happened (sim time; never wall clock).
    pub at: SimTime,
    /// The span this event belongs to.
    pub span: SpanId,
    /// What happened.
    pub stage: SpanStage,
    /// Raw node id where the event happened ([`NO_NODE`] when none).
    pub site: u64,
    /// The other node involved, if any ([`NO_NODE`] when none).
    pub peer: u64,
    /// Stage-specific payload: attempt number for `Probe`, poll count for
    /// `CheckDone`, a [`BounceCode`] / [`ResolveCode`] wire value, else 0.
    pub detail: u64,
}

impl fmt::Display for SpanEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {} {}", self.at, self.span, self.stage.name())?;
        if self.site != NO_NODE {
            write!(f, " @n{}", self.site)?;
        }
        if self.peer != NO_NODE {
            write!(f, " ->n{}", self.peer)?;
        }
        if self.detail != 0 {
            write!(f, " #{}", self.detail)?;
        }
        Ok(())
    }
}

/// An append-only log of [`SpanEvent`]s with deterministic id allocation.
///
/// Disabled by default (the engine's default everywhere): `open` returns
/// [`NO_SPAN`] and `record` is a no-op, so the instrumented hot paths cost
/// one branch. Enabled, it keeps every event.
///
/// # Examples
///
/// ```
/// use lems_sim::span::{SpanLog, SpanStage};
/// use lems_sim::time::SimTime;
///
/// let mut log = SpanLog::unbounded();
/// let s = log.open_keyed(7, SimTime::ZERO, SpanStage::Submitted, 0);
/// assert_eq!(log.span_of(7), Some(s));
/// log.record(SimTime::from_units(1.0), s, SpanStage::Retrieved, 2, 0, 0);
/// assert_eq!(log.events().len(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SpanLog {
    enabled: bool,
    events: Vec<SpanEvent>,
    next: u64,
    /// The span of each external key (e.g. a message id), indexed by the
    /// key, for events recorded by actors that only know the domain key;
    /// [`NO_SPAN`] where no span was opened under it.
    by_key: Vec<SpanId>,
}

/// How far [`SpanLog::open_keyed`] lets a key run ahead of the spans the
/// log has opened.
const MAX_KEY_LEAD: u64 = 1 << 20;

impl SpanLog {
    /// A log that records nothing ([`NO_SPAN`] for every open).
    pub fn disabled() -> Self {
        SpanLog::default()
    }

    /// A log that keeps every event.
    pub fn unbounded() -> Self {
        SpanLog {
            enabled: true,
            ..SpanLog::default()
        }
    }

    /// Rebuilds a log from previously exported events (e.g. a parsed
    /// trace dump) so [`audit_spans`] can run on the inspector side.
    pub fn from_events(events: Vec<SpanEvent>) -> Self {
        let next = events
            .iter()
            .map(|e| e.span.0.saturating_add(1))
            .max()
            .unwrap_or(0);
        SpanLog {
            enabled: true,
            events,
            next,
            by_key: Vec::new(),
        }
    }

    /// Opens a new span with opening stage `stage` at node `site`.
    /// Returns [`NO_SPAN`] when disabled.
    pub fn open(&mut self, at: SimTime, stage: SpanStage, site: u64) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let id = SpanId(self.next);
        self.next += 1;
        self.events.push(SpanEvent {
            at,
            span: id,
            stage,
            site,
            peer: NO_NODE,
            detail: 0,
        });
        id
    }

    /// Opens a new span and associates it with external key `key` so later
    /// events can find it via [`SpanLog::span_of`].
    ///
    /// Keys are dense from 0, as `MessageIdGen` hands them out: the log
    /// keeps one slot per key up to the largest, in any order and with any
    /// gaps, so a key should not run far ahead of the spans opened.
    ///
    /// # Panics
    ///
    /// Panics if `key` is more than 2²⁰ past the number of spans this log
    /// has opened: a key that is no dense index would otherwise grow the
    /// table without bound.
    pub fn open_keyed(&mut self, key: u64, at: SimTime, stage: SpanStage, site: u64) -> SpanId {
        let id = self.open(at, stage, site);
        if self.enabled {
            assert!(
                key < self.next + MAX_KEY_LEAD,
                "span key {key} is no dense index: {} spans opened",
                self.next
            );
            let slot = key as usize;
            if slot >= self.by_key.len() {
                self.by_key.resize(slot + 1, NO_SPAN);
            }
            self.by_key[slot] = id;
        }
        id
    }

    /// The span registered under `key`, if any.
    pub fn span_of(&self, key: u64) -> Option<SpanId> {
        let &id = self.by_key.get(usize::try_from(key).ok()?)?;
        (id != NO_SPAN).then_some(id)
    }

    /// Records an event on an existing span (no-op when disabled or when
    /// `span` is [`NO_SPAN`]).
    pub fn record(
        &mut self,
        at: SimTime,
        span: SpanId,
        stage: SpanStage,
        site: u64,
        peer: u64,
        detail: u64,
    ) {
        if !self.enabled || span == NO_SPAN {
            return;
        }
        self.events.push(SpanEvent {
            at,
            span,
            stage,
            site,
            peer,
            detail,
        });
    }

    /// Records an event on the span registered under `key`, if one exists.
    pub fn record_keyed(
        &mut self,
        at: SimTime,
        key: u64,
        stage: SpanStage,
        site: u64,
        peer: u64,
        detail: u64,
    ) {
        if let Some(span) = self.span_of(key) {
            self.record(at, span, stage, site, peer, detail);
        }
    }

    /// The recorded events, in record order.
    pub fn events(&self) -> &[SpanEvent] {
        &self.events
    }

    /// Number of spans ever opened.
    pub(crate) fn spans_opened(&self) -> u64 {
        self.next
    }
}

/// A violation of the span conservation law.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SpanViolation {
    /// An event referenced a span that was never opened.
    EventWithoutOpen {
        /// The orphaned span id.
        span: SpanId,
    },
    /// A span recorded more than one opening stage.
    MultipleOpen {
        /// The offending span.
        span: SpanId,
    },
    /// A span recorded more than one terminal stage.
    MultipleTerminal {
        /// The offending span.
        span: SpanId,
        /// Number of terminal events seen.
        terminals: u64,
    },
    /// A span never reached a terminal stage (only reported when the
    /// auditor is told the run drained).
    NeverTerminated {
        /// The offending span.
        span: SpanId,
    },
    /// A non-opening event preceded the span's opening stage.
    EventBeforeOpen {
        /// The offending span.
        span: SpanId,
    },
}

impl fmt::Display for SpanViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpanViolation::EventWithoutOpen { span } => {
                write!(f, "span {span} has events but no opening stage")
            }
            SpanViolation::MultipleOpen { span } => {
                write!(f, "span {span} opened more than once")
            }
            SpanViolation::MultipleTerminal { span, terminals } => {
                write!(f, "span {span} reached {terminals} terminal stages")
            }
            SpanViolation::NeverTerminated { span } => {
                write!(f, "span {span} never reached a terminal stage")
            }
            SpanViolation::EventBeforeOpen { span } => {
                write!(f, "span {span} recorded events before its opening stage")
            }
        }
    }
}

/// What [`audit_spans`] found.
#[derive(Clone, Debug, Default)]
pub struct SpanAuditReport {
    /// Conservation violations, in discovery order.
    pub violations: Vec<SpanViolation>,
    /// Spans opened.
    pub opened: u64,
    /// Spans that reached [`SpanStage::Retrieved`].
    pub retrieved: u64,
    /// Spans that reached [`SpanStage::Bounced`].
    pub bounced: u64,
    /// Spans that reached [`SpanStage::CheckDone`].
    pub checks_done: u64,
    /// Spans still open (no terminal stage).
    pub(crate) open_ended: u64,
    /// Session-layer retransmissions: [`SpanStage::Probe`] events with a
    /// non-zero attempt number.
    pub retransmits: u64,
}

impl SpanAuditReport {
    /// True when no violations were found.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for SpanAuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} span(s): {} retrieved, {} bounced, {} check(s) done, \
             {} open-ended, {} retransmit(s), {} violation(s)",
            self.opened,
            self.retrieved,
            self.bounced,
            self.checks_done,
            self.open_ended,
            self.retransmits,
            self.violations.len()
        )
    }
}

/// Checks the span conservation law over `log`.
///
/// Every span must open with exactly one opening stage, which must be its
/// first event, and reach at most one terminal stage. When
/// `require_terminal` is set (the run drained to quiescence with all work
/// accounted), a span with no terminal stage is a violation: mail silently
/// stuck in the pipeline. Events recorded *after* a terminal stage are
/// tolerated — a crash-replayed duplicate can deposit a residual copy
/// after the original was retrieved — but a second terminal is not.
pub fn audit_spans(log: &SpanLog, require_terminal: bool) -> SpanAuditReport {
    #[derive(Default)]
    struct SpanState {
        opens: u64,
        terminals: u64,
        saw_event_first: bool,
        last_terminal: Option<SpanStage>,
    }

    let mut report = SpanAuditReport {
        opened: log.spans_opened(),
        ..SpanAuditReport::default()
    };
    let mut states: BTreeMap<SpanId, SpanState> = BTreeMap::new();

    for e in log.events() {
        let st = states.entry(e.span).or_default();
        if e.stage.is_opening() {
            st.opens += 1;
        } else {
            if st.opens == 0 {
                st.saw_event_first = true;
            }
            if e.stage.is_terminal() {
                st.terminals += 1;
                st.last_terminal = Some(e.stage);
            }
            if e.stage == SpanStage::Probe && e.detail > 0 {
                report.retransmits += 1;
            }
        }
    }

    for (span, st) in &states {
        if st.opens == 0 {
            report
                .violations
                .push(SpanViolation::EventWithoutOpen { span: *span });
            continue;
        }
        if st.saw_event_first {
            report
                .violations
                .push(SpanViolation::EventBeforeOpen { span: *span });
        }
        if st.opens > 1 {
            report
                .violations
                .push(SpanViolation::MultipleOpen { span: *span });
        }
        match st.terminals {
            0 => {
                report.open_ended += 1;
                if require_terminal {
                    report
                        .violations
                        .push(SpanViolation::NeverTerminated { span: *span });
                }
            }
            1 => match st.last_terminal {
                Some(SpanStage::Retrieved) => report.retrieved += 1,
                Some(SpanStage::Bounced) => report.bounced += 1,
                Some(SpanStage::CheckDone) => report.checks_done += 1,
                _ => {}
            },
            n => report.violations.push(SpanViolation::MultipleTerminal {
                span: *span,
                terminals: n,
            }),
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(u: f64) -> SimTime {
        SimTime::from_units(u)
    }

    #[test]
    fn disabled_log_is_free() {
        let mut log = SpanLog::disabled();
        let s = log.open(t(0.0), SpanStage::Submitted, 1);
        assert_eq!(s, NO_SPAN);
        log.record(t(1.0), s, SpanStage::Retrieved, 2, NO_NODE, 0);
        assert!(log.events().is_empty());
        assert_eq!(log.spans_opened(), 0);
    }

    #[test]
    fn keyed_lookup_round_trips() {
        let mut log = SpanLog::unbounded();
        let a = log.open_keyed(10, t(0.0), SpanStage::Submitted, 1);
        let b = log.open_keyed(11, t(0.5), SpanStage::Submitted, 2);
        assert_eq!(log.span_of(10), Some(a));
        assert_eq!(log.span_of(11), Some(b));
        assert_eq!(log.span_of(12), None);
        assert_ne!(a, b);
        log.record_keyed(t(1.0), 10, SpanStage::Deposited, 5, NO_NODE, 0);
        assert_eq!(log.events().len(), 3);
        assert_eq!(log.events()[2].span, a);
    }

    #[test]
    fn keys_index_a_dense_table() {
        let mut log = SpanLog::unbounded();
        // Out of order, with a gap at 2 and nothing past 4.
        let four = log.open_keyed(4, t(0.0), SpanStage::Submitted, 1);
        let zero = log.open_keyed(0, t(0.5), SpanStage::Submitted, 1);
        let three = log.open_keyed(3, t(1.0), SpanStage::Submitted, 1);
        let one = log.open_keyed(1, t(1.5), SpanStage::Submitted, 1);
        for (key, span) in [(0, zero), (1, one), (3, three), (4, four)] {
            assert_eq!(log.span_of(key), Some(span), "key {key}");
        }
        assert_eq!(log.span_of(2), None, "a gap was never opened");
        assert_eq!(log.span_of(5), None, "past the end");
        assert_eq!(log.span_of(u64::MAX), None);
        // An event on a key never opened goes nowhere.
        log.record_keyed(t(2.0), 2, SpanStage::Deposited, 5, NO_NODE, 0);
        assert_eq!(log.events().len(), 4);
        // A disabled log keeps no table at all.
        let mut off = SpanLog::disabled();
        off.open_keyed(u64::MAX, t(0.0), SpanStage::Submitted, 1);
        assert_eq!(off.span_of(u64::MAX), None);
    }

    #[test]
    #[should_panic(expected = "no dense index")]
    fn an_absurd_key_fails_loudly() {
        let mut log = SpanLog::unbounded();
        log.open_keyed(1 << 40, t(0.0), SpanStage::Submitted, 1);
    }

    #[test]
    fn ids_are_dense_and_deterministic() {
        let mut log = SpanLog::unbounded();
        for i in 0..5 {
            let s = log.open(t(0.0), SpanStage::Submitted, i);
            assert_eq!(s, SpanId(i));
        }
        assert_eq!(log.spans_opened(), 5);
    }

    fn clean_log() -> SpanLog {
        let mut log = SpanLog::unbounded();
        let m = log.open_keyed(100, t(1.0), SpanStage::Submitted, 0);
        log.record(t(1.1), m, SpanStage::Probe, 0, 4, 0);
        log.record(t(1.4), m, SpanStage::Probe, 0, 4, 1); // one retransmit
        log.record(t(1.5), m, SpanStage::Accepted, 0, 4, 0);
        log.record(
            t(1.6),
            m,
            SpanStage::Resolved,
            4,
            NO_NODE,
            ResolveCode::LocalAuthority.as_detail(),
        );
        log.record(t(1.7), m, SpanStage::Deposited, 4, NO_NODE, 0);
        log.record(t(1.8), m, SpanStage::Notified, 4, 2, 0);
        let c = log.open(t(3.0), SpanStage::CheckStarted, 2);
        log.record(t(3.1), c, SpanStage::Probe, 2, 4, 0);
        log.record(t(3.5), m, SpanStage::Retrieved, 2, 4, 0);
        log.record(t(3.6), c, SpanStage::CheckDone, 2, NO_NODE, 1);
        log
    }

    #[test]
    fn conservation_holds_on_clean_lifecycle() {
        let report = audit_spans(&clean_log(), true);
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.opened, 2);
        assert_eq!(report.retrieved, 1);
        assert_eq!(report.checks_done, 1);
        assert_eq!(report.retransmits, 1);
        assert_eq!(report.open_ended, 0);
    }

    #[test]
    fn double_terminal_is_caught() {
        let mut log = clean_log();
        let m = log.span_of(100).expect("span 100 was opened");
        log.record(t(4.0), m, SpanStage::Retrieved, 2, NO_NODE, 0);
        let report = audit_spans(&log, true);
        assert_eq!(
            report.violations,
            vec![SpanViolation::MultipleTerminal {
                span: m,
                terminals: 2
            }]
        );
    }

    #[test]
    fn unterminated_span_flags_only_when_required() {
        let mut log = SpanLog::unbounded();
        let m = log.open(t(0.0), SpanStage::Submitted, 1);
        log.record(t(0.5), m, SpanStage::Deposited, 4, NO_NODE, 0);
        let lax = audit_spans(&log, false);
        assert!(lax.is_clean());
        assert_eq!(lax.open_ended, 1);
        let strict = audit_spans(&log, true);
        assert_eq!(
            strict.violations,
            vec![SpanViolation::NeverTerminated { span: m }]
        );
    }

    #[test]
    fn event_without_open_is_caught() {
        let mut log = SpanLog::unbounded();
        // Forge an event on a span id that was never opened.
        let ghost = SpanId(99);
        log.record(t(1.0), ghost, SpanStage::Deposited, 4, NO_NODE, 0);
        let report = audit_spans(&log, false);
        assert_eq!(
            report.violations,
            vec![SpanViolation::EventWithoutOpen { span: ghost }]
        );
    }

    #[test]
    fn residual_events_after_terminal_are_tolerated() {
        // A crash-replayed duplicate deposits a residual copy after the
        // original retrieval: non-terminal residue must not violate.
        let mut log = clean_log();
        let m = log.span_of(100).expect("span 100 was opened");
        log.record(t(5.0), m, SpanStage::Deposited, 5, NO_NODE, 0);
        let report = audit_spans(&log, true);
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn codes_round_trip() {
        // Each code has its own detail value.
        let bounce = [
            BounceCode::UnknownRecipient,
            BounceCode::AllServersDown,
            BounceCode::RegionUnreachable,
        ]
        .map(BounceCode::as_detail);
        assert_eq!(bounce, [0, 1, 2]);
        let resolve = [
            ResolveCode::LocalAuthority,
            ResolveCode::RegionalAuthority,
            ResolveCode::ForwardToRegion,
            ResolveCode::Failed,
        ]
        .map(ResolveCode::as_detail);
        assert_eq!(resolve, [0, 1, 2, 3]);
        for stage in SpanStage::ALL {
            assert_eq!(SpanStage::from_name(stage.name()), Some(stage));
        }
        assert_eq!(SpanStage::from_name("nope"), None);
    }

    #[test]
    fn display_is_informative() {
        let e = SpanEvent {
            at: t(2.0),
            span: SpanId(3),
            stage: SpanStage::Probe,
            site: 1,
            peer: 4,
            detail: 2,
        };
        let s = format!("{e}");
        assert!(s.contains("s3") && s.contains("probe") && s.contains("n1") && s.contains("n4"));
    }
}
