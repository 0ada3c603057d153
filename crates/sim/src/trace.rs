//! In-memory event tracing.
//!
//! Tracing is off by default (zero cost beyond a branch); tests and the
//! debugging binaries enable it to inspect message flow. An enabled trace
//! keeps every event: the auditors that read it check conservation laws
//! over the whole stream, which a missing prefix would break.

use crate::actor::ActorId;
use crate::time::SimTime;

/// What happened.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceKind {
    /// A message was scheduled for delivery.
    Send,
    /// A message reached a live actor.
    Deliver,
    /// A message was dropped because its destination was down.
    Drop,
    /// A message was lost on the wire (link outage or probabilistic loss).
    LinkDrop,
    /// An actor crashed.
    Crash,
    /// An actor recovered.
    Recover,
}

impl std::fmt::Display for TraceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            TraceKind::Send => "send",
            TraceKind::Deliver => "deliver",
            TraceKind::Drop => "drop",
            TraceKind::LinkDrop => "link-drop",
            TraceKind::Crash => "crash",
            TraceKind::Recover => "recover",
        };
        f.write_str(s)
    }
}

/// One traced event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    /// When the event took effect.
    pub at: SimTime,
    /// The kind of event.
    pub kind: TraceKind,
    /// Source actor (equal to `to` for crash/recover).
    pub from: ActorId,
    /// Destination actor.
    pub to: ActorId,
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {} {} -> {}",
            self.at, self.kind, self.from, self.to
        )
    }
}

/// Every [`TraceEvent`] since the trace was enabled, or none.
///
/// # Examples
///
/// ```
/// use lems_sim::trace::{Trace, TraceKind};
/// use lems_sim::actor::ActorId;
/// use lems_sim::time::SimTime;
///
/// let mut t = Trace::unbounded();
/// t.record(SimTime::ZERO, TraceKind::Send, ActorId(0), ActorId(1));
/// t.record(SimTime::ZERO, TraceKind::Deliver, ActorId(0), ActorId(1));
/// assert_eq!(t.events().count(), 2);
/// assert_eq!(Trace::disabled().events().count(), 0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Trace {
    enabled: bool,
    events: Vec<TraceEvent>,
}

impl Trace {
    /// A trace that records nothing.
    pub fn disabled() -> Self {
        Trace::default()
    }

    /// A trace that keeps every event.
    pub fn unbounded() -> Self {
        Trace {
            enabled: true,
            events: Vec::new(),
        }
    }

    /// Records an event (no-op when disabled).
    pub fn record(&mut self, at: SimTime, kind: TraceKind, from: ActorId, to: ActorId) {
        if self.enabled {
            self.events.push(TraceEvent { at, kind, from, to });
        }
    }

    /// The recorded events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// FNV-1a digest over the rendered event stream: each event's
    /// `Display` form followed by a newline, hashed in order.
    ///
    /// Two traces digest equal exactly when every event matches in
    /// order, timing, kind, and endpoints — the regression currency for
    /// kernel refactors (`tests/kernel_equivalence.rs` pins runs against
    /// digests captured on earlier engines). The rendering is streamed
    /// through the hasher, so digesting allocates nothing per event.
    pub fn digest(&self) -> u64 {
        use std::fmt::Write as _;
        struct Fnv(u64);
        impl std::fmt::Write for Fnv {
            fn write_str(&mut self, s: &str) -> std::fmt::Result {
                for b in s.bytes() {
                    self.0 ^= u64::from(b);
                    self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
                }
                Ok(())
            }
        }
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        for ev in self.events() {
            // Writing into `Fnv` cannot fail; the result only propagates the
            // formatter contract.
            let _ = writeln!(h, "{ev}");
        }
        h.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        t.record(SimTime::ZERO, TraceKind::Send, ActorId(0), ActorId(1));
        assert_eq!(t.events().count(), 0);
    }

    #[test]
    fn unbounded_trace_never_evicts() {
        let mut t = Trace::unbounded();
        for i in 0..10_000 {
            t.record(
                SimTime::from_ticks(i),
                TraceKind::Send,
                ActorId(0),
                ActorId(1),
            );
        }
        assert_eq!(t.events().count(), 10_000);
    }

    #[test]
    fn digest_matches_rendered_stream_reference() {
        let mut t = Trace::unbounded();
        t.record(
            SimTime::from_units(1.0),
            TraceKind::Send,
            ActorId(0),
            ActorId(1),
        );
        t.record(
            SimTime::from_units(2.0),
            TraceKind::Deliver,
            ActorId(0),
            ActorId(1),
        );
        t.record(
            SimTime::from_units(2.0),
            TraceKind::Crash,
            ActorId(1),
            ActorId(1),
        );
        // Reference implementation: format every event, hash the bytes.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for ev in t.events() {
            for b in format!("{ev}\n").bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        }
        assert_eq!(t.digest(), h);
    }

    #[test]
    fn digest_distinguishes_order_and_content() {
        let mut a = Trace::unbounded();
        a.record(SimTime::ZERO, TraceKind::Send, ActorId(0), ActorId(1));
        a.record(SimTime::ZERO, TraceKind::Deliver, ActorId(0), ActorId(1));
        let mut b = Trace::unbounded();
        b.record(SimTime::ZERO, TraceKind::Deliver, ActorId(0), ActorId(1));
        b.record(SimTime::ZERO, TraceKind::Send, ActorId(0), ActorId(1));
        assert_ne!(a.digest(), b.digest(), "order must matter");
        let mut c = Trace::unbounded();
        c.record(SimTime::ZERO, TraceKind::Send, ActorId(0), ActorId(2));
        c.record(SimTime::ZERO, TraceKind::Deliver, ActorId(0), ActorId(2));
        assert_ne!(a.digest(), c.digest(), "endpoints must matter");
        assert_eq!(Trace::disabled().digest(), Trace::default().digest());
    }

    #[test]
    fn display_is_informative() {
        let e = TraceEvent {
            at: SimTime::from_units(1.0),
            kind: TraceKind::Drop,
            from: ActorId(3),
            to: ActorId(7),
        };
        let s = format!("{e}");
        assert!(s.contains("drop") && s.contains("a3") && s.contains("a7"));
    }
}
