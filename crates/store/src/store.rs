//! [`Store`]: the one [`MailStore`] — a server's [`StoreState`] and the
//! rule for what a crash keeps of it.
//!
//! A live operation calls the [`StoreState`] method its log record maps to
//! in [`apply`](crate::wal::apply), and that method reports whether it
//! changed anything: a fresh deposit, a release of at least one message,
//! a new or a settled forward, mail moved by a check. Only a change, and
//! only on a store with a log, builds a record; a store without one builds
//! none, so the log-less modes cost what the state costs.

use lems_core::message::{Message, MessageId};
use lems_core::name::MailName;
use lems_core::store::{
    MailStore, Mailboxes, PendingDrain, RecoveryReport, StoreMetrics, StoreState,
};
use lems_sim::time::SimTime;

use crate::codec::Record;
use crate::segment::MemSegments;
use crate::wal::Log;
use crate::{DurabilityConfig, StoreError};

/// What a crash keeps, by the [`DurabilityConfig`] a store was built for.
#[derive(Debug)]
pub(crate) enum Mode {
    /// `"mem-stable"`, the historical simulation model: nothing is lost,
    /// and crash and recovery are no-ops.
    Stable,
    /// `"mem-volatile"`, RAM only: a crash wipes everything but the
    /// roster. The counterexample to the log.
    Volatile,
    /// `"wal"`: a crash keeps the log's durable prefix, and recovery
    /// replays it.
    Wal(Log),
}

/// A server's mail store.
#[derive(Debug)]
pub struct Store {
    state: StoreState,
    pub(crate) mode: Mode,
    /// Messages held when the server crashed, until recovery counts how
    /// many came back.
    pre_crash_storage: Option<u64>,
}

impl Store {
    /// A store that holds nothing, for `cfg`; a WAL store's log is on a
    /// fresh simulated device.
    pub fn new(cfg: &DurabilityConfig) -> Self {
        let mode = match cfg {
            DurabilityConfig::Ideal => Mode::Stable,
            DurabilityConfig::Volatile => Mode::Volatile,
            DurabilityConfig::Wal(wal) => {
                Mode::Wal(Log::fresh(Box::new(MemSegments::new()), wal.clone()))
            }
        };
        Store {
            state: StoreState::default(),
            mode,
            pre_crash_storage: None,
        }
    }

    /// A WAL store over `io`, replaying whatever log it already holds:
    /// how the tests open a device with history, or a faulty one.
    #[cfg(test)]
    pub(crate) fn open(
        io: Box<dyn crate::segment::SegmentIo>,
        cfg: crate::WalConfig,
    ) -> Result<Self, StoreError> {
        let (log, state) = Log::open(io, cfg)?;
        Ok(Store {
            state,
            mode: Mode::Wal(log),
            pre_crash_storage: None,
        })
    }

    /// Read-only view of the full durable state.
    pub fn state(&self) -> &StoreState {
        &self.state
    }

    /// Raw bytes of one log segment (tests and forensic tooling).
    ///
    /// # Errors
    /// When the store has no log, the segment does not exist, or the
    /// device fails.
    pub fn read_segment(&self, seq: u64) -> Result<Vec<u8>, StoreError> {
        match &self.mode {
            Mode::Wal(log) => log.read_segment(seq),
            Mode::Stable | Mode::Volatile => Err(StoreError::Io("no log".into())),
        }
    }

    /// Appends `record()` to the log, if the store has one. Called once
    /// the state has reported that the operation changed it.
    fn log(&mut self, record: impl FnOnce() -> Record) {
        if let Mode::Wal(log) = &mut self.mode {
            log.append(&record(), &self.state);
        }
    }

    /// Rebuilds the state from the log, if there is one, and reports what
    /// the store holds now.
    fn reopen(&mut self) -> Result<RecoveryReport, StoreError> {
        let mut report = RecoveryReport {
            backend: self.backend(),
            ..RecoveryReport::default()
        };
        if let Mode::Wal(log) = &mut self.mode {
            let replay = log.reopen(self.state.emptied())?;
            report.replayed_records = replay.records;
            report.torn_bytes = replay.torn_bytes;
            report.segments = replay.segments;
            self.state = replay.state;
        }
        let state = &self.state;
        report.recovered_messages = state.mailbox_messages() as u64;
        report.recovered_pending = state.pending_messages() as u64;
        report.recovered_forwards = state.forwards.len() as u64;
        report.lost_messages = self
            .pre_crash_storage
            .take()
            .map_or(0, |pre| pre.saturating_sub(state.storage_messages()));
        Ok(report)
    }

    /// Counts an unreplayable log as the device error it is.
    fn count_io_error(&self) {
        if let Mode::Wal(log) = &self.mode {
            log.count_io_error();
        }
    }
}

impl MailStore for Store {
    fn backend(&self) -> &'static str {
        match self.mode {
            Mode::Stable => "mem-stable",
            Mode::Volatile => "mem-volatile",
            Mode::Wal(_) => "wal",
        }
    }

    fn preserves_volatile(&self) -> bool {
        matches!(self.mode, Mode::Stable)
    }

    fn seed_roster(&mut self, roster: &mut dyn Iterator<Item = &MailName>) {
        // Slots are not logged: replay starts from the roster again.
        self.state.seed_roster(roster);
    }

    fn deposit_at(&mut self, message: Message, _now: SimTime, hint: u32) -> bool {
        let fresh = self.state.deposit_at(message.clone(), hint);
        if fresh {
            self.log(|| Record::Deposit { message });
        }
        fresh
    }

    fn drain_reserve_at(&mut self, owner: &MailName, hint: u32) -> Vec<Message> {
        // Found by hint here; replay finds the owner by name. The common
        // check finds nothing new, moves nothing and logs nothing.
        let (reserved, moved) = self.state.drain_reserve_at(owner, hint);
        if moved {
            self.log(|| Record::DrainReserve {
                owner: owner.clone(),
            });
        }
        reserved
    }

    fn release_drained_at(&mut self, owner: &MailName, ids: &[MessageId], hint: u32) -> u64 {
        // Found by hint here; replay finds the owner by name.
        let released = self.state.release_drained_at(owner, ids, hint);
        if released > 0 {
            self.log(|| Record::Release {
                owner: owner.clone(),
                ids: ids.to_vec(),
            });
        }
        released
    }

    fn accept_forward(&mut self, message: &Message, hops_left: u32) {
        if self.state.accept_forward(message, hops_left) {
            self.log(|| Record::AcceptForward {
                message: message.clone(),
                hops_left,
            });
        }
    }

    fn settle_forward(&mut self, id: MessageId) {
        if self.state.settle_forward(id) {
            self.log(|| Record::SettleForward { id });
        }
    }

    fn mailboxes(&self) -> Mailboxes<'_> {
        self.state.mailboxes()
    }

    fn pending_drain(&self) -> PendingDrain<'_> {
        self.state.pending()
    }

    fn crash(&mut self, _now: SimTime) {
        if let Mode::Stable = self.mode {
            return;
        }
        // Process memory dies; a log keeps its durable prefix.
        self.pre_crash_storage = Some(self.state.storage_messages());
        if let Mode::Wal(log) = &mut self.mode {
            log.crash();
        }
        self.state = self.state.emptied();
    }

    fn recover(&mut self, _now: SimTime) -> (RecoveryReport, Vec<(Message, u32)>) {
        let report = match self.reopen() {
            Ok(report) => report,
            Err(_) => {
                // An unreplayable log is a hard fault; surface it as an
                // empty recovery with the error counted rather than
                // panicking inside an event handler.
                self.count_io_error();
                RecoveryReport {
                    backend: self.backend(),
                    lost_messages: self.pre_crash_storage.take().unwrap_or(0),
                    ..RecoveryReport::default()
                }
            }
        };
        let unsettled = match self.mode {
            Mode::Stable => Vec::new(),
            Mode::Volatile | Mode::Wal(_) => self
                .state
                .forwards
                .values()
                .map(|(m, h)| (m.clone(), *h))
                .collect(),
        };
        (report, unsettled)
    }

    fn persist_restore(&mut self) -> Option<RecoveryReport> {
        let Mode::Wal(log) = &mut self.mode else {
            return None;
        };
        log.sync();
        match self.reopen() {
            Ok(report) => Some(report),
            Err(_) => {
                self.count_io_error();
                None
            }
        }
    }

    fn wal_bytes(&self) -> u64 {
        match &self.mode {
            Mode::Wal(log) => log.bytes(),
            Mode::Stable | Mode::Volatile => 0,
        }
    }

    fn store_metrics(&self) -> StoreMetrics {
        match &self.mode {
            Mode::Wal(log) => log.metrics(),
            Mode::Stable | Mode::Volatile => StoreMetrics::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lems_core::message::MessageIdGen;

    fn msg(g: &mut MessageIdGen, to: &str) -> Message {
        Message::new(
            g.next_id(),
            "east.h.sender".parse().unwrap(),
            to.parse().unwrap(),
            "s",
            "b",
            SimTime::ZERO,
        )
    }

    #[test]
    fn volatile_crash_wipes_state_and_reports_loss() {
        let mut g = MessageIdGen::new();
        let mut s = Store::new(&DurabilityConfig::Volatile);
        for _ in 0..4 {
            s.deposit(msg(&mut g, "east.h.u"), SimTime::ZERO);
        }
        s.crash(SimTime::from_units(5.0));
        assert_eq!(s.state().storage_messages(), 0);
        let (report, _) = s.recover(SimTime::from_units(6.0));
        assert_eq!(report.lost_messages, 4);
        assert_eq!(report.recovered_messages, 0);
    }

    #[test]
    fn stable_crash_recover_is_a_no_op() {
        let mut g = MessageIdGen::new();
        let mut s = Store::new(&DurabilityConfig::Ideal);
        for _ in 0..4 {
            s.deposit(msg(&mut g, "east.h.u"), SimTime::ZERO);
        }
        s.crash(SimTime::from_units(5.0));
        let (report, _) = s.recover(SimTime::from_units(6.0));
        assert_eq!(report.lost_messages, 0);
        assert_eq!(report.recovered_messages, 4);
    }

    /// Roster owners keep the slots wiring gave them, in name order and
    /// through a crash that wipes everything else; owners off the roster
    /// take the slots after it, in the order their first deposit meets
    /// them, afresh after the crash.
    #[test]
    fn roster_slots_outlive_a_crash_and_others_follow_them() {
        let mut g = MessageIdGen::new();
        let name = |s: &str| s.parse::<MailName>().unwrap();
        let roster = [name("east.h.dave"), name("east.h.bob")];
        let mut s = Store::new(&DurabilityConfig::Volatile);
        s.seed_roster(&mut roster.iter());
        let slot_of = |s: &Store, who: &str| s.state().slot_of(&name(who));

        for who in ["erin", "carol", "bob", "dave"] {
            s.deposit(msg(&mut g, &format!("east.h.{who}")), SimTime::ZERO);
            s.drain_reserve(&name(&format!("east.h.{who}")));
        }
        assert_eq!(
            ["bob", "dave", "erin", "carol"].map(|who| slot_of(&s, &format!("east.h.{who}"))),
            [0, 1, 2, 3].map(Some)
        );
        assert_eq!(
            s.pending_drain().keys().collect::<Vec<_>>(),
            [
                &name("east.h.bob"),
                &name("east.h.carol"),
                &name("east.h.dave"),
                &name("east.h.erin")
            ],
            "the views merge both kinds in name order"
        );

        s.crash(SimTime::from_units(1.0));
        s.recover(SimTime::from_units(2.0));
        assert_eq!(s.pending_drain().iter().count(), 0, "nothing held");
        assert_eq!(slot_of(&s, "east.h.carol"), None, "no row");
        for who in ["carol", "erin"] {
            s.deposit(msg(&mut g, &format!("east.h.{who}")), SimTime::ZERO);
        }
        assert_eq!(
            ["bob", "dave", "carol", "erin"].map(|who| slot_of(&s, &format!("east.h.{who}"))),
            [0, 1, 2, 3].map(Some),
            "carol is met first now"
        );
    }
}
