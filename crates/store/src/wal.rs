//! [`WalStore`]: the log-structured [`MailStore`] backend.
//!
//! Every durable-state mutation is encoded as one [`Record`], framed and
//! checksummed, applied to the in-memory [`StoreState`] through [`apply`]
//! — the same function recovery uses — and appended to the active segment,
//! so a replayed log reconstructs the exact state the live store held
//! (recovery is exact, not approximate).
//!
//! The log holds what changed and nothing else: an operation that leaves
//! the state as it found it (a check that finds nothing new, an
//! acknowledgement of mail already released, a removal that misses) is
//! answered from memory and appends no record. Replay stays exact because
//! the identity is all a skipped record would have applied.
//!
//! Segments rotate at a configurable size; when more than
//! [`WalConfig::max_segments`] accumulate, compaction writes the live
//! state into the fresh segment as *chunked* snapshot records (at most
//! [`WalConfig::chunk_messages`] messages per record, so a million-message
//! mailbox becomes many bounded records, never one giant rewrite) and
//! deletes the older segments.

use std::cell::Cell;

use lems_core::message::{Message, MessageId};
use lems_core::name::MailName;
use lems_core::store::{
    MailStore, Mailboxes, PendingDrain, RecoveryReport, StoreMetrics, StoreState, NO_OWNER_SLOT,
};
use lems_sim::time::SimTime;

use crate::codec::{self, Record};
use crate::segment::SegmentIo;
use crate::StoreError;

/// When appended records reach durable media.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Every record is synced before the operation returns — an
    /// acknowledgement can never outrun its log entry, so acked deposits
    /// always survive a crash.
    PerRecord,
    /// Records sync only at segment seal/compaction (or an explicit
    /// persist). Fast, and wrong: a crash loses the un-synced suffix.
    /// Exists to demonstrate that the fsync in `PerRecord` is what buys
    /// durability.
    Manual,
}

/// Tuning and fault-injection knobs for [`WalStore`].
#[derive(Clone, Debug, PartialEq)]
pub struct WalConfig {
    /// Rotate the active segment once it holds this many bytes of
    /// operation records.
    pub segment_bytes: u64,
    /// Maximum messages (or ids/entries) per compaction-snapshot record.
    pub chunk_messages: usize,
    /// Compact once more than this many segments exist.
    pub max_segments: u64,
    /// Sync policy; see [`SyncPolicy`].
    pub sync: SyncPolicy,
    /// On crash, leave this many bytes of torn-write garbage past the
    /// durable boundary of the newest segment (0 = clean truncation).
    pub torn_tail_bytes: usize,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            segment_bytes: 64 * 1024,
            chunk_messages: 1024,
            max_segments: 4,
            sync: SyncPolicy::PerRecord,
            torn_tail_bytes: 0,
        }
    }
}

/// Outcome of applying one record to a [`StoreState`].
pub enum Applied {
    /// Nothing to report.
    None,
    /// Deposit outcome: `true` when newly stored.
    Deposited(bool),
    /// The reserved list a reliable drain returned.
    Reserved(Vec<Message>),
    /// Reserved messages released.
    Released(u64),
}

impl Applied {
    /// False when the outcome shows the record found nothing to do.
    /// Outcomes that cannot show it count as changes ([`Applied::None`];
    /// [`Applied::Reserved`], since a repeated check returns the list the
    /// last one moved): [`WalStore`] asks the state before it builds a
    /// record of those kinds.
    fn changed_state(&self) -> bool {
        match self {
            Applied::None | Applied::Reserved(_) => true,
            Applied::Deposited(fresh) => *fresh,
            Applied::Released(n) => *n > 0,
        }
    }
}

/// Applies one record to `state`. Live operations and recovery replay both
/// funnel through here — the single definition of record semantics. (The
/// one live operation that does not, a check that carries an owner-slot
/// hint, calls the [`StoreState`] method its record maps to here.)
pub fn apply(state: &mut StoreState, record: Record) -> Applied {
    match record {
        Record::Deposit { message, at } => Applied::Deposited(state.deposit(message, at)),
        Record::DrainReserve { owner } => Applied::Reserved(state.drain_reserve(&owner)),
        Record::Release { owner, ids } => Applied::Released(state.release_drained(&owner, &ids)),
        Record::AcceptForward { message, hops_left } => {
            state.accept_forward(&message, hops_left);
            Applied::None
        }
        Record::SettleForward { id } => {
            state.settle_forward(id);
            Applied::None
        }
        Record::SnapshotMailbox { owner, messages } => {
            state.restore_snapshot_chunk(&owner, messages);
            Applied::None
        }
        Record::SnapshotPending { owner, messages } => {
            state.restore_snapshot_pending(&owner, messages);
            Applied::None
        }
        Record::SnapshotForwards { entries } => {
            for (m, hops) in entries {
                state.forwards.insert(m.id, (m, hops));
            }
            Applied::None
        }
        Record::SnapshotDeposited { ids } => {
            state.deposited.extend(ids);
            Applied::None
        }
    }
}

/// What one full-log replay found.
#[derive(Debug, Default)]
struct Replay {
    state: StoreState,
    records: u64,
    /// Segment bytes read and scanned by this replay.
    bytes: u64,
    torn_bytes: u64,
    segments: u64,
    /// Operation-record bytes in the newest segment.
    active_op_bytes: u64,
    /// (segment, valid prefix length) to truncate away a torn tail.
    trim: Option<(u64, u64)>,
}

/// The log-structured backend.
#[derive(Debug)]
pub struct WalStore {
    cfg: WalConfig,
    io: Box<dyn SegmentIo>,
    state: StoreState,
    active_seq: u64,
    /// Operation-record bytes in the active segment (snapshot records from
    /// compaction are excluded so a big snapshot does not instantly
    /// re-trigger rotation).
    active_op_bytes: u64,
    /// A `Cell` so the read-only [`MailStore::wal_bytes`] can count a
    /// failed segment read; the store is single-threaded by construction.
    io_errors: Cell<u64>,
    records_appended: u64,
    compactions: u64,
    /// Payload bytes appended by live operations (frames, not snapshots).
    appended_bytes: u64,
    /// Durability barriers issued (`SegmentIo::sync` calls).
    fsyncs: u64,
    /// Segment rotations performed.
    rotations: u64,
    /// Snapshot records written across all compactions.
    compaction_chunks: u64,
    /// The frame being logged, kept between records so that encoding one
    /// allocates nothing once this has grown to the largest.
    frame: Vec<u8>,
    /// Records replayed by recovery and persist/restore scans (lifetime).
    replayed_records: u64,
    /// Bytes scanned by recovery and persist/restore scans (lifetime).
    replayed_bytes: u64,
    pre_crash_storage: Option<u64>,
}

impl WalStore {
    /// Opens a store over `io`, replaying whatever log it already holds.
    ///
    /// A fresh device starts empty at segment 0; a device with history
    /// recovers exactly like a post-crash restart (including torn-tail
    /// trimming).
    pub fn open(io: Box<dyn SegmentIo>, cfg: WalConfig) -> Result<Self, StoreError> {
        let mut store = WalStore {
            cfg,
            io,
            state: StoreState::default(),
            active_seq: 0,
            active_op_bytes: 0,
            io_errors: Cell::new(0),
            records_appended: 0,
            compactions: 0,
            appended_bytes: 0,
            fsyncs: 0,
            rotations: 0,
            compaction_chunks: 0,
            frame: Vec::new(),
            replayed_records: 0,
            replayed_bytes: 0,
            pre_crash_storage: None,
        };
        if store.io.list().is_empty() {
            store.io.create(0)?;
        } else {
            store.reopen()?;
        }
        Ok(store)
    }

    /// Records appended over this store's lifetime (excluding snapshots).
    pub fn records_appended(&self) -> u64 {
        self.records_appended
    }

    /// Compactions performed so far.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Live segment count.
    pub(crate) fn segments(&self) -> u64 {
        self.io.list().len() as u64
    }

    /// Read-only view of the full durable state.
    pub fn state(&self) -> &StoreState {
        &self.state
    }

    /// Raw bytes of one segment (tests and forensic tooling).
    ///
    /// # Errors
    /// When the segment does not exist or the device fails.
    pub fn read_segment(&self, seq: u64) -> Result<Vec<u8>, StoreError> {
        self.io.read(seq)
    }

    fn replay(&self) -> Result<Replay, StoreError> {
        let seqs = self.io.list();
        let mut out = Replay {
            state: self.state.emptied(),
            segments: seqs.len() as u64,
            ..Replay::default()
        };
        let last = seqs.last().copied();
        for seq in seqs {
            let bytes = self.io.read(seq)?;
            let seg = codec::replay_segment(&bytes, seq, |rec| {
                apply(&mut out.state, rec);
            })?;
            out.records += seg.records;
            out.bytes += bytes.len() as u64;
            out.active_op_bytes = seg.op_bytes;
            if let Some(detail) = seg.tail {
                if Some(seq) != last {
                    return Err(StoreError::Corrupt {
                        segment: seq,
                        offset: seg.valid_len,
                        detail,
                    });
                }
                out.torn_bytes = (bytes.len() - seg.valid_len) as u64;
                out.trim = Some((seq, seg.valid_len as u64));
            }
        }
        Ok(out)
    }

    /// Replays the device into a fresh state and adopts it, trimming any
    /// torn tail so new appends continue from the valid prefix.
    fn reopen(&mut self) -> Result<RecoveryReport, StoreError> {
        let replay = self.replay()?;
        self.replayed_records += replay.records;
        self.replayed_bytes += replay.bytes;
        if let Some((seq, len)) = replay.trim {
            self.io.truncate(seq, len)?;
            self.io.sync(seq)?;
            self.fsyncs += 1;
        }
        // Appends continue in the newest segment, so it rotates when what
        // it held before the crash plus what follows reaches the limit.
        self.active_seq = self.io.list().last().copied().unwrap_or(0);
        self.active_op_bytes = replay.active_op_bytes;
        let lost = self
            .pre_crash_storage
            .take()
            .map_or(0, |pre| pre.saturating_sub(replay.state.storage_messages()));
        let report = RecoveryReport {
            backend: "wal",
            replayed_records: replay.records,
            recovered_messages: replay.state.mailbox_messages() as u64,
            recovered_pending: replay.state.pending_messages() as u64,
            recovered_forwards: replay.state.forwards.len() as u64,
            lost_messages: lost,
            torn_bytes: replay.torn_bytes,
            segments: replay.segments,
            unsettled: replay
                .state
                .forwards
                .values()
                .map(|(m, h)| (m.clone(), *h))
                .collect(),
        };
        self.state = replay.state;
        Ok(report)
    }

    fn count_io_error(&self) {
        self.io_errors.set(self.io_errors.get() + 1);
    }

    fn note_io(&mut self, r: &Result<(), StoreError>) {
        if r.is_err() {
            self.count_io_error();
        }
    }

    /// Appends the frame buffer to the active segment as one operation
    /// record.
    fn append_frame(&mut self) {
        let len = self.frame.len() as u64;
        let r = self.io.append(self.active_seq, &self.frame);
        self.note_io(&r);
        if self.cfg.sync == SyncPolicy::PerRecord {
            let r = self.io.sync(self.active_seq);
            self.note_io(&r);
            self.fsyncs += 1;
        }
        self.records_appended += 1;
        self.appended_bytes += len;
        self.active_op_bytes += len;
        if self.active_op_bytes >= self.cfg.segment_bytes {
            self.rotate();
        }
    }

    fn rotate(&mut self) {
        let r = self.io.sync(self.active_seq);
        self.note_io(&r);
        self.fsyncs += 1;
        self.rotations += 1;
        self.active_seq += 1;
        let r = self.io.create(self.active_seq);
        self.note_io(&r);
        self.active_op_bytes = 0;
        if self.segments() > self.cfg.max_segments {
            self.compact();
        }
    }

    /// Writes the live state into the (fresh) active segment as chunked
    /// snapshot records, then drops every older segment.
    fn compact(&mut self) {
        let chunk = self.cfg.chunk_messages.max(1);
        let mut records: Vec<Record> = Vec::new();
        for (owner, mb) in self.state.mailboxes().iter() {
            for slice in mb.peek().chunks(chunk) {
                records.push(Record::SnapshotMailbox {
                    owner: owner.clone(),
                    messages: slice
                        .iter()
                        .map(|s| (s.message.clone(), s.deposited_at))
                        .collect(),
                });
            }
        }
        for (owner, pending) in self.state.pending().iter() {
            for slice in pending.chunks(chunk) {
                records.push(Record::SnapshotPending {
                    owner: owner.clone(),
                    messages: slice.to_vec(),
                });
            }
        }
        let forwards: Vec<(Message, u32)> = self
            .state
            .forwards
            .values()
            .map(|(m, h)| (m.clone(), *h))
            .collect();
        for slice in forwards.chunks(chunk) {
            records.push(Record::SnapshotForwards {
                entries: slice.to_vec(),
            });
        }
        let ids: Vec<MessageId> = self.state.deposited.iter().copied().collect();
        for slice in ids.chunks(chunk) {
            records.push(Record::SnapshotDeposited {
                ids: slice.to_vec(),
            });
        }
        self.compaction_chunks += records.len() as u64;
        for rec in &records {
            codec::encode_frame_into(rec, &mut self.frame);
            let r = self.io.append(self.active_seq, &self.frame);
            self.note_io(&r);
        }
        let r = self.io.sync(self.active_seq);
        self.note_io(&r);
        self.fsyncs += 1;
        let old: Vec<u64> = self
            .io
            .list()
            .into_iter()
            .filter(|&s| s < self.active_seq)
            .collect();
        for seq in old {
            let r = self.io.delete(seq);
            self.note_io(&r);
        }
        self.compactions += 1;
    }

    /// Encodes and applies one record, then appends it — unless applying
    /// it changed nothing, in which case the log does not grow.
    ///
    /// Apply happens before the append so that a rotation/compaction
    /// triggered by this very append snapshots a state that already
    /// includes the record — otherwise compaction would delete the
    /// segment holding the record's frame while the snapshot predates
    /// its effect, silently losing the operation.
    fn log_and_apply(&mut self, record: Record) -> Applied {
        codec::encode_frame_into(&record, &mut self.frame);
        let applied = apply(&mut self.state, record);
        if applied.changed_state() {
            self.append_frame();
        }
        applied
    }

    /// Appends the record of an operation the state has already taken.
    fn log_applied(&mut self, record: &Record) {
        codec::encode_frame_into(record, &mut self.frame);
        self.append_frame();
    }
}

impl MailStore for WalStore {
    fn backend(&self) -> &'static str {
        "wal"
    }

    fn seed_roster(&mut self, roster: &mut dyn Iterator<Item = &MailName>) {
        // Slots are not logged: replay starts from the roster again.
        self.state.seed_roster(roster);
    }

    fn deposit(&mut self, message: Message, now: SimTime) -> bool {
        if self.state.is_deposited(message.id) {
            return false;
        }
        matches!(
            self.log_and_apply(Record::Deposit { message, at: now }),
            Applied::Deposited(true)
        )
    }

    fn drain_reserve(&mut self, owner: &MailName) -> Vec<Message> {
        self.drain_reserve_at(owner, NO_OWNER_SLOT).0
    }

    fn drain_reserve_at(&mut self, owner: &MailName, hint: u32) -> (Vec<Message>, u32) {
        // The common check: nothing has arrived since the last one.
        // Nothing moves, so nothing is logged.
        if let Some(answer) = self.state.idle_drain(owner, hint) {
            return answer;
        }
        // Mail moves: the owner is resolved once, by hint, in the method
        // replay will reach by name.
        let answer = self.state.drain_reserve_at(owner, hint);
        self.log_applied(&Record::DrainReserve {
            owner: owner.clone(),
        });
        answer
    }

    fn release_drained(&mut self, owner: &MailName, ids: &[MessageId]) -> u64 {
        match self.log_and_apply(Record::Release {
            owner: owner.clone(),
            ids: ids.to_vec(),
        }) {
            Applied::Released(n) => n,
            _ => 0,
        }
    }

    fn accept_forward(&mut self, message: &Message, hops_left: u32) {
        if self.state.forwards.contains_key(&message.id) {
            return;
        }
        self.log_and_apply(Record::AcceptForward {
            message: message.clone(),
            hops_left,
        });
    }

    fn settle_forward(&mut self, id: MessageId) {
        if !self.state.forwards.contains_key(&id) {
            return;
        }
        self.log_and_apply(Record::SettleForward { id });
    }

    fn mailboxes(&self) -> Mailboxes<'_> {
        self.state.mailboxes()
    }

    fn pending_drain(&self) -> PendingDrain<'_> {
        self.state.pending()
    }

    fn crash(&mut self, _now: SimTime) {
        // Process memory dies; the device keeps only its durable prefix
        // (plus any injected torn tail).
        self.pre_crash_storage = Some(self.state.storage_messages());
        self.io.crash(self.cfg.torn_tail_bytes);
        self.state = self.state.emptied();
    }

    fn recover(&mut self, _now: SimTime) -> RecoveryReport {
        match self.reopen() {
            Ok(report) => report,
            Err(_) => {
                // An unreplayable log is a hard fault; surface it as an
                // empty recovery with the error counted rather than
                // panicking inside an event handler.
                self.count_io_error();
                RecoveryReport {
                    backend: "wal",
                    lost_messages: self.pre_crash_storage.take().unwrap_or(0),
                    ..RecoveryReport::default()
                }
            }
        }
    }

    fn persist_restore(&mut self) -> Option<RecoveryReport> {
        let r = self.io.sync(self.active_seq);
        self.note_io(&r);
        self.fsyncs += 1;
        match self.reopen() {
            Ok(report) => Some(report),
            Err(_) => {
                self.count_io_error();
                None
            }
        }
    }

    fn wal_bytes(&self) -> u64 {
        let mut total = 0;
        for seq in self.io.list() {
            match self.io.read(seq) {
                Ok(bytes) => total += bytes.len() as u64,
                Err(_) => self.count_io_error(),
            }
        }
        total
    }

    fn store_metrics(&self) -> StoreMetrics {
        StoreMetrics {
            appended_records: self.records_appended,
            appended_bytes: self.appended_bytes,
            fsyncs: self.fsyncs,
            rotations: self.rotations,
            compactions: self.compactions,
            compaction_chunks: self.compaction_chunks,
            replayed_records: self.replayed_records,
            replayed_bytes: self.replayed_bytes,
            io_errors: self.io_errors.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::MemSegments;
    use lems_core::message::MessageIdGen;

    fn mk(cfg: WalConfig) -> WalStore {
        WalStore::open(Box::new(MemSegments::new()), cfg).unwrap()
    }

    fn msg(g: &mut MessageIdGen, to: &str) -> Message {
        Message::new(
            g.next_id(),
            "east.h.sender".parse().unwrap(),
            to.parse().unwrap(),
            "subj",
            "body",
            SimTime::ZERO,
        )
    }

    #[test]
    fn crash_recover_preserves_synced_deposits() {
        let mut g = MessageIdGen::new();
        let mut s = mk(WalConfig::default());
        for _ in 0..10 {
            s.deposit(msg(&mut g, "east.h.u"), SimTime::from_units(1.0));
        }
        s.crash(SimTime::from_units(2.0));
        assert_eq!(s.state().storage_messages(), 0);
        let report = s.recover(SimTime::from_units(3.0));
        assert_eq!(report.recovered_messages, 10);
        assert_eq!(report.lost_messages, 0);
        assert_eq!(report.replayed_records, 10);
        // Dedup ledger survived too: re-deposit is refused.
        assert!(s.state().is_deposited(MessageId(0)));
    }

    #[test]
    fn manual_sync_loses_unsynced_suffix() {
        let mut g = MessageIdGen::new();
        let mut s = mk(WalConfig {
            sync: SyncPolicy::Manual,
            ..WalConfig::default()
        });
        for _ in 0..10 {
            s.deposit(msg(&mut g, "east.h.u"), SimTime::from_units(1.0));
        }
        s.crash(SimTime::from_units(2.0));
        let report = s.recover(SimTime::from_units(3.0));
        assert_eq!(report.recovered_messages, 0);
        assert_eq!(report.lost_messages, 10);
    }

    #[test]
    fn torn_tail_is_detected_and_discarded() {
        let mut g = MessageIdGen::new();
        let mut s = mk(WalConfig {
            torn_tail_bytes: 17,
            ..WalConfig::default()
        });
        for _ in 0..5 {
            s.deposit(msg(&mut g, "east.h.u"), SimTime::from_units(1.0));
        }
        s.crash(SimTime::from_units(2.0));
        let report = s.recover(SimTime::from_units(3.0));
        assert_eq!(report.recovered_messages, 5);
        assert_eq!(report.torn_bytes, 17);
        assert_eq!(report.lost_messages, 0);
        // The trimmed log keeps working: deposit, crash, recover again.
        s.deposit(msg(&mut g, "east.h.u"), SimTime::from_units(4.0));
        s.crash(SimTime::from_units(5.0));
        let report = s.recover(SimTime::from_units(6.0));
        assert_eq!(report.recovered_messages, 6);
    }

    #[test]
    fn rotation_and_compaction_preserve_state_and_bound_segments() {
        let mut g = MessageIdGen::new();
        let cfg = WalConfig {
            segment_bytes: 512,
            chunk_messages: 3,
            max_segments: 3,
            ..WalConfig::default()
        };
        let mut s = mk(cfg);
        for i in 0..200 {
            s.deposit(msg(&mut g, "east.h.u"), SimTime::from_units(i as f64));
        }
        // Retrieval traffic so the snapshot covers pending too.
        let owner: MailName = "east.h.u".parse().unwrap();
        let reserved = s.drain_reserve(&owner);
        let keep: Vec<MessageId> = reserved.iter().take(50).map(|m| m.id).collect();
        s.release_drained(&owner, &keep);
        assert!(
            s.compactions() > 0,
            "small segments must trigger compaction"
        );
        assert!(s.segments() <= 4);
        let before = s.state().clone();
        s.crash(SimTime::from_units(999.0));
        let report = s.recover(SimTime::from_units(1000.0));
        assert_eq!(report.lost_messages, 0);
        assert_eq!(s.state(), &before, "replay must reconstruct exact state");
    }

    /// What the log holds: appended records, barriers, bytes on the device.
    fn log_size(s: &WalStore) -> (u64, u64, u64) {
        let m = s.store_metrics();
        (m.appended_records, m.fsyncs, s.wal_bytes())
    }

    #[test]
    fn an_operation_that_changes_nothing_writes_nothing() {
        let mut g = MessageIdGen::new();
        let mut s = mk(WalConfig::default());
        let owner: MailName = "east.h.u".parse().unwrap();

        // A first check by an owner who holds nothing changes nothing, so
        // it writes nothing; nor do the checks after it.
        assert!(s.drain_reserve(&owner).is_empty());
        assert_eq!(log_size(&s), (0, 0, 0), "a first check is not logged");
        for _ in 0..100 {
            assert!(s.drain_reserve(&owner).is_empty());
        }
        assert_eq!(log_size(&s), (0, 0, 0), "idle checks leave the log alone");

        // A check that finds mail is logged; so is its acknowledgement.
        s.deposit(msg(&mut g, "east.h.u"), SimTime::from_units(1.0));
        let reserved = s.drain_reserve(&owner);
        assert_eq!(reserved.len(), 1);
        assert_eq!(s.records_appended(), 2);
        // Unacknowledged, the same list comes back, from memory.
        let held = log_size(&s);
        assert_eq!(s.drain_reserve(&owner), reserved);
        assert_eq!(log_size(&s), held);
        let ids = [reserved[0].id];
        assert_eq!(s.release_drained(&owner, &ids), 1);
        assert_eq!(s.records_appended(), 3);

        // The duplicate acknowledgement, and every other miss.
        let settled = log_size(&s);
        assert_eq!(s.release_drained(&owner, &ids), 0);
        assert!(s.drain_reserve(&owner).is_empty());
        let stranger: MailName = "east.h.nobody".parse().unwrap();
        assert_eq!(s.release_drained(&stranger, &ids), 0);
        assert!(!s.deposit(reserved[0].clone(), SimTime::from_units(2.0)));
        s.settle_forward(ids[0]);
        assert_eq!(log_size(&s), settled);

        // What was skipped is not missed: the log replays to this state.
        let live = s.state().clone();
        s.crash(SimTime::from_units(3.0));
        let report = s.recover(SimTime::from_units(4.0));
        assert_eq!(report.replayed_records, 3);
        assert_eq!(s.state(), &live);
    }

    /// A server that crashes more often than it fills a segment must still
    /// rotate and compact: what the recovered segment already held counts
    /// towards its limit.
    #[test]
    fn rotation_accounting_survives_crashes() {
        let mut g = MessageIdGen::new();
        // The default chunk keeps the (ever-growing) dedup ledger to one
        // snapshot record, so a snapshot is a handful of records.
        let cfg = WalConfig {
            segment_bytes: 512,
            max_segments: 2,
            ..WalConfig::default()
        };
        let mut s = mk(cfg.clone());
        let owner: MailName = "east.h.u".parse().unwrap();
        let mut replayed = Vec::new();
        for round in 0..200u32 {
            // Three small records (well under a segment), then a crash.
            s.deposit(
                msg(&mut g, "east.h.u"),
                SimTime::from_units(f64::from(round)),
            );
            let ids: Vec<MessageId> = s.drain_reserve(&owner).iter().map(|m| m.id).collect();
            s.release_drained(&owner, &ids);
            assert!(s.segments() <= cfg.max_segments + 1);
            s.crash(SimTime::from_units(f64::from(round) + 0.5));
            replayed.push(
                s.recover(SimTime::from_units(f64::from(round) + 0.6))
                    .replayed_records,
            );
        }
        assert!(s.store_metrics().rotations > 0 && s.compactions() > 0);
        // Recovery work is bounded by the segment limits, not by history:
        // the last hundred recoveries replay no more than the first hundred.
        let (early, late) = replayed.split_at(100);
        assert!(late.iter().max() <= early.iter().max(), "{replayed:?}");
        assert_eq!(s.state().deposited.len(), 200);
    }

    #[test]
    fn unsettled_forwards_survive_and_settle_once() {
        let mut g = MessageIdGen::new();
        let mut s = mk(WalConfig::default());
        let m = msg(&mut g, "west.h.v");
        s.accept_forward(&m, 7);
        s.accept_forward(&m, 3); // idempotent: keeps the original budget
        s.crash(SimTime::from_units(1.0));
        let report = s.recover(SimTime::from_units(2.0));
        assert_eq!(report.recovered_forwards, 1);
        assert_eq!(report.unsettled, vec![(m.clone(), 7)]);
        s.settle_forward(m.id);
        s.crash(SimTime::from_units(3.0));
        let report = s.recover(SimTime::from_units(4.0));
        assert_eq!(report.recovered_forwards, 0);
    }

    #[test]
    fn store_metrics_track_appends_rotations_and_recovery_work() {
        let mut g = MessageIdGen::new();
        let mut s = mk(WalConfig {
            segment_bytes: 512,
            chunk_messages: 3,
            max_segments: 3,
            ..WalConfig::default()
        });
        assert_eq!(s.store_metrics(), StoreMetrics::default());
        for i in 0..200 {
            s.deposit(msg(&mut g, "east.h.u"), SimTime::from_units(i as f64));
        }
        let m = s.store_metrics();
        assert_eq!(m.appended_records, 200);
        assert!(m.appended_bytes > 0, "framed payload bytes must be counted");
        // PerRecord sync: at least one barrier per append, plus the ones
        // rotation and compaction issue on top.
        assert!(m.fsyncs >= m.appended_records + m.rotations + m.compactions);
        assert!(m.rotations > 0, "512-byte segments must rotate");
        assert!(m.compactions > 0 && m.compaction_chunks >= m.compactions);
        assert_eq!(m.replayed_records, 0, "no recovery has happened yet");
        assert_eq!(m.io_errors, 0);

        s.crash(SimTime::from_units(999.0));
        s.recover(SimTime::from_units(1000.0));
        let after = s.store_metrics();
        assert!(
            after.replayed_records > 0,
            "recovery must count replay work"
        );
        assert!(
            after.replayed_bytes > 0,
            "recovery must count bytes scanned"
        );
        // Live-operation counters survive the crash (they describe the
        // store object's lifetime, not the recovered state).
        assert_eq!(after.appended_records, m.appended_records);
    }

    /// A device whose `read` fails for segment 0 once `broken` is set.
    #[derive(Debug)]
    struct UnreadableFirstSegment {
        inner: MemSegments,
        broken: std::rc::Rc<Cell<bool>>,
    }

    impl SegmentIo for UnreadableFirstSegment {
        fn create(&mut self, seq: u64) -> Result<(), StoreError> {
            self.inner.create(seq)
        }
        fn append(&mut self, seq: u64, bytes: &[u8]) -> Result<(), StoreError> {
            self.inner.append(seq, bytes)
        }
        fn sync(&mut self, seq: u64) -> Result<(), StoreError> {
            self.inner.sync(seq)
        }
        fn truncate(&mut self, seq: u64, len: u64) -> Result<(), StoreError> {
            self.inner.truncate(seq, len)
        }
        fn delete(&mut self, seq: u64) -> Result<(), StoreError> {
            self.inner.delete(seq)
        }
        fn list(&self) -> Vec<u64> {
            self.inner.list()
        }
        fn read(&self, seq: u64) -> Result<Vec<u8>, StoreError> {
            if seq == 0 && self.broken.get() {
                return Err(StoreError::Io("segment 0 is unreadable".into()));
            }
            self.inner.read(seq)
        }
        fn crash(&mut self, torn_tail_bytes: usize) {
            self.inner.crash(torn_tail_bytes);
        }
    }

    #[test]
    fn wal_bytes_counts_an_unreadable_segment_and_sums_the_rest() {
        let broken = std::rc::Rc::new(Cell::new(false));
        let io = UnreadableFirstSegment {
            inner: MemSegments::new(),
            broken: std::rc::Rc::clone(&broken),
        };
        let mut g = MessageIdGen::new();
        let mut s = WalStore::open(
            Box::new(io),
            WalConfig {
                segment_bytes: 512,
                max_segments: 1_000,
                ..WalConfig::default()
            },
        )
        .unwrap();
        for i in 0..40 {
            s.deposit(msg(&mut g, "east.h.u"), SimTime::from_units(i as f64));
        }
        assert!(s.segments() >= 3, "the script must span several segments");
        let first = s.io.read(0).unwrap().len() as u64;
        let all = s.wal_bytes();
        assert!(first > 0 && all > first);
        assert_eq!(s.store_metrics().io_errors, 0);

        broken.set(true);
        assert_eq!(s.wal_bytes(), all - first, "readable segments still sum");
        assert_eq!(
            s.store_metrics().io_errors,
            1,
            "the failed read is counted, not hidden"
        );
    }

    /// Tags 2, 3, 5 and 10 are retired — a removal by id (owner, id), an
    /// expiry sweep (owner, cutoff), a destructive drain (owner) and a
    /// mailbox's lifetime counters (owner and three `u64`s). A
    /// checksum-valid frame carrying one is not a torn tail but
    /// corruption, and the log is refused.
    #[test]
    fn retired_record_tags_are_refused_as_corrupt() {
        let owner = "east.h.u";
        for (tag, words) in [
            (2u8, &[7u64][..]),
            (3, &[9_000]),
            (5, &[]),
            (10, &[10, 6, 1]),
        ] {
            let mut payload = codec::WAL_SCHEMA_VERSION.to_le_bytes().to_vec();
            payload.push(tag);
            payload.extend_from_slice(&(owner.len() as u32).to_le_bytes());
            payload.extend_from_slice(owner.as_bytes());
            payload.extend(words.iter().flat_map(|w| w.to_le_bytes()));
            let mut frame = vec![codec::MAGIC];
            frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frame.extend_from_slice(&codec::crc32(&payload).to_le_bytes());
            frame.extend_from_slice(&payload);
            let mut io = MemSegments::new();
            io.create(0).unwrap();
            io.append(0, &frame).unwrap();
            io.sync(0).unwrap();
            assert_eq!(
                WalStore::open(Box::new(io), WalConfig::default()).err(),
                Some(StoreError::Corrupt {
                    segment: 0,
                    offset: 0,
                    detail: format!("unknown record tag {tag}"),
                }),
                "tag {tag}"
            );
        }
    }

    #[test]
    fn persist_restore_round_trip_is_exact() {
        let mut g = MessageIdGen::new();
        let mut s = mk(WalConfig {
            segment_bytes: 256,
            chunk_messages: 4,
            max_segments: 2,
            sync: SyncPolicy::Manual,
            ..WalConfig::default()
        });
        for i in 0..60 {
            s.deposit(msg(&mut g, "east.h.u"), SimTime::from_units(i as f64));
        }
        let owner: MailName = "east.h.u".parse().unwrap();
        s.drain_reserve(&owner);
        let before = s.state().clone();
        let report = s.persist_restore().expect("wal supports persist/restore");
        assert_eq!(s.state(), &before);
        assert_eq!(report.lost_messages, 0);
    }
}
