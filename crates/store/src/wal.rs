//! The write-ahead log behind [`Store`]'s `"wal"` mode.
//!
//! Every durable-state change is encoded as one [`Record`], framed and
//! checksummed, and appended to the active segment once the [`StoreState`]
//! has taken it; recovery replays the records through [`apply`], which
//! calls the state method each live operation called, so a replayed log
//! reconstructs the exact state the live store held (recovery is exact,
//! not approximate).
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
//!
//! [`Store`]: crate::Store

use std::cell::Cell;

use lems_core::message::{Message, MessageId};
use lems_core::store::{StoreMetrics, StoreState, NO_OWNER_SLOT};

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

/// Tuning and fault-injection knobs for the log.
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

/// Applies one record to `state`: the single definition of what a record
/// means, used by recovery replay. A live operation calls the
/// [`StoreState`] method its record maps to here, then logs the record.
pub fn apply(state: &mut StoreState, record: Record) {
    match record {
        Record::Deposit { message } => {
            state.deposit_at(message, NO_OWNER_SLOT);
        }
        Record::DrainReserve { owner } => {
            state.drain_reserve_at(&owner, NO_OWNER_SLOT);
        }
        Record::Release { owner, ids } => {
            state.release_drained_at(&owner, &ids, NO_OWNER_SLOT);
        }
        Record::AcceptForward { message, hops_left } => {
            state.accept_forward(&message, hops_left);
        }
        Record::SettleForward { id } => {
            state.settle_forward(id);
        }
        Record::SnapshotMailbox { owner, messages } => {
            state.restore_snapshot_chunk(&owner, messages);
        }
        Record::SnapshotPending { owner, messages } => {
            state.restore_snapshot_pending(&owner, messages);
        }
        Record::SnapshotForwards { entries } => {
            for (m, hops) in entries {
                state.forwards.insert(m.id, (m, hops));
            }
        }
        Record::SnapshotDeposited { ids } => state.deposited.extend(ids),
    }
}

/// What one full-log replay found.
#[derive(Debug, Default)]
pub(crate) struct Replay {
    pub(crate) state: StoreState,
    pub(crate) records: u64,
    /// Segment bytes read and scanned by this replay.
    bytes: u64,
    pub(crate) torn_bytes: u64,
    pub(crate) segments: u64,
    /// Operation-record bytes in the newest segment.
    active_op_bytes: u64,
    /// (segment, valid prefix length) to truncate away a torn tail.
    trim: Option<(u64, u64)>,
}

/// A segmented log on one device, and what it has cost so far.
#[derive(Debug)]
pub(crate) struct Log {
    cfg: WalConfig,
    io: Box<dyn SegmentIo>,
    active_seq: u64,
    /// Operation-record bytes in the active segment (snapshot records from
    /// compaction are excluded so a big snapshot does not instantly
    /// re-trigger rotation).
    active_op_bytes: u64,
    /// Lifetime counters but `io_errors`, which lives in the `Cell` below.
    metrics: StoreMetrics,
    /// A `Cell` so the read-only [`Log::bytes`] can count a failed segment
    /// read; the store is single-threaded by construction.
    io_errors: Cell<u64>,
    /// The frame being logged, kept between records so that encoding one
    /// allocates nothing once this has grown to the largest.
    frame: Vec<u8>,
}

impl Log {
    /// A log over `io`, which nothing has been read from yet.
    pub(crate) fn new(io: Box<dyn SegmentIo>, cfg: WalConfig) -> Self {
        Log {
            cfg,
            io,
            active_seq: 0,
            active_op_bytes: 0,
            metrics: StoreMetrics::default(),
            io_errors: Cell::new(0),
            frame: Vec::new(),
        }
    }

    /// A log over a device that holds nothing yet: segment 0 is created,
    /// and a failure to create it is counted like any other.
    pub(crate) fn fresh(io: Box<dyn SegmentIo>, cfg: WalConfig) -> Self {
        let mut log = Log::new(io, cfg);
        let r = log.io.create(0);
        log.note_io(&r);
        log
    }

    /// Opens the log over `io` and the state it holds. A fresh device
    /// starts empty at segment 0; a device with history recovers exactly
    /// like a post-crash restart (including torn-tail trimming).
    #[cfg(test)]
    pub(crate) fn open(
        io: Box<dyn SegmentIo>,
        cfg: WalConfig,
    ) -> Result<(Self, StoreState), StoreError> {
        let mut log = Log::new(io, cfg);
        if log.io.list().is_empty() {
            log.io.create(0)?;
            return Ok((log, StoreState::default()));
        }
        let replay = log.reopen(StoreState::default())?;
        Ok((log, replay.state))
    }

    /// Live segment count.
    pub(crate) fn segments(&self) -> u64 {
        self.io.list().len() as u64
    }

    /// Raw bytes of one segment.
    pub(crate) fn read_segment(&self, seq: u64) -> Result<Vec<u8>, StoreError> {
        self.io.read(seq)
    }

    /// Replays every segment onto `base` (a state that holds nothing).
    fn replay(&self, base: StoreState) -> Result<Replay, StoreError> {
        let seqs = self.io.list();
        let mut out = Replay {
            state: base,
            segments: seqs.len() as u64,
            ..Replay::default()
        };
        let last = seqs.last().copied();
        for seq in seqs {
            let bytes = self.io.read(seq)?;
            let seg = codec::replay_segment(&bytes, seq, |rec| apply(&mut out.state, rec))?;
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

    /// Replays the device onto `base`, trimming any torn tail so new
    /// appends continue from the valid prefix.
    pub(crate) fn reopen(&mut self, base: StoreState) -> Result<Replay, StoreError> {
        let replay = self.replay(base)?;
        self.metrics.replayed_records += replay.records;
        self.metrics.replayed_bytes += replay.bytes;
        if let Some((seq, len)) = replay.trim {
            self.io.truncate(seq, len)?;
            self.io.sync(seq)?;
            self.metrics.fsyncs += 1;
        }
        // Appends continue in the newest segment, so it rotates when what
        // it held before the crash plus what follows reaches the limit.
        self.active_seq = self.io.list().last().copied().unwrap_or(0);
        self.active_op_bytes = replay.active_op_bytes;
        Ok(replay)
    }

    /// The process died: the device keeps only its durable prefix (plus
    /// any injected torn tail).
    pub(crate) fn crash(&mut self) {
        self.io.crash(self.cfg.torn_tail_bytes);
    }

    /// Makes everything appended so far durable.
    pub(crate) fn sync(&mut self) {
        let r = self.io.sync(self.active_seq);
        self.note_io(&r);
        self.metrics.fsyncs += 1;
    }

    /// Bytes on the device, every segment counted that can be read.
    pub(crate) fn bytes(&self) -> u64 {
        let mut total = 0;
        for seq in self.io.list() {
            match self.io.read(seq) {
                Ok(bytes) => total += bytes.len() as u64,
                Err(_) => self.count_io_error(),
            }
        }
        total
    }

    /// Lifetime counters.
    pub(crate) fn metrics(&self) -> StoreMetrics {
        StoreMetrics {
            io_errors: self.io_errors.get(),
            ..self.metrics
        }
    }

    pub(crate) fn count_io_error(&self) {
        self.io_errors.set(self.io_errors.get() + 1);
    }

    fn note_io(&mut self, r: &Result<(), StoreError>) {
        if r.is_err() {
            self.count_io_error();
        }
    }

    /// Appends `record` as one operation record. `state` has already taken
    /// the operation, so a rotation or compaction this append triggers
    /// snapshots a state that includes it — otherwise compaction would
    /// delete the segment holding the record's frame while the snapshot
    /// predates its effect, silently losing the operation.
    pub(crate) fn append(&mut self, record: &Record, state: &StoreState) {
        codec::encode_frame_into(record, &mut self.frame);
        let len = self.frame.len() as u64;
        let r = self.io.append(self.active_seq, &self.frame);
        self.note_io(&r);
        if self.cfg.sync == SyncPolicy::PerRecord {
            self.sync();
        }
        self.metrics.appended_records += 1;
        self.metrics.appended_bytes += len;
        self.active_op_bytes += len;
        if self.active_op_bytes >= self.cfg.segment_bytes {
            self.rotate(state);
        }
    }

    fn rotate(&mut self, state: &StoreState) {
        self.sync();
        self.metrics.rotations += 1;
        self.active_seq += 1;
        let r = self.io.create(self.active_seq);
        self.note_io(&r);
        self.active_op_bytes = 0;
        if self.segments() > self.cfg.max_segments {
            self.compact(state);
        }
    }

    /// Writes `state` into the (fresh) active segment as chunked snapshot
    /// records, then drops every older segment.
    fn compact(&mut self, state: &StoreState) {
        let chunk = self.cfg.chunk_messages.max(1);
        let mut records: Vec<Record> = Vec::new();
        for (owner, mb) in state.mailboxes().iter() {
            for slice in mb.peek().chunks(chunk) {
                records.push(Record::SnapshotMailbox {
                    owner: owner.clone(),
                    messages: slice.to_vec(),
                });
            }
        }
        for (owner, pending) in state.pending().iter() {
            for slice in pending.chunks(chunk) {
                records.push(Record::SnapshotPending {
                    owner: owner.clone(),
                    messages: slice.to_vec(),
                });
            }
        }
        let forwards: Vec<(Message, u32)> = state
            .forwards
            .values()
            .map(|(m, h)| (m.clone(), *h))
            .collect();
        for slice in forwards.chunks(chunk) {
            records.push(Record::SnapshotForwards {
                entries: slice.to_vec(),
            });
        }
        let ids: Vec<MessageId> = state.deposited.iter().copied().collect();
        for slice in ids.chunks(chunk) {
            records.push(Record::SnapshotDeposited {
                ids: slice.to_vec(),
            });
        }
        self.metrics.compaction_chunks += records.len() as u64;
        for rec in &records {
            codec::encode_frame_into(rec, &mut self.frame);
            let r = self.io.append(self.active_seq, &self.frame);
            self.note_io(&r);
        }
        self.sync();
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
        self.metrics.compactions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::MemSegments;
    use crate::store::Mode;
    use crate::{DurabilityConfig, Store};
    use lems_core::message::MessageIdGen;
    use lems_core::name::MailName;
    use lems_core::store::MailStore;
    use lems_sim::time::SimTime;

    fn mk(cfg: WalConfig) -> Store {
        Store::new(&DurabilityConfig::Wal(cfg))
    }

    /// The log of a WAL store.
    fn log(s: &Store) -> &Log {
        match &s.mode {
            Mode::Wal(log) => log,
            Mode::Stable | Mode::Volatile => panic!("a WAL store has a log"),
        }
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
        let (report, _) = s.recover(SimTime::from_units(3.0));
        assert_eq!(report.recovered_messages, 10);
        assert_eq!(report.lost_messages, 0);
        assert_eq!(report.replayed_records, 10);
        // Dedup ledger survived too: re-deposit is refused.
        assert!(s.state().deposited.contains(&MessageId(0)));
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
        let (report, _) = s.recover(SimTime::from_units(3.0));
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
        let (report, _) = s.recover(SimTime::from_units(3.0));
        assert_eq!(report.recovered_messages, 5);
        assert_eq!(report.torn_bytes, 17);
        assert_eq!(report.lost_messages, 0);
        // The trimmed log keeps working: deposit, crash, recover again.
        s.deposit(msg(&mut g, "east.h.u"), SimTime::from_units(4.0));
        s.crash(SimTime::from_units(5.0));
        let (report, _) = s.recover(SimTime::from_units(6.0));
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
            s.store_metrics().compactions > 0,
            "small segments must trigger compaction"
        );
        assert!(log(&s).segments() <= 4);
        let before = s.state().clone();
        s.crash(SimTime::from_units(999.0));
        let (report, _) = s.recover(SimTime::from_units(1000.0));
        assert_eq!(report.lost_messages, 0);
        assert_eq!(s.state(), &before, "replay must reconstruct exact state");
    }

    /// What the log holds: appended records, barriers, bytes on the device.
    fn log_size(s: &Store) -> (u64, u64, u64) {
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
        assert_eq!(s.store_metrics().appended_records, 2);
        // Unacknowledged, the same list comes back, from memory.
        let held = log_size(&s);
        assert_eq!(s.drain_reserve(&owner), reserved);
        assert_eq!(log_size(&s), held);
        let ids = [reserved[0].id];
        assert_eq!(s.release_drained(&owner, &ids), 1);
        assert_eq!(s.store_metrics().appended_records, 3);

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
        let (report, _) = s.recover(SimTime::from_units(4.0));
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
            assert!(log(&s).segments() <= cfg.max_segments + 1);
            s.crash(SimTime::from_units(f64::from(round) + 0.5));
            let (report, _) = s.recover(SimTime::from_units(f64::from(round) + 0.6));
            replayed.push(report.replayed_records);
        }
        let m = s.store_metrics();
        assert!(m.rotations > 0 && m.compactions > 0);
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
        let (report, unsettled) = s.recover(SimTime::from_units(2.0));
        assert_eq!(report.recovered_forwards, 1);
        assert_eq!(unsettled, vec![(m.clone(), 7)]);
        s.settle_forward(m.id);
        s.crash(SimTime::from_units(3.0));
        let (report, _) = s.recover(SimTime::from_units(4.0));
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
        let mut s = Store::open(
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
        assert!(
            log(&s).segments() >= 3,
            "the script must span several segments"
        );
        let first = s.read_segment(0).unwrap().len() as u64;
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
                Store::open(Box::new(io), WalConfig::default()).err(),
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
