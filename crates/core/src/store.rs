//! Mailbox persistence — the [`MailStore`] trait and the [`StoreState`]
//! behind it.
//!
//! §3.1.2c makes servers custodians of undelivered mail, and the GetMail
//! protocol assumes a crashed server comes back with its mailboxes intact.
//! Historically the simulation granted that assumption by fiat: mailboxes
//! were plain in-memory maps and a crash simply paused the actor. This
//! module makes the assumption explicit and falsifiable. Everything a
//! server must not lose across a crash — mailboxes, the reserved
//! (drained-but-unacknowledged) retrieval buffer, the accepted-but-unsettled
//! forward set, and the deposit dedup ledger — is one [`StoreState`]
//! behind [`MailStore`], and one rule decides what a crash keeps of it.
//! The one implementation, `Store` in `lems-store`, has three such rules:
//!
//! * `"mem-stable"` — the historical fiat-stable store: nothing is ever
//!   lost, crash and recovery are no-ops.
//! * `"mem-volatile"` — RAM only: a crash wipes everything. This is the
//!   counterexample that justifies the write-ahead log.
//! * `"wal"` — an append-only, checksummed, schema-versioned write-ahead
//!   log with segment rotation and chunked compaction; a crash keeps
//!   exactly the synced prefix (plus an optional injected torn tail) and
//!   recovery replays it.

#![deny(clippy::let_underscore_must_use)]

use std::collections::{BTreeMap, BTreeSet};

use lems_sim::time::SimTime;

use crate::mailbox::Mailbox;
use crate::message::{Message, MessageId};
use crate::name::MailName;

/// What a caller of [`MailStore::drain_reserve_at`], `deposit_at` or
/// `release_drained_at` passes when it holds no slot for the owner: never
/// the index of one.
pub const NO_OWNER_SLOT: u32 = u32::MAX;

/// The durable state a server entrusts to its store.
///
/// The store (and its log replay) mutates its state exclusively through
/// this struct's methods, so "what an operation means" is defined once: a
/// log record replayed during recovery calls the same method the live
/// operation did, which is what makes recovery exact. Each mutator
/// reports whether it changed anything, and only a change is logged.
///
/// Two states are equal when they hold the same messages for the same
/// owners, whatever order the owners first appeared in and whatever
/// roster each was wired with: a state replayed from a compaction snapshot
/// (written in name order) equals the live one it was taken from.
#[derive(Clone, Debug, Default)]
pub struct StoreState {
    /// One row per user this server keeps state for. Slots `0..roster`
    /// are the users the server was wired with ([`StoreState::seed_roster`]),
    /// in name order and found by bisection; the rest are owners met off
    /// the roster, in first-contact order. Rows are never reordered or
    /// removed, so an index into this (a *slot*) names the same user for
    /// as long as this state lives. Read through
    /// [`StoreState::mailboxes`] / [`StoreState::pending`].
    owners: Vec<OwnerEntry>,
    /// How many leading rows are the roster.
    roster: usize,
    /// Name -> slot for the owners past the roster, for whoever arrives
    /// without a slot or with a wrong one; also their name order, which
    /// the views and snapshots merge with the roster's.
    off_roster: BTreeMap<MailName, usize>,
    /// Forwards this server has acknowledged upstream but not yet settled
    /// downstream, keyed by message id, with the hop budget they carried.
    pub forwards: BTreeMap<MessageId, (Message, u32)>,
    /// Every message id ever deposited here — the dedup ledger that makes
    /// at-least-once delivery idempotent.
    pub deposited: BTreeSet<MessageId>,
}

impl PartialEq for StoreState {
    fn eq(&self, other: &Self) -> bool {
        self.forwards == other.forwards
            && self.deposited == other.deposited
            && self.mailboxes().iter().eq(other.mailboxes().iter())
            && self.pending().iter().eq(other.pending().iter())
    }
}

/// One user's row: a name, and the messages the server holds for them.
/// A roster user's row exists from wiring; an off-roster row is created
/// by the first deposit or snapshot chunk for its owner.
#[derive(Clone, Debug, PartialEq)]
struct OwnerEntry {
    name: MailName,
    /// The mailbox and the reservation buffer, allocated by the row's
    /// first deposit and kept from then on, empty or not.
    held: Option<Box<Held>>,
}

/// What an [`OwnerEntry`] holds.
#[derive(Clone, Debug, PartialEq)]
struct Held {
    /// Stable storage of §3.1.2c.
    mailbox: Mailbox,
    /// Messages handed to a retrieval session but not yet acknowledged
    /// (the reliable-retrieval reservation buffer).
    reserved: Vec<Message>,
}

/// A read-only, name-ordered view of one kind of per-user state
/// ([`StoreState::mailboxes`], [`StoreState::pending`]): the users who
/// hold messages of that kind, skipping the rest.
#[derive(Clone, Copy, Debug)]
pub struct OwnerView<'a, T> {
    state: &'a StoreState,
    pick: fn(&OwnerEntry) -> Option<&T>,
}

/// The mailboxes of a store, by owner.
pub type Mailboxes<'a> = OwnerView<'a, Mailbox>;
/// The reservation buffers of a store, by owner.
pub type PendingDrain<'a> = OwnerView<'a, Vec<Message>>;

impl<'a, T: 'a> OwnerView<'a, T> {
    /// `owner`'s value, if they have one.
    pub fn get(&self, owner: &MailName) -> Option<&'a T> {
        self.state.entry(owner).and_then(self.pick)
    }

    /// `(owner, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'a MailName, &'a T)> + 'a {
        let pick = self.pick;
        self.state
            .in_name_order()
            .filter_map(move |entry| Some((&entry.name, pick(entry)?)))
    }

    /// Owners in name order.
    pub fn keys(&self) -> impl Iterator<Item = &'a MailName> + 'a {
        self.iter().map(|(owner, _)| owner)
    }

    /// Values in owner-name order.
    pub fn values(&self) -> impl Iterator<Item = &'a T> + 'a {
        self.iter().map(|(_, value)| value)
    }
}

impl<T> std::ops::Index<&MailName> for OwnerView<'_, T> {
    type Output = T;

    /// # Panics
    /// When `owner` has no value in this view (as `BTreeMap`'s index does).
    #[expect(
        clippy::expect_used,
        reason = "`Index` cannot return an error; `get` is the fallible form"
    )]
    fn index(&self, owner: &MailName) -> &T {
        self.get(owner).expect("no entry for this owner")
    }
}

impl StoreState {
    /// Per-user mailboxes (stable storage of §3.1.2c) that hold mail.
    pub fn mailboxes(&self) -> Mailboxes<'_> {
        OwnerView {
            state: self,
            pick: |entry| Some(&entry.held.as_ref()?.mailbox).filter(|mb| !mb.is_empty()),
        }
    }

    /// Per-user reservation buffers that hold mail: drained but not yet
    /// acknowledged.
    pub fn pending(&self) -> PendingDrain<'_> {
        OwnerView {
            state: self,
            pick: |entry| Some(&entry.held.as_ref()?.reserved).filter(|r| !r.is_empty()),
        }
    }

    /// Wires this state with `roster`, the users the server keeps mail
    /// for (§3.1.1: those whose authority list names it): they take slots
    /// `0..n` in name order, rows that hold nothing until the user is
    /// deposited to. Whatever the state already holds keeps its
    /// contents; only slots move.
    pub fn seed_roster<'a>(&mut self, roster: impl IntoIterator<Item = &'a MailName>) {
        let before = std::mem::take(&mut self.owners);
        self.owners = roster
            .into_iter()
            .map(|name| OwnerEntry::new(name.clone()))
            .collect();
        self.owners.sort_unstable_by(|a, b| a.name.cmp(&b.name));
        self.owners.dedup_by(|a, b| a.name == b.name);
        self.roster = self.owners.len();
        self.off_roster.clear();
        for entry in before.into_iter().filter(OwnerEntry::holds_something) {
            let slot = self.slot_or_adopt(&entry.name, NO_OWNER_SLOT);
            self.owners[slot] = entry;
        }
    }

    /// A state that holds nothing, wired with this one's roster: what a
    /// crash leaves in memory, and where a log replay starts.
    pub fn emptied(&self) -> StoreState {
        let roster = &self.owners[..self.roster];
        StoreState {
            owners: roster
                .iter()
                .map(|e| OwnerEntry::new(e.name.clone()))
                .collect(),
            roster: self.roster,
            ..StoreState::default()
        }
    }

    /// Every row, by owner name: the roster merged with the owners past it.
    fn in_name_order(&self) -> impl Iterator<Item = &OwnerEntry> {
        let mut roster = self.owners[..self.roster].iter().peekable();
        let mut rest = self
            .off_roster
            .values()
            .map(|&slot| &self.owners[slot])
            .peekable();
        std::iter::from_fn(move || match (roster.peek(), rest.peek()) {
            (Some(a), Some(b)) if b.name.cmp(&a.name).is_lt() => rest.next(),
            (Some(_), _) => roster.next(),
            (None, _) => rest.next(),
        })
    }

    /// `owner`'s slot, found by name.
    fn find(&self, owner: &MailName) -> Option<usize> {
        match self.owners[..self.roster].binary_search_by(|entry| entry.name.cmp(owner)) {
            Ok(slot) => Some(slot),
            Err(_) => self.off_roster.get(owner).copied(),
        }
    }

    /// `hint` as a slot, when the slot it names holds `owner`. The hint is
    /// trusted only as far as the name stored there agrees with it;
    /// anything else — [`NO_OWNER_SLOT`] or any other index out of range,
    /// another user's slot, an off-roster slot of a state that a crash has
    /// since rebuilt (roster slots survive a crash) — is no hint at all.
    fn hinted(&self, owner: &MailName, hint: u32) -> Option<usize> {
        let slot = hint as usize;
        if self.owners.get(slot)?.name != *owner {
            return None;
        }
        debug_assert_eq!(self.find(owner), Some(slot));
        Some(slot)
    }

    /// Where `owner`'s row is, if they have one: by hint, else by name
    /// exactly as if no hint existed.
    fn slot(&self, owner: &MailName, hint: u32) -> Option<usize> {
        self.hinted(owner, hint).or_else(|| self.find(owner))
    }

    /// Where `owner`'s row is; an owner off the roster gets the next slot
    /// on first contact, and a row that holds nothing.
    fn slot_or_adopt(&mut self, owner: &MailName, hint: u32) -> usize {
        if let Some(slot) = self.slot(owner, hint) {
            return slot;
        }
        let slot = self.owners.len();
        self.owners.push(OwnerEntry::new(owner.clone()));
        self.off_roster.insert(owner.clone(), slot);
        slot
    }

    /// `owner`'s row, if one exists.
    fn entry(&self, owner: &MailName) -> Option<&OwnerEntry> {
        Some(&self.owners[self.find(owner)?])
    }

    /// What `owner` holds, their row and its box created on first use.
    fn held_mut(&mut self, owner: &MailName) -> &mut Held {
        let slot = self.slot_or_adopt(owner, NO_OWNER_SLOT);
        self.owners[slot].held_mut()
    }

    /// Restores one snapshot chunk of `owner`'s mailbox during recovery
    /// replay: re-deposits each message, oldest first. Bypasses the dedup
    /// ledger — snapshot chunks are authoritative, and the ledger is
    /// restored separately (`Record::SnapshotDeposited`).
    pub fn restore_snapshot_chunk(&mut self, owner: &MailName, messages: Vec<Message>) {
        let mb = &mut self.held_mut(owner).mailbox;
        for m in messages {
            mb.deposit(m);
        }
    }

    /// Restores one snapshot chunk of `owner`'s reservation buffer during
    /// recovery replay.
    pub fn restore_snapshot_pending(&mut self, owner: &MailName, messages: Vec<Message>) {
        self.held_mut(owner).reserved.extend(messages);
    }

    /// Deposits `message` into its recipient's mailbox. Returns `false`
    /// (and stores nothing) when the id was already deposited. `hint` is
    /// where the caller believes the recipient's row is
    /// ([`NO_OWNER_SLOT`] when it holds none), checked against the name
    /// as every hint is: a wrong one costs the name search and nothing
    /// else.
    pub fn deposit_at(&mut self, message: Message, hint: u32) -> bool {
        if !self.deposited.insert(message.id) {
            return false;
        }
        let slot = self.slot_or_adopt(&message.to, hint);
        self.owners[slot].held_mut().mailbox.deposit(message);
        true
    }

    /// Reliable retrieval: moves everything in `owner`'s mailbox into the
    /// reservation buffer and returns the full reserved list (older
    /// reservations first), with whether any mail moved. Nothing is
    /// released until [`StoreState::release_drained_at`]. `owner` is
    /// found once, by the checked `hint` (see
    /// [`MailStore::drain_reserve_at`] for what a hint may and may not
    /// do).
    pub fn drain_reserve_at(&mut self, owner: &MailName, hint: u32) -> (Vec<Message>, bool) {
        match self.slot(owner, hint) {
            Some(slot) => self.owners[slot].reserve(),
            None => (Vec::new(), false),
        }
    }

    /// The slot `owner`'s row is in, if they have one: what a right hint
    /// names ([`NO_OWNER_SLOT`] for a row past any `u32`). Changes nothing.
    pub fn slot_of(&self, owner: &MailName) -> Option<u32> {
        self.find(owner)
            .map(|slot| u32::try_from(slot).unwrap_or(NO_OWNER_SLOT))
    }

    /// Releases acknowledged ids from `owner`'s reservation buffer,
    /// returning how many were released. `hint` is checked as
    /// [`StoreState::drain_reserve_at`] checks it: a hint that names
    /// another owner's row releases nothing from it.
    pub fn release_drained_at(&mut self, owner: &MailName, ids: &[MessageId], hint: u32) -> u64 {
        let Some(slot) = self.slot(owner, hint) else {
            return 0;
        };
        let Some(held) = self.owners[slot].held.as_deref_mut() else {
            return 0;
        };
        let mut acked = ids.to_vec();
        acked.sort_unstable();
        let before = held.reserved.len();
        held.reserved
            .retain(|m| acked.binary_search(&m.id).is_err());
        let released = (before - held.reserved.len()) as u64;
        if held.reserved.is_empty() {
            // An acknowledged buffer keeps no capacity: most users who
            // were ever sent mail hold none most of the time.
            held.reserved = Vec::new();
        }
        released
    }

    /// Records that this server accepted responsibility for forwarding
    /// `message` with `hops_left` hops remaining. Idempotent: a message
    /// already accepted keeps its original entry. Returns `true` when the
    /// entry is new.
    pub fn accept_forward(&mut self, message: &Message, hops_left: u32) -> bool {
        match self.forwards.entry(message.id) {
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert((message.clone(), hops_left));
                true
            }
            std::collections::btree_map::Entry::Occupied(_) => false,
        }
    }

    /// Settles (discharges) an accepted forward: the message was handed to
    /// the next custodian, deposited locally, or bounced.
    pub fn settle_forward(&mut self, id: MessageId) -> bool {
        self.forwards.remove(&id).is_some()
    }

    /// Messages currently held: mailboxes plus reservation buffers.
    pub fn storage_messages(&self) -> u64 {
        (self.mailbox_messages() + self.pending_messages()) as u64
    }

    /// Messages currently in mailboxes.
    pub fn mailbox_messages(&self) -> usize {
        self.mailboxes().values().map(Mailbox::len).sum()
    }

    /// Messages currently in reservation buffers.
    pub fn pending_messages(&self) -> usize {
        self.pending().values().map(Vec::len).sum()
    }
}

impl OwnerEntry {
    /// A row for `name` that holds nothing.
    fn new(name: MailName) -> Self {
        OwnerEntry { name, held: None }
    }

    /// True when the row holds a message, in its mailbox or its buffer.
    fn holds_something(&self) -> bool {
        self.held
            .as_deref()
            .is_some_and(|held| !held.mailbox.is_empty() || !held.reserved.is_empty())
    }

    /// What the row holds, allocated on first use.
    fn held_mut(&mut self) -> &mut Held {
        self.held.get_or_insert_with(|| {
            Box::new(Held {
                mailbox: Mailbox::new(),
                reserved: Vec::new(),
            })
        })
    }

    /// Moves everything in the mailbox into the reservation buffer and
    /// returns the full reserved list, with whether any mail moved.
    fn reserve(&mut self) -> (Vec<Message>, bool) {
        let Some(held) = self.held.as_deref_mut() else {
            return (Vec::new(), false);
        };
        let drained = held.mailbox.drain();
        let moved = !drained.is_empty();
        if held.reserved.is_empty() {
            // The buffer takes over the mailbox's allocation instead of
            // making its own.
            held.reserved = drained;
        } else {
            held.reserved.extend(drained);
        }
        (held.reserved.clone(), moved)
    }
}

/// What a store reconstructed when it came back from a crash.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Backend name (`"mem-stable"`, `"mem-volatile"`, `"wal"`).
    pub backend: &'static str,
    /// Log records replayed (0 for in-memory backends).
    pub replayed_records: u64,
    /// Mailbox messages present after recovery.
    pub recovered_messages: u64,
    /// Reserved (drained-but-unacked) messages present after recovery.
    pub recovered_pending: u64,
    /// Accepted-but-unsettled forwards reconstructed.
    pub recovered_forwards: u64,
    /// Messages known lost by this backend across the crash.
    pub lost_messages: u64,
    /// Bytes discarded from a torn (partially written) log tail.
    pub torn_bytes: u64,
    /// Log segments scanned during replay.
    pub segments: u64,
}

/// A recovery event as surfaced to telemetry (one per server recovery).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreRecovery {
    /// When the server recovered.
    pub at: SimTime,
    /// Recovering server's node id.
    pub site: u64,
    /// What its store reconstructed.
    pub report: RecoveryReport,
}

/// Cumulative I/O-health counters for one store backend.
///
/// The write-path numbers size the durability cost the paper's §3 sizing
/// arguments must absorb (how many fsyncs per deposited message, how fast
/// the log grows); the recovery numbers size the §3.1.2c custodian
/// promise (how much scan work a crash costs). All counters are lifetime
/// totals derived from operation counts — exporting them perturbs
/// nothing. A store without a log reports all zeros.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreMetrics {
    /// Log records appended (live writes, not replay).
    pub appended_records: u64,
    /// Payload bytes appended to the log.
    pub appended_bytes: u64,
    /// Explicit durability barriers issued (fsync or equivalent).
    pub fsyncs: u64,
    /// Segment rotations.
    pub rotations: u64,
    /// Compaction passes completed.
    pub compactions: u64,
    /// Snapshot chunks written across all compactions.
    pub compaction_chunks: u64,
    /// Records replayed by recovery and persist/restore scans.
    pub replayed_records: u64,
    /// Bytes scanned by recovery and persist/restore scans.
    pub replayed_bytes: u64,
    /// I/O errors swallowed instead of panicking inside an event handler.
    pub io_errors: u64,
}

/// Mailbox persistence.
///
/// A server actor routes every durable-state mutation through this trait;
/// the store decides what survives [`MailStore::crash`]. Methods are
/// infallible: a store whose device can fail counts the failures in
/// [`StoreMetrics::io_errors`] instead of panicking inside an event
/// handler.
pub trait MailStore: std::fmt::Debug {
    /// Stable backend name for telemetry.
    fn backend(&self) -> &'static str;

    /// True when the server process's volatile protocol state (retry
    /// timers, in-flight bookkeeping) also survives a crash by fiat —
    /// only the historical `"mem-stable"` store says yes.
    fn preserves_volatile(&self) -> bool;

    /// Wires the store with the users it keeps mail for, as
    /// [`StoreState::seed_roster`] does; the roster outlives a crash.
    /// What the store holds is unchanged, and no record is logged.
    fn seed_roster(&mut self, roster: &mut dyn Iterator<Item = &MailName>);

    /// Deposits `message`; returns `false` for a duplicate id (dedup).
    /// `now` is when the server took it, which no store keeps.
    ///
    /// This and the other two hint-less methods are kept only for the
    /// benchmark's store replay, their one caller outside tests (ROADMAP
    /// items 2(l) and 20).
    fn deposit(&mut self, message: Message, now: SimTime) -> bool {
        self.deposit_at(message, now, NO_OWNER_SLOT)
    }

    /// [`MailStore::deposit`] with a hint of the slot the store keeps the
    /// recipient in, checked as [`MailStore::drain_reserve_at`] checks
    /// its own.
    fn deposit_at(&mut self, message: Message, now: SimTime, hint: u32) -> bool;

    /// [`MailStore::drain_reserve_at`] without a hint.
    fn drain_reserve(&mut self, owner: &MailName) -> Vec<Message> {
        self.drain_reserve_at(owner, NO_OWNER_SLOT)
    }

    /// Reliable retrieval: reserve `owner`'s mail, return the reserved
    /// list. `hint` is the slot the caller believes the store keeps
    /// `owner` in: the roster slot wiring handed out
    /// ([`Directory::find`](crate::directory::Directory::find)),
    /// or [`NO_OWNER_SLOT`] for none.
    ///
    /// The hint is only a hint. The store uses it when the slot it names
    /// holds `owner` and otherwise finds `owner` by name, so a stale,
    /// forged or out-of-range hint costs a name walk and can never reach
    /// another user's mail. Roster slots outlive a crash; an owner off
    /// the roster has no slot wiring could hand out, and is found by name.
    fn drain_reserve_at(&mut self, owner: &MailName, hint: u32) -> Vec<Message>;

    /// [`MailStore::release_drained_at`] without a hint.
    fn release_drained(&mut self, owner: &MailName, ids: &[MessageId]) -> u64 {
        self.release_drained_at(owner, ids, NO_OWNER_SLOT)
    }

    /// Release acknowledged reserved ids; returns how many were released.
    /// `hint` is checked as [`MailStore::drain_reserve_at`] checks its
    /// own: a hint that names another owner's slot releases nothing of
    /// theirs.
    fn release_drained_at(&mut self, owner: &MailName, ids: &[MessageId], hint: u32) -> u64;

    /// Journal acceptance of a forward (message + remaining hop budget).
    fn accept_forward(&mut self, message: &Message, hops_left: u32);

    /// Discharge an accepted forward.
    fn settle_forward(&mut self, id: MessageId);

    /// Mailboxes that hold mail (read-only view for audits and metrics).
    fn mailboxes(&self) -> Mailboxes<'_>;

    /// Reservation buffers that hold mail (read-only view).
    fn pending_drain(&self) -> PendingDrain<'_>;

    /// The server crashed at `now`: apply the store's loss model.
    fn crash(&mut self, now: SimTime);

    /// The server recovered at `now`: rebuild state, report what
    /// survived, and hand back the unsettled forwards the server must
    /// re-route, in message-id order. None are handed back when the
    /// server's process state survives by fiat (the actor keeps its own
    /// in-flight bookkeeping then).
    fn recover(&mut self, now: SimTime) -> (RecoveryReport, Vec<(Message, u32)>);

    /// Persist everything durable and rebuild in-memory state from it, as
    /// if the store were closed and reopened cleanly. Returns `None` for
    /// a store with nothing to round-trip.
    fn persist_restore(&mut self) -> Option<RecoveryReport>;

    /// Durable log bytes currently held (0 without a log).
    fn wal_bytes(&self) -> u64;

    /// Cumulative I/O-health counters (all zeros without a log).
    fn store_metrics(&self) -> StoreMetrics;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageIdGen;

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
    fn deposit_dedups_by_id() {
        let mut g = MessageIdGen::new();
        let mut s = StoreState::default();
        let m = msg(&mut g, "east.h.u");
        assert!(s.deposit_at(m.clone(), NO_OWNER_SLOT));
        assert!(!s.deposit_at(m, NO_OWNER_SLOT));
        assert_eq!(s.storage_messages(), 1);
    }

    #[test]
    fn drain_reserve_then_release_settles_storage() {
        let mut g = MessageIdGen::new();
        let mut s = StoreState::default();
        let owner: MailName = "east.h.u".parse().unwrap();
        for _ in 0..3 {
            s.deposit_at(msg(&mut g, "east.h.u"), NO_OWNER_SLOT);
        }
        let (reserved, moved) = s.drain_reserve_at(&owner, NO_OWNER_SLOT);
        assert_eq!((reserved.len(), moved), (3, true));
        // Un-acked: still held in the reservation buffer.
        assert_eq!(s.storage_messages(), 3);
        // A second reserve returns the same outstanding batch, and moves
        // nothing.
        assert_eq!(
            s.drain_reserve_at(&owner, NO_OWNER_SLOT),
            (reserved.clone(), false)
        );
        let released =
            s.release_drained_at(&owner, &[reserved[0].id, reserved[2].id], NO_OWNER_SLOT);
        assert_eq!(released, 2);
        assert_eq!(s.storage_messages(), 1);
    }

    /// Owners equal whatever order they first appeared in, and the views
    /// read in name order either way — a state replayed from a name-ordered
    /// snapshot is the live one.
    #[test]
    fn equality_and_views_follow_names_not_slots() {
        let mut g = MessageIdGen::new();
        let (a, b, c) = ("east.h.a", "east.h.b", "east.h.c");
        let (ma, mb, mc) = (msg(&mut g, a), msg(&mut g, b), msg(&mut g, c));
        let name = |s: &str| s.parse::<MailName>().unwrap();

        let mut live = StoreState::default();
        live.deposit_at(mc.clone(), NO_OWNER_SLOT);
        live.deposit_at(mb.clone(), NO_OWNER_SLOT);
        live.drain_reserve_at(&name(b), NO_OWNER_SLOT);
        live.deposit_at(ma.clone(), NO_OWNER_SLOT);
        let mut replayed = StoreState::default();
        replayed.deposit_at(ma, NO_OWNER_SLOT);
        replayed.deposit_at(mb, NO_OWNER_SLOT);
        replayed.drain_reserve_at(&name(b), NO_OWNER_SLOT);
        replayed.deposit_at(mc, NO_OWNER_SLOT);

        assert_eq!(live, replayed);
        let keys = |s: &StoreState| s.mailboxes().keys().cloned().collect::<Vec<_>>();
        assert_eq!(keys(&live), [name(a), name(c)]);
        assert_eq!(keys(&replayed), keys(&live));
        assert_eq!(live.pending().keys().collect::<Vec<_>>(), [&name(b)]);
        // ... though each keeps its owners where they first appeared.
        assert_eq!(live.slot_of(&name(a)), Some(2));
        assert_eq!(replayed.slot_of(&name(a)), Some(0));

        replayed.drain_reserve_at(&name(c), NO_OWNER_SLOT);
        assert_ne!(live, replayed, "c's mail moved to the reservation buffer");
    }

    /// A row is a name and a pointer: what a user holds is boxed apart,
    /// and only once they are deposited to.
    #[test]
    fn an_owner_row_fits_in_40_bytes() {
        assert!(std::mem::size_of::<OwnerEntry>() <= 40);
    }

    /// A hint saves the name search and decides nothing else: forged, stale
    /// and out-of-range hints all reach the owner they name.
    #[test]
    fn owner_slot_hint_is_checked_against_the_name() {
        let mut g = MessageIdGen::new();
        let mut s = StoreState::default();
        let alice: MailName = "east.h.alice".parse().unwrap();
        let bob: MailName = "east.h.bob".parse().unwrap();
        s.deposit_at(msg(&mut g, "east.h.alice"), NO_OWNER_SLOT);
        s.deposit_at(msg(&mut g, "east.h.bob"), NO_OWNER_SLOT);
        let (a, b) = (0, 1);
        assert_eq!((s.slot_of(&alice), s.slot_of(&bob)), (Some(a), Some(b)));

        let (mail, moved) = s.drain_reserve_at(&alice, NO_OWNER_SLOT);
        assert_eq!((mail.len(), moved), (1, true));
        // Bob, claiming alice's slot, gets bob's mail.
        let (mail, moved) = s.drain_reserve_at(&bob, a);
        assert_eq!((mail.len(), moved), (1, true));
        assert_eq!(mail[0].to, bob);
        // The honest hint and the absurd one answer alike.
        assert_eq!(s.drain_reserve_at(&bob, b), s.drain_reserve_at(&bob, 7_000));
        // A stranger holds nothing, whatever slot they claim: nothing
        // moves, and no slot is taken until their first deposit.
        let carol: MailName = "east.h.carol".parse().unwrap();
        assert_eq!(s.drain_reserve_at(&carol, a), (Vec::new(), false));
        assert_eq!(s.slot_of(&carol), None);
        s.deposit_at(msg(&mut g, "east.h.carol"), a);
        assert_eq!(s.slot_of(&carol), Some(2));
        assert!(s.drain_reserve_at(&carol, a).1, "carol's mail moved");
        assert_eq!(s.pending()[&alice].len(), 1, "alice's box untouched");

        // Deposits and releases take the same hints, with the same check:
        // bob's mail under alice's slot lands in bob's box, and bob's ack
        // under it releases none of alice's buffer.
        let to_bob = msg(&mut g, "east.h.bob");
        assert!(s.deposit_at(to_bob.clone(), a));
        assert!(!s.deposit_at(to_bob, b), "dedup stands whatever the hint");
        assert_eq!(s.mailboxes()[&bob].len(), 1);
        assert_eq!(s.mailboxes().get(&alice), None);
        let alices = s.pending()[&alice][0].id;
        assert_eq!(s.release_drained_at(&bob, &[alices], a), 0);
        let bobs = s.pending()[&bob][0].id;
        assert_eq!(s.release_drained_at(&bob, &[alices, bobs], 9_999), 1);
        assert_eq!(s.pending()[&alice].len(), 1, "alice's buffer untouched");
        assert_eq!(s.release_drained_at(&carol, &[alices], a), 0);
    }
}
