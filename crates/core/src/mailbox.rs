//! Server-side mailboxes.
//!
//! §3.1.2c: hosts "can be personal computers, or workstations. The user may
//! not be turned on all the time. Therefore, the received messages are
//! stored in the servers' storage space until the users retrieve them."
//! A mailbox is stable storage on a server: it survives the server's
//! crashes (the server is down, not wiped), which is exactly the property
//! the GetMail algorithm relies on.

use lems_sim::time::SimTime;

use crate::message::Message;

/// One message as stored on a server.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StoredMessage {
    /// The message itself.
    pub message: Message,
    /// When the server deposited it.
    pub deposited_at: SimTime,
}

/// A user's mailbox on one server.
///
/// Mailboxes are created and mutated only by the [`store`](crate::store)
/// module: outside `lems-core` a `Mailbox` is a read-only view reached
/// through [`MailStore::mailboxes`](crate::store::MailStore::mailboxes),
/// so durable state cannot move except through the store interface.
///
/// # Examples
///
/// ```
/// use lems_core::message::{Message, MessageId};
/// use lems_core::store::{MailStore, MemStore};
/// use lems_sim::time::SimTime;
///
/// let owner: lems_core::MailName = "east.vax1.alice".parse()?;
/// let mut store = MemStore::stable();
/// let m = Message::new(
///     MessageId(0),
///     "east.vax1.bob".parse()?,
///     owner.clone(),
///     "hi", "body", SimTime::ZERO,
/// );
/// store.deposit(m, SimTime::from_units(1.0));
/// assert_eq!(store.mailboxes()[&owner].len(), 1);
/// // A check reserves the mail; the mailbox is empty, the store still
/// // holds the message until the check is acknowledged.
/// let reserved = store.drain_reserve(&owner);
/// assert_eq!(reserved.len(), 1);
/// assert!(store.mailboxes()[&owner].is_empty());
/// assert_eq!(store.release_drained(&owner, &[reserved[0].id]), 1);
/// assert!(store.pending_drain()[&owner].is_empty());
/// # Ok::<(), lems_core::name::ParseNameError>(())
/// ```
///
/// The mutators are private to this crate. A helper that takes
/// `&mut Mailbox` cannot launder a drain past the store:
///
/// ```compile_fail,E0624
/// use lems_core::mailbox::Mailbox;
/// fn purge(mb: &mut Mailbox) {
///     mb.drain();
/// }
/// ```
///
/// and neither an ad-hoc mailbox nor a hand-built ledger map can exist:
///
/// ```compile_fail,E0624
/// use std::collections::BTreeMap;
/// use lems_core::{mailbox::Mailbox, MailName};
/// fn seed(boxes: &mut BTreeMap<MailName, Mailbox>, owner: MailName) {
///     boxes.entry(owner).or_insert_with(Mailbox::new);
/// }
/// ```
///
/// The same two helpers compile once they only read:
///
/// ```
/// use std::collections::BTreeMap;
/// use lems_core::{mailbox::Mailbox, MailName};
/// fn depth(mb: &mut Mailbox) -> usize {
///     mb.len()
/// }
/// fn total(boxes: &mut BTreeMap<MailName, Mailbox>) -> usize {
///     boxes.values().map(Mailbox::len).sum()
/// }
/// ```
///
/// Ledger invariant: every deposited message leaves the mailbox through
/// exactly one of retrieval (`drain`) or expiry (`expire_older_than`), so
/// at all times
///
/// ```text
/// deposited_total == retrieved_total + expired_total + len()
/// ```
///
/// `retrieved_total` deliberately counts only messages handed to a user
/// (drains); expiry is storage reclamation, not retrieval, and is ledgered
/// separately in `expired_total`.
#[derive(Clone, Debug, PartialEq)]
pub struct Mailbox {
    stored: Vec<StoredMessage>,
    deposited_total: u64,
    retrieved_total: u64,
    expired_total: u64,
}

impl Mailbox {
    /// Creates an empty mailbox.
    pub(crate) fn new() -> Self {
        Mailbox {
            stored: Vec::new(),
            deposited_total: 0,
            retrieved_total: 0,
            expired_total: 0,
        }
    }

    /// Stores a message.
    pub(crate) fn deposit(&mut self, message: Message, now: SimTime) {
        self.deposited_total += 1;
        self.stored.push(StoredMessage {
            message,
            deposited_at: now,
        });
    }

    /// Number of messages currently stored.
    pub fn len(&self) -> usize {
        self.stored.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.stored.is_empty()
    }

    /// Messages currently stored, oldest first, without removing them
    /// (the "retain a copy on the server" option of §3.1.2c).
    pub fn peek(&self) -> &[StoredMessage] {
        &self.stored
    }

    /// Removes and returns all stored messages, oldest first — the normal
    /// retrieval path.
    pub(crate) fn drain(&mut self) -> Vec<StoredMessage> {
        self.retrieved_total += self.stored.len() as u64;
        std::mem::take(&mut self.stored)
    }

    /// Messages ever deposited into this mailbox.
    pub fn deposited_total(&self) -> u64 {
        self.deposited_total
    }

    /// Messages ever retrieved from this mailbox by drains (expiry is
    /// ledgered in [`Mailbox::expired_total`], not here).
    pub fn retrieved_total(&self) -> u64 {
        self.retrieved_total
    }

    /// Messages ever reclaimed by
    /// [`MailStore::expire_older_than`](crate::store::MailStore::expire_older_than).
    pub fn expired_total(&self) -> u64 {
        self.expired_total
    }

    /// Drops every stored message older than `cutoff`, returning how many
    /// were removed — the archiving/clean-up hook of §3.1.2c ("some policy
    /// of message archiving and clean-up must be implemented to protect the
    /// servers' storage"). Expired messages count toward `expired_total`,
    /// never `retrieved_total`: nobody read them.
    pub(crate) fn expire_older_than(&mut self, cutoff: SimTime) -> usize {
        let before = self.stored.len();
        self.stored.retain(|s| s.deposited_at >= cutoff);
        let expired = before - self.stored.len();
        self.expired_total += expired as u64;
        expired
    }

    /// Restores the ledger counters after a log replay rebuilds this
    /// mailbox from a snapshot (the counters are history, not derivable
    /// from the surviving messages alone).
    pub(crate) fn restore_ledger(&mut self, deposited: u64, retrieved: u64, expired: u64) {
        self.deposited_total = deposited;
        self.retrieved_total = retrieved;
        self.expired_total = expired;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{MessageId, MessageIdGen};

    fn msg(gen: &mut MessageIdGen, to: &str) -> Message {
        Message::new(
            gen.next_id(),
            "east.h.sender".parse().unwrap(),
            to.parse().unwrap(),
            "s",
            "b",
            SimTime::ZERO,
        )
    }

    #[test]
    fn deposit_and_drain_fifo() {
        let mut g = MessageIdGen::new();
        let mut mb = Mailbox::new();
        for i in 0..3 {
            mb.deposit(msg(&mut g, "east.h.u"), SimTime::from_units(i as f64));
        }
        assert_eq!(mb.len(), 3);
        let out = mb.drain();
        assert_eq!(
            out.iter().map(|s| s.message.id.0).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert!(mb.is_empty());
        assert_eq!(mb.deposited_total(), 3);
        assert_eq!(mb.retrieved_total(), 3);
    }

    /// Pins the ledger semantics: expiry is accounted in `expired_total`,
    /// never in `retrieved_total`, and the conservation identity
    /// `deposited == retrieved + expired + len` holds through a mixed
    /// history in which drains and expiry both remove messages.
    #[test]
    fn ledger_conserves_messages_across_drain_remove_expire() {
        let mut g = MessageIdGen::new();
        let mut mb = Mailbox::new();
        for i in 0..3 {
            mb.deposit(msg(&mut g, "east.h.u"), SimTime::from_units(i as f64));
        }
        assert_eq!(mb.drain().len(), 3);
        for i in 3..8 {
            mb.deposit(msg(&mut g, "east.h.u"), SimTime::from_units(i as f64));
        }
        let expired = mb.expire_older_than(SimTime::from_units(5.0));
        assert_eq!(expired, 2); // ids 3 and 4
        mb.deposit(msg(&mut g, "east.h.u"), SimTime::from_units(8.0));
        let drained = mb.drain();
        assert_eq!(drained.len(), 4);
        assert_eq!(mb.deposited_total(), 9);
        assert_eq!(mb.retrieved_total(), 7); // 3 + 4 drained
        assert_eq!(mb.expired_total(), 2); // expiry is not retrieval
        assert_eq!(
            mb.deposited_total(),
            mb.retrieved_total() + mb.expired_total() + mb.len() as u64
        );
    }

    #[test]
    fn expiry_removes_old_messages() {
        let mut g = MessageIdGen::new();
        let mut mb = Mailbox::new();
        mb.deposit(msg(&mut g, "east.h.u"), SimTime::from_units(1.0));
        mb.deposit(msg(&mut g, "east.h.u"), SimTime::from_units(5.0));
        let removed = mb.expire_older_than(SimTime::from_units(3.0));
        assert_eq!(removed, 1);
        assert_eq!(mb.len(), 1);
        assert_eq!(mb.peek()[0].message.id, MessageId(1));
    }
}
