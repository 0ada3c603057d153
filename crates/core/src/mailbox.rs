//! Server-side mailboxes.
//!
//! §3.1.2c: hosts "can be personal computers, or workstations. The user may
//! not be turned on all the time. Therefore, the received messages are
//! stored in the servers' storage space until the users retrieve them."
//! A mailbox is stable storage on a server: it survives the server's
//! crashes (the server is down, not wiped), which is exactly the property
//! the GetMail algorithm relies on.

use crate::message::Message;

/// A user's mailbox on one server: the messages deposited for them and
/// not yet reserved by a check.
///
/// Mailboxes are created and mutated only by the [`store`](crate::store)
/// module: outside `lems-core` a `Mailbox` is a read-only view reached
/// through [`StoreState::mailboxes`](crate::store::StoreState::mailboxes),
/// so durable state cannot move except through the store interface.
///
/// # Examples
///
/// ```
/// use lems_core::message::{Message, MessageId};
/// use lems_core::store::{StoreState, NO_OWNER_SLOT};
/// use lems_sim::time::SimTime;
///
/// let owner: lems_core::MailName = "east.vax1.alice".parse()?;
/// let mut store = StoreState::default();
/// let m = Message::new(
///     MessageId(0),
///     "east.vax1.bob".parse()?,
///     owner.clone(),
///     "hi", "body", SimTime::ZERO,
/// );
/// store.deposit_at(m, NO_OWNER_SLOT);
/// assert_eq!(store.mailboxes()[&owner].len(), 1);
/// // A check reserves the mail; the mailbox is empty, the store still
/// // holds the message until the check is acknowledged.
/// let (reserved, moved) = store.drain_reserve_at(&owner, NO_OWNER_SLOT);
/// assert_eq!((reserved.len(), moved), (1, true));
/// assert!(store.mailboxes().get(&owner).is_none());
/// let acked = [reserved[0].id];
/// assert_eq!(store.release_drained_at(&owner, &acked, NO_OWNER_SLOT), 1);
/// assert!(store.pending().get(&owner).is_none());
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
/// and neither an ad-hoc mailbox nor a hand-built map of them can exist:
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
#[derive(Clone, Debug, PartialEq)]
pub struct Mailbox {
    stored: Vec<Message>,
}

impl Mailbox {
    /// Creates an empty mailbox.
    pub(crate) fn new() -> Self {
        Mailbox { stored: Vec::new() }
    }

    /// Stores a message.
    pub(crate) fn deposit(&mut self, message: Message) {
        self.stored.push(message);
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
    pub fn peek(&self) -> &[Message] {
        &self.stored
    }

    /// Removes and returns all stored messages, oldest first — the normal
    /// retrieval path.
    pub(crate) fn drain(&mut self) -> Vec<Message> {
        std::mem::take(&mut self.stored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageIdGen;
    use lems_sim::time::SimTime;

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
        for _ in 0..3 {
            mb.deposit(msg(&mut g, "east.h.u"));
        }
        assert_eq!(mb.len(), 3);
        let out = mb.drain();
        assert_eq!(
            out.iter().map(|m| m.id.0).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert!(mb.is_empty());
    }
}
