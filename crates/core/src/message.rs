//! Mail messages and their delivery lifecycle.

use std::fmt;
use std::sync::Arc;

use lems_sim::time::SimTime;

use crate::name::MailName;

/// Globally unique message identifier (unique per simulation run).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MessageId(pub u64);

impl fmt::Display for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Issues sequential [`MessageId`]s.
#[derive(Clone, Debug, Default)]
pub struct MessageIdGen {
    next: u64,
}

impl MessageIdGen {
    /// Creates a generator starting at id 0.
    pub fn new() -> Self {
        MessageIdGen::default()
    }

    /// Returns a fresh id.
    pub fn next_id(&mut self) -> MessageId {
        let id = MessageId(self.next);
        self.next += 1;
        id
    }
}

/// A mail message as handed to a server for delivery.
///
/// The user interface composes and formats the message (§2); by the time it
/// reaches a mail server it carries sender, recipient, body, and the
/// submission timestamp used for latency accounting.
///
/// A message does not change after submission, and a copy of it sits in
/// every probe, retry task, journal entry, mailbox slot and drain
/// reservation along its way. `Message` is therefore a handle on one
/// shared [`MessageData`]: `clone` bumps a reference count, and the fields
/// read through the handle (`msg.id`, `msg.to`).
#[derive(Clone, PartialEq, Eq)]
pub struct Message(Arc<MessageData>);

/// The contents of a [`Message`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MessageData {
    /// Unique id.
    pub id: MessageId,
    /// Fully qualified sender name.
    pub from: MailName,
    /// Fully qualified recipient name.
    pub to: MailName,
    /// Subject line.
    pub subject: String,
    /// Body text.
    pub body: String,
    /// Simulated instant the user interface submitted the message.
    pub submitted_at: SimTime,
}

impl Message {
    /// Creates a message.
    pub fn new(
        id: MessageId,
        from: MailName,
        to: MailName,
        subject: impl Into<String>,
        body: impl Into<String>,
        submitted_at: SimTime,
    ) -> Self {
        Message(Arc::new(MessageData {
            id,
            from,
            to,
            subject: subject.into(),
            body: body.into(),
            submitted_at,
        }))
    }

    /// This message re-addressed to `to` (a §3.1.4 redirect); everything
    /// else, the id included, is kept.
    pub fn redirected(&self, to: MailName) -> Message {
        Message(Arc::new(MessageData {
            to,
            ..MessageData::clone(&self.0)
        }))
    }
}

impl std::ops::Deref for Message {
    type Target = MessageData;

    fn deref(&self) -> &MessageData {
        &self.0
    }
}

impl fmt::Debug for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} -> {} ({:?})",
            self.id, self.from, self.to, self.subject
        )
    }
}

/// Why a message bounced.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BounceReason {
    /// The recipient name failed to resolve anywhere.
    UnknownRecipient,
    /// Every authority server for the recipient was unavailable.
    AllServersDown,
    /// The recipient region was unreachable.
    RegionUnreachable,
}

impl fmt::Display for BounceReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BounceReason::UnknownRecipient => f.write_str("unknown recipient"),
            BounceReason::AllServersDown => f.write_str("all authority servers down"),
            BounceReason::RegionUnreachable => f.write_str("recipient region unreachable"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> MailName {
        s.parse().unwrap()
    }

    #[test]
    fn id_generator_is_sequential() {
        let mut g = MessageIdGen::new();
        assert_eq!(g.next_id(), MessageId(0));
        assert_eq!(g.next_id(), MessageId(1));
        assert_eq!(g.next_id(), MessageId(2));
    }

    #[test]
    fn message_construction_and_size() {
        let m = Message::new(
            MessageId(7),
            name("east.vax1.alice"),
            name("west.sun3.bob"),
            "hi",
            "hello bob",
            SimTime::from_units(1.0),
        );
        let s = m.to_string();
        assert!(s.contains("m7") && s.contains("alice") && s.contains("bob"));
    }

    #[test]
    fn bounce_reasons_display() {
        assert_eq!(
            BounceReason::UnknownRecipient.to_string(),
            "unknown recipient"
        );
    }
}
