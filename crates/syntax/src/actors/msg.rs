//! The protocol spoken between hosts and servers, and the run statistics
//! every actor shares.

use std::collections::{BTreeMap, BTreeSet};

use lems_core::message::{BounceReason, Message, MessageId};
use lems_core::name::MailName;
use lems_core::user::AuthorityList;
use lems_net::graph::NodeId;
use lems_sim::metrics::Summary;
use lems_sim::time::SimTime;

/// The protocol spoken between hosts and servers.
#[derive(Clone, Debug)]
pub enum MailMsg {
    /// Workload injection: a user on this host wants to send mail.
    DoSend {
        /// Sender (must live on the receiving host).
        from: MailName,
        /// Recipient.
        to: MailName,
        /// Where the injector believes the host keeps `from`
        /// ([`MailMsg::NO_SLOT_HINT`] when it has no idea). A hint only:
        /// the host checks it against `from` before trusting it.
        slot: u32,
    },
    /// Workload injection: a user on this host checks their mail.
    DoCheck {
        /// The checking user.
        user: MailName,
        /// Where the injector believes the host keeps `user`; a checked
        /// hint, as on [`MailMsg::DoSend`].
        slot: u32,
    },
    /// UI -> server: accept this message for delivery.
    Submit {
        /// The message.
        msg: Message,
        /// Host node to acknowledge.
        reply_to: NodeId,
    },
    /// Server -> UI: message accepted (store-and-forward responsibility
    /// transferred).
    SubmitAck {
        /// Accepted message.
        id: MessageId,
    },
    /// Server -> server: continue resolution/delivery.
    Forward {
        /// The message.
        msg: Message,
        /// Server node to acknowledge.
        reply_to: NodeId,
        /// Remaining hop budget.
        hops_left: u32,
    },
    /// Server -> server: forwarded message accepted.
    ForwardAck {
        /// Accepted message.
        id: MessageId,
    },
    /// Server -> host: mail for `user` was deposited (the "alert signal").
    Notify {
        /// Recipient.
        user: MailName,
        /// Deposited message.
        id: MessageId,
    },
    /// UI -> server: return stored mail for `user`.
    Retrieve {
        /// The retrieving user.
        user: MailName,
        /// Host node to reply to.
        reply_to: NodeId,
        /// Opaque to the server, which echoes it in the reply: where the
        /// host keeps this user's session.
        session: u32,
        /// Where wiring said this server's store keeps `user`, if anywhere
        /// ([`NO_OWNER_SLOT`](lems_core::store::NO_OWNER_SLOT)). A hint
        /// only: the store checks it against `user` before trusting it.
        owner_slot: u32,
    },
    /// Server -> UI: stored mail plus the server's `LastStartTime`.
    RetrieveReply {
        /// The user polled for.
        user: MailName,
        /// Drained messages.
        messages: Vec<Message>,
        /// The server's `LastStartTime`.
        last_start_time: SimTime,
        /// The request's `session`, echoed. A hint only: the host checks
        /// it against `user` before trusting it.
        session: u32,
    },
    /// UI -> server: the listed drained messages arrived safely; the
    /// server may release its drain buffer for them. Without this ack a
    /// lost `RetrieveReply` would destroy mail — the server keeps drained
    /// messages in stable storage until the host confirms receipt.
    RetrieveAck {
        /// The user whose drain is being confirmed.
        user: MailName,
        /// Ids received by the host.
        ids: Vec<MessageId>,
        /// The `owner_slot` the host's [`MailMsg::Retrieve`] to this
        /// server carries: a hint the store checks against `user` before
        /// releasing anything.
        owner_slot: u32,
    },
    /// Workload injection: `user` logs on at this host (§3.2.2c), which
    /// starts serving them if it does not already.
    DoLogin {
        /// The user logging in.
        user: MailName,
        /// Where their mail is kept, for a host that has to adopt them.
        authorities: AuthorityList,
    },
    /// Host -> server: `user` is now at `host` ("whenever a user logs on to
    /// a host, the host will inform the nearest active server").
    LoginReport {
        /// The user.
        user: MailName,
        /// Their current host.
        host: NodeId,
        /// When the login happened (hosts and servers share coarsely
        /// synchronised clocks, the same assumption GetMail makes).
        at: SimTime,
    },
    /// Server -> peer: a [`MailMsg::LoginReport`] passed on ("all servers
    /// in a region will cooperate to keep track of the movement of users").
    /// The login's own timestamp travels with it, so facts racing over
    /// different-length paths resolve last-writer-wins, not last-arrival.
    LocationUpdate {
        /// The user.
        user: MailName,
        /// Their current host.
        host: NodeId,
        /// When the login happened.
        at: SimTime,
    },
    /// Server -> peer: where is `user`? Asked by a depositing server that
    /// holds no location for the recipient.
    WhereIs {
        /// The user sought.
        user: MailName,
        /// The deposited message whose alert awaits the answer.
        pending: MessageId,
        /// Who is asking.
        reply_to: NodeId,
    },
    /// Peer's answer to [`MailMsg::WhereIs`].
    LocationReply {
        /// The message this answers for.
        pending: MessageId,
        /// The host and the login time the peer holds, if any — the same
        /// pair a [`MailMsg::LocationUpdate`] would have carried.
        found: Option<(NodeId, SimTime)>,
    },
}

impl MailMsg {
    /// The `slot` of a [`MailMsg::DoSend`] or [`MailMsg::DoCheck`] injected
    /// without knowing where the host keeps the user: resolved by name.
    pub const NO_SLOT_HINT: u32 = u32::MAX;
}

/// Shared run statistics (single-threaded simulation: `Rc<RefCell<_>>`).
#[derive(Debug, Default)]
pub struct DeliveryStats {
    /// Messages submitted by user interfaces.
    pub submitted: u64,
    /// Messages deposited into mailboxes.
    pub deposited: u64,
    /// Messages retrieved by their recipients.
    pub retrieved: u64,
    /// Messages bounced (resolution failure or every server down).
    pub bounced: u64,
    /// Individual submit probes (connection-setup attempts), including
    /// retransmissions.
    pub submit_attempts: u64,
    /// Individual forward probes between servers, including
    /// retransmissions.
    pub forward_attempts: u64,
    /// Session-layer retransmissions (same peer, repeated request after a
    /// timeout) across submit, forward, and retrieve exchanges.
    pub retransmits: u64,
    /// Notifications sent to recipient hosts.
    pub notifications: u64,
    /// Notifications that location tracking (a table entry, or a finished
    /// round of `WhereIs`) aimed at the user's primary host. Zero without
    /// tracking, so `notifications - notified_at_primary` counts roaming
    /// alerts only where servers have peers.
    pub notified_at_primary: u64,
    /// `WhereIs` consultations sent to peers (§3.2.2c: "only incurred if a
    /// user moves").
    pub consults: u64,
    /// Deposits with nobody to alert: the depositing server holds no
    /// record of the recipient.
    pub unknown_location: u64,
    /// Messages currently sitting in server storage (live gauge).
    pub(crate) in_storage_now: u64,
    /// Largest value `in_storage_now` ever reached (§4.4 "storage space
    /// used").
    pub peak_storage: u64,
    /// Probes per completed GetMail retrieval.
    pub retrieval_polls: Summary,
    /// Ledger: ids submitted.
    pub ledger_submitted: BTreeSet<MessageId>,
    /// Ledger: ids retrieved.
    pub ledger_retrieved: BTreeSet<MessageId>,
    /// Ledger: ids bounced (with reasons).
    pub ledger_bounced: BTreeMap<MessageId, BounceReason>,
}

impl DeliveryStats {
    /// Messages neither retrieved nor bounced — still stored or in flight.
    pub fn outstanding(&self) -> usize {
        self.ledger_submitted.len() - self.ledger_retrieved.len() - self.ledger_bounced.len()
    }
}
