//! The user-interface actor: one per host, serving every user homed there.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use lems_core::message::{BounceReason, Message, MessageId, MessageIdGen};
use lems_core::name::MailName;
use lems_core::store::NO_OWNER_SLOT;
use lems_core::user::AuthorityList;
use lems_net::graph::NodeId;
use lems_sim::actor::{Actor, ActorId, Ctx, TimerId};
use lems_sim::span::{SpanId, SpanStage, NO_NODE};

use super::{site, Endpoint, Exchange, MailMsg, Timeout};
use crate::getmail::{Check, GetMailState, Step};

/// Per-user state kept by the host actor.
#[derive(Clone, Debug)]
pub(super) struct UiUser {
    /// Never changed after [`UiUser::wired`]: an in-flight
    /// [`RetrievalSession`] indexes into it.
    pub(super) authorities: AuthorityList,
    /// Per authority server, in list order: the roster slot wiring gave
    /// it ([`NO_OWNER_SLOT`] for a user wiring did not place here, or one
    /// who migrated). Kept for the first [`HINTED_SERVERS`] only, inline,
    /// so the row allocates nothing of its own.
    pub(super) owner_slots: [u32; HINTED_SERVERS],
    getmail: GetMailState,
    /// The check in flight, as its index in the host's [`Sessions`]: a
    /// session exists only while a check runs, so the user's row does not
    /// carry one.
    pub(super) retrieval: Option<u32>,
    pub(super) pending_check: bool,
}

/// How many servers of a user's authority list the host keeps owner
/// slots for. GetMail seldom walks past the third; a server further down
/// is asked without a hint and finds the user by name.
const HINTED_SERVERS: usize = 3;

impl UiUser {
    /// A user who has never checked mail, whose authority server of each
    /// rank keeps them in slot `roster_slots[rank]`
    /// ([`Directory::find`](lems_core::directory::Directory::find)).
    pub(super) fn wired(authorities: AuthorityList, roster_slots: &[u32]) -> Self {
        let mut owner_slots = [NO_OWNER_SLOT; HINTED_SERVERS];
        for (slot, &wired) in owner_slots.iter_mut().zip(roster_slots) {
            *slot = wired;
        }
        UiUser {
            owner_slots,
            authorities,
            getmail: GetMailState::new(),
            retrieval: None,
            pending_check: false,
        }
    }

    /// The owner slot wiring gave `server` for this user.
    pub(super) fn owner_slot_at(&self, server: NodeId) -> u32 {
        self.authorities
            .rank_of(server)
            .and_then(|rank| self.owner_slots.get(rank).copied())
            .unwrap_or(NO_OWNER_SLOT)
    }
}

/// An in-flight asynchronous GetMail: the session layer around one
/// [`Check`] of the user's [`GetMailState`].
#[derive(Clone, Debug)]
pub(super) struct RetrievalSession {
    check: Check,
    /// The probe of the server being asked; `None` between servers.
    pub(super) current: Option<Exchange>,
    /// The lifecycle span covering this check.
    span: SpanId,
}

/// The retrieval sessions in flight on one host. A check takes a free
/// entry and gives it back when it finishes, so once the table has grown
/// to the most checks the host ever ran at once, starting one allocates
/// nothing.
#[derive(Debug, Default)]
pub(super) struct Sessions {
    entries: Vec<Option<RetrievalSession>>,
    /// Indices of the `None` entries.
    free: Vec<u32>,
}

impl Sessions {
    /// Stores `session`; returns its index.
    fn open(&mut self, session: RetrievalSession) -> u32 {
        if let Some(id) = self.free.pop() {
            self.entries[id as usize] = Some(session);
            return id;
        }
        self.entries.push(Some(session));
        (self.entries.len() - 1) as u32
    }

    /// The session at `id`, if one is open there.
    #[cfg(test)]
    pub(super) fn get(&self, id: u32) -> Option<&RetrievalSession> {
        self.entries.get(id as usize)?.as_ref()
    }

    fn get_mut(&mut self, id: u32) -> Option<&mut RetrievalSession> {
        self.entries.get_mut(id as usize)?.as_mut()
    }

    /// Ends the session at `id`, freeing its entry.
    fn close(&mut self, id: u32) -> Option<RetrievalSession> {
        let session = self.entries.get_mut(id as usize)?.take()?;
        self.free.push(id);
        Some(session)
    }
}

/// An in-flight submission (connection-setup walk over the sender's
/// authority list).
#[derive(Clone, Debug)]
pub(super) struct SubmitTask {
    msg: Message,
    exchange: Exchange,
    /// The servers not yet tried, in order.
    remaining: VecDeque<NodeId>,
}

/// The user-interface actor for one host (serves every user homed there).
pub struct HostActor {
    pub(super) end: Endpoint,
    /// Every user ever adopted, by slot. A slot index is what retrieval
    /// deadlines carry in their tag and `Retrieve` as its `session`, so the
    /// list is append-only: a user who migrated away leaves a slot with no
    /// `ui`.
    pub(super) users: Vec<UserSlot>,
    /// Name -> live slot, for what arrives without a slot that checks out
    /// (a hint-less or stale `DoSend`/`DoCheck`, a reply whose `session`
    /// does not match its name).
    pub(super) slot_of: BTreeMap<MailName, usize>,
    /// The checks in flight, one per user who is checking.
    pub(super) sessions: Sessions,
    // Actor bookkeeping uses ordered maps throughout: iteration order feeds
    // protocol decisions, and hash-order iteration would make replays
    // diverge between runs (`HashMap` is a `clippy.toml` ban here).
    pub(super) submits: BTreeMap<MessageId, SubmitTask>,
    /// Servers this host contacts before a user's own authority list,
    /// nearest first (§3.2.2a: "a user always contacts the nearest active
    /// server"). Empty under a §3.1.1 placement, where the user's list is
    /// the whole connection-setup order.
    pub(super) contact: Vec<NodeId>,
    pub(super) id_gen: Rc<RefCell<MessageIdGen>>,
    /// Notifications received (user -> count) — the alert signal of
    /// §3.1.2c.
    pub(crate) alerts: BTreeMap<MailName, u64>,
}

/// One adopted user of a host.
pub(super) struct UserSlot {
    pub(super) name: MailName,
    /// `None` once the user has migrated away.
    pub(super) ui: Option<UiUser>,
}

/// Deadline tags say what a host exchange is for without a side table: a
/// submit's carries its message id, a retrieval probe's this bit plus the
/// checking user's slot.
const RETRIEVE_TAG: u64 = 1 << 63;

/// Connection-setup order for a user of a host: the host's `contact`
/// servers, then the user's own authority list.
fn submit_order<'a>(
    contact: &'a [NodeId],
    authorities: &'a AuthorityList,
) -> impl Iterator<Item = NodeId> + 'a {
    let own = authorities.servers().iter();
    contact
        .iter()
        .chain(own.filter(move |s| !contact.contains(s)))
        .copied()
}

impl HostActor {
    /// Adopts `ui` under `name`, giving it a slot on this host; returns
    /// the slot, as an injection may carry it.
    pub(super) fn adopt_user(&mut self, name: MailName, ui: UiUser) -> u32 {
        let slot = self.users.len();
        if let Some(old) = self.slot_of.insert(name.clone(), slot) {
            self.vacate(old);
        }
        self.users.push(UserSlot { name, ui: Some(ui) });
        u32::try_from(slot).unwrap_or(MailMsg::NO_SLOT_HINT)
    }

    /// Hands `name`'s interface state over to another host (§3.1.4),
    /// ending any check they had in flight here.
    pub(super) fn release_user(&mut self, name: &MailName) -> Option<UiUser> {
        let slot = self.slot_of.remove(name)?;
        self.vacate(slot)
    }

    /// Takes the user out of `slot`, closing their session if they have
    /// one.
    fn vacate(&mut self, slot: usize) -> Option<UiUser> {
        let mut ui = self.users[slot].ui.take()?;
        let session = ui.retrieval.take().and_then(|id| self.sessions.close(id));
        if let Some(exchange) = session.and_then(|s| s.current) {
            self.end.close(&exchange);
        }
        Some(ui)
    }

    /// The live slot of `user`, given the slot a reply echoed as its
    /// `session` or an injection carried as its `slot`. The token is
    /// trusted only as far as the name stored in that slot agrees with it
    /// (one pointer compare: the name that travels with it is a clone of
    /// the slot's); anything else — out of range, another user's slot, a
    /// slot vacated by migration — is resolved by name, exactly as if no
    /// token existed.
    pub(super) fn slot_for(&self, token: u32, user: &MailName) -> Option<usize> {
        let hinted = token as usize;
        match self.users.get(hinted) {
            Some(slot) if slot.ui.is_some() && slot.name == *user => {
                debug_assert_eq!(self.slot_of.get(user), Some(&hinted));
                Some(hinted)
            }
            _ => self.slot_of.get(user).copied(),
        }
    }

    fn start_submit(&mut self, msg: Message, slot: u32, ctx: &mut Ctx<'_, MailMsg>) {
        self.end.spans.borrow_mut().open_keyed(
            msg.id.0,
            ctx.now(),
            SpanStage::Submitted,
            site(self.end.node),
        );
        let Some(user) = self
            .slot_for(slot, &msg.from)
            .and_then(|slot| self.users[slot].ui.as_ref())
        else {
            // Sender not homed here; count as bounce at source.
            self.end
                .bounce(msg.id, BounceReason::UnknownRecipient, ctx.now());
            return;
        };
        let remaining: VecDeque<NodeId> = submit_order(&self.contact, &user.authorities).collect();
        {
            let mut st = self.end.stats.borrow_mut();
            st.submitted += 1;
            st.ledger_submitted.insert(msg.id);
        }
        self.end.metrics.inc("submitted");
        self.submit_next(msg, remaining, ctx);
    }

    /// Submits `msg` to the next server of the walk, or bounces it when
    /// none is left.
    fn submit_next(
        &mut self,
        msg: Message,
        mut remaining: VecDeque<NodeId>,
        ctx: &mut Ctx<'_, MailMsg>,
    ) {
        let Some(server) = remaining.pop_front() else {
            self.end
                .bounce(msg.id, BounceReason::AllServersDown, ctx.now());
            return;
        };
        self.submit_probe(msg, server, 0, remaining, ctx);
    }

    /// Sends one Submit probe (0-based `attempt`) to `server`.
    fn submit_probe(
        &mut self,
        msg: Message,
        server: NodeId,
        attempt: u32,
        remaining: VecDeque<NodeId>,
        ctx: &mut Ctx<'_, MailMsg>,
    ) {
        self.end.stats.borrow_mut().submit_attempts += 1;
        self.end.metrics.inc("submit_probes");
        let request = MailMsg::Submit {
            msg: msg.clone(),
            reply_to: self.end.node,
        };
        let span = self.end.span_of(msg.id);
        let exchange = self
            .end
            .probe(ctx, span, server, attempt, request, msg.id.0);
        self.submits.insert(
            msg.id,
            SubmitTask {
                msg,
                exchange,
                remaining,
            },
        );
    }

    fn start_check(&mut self, slot: usize, ctx: &mut Ctx<'_, MailMsg>) {
        let Some(user) = self.users[slot].ui.as_mut() else {
            return;
        };
        if user.retrieval.is_some() {
            // A check is already running; coalesce (re-run when done).
            user.pending_check = true;
            return;
        }
        let span = self.end.spans.borrow_mut().open(
            ctx.now(),
            SpanStage::CheckStarted,
            site(self.end.node),
        );
        self.end.metrics.inc("checks_started");
        user.retrieval = Some(self.sessions.open(RetrievalSession {
            check: GetMailState::begin(ctx.now()),
            current: None,
            span,
        }));
        self.advance_retrieval(slot, ctx);
    }

    /// Drives the user's GetMail: probe the next server or finish.
    fn advance_retrieval(&mut self, slot: usize, ctx: &mut Ctx<'_, MailMsg>) {
        let Some(user) = self.users[slot].ui.as_mut() else {
            return;
        };
        let Some(id) = user.retrieval else {
            return;
        };
        let Some(session) = self.sessions.get_mut(id) else {
            return;
        };
        match user
            .getmail
            .next(&mut session.check, user.authorities.servers())
        {
            Step::Probe(server) => self.retrieve_probe(slot, server, 0, ctx),
            Step::Done { polls } => {
                let started = session.check.started();
                let span = session.span;
                user.retrieval = None;
                self.sessions.close(id);
                self.end
                    .stats
                    .borrow_mut()
                    .retrieval_polls
                    .observe(f64::from(polls));
                self.end.spans.borrow_mut().record(
                    ctx.now(),
                    span,
                    SpanStage::CheckDone,
                    site(self.end.node),
                    NO_NODE,
                    u64::from(polls),
                );
                self.end.metrics.inc("checks_done");
                self.end.metrics.observe(
                    "check_latency",
                    ctx.now().duration_since(started).as_units(),
                );
                if std::mem::take(&mut user.pending_check) {
                    self.start_check(slot, ctx);
                }
            }
        }
    }

    /// Sends one Retrieve probe (0-based `attempt`) to `server` for the
    /// user in `slot`.
    fn retrieve_probe(
        &mut self,
        slot: usize,
        server: NodeId,
        attempt: u32,
        ctx: &mut Ctx<'_, MailMsg>,
    ) {
        let Some(UserSlot {
            name,
            ui: Some(user),
        }) = self.users.get_mut(slot)
        else {
            return;
        };
        let Some(session) = user.retrieval.and_then(|id| self.sessions.get_mut(id)) else {
            return;
        };
        if attempt == 0 {
            self.end.metrics.inc("retrieve_probes");
        }
        let request = MailMsg::Retrieve {
            user: name.clone(),
            reply_to: self.end.node,
            session: slot as u32,
            owner_slot: user.owner_slot_at(server),
        };
        let tag = RETRIEVE_TAG | slot as u64;
        session.current = Some(
            self.end
                .probe(ctx, session.span, server, attempt, request, tag),
        );
    }
}

impl Actor for HostActor {
    type Msg = MailMsg;

    fn kind(&self) -> &'static str {
        "host"
    }

    fn on_message(&mut self, from: ActorId, msg: MailMsg, ctx: &mut Ctx<'_, MailMsg>) {
        match msg {
            MailMsg::DoSend { from, to, slot } => {
                let id = self.id_gen.borrow_mut().next_id();
                let m = Message::new(id, from, to, "msg", "body", ctx.now());
                self.start_submit(m, slot, ctx);
            }
            MailMsg::DoCheck { user, slot } => {
                if let Some(slot) = self.slot_for(slot, &user) {
                    self.start_check(slot, ctx);
                }
            }
            MailMsg::SubmitAck { id } => {
                if let Some(task) = self.submits.remove(&id) {
                    // Store-and-forward responsibility now rests with the
                    // accepting server.
                    self.end.accepted(ctx, id, &task.exchange);
                }
            }
            MailMsg::Notify { user, id: _ } => {
                *self.alerts.entry(user).or_insert(0) += 1;
                self.end.metrics.inc("alerts");
            }
            MailMsg::DoLogin { user, authorities } => {
                // Report to the server a submission would reach first.
                if let Some(server) = submit_order(&self.contact, &authorities).next() {
                    let report = MailMsg::LoginReport {
                        user: user.clone(),
                        host: self.end.node,
                        at: ctx.now(),
                    };
                    self.end.send(ctx, server, report);
                }
                // "Any host in the region may be used": a visitor gets a
                // session here, beside the one their home host keeps.
                if !self.slot_of.contains_key(&user) {
                    self.adopt_user(user, UiUser::wired(authorities, &[]));
                }
            }
            MailMsg::RetrieveReply {
                user: user_name,
                messages,
                last_start_time,
                session,
            } => {
                let now = ctx.now();
                let server_node = self.end.transport.node_of(from);
                let slot = self.slot_for(session, &user_name);
                // Ack first, unconditionally — even for stale replies after
                // a timeout. The messages are physically at this host, so
                // the server must release its drain buffer; failing to ack
                // a stale reply would make the server re-send (and the UI
                // re-discard) them forever.
                if !messages.is_empty() {
                    if let Some(server_node) = server_node {
                        let owner_slot = slot
                            .and_then(|slot| self.users[slot].ui.as_ref())
                            .map_or(NO_OWNER_SLOT, |user| user.owner_slot_at(server_node));
                        let ack = MailMsg::RetrieveAck {
                            user: user_name.clone(),
                            ids: messages.iter().map(|m| m.id).collect(),
                            owner_slot,
                        };
                        self.end.send(ctx, server_node, ack);
                    }
                }
                // Ledger first, unconditionally: the server has already
                // drained these messages from its mailbox and they are now
                // physically at this host. Counting them only when the
                // session bookkeeping still matches would strand drained
                // mail on any stale-reply race (the exact loss class the
                // trace auditor checks for).
                {
                    let server_site = server_node.map_or(NO_NODE, site);
                    let mut st = self.end.stats.borrow_mut();
                    let mut spans = self.end.spans.borrow_mut();
                    for m in &messages {
                        // Dedup by message id: a server that crashed while
                        // forwarding re-routes its stored copy on recovery,
                        // which can legally deposit the message on a second
                        // authority server. The UI discards the duplicate
                        // drain so at-least-once delivery still counts once.
                        if st.ledger_retrieved.insert(m.id) {
                            st.retrieved += 1;
                            let latency = now.duration_since(m.submitted_at).as_units();
                            self.end.metrics.inc("retrieved");
                            self.end.metrics.observe("end_to_end", latency);
                            // First terminal outcome wins the span: a host
                            // that conservatively bounced after losing every
                            // ack keeps that terminal even if the mail later
                            // surfaces (the ledgers record both).
                            if !st.ledger_bounced.contains_key(&m.id) {
                                spans.record_keyed(
                                    now,
                                    m.id.0,
                                    SpanStage::Retrieved,
                                    site(self.end.node),
                                    server_site,
                                    0,
                                );
                            }
                        }
                    }
                }
                let Some(slot) = slot else {
                    return;
                };
                let Some(user) = self.users[slot].ui.as_mut() else {
                    return;
                };
                let Some(session) = user.retrieval.and_then(|id| self.sessions.get_mut(id)) else {
                    return; // stale reply after timeout: already counted above
                };
                let Some(exchange) = session.current.take() else {
                    return;
                };
                self.end.close(&exchange);
                user.getmail
                    .on_reply(&mut session.check, exchange.peer, last_start_time);
                self.advance_retrieval(slot, ctx);
            }
            // Server-bound traffic; a host receiving these ignores them.
            MailMsg::Submit { .. }
            | MailMsg::Forward { .. }
            | MailMsg::ForwardAck { .. }
            | MailMsg::Retrieve { .. }
            | MailMsg::RetrieveAck { .. }
            | MailMsg::LoginReport { .. }
            | MailMsg::LocationUpdate { .. }
            | MailMsg::WhereIs { .. }
            | MailMsg::LocationReply { .. } => {}
        }
    }

    fn on_timer(&mut self, id: TimerId, ctx: &mut Ctx<'_, MailMsg>) {
        if let Some(tag) = self.end.deadlines.fire(id) {
            if tag & RETRIEVE_TAG == 0 {
                self.on_submit_timeout(MessageId(tag), ctx);
            } else {
                self.on_retrieve_timeout((tag & !RETRIEVE_TAG) as usize, ctx);
            }
        }
        self.end.deadlines.rearm(ctx);
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_, MailMsg>) {
        // No deployment crashes a host; one that is crashed keeps its
        // exchanges, and the timeouts that came due while it was down are
        // lost, as a kernel timer of their own would have been.
        self.end.deadlines.recover(ctx);
    }
}

impl HostActor {
    fn on_submit_timeout(&mut self, mid: MessageId, ctx: &mut Ctx<'_, MailMsg>) {
        let Some(task) = self.submits.remove(&mid) else {
            return;
        };
        match task.exchange.timed_out() {
            Timeout::Retransmit(attempt) => {
                let server = task.exchange.peer;
                self.submit_probe(task.msg, server, attempt, task.remaining, ctx);
            }
            // Retry budget for this server spent: fall back to the next
            // authority server.
            Timeout::Exhausted => self.submit_next(task.msg, task.remaining, ctx),
        }
    }

    fn on_retrieve_timeout(&mut self, slot: usize, ctx: &mut Ctx<'_, MailMsg>) {
        let Some(user) = self.users.get_mut(slot).and_then(|u| u.ui.as_mut()) else {
            return;
        };
        let Some(session) = user.retrieval.and_then(|id| self.sessions.get_mut(id)) else {
            return;
        };
        let Some(exchange) = session.current.take() else {
            return;
        };
        match exchange.timed_out() {
            Timeout::Retransmit(attempt) => self.retrieve_probe(slot, exchange.peer, attempt, ctx),
            // The server is unresponsive: GetMail records it for a later
            // sweep and moves on.
            Timeout::Exhausted => {
                user.getmail.on_unreachable(exchange.peer);
                self.advance_retrieval(slot, ctx);
            }
        }
    }
}
