//! The mail server actor.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use lems_core::message::{BounceReason, Message, MessageId};
use lems_core::name::MailName;
use lems_core::store::{MailStore, StoreRecovery, NO_OWNER_SLOT};
use lems_net::graph::NodeId;
use lems_sim::actor::{Actor, ActorId, Ctx, TimerId};
use lems_sim::span::{ResolveCode, SpanStage, NO_NODE};
use lems_sim::time::SimTime;
use lems_store::Store;

use super::{site, Endpoint, Exchange, MailMsg, SharedRecoveries, Timeout, MAX_HOPS};
use crate::resolve::{Resolution, SyntaxResolver};

/// An in-flight server-side forward (cascading over candidate servers).
#[derive(Clone, Debug)]
pub(super) struct ForwardTask {
    msg: Message,
    exchange: Exchange,
    /// The candidates not yet tried, in order.
    remaining: VecDeque<NodeId>,
    hops_left: u32,
}

/// What [`ServerActor::route`] found of a recipient this server is an
/// authority for, carried to the deposit so that it searches for neither
/// again.
#[derive(Clone, Copy, Debug)]
struct Local {
    /// The slot the store was wired to keep the recipient in, a hint the
    /// store checks against the name.
    slot: u32,
    /// The recipient's home host, from their record.
    home: NodeId,
}

/// A deposited message whose alert awaits a peer's [`MailMsg::LocationReply`].
#[derive(Clone, Debug)]
pub(super) struct Lookup {
    user: MailName,
    /// How many of `peers` have been asked.
    asked: usize,
}

/// A mail server.
pub struct ServerActor {
    pub(super) end: Endpoint,
    pub(super) resolver: SyntaxResolver,
    /// The server's durable state — mailboxes, drained-but-unacked
    /// reservation buffers, the store-before-forward journal, and the
    /// deposit dedup ledger — in one [`Store`], whose mode says what a
    /// crash keeps: everything by fiat ([`DurabilityConfig::Ideal`]),
    /// nothing ([`DurabilityConfig::Volatile`]), or a write-ahead log's
    /// durable prefix ([`DurabilityConfig::Wal`]).
    pub(super) store: Store,
    pub(super) last_start_time: SimTime,
    /// Retry bookkeeping (probe deadlines, attempt counts, remaining
    /// candidates) for accepted-but-not-yet-settled messages. This map is
    /// *process* state; the durable custody record lives in the store's
    /// forward journal (a store-and-forward server stores *before* it
    /// forwards). Under [`DurabilityConfig::Ideal`] the map survives a
    /// crash and drives recovery re-routing directly; otherwise it dies
    /// with the process and recovery re-routes from the journal (see
    /// [`Actor::on_recover`]).
    pub(super) forwards: BTreeMap<MessageId, ForwardTask>,
    /// §3.2.2c tracking: where users last logged in, with the login's own
    /// timestamp (last writer wins). Process state like `forwards`, and
    /// empty for good in a deployment where nobody logs in.
    pub(super) locations: BTreeMap<MailName, (NodeId, SimTime)>,
    /// Alerts waiting on a peer's answer. Process state like `forwards`.
    pub(super) lookups: BTreeMap<MessageId, Lookup>,
    /// The servers this one shares location tracking with: told of every
    /// login reported here, and asked in this order where a recipient is.
    /// Empty under a §3.1.1 placement.
    pub(super) peers: Vec<NodeId>,
    /// The §3.1.4 redirect table, shared across servers (migrated users'
    /// old names forward to their new names while the entry lives).
    pub(super) redirects: Rc<RefCell<crate::migrate::RedirectTable>>,
    /// Shared recovery-report log; one entry appended per
    /// [`Actor::on_recover`].
    pub(super) recoveries: SharedRecoveries,
}

impl ServerActor {
    /// Deposit into the local mailbox + notify the recipient's home host.
    /// Duplicate ids (forward retransmissions) are dropped silently.
    /// `local` is what resolution found of the recipient here, when the
    /// deposit follows it directly.
    fn deposit(&mut self, msg: Message, local: Option<Local>, ctx: &mut Ctx<'_, MailMsg>) {
        let now = ctx.now();
        let latency = now.duration_since(msg.submitted_at).as_units();
        let user = msg.to.clone();
        let id = msg.id;
        let hint = local.map_or(NO_OWNER_SLOT, |l| l.slot);
        if !self.store.deposit_at(msg, now, hint) {
            return;
        }
        {
            let mut st = self.end.stats.borrow_mut();
            st.deposited += 1;
            st.in_storage_now += 1;
            st.peak_storage = st.peak_storage.max(st.in_storage_now);
        }
        self.end.metrics.inc("deposited");
        self.end.metrics.observe("delivery_latency", latency);
        self.end.metrics.gauge_add(now, "storage", 1.0);
        self.end.spans.borrow_mut().record_keyed(
            now,
            id.0,
            SpanStage::Deposited,
            site(self.end.node),
            NO_NODE,
            0,
        );
        debug_assert!(
            !matches!(
                self.resolver.resolve(&user),
                Resolution::RegionalAuthority(_)
            ),
            "deposit for a live name at a server that is not its authority"
        );
        let home = local.map(|l| l.home);
        self.notify(id, Lookup { user, asked: 0 }, home, ctx);
    }

    /// Sends the alert signal for deposited message `id`: to the user's
    /// known location, else — after asking each peer in turn — to the home
    /// host in the user's record ("from the user name, the primary location
    /// of the user can be obtained", §3.2.2c), which the region's table
    /// holds: a deposit only ever happens at an authority of the user's
    /// region. The one way to find no record is a walk that outlived the
    /// name (the user migrated away mid-flight), and then nobody is left
    /// to alert.
    /// `home` is that record's home host when the caller has just
    /// resolved it; otherwise the record is looked up.
    fn notify(
        &mut self,
        id: MessageId,
        mut lookup: Lookup,
        home: Option<NodeId>,
        ctx: &mut Ctx<'_, MailMsg>,
    ) {
        let home = home.or_else(|| Some(self.resolver.record(&lookup.user)?.home_host));
        let Some(home) = home else {
            self.end.stats.borrow_mut().unknown_location += 1;
            self.end.metrics.inc("unknown_location");
            return;
        };
        let known = self.locations.get(&lookup.user).map(|&(host, _)| host);
        let tracked = known.is_some() || lookup.asked > 0;
        let host = match (known, self.peers.get(lookup.asked)) {
            (Some(host), _) => host,
            (None, None) => home,
            (None, Some(&peer)) => {
                self.end.stats.borrow_mut().consults += 1;
                self.end.metrics.inc("consults");
                let user = lookup.user.clone();
                lookup.asked += 1;
                self.lookups.insert(id, lookup);
                self.end.send(
                    ctx,
                    peer,
                    MailMsg::WhereIs {
                        user,
                        pending: id,
                        reply_to: self.end.node,
                    },
                );
                return;
            }
        };
        if tracked && host == home {
            self.end.stats.borrow_mut().notified_at_primary += 1;
            self.end.metrics.inc("notified_at_primary");
        }
        self.end.stats.borrow_mut().notifications += 1;
        self.end.metrics.inc("notifications");
        self.end.spans.borrow_mut().record_keyed(
            ctx.now(),
            id.0,
            SpanStage::Notified,
            site(self.end.node),
            site(host),
            0,
        );
        let user = lookup.user;
        self.end.send(ctx, host, MailMsg::Notify { user, id });
    }

    /// Applies a location fact if it is newer than what we hold (ties
    /// break toward the higher host id, deterministically).
    fn record_location(&mut self, user: MailName, host: NodeId, at: SimTime) {
        let newer = |&(cur_host, cur_at): &(NodeId, SimTime)| (cur_at, cur_host) < (at, host);
        if self.locations.get(&user).is_none_or(newer) {
            self.locations.insert(user, (host, at));
        }
    }

    /// Custody of `id` ends in a bounce: settle any forward-journal entry
    /// first (a no-op for messages never journaled, e.g. fresh submissions
    /// bounced by the resolver before any probe went out).
    fn give_up(&mut self, id: MessageId, reason: BounceReason, now: SimTime) {
        self.store.settle_forward(id);
        self.end.bounce(id, reason, now);
    }

    /// Records how this server resolved message `id`'s recipient.
    fn resolved(&self, ctx: &Ctx<'_, MailMsg>, id: MessageId, code: ResolveCode) {
        self.end.spans.borrow_mut().record_keyed(
            ctx.now(),
            id.0,
            SpanStage::Resolved,
            site(self.end.node),
            NO_NODE,
            code.as_detail(),
        );
    }

    /// Route a message we have accepted responsibility for.
    ///
    /// §3.1.2c: "mail will be deposited in the first active server from
    /// the list" — the recipient's authority list is always walked in
    /// order, even when this server appears in it, so the GetMail
    /// early-exit invariant (mail lives at the first server that was up
    /// at deposit time) holds.
    fn route(&mut self, msg: Message, hops_left: u32, ctx: &mut Ctx<'_, MailMsg>) {
        if hops_left == 0 {
            self.give_up(msg.id, BounceReason::RegionUnreachable, ctx.now());
            return;
        }
        match self.resolver.resolve(&msg.to) {
            Resolution::LocalAuthority { slot, record } => {
                self.resolved(ctx, msg.id, ResolveCode::LocalAuthority);
                let candidates = record.authorities.servers().iter().copied().collect();
                let local = Local {
                    slot,
                    home: record.home_host,
                };
                self.forward_next(msg, candidates, hops_left - 1, Some(local), ctx);
            }
            Resolution::RegionalAuthority(list) => {
                self.resolved(ctx, msg.id, ResolveCode::RegionalAuthority);
                let candidates = list.servers().iter().copied().collect();
                self.forward_next(msg, candidates, hops_left - 1, None, ctx);
            }
            Resolution::ForwardToRegion { servers, .. } => {
                self.resolved(ctx, msg.id, ResolveCode::ForwardToRegion);
                // "the message is transmitted to one of the servers in the
                // recipient region": try them nearest-first.
                let mut candidates = servers.to_vec();
                candidates.sort_by_key(|&s| self.end.transport.delay(self.end.node, s));
                self.forward_next(msg, candidates.into(), hops_left - 1, None, ctx);
            }
            Resolution::UnknownRegion => {
                self.resolved(ctx, msg.id, ResolveCode::Failed);
                self.give_up(msg.id, BounceReason::RegionUnreachable, ctx.now());
            }
            Resolution::UnknownUser => {
                // §3.1.4: "mail addressed to a migrated user can be
                // redirected to the new user address, and the senders are
                // notified about the name changes."
                let redirect_to = self
                    .redirects
                    .borrow_mut()
                    .lookup(&msg.to, ctx.now())
                    .map(|r| r.new_name.clone());
                match redirect_to {
                    Some(new_name) => {
                        self.route(msg.redirected(new_name), hops_left - 1, ctx);
                    }
                    None => {
                        self.resolved(ctx, msg.id, ResolveCode::Failed);
                        self.give_up(msg.id, BounceReason::UnknownRecipient, ctx.now());
                    }
                }
            }
        }
    }

    /// Walks `msg` on to the next of the `remaining` candidates: a deposit
    /// when this server is next, a forward otherwise. `local` is what
    /// `route` found of the recipient here, if it resolved them as local.
    fn forward_next(
        &mut self,
        msg: Message,
        mut remaining: VecDeque<NodeId>,
        hops_left: u32,
        local: Option<Local>,
        ctx: &mut Ctx<'_, MailMsg>,
    ) {
        let Some(target) = remaining.pop_front() else {
            self.give_up(msg.id, BounceReason::AllServersDown, ctx.now());
            return;
        };
        if target == self.end.node {
            // This server is the first (still-reachable) authority in the
            // walk: deposit here. The mailbox record supersedes the
            // journal entry.
            self.store.settle_forward(msg.id);
            self.deposit(msg, local, ctx);
            return;
        }
        self.forward_probe(msg, target, 0, remaining, hops_left, ctx);
    }

    /// Sends one Forward probe (0-based `attempt`) to `target`.
    fn forward_probe(
        &mut self,
        msg: Message,
        target: NodeId,
        attempt: u32,
        remaining: VecDeque<NodeId>,
        hops_left: u32,
        ctx: &mut Ctx<'_, MailMsg>,
    ) {
        if attempt == 0 {
            // Store before forwarding: journal custody of this message so
            // recovery can resume the walk even when process state is lost.
            // Insert-if-absent — a retransmitted duplicate or a recovery
            // re-route finds the entry already present.
            self.store.accept_forward(&msg, hops_left);
            // One Forwarded per hop-target choice; Probe per attempt.
            self.end.spans.borrow_mut().record_keyed(
                ctx.now(),
                msg.id.0,
                SpanStage::Forwarded,
                site(self.end.node),
                site(target),
                0,
            );
        }
        self.end.stats.borrow_mut().forward_attempts += 1;
        self.end.metrics.inc("forward_probes");
        // Close a superseded probe's deadline (a duplicate Forward of the
        // same message can overwrite the task) so it cannot time out later.
        if let Some(old) = self.forwards.get(&msg.id) {
            self.end.close(&old.exchange);
        }
        let request = MailMsg::Forward {
            msg: msg.clone(),
            reply_to: self.end.node,
            hops_left,
        };
        let span = self.end.span_of(msg.id);
        let exchange = self
            .end
            .probe(ctx, span, target, attempt, request, msg.id.0);
        self.forwards.insert(
            msg.id,
            ForwardTask {
                msg,
                exchange,
                remaining,
                hops_left,
            },
        );
    }

    /// Forward timeout: retransmit to the same candidate until the session
    /// budget is spent, then cascade to the next one.
    fn on_forward_timeout(&mut self, id: MessageId, ctx: &mut Ctx<'_, MailMsg>) {
        let Some(task) = self.forwards.remove(&id) else {
            return;
        };
        match task.exchange.timed_out() {
            Timeout::Retransmit(attempt) => {
                let target = task.exchange.peer;
                self.forward_probe(
                    task.msg,
                    target,
                    attempt,
                    task.remaining,
                    task.hops_left,
                    ctx,
                );
            }
            Timeout::Exhausted => {
                self.forward_next(task.msg, task.remaining, task.hops_left, None, ctx);
            }
        }
    }
}

impl Actor for ServerActor {
    type Msg = MailMsg;

    fn kind(&self) -> &'static str {
        "server"
    }

    fn on_message(&mut self, _from: ActorId, msg: MailMsg, ctx: &mut Ctx<'_, MailMsg>) {
        match msg {
            MailMsg::Submit { msg, reply_to } => {
                // Accept responsibility immediately (store-and-forward).
                self.end.metrics.inc("submits_received");
                self.end
                    .send(ctx, reply_to, MailMsg::SubmitAck { id: msg.id });
                self.route(msg, MAX_HOPS, ctx);
            }
            MailMsg::Forward {
                msg,
                reply_to,
                hops_left,
            } => {
                self.end
                    .send(ctx, reply_to, MailMsg::ForwardAck { id: msg.id });
                self.route(msg, hops_left, ctx);
            }
            MailMsg::ForwardAck { id } => {
                if let Some(task) = self.forwards.remove(&id) {
                    // The target acknowledged custody: our journal entry is
                    // settled together with the retry bookkeeping.
                    self.store.settle_forward(id);
                    self.end.accepted(ctx, id, &task.exchange);
                }
            }
            MailMsg::Retrieve {
                user,
                reply_to,
                session,
                owner_slot,
            } => {
                self.end.metrics.inc("retrieve_requests");
                // Reserve the drain: messages move from the mailbox to the
                // (equally durable) drain buffer and are re-sent on every
                // Retrieve until the host acks them, so a lost reply never
                // loses mail. The storage gauge is only decremented at ack
                // time.
                let messages = self.store.drain_reserve_at(&user, owner_slot);
                self.end.send(
                    ctx,
                    reply_to,
                    MailMsg::RetrieveReply {
                        user,
                        messages,
                        last_start_time: self.last_start_time,
                        session,
                    },
                );
            }
            MailMsg::RetrieveAck {
                user,
                ids,
                owner_slot,
            } => {
                let released = self.store.release_drained_at(&user, &ids, owner_slot);
                if released > 0 {
                    let mut st = self.end.stats.borrow_mut();
                    st.in_storage_now = st.in_storage_now.saturating_sub(released);
                    self.end
                        .metrics
                        .gauge_add(ctx.now(), "storage", -(released as f64));
                }
            }
            MailMsg::LoginReport { user, host, at } => {
                for i in 0..self.peers.len() {
                    let update = MailMsg::LocationUpdate {
                        user: user.clone(),
                        host,
                        at,
                    };
                    self.end.send(ctx, self.peers[i], update);
                }
                self.record_location(user, host, at);
            }
            MailMsg::LocationUpdate { user, host, at } => self.record_location(user, host, at),
            MailMsg::WhereIs {
                user,
                pending,
                reply_to,
            } => {
                let found = self.locations.get(&user).copied();
                self.end
                    .send(ctx, reply_to, MailMsg::LocationReply { pending, found });
            }
            MailMsg::LocationReply { pending, found } => {
                if let Some(lookup) = self.lookups.remove(&pending) {
                    // The peer's fact merges like any other, so a newer
                    // `LocationUpdate` that overtook the reply wins.
                    if let Some((host, at)) = found {
                        self.record_location(lookup.user.clone(), host, at);
                    }
                    self.notify(pending, lookup, None, ctx);
                }
            }
            // Host-bound traffic; a server receiving these ignores them.
            MailMsg::DoSend { .. }
            | MailMsg::DoCheck { .. }
            | MailMsg::DoLogin { .. }
            | MailMsg::SubmitAck { .. }
            | MailMsg::Notify { .. }
            | MailMsg::RetrieveReply { .. } => {}
        }
    }

    fn on_timer(&mut self, id: TimerId, ctx: &mut Ctx<'_, MailMsg>) {
        if let Some(tag) = self.end.deadlines.fire(id) {
            self.on_forward_timeout(MessageId(tag), ctx);
        }
        self.end.deadlines.rearm(ctx);
    }

    fn on_crash(&mut self, now: SimTime) {
        // What a crash costs depends on the backend: under the fiat-stable
        // [`DurabilityConfig::Ideal`] model nothing is lost (the historical
        // behaviour — only retry timers die); a volatile backend loses all
        // storage; the WAL backend loses its un-synced log suffix. The
        // store records the damage so `on_recover` can report it.
        self.store.crash(now);
        // Every forward is re-routed on recovery, so no deadline armed
        // before the crash may time out after it. The kernel suppresses
        // the pending wake while the server is down; one that comes due
        // after a short outage is no longer the table's and is ignored.
        self.end.deadlines.clear();
        if !self.store.preserves_volatile() {
            // Real process death: the retry bookkeeping dies with the
            // process. Recovery re-routes from the store's forward journal
            // instead.
            self.forwards.clear();
            self.locations.clear();
            self.lookups.clear();
        }
        // (Earlier revisions always cleared `forwards` here without a
        // durable journal; the trace auditor's conservation check surfaced
        // that as a submitted-but-never-delivered leak whenever a server
        // crashed while cascading a forward across a partially-down
        // authority list.)
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_, MailMsg>) {
        // "LastStartTime[server]: the time the server had last recovered
        // from failure or been initialised."
        self.last_start_time = ctx.now();
        let now = ctx.now();
        let (report, unsettled) = self.store.recover(now);
        if report.lost_messages > 0 {
            // The backend lost stored mail (volatile RAM, or a WAL with a
            // sync policy weaker than per-record): reconcile the occupancy
            // ledger so the storage gauge tracks what actually survived.
            let mut st = self.end.stats.borrow_mut();
            st.in_storage_now = st.in_storage_now.saturating_sub(report.lost_messages);
            self.end
                .metrics
                .gauge_add(now, "storage", -(report.lost_messages as f64));
        }
        self.recoveries.borrow_mut().push(StoreRecovery {
            at: now,
            site: site(self.end.node),
            report,
        });
        // Crash recovery for accepted-but-undeposited mail: any forward
        // that was in flight when we went down may have been dropped (and
        // the crash forgot its deadline), so walk each stored message
        // through resolution again from the top.
        // Re-delivery to a server that already holds the message is
        // harmless — deposit dedups on message id.
        if self.store.preserves_volatile() {
            // Fiat-stable model: the retry bookkeeping itself survived;
            // re-route from it exactly as before.
            let pending: Vec<ForwardTask> =
                std::mem::take(&mut self.forwards).into_values().collect();
            for task in pending {
                self.route(task.msg, task.hops_left.max(1), ctx);
            }
        } else {
            // Real recovery: the volatile map is gone; the durable forward
            // journal (replayed by the store) says what we still owe.
            // Journal iteration is in message-id order — the same order
            // the BTreeMap re-route above uses — so the recovery schedule
            // is identical to the fiat-stable model's when nothing was
            // lost.
            for (msg, hops_left) in unsettled {
                self.route(msg, hops_left.max(1), ctx);
            }
        }
        // A lookup the crash interrupted (none outlives a real process
        // death) lost its question or its answer while we were down:
        // alert where the table now says, else ask on.
        for (id, lookup) in std::mem::take(&mut self.lookups) {
            self.notify(id, lookup, None, ctx);
        }
    }
}
