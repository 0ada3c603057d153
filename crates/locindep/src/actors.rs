//! The simulated System-2 mail system (§3.2.2): location-independent
//! access within a region, as running actors.
//!
//! Differences from the System-1 pipeline in `lems_syntax::actors`:
//!
//! * **Connection setup** — "a user always contacts the nearest active
//!   server" of the region, not a per-user authority list;
//! * **Resolution** — the accepting server hashes the recipient's name to
//!   its sub-group server (no per-user routing tables);
//! * **Login tracking** — "whenever a user logs on to a host, the host
//!   will inform the nearest active server"; the region's servers
//!   cooperate to answer "where is this user now?";
//! * **Delivery** — the sub-group server stores the mail and notifies the
//!   user at their *current* host, consulting peer servers when the user
//!   is away from their primary location (the §3.2.2c overhead that
//!   "is only incurred if a user moves").

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use lems_core::mailbox::Mailbox;
use lems_core::message::{Message, MessageId, MessageIdGen};
use lems_core::name::MailName;
use lems_core::store::MailStore;
use lems_net::graph::NodeId;
use lems_net::topology::Topology;
use lems_net::transport::Transport;
use lems_sim::actor::{Actor, ActorId, ActorSim, Ctx, TimerId};
use lems_sim::metrics::{MetricsRegistry, Summary};
use lems_sim::session::RetryPolicy;
use lems_sim::time::{SimDuration, SimTime};
use lems_store::DurabilityConfig;

use crate::subgroup::SubgroupMap;

/// Extra timeout slack on top of the round trip (processing, headroom).
pub const TIMEOUT_SLACK: f64 = 2.0;

/// The System-2 protocol.
#[derive(Clone, Debug)]
pub enum RoamMsg {
    /// Injection: `user` logs on at the receiving host.
    DoLogin {
        /// The user logging in.
        user: MailName,
    },
    /// Injection: a user on this host sends mail.
    DoSend {
        /// Sender (must be logged in here).
        from: MailName,
        /// Recipient.
        to: MailName,
    },
    /// Host -> nearest server: `user` is now at `host`.
    LoginReport {
        /// The user.
        user: MailName,
        /// Their current host.
        host: NodeId,
        /// When the login happened (hosts and servers share coarsely
        /// synchronised clocks, the same assumption GetMail makes).
        at: SimTime,
    },
    /// Server -> server: new location broadcast ("all servers in a region
    /// will cooperate to keep track of the movement of users").
    /// Timestamped so racing broadcasts over different-length paths
    /// resolve last-writer-wins instead of last-arrival-wins.
    LocationUpdate {
        /// The user.
        user: MailName,
        /// Their current host.
        host: NodeId,
        /// When the login happened.
        at: SimTime,
    },
    /// UI -> server / server -> server: deliver this message.
    Deliver {
        /// The message.
        msg: Message,
    },
    /// Hop-by-hop receipt for [`RoamMsg::Deliver`]: the next hop took
    /// custody of the message, so the sender stops retransmitting.
    DeliverAck {
        /// The message received.
        id: MessageId,
    },
    /// Sub-group server -> peer: where is `user`? (asked when the user is
    /// not at their primary location and this server has no record).
    WhereIs {
        /// The user sought.
        user: MailName,
        /// Message awaiting the answer.
        pending: MessageId,
        /// Who is asking.
        reply_to: NodeId,
    },
    /// Peer's answer to [`RoamMsg::WhereIs`].
    LocationReply {
        /// The pending message this answers.
        pending: MessageId,
        /// The host, if this peer knows.
        host: Option<NodeId>,
    },
    /// Server -> host: mail for `user` arrived (alert signal).
    Notify {
        /// The recipient.
        user: MailName,
        /// The message.
        id: MessageId,
    },
}

/// Shared statistics for a System-2 run.
#[derive(Debug, Default)]
pub struct RoamStats {
    /// Messages submitted.
    pub submitted: u64,
    /// Messages stored at their sub-group server.
    pub stored: u64,
    /// Notifications that reached the user's current host.
    pub notified: u64,
    /// Notifications delivered at the user's *primary* host without any
    /// lookup (the free path).
    pub notified_at_primary: u64,
    /// Cross-server `WhereIs` consultations.
    pub consults: u64,
    /// Lookups that failed everywhere (user never logged in anywhere).
    pub unknown_location: u64,
    /// Session-layer retransmissions of `Deliver` hops.
    pub retransmits: u64,
    /// Messages abandoned after the retry budget ran out on every
    /// candidate (the mail is lost — should stay zero under any fault
    /// plan the session layer is expected to mask).
    pub delivery_failures: u64,
    /// Submission-to-notification latency (units).
    pub notify_latency: Summary,
}

type SharedStats = Rc<RefCell<RoamStats>>;

/// A mail submission awaiting its hop-by-hop ack.
struct SendTask {
    msg: Message,
    /// Server currently being probed.
    current: NodeId,
    /// Probes already sent to `current`.
    attempts: u32,
    /// Servers not yet tried, nearest first.
    remaining: Vec<NodeId>,
    /// Pending timeout (guards against stale timers).
    timer: TimerId,
}

/// A host: forwards logins and sends to the nearest server.
pub struct RoamHost {
    node: NodeId,
    nearest_server: NodeId,
    /// Every region server, nearest first — the failover order for
    /// submissions when the nearest server stops acking.
    server_ring: Vec<NodeId>,
    transport: Rc<Transport>,
    id_gen: Rc<RefCell<MessageIdGen>>,
    stats: SharedStats,
    retry: RetryPolicy,
    server_proc: f64,
    /// Submissions awaiting a [`RoamMsg::DeliverAck`].
    pending_sends: BTreeMap<MessageId, SendTask>,
    /// Alerts received per user.
    pub alerts: BTreeMap<MailName, u64>,
    /// Per-host telemetry (submissions, retransmits, alerts).
    pub metrics: MetricsRegistry,
}

impl RoamHost {
    fn timeout_for(&self, server: NodeId) -> SimDuration {
        let rtt = self.transport.delay(self.node, server) * 2;
        rtt + SimDuration::from_units(self.server_proc + TIMEOUT_SLACK)
    }

    /// Sends (or retransmits) `msg` to `server` and arms the session
    /// timeout.
    fn send_probe(
        &mut self,
        msg: Message,
        server: NodeId,
        attempt: u32,
        remaining: Vec<NodeId>,
        ctx: &mut Ctx<'_, RoamMsg>,
    ) {
        if attempt > 0 {
            self.stats.borrow_mut().retransmits += 1;
            self.metrics.inc("retransmits");
        }
        self.metrics.inc("submit_probes");
        let timeout = self
            .retry
            .timeout(self.timeout_for(server), attempt, ctx.rng());
        self.transport.send(
            ctx,
            self.node,
            server,
            RoamMsg::Deliver { msg: msg.clone() },
            SimDuration::ZERO,
        );
        let timer = ctx.set_timer(timeout, msg.id.0);
        self.pending_sends.insert(
            msg.id,
            SendTask {
                msg,
                current: server,
                attempts: attempt + 1,
                remaining,
                timer,
            },
        );
    }
}

impl Actor for RoamHost {
    type Msg = RoamMsg;

    fn on_message(&mut self, _from: ActorId, msg: RoamMsg, ctx: &mut Ctx<'_, RoamMsg>) {
        match msg {
            RoamMsg::DoLogin { user } => {
                // "the host will inform the nearest active server".
                self.transport.send(
                    ctx,
                    self.node,
                    self.nearest_server,
                    RoamMsg::LoginReport {
                        user,
                        host: self.node,
                        at: ctx.now(),
                    },
                    SimDuration::ZERO,
                );
            }
            RoamMsg::DoSend { from, to } => {
                let id = self.id_gen.borrow_mut().next_id();
                self.stats.borrow_mut().submitted += 1;
                self.metrics.inc("submitted");
                let m = Message::new(id, from, to, "msg", "body", ctx.now());
                let mut ring = self.server_ring.clone();
                let first = if ring.is_empty() {
                    self.nearest_server
                } else {
                    ring.remove(0)
                };
                self.send_probe(m, first, 0, ring, ctx);
            }
            RoamMsg::DeliverAck { id } => {
                if let Some(task) = self.pending_sends.remove(&id) {
                    ctx.cancel_timer(task.timer);
                }
            }
            RoamMsg::Notify { user, .. } => {
                *self.alerts.entry(user).or_insert(0) += 1;
                self.metrics.inc("alerts");
            }
            // Server-bound traffic; a host receiving these ignores them.
            RoamMsg::LoginReport { .. }
            | RoamMsg::LocationUpdate { .. }
            | RoamMsg::Deliver { .. }
            | RoamMsg::WhereIs { .. }
            | RoamMsg::LocationReply { .. } => {}
        }
    }

    fn on_timer(&mut self, id: TimerId, tag: u64, ctx: &mut Ctx<'_, RoamMsg>) {
        let Some(task) = self.pending_sends.remove(&MessageId(tag)) else {
            return;
        };
        if task.timer != id {
            // Stale timer from a superseded probe.
            self.pending_sends.insert(task.msg.id, task);
            return;
        }
        if self.retry.exhausted(task.attempts) {
            let mut remaining = task.remaining;
            if remaining.is_empty() {
                // Every candidate exhausted its budget: the mail is lost.
                self.stats.borrow_mut().delivery_failures += 1;
                self.metrics.inc("delivery_failures");
            } else {
                let next = remaining.remove(0);
                self.send_probe(task.msg, next, 0, remaining, ctx);
            }
        } else {
            self.send_probe(task.msg, task.current, task.attempts, task.remaining, ctx);
        }
    }
}

/// A message parked while its recipient's location is being resolved.
#[derive(Clone, Debug)]
struct PendingLookup {
    msg: Message,
    peers_left: Vec<NodeId>,
}

/// A sub-group handoff awaiting its hop-by-hop ack.
struct RelayTask {
    msg: Message,
    /// Probes already sent to the responsible peer.
    attempts: u32,
    /// Pending timeout (guards against stale timers).
    timer: TimerId,
}

/// A System-2 region server.
pub struct RoamServer {
    node: NodeId,
    transport: Rc<Transport>,
    subgroups: SubgroupMap,
    peers: Vec<NodeId>,
    /// Primary host per user (from the name's host token).
    primary_hosts: BTreeMap<MailName, NodeId>,
    /// Current locations known to *this* server, with the login
    /// timestamp that produced them (last-writer-wins). Ordered maps keep
    /// actor state deterministic (`HashMap` is a `clippy.toml` ban here).
    locations: BTreeMap<MailName, (NodeId, SimTime)>,
    /// Durable mailbox storage behind the [`MailStore`] trait (System-2
    /// servers only ever deposit; retrieval happens at the user's host).
    store: Box<dyn MailStore>,
    pending: BTreeMap<MessageId, PendingLookup>,
    /// Message ids already accepted (stored or relayed): retransmitted and
    /// wire-duplicated `Deliver`s are acked but processed only once.
    seen_ids: BTreeSet<MessageId>,
    /// Sub-group handoffs awaiting a [`RoamMsg::DeliverAck`].
    relays: BTreeMap<MessageId, RelayTask>,
    retry: RetryPolicy,
    proc_time: f64,
    stats: SharedStats,
    /// Per-server telemetry (storage, notifications, lookup overhead).
    pub metrics: MetricsRegistry,
}

impl RoamServer {
    fn proc(&self) -> SimDuration {
        SimDuration::from_units(self.proc_time)
    }

    /// Sends (or retransmits) a sub-group handoff and arms the session
    /// timeout. The responsible server is fixed by the name hash, so there
    /// is no failover candidate — only retransmission.
    fn relay_probe(&mut self, msg: Message, attempt: u32, ctx: &mut Ctx<'_, RoamMsg>) {
        let responsible = self.subgroups.server_of(&msg.to);
        if attempt > 0 {
            self.stats.borrow_mut().retransmits += 1;
            self.metrics.inc("retransmits");
        }
        self.metrics.inc("relay_probes");
        let rtt = self.transport.delay(self.node, responsible) * 2;
        let base = rtt + SimDuration::from_units(self.proc_time + TIMEOUT_SLACK);
        let timeout = self.retry.timeout(base, attempt, ctx.rng());
        self.transport.send(
            ctx,
            self.node,
            responsible,
            RoamMsg::Deliver { msg: msg.clone() },
            self.proc(),
        );
        let timer = ctx.set_timer(timeout, msg.id.0);
        self.relays.insert(
            msg.id,
            RelayTask {
                msg,
                attempts: attempt + 1,
                timer,
            },
        );
    }

    /// Applies a location fact if it is newer than what we hold
    /// (ties break toward the higher host id, deterministically).
    fn record_location(&mut self, user: MailName, host: NodeId, at: SimTime) {
        match self.locations.get(&user) {
            Some(&(cur_host, cur_at)) if (cur_at, cur_host) >= (at, host) => {}
            _ => {
                self.locations.insert(user, (host, at));
            }
        }
    }

    /// Stores the message, then notifies the user at their current
    /// location (consulting peers if needed).
    fn store_and_notify(&mut self, msg: Message, ctx: &mut Ctx<'_, RoamMsg>) {
        let user = msg.to.clone();
        let id = msg.id;
        // `seen_ids` dedups upstream, so this only returns false if the
        // same id somehow reached two code paths — count only real stores.
        if self.store.deposit(msg.clone(), ctx.now()) {
            self.stats.borrow_mut().stored += 1;
            self.metrics.inc("stored");
            self.metrics.gauge_add(ctx.now(), "storage", 1.0);
        }

        // Primary location is derivable from the name alone (§3.2.2c:
        // "from the user name, the primary location of the user can be
        // obtained").
        let primary = self.primary_hosts.get(&user).copied();
        let known = self.locations.get(&user).map(|&(h, _)| h);

        match (known, primary) {
            (Some(host), p) => {
                if Some(host) == p {
                    self.stats.borrow_mut().notified_at_primary += 1;
                    self.metrics.inc("notified_at_primary");
                }
                self.notify(&user, id, host, msg.submitted_at, ctx);
            }
            (None, Some(p)) => {
                // Assume the primary until proven otherwise — but also ask
                // the peers, since the user may have roamed. To keep the
                // protocol single-round we ask peers first only when the
                // user is *not* known locally and notification at the
                // primary is our fallback after the peers answer.
                self.ask_peers(msg, p, ctx);
            }
            (None, None) => {
                self.stats.borrow_mut().unknown_location += 1;
                self.metrics.inc("unknown_location");
            }
        }
    }

    fn ask_peers(&mut self, msg: Message, _fallback_primary: NodeId, ctx: &mut Ctx<'_, RoamMsg>) {
        let mut peers: Vec<NodeId> = self
            .peers
            .iter()
            .copied()
            .filter(|&p| p != self.node)
            .collect();
        if peers.is_empty() {
            // No one else to ask: notify at the primary.
            let user = msg.to.clone();
            let primary = self.primary_hosts[&user];
            self.stats.borrow_mut().notified_at_primary += 1;
            self.metrics.inc("notified_at_primary");
            self.notify(&user, msg.id, primary, msg.submitted_at, ctx);
            return;
        }
        let first = peers.remove(0);
        self.stats.borrow_mut().consults += 1;
        self.metrics.inc("consults");
        let pending = msg.id;
        self.pending.insert(
            pending,
            PendingLookup {
                msg,
                peers_left: peers,
            },
        );
        self.transport.send(
            ctx,
            self.node,
            first,
            RoamMsg::WhereIs {
                user: self.pending[&pending].msg.to.clone(),
                pending,
                reply_to: self.node,
            },
            self.proc(),
        );
    }

    fn notify(
        &mut self,
        user: &MailName,
        id: MessageId,
        host: NodeId,
        submitted_at: SimTime,
        ctx: &mut Ctx<'_, RoamMsg>,
    ) {
        {
            let mut st = self.stats.borrow_mut();
            st.notified += 1;
            st.notify_latency
                .observe(ctx.now().duration_since(submitted_at).as_units());
        }
        self.metrics.inc("notified");
        self.metrics.observe(
            "notify_latency",
            ctx.now().duration_since(submitted_at).as_units(),
        );
        self.transport.send(
            ctx,
            self.node,
            host,
            RoamMsg::Notify {
                user: user.clone(),
                id,
            },
            self.proc(),
        );
    }
}

impl Actor for RoamServer {
    type Msg = RoamMsg;

    fn on_message(&mut self, from: ActorId, msg: RoamMsg, ctx: &mut Ctx<'_, RoamMsg>) {
        match msg {
            RoamMsg::LoginReport { user, host, at } => {
                self.record_location(user.clone(), host, at);
                // Cooperative tracking: tell the peers.
                for &p in &self.peers.clone() {
                    if p != self.node {
                        self.transport.send(
                            ctx,
                            self.node,
                            p,
                            RoamMsg::LocationUpdate {
                                user: user.clone(),
                                host,
                                at,
                            },
                            self.proc(),
                        );
                    }
                }
            }
            RoamMsg::LocationUpdate { user, host, at } => {
                self.record_location(user, host, at);
            }
            RoamMsg::Deliver { msg } => {
                // Ack the hop unconditionally — even for a duplicate, since
                // the duplicate means the sender never saw our first ack.
                if let Some(sender) = self.transport.node_of(from) {
                    self.transport.send(
                        ctx,
                        self.node,
                        sender,
                        RoamMsg::DeliverAck { id: msg.id },
                        self.proc(),
                    );
                }
                if !self.seen_ids.insert(msg.id) {
                    // Retransmission or wire duplicate: already handled.
                    return;
                }
                let responsible = self.subgroups.server_of(&msg.to);
                if responsible == self.node {
                    self.store_and_notify(msg, ctx);
                } else {
                    // Hash says a peer owns this sub-group: hand it over,
                    // reliably (retransmit until the peer acks).
                    self.relay_probe(msg, 0, ctx);
                }
            }
            RoamMsg::DeliverAck { id } => {
                if let Some(task) = self.relays.remove(&id) {
                    ctx.cancel_timer(task.timer);
                }
            }
            RoamMsg::WhereIs {
                user,
                pending,
                reply_to,
            } => {
                let host = self.locations.get(&user).map(|&(h, _)| h);
                self.transport.send(
                    ctx,
                    self.node,
                    reply_to,
                    RoamMsg::LocationReply { pending, host },
                    self.proc(),
                );
            }
            RoamMsg::LocationReply { pending, host } => {
                let Some(mut lookup) = self.pending.remove(&pending) else {
                    return;
                };
                match host {
                    Some(h) => {
                        let user = lookup.msg.to.clone();
                        self.record_location(user.clone(), h, ctx.now());
                        let primary = self.primary_hosts.get(&user).copied();
                        if Some(h) == primary {
                            self.stats.borrow_mut().notified_at_primary += 1;
                            self.metrics.inc("notified_at_primary");
                        }
                        self.notify(&user, pending, h, lookup.msg.submitted_at, ctx);
                    }
                    None if !lookup.peers_left.is_empty() => {
                        let next = lookup.peers_left.remove(0);
                        self.stats.borrow_mut().consults += 1;
                        self.metrics.inc("consults");
                        let user = lookup.msg.to.clone();
                        self.pending.insert(pending, lookup);
                        self.transport.send(
                            ctx,
                            self.node,
                            next,
                            RoamMsg::WhereIs {
                                user,
                                pending,
                                reply_to: self.node,
                            },
                            self.proc(),
                        );
                    }
                    None => {
                        // Nobody knows: fall back to the primary host.
                        let user = lookup.msg.to.clone();
                        match self.primary_hosts.get(&user).copied() {
                            Some(primary) => {
                                self.stats.borrow_mut().notified_at_primary += 1;
                                self.metrics.inc("notified_at_primary");
                                self.notify(&user, pending, primary, lookup.msg.submitted_at, ctx);
                            }
                            None => {
                                self.stats.borrow_mut().unknown_location += 1;
                                self.metrics.inc("unknown_location");
                            }
                        }
                    }
                }
            }
            // Host-bound traffic; a server receiving these ignores them.
            RoamMsg::DoLogin { .. } | RoamMsg::DoSend { .. } | RoamMsg::Notify { .. } => {}
        }
    }

    fn on_timer(&mut self, id: TimerId, tag: u64, ctx: &mut Ctx<'_, RoamMsg>) {
        let Some(task) = self.relays.remove(&MessageId(tag)) else {
            return;
        };
        if task.timer != id {
            // Stale timer from a superseded probe.
            self.relays.insert(task.msg.id, task);
            return;
        }
        if self.retry.exhausted(task.attempts) {
            // The responsible peer never acked within budget; the name
            // hash admits no substitute, so the handoff is abandoned.
            self.stats.borrow_mut().delivery_failures += 1;
            self.metrics.inc("delivery_failures");
        } else {
            self.relay_probe(task.msg, task.attempts, ctx);
        }
    }
}

/// A wired System-2 region: engine, hosts, servers, statistics.
pub struct RoamDeployment {
    /// The engine.
    pub sim: ActorSim<RoamMsg>,
    /// Shared statistics.
    pub stats: SharedStats,
    /// Topology-derived delays and node/actor bindings.
    pub transport: Rc<Transport>,
    host_actors: BTreeMap<NodeId, ActorId>,
    server_actors: BTreeMap<NodeId, ActorId>,
    /// Registered users and their primary hosts.
    pub users: BTreeMap<MailName, NodeId>,
}

impl RoamDeployment {
    /// Builds a single-region System-2 deployment over `topology`'s region
    /// 0, with `users_per_host` users named `r0.<host>.u<k>`.
    ///
    /// # Panics
    ///
    /// Panics if the topology has no servers or hosts in region 0, or the
    /// population slice is misaligned.
    pub fn build(topology: &Topology, users_per_host: &[u32], groups: usize, seed: u64) -> Self {
        Self::build_with_durability(
            topology,
            users_per_host,
            groups,
            seed,
            &DurabilityConfig::default(),
        )
    }

    /// [`RoamDeployment::build`] with an explicit mailbox persistence
    /// backend for every server.
    ///
    /// # Panics
    ///
    /// Same conditions as [`RoamDeployment::build`].
    #[expect(
        clippy::expect_used,
        reason = "names are generated here: valid by construction"
    )]
    pub fn build_with_durability(
        topology: &Topology,
        users_per_host: &[u32],
        groups: usize,
        seed: u64,
        durability: &DurabilityConfig,
    ) -> Self {
        let region = lems_net::topology::RegionId(0);
        let servers = topology.servers_in(region);
        let hosts = topology.hosts_in(region);
        assert!(
            !servers.is_empty() && !hosts.is_empty(),
            "region 0 must be populated"
        );
        assert_eq!(hosts.len(), users_per_host.len(), "population misaligned");

        let subgroups = SubgroupMap::new(groups, servers.clone());
        let mut sim: ActorSim<RoamMsg> = ActorSim::new(seed);
        // Bind every node to the actor id it is about to get (ids are
        // handed out in registration order: servers first, then hosts), so
        // the one all-pairs table is built once and every actor holds the
        // bound transport from the start.
        let mut transport = Transport::new(topology.graph());
        for (i, &node) in servers.iter().chain(&hosts).enumerate() {
            transport.bind(node, ActorId(sim.actor_count() + i));
        }
        let transport = Rc::new(transport);
        let stats: SharedStats = Rc::new(RefCell::new(RoamStats::default()));
        let id_gen = Rc::new(RefCell::new(MessageIdGen::new()));
        let dist = transport.distances();

        // Users and their primary hosts (encoded in the name).
        let mut users: BTreeMap<MailName, NodeId> = BTreeMap::new();
        for (&h, &n) in hosts.iter().zip(users_per_host) {
            for k in 0..n {
                let name: MailName = format!("r0.{}.u{k}", topology.name(h))
                    .parse()
                    .expect("generated names are valid");
                users.insert(name, h);
            }
        }
        let primary_hosts: BTreeMap<MailName, NodeId> = users.clone();

        let mut server_actors = BTreeMap::new();
        for &s in &servers {
            let actor = RoamServer {
                node: s,
                transport: Rc::clone(&transport),
                subgroups: subgroups.clone(),
                peers: servers.clone(),
                primary_hosts: primary_hosts.clone(),
                locations: BTreeMap::new(),
                store: lems_store::make_store(durability),
                pending: BTreeMap::new(),
                seen_ids: BTreeSet::new(),
                relays: BTreeMap::new(),
                retry: RetryPolicy::default_session(),
                proc_time: 0.5,
                stats: Rc::clone(&stats),
                metrics: MetricsRegistry::new(),
            };
            let id = sim.add_actor(actor);
            assert_eq!(transport.actor_of(s), Ok(id), "server bound ahead of time");
            server_actors.insert(s, id);
        }

        let mut host_actors = BTreeMap::new();
        for &h in &hosts {
            // Non-empty `servers` is asserted at the top of `build`.
            let nearest = servers
                .iter()
                .copied()
                .min_by_key(|&s| dist.distance(h, s))
                .unwrap_or_else(|| servers[0]);
            let mut ring = servers.clone();
            ring.sort_by_key(|&s| (dist.distance(h, s), s));
            let actor = RoamHost {
                node: h,
                nearest_server: nearest,
                server_ring: ring,
                transport: Rc::clone(&transport),
                id_gen: Rc::clone(&id_gen),
                stats: Rc::clone(&stats),
                retry: RetryPolicy::default_session(),
                server_proc: 0.5,
                pending_sends: BTreeMap::new(),
                alerts: BTreeMap::new(),
                metrics: MetricsRegistry::new(),
            };
            let id = sim.add_actor(actor);
            assert_eq!(transport.actor_of(h), Ok(id), "host bound ahead of time");
            host_actors.insert(h, id);
        }

        RoamDeployment {
            sim,
            stats,
            transport,
            host_actors,
            server_actors,
            users,
        }
    }

    /// Injects a login of `user` at `host` at time `at`.
    ///
    /// # Panics
    ///
    /// Panics if the host is not part of the deployment.
    pub fn login_at(&mut self, at: SimTime, user: &MailName, host: NodeId) {
        let actor = self.host_actors[&host];
        let delay = at.duration_since(self.sim.now());
        self.sim
            .inject(actor, RoamMsg::DoLogin { user: user.clone() }, delay);
    }

    /// Injects a send at `at` from `from` (at their primary host) to `to`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not a user of the deployment: a typo in a
    /// driver script should fail loudly, not silently drop the send.
    #[expect(
        clippy::expect_used,
        reason = "injecting for an unknown user is a driver bug"
    )]
    pub fn send_at(&mut self, at: SimTime, from: &MailName, to: &MailName) {
        let host = *self.users.get(from).expect("unknown sender");
        let actor = self.host_actors[&host];
        let delay = at.duration_since(self.sim.now());
        self.sim.inject(
            actor,
            RoamMsg::DoSend {
                from: from.clone(),
                to: to.clone(),
            },
            delay,
        );
    }

    /// Alerts delivered to `user` at `host`.
    pub fn alerts_at(&self, host: NodeId, user: &MailName) -> u64 {
        self.host_actors
            .get(&host)
            .and_then(|&aid| self.sim.actor::<RoamHost>(aid))
            .and_then(|h| h.alerts.get(user).copied())
            .unwrap_or(0)
    }

    /// The server responsible for `user`'s sub-group.
    pub fn responsible_server(&self, user: &MailName, groups: usize) -> NodeId {
        let servers: Vec<NodeId> = self.server_actors.keys().copied().collect();
        SubgroupMap::new(groups, servers).server_of(user)
    }

    /// Per-actor metrics registries under stable scope names
    /// (`server:n<id>` then `host:n<id>`, in node order).
    pub fn metrics_snapshot(&self) -> Vec<(String, MetricsRegistry)> {
        let mut out = Vec::new();
        for (&node, &aid) in &self.server_actors {
            if let Some(a) = self.sim.actor::<RoamServer>(aid) {
                out.push((format!("server:n{}", node.0), a.metrics.clone()));
            }
        }
        for (&node, &aid) in &self.host_actors {
            if let Some(a) = self.sim.actor::<RoamHost>(aid) {
                out.push((format!("host:n{}", node.0), a.metrics.clone()));
            }
        }
        out
    }

    /// All per-actor registries folded into one region-wide aggregate.
    pub fn merged_metrics(&self) -> MetricsRegistry {
        let mut merged = MetricsRegistry::new();
        for (_, m) in self.metrics_snapshot() {
            merged.merge(&m);
        }
        merged
    }

    /// Total mail currently stored across servers.
    pub fn mail_in_storage(&self) -> usize {
        self.server_actors
            .values()
            .filter_map(|&aid| self.sim.actor::<RoamServer>(aid))
            .map(|s| {
                s.store
                    .mailboxes()
                    .values()
                    .map(Mailbox::len)
                    .sum::<usize>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lems_net::generators::multi_region;
    use lems_net::generators::MultiRegionConfig;
    use lems_sim::rng::SimRng;

    /// Every test scenario quiesces far below this; exhausting it means
    /// a stuck retry loop, which must fail the test rather than hang it.
    const EVENT_BUDGET: u64 = 2_000_000;

    fn world() -> Topology {
        let mut rng = SimRng::seed(8);
        multi_region(
            &mut rng,
            &MultiRegionConfig {
                regions: 1,
                hosts_per_region: 4,
                servers_per_region: 3,
                ..MultiRegionConfig::default()
            },
        )
    }

    fn t(u: f64) -> SimTime {
        SimTime::from_units(u)
    }

    #[test]
    fn mail_to_stationary_user_notifies_primary_without_consults() {
        let topo = world();
        let mut d = RoamDeployment::build(&topo, &[1, 1, 1, 1], 16, 1);
        let users: Vec<MailName> = d.users.keys().cloned().collect();
        let (alice, bob) = (users[0].clone(), users[1].clone());
        let bob_home = d.users[&bob];

        // Both log in at their primary hosts.
        d.login_at(t(1.0), &alice, d.users[&alice]);
        d.login_at(t(1.0), &bob, bob_home);
        d.send_at(t(20.0), &alice, &bob);
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));

        let st = d.stats.borrow();
        assert_eq!(st.submitted, 1);
        assert_eq!(st.stored, 1);
        assert_eq!(st.notified, 1);
        assert_eq!(st.notified_at_primary, 1);
        assert_eq!(st.consults, 0, "no lookup overhead when nobody moves");
        drop(st);
        assert_eq!(d.alerts_at(bob_home, &bob), 1);
    }

    #[test]
    fn roaming_user_is_notified_at_current_host() {
        let topo = world();
        let mut d = RoamDeployment::build(&topo, &[1, 1, 1, 1], 16, 2);
        let users: Vec<MailName> = d.users.keys().cloned().collect();
        let (alice, bob) = (users[0].clone(), users[2].clone());
        let bob_home = d.users[&bob];
        let hosts = topo.hosts_in(lems_net::topology::RegionId(0));
        let away = *hosts.iter().find(|&&h| h != bob_home).unwrap();

        // Bob roams to a different host before the mail arrives.
        d.login_at(t(1.0), &bob, away);
        d.send_at(t(30.0), &alice, &bob);
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));

        assert_eq!(d.alerts_at(away, &bob), 1, "alert must follow bob");
        assert_eq!(d.alerts_at(bob_home, &bob), 0);
        let st = d.stats.borrow();
        assert_eq!(st.notified, 1);
        assert_eq!(st.unknown_location, 0);
    }

    #[test]
    fn never_logged_in_user_defaults_to_primary() {
        let topo = world();
        let mut d = RoamDeployment::build(&topo, &[1, 1, 1, 1], 16, 3);
        let users: Vec<MailName> = d.users.keys().cloned().collect();
        let (alice, bob) = (users[0].clone(), users[3].clone());
        let bob_home = d.users[&bob];

        d.send_at(t(5.0), &alice, &bob);
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));

        // Bob never logged in: after the peers come up empty, the alert
        // goes to the primary host derived from his name.
        assert_eq!(d.alerts_at(bob_home, &bob), 1);
        let st = d.stats.borrow();
        assert_eq!(st.notified_at_primary, 1);
        assert_eq!(st.unknown_location, 0);
        assert_eq!(
            d.mail_in_storage(),
            1,
            "mail is stored at the sub-group server"
        );
    }

    #[test]
    fn relogin_moves_the_alert_target() {
        let topo = world();
        let mut d = RoamDeployment::build(&topo, &[1, 1, 1, 1], 16, 4);
        let users: Vec<MailName> = d.users.keys().cloned().collect();
        let (alice, bob) = (users[0].clone(), users[1].clone());
        let bob_home = d.users[&bob];
        let hosts = topo.hosts_in(lems_net::topology::RegionId(0));
        let away = *hosts.iter().find(|&&h| h != bob_home).unwrap();

        d.login_at(t(1.0), &bob, away);
        d.send_at(t(30.0), &alice, &bob);
        // Bob goes home; a second message follows him there.
        d.login_at(t(60.0), &bob, bob_home);
        d.send_at(t(90.0), &alice, &bob);
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));

        assert_eq!(d.alerts_at(away, &bob), 1);
        assert_eq!(d.alerts_at(bob_home, &bob), 1);
    }

    #[test]
    fn cooperative_tracking_broadcasts_locations() {
        let topo = world();
        let mut d = RoamDeployment::build(&topo, &[2, 2, 2, 2], 16, 5);
        let users: Vec<MailName> = d.users.keys().cloned().collect();
        // Everyone logs in somewhere; all servers must end up agreeing.
        for (i, u) in users.iter().enumerate() {
            let hosts = topo.hosts_in(lems_net::topology::RegionId(0));
            d.login_at(t(1.0 + i as f64), u, hosts[i % hosts.len()]);
        }
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
        // Mail to every user notifies without any WhereIs consults,
        // because LocationUpdates already spread the knowledge.
        let sender = users[0].clone();
        for (i, u) in users.iter().enumerate().skip(1) {
            d.send_at(t(100.0 + i as f64), &sender, u);
        }
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
        let st = d.stats.borrow();
        assert_eq!(st.consults, 0, "cooperative updates make lookups free");
        assert_eq!(st.notified, users.len() as u64 - 1);
    }

    #[test]
    fn lossy_wire_mail_still_reaches_storage() {
        use lems_sim::linkfault::{LinkFaultPlan, LinkProfile};

        let topo = world();
        let mut d = RoamDeployment::build(&topo, &[1, 1, 1, 1], 16, 6);
        let plan = LinkFaultPlan::new()
            .with_default_profile(
                LinkProfile::new(0.25, 0.0, SimDuration::from_units(0.5)).unwrap(),
            )
            .with_stochastic_horizon(t(300.0));
        d.sim.set_link_faults(plan);

        let users: Vec<MailName> = d.users.keys().cloned().collect();
        for u in &users {
            d.login_at(t(1.0), u, d.users[u]);
        }
        let sender = users[0].clone();
        for (i, u) in users.iter().enumerate().skip(1) {
            d.send_at(t(20.0 + i as f64 * 5.0), &sender, u);
        }
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));

        let st = d.stats.borrow();
        assert_eq!(st.submitted, 3);
        assert_eq!(st.stored, 3, "session layer must mask 25% loss");
        assert_eq!(st.delivery_failures, 0);
        assert!(
            st.retransmits > 0,
            "a 25% lossy wire must force at least one retransmission"
        );
        drop(st);
        assert_eq!(d.mail_in_storage(), 3);
    }

    #[test]
    fn wire_duplicates_store_once() {
        use lems_sim::linkfault::{LinkFaultPlan, LinkProfile};

        let topo = world();
        let mut d = RoamDeployment::build(&topo, &[1, 1, 1, 1], 16, 7);
        let plan = LinkFaultPlan::new()
            .with_default_profile(LinkProfile::new(0.0, 1.0, SimDuration::ZERO).unwrap())
            .with_stochastic_horizon(t(200.0));
        d.sim.set_link_faults(plan);

        let users: Vec<MailName> = d.users.keys().cloned().collect();
        let (alice, bob) = (users[0].clone(), users[1].clone());
        d.login_at(t(1.0), &bob, d.users[&bob]);
        d.send_at(t(10.0), &alice, &bob);
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));

        let st = d.stats.borrow();
        assert_eq!(st.submitted, 1);
        assert_eq!(st.stored, 1, "duplicated Deliver hops must dedup");
        drop(st);
        assert_eq!(d.mail_in_storage(), 1);
        assert!(d.sim.counters().duplicated.get() > 0);
    }

    /// Per-actor registries, merged region-wide, must agree with the
    /// shared stats ledger — even under a lossy wire that forces
    /// session-layer retransmissions.
    #[test]
    fn merged_metrics_agree_with_shared_stats() {
        use lems_sim::linkfault::{LinkFaultPlan, LinkProfile};

        let topo = world();
        let mut d = RoamDeployment::build(&topo, &[1, 1, 1, 1], 16, 9);
        let plan = LinkFaultPlan::new()
            .with_default_profile(LinkProfile::new(0.2, 0.0, SimDuration::from_units(0.5)).unwrap())
            .with_stochastic_horizon(t(300.0));
        d.sim.set_link_faults(plan);

        let users: Vec<MailName> = d.users.keys().cloned().collect();
        for u in &users {
            d.login_at(t(1.0), u, d.users[u]);
        }
        let sender = users[0].clone();
        for (i, u) in users.iter().enumerate().skip(1) {
            d.send_at(t(20.0 + i as f64 * 5.0), &sender, u);
        }
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));

        let merged = d.merged_metrics();
        let st = d.stats.borrow();
        assert_eq!(merged.counter("submitted"), st.submitted);
        assert_eq!(merged.counter("stored"), st.stored);
        assert_eq!(merged.counter("notified"), st.notified);
        assert_eq!(
            merged.counter("notified_at_primary"),
            st.notified_at_primary
        );
        assert_eq!(merged.counter("consults"), st.consults);
        assert_eq!(merged.counter("retransmits"), st.retransmits);
        assert_eq!(merged.counter("delivery_failures"), st.delivery_failures);
        let lat = merged
            .histogram("notify_latency")
            .expect("latency recorded");
        assert_eq!(lat.count(), st.notify_latency.count());
        assert!((lat.mean() - st.notify_latency.mean()).abs() < 1e-9);
        // Storage gauges stay per-server: merging must not invent one.
        assert!(merged.gauge("storage").is_none());
        assert!(d
            .metrics_snapshot()
            .iter()
            .any(|(scope, m)| scope.starts_with("server:") && m.gauge("storage").is_some()));
    }
}
