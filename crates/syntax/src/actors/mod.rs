//! The simulated mail system: host (user-interface) and server actors
//! over the `lems-sim` engine — the one mail path of Systems 1 and 2.
//!
//! This module wires the pure algorithms — server assignment
//! ([`crate::assign`]), syntax-directed resolution ([`crate::resolve`]),
//! and GetMail ([`crate::getmail`]) — into a running message-passing
//! system with the three delivery phases of §3.1.2:
//!
//! * **connection setup** — the user interface walks the user's authority
//!   list with per-probe timeouts until a live server accepts the message;
//! * **name resolution and forwarding** — servers resolve syntactically,
//!   forward into the recipient's region, and cascade across the
//!   recipient's authority list when servers are down;
//! * **delivery** — the authority server deposits into the mailbox,
//!   notifies the recipient's host, and answers retrieval probes with its
//!   `LastStartTime` so the UI-side GetMail walk can stop early.
//!
//! Failures come from a [`FailurePlan`]; down servers silently drop
//! traffic, and every recovery bumps the server's `LastStartTime`, exactly
//! the signal GetMail keys on.
//!
//! What §3.2 changes is data, not code: *who a name's servers are* is the
//! [`Placement`] that [`Deployment::wire`] is handed (the §3.1.1 solution
//! in [`Deployment::build`], a hashed sub-group server in `lems-locindep`),
//! and *where the alert goes* is a per-server location table fed by
//! [`MailMsg::DoLogin`]. With no logins and no tracking peers — every
//! System-1 deployment — the table is empty and the alert goes to the home
//! host: System 1 is System 2 in which nobody roams.
//!
//! [`FailurePlan`]: lems_sim::failure::FailurePlan

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use lems_core::directory::Directory;
use lems_core::mailbox::Mailbox;
use lems_core::message::{BounceReason, MessageId, MessageIdGen};
use lems_core::name::MailName;
use lems_core::store::{StoreMetrics, StoreRecovery};
use lems_core::user::AuthorityList;
use lems_net::error::NetError;
use lems_net::graph::NodeId;
use lems_net::topology::{RegionId, Topology};
use lems_net::transport::Transport;
use lems_sim::actor::{ActorId, ActorSim, Ctx, TimerId};
use lems_sim::failure::FailureError;
use lems_sim::linkfault::{LinkFaultPlan, LinkProfile};
use lems_sim::metrics::MetricsRegistry;
use lems_sim::session::RetryPolicy;
use lems_sim::span::{BounceCode, SpanId, SpanLog, SpanStage, NO_NODE, NO_SPAN};
use lems_sim::time::{SimDuration, SimTime};
use lems_store::DurabilityConfig;

use crate::assign::{solve, Assignment, AssignmentProblem, BalanceOptions};
use crate::cost::{CostModel, ServerSpec};
use crate::resolve::SyntaxResolver;

mod host;
mod msg;
mod server;

pub use host::HostActor;
use host::UiUser;
pub use msg::{DeliveryStats, MailMsg};
pub use server::ServerActor;

/// Maximum server-to-server forwarding hops before a message bounces
/// (loop protection).
pub const MAX_HOPS: u32 = 16;

/// Extra slack added to every round-trip timeout, in time units.
pub const TIMEOUT_SLACK: f64 = 2.0;

type SharedStats = Rc<RefCell<DeliveryStats>>;

/// The shared lifecycle-span log (disabled by default; see
/// [`Deployment::enable_spans`]). Like the stats ledger it is pure
/// bookkeeping: recording never touches the scheduler or any RNG stream,
/// so enabling spans cannot perturb event order.
type SharedSpans = Rc<RefCell<SpanLog>>;

/// The shared log of store-recovery reports, one entry per server
/// recovery, in recovery order. Pure bookkeeping like the span log:
/// recording never touches the scheduler or any RNG stream.
pub type SharedRecoveries = Rc<RefCell<Vec<StoreRecovery>>>;

/// Span `site`/`peer` encoding: raw topology node index.
fn site(n: NodeId) -> u64 {
    n.0 as u64
}

/// The wire code for a bounce reason (see [`BounceCode`]).
fn bounce_code(reason: BounceReason) -> u64 {
    match reason {
        BounceReason::UnknownRecipient => BounceCode::UnknownRecipient.as_detail(),
        BounceReason::AllServersDown => BounceCode::AllServersDown.as_detail(),
        BounceReason::RegionUnreachable => BounceCode::RegionUnreachable.as_detail(),
    }
}

/// One actor's end of the session layer, hosts and servers alike: where it
/// sits on the wire, how its exchanges time out, and the ledgers its
/// probes and bounces are recorded in.
struct Endpoint {
    node: NodeId,
    transport: Rc<Transport>,
    retry: RetryPolicy,
    /// A server's processing time: part of every round trip an exchange
    /// waits for.
    server_proc: f64,
    /// What this actor adds to everything it sends: a server's processing
    /// time, nothing at a host.
    send_delay: SimDuration,
    stats: SharedStats,
    spans: SharedSpans,
    /// This actor's telemetry; collected by [`Deployment::metrics_snapshot`].
    /// A server's `storage` gauge tracks its live mailbox+drain occupancy
    /// (§4.4 storage space).
    metrics: MetricsRegistry,
}

/// One request/response exchange of §3.1.2 in flight — a submit, a
/// forward or a GetMail probe: the peer asked, how many probes it has been
/// sent, and the timer the latest one armed.
#[derive(Clone, Copy, Debug)]
struct Exchange {
    peer: NodeId,
    attempts: u32,
    timer: TimerId,
}

/// What a fired timer means to the exchange it was armed for.
enum Timeout {
    /// An earlier probe armed it, and the exchange has moved past it.
    Stale,
    /// The peer has not answered: send it this 0-based attempt.
    Retransmit(u32),
    /// The peer spent its retry budget: go on to the next one.
    Exhausted,
}

impl Exchange {
    fn on_timer(&self, id: TimerId, retry: &RetryPolicy) -> Timeout {
        if self.timer != id {
            Timeout::Stale
        } else if retry.exhausted(self.attempts) {
            Timeout::Exhausted
        } else {
            Timeout::Retransmit(self.attempts)
        }
    }
}

impl Endpoint {
    fn new(
        node: NodeId,
        transport: &Rc<Transport>,
        cfg: &DeploymentConfig,
        stats: &SharedStats,
        spans: &SharedSpans,
        send_delay: SimDuration,
    ) -> Self {
        Endpoint {
            node,
            transport: Rc::clone(transport),
            retry: cfg.session.retry,
            server_proc: cfg.server_spec.proc_time,
            send_delay,
            stats: Rc::clone(stats),
            spans: Rc::clone(spans),
            metrics: MetricsRegistry::new(),
        }
    }

    fn send(&self, ctx: &mut Ctx<'_, MailMsg>, to: NodeId, msg: MailMsg) {
        self.transport
            .send(ctx, self.node, to, msg, self.send_delay);
    }

    /// The lifecycle span of message `id` ([`NO_SPAN`] when there is none).
    fn span_of(&self, id: MessageId) -> SpanId {
        self.spans.borrow().span_of(id.0).unwrap_or(NO_SPAN)
    }

    /// Sends 0-based `attempt` of `request` to `peer` and arms its timeout
    /// under `tag`: the round trip plus the server's processing and
    /// [`TIMEOUT_SLACK`], backed off by the retry policy. Counts a
    /// retransmission past the first attempt and records the probe on
    /// `span`.
    fn probe(
        &mut self,
        ctx: &mut Ctx<'_, MailMsg>,
        span: SpanId,
        peer: NodeId,
        attempt: u32,
        request: MailMsg,
        tag: u64,
    ) -> Exchange {
        if attempt > 0 {
            self.stats.borrow_mut().retransmits += 1;
            self.metrics.inc("retransmits");
        }
        self.spans.borrow_mut().record(
            ctx.now(),
            span,
            SpanStage::Probe,
            site(self.node),
            site(peer),
            u64::from(attempt),
        );
        let rtt = self.transport.delay(self.node, peer) * 2;
        let base = rtt + SimDuration::from_units(self.server_proc + TIMEOUT_SLACK);
        let timeout = self.retry.timeout(base, attempt, ctx.rng());
        self.send(ctx, peer, request);
        Exchange {
            peer,
            attempts: attempt + 1,
            timer: ctx.set_timer(timeout, tag),
        }
    }

    /// The peer of `exchange` took custody of message `id`.
    fn accepted(&self, ctx: &mut Ctx<'_, MailMsg>, id: MessageId, exchange: &Exchange) {
        ctx.cancel_timer(exchange.timer);
        self.spans.borrow_mut().record_keyed(
            ctx.now(),
            id.0,
            SpanStage::Accepted,
            site(self.node),
            site(exchange.peer),
            0,
        );
    }

    /// Records a bounce in the stats ledger, the span log, and this actor's
    /// metrics. The span terminal dedups on the ledger: only the first
    /// outcome for a message id terminates its span.
    fn bounce(&mut self, id: MessageId, reason: BounceReason, now: SimTime) {
        let mut st = self.stats.borrow_mut();
        st.bounced += 1;
        self.metrics.inc("bounced");
        let first_outcome =
            !st.ledger_retrieved.contains(&id) && st.ledger_bounced.insert(id, reason).is_none();
        if first_outcome {
            self.spans.borrow_mut().record_keyed(
                now,
                id.0,
                SpanStage::Bounced,
                site(self.node),
                NO_NODE,
                bounce_code(reason),
            );
        }
    }
}

/// Session-layer configuration for a deployment: how request/response
/// exchanges (submit, forward, retrieve) time out and retransmit, and
/// whether retrieval uses the acked drain buffer.
#[derive(Clone, Copy, Debug)]
pub struct SessionConfig {
    /// Timeout/retransmit discipline per peer exchange.
    pub retry: RetryPolicy,
    /// When true (the default), servers keep drained messages in a stable
    /// drain buffer until the host acks the `RetrieveReply`; a lost reply
    /// is then recovered by a retransmitted `Retrieve`. When false the
    /// drain is destructive (the pre-session behaviour): a lost reply
    /// loses mail — kept so experiments can prove the session layer is
    /// load-bearing.
    pub reliable_retrieval: bool,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            retry: RetryPolicy::default_session(),
            reliable_retrieval: true,
        }
    }
}

impl SessionConfig {
    /// The pre-session behaviour: one attempt per server, destructive
    /// drain. Demonstrably loses mail on lossy links.
    pub fn legacy() -> Self {
        SessionConfig {
            retry: RetryPolicy::no_retry(),
            reliable_retrieval: false,
        }
    }
}

/// Configuration for [`Deployment::build`].
#[derive(Clone, Debug)]
pub struct DeploymentConfig {
    /// Authority servers per user.
    pub authority_list_len: usize,
    /// Per-server capacity/processing spec.
    pub server_spec: ServerSpec,
    /// Cost constants for assignment.
    pub cost_model: CostModel,
    /// Balancing options.
    pub balance: BalanceOptions,
    /// Engine seed.
    pub seed: u64,
    /// Session-layer (timeout/retry/ack) behaviour.
    pub session: SessionConfig,
    /// Mailbox persistence backend for every server.
    pub durability: DurabilityConfig,
}

impl Default for DeploymentConfig {
    fn default() -> Self {
        DeploymentConfig {
            authority_list_len: 3,
            server_spec: ServerSpec::paper_example(),
            cost_model: CostModel::paper_example(),
            balance: BalanceOptions::default(),
            seed: 0,
            session: SessionConfig::default(),
            durability: DurabilityConfig::default(),
        }
    }
}

/// A fully wired deployment: engine, actors, transport, directory, and
/// statistics.
pub struct Deployment {
    /// The simulation engine.
    pub sim: ActorSim<MailMsg>,
    /// Topology-derived delays and node/actor mapping.
    pub transport: Rc<Transport>,
    /// Global user registry.
    pub directory: Directory,
    /// Shared run statistics.
    pub stats: SharedStats,
    /// Users by name with their home host and the slot that host keeps
    /// them in ([`MailMsg::NO_SLOT_HINT`] where it keeps none), which
    /// [`Deployment::send_at`] and [`Deployment::check_at`] hand the host
    /// so it need not look the name up again.
    users: BTreeMap<MailName, (NodeId, u32)>,
    /// Host node -> actor id.
    host_actors: BTreeMap<NodeId, ActorId>,
    /// Host node -> region (for live migration naming).
    host_region: BTreeMap<NodeId, RegionId>,
    /// Host node -> display token.
    host_names: BTreeMap<NodeId, String>,
    /// Server node -> actor id.
    server_actors: BTreeMap<NodeId, ActorId>,
    /// The placement's per-host, per-server user counts.
    pub assignment: Assignment,
    /// The assignment problem (for inspecting costs).
    pub problem: AssignmentProblem,
    /// The §3.1.4 redirect table shared with every server actor.
    pub redirects: Rc<RefCell<crate::migrate::RedirectTable>>,
    /// The lifecycle-span log shared with every actor (disabled until
    /// [`Deployment::enable_spans`]).
    pub spans: Rc<RefCell<SpanLog>>,
    /// Store-recovery reports, one per server recovery, in recovery order.
    pub recoveries: SharedRecoveries,
}

/// Who serves whom: the input [`Deployment::wire`] turns into actors.
/// Indices are the problem's — host `i`, server `j`, user `k` of a host.
#[derive(Clone, Debug)]
pub struct Placement {
    /// The world as the §3.1.1 problem describes it (hosts, servers, costs).
    pub problem: AssignmentProblem,
    /// How many users of host `i` server `j` serves first.
    pub assignment: Assignment,
    /// `authorities[i][k]`: where user `k` of host `i` has mail deposited
    /// and fetches it, in order.
    pub authorities: Vec<Vec<AuthorityList>>,
    /// `contact[i]`: the servers host `i` contacts before a user's own
    /// list, nearest first (§3.2.2a). Empty lists under §3.1.1.
    pub contact: Vec<Vec<NodeId>>,
    /// `peers[j]`: the servers server `j` shares location tracking with
    /// (§3.2.2c), in the order it asks them. Empty lists under §3.1.1.
    pub peers: Vec<Vec<NodeId>>,
}

impl Placement {
    /// The §3.1.1 placement: authority lists of `list_len` servers drawn
    /// from a solved assignment by [`crate::assign::authority_lists`] (a
    /// host's users take their lists in server-index order of their
    /// primaries); no contact servers, no tracking.
    fn solved(problem: AssignmentProblem, assignment: Assignment, list_len: usize) -> Self {
        let authorities = crate::assign::authority_lists(&problem, &assignment, list_len)
            .into_iter()
            .map(|host_lists| {
                host_lists
                    .into_iter()
                    .flat_map(|(users, list)| {
                        std::iter::repeat_n(AuthorityList::new(list), users as usize)
                    })
                    .collect()
            })
            .collect();
        Placement {
            contact: vec![Vec::new(); problem.host_count()],
            peers: vec![Vec::new(); problem.server_count()],
            problem,
            assignment,
            authorities,
        }
    }
}

impl Deployment {
    /// Builds a deployment over `topology` with `users_per_host[i]` users on
    /// the i-th host (topology node order): solves §3.1.1, draws each user's
    /// authority list from the solution — primary the assigned server,
    /// secondaries the next-cheapest servers *for their host* at the
    /// balanced loads — and [`wire`](Self::wire)s that placement.
    ///
    /// # Panics
    ///
    /// Panics if the topology has no hosts/servers or the population
    /// slice is misaligned — the same conditions as
    /// [`AssignmentProblem::from_topology`].
    pub fn build(topology: &Topology, users_per_host: &[u32], cfg: &DeploymentConfig) -> Self {
        let problem = AssignmentProblem::from_topology(
            topology,
            users_per_host,
            cfg.server_spec,
            cfg.cost_model,
        );
        let (assignment, _report) = solve(&problem, cfg.balance);
        let placement = Placement::solved(problem, assignment, cfg.authority_list_len);
        Self::wire(topology, placement, cfg)
    }

    /// The name [`Deployment::wire`] gives user `k` of `host`:
    /// `r<region>.<host>.u<k>` from the topology's display names.
    ///
    /// # Panics
    ///
    /// Panics if the host's display name is not a valid name token.
    #[expect(clippy::expect_used, reason = "generator display names are valid")]
    pub fn user_name(topology: &Topology, host: NodeId, k: usize) -> MailName {
        let region = format!("r{}", topology.region(host).0);
        MailName::new(&region, topology.name(host), &format!("u{k}"))
            .expect("generated names are valid")
    }

    /// Wires `placement` into running actors, users named by
    /// [`Deployment::user_name`]. Of `cfg` only the seed, the session layer,
    /// the durability backend and the servers' processing time are read
    /// here.
    ///
    /// # Panics
    ///
    /// Panics if `placement`'s tables are not the size of its problem, or
    /// the problem's hosts and servers are not `topology`'s.
    #[expect(clippy::expect_used, reason = "generated names are unique")]
    pub fn wire(topology: &Topology, placement: Placement, cfg: &DeploymentConfig) -> Self {
        let Placement {
            problem,
            assignment,
            authorities,
            contact,
            peers,
        } = placement;
        let mut sim: ActorSim<MailMsg> = ActorSim::new(cfg.seed);
        let stats: SharedStats = Rc::new(RefCell::new(DeliveryStats::default()));
        let spans: SharedSpans = Rc::new(RefCell::new(SpanLog::disabled()));
        let id_gen = Rc::new(RefCell::new(MessageIdGen::new()));
        let redirects = Rc::new(RefCell::new(crate::migrate::RedirectTable::new()));
        let recoveries: SharedRecoveries = Rc::new(RefCell::new(Vec::new()));

        // Directory + region naming: region token is "r<id>".
        let mut directory = Directory::new();
        for r in topology.region_ids() {
            directory.map_region(&format!("r{}", r.0), r);
        }

        let server_nodes: Vec<NodeId> = problem.servers.iter().map(|(n, _)| *n).collect();
        let host_nodes: Vec<NodeId> = problem.hosts.iter().map(|h| h.node).collect();
        let aligned = authorities.len() == host_nodes.len()
            && contact.len() == host_nodes.len()
            && peers.len() == server_nodes.len();
        assert!(aligned, "placement misaligned with its problem");

        // Actors hold the transport from birth, so it is bound before they
        // exist: the engine numbers actors in registration order, servers
        // first, then hosts (checked as each one is added).
        let mut transport = Transport::new(topology.graph());
        for (i, &node) in server_nodes.iter().chain(&host_nodes).enumerate() {
            transport.bind(node, ActorId(sim.actor_count() + i));
        }
        let transport = Rc::new(transport);

        // Register users; each host's users are collected here so that
        // wiring a host does not search all users.
        let mut users_by_host: Vec<Vec<(MailName, AuthorityList)>> = Vec::new();
        for (&host, lists) in host_nodes.iter().zip(authorities) {
            let mut host_users = Vec::new();
            for (k, authorities) in lists.into_iter().enumerate() {
                let name = Self::user_name(topology, host, k);
                directory
                    .register(name.clone(), host, authorities.clone())
                    .expect("unique generated names");
                host_users.push((name, authorities));
            }
            users_by_host.push(host_users);
        }

        // Per-server views and region tables.
        let views = directory.partition(&server_nodes);
        let mut region_servers: BTreeMap<RegionId, Vec<NodeId>> = BTreeMap::new();
        for &s in &server_nodes {
            region_servers
                .entry(topology.region(s))
                .or_default()
                .push(s);
        }
        let mut region_index_by_region: BTreeMap<RegionId, BTreeMap<MailName, AuthorityList>> =
            BTreeMap::new();
        for rec in directory.iter() {
            let region = topology.region(rec.home_host);
            region_index_by_region
                .entry(region)
                .or_default()
                .insert(rec.name.clone(), rec.authorities.clone());
        }

        // Spawn server actors.
        let proc = SimDuration::from_units(cfg.server_spec.proc_time);
        let mut server_actors = BTreeMap::new();
        for (&s, peers) in server_nodes.iter().zip(peers) {
            let region = topology.region(s);
            let resolver = SyntaxResolver::new(
                s,
                region,
                views[&s].clone(),
                region_index_by_region
                    .get(&region)
                    .cloned()
                    .unwrap_or_default(),
                region_servers.clone(),
            );
            let actor = ServerActor {
                end: Endpoint::new(s, &transport, cfg, &stats, &spans, proc),
                resolver,
                store: lems_store::make_store(&cfg.durability),
                last_start_time: SimTime::ZERO,
                forwards: BTreeMap::new(),
                locations: BTreeMap::new(),
                lookups: BTreeMap::new(),
                peers,
                redirects: Rc::clone(&redirects),
                reliable_retrieval: cfg.session.reliable_retrieval,
                recoveries: Rc::clone(&recoveries),
            };
            let id = sim.add_actor(actor);
            assert_eq!(transport.actor_of(s), Ok(id), "server bound ahead of time");
            server_actors.insert(s, id);
        }

        // Spawn host actors.
        let mut users: BTreeMap<MailName, (NodeId, u32)> = BTreeMap::new();
        let mut host_actors = BTreeMap::new();
        for ((&h, host_users), contact) in host_nodes.iter().zip(users_by_host).zip(contact) {
            let mut actor = HostActor {
                end: Endpoint::new(h, &transport, cfg, &stats, &spans, SimDuration::ZERO),
                users: Vec::new(),
                slot_of: BTreeMap::new(),
                submits: BTreeMap::new(),
                contact,
                id_gen: Rc::clone(&id_gen),
                alerts: BTreeMap::new(),
            };
            for (name, authorities) in host_users {
                let slot = actor.adopt_user(name.clone(), UiUser::new(authorities));
                users.insert(name, (h, slot));
            }
            let id = sim.add_actor(actor);
            assert_eq!(transport.actor_of(h), Ok(id), "host bound ahead of time");
            host_actors.insert(h, id);
        }

        let host_region = host_nodes
            .iter()
            .map(|&h| (h, topology.region(h)))
            .collect();
        let host_names = host_nodes
            .iter()
            .map(|&h| (h, topology.name(h).to_owned()))
            .collect();
        Deployment {
            sim,
            transport,
            directory,
            stats,
            users,
            host_actors,
            host_region,
            host_names,
            server_actors,
            assignment,
            problem,
            redirects,
            spans,
            recoveries,
        }
    }

    /// Turns on lifecycle-span recording (unbounded). Call before
    /// injecting workload; spans recorded from then on are shared with
    /// every actor through [`Deployment::spans`]. Recording is pure
    /// bookkeeping — no RNG draws, no scheduled events — so enabling it
    /// cannot change the simulation's behaviour.
    pub fn enable_spans(&mut self) {
        *self.spans.borrow_mut() = SpanLog::unbounded();
    }

    /// Per-actor metrics registries, keyed `server:n<node>` / `host:n<node>`
    /// in deterministic (BTreeMap node) order.
    pub fn metrics_snapshot(&self) -> Vec<(String, MetricsRegistry)> {
        let mut out = Vec::new();
        for (&node, &aid) in &self.server_actors {
            if let Some(s) = self.sim.actor::<ServerActor>(aid) {
                out.push((format!("server:n{}", node.0), s.end.metrics.clone()));
            }
        }
        for (&node, &aid) in &self.host_actors {
            if let Some(h) = self.sim.actor::<HostActor>(aid) {
                out.push((format!("host:n{}", node.0), h.end.metrics.clone()));
            }
        }
        out
    }

    /// Per-server store durability metrics, keyed `server:n<node>` in
    /// deterministic (BTreeMap node) order. Servers whose backend reports
    /// nothing (the all-zero default of the in-memory stores) are skipped,
    /// so a deployment without a WAL exports no store-metrics lines.
    pub fn store_metrics_snapshot(&self) -> Vec<(String, StoreMetrics)> {
        let mut out = Vec::new();
        for (&node, &aid) in &self.server_actors {
            if let Some(s) = self.sim.actor::<ServerActor>(aid) {
                let m = s.store.store_metrics();
                if m != StoreMetrics::default() {
                    out.push((format!("server:n{}", node.0), m));
                }
            }
        }
        out
    }

    /// Every per-actor registry folded into one fleet-wide aggregate:
    /// counters add and histograms merge bucket-wise; per-server gauges
    /// stay in [`Deployment::metrics_snapshot`] (a time-average has no
    /// meaning summed across servers).
    pub fn merged_metrics(&self) -> MetricsRegistry {
        let mut merged = MetricsRegistry::new();
        for (_, registry) in self.metrics_snapshot() {
            merged.merge(&registry);
        }
        merged
    }

    /// Performs the §3.1.4 migration *live*: renames the user in the
    /// directory, installs a redirect for `redirect_ttl`, moves the user's
    /// mailbox-access state to the new host's user interface, and updates
    /// every server's resolution tables. Mail subsequently sent to the old
    /// name is redirected and delivered under the new name until the
    /// redirect expires.
    ///
    /// The user keeps their authority servers (the paper allows
    /// reassignment as a separate step).
    ///
    /// # Errors
    ///
    /// Returns the directory error (unknown old name, taken new name)
    /// without touching any actor state.
    /// `new_user_token` overrides the user component at the new location
    /// (needed when the old token is already taken on the destination
    /// host); `None` keeps it.
    pub fn migrate_user_live(
        &mut self,
        old_name: &MailName,
        new_host: NodeId,
        new_user_token: Option<&str>,
        redirect_ttl: SimDuration,
    ) -> Result<MailName, lems_core::directory::DirectoryError> {
        let unknown = || lems_core::directory::DirectoryError::UnknownName(old_name.clone());
        let rec = self
            .directory
            .by_name(old_name)
            .ok_or_else(unknown)?
            .clone();
        // The name convention of `wire`: r<region>.<host display name>.<user>.
        let region = self.host_region.get(&new_host).ok_or_else(unknown)?;
        let host_token = self.host_names.get(&new_host).ok_or_else(unknown)?;
        let user_token = new_user_token.unwrap_or(old_name.user());
        let new_name = MailName::new(&format!("r{}", region.0), host_token, user_token)
            .map_err(|_| unknown())?;
        crate::migrate::rename(
            &mut self.directory,
            &mut self.redirects.borrow_mut(),
            old_name,
            &new_name,
            new_host,
            rec.authorities.clone(),
            self.sim.now() + redirect_ttl,
        )?;

        // Server-side tables: retire the old name, install the new one.
        let server_ids: Vec<ActorId> = self.server_actors.values().copied().collect();
        let new_rec = self
            .directory
            .by_name(&new_name)
            .ok_or_else(|| lems_core::directory::DirectoryError::UnknownName(new_name.clone()))?
            .clone();
        for aid in server_ids {
            if let Some(server) = self.sim.actor_mut::<ServerActor>(aid) {
                server.resolver.remove_regional(old_name);
                server.resolver.view_mut().remove(old_name);
                server
                    .resolver
                    .upsert_regional(new_name.clone(), new_rec.authorities.clone());
                if new_rec.authorities.contains(server.end.node) {
                    server.resolver.view_mut().upsert(new_rec.clone());
                }
            }
        }

        // UI side: move the user's interface state to the new host actor.
        let moved = self.users.remove(old_name).and_then(|(old_host, _)| {
            let old_aid = self.host_actors[&old_host];
            self.sim
                .actor_mut::<HostActor>(old_aid)
                .and_then(|h| h.release_user(old_name))
        });
        // A name whose interface state did not move is still registered,
        // hint-less: a send from it reaches the host and bounces at source.
        let mut slot = MailMsg::NO_SLOT_HINT;
        if let Some(mut ui) = moved {
            // The move is also a fresh start for retrieval bookkeeping.
            ui.retrieval = None;
            ui.pending_check = false;
            let new_aid = self.host_actors[&new_host];
            if let Some(h) = self.sim.actor_mut::<HostActor>(new_aid) {
                slot = h.adopt_user(new_name.clone(), ui);
            }
        }
        self.users.insert(new_name.clone(), (new_host, slot));

        Ok(new_name)
    }

    /// All user names, ordered.
    pub fn user_names(&self) -> Vec<MailName> {
        self.users.keys().cloned().collect()
    }

    /// The actor simulating `server`.
    pub fn server_actor(&self, server: NodeId) -> Option<ActorId> {
        self.server_actors.get(&server).copied()
    }

    /// The actor simulating `host`.
    pub fn host_actor(&self, host: NodeId) -> Option<ActorId> {
        self.host_actors.get(&host).copied()
    }

    /// Injects a send at `at` (absolute simulated time).
    ///
    /// # Panics
    ///
    /// Panics if the sender is unknown.
    #[expect(
        clippy::expect_used,
        reason = "injecting for an unknown user is a driver bug"
    )]
    pub fn send_at(&mut self, at: SimTime, from: &MailName, to: &MailName) {
        let (host, slot) = *self.users.get(from).expect("unknown sender");
        let actor = self.host_actors[&host];
        let delay = at.duration_since(self.sim.now());
        self.sim.inject(
            actor,
            MailMsg::DoSend {
                from: from.clone(),
                to: to.clone(),
                slot,
            },
            delay,
        );
    }

    /// Injects a mail check at `at`.
    ///
    /// # Panics
    ///
    /// Panics if the user is unknown.
    #[expect(
        clippy::expect_used,
        reason = "injecting for an unknown user is a driver bug"
    )]
    pub fn check_at(&mut self, at: SimTime, user: &MailName) {
        let (host, slot) = *self.users.get(user).expect("unknown user");
        let actor = self.host_actors[&host];
        let delay = at.duration_since(self.sim.now());
        let check = MailMsg::DoCheck {
            user: user.clone(),
            slot,
        };
        self.sim.inject(actor, check, delay);
    }

    /// Injects a login of `user` at `host` at `at` (§3.2.2c). Sends and
    /// checks injected by name still go through the home host.
    ///
    /// # Panics
    ///
    /// Panics if the user or the host is unknown.
    #[expect(
        clippy::expect_used,
        reason = "injecting for an unknown user is a driver bug"
    )]
    pub fn login_at(&mut self, at: SimTime, user: &MailName, host: NodeId) {
        let rec = self.directory.by_name(user).expect("unknown user");
        let login = MailMsg::DoLogin {
            user: user.clone(),
            authorities: rec.authorities.clone(),
        };
        let delay = at.duration_since(self.sim.now());
        self.sim.inject(self.host_actors[&host], login, delay);
    }

    /// Alerts delivered to `user` at `host`.
    pub fn alerts_at(&self, host: NodeId, user: &MailName) -> u64 {
        self.host_actor(host)
            .and_then(|aid| self.sim.actor::<HostActor>(aid))
            .and_then(|h| h.alerts.get(user).copied())
            .unwrap_or(0)
    }

    /// The server `user`'s mail is deposited at while it is up — the head
    /// of the authority list this deployment was wired with.
    pub fn responsible_server(&self, user: &MailName) -> Option<NodeId> {
        Some(self.directory.by_name(user)?.authorities.primary())
    }

    /// Applies a failure plan expressed over *server nodes* (host actors
    /// never fail in System-1 experiments).
    pub fn apply_server_failures(&mut self, plan: &ServerFailurePlan) {
        for (server, outages) in &plan.outages {
            let actor = self.server_actors[server];
            for &(down, up) in outages {
                self.sim.schedule_crash(actor, down);
                self.sim.schedule_recover(actor, up);
            }
        }
    }

    /// Applies a node-addressed chaos plan: installs a [`LinkFaultPlan`] on
    /// the engine (stochastic loss/duplication/jitter on every wire send)
    /// and schedules the requested partitions, cutting every cross-group
    /// actor pair.
    pub fn apply_link_chaos(&mut self, chaos: &LinkChaos) -> Result<(), ChaosError> {
        let mut plan = LinkFaultPlan::new()
            .with_default_profile(chaos.profile)
            .with_stochastic_horizon(chaos.stochastic_horizon);
        for part in &chaos.partitions {
            let group_a = self.actors_of(&part.side_a)?;
            let group_b = self.actors_of(&part.side_b)?;
            plan.add_partition(&group_a, &group_b, part.down_at, part.up_at)?;
        }
        self.sim.set_link_faults(plan);
        Ok(())
    }

    fn actors_of(&self, nodes: &[NodeId]) -> Result<Vec<ActorId>, ChaosError> {
        nodes
            .iter()
            .map(|&n| self.transport.actor_of(n).map_err(ChaosError::Net))
            .collect()
    }

    /// Debug dump: every message still stored, as
    /// `(server node, owner, message id, owner's authority list)`.
    pub fn stranded_mail(&self) -> Vec<(NodeId, MailName, MessageId, Vec<NodeId>)> {
        let mut out = Vec::new();
        for (&node, &aid) in &self.server_actors {
            if let Some(s) = self.sim.actor::<ServerActor>(aid) {
                for (owner, mb) in s.store.mailboxes().iter() {
                    for stored in mb.peek() {
                        let auth = self
                            .directory
                            .by_name(owner)
                            .map(|r| r.authorities.servers().to_vec())
                            .unwrap_or_default();
                        out.push((node, owner.clone(), stored.message.id, auth));
                    }
                }
                // Drained-but-unacked mail is still the server's to lose.
                for (owner, pending) in s.store.pending_drain().iter() {
                    for message in pending {
                        let auth = self
                            .directory
                            .by_name(owner)
                            .map(|r| r.authorities.servers().to_vec())
                            .unwrap_or_default();
                        out.push((node, owner.clone(), message.id, auth));
                    }
                }
            }
        }
        out
    }

    /// Messages still sitting in server storage (mailboxes plus the
    /// drained-but-unacked reserve buffers).
    pub fn mail_in_storage(&self) -> usize {
        self.server_actors
            .values()
            .filter_map(|&aid| self.sim.actor::<ServerActor>(aid))
            .map(|s| {
                s.store
                    .mailboxes()
                    .values()
                    .map(Mailbox::len)
                    .sum::<usize>()
                    + s.store
                        .pending_drain()
                        .values()
                        .map(Vec::len)
                        .sum::<usize>()
            })
            .sum()
    }

    /// Persists and re-opens every server's store, as a clean
    /// close-and-restart of the storage layer (no crash: everything is
    /// synced first). Returns how many servers actually round-tripped —
    /// in-memory backends have nothing to persist and report `0`.
    ///
    /// This is the determinism probe for the durability layer: a run's
    /// trace digest must be identical with and without a mid-run
    /// persist/restore, because recovery replay reconstructs the exact
    /// pre-restart state.
    pub fn persist_restore_stores(&mut self) -> usize {
        let mut restored = 0;
        let aids: Vec<ActorId> = self.server_actors.values().copied().collect();
        for aid in aids {
            if let Some(s) = self.sim.actor_mut::<ServerActor>(aid) {
                if s.store.persist_restore().is_some() {
                    restored += 1;
                }
            }
        }
        restored
    }

    /// Total WAL bytes currently on every server's segment device
    /// (`0` for in-memory backends).
    pub fn wal_bytes(&self) -> u64 {
        self.server_actors
            .values()
            .filter_map(|&aid| self.sim.actor::<ServerActor>(aid))
            .map(|s| s.store.wal_bytes())
            .sum()
    }
}

/// One scheduled network partition: every link between a node on `side_a`
/// and a node on `side_b` is cut over `[down_at, up_at)`.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Nodes on one side of the cut.
    pub side_a: Vec<NodeId>,
    /// Nodes on the other side.
    pub side_b: Vec<NodeId>,
    /// When the partition begins.
    pub down_at: SimTime,
    /// When the partition heals.
    pub up_at: SimTime,
}

/// A node-addressed chaos plan for [`Deployment::apply_link_chaos`]:
/// stochastic link faults on every wire send plus scheduled partitions.
#[derive(Clone, Debug)]
pub struct LinkChaos {
    /// Loss/duplication/jitter applied to every link.
    pub profile: LinkProfile,
    /// Stochastic faults cease at this time so runs can drain cleanly
    /// (scheduled partitions are unaffected).
    pub stochastic_horizon: SimTime,
    /// Scheduled partitions (repeat with different windows to flap).
    pub partitions: Vec<Partition>,
}

impl LinkChaos {
    /// A chaos plan with the given stochastic profile, active until
    /// `stochastic_horizon`, and no partitions.
    pub fn new(profile: LinkProfile, stochastic_horizon: SimTime) -> Self {
        LinkChaos {
            profile,
            stochastic_horizon,
            partitions: Vec::new(),
        }
    }

    /// Adds a partition window between two node groups.
    pub fn partition(
        mut self,
        side_a: Vec<NodeId>,
        side_b: Vec<NodeId>,
        down_at: SimTime,
        up_at: SimTime,
    ) -> Self {
        self.partitions.push(Partition {
            side_a,
            side_b,
            down_at,
            up_at,
        });
        self
    }
}

/// Why a chaos plan could not be applied.
#[derive(Clone, Debug, PartialEq)]
pub enum ChaosError {
    /// A node in the plan is unknown to (or unbound in) the transport.
    Net(NetError),
    /// An outage window or probability in the plan is invalid.
    Failure(FailureError),
}

impl std::fmt::Display for ChaosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaosError::Net(e) => write!(f, "chaos plan rejected by transport: {e}"),
            ChaosError::Failure(e) => write!(f, "chaos plan invalid: {e}"),
        }
    }
}

impl std::error::Error for ChaosError {}

impl From<NetError> for ChaosError {
    fn from(e: NetError) -> Self {
        ChaosError::Net(e)
    }
}

impl From<FailureError> for ChaosError {
    fn from(e: FailureError) -> Self {
        ChaosError::Failure(e)
    }
}

/// Outages keyed by server node (a thin, node-addressed wrapper around the
/// engine's actor-addressed failure scheduling).
#[derive(Clone, Debug, Default)]
pub struct ServerFailurePlan {
    /// Server node -> list of (down_at, up_at).
    pub outages: BTreeMap<NodeId, Vec<(SimTime, SimTime)>>,
}

impl ServerFailurePlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an outage.
    ///
    /// # Panics
    ///
    /// Panics if `up <= down`.
    pub fn add(&mut self, server: NodeId, down: SimTime, up: SimTime) {
        assert!(up > down, "outage must end after it starts");
        self.outages.entry(server).or_default().push((down, up));
    }

    /// Random outages for the given servers (exponential MTBF/MTTR), drawn
    /// by [`lems_sim::failure::exp_outages`] exactly as
    /// [`lems_sim::failure::FailurePlan::random`] draws them.
    pub fn random(
        rng: &mut lems_sim::rng::SimRng,
        servers: &[NodeId],
        mtbf: SimDuration,
        mttr: SimDuration,
        horizon: SimTime,
    ) -> Self {
        let mut plan = Self::new();
        for &s in servers {
            for (down, up) in lems_sim::failure::exp_outages(rng, mtbf, mttr, horizon) {
                plan.add(s, down, up);
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::host::owner_slot_at;
    use super::*;
    use lems_core::store::NO_OWNER_SLOT;
    use lems_net::generators::fig1;
    use lems_sim::span::{SpanId, SpanStage};
    use lems_store::WalConfig;
    use std::collections::BTreeSet;

    /// Every test scenario quiesces far below this; exhausting it means
    /// a stuck retry loop, which must fail the test rather than hang it.
    const EVENT_BUDGET: u64 = 2_000_000;

    fn t(u: f64) -> SimTime {
        SimTime::from_units(u)
    }

    fn small_deployment(seed: u64) -> Deployment {
        let f = fig1();
        // Small population to keep tests brisk: 2 users/host.
        Deployment::build(
            &f.topology,
            &[2, 2, 2, 2, 2, 2],
            &DeploymentConfig {
                seed,
                ..DeploymentConfig::default()
            },
        )
    }

    /// Every queued event carries one: the §3.2.2c vocabulary must not
    /// widen what System 1 pays per event.
    #[test]
    fn mail_msg_stays_64_bytes() {
        assert_eq!(std::mem::size_of::<MailMsg>(), 64);
    }

    #[test]
    fn build_registers_users_with_authority_lists() {
        let d = small_deployment(1);
        let names = d.user_names();
        assert_eq!(names.len(), 12);
        for n in &names {
            let rec = d.directory.by_name(n).unwrap();
            assert_eq!(rec.authorities.len(), 3);
        }
    }

    /// A repair draw that rounds to zero ticks is stretched to one, as
    /// `FailurePlan::random` does, instead of handing `add` an empty
    /// outage (which it rejects with a panic).
    #[test]
    fn random_plan_stretches_a_zero_tick_repair() {
        let f = fig1();
        let mut rng = lems_sim::rng::SimRng::seed(1);
        let plan = ServerFailurePlan::random(
            &mut rng,
            &f.servers,
            SimDuration::from_units(10.0),
            SimDuration::from_ticks(1),
            t(1000.0),
        );
        let lengths: Vec<u64> = plan
            .outages
            .values()
            .flatten()
            .map(|&(down, up)| up.as_ticks() - down.as_ticks())
            .collect();
        assert!(lengths.iter().all(|&l| l >= 1));
        assert!(lengths.contains(&1), "some repair must round to a tick");
    }

    #[test]
    fn simple_send_deposit_retrieve_cycle() {
        let mut d = small_deployment(2);
        let names = d.user_names();
        let (alice, bob) = (names[0].clone(), names[5].clone());
        d.send_at(t(1.0), &alice, &bob);
        d.check_at(t(50.0), &bob);
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));

        let st = d.stats.borrow();
        assert_eq!(st.submitted, 1);
        assert_eq!(st.deposited, 1);
        assert_eq!(st.retrieved, 1);
        assert_eq!(st.bounced, 0);
        assert_eq!(st.outstanding(), 0);
        assert!(st.end_to_end.mean() > 0.0);
        assert_eq!(d.mail_in_storage(), 0);
    }

    #[test]
    fn notification_reaches_recipient_host() {
        let mut d = small_deployment(3);
        let names = d.user_names();
        let (alice, bob) = (names[0].clone(), names[7].clone());
        d.send_at(t(1.0), &alice, &bob);
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
        assert_eq!(d.alerts_at(d.users[&bob].0, &bob), 1);
    }

    #[test]
    fn steady_state_check_costs_one_poll() {
        let mut d = small_deployment(4);
        let names = d.user_names();
        let user = names[0].clone();
        // First check exhausts the list; later checks poll once.
        for i in 1..=5 {
            d.check_at(t(i as f64 * 20.0), &user);
        }
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
        let st = d.stats.borrow();
        assert_eq!(st.retrieval_polls.count(), 5);
        // First = 3 polls, remaining 4 = 1 poll -> mean = (3+4)/5 = 1.4
        assert!((st.retrieval_polls.mean() - 1.4).abs() < 1e-9);
        assert_eq!(st.retrieval_polls.min(), Some(1.0));
    }

    #[test]
    fn submission_fails_over_to_secondary_when_primary_down() {
        let mut d = small_deployment(5);
        let names = d.user_names();
        let (alice, bob) = (names[0].clone(), names[1].clone());
        let primary = d.directory.by_name(&alice).unwrap().authorities.primary();

        let mut plan = ServerFailurePlan::new();
        plan.add(primary, t(0.5), t(100.0));
        d.apply_server_failures(&plan);

        d.send_at(t(1.0), &alice, &bob);
        d.sim.run_until(t(90.0));
        {
            let st = d.stats.borrow();
            assert_eq!(st.submitted, 1);
            assert!(
                st.submit_attempts >= 2,
                "expected retry after primary timeout, got {}",
                st.submit_attempts
            );
            assert_eq!(st.bounced, 0);
        }
        // Bob checks after the dust settles; mail must be retrievable.
        d.check_at(t(120.0), &bob);
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
        let st = d.stats.borrow();
        assert_eq!(st.retrieved, 1);
        assert_eq!(st.outstanding(), 0);
    }

    #[test]
    fn unknown_recipient_bounces() {
        let mut d = small_deployment(6);
        let names = d.user_names();
        let alice = names[0].clone();
        let ghost: MailName = "r0.H1.ghost".parse().unwrap();
        d.send_at(t(1.0), &alice, &ghost);
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
        let st = d.stats.borrow();
        assert_eq!(st.bounced, 1);
        assert_eq!(
            st.ledger_bounced.values().next(),
            Some(&BounceReason::UnknownRecipient)
        );
    }

    #[test]
    fn unknown_region_bounces() {
        let mut d = small_deployment(7);
        let names = d.user_names();
        let alice = names[0].clone();
        let ghost: MailName = "r999.H1.ghost".parse().unwrap();
        d.send_at(t(1.0), &alice, &ghost);
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
        assert_eq!(d.stats.borrow().bounced, 1);
    }

    #[test]
    fn deterministic_runs() {
        fn run(seed: u64) -> (u64, u64, SimTime) {
            let mut d = small_deployment(seed);
            let names = d.user_names();
            for i in 0..names.len() {
                d.send_at(t(1.0 + i as f64), &names[i], &names[(i + 3) % names.len()]);
                d.check_at(t(100.0 + i as f64), &names[(i + 3) % names.len()]);
            }
            assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
            let st = d.stats.borrow();
            (st.retrieved, st.deposited, d.sim.now())
        }
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn duplicate_forwards_deposit_once() {
        let mut d = small_deployment(11);
        let names = d.user_names();
        let (alice, bob) = (names[0].clone(), names[1].clone());
        let primary = d.directory.by_name(&bob).unwrap().authorities.primary();
        let server_actor = d.server_actor(primary).unwrap();

        d.send_at(t(1.0), &alice, &bob);
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
        assert_eq!(d.stats.borrow().deposited, 1);

        // Replay the delivered message as a stray duplicate Forward.
        let stored = d.stranded_mail();
        assert_eq!(stored.len(), 1);
        let dup = {
            let s: &ServerActor = d.sim.actor(server_actor).unwrap();
            s.store.mailboxes()[&bob].peek()[0].message.clone()
        };
        d.sim.inject(
            server_actor,
            MailMsg::Forward {
                msg: dup,
                reply_to: primary,
                hops_left: 4,
            },
            SimDuration::from_units(1.0),
        );
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
        assert_eq!(d.stats.borrow().deposited, 1, "duplicate suppressed");
        assert_eq!(d.mail_in_storage(), 1);
    }

    #[test]
    fn live_migration_redirects_old_name_mail() {
        let mut d = small_deployment(12);
        let names = d.user_names();
        let (alice, bob_old) = (names[0].clone(), names[4].clone());
        let old_host = d.users[&bob_old].0;

        // Migrate bob to a different host at t=0.
        let f = lems_net::generators::fig1();
        let new_host = *f.topology.hosts().iter().find(|&&h| h != old_host).unwrap();
        let bob_new = d
            .migrate_user_live(
                &bob_old,
                new_host,
                Some("bob-moved"),
                SimDuration::from_units(500.0),
            )
            .unwrap();
        assert_ne!(bob_new, bob_old);
        assert!(!d.directory.is_registered(&bob_old));

        // Alice still writes to the old address; the mail must arrive
        // under the new name.
        d.send_at(t(1.0), &alice, &bob_old);
        d.check_at(t(60.0), &bob_new);
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));

        let st = d.stats.borrow();
        assert_eq!(st.bounced, 0, "old-name mail must redirect, not bounce");
        assert_eq!(st.retrieved, 1);
        assert_eq!(st.outstanding(), 0);
        drop(st);
        // The sender-notification side effect fired.
        assert_eq!(d.redirects.borrow().notification_count(&bob_old), 1);
    }

    #[test]
    fn expired_redirect_bounces_old_name_mail() {
        let mut d = small_deployment(13);
        let names = d.user_names();
        let (alice, bob_old) = (names[0].clone(), names[4].clone());
        let old_host = d.users[&bob_old].0;
        let f = lems_net::generators::fig1();
        let new_host = *f.topology.hosts().iter().find(|&&h| h != old_host).unwrap();
        let _ = d
            .migrate_user_live(
                &bob_old,
                new_host,
                Some("bob-moved"),
                SimDuration::from_units(10.0),
            )
            .unwrap();
        // Mail sent long after the redirect expired.
        d.send_at(t(100.0), &alice, &bob_old);
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
        let st = d.stats.borrow();
        assert_eq!(st.bounced, 1);
        assert_eq!(
            st.ledger_bounced.values().next(),
            Some(&BounceReason::UnknownRecipient)
        );
    }

    #[test]
    fn mail_survives_primary_crash_after_deposit() {
        let mut d = small_deployment(10);
        let names = d.user_names();
        let (alice, bob) = (names[2].clone(), names[3].clone());
        let primary = d.directory.by_name(&bob).unwrap().authorities.primary();

        d.send_at(t(1.0), &alice, &bob);
        // Crash the primary long after deposit, recover later; the mailbox
        // is stable storage, so the mail is still there.
        let mut plan = ServerFailurePlan::new();
        plan.add(primary, t(20.0), t(40.0));
        d.apply_server_failures(&plan);
        d.check_at(t(50.0), &bob);
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
        let st = d.stats.borrow();
        assert_eq!(st.retrieved, 1);
        assert_eq!(st.outstanding(), 0);
    }

    #[test]
    fn lossy_links_deliver_everything_via_retries() {
        let mut d = small_deployment(21);
        let names = d.user_names();
        let chaos = LinkChaos::new(
            LinkProfile::new(0.2, 0.05, SimDuration::from_units(1.0)).unwrap(),
            t(150.0),
        );
        d.apply_link_chaos(&chaos).unwrap();

        for i in 0..6 {
            d.send_at(t(1.0 + i as f64), &names[i], &names[(i + 5) % names.len()]);
        }
        // Checks run after the stochastic horizon: the wire is clean again,
        // so this isolates the *delivery* path's fault tolerance.
        for i in 0..6 {
            d.check_at(t(200.0 + i as f64), &names[(i + 5) % names.len()]);
        }
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));

        let st = d.stats.borrow();
        assert_eq!(st.submitted, 6);
        assert_eq!(st.deposited, 6, "session layer must mask 20% loss");
        assert_eq!(st.retrieved, 6);
        assert_eq!(st.bounced, 0);
        assert_eq!(st.outstanding(), 0);
        assert!(
            st.retransmits > 0,
            "a 20% lossy wire must force at least one retransmission"
        );
        drop(st);
        assert_eq!(d.mail_in_storage(), 0);
        assert!(d.sim.counters().dropped_link.get() > 0);
    }

    /// A lost `RetrieveReply` must not lose mail: the server keeps drained
    /// messages in the reserve buffer until the host acknowledges them.
    #[test]
    fn dropped_retrieve_reply_does_not_lose_mail() {
        let mut d = small_deployment(22);
        let names = d.user_names();
        let (alice, bob) = (names[0].clone(), names[1].clone());
        let primary = d.directory.by_name(&bob).unwrap().authorities.primary();
        let server = d.server_actor(primary).unwrap();
        let host = d.host_actor(d.users[&bob].0).unwrap();

        // Deliver cleanly, then make the server->host direction drop every
        // message until t=100: Retrieves arrive, replies vanish.
        d.send_at(t(1.0), &alice, &bob);
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
        assert_eq!(d.stats.borrow().deposited, 1);

        let mut plan = LinkFaultPlan::new().with_stochastic_horizon(t(100.0));
        plan.set_link_profile(
            server,
            host,
            LinkProfile::new(1.0, 0.0, SimDuration::ZERO).unwrap(),
        );
        d.sim.set_link_faults(plan);

        // This check's replies are all eaten; the session retries, gives
        // up, and the mail stays in server storage.
        d.check_at(t(20.0), &bob);
        // A later check, after the horizon, must recover it.
        d.check_at(t(200.0), &bob);
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));

        let st = d.stats.borrow();
        assert_eq!(st.retrieved, 1, "mail must survive dropped replies");
        assert_eq!(st.outstanding(), 0);
        assert!(st.retransmits > 0, "dropped replies must trigger retries");
        drop(st);
        assert_eq!(d.mail_in_storage(), 0);
    }

    /// The same dropped-reply scenario under [`SessionConfig::legacy`]
    /// demonstrably loses the mail — proof the session layer (not luck)
    /// provides the guarantee above.
    #[test]
    fn legacy_session_loses_mail_on_dropped_reply() {
        let f = fig1();
        let mut d = Deployment::build(
            &f.topology,
            &[2, 2, 2, 2, 2, 2],
            &DeploymentConfig {
                seed: 22,
                session: SessionConfig::legacy(),
                ..DeploymentConfig::default()
            },
        );
        let names = d.user_names();
        let (alice, bob) = (names[0].clone(), names[1].clone());
        let primary = d.directory.by_name(&bob).unwrap().authorities.primary();
        let server = d.server_actor(primary).unwrap();
        let host = d.host_actor(d.users[&bob].0).unwrap();

        d.send_at(t(1.0), &alice, &bob);
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
        assert_eq!(d.stats.borrow().deposited, 1);

        let mut plan = LinkFaultPlan::new().with_stochastic_horizon(t(100.0));
        plan.set_link_profile(
            server,
            host,
            LinkProfile::new(1.0, 0.0, SimDuration::ZERO).unwrap(),
        );
        d.sim.set_link_faults(plan);

        d.check_at(t(20.0), &bob);
        d.check_at(t(200.0), &bob);
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));

        let st = d.stats.borrow();
        assert_eq!(
            st.retrieved, 0,
            "legacy destructive drain loses mail when the reply is dropped"
        );
        assert_eq!(st.outstanding(), 1, "the message is gone for good");
        drop(st);
        assert_eq!(d.mail_in_storage(), 0, "not in storage either: truly lost");
    }

    /// Identical seeds and chaos plans produce byte-identical traces.
    #[test]
    fn chaos_runs_are_deterministic() {
        fn run() -> (u64, u64, u64, SimTime) {
            let mut d = small_deployment(23);
            let chaos = LinkChaos::new(
                LinkProfile::new(0.1, 0.02, SimDuration::from_units(0.5)).unwrap(),
                t(120.0),
            );
            d.apply_link_chaos(&chaos).unwrap();
            let names = d.user_names();
            for i in 0..4 {
                d.send_at(t(1.0 + i as f64), &names[i], &names[i + 6]);
                d.check_at(t(150.0 + i as f64), &names[i + 6]);
            }
            assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
            let st = d.stats.borrow();
            (
                st.retrieved,
                st.retransmits,
                d.sim.counters().dropped_link.get(),
                d.sim.now(),
            )
        }
        assert_eq!(run(), run());
    }

    /// One clean send + check produces a conserved span pair: the message
    /// span terminates in Retrieved, the check span in CheckDone, and the
    /// per-actor metrics agree with the global stats ledger.
    #[test]
    fn spans_conserve_on_clean_cycle() {
        let mut d = small_deployment(31);
        d.enable_spans();
        let names = d.user_names();
        let (alice, bob) = (names[0].clone(), names[5].clone());
        d.send_at(t(1.0), &alice, &bob);
        d.check_at(t(50.0), &bob);
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));

        let spans = d.spans.borrow();
        let report = lems_sim::span::audit_spans(&spans, true);
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert_eq!(report.opened, 2, "one message span + one check span");
        assert_eq!(report.retrieved, 1);
        assert_eq!(report.checks_done, 1);
        assert_eq!(report.bounced, 0);
        assert_eq!(report.retransmits, 0);

        let merged = d.merged_metrics();
        let st = d.stats.borrow();
        assert_eq!(merged.counter("submitted"), st.submitted);
        assert_eq!(merged.counter("deposited"), st.deposited);
        assert_eq!(merged.counter("retrieved"), st.retrieved);
        assert_eq!(merged.counter("retransmits"), st.retransmits);
        let lat = merged.histogram("delivery_latency").unwrap();
        assert_eq!(lat.count(), 1);
        assert!((lat.mean() - st.delivery_latency.mean()).abs() < 1e-9);
    }

    /// Session-layer retry accounting under a deterministic link-fault
    /// plan: a dead host->primary link forces exactly
    /// `max_attempts - 1` retransmissions before the submit fails over,
    /// and the span log's retry annotations match the stats ledger
    /// event-for-event.
    #[test]
    fn span_retries_match_link_fault_schedule() {
        let mut d = small_deployment(32);
        d.enable_spans();
        let names = d.user_names();
        let (alice, bob) = (names[0].clone(), names[1].clone());
        let primary = d.directory.by_name(&alice).unwrap().authorities.primary();
        let host_node = d.users[&alice].0;
        let host = d.host_actor(host_node).unwrap();
        let server = d.server_actor(primary).unwrap();

        // Every Submit to alice's primary vanishes until t=100; the
        // session layer must burn its whole per-server retry budget
        // before failing over to the secondary.
        let mut plan = LinkFaultPlan::new().with_stochastic_horizon(t(100.0));
        plan.set_link_profile(
            host,
            server,
            LinkProfile::new(1.0, 0.0, SimDuration::ZERO).unwrap(),
        );
        d.sim.set_link_faults(plan);

        d.send_at(t(1.0), &alice, &bob);
        d.check_at(t(200.0), &bob); // after the horizon: clean retrieval
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));

        let budget = RetryPolicy::default_session().max_attempts;
        let st = d.stats.borrow();
        assert_eq!(st.retrieved, 1);
        assert_eq!(
            st.retransmits,
            u64::from(budget - 1),
            "retry budget spent on the dead primary, none elsewhere"
        );

        let spans = d.spans.borrow();
        let report = lems_sim::span::audit_spans(&spans, true);
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert_eq!(
            report.retransmits, st.retransmits,
            "span retry annotations must match the stats ledger"
        );
        // The drop schedule is visible probe-by-probe: attempts 0..budget
        // to the dead primary, then a first-try probe to the secondary.
        let probes: Vec<(u64, u64)> = spans
            .events()
            .iter()
            .filter(|e| e.stage == SpanStage::Probe && e.span == SpanId(0))
            .map(|e| (e.peer, e.detail))
            .collect();
        let expected_primary = site(primary);
        assert!(probes.len() as u32 > budget);
        for (k, &(peer, attempt)) in probes.iter().take(budget as usize).enumerate() {
            assert_eq!(peer, expected_primary);
            assert_eq!(attempt, k as u64);
        }
        // The failover submit picks a different server, and after it every
        // hop (secondary submit, server-to-server forward) goes through on
        // its first try — only the host-to-primary link is faulted.
        assert_ne!(probes[budget as usize].0, expected_primary);
        for &(_, attempt) in &probes[budget as usize..] {
            assert_eq!(attempt, 0);
        }
    }

    /// Enabling spans must not change what the simulation does — same
    /// seed, same outcome, span recording or not.
    #[test]
    fn span_recording_does_not_perturb_the_run() {
        fn run(enable: bool) -> (u64, u64, u64, SimTime) {
            let mut d = small_deployment(33);
            if enable {
                d.enable_spans();
            }
            let chaos = LinkChaos::new(
                LinkProfile::new(0.08, 0.02, SimDuration::from_units(0.5)).unwrap(),
                t(120.0),
            );
            d.apply_link_chaos(&chaos).unwrap();
            let names = d.user_names();
            for i in 0..4 {
                d.send_at(t(1.0 + i as f64), &names[i], &names[i + 6]);
                d.check_at(t(150.0 + i as f64), &names[i + 6]);
            }
            assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
            let st = d.stats.borrow();
            (
                st.retrieved,
                st.retransmits,
                d.sim.counters().dropped_link.get(),
                d.sim.now(),
            )
        }
        assert_eq!(run(false), run(true));
    }

    /// Two users of one host, and that host's actor id.
    fn housemates(d: &Deployment) -> (MailName, MailName, ActorId) {
        let names = d.user_names();
        let (a, b) = (names[0].clone(), names[1].clone());
        assert_eq!(d.users[&a].0, d.users[&b].0, "generated names sort by host");
        let host = d.host_actor(d.users[&a].0).unwrap();
        (a, b, host)
    }

    #[test]
    fn session_token_is_checked_against_the_name() {
        let mut d = small_deployment(41);
        let (alice, bob, host) = housemates(&d);
        let h: &mut HostActor = d.sim.actor_mut(host).unwrap();
        let (a, b) = (h.slot_of[&alice], h.slot_of[&bob]);
        assert_ne!(a, b);

        assert_eq!(h.slot_for(b as u32, &bob), Some(b), "the honest token");
        assert_eq!(h.slot_for(a as u32, &bob), Some(b), "another user's slot");
        assert_eq!(h.slot_for(u32::MAX, &bob), Some(b), "out of range");
        let stranger: MailName = "r0.H1.nobody".parse().unwrap();
        assert_eq!(
            h.slot_for(b as u32, &stranger),
            None,
            "name is the authority"
        );

        // Bob migrates away: his slot stays (timers may still name it) but
        // no token or name reaches it.
        let ui = h.release_user(&bob).unwrap();
        assert_eq!(h.slot_for(b as u32, &bob), None);
        // ... and back: a new slot, which the stale token resolves to.
        h.adopt_user(bob.clone(), ui);
        let b2 = h.slot_of[&bob];
        assert_ne!(b2, b);
        assert_eq!(h.slot_for(b as u32, &bob), Some(b2));
    }

    /// A reply carrying another user's session token is credited to the
    /// user it names, never to the slot it points at.
    #[test]
    fn forged_session_cannot_credit_another_user() {
        let mut d = small_deployment(42);
        let (alice, bob, host) = housemates(&d);
        d.check_at(t(1.0), &alice);
        d.check_at(t(1.0), &bob);
        // Both `DoCheck`s: each user now has a first probe in flight.
        assert!(d.sim.step() && d.sim.step());
        let probing = |d: &Deployment, who: &MailName| {
            let h: &HostActor = d.sim.actor(host).unwrap();
            let ui = h.users[h.slot_of[who]].ui.as_ref().unwrap();
            ui.retrieval
                .as_ref()
                .and_then(|s| s.current)
                .map(|c| c.peer)
        };
        let (alice_first, bob_first) = (probing(&d, &alice), probing(&d, &bob));
        assert!(alice_first.is_some() && bob_first.is_some());

        let alice_slot = d.sim.actor::<HostActor>(host).unwrap().slot_of[&alice];
        d.sim.inject(
            host,
            MailMsg::RetrieveReply {
                user: bob.clone(),
                messages: Vec::new(),
                last_start_time: SimTime::ZERO,
                session: alice_slot as u32,
                owner_slot: NO_OWNER_SLOT,
            },
            SimDuration::ZERO,
        );
        assert!(d.sim.step());
        assert_eq!(probing(&d, &alice), alice_first, "alice's probe untouched");
        assert_ne!(probing(&d, &bob), bob_first, "bob's walk moved on");

        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
        assert_eq!(d.stats.borrow().retrieval_polls.count(), 2);
    }

    /// Duplicated and jittered replies reach the host out of step with its
    /// sessions. Every token-resolved reply is checked against the name map
    /// in debug builds (`slot_for`), so a clean run here is a run whose
    /// ledgers equal one that ignored the token.
    #[test]
    fn duplicated_replies_resolve_as_by_name() {
        let mut d = small_deployment(43);
        let names = d.user_names();
        let chaos = LinkChaos::new(
            LinkProfile::new(0.0, 0.5, SimDuration::from_units(3.0)).unwrap(),
            t(400.0),
        );
        d.apply_link_chaos(&chaos).unwrap();
        for (i, to) in names.iter().enumerate() {
            d.send_at(t(1.0 + i as f64), &names[(i + 5) % names.len()], to);
            d.check_at(t(60.0 + i as f64), to);
            d.check_at(t(61.0 + i as f64), to);
        }
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
        assert!(d.sim.counters().duplicated.get() > 0);
        let st = d.stats.borrow();
        assert_eq!(st.submitted, names.len() as u64);
        assert_eq!(st.ledger_retrieved, st.ledger_submitted);
        assert_eq!(st.retrieved, st.submitted, "duplicates counted once");
        assert_eq!(st.retrieval_polls.count(), 2 * names.len() as u64);
        drop(st);
        assert_eq!(d.mail_in_storage(), 0);
    }

    /// What `host` has learned of where `server` keeps `user`.
    fn learned(d: &Deployment, host: ActorId, user: &MailName, server: NodeId) -> u32 {
        let h: &HostActor = d.sim.actor(host).unwrap();
        let ui = h.users[h.slot_of[user]].ui.as_ref().unwrap();
        owner_slot_at(&ui.authorities, &ui.owner_slots, server)
    }

    /// Where `server`'s store keeps `user`, asked the hint-less way. Only
    /// for a user with nothing new to drain: then asking changes nothing.
    fn kept_at(d: &mut Deployment, server: NodeId, user: &MailName) -> u32 {
        let actor = d.server_actor(server).unwrap();
        let s: &mut ServerActor = d.sim.actor_mut(actor).unwrap();
        let (mail, slot) = s.store.drain_reserve_at(user, NO_OWNER_SLOT);
        assert!(mail.is_empty(), "only ask for an idle user");
        slot
    }

    /// The server-side twin of `forged_session_cannot_credit_another_user`:
    /// a `Retrieve` for bob carrying the slot of alice's box drains bob's.
    #[test]
    fn forged_owner_slot_cannot_drain_another_users_box() {
        let mut d = small_deployment(44);
        let (alice, bob, host) = housemates(&d);
        let names = d.user_names();
        let primary = d.directory.by_name(&bob).unwrap().authorities.primary();
        assert_eq!(
            d.directory.by_name(&alice).unwrap().authorities.primary(),
            primary
        );
        d.send_at(t(1.0), &names[5], &alice);
        d.send_at(t(2.0), &names[5], &bob);
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
        let server = d.server_actor(primary).unwrap();
        let held = |d: &Deployment, who: &MailName| {
            let s: &ServerActor = d.sim.actor(server).unwrap();
            (
                s.store.mailboxes()[who].len(),
                s.store.pending_drain().get(who).map(Vec::len),
            )
        };
        assert_eq!((held(&d, &alice), held(&d, &bob)), ((1, None), (1, None)));

        // Alice's box was created first: slot 0 of this store.
        let bob_session = d.sim.actor::<HostActor>(host).unwrap().slot_of[&bob] as u32;
        d.sim.inject(
            server,
            MailMsg::Retrieve {
                user: bob.clone(),
                reply_to: d.users[&bob].0,
                session: bob_session,
                owner_slot: 0,
            },
            SimDuration::ZERO,
        );
        assert!(d.sim.step());
        assert_eq!(held(&d, &alice), (1, None), "alice's box untouched");
        assert_eq!(held(&d, &bob), (0, Some(1)), "bob's mail reserved for bob");

        // The reply re-teaches the host where bob really is.
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
        assert_eq!(learned(&d, host, &bob, primary), 1);
        assert_eq!(learned(&d, host, &alice, primary), NO_OWNER_SLOT);
        let st = d.stats.borrow();
        assert_eq!(st.retrieved, 1);
        assert!(
            st.ledger_retrieved.iter().all(|id| id.0 == 1),
            "bob's message"
        );
    }

    /// A slot the store never had, and one a crash took away (a volatile
    /// store forgets every owner), both resolve by name; each reply teaches
    /// the slot that is right now.
    #[test]
    fn out_of_range_and_vacated_owner_slots_resolve_by_name() {
        let f = fig1();
        let mut d = Deployment::build(
            &f.topology,
            &[2, 2, 2, 2, 2, 2],
            &DeploymentConfig {
                seed: 45,
                durability: DurabilityConfig::Volatile,
                ..DeploymentConfig::default()
            },
        );
        let (alice, bob, host) = housemates(&d);
        let primary = d.directory.by_name(&bob).unwrap().authorities.primary();
        let mut plan = ServerFailurePlan::new();
        plan.add(primary, t(100.0), t(110.0));
        d.apply_server_failures(&plan);

        // Out of range: the store is empty when bob first asks.
        let server = d.server_actor(primary).unwrap();
        let bob_session = d.sim.actor::<HostActor>(host).unwrap().slot_of[&bob] as u32;
        d.sim.inject(
            server,
            MailMsg::Retrieve {
                user: bob.clone(),
                reply_to: d.users[&bob].0,
                session: bob_session,
                owner_slot: 9_999,
            },
            SimDuration::ZERO,
        );
        d.check_at(t(10.0), &alice);
        d.sim.run_until(t(90.0));
        assert_eq!(learned(&d, host, &bob, primary), 0);
        assert_eq!(learned(&d, host, &alice, primary), 1);

        // The crash empties the store; alice comes back first and takes
        // the slot bob's hint still names.
        d.check_at(t(120.0), &alice);
        d.check_at(t(130.0), &bob);
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
        assert_eq!(learned(&d, host, &alice, primary), 0);
        assert_eq!(learned(&d, host, &bob, primary), 1);
        assert_eq!(kept_at(&mut d, primary, &bob), 1);
        assert_eq!(d.stats.borrow().retrieval_polls.count(), 3);
    }

    /// The twin of `duplicated_replies_resolve_as_by_name`: replies that
    /// arrive twice, late and out of order all carry the slot the store
    /// answered with, so whichever lands last the host holds the right one.
    #[test]
    fn duplicated_replies_teach_the_same_owner_slot() {
        let mut d = small_deployment(43);
        let names = d.user_names();
        let chaos = LinkChaos::new(
            LinkProfile::new(0.0, 0.5, SimDuration::from_units(3.0)).unwrap(),
            t(400.0),
        );
        d.apply_link_chaos(&chaos).unwrap();
        for (i, to) in names.iter().enumerate() {
            d.send_at(t(1.0 + i as f64), &names[(i + 5) % names.len()], to);
            d.check_at(t(60.0 + i as f64), to);
            d.check_at(t(61.0 + i as f64), to);
        }
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
        assert!(d.sim.counters().duplicated.get() > 0);
        assert_eq!(d.mail_in_storage(), 0);
        for user in &names {
            let host = d.host_actor(d.users[user].0).unwrap();
            let authorities = d.directory.by_name(user).unwrap().authorities.clone();
            for &server in authorities.servers() {
                let taught = learned(&d, host, user, server);
                assert_ne!(taught, NO_OWNER_SLOT, "the first check walks every server");
                assert_eq!(taught, kept_at(&mut d, server, user), "{user} at {server}");
            }
        }
    }

    /// A WAL store that crashes comes back with its owners where the log
    /// puts them — after a compaction, in name order. The first `Retrieve`
    /// with the pre-crash hint (now alice's slot) still returns bob's mail,
    /// and teaches the slot the next one finds him in.
    #[test]
    fn stale_owner_slot_after_wal_recovery_is_retaught() {
        let f = fig1();
        let mut d = Deployment::build(
            &f.topology,
            &[2, 2, 2, 2, 2, 2],
            &DeploymentConfig {
                seed: 46,
                // Every record rotates and compacts: recovery replays a
                // snapshot, which lists owners by name.
                durability: DurabilityConfig::Wal(WalConfig {
                    segment_bytes: 64,
                    max_segments: 1,
                    ..WalConfig::default()
                }),
                ..DeploymentConfig::default()
            },
        );
        let (alice, bob, host) = housemates(&d);
        let names = d.user_names();
        let primary = d.directory.by_name(&bob).unwrap().authorities.primary();
        let mut plan = ServerFailurePlan::new();
        plan.add(primary, t(150.0), t(160.0));
        d.apply_server_failures(&plan);

        // Bob's box is created before alice's.
        d.send_at(t(1.0), &names[5], &bob);
        d.send_at(t(10.0), &names[5], &alice);
        d.check_at(t(50.0), &bob);
        d.check_at(t(51.0), &alice);
        d.send_at(t(100.0), &names[5], &bob);
        d.sim.run_until(t(170.0));
        assert_eq!(d.recoveries.borrow().len(), 1);
        assert_eq!(learned(&d, host, &bob, primary), 0, "the pre-crash hint");
        assert_eq!(learned(&d, host, &alice, primary), 1);
        assert_eq!(kept_at(&mut d, primary, &alice), 0, "alice sorts first");

        d.check_at(t(200.0), &bob);
        d.sim.run_until(t(290.0));
        assert_eq!(
            d.stats.borrow().retrieved,
            3,
            "bob's second message arrived"
        );
        assert_eq!(learned(&d, host, &bob, primary), 1, "re-taught");

        // The next one is found where the hint says.
        d.send_at(t(300.0), &names[5], &bob);
        d.check_at(t(350.0), &bob);
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
        assert_eq!(learned(&d, host, &bob, primary), 1);
        assert_eq!(kept_at(&mut d, primary, &bob), 1);
        let st = d.stats.borrow();
        assert_eq!((st.retrieved, st.bounced), (4, 0));
        assert_eq!(st.ledger_retrieved, st.ledger_submitted);
        drop(st);
        assert_eq!(d.mail_in_storage(), 0);
    }

    /// What a run leaves behind that an injected `slot` must not be able
    /// to move: the kernel trace, the span log and the mail ledgers.
    type Outcome = (
        u64,
        Vec<lems_sim::span::SpanEvent>,
        BTreeSet<MessageId>,
        BTreeSet<MessageId>,
        BTreeMap<MessageId, BounceReason>,
        u64,
    );

    /// One workload on `small_deployment(47)` in which every `DoSend` and
    /// `DoCheck` carries `hint(slot)` in place of the slot the deployment
    /// holds for the user: everyone sends and checks, one user migrates,
    /// and their old name — whose true slot is by then a vacated one — is
    /// sent from and checked at the old host.
    fn run_injected_with(hint: impl Fn(u32) -> u32) -> Outcome {
        let mut d = small_deployment(47);
        d.sim.enable_trace();
        d.enable_spans();
        let names = d.user_names();
        let inject = |d: &mut Deployment, at: f64, host: NodeId, msg: MailMsg| {
            let delay = t(at).duration_since(d.sim.now());
            d.sim.inject(d.host_actors[&host], msg, delay);
        };
        let send = |d: &mut Deployment, at: f64, from: &MailName, to: &MailName| {
            let (host, slot) = d.users[from];
            let (from, to, slot) = (from.clone(), to.clone(), hint(slot));
            inject(d, at, host, MailMsg::DoSend { from, to, slot });
        };
        let check = |d: &mut Deployment, at: f64, user: &MailName| {
            let (host, slot) = d.users[user];
            let (user, slot) = (user.clone(), hint(slot));
            inject(d, at, host, MailMsg::DoCheck { user, slot });
        };

        for (i, to) in names.iter().enumerate() {
            send(&mut d, 1.0 + i as f64, &names[(i + 5) % names.len()], to);
            check(&mut d, 60.0 + i as f64, to);
        }
        d.sim.run_until(t(100.0));

        let bob_old = names[4].clone();
        let (old_host, old_slot) = d.users[&bob_old];
        let new_host = *d.host_actors.keys().find(|&&h| h != old_host).unwrap();
        let bob_new = d
            .migrate_user_live(
                &bob_old,
                new_host,
                Some("bob"),
                SimDuration::from_units(500.0),
            )
            .unwrap();
        assert_eq!(d.users[&bob_new], (new_host, 2), "a third slot there");
        send(&mut d, 110.0, &names[0], &bob_old);
        send(&mut d, 111.0, &bob_new, &names[0]);
        check(&mut d, 170.0, &bob_new);
        check(&mut d, 171.0, &names[0]);
        // The old name at the old host: bounced at source, never checked.
        let (from, to, slot) = (bob_old.clone(), names[0].clone(), hint(old_slot));
        inject(&mut d, 112.0, old_host, MailMsg::DoSend { from, to, slot });
        let (user, slot) = (bob_old.clone(), hint(old_slot));
        inject(&mut d, 172.0, old_host, MailMsg::DoCheck { user, slot });
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));

        let st = d.stats.borrow();
        assert_eq!((st.submitted, st.retrieved, st.bounced), (14, 14, 1));
        let spans = d.spans.borrow().events().to_vec();
        (
            d.sim.trace().digest(),
            spans,
            st.ledger_submitted.clone(),
            st.ledger_retrieved.clone(),
            st.ledger_bounced.clone(),
            st.retrieval_polls.count(),
        )
    }

    /// The injected slot is a hint and only a hint: none at all, another
    /// user's, one out of range and (inside each run) one vacated by
    /// migration all leave exactly the run the true slots leave.
    #[test]
    fn injected_slot_hints_resolve_as_by_name() {
        let hinted = run_injected_with(|slot| slot);
        assert!(hinted.1.len() > 100, "spans were recorded");
        let by_name = run_injected_with(|_| MailMsg::NO_SLOT_HINT);
        assert!(hinted == by_name, "no hint at all");
        let forged = run_injected_with(|slot| slot ^ 1);
        assert!(hinted == forged, "a housemate's slot");
        let out_of_range = run_injected_with(|slot| slot + 1_000);
        assert!(hinted == out_of_range, "a slot the host never had");
    }

    /// `send_at`/`check_at` are that hinted run: what the deployment hands
    /// the host is the slot the host keeps the user in, before and after a
    /// migration.
    #[test]
    fn deployment_hands_the_host_the_users_slot() {
        let mut d = small_deployment(47);
        let names = d.user_names();
        let new_host = *d.host_actors.keys().next_back().unwrap();
        let moved = d
            .migrate_user_live(
                &names[0],
                new_host,
                Some("moved"),
                SimDuration::from_units(50.0),
            )
            .unwrap();
        for name in d.user_names() {
            let (host, slot) = d.users[&name];
            let h: &HostActor = d.sim.actor(d.host_actors[&host]).unwrap();
            assert_eq!(h.slot_of[&name], slot as usize, "{name}");
            assert!(h.users[slot as usize].name == name);
        }
        assert_eq!(d.users[&moved], (new_host, 2));
    }

    /// A name the directory knows but no host serves can still be
    /// migrated; it stays injectable, hint-less, and its mail bounces at
    /// source.
    #[test]
    fn migrated_name_without_interface_state_bounces_at_source() {
        let mut d = small_deployment(48);
        let names = d.user_names();
        let (home, _) = d.users[&names[0]];
        let new_host = *d.host_actors.keys().find(|&&h| h != home).unwrap();
        let ghost = MailName::new(names[0].region(), names[0].host(), "ghost").unwrap();
        let authorities = d.directory.by_name(&names[0]).unwrap().authorities.clone();
        d.directory
            .register(ghost.clone(), home, authorities)
            .unwrap();
        let moved = d
            .migrate_user_live(&ghost, new_host, None, SimDuration::from_units(50.0))
            .unwrap();
        assert_eq!(d.users[&moved], (new_host, MailMsg::NO_SLOT_HINT));

        d.send_at(t(1.0), &moved, &names[1]);
        d.check_at(t(2.0), &moved);
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
        let st = d.stats.borrow();
        assert_eq!((st.submitted, st.bounced), (0, 1));
        assert_eq!(
            st.ledger_bounced.values().next(),
            Some(&BounceReason::UnknownRecipient)
        );
        assert_eq!(st.retrieval_polls.count(), 0, "nobody to check for");
    }
}
