//! The simulated mail system: host (user-interface) and server actors
//! over the `lems-sim` engine — the one mail path of Systems 1 and 2.
//!
//! This module wires the pure algorithms — server assignment
//! ([`crate::assign`]), syntax-directed resolution (`crate::resolve`),
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
use std::sync::Arc;

use lems_core::directory::Directory;
use lems_core::mailbox::Mailbox;
use lems_core::message::{BounceReason, MessageId, MessageIdGen};
use lems_core::name::MailName;
use lems_core::store::{MailStore, StoreMetrics, StoreRecovery, NO_OWNER_SLOT};
use lems_core::user::AuthorityList;
use lems_net::error::NetError;
use lems_net::graph::NodeId;
use lems_net::topology::{RegionId, Topology};
use lems_net::transport::Transport;
use lems_sim::actor::{ActorId, ActorSim, Ctx, TimerId};
use lems_sim::failure::FailureError;
use lems_sim::linkfault::{LinkFaultPlan, LinkProfile};
use lems_sim::metrics::MetricsRegistry;
use lems_sim::queue::EventSeq;
use lems_sim::rng::SimRng;
use lems_sim::span::{BounceCode, SpanId, SpanLog, SpanStage, NO_NODE, NO_SPAN};
use lems_sim::time::{SimDuration, SimTime, TICKS_PER_UNIT};
use lems_store::{DurabilityConfig, Store};

use crate::assign::{solve, Assignment, AssignmentProblem, BalanceOptions};
use crate::cost::{CostModel, ServerSpec};
use crate::resolve::SyntaxResolver;

mod host;
mod msg;
mod server;

pub use host::HostActor;
use host::{Sessions, UiUser};
pub use msg::{DeliveryStats, MailMsg};
pub use server::ServerActor;

/// Maximum server-to-server forwarding hops before a message bounces
/// (loop protection).
pub(crate) const MAX_HOPS: u32 = 16;

/// Extra slack added to every round-trip timeout, in time units.
pub const TIMEOUT_SLACK: f64 = 2.0;

/// Probes sent to one peer in an exchange — the first try and its
/// retransmissions — before the exchange goes on to the next peer.
pub(crate) const MAX_ATTEMPTS: u32 = 3;

/// What a peer's timeout is multiplied by per retransmission.
pub(crate) const BACKOFF_FACTOR: f64 = 2.0;

/// The bound on backoff growth, before jitter. A longer first timeout is
/// kept: a timeout shorter than the round trip would always fire.
pub const MAX_TIMEOUT: SimDuration = SimDuration::from_ticks(60 * TICKS_PER_UNIT);

/// Uniform jitter as a fraction of the timeout (up to +10 %), so that
/// retransmissions from different senders do not synchronise.
pub(crate) const JITTER_FRAC: f64 = 0.1;

/// The timeout armed for 0-based `attempt` of a probe whose first attempt
/// waits `base`: `max(base, min(base * BACKOFF_FACTOR^attempt,
/// MAX_TIMEOUT))` plus a jitter of up to [`JITTER_FRAC`] of that, one
/// `rng.unit()` draw per call.
fn timeout(base: SimDuration, attempt: u32, rng: &mut SimRng) -> SimDuration {
    let factor = BACKOFF_FACTOR.powi(attempt.min(63) as i32);
    let base = base.as_units();
    let backed = (base * factor).min(MAX_TIMEOUT.as_units()).max(base);
    let jitter = backed * JITTER_FRAC * rng.unit();
    SimDuration::from_units(backed + jitter)
}

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
    /// A server's processing time: part of every round trip an exchange
    /// waits for.
    server_proc: f64,
    /// What this actor adds to everything it sends: a server's processing
    /// time, nothing at a host.
    send_delay: SimDuration,
    /// When each open exchange times out, and the one kernel timer that
    /// wakes this actor for the earliest.
    deadlines: Deadlines,
    stats: SharedStats,
    spans: SharedSpans,
    /// This actor's telemetry; collected by [`Deployment::metrics_snapshot`].
    /// A server's `storage` gauge tracks its live mailbox+drain occupancy
    /// (§4.4 storage space).
    metrics: MetricsRegistry,
}

/// One request/response exchange of §3.1.2 in flight — a submit, a
/// forward or a GetMail probe: the peer asked, how many probes it has been
/// sent, and where the latest one's deadline is kept.
#[derive(Clone, Copy, Debug)]
struct Exchange {
    peer: NodeId,
    attempts: u32,
    deadline: DeadlineRef,
}

/// What the deadline of an exchange's latest probe means when it passes.
enum Timeout {
    /// The peer has not answered: send it this 0-based attempt.
    Retransmit(u32),
    /// The peer spent its retry budget: go on to the next one.
    Exhausted,
}

impl Exchange {
    fn timed_out(&self) -> Timeout {
        if self.attempts >= MAX_ATTEMPTS {
            Timeout::Exhausted
        } else {
            Timeout::Retransmit(self.attempts)
        }
    }
}

/// An open deadline in its endpoint's [`Deadlines`]: the row, and the
/// kernel sequence number reserved for the timeout. No two deadlines
/// share a number, so a reference to a closed deadline finds its row free
/// or reused under another number.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct DeadlineRef {
    row: u32,
    seq: EventSeq,
}

/// One row of [`Deadlines`]: when an exchange times out, the sequence
/// number its timeout fires under, and the tag that names the exchange to
/// its actor — or, in a free row, the next free row.
#[derive(Clone, Copy, Debug)]
struct Deadline {
    at: SimTime,
    seq: EventSeq,
    tag: u64,
}

/// The end of [`Deadlines`]' free list.
const NO_ROW: u32 = u32::MAX;

impl Deadline {
    /// A free row, linked to free row `next`: its key is above every open
    /// row's.
    fn free(next: u32) -> Self {
        Deadline {
            at: SimTime::MAX,
            seq: FREE_SEQ,
            tag: u64::from(next),
        }
    }

    fn key(&self) -> (SimTime, EventSeq) {
        (self.at, self.seq)
    }
}

/// The sequence number of a free row, which no reservation returns.
const FREE_SEQ: EventSeq = EventSeq(u64::MAX);

/// Rows a table is wired with: a host opens one per user that checks or
/// sends, and 64 cover a host of 50 users whose checks all overlap, so
/// that few tables grow during a run.
const WIRED_ROWS: usize = 64;

/// The actor's one kernel timer: the row and key it was armed for, and
/// its id while it is pending (`None` from the moment it fires until
/// [`Deadlines::rearm`]).
#[derive(Clone, Copy, Debug)]
struct Wake {
    row: u32,
    key: (SimTime, EventSeq),
    timer: Option<TimerId>,
}

/// The deadlines of an actor's open exchanges, woken for by one kernel
/// timer (RFC 6298 §5 keeps one retransmission timer per connection).
///
/// Opening a deadline reserves the kernel sequence number a timer armed
/// there and then would take, and the wake is armed under the reserved
/// number of the earliest open deadline: every timeout fires at the very
/// `(time, seq)` place a timer of its own would have had. Closing one is a
/// row write that never reaches the kernel; a wake whose deadline was
/// closed fires idle and re-arms for the earliest still open.
///
/// Invariant between handlers: the wake is pending at a key no later than
/// any open deadline's, and no wake is pending when none is open.
#[derive(Debug)]
struct Deadlines {
    /// Open rows and free ones, the free ones chained through their tags.
    rows: Vec<Deadline>,
    /// The first free row, or [`NO_ROW`].
    free: u32,
    wake: Option<Wake>,
}

impl Deadlines {
    fn new() -> Self {
        Deadlines {
            rows: Vec::with_capacity(WIRED_ROWS),
            free: NO_ROW,
            wake: None,
        }
    }

    /// Opens a deadline at `at` for the exchange `tag` names.
    fn open(&mut self, ctx: &mut Ctx<'_, MailMsg>, at: SimTime, tag: u64) -> DeadlineRef {
        let seq = ctx.reserve_seq();
        let deadline = Deadline { at, seq, tag };
        let row = match self.rows.get_mut(self.free as usize) {
            Some(free) => {
                let row = self.free;
                self.free = free.tag as u32;
                *free = deadline;
                row
            }
            None => {
                self.rows.push(deadline);
                (self.rows.len() - 1) as u32
            }
        };
        // A pending wake that comes later gives way. (While a fired wake
        // is being handled its key is the instant's, before any new one.)
        match self.wake {
            Some(wake) if wake.key <= deadline.key() => {}
            wake => {
                if let Some(superseded) = wake.and_then(|w| w.timer) {
                    ctx.remove_timer(superseded);
                }
                self.arm(ctx, row);
            }
        }
        DeadlineRef { row, seq }
    }

    /// Closes `deadline` if it is still open.
    fn close(&mut self, deadline: DeadlineRef) {
        if let Some(open) = self.rows.get_mut(deadline.row as usize) {
            if open.seq == deadline.seq {
                *open = Deadline::free(self.free);
                self.free = deadline.row;
            }
        }
    }

    /// The wake `id` fired: closes the deadline it was armed for and
    /// returns that deadline's tag, or `None` when the deadline had been
    /// closed already or `id` is not the pending wake (one armed before a
    /// crash). [`Deadlines::rearm`] must follow.
    fn fire(&mut self, id: TimerId) -> Option<u64> {
        let wake = self.wake.as_mut()?;
        if wake.timer != Some(id) {
            return None;
        }
        wake.timer = None;
        let due = DeadlineRef {
            row: wake.row,
            seq: wake.key.1,
        };
        let tag = self.rows[due.row as usize].tag;
        let open = self.rows[due.row as usize].seq == due.seq;
        self.close(due);
        open.then_some(tag)
    }

    /// After a wake was handled: arms the next one at the earliest open
    /// deadline, if any. A no-op while a wake is pending.
    fn rearm(&mut self, ctx: &mut Ctx<'_, MailMsg>) {
        if !matches!(self.wake, Some(Wake { timer: None, .. })) {
            return;
        }
        self.wake = None;
        let earliest = self
            .rows
            .iter()
            .enumerate()
            .min_by_key(|(_, d)| d.key())
            .filter(|(_, d)| d.seq != FREE_SEQ);
        if let Some((row, _)) = earliest {
            self.arm(ctx, row as u32);
        }
    }

    fn arm(&mut self, ctx: &mut Ctx<'_, MailMsg>, row: u32) {
        let d = self.rows[row as usize];
        let timer = ctx.set_timer_at(d.at, d.seq);
        self.wake = Some(Wake {
            row,
            key: d.key(),
            timer: Some(timer),
        });
    }

    /// After a crash the table was kept through: the kernel suppressed
    /// the timeouts that came due while the actor was down, the wake's
    /// among them if it did. Forgets those deadlines (an instant's worth
    /// early: one due at the recovery's own tick may still have been
    /// pending) and re-arms for the earliest left.
    fn recover(&mut self, ctx: &mut Ctx<'_, MailMsg>) {
        let now = ctx.now();
        for row in 0..self.rows.len() {
            let d = self.rows[row];
            if d.seq != FREE_SEQ && d.at <= now {
                self.close(DeadlineRef {
                    row: row as u32,
                    seq: d.seq,
                });
            }
        }
        if let Some(wake) = self.wake.as_mut().filter(|w| w.key.0 <= now) {
            if let Some(pending) = wake.timer.take() {
                ctx.remove_timer(pending);
            }
            self.rearm(ctx);
        }
    }

    /// Forgets every deadline and the wake: a crash, whose pending wake
    /// the kernel suppresses while the actor is down and this table
    /// ignores afterwards.
    fn clear(&mut self) {
        self.rows.clear();
        self.free = NO_ROW;
        self.wake = None;
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
            server_proc: cfg.server_spec.proc_time,
            send_delay,
            deadlines: Deadlines::new(),
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

    /// Sends 0-based `attempt` of `request` to `peer` and opens its
    /// deadline under `tag`: the round trip plus the server's processing
    /// and [`TIMEOUT_SLACK`], backed off by [`timeout`]. Counts a
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
        let at = ctx.now() + timeout(base, attempt, ctx.rng());
        self.send(ctx, peer, request);
        Exchange {
            peer,
            attempts: attempt + 1,
            deadline: self.deadlines.open(ctx, at, tag),
        }
    }

    /// The exchange ended before its deadline.
    fn close(&mut self, exchange: &Exchange) {
        self.deadlines.close(exchange.deadline);
    }

    /// The peer of `exchange` took custody of message `id`.
    fn accepted(&mut self, ctx: &Ctx<'_, MailMsg>, id: MessageId, exchange: &Exchange) {
        self.close(exchange);
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
    /// By user id: the home host's actor and the slot that host keeps the
    /// user in ([`MailMsg::NO_SLOT_HINT`] where it keeps none), which
    /// [`Deployment::send_at`] and [`Deployment::check_at`] hand the host
    /// so it need not look the name up again. `None` for an id no host
    /// was wired or migrated with.
    hosts: Vec<Option<(ActorId, u32)>>,
    /// Host node -> actor id.
    host_actors: BTreeMap<NodeId, ActorId>,
    /// Host node -> region (for live migration naming).
    host_region: BTreeMap<NodeId, RegionId>,
    /// Host node -> display token.
    host_names: BTreeMap<NodeId, String>,
    /// Server node -> actor id.
    server_actors: BTreeMap<NodeId, ActorId>,
    /// The assignment problem (for inspecting costs).
    pub problem: AssignmentProblem,
    /// The §3.1.4 redirect table shared with every server actor.
    pub(crate) redirects: Rc<RefCell<crate::migrate::RedirectTable>>,
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
        use std::fmt::Write;
        // Both generated tokens, back to back in one buffer.
        let mut tokens = String::with_capacity(24);
        write!(tokens, "r{}", topology.region(host).0).expect("a String takes any write");
        let region_len = tokens.len();
        write!(tokens, "u{k}").expect("a String takes any write");
        let (region, user) = tokens.split_at(region_len);
        MailName::new(region, topology.name(host), user).expect("generated names are valid")
    }

    /// Wires `placement` into running actors, users named by
    /// [`Deployment::user_name`]. Of `cfg` only the seed, the durability
    /// backend and the servers' processing time are read here.
    ///
    /// # Panics
    ///
    /// Panics if `placement`'s tables are not the size of its problem, or
    /// the problem's hosts and servers are not `topology`'s.
    #[expect(
        clippy::expect_used,
        reason = "generated names are unique, and every server's region is mapped"
    )]
    pub fn wire(topology: &Topology, placement: Placement, cfg: &DeploymentConfig) -> Self {
        let Placement {
            problem,
            assignment: _,
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
        for &s in &server_nodes {
            directory.add_server(topology.region(s), s);
        }

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
        let users_by_host: Vec<Vec<(MailName, AuthorityList)>> = host_nodes
            .iter()
            .zip(authorities)
            .map(|(&host, lists)| {
                let named = lists.into_iter().enumerate();
                named
                    .map(|(k, list)| (Self::user_name(topology, host, k), list))
                    .collect()
            })
            .collect();
        let registered = host_nodes
            .iter()
            .zip(&users_by_host)
            .flat_map(|(&host, users)| {
                users
                    .iter()
                    .map(move |(name, list)| (name.clone(), host, list.clone()))
            });
        directory
            .register_all(registered)
            .expect("unique generated names");

        // Each server's roster — the users it keeps mail for — and, in each
        // user's row, the slot each of their servers keeps them in. The
        // directory's tables are shared from here on, not copied.
        let rosters = directory.partition();

        // Spawn server actors.
        let proc = SimDuration::from_units(cfg.server_spec.proc_time);
        let mut server_actors = BTreeMap::new();
        for (&s, peers) in server_nodes.iter().zip(peers) {
            let region = topology.region(s);
            let mut store = Store::new(&cfg.durability);
            store.seed_roster(&mut rosters[&s].iter());
            let table = directory.table(region).expect("every region is mapped");
            let regions = Arc::clone(directory.regions());
            let resolver = SyntaxResolver::new(s, region, Arc::clone(table), regions);
            let actor = ServerActor {
                end: Endpoint::new(s, &transport, cfg, &stats, &spans, proc),
                resolver,
                store,
                last_start_time: SimTime::ZERO,
                forwards: BTreeMap::new(),
                locations: BTreeMap::new(),
                lookups: BTreeMap::new(),
                peers,
                redirects: Rc::clone(&redirects),
                recoveries: Rc::clone(&recoveries),
            };
            let id = sim.add_actor(actor);
            assert_eq!(transport.actor_of(s), Ok(id), "server bound ahead of time");
            server_actors.insert(s, id);
        }
        drop(rosters);

        // Spawn host actors.
        let mut hosts = vec![None; directory.len()];
        let mut host_actors = BTreeMap::new();
        for ((&h, host_users), contact) in host_nodes.iter().zip(users_by_host).zip(contact) {
            let mut actor = HostActor {
                end: Endpoint::new(h, &transport, cfg, &stats, &spans, SimDuration::ZERO),
                users: Vec::with_capacity(host_users.len()),
                slot_of: BTreeMap::new(),
                sessions: Sessions::default(),
                submits: BTreeMap::new(),
                contact,
                id_gen: Rc::clone(&id_gen),
                alerts: BTreeMap::new(),
            };
            let aid = ActorId(sim.actor_count());
            assert_eq!(transport.actor_of(h), Ok(aid), "host bound ahead of time");
            for (name, authorities) in host_users {
                let (record, slots) = directory.find(&name).expect("registered above");
                let (id, ui) = (record.id, UiUser::wired(authorities, slots));
                hosts[id.0] = Some((aid, actor.adopt_user(name, ui)));
            }
            assert_eq!(sim.add_actor(actor), aid, "actors are numbered in order");
            host_actors.insert(h, aid);
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
            hosts,
            host_actors,
            host_region,
            host_names,
            server_actors,
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
    /// mailbox-access state to the new host's user interface, and hands
    /// the servers of the two regions whose tables changed the directory's
    /// new ones. Mail subsequently sent to the old
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
        let new_id = crate::migrate::rename(
            &mut self.directory,
            &mut self.redirects.borrow_mut(),
            old_name,
            &new_name,
            new_host,
            rec.authorities.clone(),
            self.sim.now() + redirect_ttl,
        )?;

        // The rename edited the tables of the old and the new name's
        // regions: hand each region's servers the directory's table.
        let old_region = self.directory.region_of_name(old_name.region());
        for region in [old_region, Some(*region)].into_iter().flatten() {
            let Some(table) = self.directory.table(region) else {
                continue;
            };
            for server in self.directory.regions().servers(region) {
                let aid = self.server_actors[server];
                if let Some(actor) = self.sim.actor_mut::<ServerActor>(aid) {
                    actor.resolver.table = Arc::clone(table);
                }
            }
        }

        // UI side: move the user's interface state to the new host actor.
        let old = self.hosts.get_mut(rec.id.0).and_then(Option::take);
        let moved = old.and_then(|(aid, _)| {
            self.sim
                .actor_mut::<HostActor>(aid)
                .and_then(|h| h.release_user(old_name))
        });
        // A name whose interface state did not move is still registered,
        // hint-less: a send from it reaches the host and bounces at source.
        let mut slot = MailMsg::NO_SLOT_HINT;
        let new_aid = self.host_actors[&new_host];
        if let Some(mut ui) = moved {
            // The move is also a fresh start for retrieval bookkeeping
            // (releasing the user ended any check in flight). The wired
            // slots name the old name's rows: the new name is found by
            // name.
            ui.pending_check = false;
            ui.owner_slots.fill(NO_OWNER_SLOT);
            if let Some(h) = self.sim.actor_mut::<HostActor>(new_aid) {
                slot = h.adopt_user(new_name.clone(), ui);
            }
        }
        if self.hosts.len() <= new_id.0 {
            self.hosts.resize(new_id.0 + 1, None);
        }
        self.hosts[new_id.0] = Some((new_aid, slot));

        Ok(new_name)
    }

    /// All user names, ordered.
    pub fn user_names(&self) -> Vec<MailName> {
        self.directory.iter().map(|r| r.name.clone()).collect()
    }

    /// The actor of `user`'s home host, and the slot it keeps them in.
    fn home(&self, user: &MailName) -> Option<(ActorId, u32)> {
        let id = self.directory.by_name(user)?.id;
        self.hosts.get(id.0).copied().flatten()
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
        let (actor, slot) = self.home(from).expect("unknown sender");
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
        let (actor, slot) = self.home(user).expect("unknown user");
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
                    for message in mb.peek() {
                        let auth = self
                            .directory
                            .by_name(owner)
                            .map(|r| r.authorities.servers().to_vec())
                            .unwrap_or_default();
                        out.push((node, owner.clone(), message.id, auth));
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
    pub(crate) side_a: Vec<NodeId>,
    /// Nodes on the other side.
    pub(crate) side_b: Vec<NodeId>,
    /// When the partition begins.
    pub(crate) down_at: SimTime,
    /// When the partition heals.
    pub(crate) up_at: SimTime,
}

/// A node-addressed chaos plan for [`Deployment::apply_link_chaos`]:
/// stochastic link faults on every wire send plus scheduled partitions.
#[derive(Clone, Debug)]
pub struct LinkChaos {
    /// Loss/duplication/jitter applied to every link.
    pub(crate) profile: LinkProfile,
    /// Stochastic faults cease at this time so runs can drain cleanly
    /// (scheduled partitions are unaffected).
    pub(crate) stochastic_horizon: SimTime,
    /// Scheduled partitions (repeat with different windows to flap).
    pub(crate) partitions: Vec<Partition>,
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
    use super::*;
    use crate::resolve::Resolution;
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

    /// Whether `timeout` is the backed-off `backed` units plus a jitter of
    /// at most [`JITTER_FRAC`] of them.
    fn jittered(timeout: SimDuration, backed: f64) -> bool {
        timeout >= SimDuration::from_units(backed)
            && timeout <= SimDuration::from_units(backed * (1.0 + JITTER_FRAC))
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut rng = SimRng::seed(1).fork("t");
        let base = SimDuration::from_units(20.0);
        // 20, 40, then 80 and 160 held at the 60-unit cap.
        for (attempt, backed) in [(0, 20.0), (1, 40.0), (2, 60.0), (3, 60.0)] {
            let t = timeout(base, attempt, &mut rng);
            assert!(jittered(t, backed), "attempt {attempt}: {t:?}");
        }
        // A base above the cap is the round trip: kept, and not grown.
        let long = SimDuration::from_units(70.0);
        for attempt in 0..4 {
            let t = timeout(long, attempt, &mut rng);
            assert!(jittered(t, 70.0), "attempt {attempt}: {t:?}");
        }
    }

    #[test]
    fn jitter_stays_within_fraction() {
        let mut rng = SimRng::seed(9).fork("t");
        let base = SimDuration::from_units(8.0);
        let draws: Vec<SimDuration> = (0..100).map(|_| timeout(base, 0, &mut rng)).collect();
        assert!(draws.iter().all(|&t| jittered(t, 8.0)), "{draws:?}");
        assert!(draws.iter().any(|&t| t > base), "jitter is drawn");
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let base = SimDuration::from_units(5.0);
        let draw = |seed: u64| {
            let mut rng = SimRng::seed(seed).fork("t");
            (0..10)
                .map(|k| timeout(base, k, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(4), draw(4));
        assert_ne!(draw(4), draw(5));
    }

    /// The fold of attempts 0 to 3 at one seed and base, in ticks: the
    /// values the retry policy that preceded these constants produced
    /// (3 attempts, ×2 backoff, 60-unit cap, 10 % jitter).
    #[test]
    fn timeout_fold_matches_the_captured_values() {
        let mut rng = SimRng::seed(7).fork("session");
        let base = SimDuration::from_units(10.0);
        let ticks: Vec<u64> = (0..4)
            .map(|k| timeout(base, k, &mut rng).as_ticks())
            .collect();
        assert_eq!(ticks, [10_955_820, 20_150_522, 42_461_368, 65_657_897]);
    }

    /// What the deadline-table actor does when message `n` arrives: the
    /// `n`-th entry of its plan.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        /// Open a deadline at this instant under this tag.
        Open(f64, u64),
        /// Close the deadline opened under this tag.
        Close(u64),
        /// Close again the deadline closed under this tag.
        Reclose(u64),
        /// Send itself message `n`, arriving at this instant.
        Ping(f64, u64),
    }

    /// What the deadline-table actor saw, in order.
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Seen {
        Expired(u64),
        Ping(u64),
    }
    use Seen::{Expired, Ping};

    /// A [`Deadlines`] table alone in an actor, driven by a plan of
    /// [`Step`]s, logging every timeout and message with its instant.
    struct TableActor {
        table: Deadlines,
        plan: Vec<Vec<Step>>,
        open: BTreeMap<u64, DeadlineRef>,
        closed: BTreeMap<u64, DeadlineRef>,
        log: Vec<(f64, Seen)>,
    }

    fn ping(n: u64) -> MailMsg {
        let user = "r0.h.u".parse().unwrap();
        MailMsg::Notify {
            user,
            id: MessageId(n),
        }
    }

    impl lems_sim::actor::Actor for TableActor {
        type Msg = MailMsg;

        fn on_message(&mut self, _from: ActorId, msg: MailMsg, ctx: &mut Ctx<'_, MailMsg>) {
            let MailMsg::Notify { id, .. } = msg else {
                return;
            };
            self.log.push((ctx.now().as_units(), Ping(id.0)));
            let steps = self.plan.get(id.0 as usize).cloned().unwrap_or_default();
            for step in steps {
                match step {
                    Step::Open(at, tag) => {
                        let deadline = self.table.open(ctx, t(at), tag);
                        self.open.insert(tag, deadline);
                    }
                    Step::Close(tag) => {
                        if let Some(deadline) = self.open.remove(&tag) {
                            self.table.close(deadline);
                            self.closed.insert(tag, deadline);
                        }
                    }
                    Step::Reclose(tag) => {
                        if let Some(&deadline) = self.closed.get(&tag) {
                            self.table.close(deadline);
                        }
                    }
                    Step::Ping(at, n) => {
                        let delay = t(at).duration_since(ctx.now());
                        ctx.send_self(ping(n), delay);
                    }
                }
            }
        }

        fn on_timer(&mut self, id: TimerId, ctx: &mut Ctx<'_, MailMsg>) {
            if let Some(tag) = self.table.fire(id) {
                self.log.push((ctx.now().as_units(), Expired(tag)));
                self.open.remove(&tag);
            }
            self.table.rearm(ctx);
        }

        fn on_crash(&mut self, _now: SimTime) {
            self.table.clear();
            self.open.clear();
        }
    }

    /// The deadlines of `table` still open.
    fn open_rows(table: &Deadlines) -> usize {
        table.rows.iter().filter(|d| d.seq != FREE_SEQ).count()
    }

    /// A simulation of one [`TableActor`] with `plan`, message 0 injected
    /// at time 0; not yet run.
    fn table_sim(plan: Vec<Vec<Step>>) -> (ActorSim<MailMsg>, ActorId) {
        let mut sim = ActorSim::new(1);
        let actor = sim.add_actor(TableActor {
            table: Deadlines::new(),
            plan,
            open: BTreeMap::new(),
            closed: BTreeMap::new(),
            log: Vec::new(),
        });
        sim.inject(actor, ping(0), SimDuration::ZERO);
        (sim, actor)
    }

    /// Runs `sim` to quiescence; returns the actor's log and its kernel
    /// timer counts `(fired, suppressed)`, having checked that the table
    /// ended empty with no wake.
    fn run_table(mut sim: ActorSim<MailMsg>, actor: ActorId) -> (Vec<(f64, Seen)>, u64, u64) {
        assert!(sim.run_to_quiescence_bounded(EVENT_BUDGET));
        let a = sim.actor::<TableActor>(actor).unwrap();
        assert_eq!(open_rows(&a.table), 0);
        assert!(a.table.wake.is_none(), "a wake outlived the deadlines");
        let c = sim.counters();
        (
            a.log.clone(),
            c.timers_fired.get(),
            c.timers_suppressed.get(),
        )
    }

    #[test]
    fn deadlines_opened_out_of_order_time_out_in_order() {
        let plan = vec![vec![
            Step::Open(30.0, 1),
            Step::Open(10.0, 2),
            Step::Open(20.0, 3),
        ]];
        let (sim, actor) = table_sim(plan);
        let (log, fired, suppressed) = run_table(sim, actor);
        assert_eq!(
            log,
            [
                (0.0, Ping(0)),
                (10.0, Expired(2)),
                (20.0, Expired(3)),
                (30.0, Expired(1)),
            ]
        );
        // One wake per timeout: the one armed for 30 gave way to 10's.
        assert_eq!((fired, suppressed), (3, 0));
    }

    #[test]
    fn closing_the_woken_deadline_costs_one_idle_wake_then_a_rearm() {
        let plan = vec![
            vec![Step::Open(10.0, 1), Step::Open(20.0, 2), Step::Ping(5.0, 1)],
            vec![Step::Close(1)],
        ];
        let (mut sim, actor) = table_sim(plan);
        sim.run_until(t(15.0));
        assert_eq!(sim.counters().timers_fired.get(), 1, "the idle wake at 10");
        let a = sim.actor::<TableActor>(actor).unwrap();
        assert_eq!(a.log.len(), 2, "no timeout at 10: {:?}", a.log);
        let wake = a.table.wake.unwrap();
        assert_eq!(wake.key.0, t(20.0), "re-armed for the deadline left");
        assert!(wake.timer.is_some());
        let (log, fired, suppressed) = run_table(sim, actor);
        assert_eq!(log, [(0.0, Ping(0)), (5.0, Ping(1)), (20.0, Expired(2))]);
        assert_eq!((fired, suppressed), (2, 0));
    }

    /// A closed deadline's row is reused by the next one opened; closing
    /// the old deadline again must leave the new one open.
    #[test]
    fn a_closed_deadline_cannot_close_the_row_it_freed() {
        let plan = vec![vec![
            Step::Open(10.0, 1),
            Step::Close(1),
            Step::Open(20.0, 2),
            Step::Reclose(1),
        ]];
        let (sim, actor) = table_sim(plan);
        let (log, fired, _) = run_table(sim, actor);
        assert_eq!(log, [(0.0, Ping(0)), (20.0, Expired(2))]);
        assert_eq!(fired, 2, "the wake for 10 fires idle");
    }

    #[test]
    fn an_earlier_deadline_supersedes_the_wake() {
        let plan = vec![
            vec![Step::Open(20.0, 1), Step::Ping(1.0, 1)],
            vec![Step::Open(10.0, 2)],
        ];
        let (sim, actor) = table_sim(plan);
        let (log, fired, suppressed) = run_table(sim, actor);
        assert_eq!(
            log,
            [
                (0.0, Ping(0)),
                (1.0, Ping(1)),
                (10.0, Expired(2)),
                (20.0, Expired(1)),
            ]
        );
        // The wake armed for 20 first was taken out, not left to pop: the
        // one re-armed there after 10 is the only event at its key.
        assert_eq!((fired, suppressed), (2, 0));
    }

    /// Two deadlines on one tick with messages scheduled between and after
    /// them: each timeout fires at the sequence number reserved when its
    /// deadline was opened, so the events alternate as they were
    /// scheduled, though the second wake is armed only when the first
    /// has fired.
    #[test]
    fn deadlines_on_one_tick_fire_in_the_order_they_were_opened() {
        let plan = vec![vec![
            Step::Open(10.0, 1),
            Step::Ping(10.0, 1),
            Step::Open(10.0, 2),
            Step::Ping(10.0, 2),
        ]];
        let (sim, actor) = table_sim(plan);
        let (log, fired, _) = run_table(sim, actor);
        assert_eq!(
            log,
            [
                (0.0, Ping(0)),
                (10.0, Expired(1)),
                (10.0, Ping(1)),
                (10.0, Expired(2)),
                (10.0, Ping(2)),
            ]
        );
        assert_eq!(fired, 2);
    }

    /// A crash clears the table: the wake pending across a short outage
    /// pops after recovery and is ignored; one pending across a longer
    /// outage is suppressed; a deadline opened after recovery times out.
    #[test]
    fn a_crash_clears_the_table_and_its_wake() {
        for (up, suppressed_wakes) in [(6.0, 0), (11.0, 1)] {
            let plan = vec![
                vec![Step::Open(10.0, 1), Step::Open(12.0, 2)],
                vec![Step::Open(14.0, 3)],
            ];
            let (mut sim, actor) = table_sim(plan);
            sim.schedule_crash(actor, t(5.0));
            sim.schedule_recover(actor, t(up));
            sim.inject(actor, ping(1), SimDuration::from_units(up + 0.5));
            let (log, fired, suppressed) = run_table(sim, actor);
            assert_eq!(
                log,
                [(0.0, Ping(0)), (up + 0.5, Ping(1)), (14.0, Expired(3))]
            );
            assert_eq!(
                (fired, suppressed),
                (2 - suppressed_wakes, suppressed_wakes)
            );
        }
    }

    /// The deadline table of server actor `aid`.
    fn table(d: &Deployment, aid: ActorId) -> &Deadlines {
        &d.sim.actor::<ServerActor>(aid).unwrap().end.deadlines
    }

    /// A host keeps its table through a crash, and a timeout that comes
    /// due after the recovery fires as its own timer would have: a submit
    /// waiting on a downed primary across a short crash fails over. One
    /// that came due while the host was down is lost, as its timer was,
    /// and the host still times out the exchanges it opens afterwards.
    #[test]
    fn a_host_crash_loses_only_the_timeouts_due_while_it_was_down() {
        let run = |down: f64, up: f64| {
            let mut d = small_deployment(5);
            let names = d.user_names();
            let (alice, bob) = (names[0].clone(), names[1].clone());
            let list = d.directory.by_name(&alice).unwrap().authorities.clone();
            let home = d.directory.by_name(&alice).unwrap().home_host;
            let host = d.host_actor(home).unwrap();
            let mut plan = ServerFailurePlan::new();
            plan.add(list.primary(), t(0.5), t(1_000.0));
            d.apply_server_failures(&plan);
            d.send_at(t(1.0), &alice, &bob);
            d.sim.schedule_crash(host, t(down));
            d.sim.schedule_recover(host, t(up));
            d.send_at(t(up + 1.0), &alice, &bob);
            assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
            let table = &d.sim.actor::<HostActor>(host).unwrap().end.deadlines;
            assert!(table.wake.is_none() && open_rows(table) == 0);
            let st = d.stats.borrow();
            (st.submitted, st.deposited)
        };
        // Down for a tenth of a unit, well inside the first probe's
        // timeout of more than two units: both messages fail over.
        assert_eq!(run(1.5, 1.6), (2, 2));
        // Down past every timeout of the first submit: it is stranded at
        // the host; the second fails over.
        assert_eq!(run(1.5, 200.0), (2, 1));
    }

    /// A server that crashes with forwards in flight forgets their
    /// deadlines at once: recovery re-routes every one of them.
    #[test]
    fn a_server_crash_clears_its_deadline_table() {
        let mut d = small_deployment(5);
        let names = d.user_names();
        let (alice, bob) = names
            .iter()
            .flat_map(|a| names.iter().map(move |b| (a, b)))
            .find(|(a, b)| {
                let primary = |n: &MailName| d.directory.by_name(n).unwrap().authorities.primary();
                primary(a) != primary(b)
            })
            .map(|(a, b)| (a.clone(), b.clone()))
            .unwrap();
        let list = d.directory.by_name(&bob).unwrap().authorities.clone();
        let accepting = d.directory.by_name(&alice).unwrap().authorities.primary();
        let mut plan = ServerFailurePlan::new();
        plan.add(list.primary(), t(0.5), t(100.0));
        d.apply_server_failures(&plan);
        d.send_at(t(1.0), &alice, &bob);
        let aid = d.server_actors[&accepting];
        while open_rows(table(&d, aid)) == 0 {
            assert!(d.sim.step(), "the accepting server forwards");
        }
        assert!(table(&d, aid).wake.is_some());
        let crashes = d.sim.counters().crashes.get();
        d.sim.schedule_crash(aid, d.sim.now());
        d.sim
            .schedule_recover(aid, d.sim.now() + SimDuration::from_units(1.0));
        while d.sim.counters().crashes.get() == crashes {
            assert!(d.sim.step(), "the crash is scheduled");
        }
        assert_eq!(open_rows(table(&d, aid)), 0);
        assert!(table(&d, aid).wake.is_none());
        d.check_at(t(200.0), &bob);
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
        assert_eq!(
            d.stats.borrow().retrieved,
            1,
            "recovery re-routed the forward"
        );
    }

    /// `name`'s home host and the slot it keeps them in.
    fn home_of(d: &Deployment, name: &MailName) -> (NodeId, u32) {
        let host = d.directory.by_name(name).unwrap().home_host;
        (host, d.home(name).unwrap().1)
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

    /// Three regions of two servers, so every three-server authority list
    /// reaches into a second region.
    fn three_region_deployment() -> (Topology, Deployment) {
        let mut rng = SimRng::seed(5).fork("topology");
        let topology = lems_net::generators::multi_region(
            &mut rng,
            &lems_net::generators::MultiRegionConfig {
                regions: 3,
                hosts_per_region: 3,
                servers_per_region: 2,
                ..lems_net::generators::MultiRegionConfig::default()
            },
        );
        let users = vec![4; topology.hosts().len()];
        let d = Deployment::build(&topology, &users, &DeploymentConfig::default());
        (topology, d)
    }

    /// What every server's resolver says about every registered user is
    /// what the directory implies: at an authority of the user's region,
    /// the user's record and the slot the server's store keeps them in;
    /// the user's list elsewhere in that region; the region's servers from
    /// any other region. And each store's roster is the users whose list
    /// names its server, as wired: `moved` is a user named since, whom no
    /// roster holds.
    fn assert_wiring_matches_directory(
        d: &Deployment,
        topology: &Topology,
        moved: Option<&MailName>,
    ) {
        let mut region_servers: BTreeMap<RegionId, Vec<NodeId>> = BTreeMap::new();
        for s in topology.servers() {
            region_servers
                .entry(topology.region(s))
                .or_default()
                .push(s);
        }
        for (&s, &aid) in &d.server_actors {
            let server = d.sim.actor::<ServerActor>(aid).unwrap();
            let (resolver, roster) = (&server.resolver, server.store.state());
            assert_eq!(resolver.region(), topology.region(s));
            for rec in d.directory.iter() {
                let home = topology.region(rec.home_host);
                let authority = rec.authorities.contains(s);
                let slot = roster.slot_of(&rec.name);
                let want = if resolver.region() != home {
                    Resolution::ForwardToRegion {
                        region: home,
                        servers: &region_servers[&home],
                    }
                } else if authority {
                    Resolution::LocalAuthority {
                        slot: slot.unwrap_or(NO_OWNER_SLOT),
                        record: rec,
                    }
                } else {
                    Resolution::RegionalAuthority(&rec.authorities)
                };
                let at = format!("{} at n{}", rec.name, s.0);
                assert_eq!(resolver.resolve(&rec.name), want, "{at}");
                let wired = authority && moved != Some(&rec.name);
                assert_eq!(slot.is_some(), wired, "{at}");
            }
        }
    }

    /// Whether each region's table is one allocation, shared by the
    /// directory and every server of the region.
    fn region_tables_shared(d: &Deployment) -> BTreeMap<RegionId, bool> {
        let mut shared = BTreeMap::new();
        for &aid in d.server_actors.values() {
            let resolver = &d.sim.actor::<ServerActor>(aid).unwrap().resolver;
            let table = d.directory.table(resolver.region()).unwrap();
            let all = shared.entry(resolver.region()).or_insert(true);
            *all &= Arc::ptr_eq(&resolver.table, table);
        }
        shared
    }

    #[test]
    fn wiring_resolves_as_the_directory_implies() {
        let (topology, mut d) = three_region_deployment();
        let crossing = d.directory.iter().any(|r| {
            let home = topology.region(r.home_host);
            r.authorities
                .servers()
                .iter()
                .any(|&s| topology.region(s) != home)
        });
        assert!(crossing, "some authority list crosses regions");
        assert_wiring_matches_directory(&d, &topology, None);
        let all_shared = BTreeMap::from([
            (RegionId(0), true),
            (RegionId(1), true),
            (RegionId(2), true),
        ]);
        assert_eq!(region_tables_shared(&d), all_shared);

        // Move a region-0 user to a region-1 host.
        let old = d
            .user_names()
            .into_iter()
            .find(|n| topology.region(d.directory.by_name(n).unwrap().home_host) == RegionId(0))
            .unwrap();
        let new_host = *topology
            .hosts()
            .iter()
            .find(|&&h| topology.region(h) == RegionId(1))
            .unwrap();
        let new = d
            .migrate_user_live(&old, new_host, Some("moved"), SimDuration::from_units(50.0))
            .unwrap();
        assert_eq!(
            topology.region(d.directory.by_name(&new).unwrap().home_host),
            RegionId(1)
        );
        assert_wiring_matches_directory(&d, &topology, Some(&new));
        // The old name is gone from region 0's table and forwards there
        // from elsewhere; the rosters still hold it where wiring put it.
        for &aid in d.server_actors.values() {
            let server = d.sim.actor::<ServerActor>(aid).unwrap();
            let resolver = &server.resolver;
            let authority = d
                .directory
                .by_name(&new)
                .unwrap()
                .authorities
                .contains(server.end.node);
            assert_eq!(server.store.state().slot_of(&old).is_some(), authority);
            match resolver.resolve(&old) {
                Resolution::UnknownUser => assert_eq!(resolver.region(), RegionId(0)),
                Resolution::ForwardToRegion { region, .. } => assert_eq!(region, RegionId(0)),
                other => panic!("{old} resolves to {other:?}"),
            }
        }
        // The migration changed two regions' tables, and every region is
        // still one table, shared by the directory and its servers.
        assert_eq!(region_tables_shared(&d), all_shared);
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
        let end_to_end = d.merged_metrics().histogram("end_to_end").unwrap().mean();
        assert!(end_to_end > 0.0);
        assert_eq!(d.mail_in_storage(), 0);
    }

    #[test]
    fn notification_reaches_recipient_host() {
        let mut d = small_deployment(3);
        let names = d.user_names();
        let (alice, bob) = (names[0].clone(), names[7].clone());
        d.send_at(t(1.0), &alice, &bob);
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
        assert_eq!(d.alerts_at(home_of(&d, &bob).0, &bob), 1);
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
        let server_actor = d.server_actors[&primary];

        d.send_at(t(1.0), &alice, &bob);
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
        assert_eq!(d.stats.borrow().deposited, 1);

        // Replay the delivered message as a stray duplicate Forward.
        let stored = d.stranded_mail();
        assert_eq!(stored.len(), 1);
        let dup = {
            let s: &ServerActor = d.sim.actor(server_actor).unwrap();
            s.store.mailboxes()[&bob].peek()[0].clone()
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
        let old_host = home_of(&d, &bob_old).0;

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
        let old_host = home_of(&d, &bob_old).0;
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
        let server = d.server_actors[&primary];
        let host = d.host_actor(home_of(&d, &bob).0).unwrap();

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
        assert_eq!(merged.histogram("delivery_latency").unwrap().count(), 1);
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
        let host_node = home_of(&d, &alice).0;
        let host = d.host_actor(host_node).unwrap();
        let server = d.server_actors[&primary];

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

        let budget = MAX_ATTEMPTS;
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
        assert_eq!(
            home_of(d, &a).0,
            home_of(d, &b).0,
            "generated names sort by host"
        );
        let host = d.host_actor(home_of(d, &a).0).unwrap();
        (a, b, host)
    }

    /// A host's row for a user carries no session and no heap of its
    /// own: a session lives in the host's table while a check runs.
    #[test]
    fn a_host_user_row_fits_in_96_bytes() {
        assert!(std::mem::size_of::<host::UserSlot>() <= 96);
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
                .and_then(|id| h.sessions.get(id))
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

    /// Where `host` holds that `server` keeps `user`: the slot its
    /// `Retrieve` and `RetrieveAck` to that server carry.
    fn host_slot(d: &Deployment, host: ActorId, user: &MailName, server: NodeId) -> u32 {
        let h: &HostActor = d.sim.actor(host).unwrap();
        let ui = h.users[h.slot_of[user]].ui.as_ref().unwrap();
        ui.owner_slot_at(server)
    }

    /// Where `server`'s store keeps `user` ([`NO_OWNER_SLOT`] for no row).
    fn kept_at(d: &Deployment, server: NodeId, user: &MailName) -> u32 {
        let s: &ServerActor = d.sim.actor(d.server_actors[&server]).unwrap();
        s.store.state().slot_of(user).unwrap_or(NO_OWNER_SLOT)
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
        let server = d.server_actors[&primary];
        let held = |d: &Deployment, who: &MailName| {
            let s: &ServerActor = d.sim.actor(server).unwrap();
            (
                s.store.mailboxes().get(who).map(Mailbox::len),
                s.store.pending_drain().get(who).map(Vec::len),
            )
        };
        let waiting = (Some(1), None);
        assert_eq!((held(&d, &alice), held(&d, &bob)), (waiting, waiting));

        // Alice sorts first: slot 0 of this store's roster.
        let bob_session = d.sim.actor::<HostActor>(host).unwrap().slot_of[&bob] as u32;
        d.sim.inject(
            server,
            MailMsg::Retrieve {
                user: bob.clone(),
                reply_to: home_of(&d, &bob).0,
                session: bob_session,
                owner_slot: 0,
            },
            SimDuration::ZERO,
        );
        assert!(d.sim.step());
        assert_eq!(held(&d, &alice), waiting, "alice's box untouched");
        assert_eq!(
            held(&d, &bob),
            (None, Some(1)),
            "bob's mail reserved for bob"
        );

        // The forgery teaches the host nothing: it holds the roster slots
        // wiring gave it, for bob and for alice.
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
        assert_eq!(host_slot(&d, host, &bob, primary), 1);
        assert_eq!(host_slot(&d, host, &alice, primary), 0);
        let st = d.stats.borrow();
        assert_eq!(st.retrieved, 1);
        assert!(
            st.ledger_retrieved.iter().all(|id| id.0 == 1),
            "bob's message"
        );
    }

    /// The server-side twin of `forged_owner_slot_cannot_drain_another_users_box`
    /// for the acknowledgement: a `RetrieveAck` for bob carrying the slot
    /// of alice's buffer releases bob's messages and none of hers.
    #[test]
    fn forged_ack_owner_slot_cannot_release_another_users_buffer() {
        let mut d = small_deployment(44);
        let (alice, bob, _) = housemates(&d);
        let names = d.user_names();
        let primary = d.directory.by_name(&bob).unwrap().authorities.primary();
        d.send_at(t(1.0), &names[5], &alice);
        d.send_at(t(2.0), &names[5], &bob);
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
        let server = d.server_actors[&primary];
        // Both drains reserved and unacknowledged, as if both replies were
        // in flight.
        let (alice_slot, alices, bobs) = {
            let s: &mut ServerActor = d.sim.actor_mut(server).unwrap();
            let hers = s.store.drain_reserve_at(&alice, NO_OWNER_SLOT);
            let his = s.store.drain_reserve_at(&bob, NO_OWNER_SLOT);
            assert_eq!((hers.len(), his.len()), (1, 1));
            let alice_slot = s.store.state().slot_of(&alice).unwrap();
            (alice_slot, hers[0].id, his[0].id)
        };
        assert_eq!(alice_slot, 0, "alice sorts first");
        let pending = |d: &Deployment, who: &MailName| {
            let s: &ServerActor = d.sim.actor(server).unwrap();
            s.store.pending_drain().get(who).map(Vec::len)
        };
        let ack = |user: &MailName, ids: Vec<MessageId>| MailMsg::RetrieveAck {
            user: user.clone(),
            ids,
            owner_slot: alice_slot,
        };

        // Bob acknowledging alice's message under her slot: nothing goes.
        d.sim
            .inject(server, ack(&bob, vec![alices]), SimDuration::ZERO);
        assert!(d.sim.step());
        assert_eq!((pending(&d, &alice), pending(&d, &bob)), (Some(1), Some(1)));
        // Bob acknowledging both under her slot: his own goes, hers stays.
        d.sim
            .inject(server, ack(&bob, vec![alices, bobs]), SimDuration::ZERO);
        assert!(d.sim.step());
        assert_eq!((pending(&d, &alice), pending(&d, &bob)), (Some(1), None));
        assert_eq!(d.mail_in_storage(), 1, "alice's message, still held");
    }

    /// Wiring hands each host the slot where each authority server's store
    /// keeps each of its users, before anyone checks mail: a first check
    /// reaches the user's row by index, and so does every later one.
    #[test]
    fn wiring_teaches_each_host_its_users_roster_slots() {
        let (_, d) = three_region_deployment();
        let mut hinted = 0;
        for user in d.user_names() {
            let host = d.host_actor(home_of(&d, &user).0).unwrap();
            let authorities = d.directory.by_name(&user).unwrap().authorities.clone();
            for &server in authorities.servers().iter().take(3) {
                let wired = roster_slot(&d, server, &user);
                assert_eq!(
                    host_slot(&d, host, &user, server),
                    wired,
                    "{user} at {server}"
                );
                assert_eq!(kept_at(&d, server, &user), wired, "{user} at {server}");
                hinted += 1;
            }
        }
        assert_eq!(hinted, 3 * d.user_names().len());
    }

    /// One workload on `small_deployment(49)` after `overwrite` has
    /// rewritten every host's owner slots, given each user's wired slots
    /// and those of the next user of the same host: everyone sends and
    /// checks twice, one user migrates (their new name has no slots), and
    /// a server crashes between the rounds.
    fn run_with_owner_slots(overwrite: impl Fn(&[u32; 3], &[u32; 3]) -> [u32; 3]) -> Outcome {
        let mut d = small_deployment(49);
        d.sim.enable_trace();
        d.enable_spans();
        for &aid in d.host_actors.values() {
            let h: &mut HostActor = d.sim.actor_mut(aid).unwrap();
            let wired: Vec<[u32; 3]> = h
                .users
                .iter()
                .map(|u| u.ui.as_ref().unwrap().owner_slots)
                .collect();
            for (i, user) in h.users.iter_mut().enumerate() {
                let next = &wired[(i + 1) % wired.len()];
                let ui = user.ui.as_mut().unwrap();
                ui.owner_slots = overwrite(&wired[i], next);
            }
        }
        let names = d.user_names();
        let mut plan = ServerFailurePlan::new();
        plan.add(*d.server_actors.keys().next().unwrap(), t(100.0), t(140.0));
        d.apply_server_failures(&plan);
        for (i, to) in names.iter().enumerate() {
            d.send_at(t(1.0 + i as f64), &names[(i + 5) % names.len()], to);
            d.check_at(t(60.0 + i as f64), to);
        }
        d.sim.run_until(t(90.0));
        let moved = d
            .migrate_user_live(
                &names[4],
                *d.host_actors.keys().next_back().unwrap(),
                Some("moved"),
                SimDuration::from_units(500.0),
            )
            .unwrap();
        let names = d.user_names();
        for (i, to) in names.iter().enumerate() {
            d.send_at(t(150.0 + i as f64), &names[(i + 7) % names.len()], to);
            d.check_at(t(220.0 + i as f64), to);
        }
        d.send_at(t(170.0), &names[0], &moved);
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));

        let st = d.stats.borrow();
        assert_eq!(st.ledger_retrieved, st.ledger_submitted);
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

    /// The slots wiring hands the hosts are hints and only hints: none at
    /// all, a housemate's and out-of-range ones all leave exactly the run
    /// the wired slots leave.
    #[test]
    fn wired_owner_slots_resolve_as_by_name() {
        let wired = run_with_owner_slots(|own, _| *own);
        assert!(wired.1.len() > 100, "spans were recorded");
        let none = run_with_owner_slots(|_, _| [NO_OWNER_SLOT; 3]);
        assert!(wired == none, "no slots at all");
        let housemate = run_with_owner_slots(|_, next| *next);
        assert!(wired == housemate, "a housemate's slots");
        let out_of_range = run_with_owner_slots(|own, _| own.map(|s| s.saturating_add(1_000)));
        assert!(wired == out_of_range, "slots no store has");
    }

    /// Where `server`'s roster puts `user`: their rank among the users
    /// whose authority list names the server, by name.
    fn roster_slot(d: &Deployment, server: NodeId, user: &MailName) -> u32 {
        let held = d
            .directory
            .iter()
            .filter(|r| r.authorities.contains(server));
        let rank = held.map(|r| &r.name).position(|name| name == user);
        rank.unwrap() as u32
    }

    /// A slot the store never had resolves by name, and leaves the host
    /// holding the roster slots wiring gave it. A crash of a volatile store
    /// forgets all it holds but not its roster, so those slots are still
    /// where the store keeps the users after it.
    #[test]
    fn out_of_range_owner_slot_resolves_by_name_and_roster_slots_survive_a_crash() {
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
        let (a, b) = (
            roster_slot(&d, primary, &alice),
            roster_slot(&d, primary, &bob),
        );
        assert_eq!((a, b), (0, 1), "the two smallest names");
        let mut plan = ServerFailurePlan::new();
        plan.add(primary, t(100.0), t(110.0));
        d.apply_server_failures(&plan);

        // Out of range: no store has a slot 9 999.
        let server = d.server_actors[&primary];
        let bob_session = d.sim.actor::<HostActor>(host).unwrap().slot_of[&bob] as u32;
        d.sim.inject(
            server,
            MailMsg::Retrieve {
                user: bob.clone(),
                reply_to: home_of(&d, &bob).0,
                session: bob_session,
                owner_slot: 9_999,
            },
            SimDuration::ZERO,
        );
        d.check_at(t(10.0), &alice);
        d.sim.run_until(t(90.0));
        assert_eq!(host_slot(&d, host, &bob, primary), b);
        assert_eq!(host_slot(&d, host, &alice, primary), a);

        // The crash empties the store; bob comes back last, and is still
        // found where his hint says.
        d.check_at(t(120.0), &alice);
        d.check_at(t(130.0), &bob);
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
        assert_eq!(host_slot(&d, host, &alice, primary), a);
        assert_eq!(host_slot(&d, host, &bob, primary), b);
        assert_eq!(kept_at(&d, primary, &bob), b);
        assert_eq!(d.stats.borrow().retrieval_polls.count(), 3);
    }

    /// The twin of `duplicated_replies_resolve_as_by_name`: replies that
    /// arrive twice, late and out of order carry no slot, so whichever
    /// lands last the host holds what wiring gave it, which is where each
    /// store keeps the user.
    #[test]
    fn duplicated_replies_leave_the_wired_owner_slots() {
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
            let host = d.host_actor(home_of(&d, user).0).unwrap();
            let authorities = d.directory.by_name(user).unwrap().authorities.clone();
            for &server in authorities.servers() {
                let held = host_slot(&d, host, user, server);
                assert_ne!(held, NO_OWNER_SLOT, "wiring placed every user");
                assert_eq!(held, kept_at(&d, server, user), "{user} at {server}");
            }
        }
    }

    /// Wiring is the only source of a host's owner slots. A user who
    /// migrated holds none (the wired ones name the old name's rows), nor
    /// does a visitor at the host they logged in at; both check mail, are
    /// found by name, and leave every host holding what it held before.
    #[test]
    fn replies_leave_every_hosts_owner_slots_as_wired() {
        let mut d = small_deployment(50);
        let names = d.user_names();
        let held = |d: &Deployment| {
            let mut held = Vec::new();
            for (&host, &aid) in &d.host_actors {
                for u in &d.sim.actor::<HostActor>(aid).unwrap().users {
                    let ui = u.ui.as_ref();
                    held.extend(ui.map(|ui| (host, u.name.clone(), ui.owner_slots)));
                }
            }
            held
        };
        let (old_host, _) = home_of(&d, &names[4]);
        let new_host = *d.host_actors.keys().find(|&&h| h != old_host).unwrap();
        let ttl = SimDuration::from_units(500.0);
        let moved = d.migrate_user_live(&names[4], new_host, Some("moved"), ttl);
        let moved = moved.unwrap();
        let visitor = names[1].clone();
        let (home, _) = home_of(&d, &visitor);
        let away = *d.host_actors.keys().find(|&&h| h != home).unwrap();
        d.login_at(t(1.0), &visitor, away);
        d.sim.run_until(t(2.0));
        let wired = held(&d);
        let none = [NO_OWNER_SLOT; 3];
        assert!(wired.contains(&(new_host, moved.clone(), none)));
        assert!(wired.contains(&(away, visitor.clone(), none)));
        assert!(!wired.contains(&(home, visitor.clone(), none)));

        d.send_at(t(10.0), &names[0], &moved);
        d.send_at(t(11.0), &names[0], &visitor);
        d.check_at(t(60.0), &moved);
        let check = MailMsg::DoCheck {
            user: visitor.clone(),
            slot: MailMsg::NO_SLOT_HINT,
        };
        let delay = t(61.0).duration_since(d.sim.now());
        d.sim.inject(d.host_actors[&away], check, delay);
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));

        assert_eq!(held(&d), wired, "no host's slots moved");
        let st = d.stats.borrow();
        assert_eq!((st.retrieved, st.retrieval_polls.count()), (2, 2));
        assert_eq!(st.ledger_retrieved, st.ledger_submitted);
        drop(st);
        assert_eq!(d.mail_in_storage(), 0);
    }

    /// A WAL store that crashes comes back with its roster where wiring
    /// put it, whatever order the log met the owners in: the slot wiring
    /// gave the host finds bob's mail before the crash and after the
    /// replay.
    #[test]
    fn roster_owner_slot_survives_wal_recovery() {
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
        let (a, b) = (
            roster_slot(&d, primary, &alice),
            roster_slot(&d, primary, &bob),
        );
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
        assert_eq!(host_slot(&d, host, &bob, primary), b, "the wired hint");
        assert_eq!(host_slot(&d, host, &alice, primary), a);
        assert_eq!(kept_at(&d, primary, &alice), a, "kept through the crash");

        d.check_at(t(200.0), &bob);
        d.sim.run_until(t(290.0));
        assert_eq!(
            d.stats.borrow().retrieved,
            3,
            "bob's second message arrived"
        );
        assert_eq!(host_slot(&d, host, &bob, primary), b);

        d.send_at(t(300.0), &names[5], &bob);
        d.check_at(t(350.0), &bob);
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
        assert_eq!(host_slot(&d, host, &bob, primary), b);
        assert_eq!(kept_at(&d, primary, &bob), b);
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
            let (host, slot) = home_of(d, from);
            let (from, to, slot) = (from.clone(), to.clone(), hint(slot));
            inject(d, at, host, MailMsg::DoSend { from, to, slot });
        };
        let check = |d: &mut Deployment, at: f64, user: &MailName| {
            let (host, slot) = home_of(d, user);
            let (user, slot) = (user.clone(), hint(slot));
            inject(d, at, host, MailMsg::DoCheck { user, slot });
        };

        for (i, to) in names.iter().enumerate() {
            send(&mut d, 1.0 + i as f64, &names[(i + 5) % names.len()], to);
            check(&mut d, 60.0 + i as f64, to);
        }
        d.sim.run_until(t(100.0));

        let bob_old = names[4].clone();
        let (old_host, old_slot) = home_of(&d, &bob_old);
        let new_host = *d.host_actors.keys().find(|&&h| h != old_host).unwrap();
        let bob_new = d
            .migrate_user_live(
                &bob_old,
                new_host,
                Some("bob"),
                SimDuration::from_units(500.0),
            )
            .unwrap();
        assert_eq!(home_of(&d, &bob_new), (new_host, 2), "a third slot there");
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
            let (host, slot) = home_of(&d, &name);
            let h: &HostActor = d.sim.actor(d.host_actors[&host]).unwrap();
            assert_eq!(h.slot_of[&name], slot as usize, "{name}");
            assert!(h.users[slot as usize].name == name);
        }
        assert_eq!(home_of(&d, &moved), (new_host, 2));
    }

    /// A name the directory knows but no host serves can still be
    /// migrated; it stays injectable, hint-less, and its mail bounces at
    /// source.
    #[test]
    fn migrated_name_without_interface_state_bounces_at_source() {
        let mut d = small_deployment(48);
        let names = d.user_names();
        let (home, _) = home_of(&d, &names[0]);
        let new_host = *d.host_actors.keys().find(|&&h| h != home).unwrap();
        let ghost = MailName::new(names[0].region(), names[0].host(), "ghost").unwrap();
        let authorities = d.directory.by_name(&names[0]).unwrap().authorities.clone();
        d.directory
            .register(ghost.clone(), home, authorities)
            .unwrap();
        let moved = d
            .migrate_user_live(&ghost, new_host, None, SimDuration::from_units(50.0))
            .unwrap();
        assert_eq!(home_of(&d, &moved), (new_host, MailMsg::NO_SLOT_HINT));

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

    /// Two hosts whose names agree on their first 13 bytes, two users
    /// each: all four user names share their first 16 bytes, so all four
    /// share one `order_key`.
    fn shared_key_deployment() -> Deployment {
        let mut topology = Topology::new();
        let r = RegionId(0);
        let servers = ["S1", "S2", "S3"].map(|s| topology.add_server(r, s));
        let a = topology.add_host(r, "longhostname-a");
        let b = topology.add_host(r, "longhostname-b");
        let w = lems_net::graph::Weight::UNIT;
        topology.link(a, servers[0], w);
        topology.link(b, servers[2], w);
        topology.link(servers[0], servers[1], w);
        topology.link(servers[1], servers[2], w);
        let d = Deployment::build(&topology, &[2, 2], &DeploymentConfig::default());
        let names = d.user_names();
        assert_eq!(names.len(), 4);
        assert!(names.iter().all(|n| n.order_key() == names[0].order_key()));
        d
    }

    /// Names sharing an `order_key` across two hosts: each is found at its
    /// own host and slot, and the sends and checks `send_at` / `check_at`
    /// inject for it reach that host — an injection at the other host
    /// would bounce at source and retrieve nothing.
    #[test]
    fn names_sharing_a_key_reach_their_own_host_and_slot() {
        let mut d = shared_key_deployment();
        let names = d.user_names();
        for name in &names {
            let (host, slot) = home_of(&d, name);
            assert_eq!(d.host_names[&host], name.host(), "{name}");
            let h: &HostActor = d.sim.actor(d.host_actors[&host]).unwrap();
            assert_eq!(h.slot_of[name], slot as usize, "{name}");
        }
        for (k, from) in names.iter().enumerate() {
            let to = &names[(k + 1) % names.len()];
            d.send_at(t(1.0 + k as f64), from, to);
        }
        for (k, user) in names.iter().enumerate() {
            d.check_at(t(100.0 + k as f64), user);
        }
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
        let st = d.stats.borrow();
        assert_eq!((st.submitted, st.bounced, st.retrieved), (4, 0, 4));
    }

    /// A live migration retires the old name from the lookup and installs
    /// the new one — here the first name of a shared key, the one the
    /// index points at, so the index moves on to the next.
    #[test]
    fn migration_retires_the_old_name_and_resolves_the_new() {
        let mut d = shared_key_deployment();
        let names = d.user_names();
        let old = &names[0];
        let (home, _) = home_of(&d, old);
        let away = *d.host_actors.keys().find(|&&h| h != home).unwrap();
        let new = d
            .migrate_user_live(old, away, Some("u9"), SimDuration::from_units(50.0))
            .unwrap();
        assert!(d.home(old).is_none());
        assert!(!d.user_names().contains(old));
        let (host, slot) = home_of(&d, &new);
        let h: &HostActor = d.sim.actor(d.host_actors[&away]).unwrap();
        assert_eq!((host, h.slot_of[&new]), (away, slot as usize));
        for name in &names[1..] {
            let (host, slot) = home_of(&d, name);
            let h: &HostActor = d.sim.actor(d.host_actors[&host]).unwrap();
            assert_eq!(h.slot_of[name], slot as usize, "{name}");
        }
    }

    /// An unknown name — one sharing the known names' key too — is a
    /// driver bug, not a quiet miss.
    #[test]
    #[should_panic(expected = "unknown sender")]
    fn an_unknown_sender_panics() {
        let mut d = shared_key_deployment();
        let stranger: MailName = "r0.longhostname-c.u0".parse().unwrap();
        let known = d.user_names()[0].clone();
        d.send_at(t(1.0), &stranger, &known);
    }

    #[test]
    #[should_panic(expected = "unknown user")]
    fn an_unknown_user_check_panics() {
        let mut d = small_deployment(49);
        let stranger: MailName = "r9.nowhere.u0".parse().unwrap();
        d.check_at(t(1.0), &stranger);
    }
}
