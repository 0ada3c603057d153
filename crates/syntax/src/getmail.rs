//! The GetMail retrieval algorithm of §3.1.2c.
//!
//! Mail is deposited in the **first alive server** of the recipient's
//! ordered authority list, so when servers fail, a user's mail may be
//! spread over several servers. The naive retrieval polls every authority
//! server; the paper's algorithm avoids that with two pieces of
//! bookkeeping:
//!
//! * `LastCheckingTime[user]` — when the user last checked mail;
//! * `PreviouslyUnavailableServers[user]` — servers that were down during
//!   some earlier check and may still be buffering old mail;
//!
//! plus one per-server register, `LastStartTime[server]` — when the server
//! last recovered or was initialised (clocks need only coarse
//! synchronisation, "a second or even a slower unit").
//!
//! The check walks the authority list; as soon as it reaches an alive
//! server whose `LastStartTime` *precedes* the user's `LastCheckingTime`,
//! it stops — that server has been up for the whole interval, so every
//! deposit since the last check landed there or earlier in the list.
//! Finally it drains any alive servers left in
//! `PreviouslyUnavailableServers`. Under normal conditions (primary up
//! continuously) this is exactly **one poll**, and §5 claims no messages
//! are ever lost; `repro getmail` measures both.
//!
//! The algorithm is written once, as a step machine over [`GetMailState`]:
//! `GetMailState::begin` opens a [`Check`], `GetMailState::next` names
//! the next server to probe or ends the check, and
//! `GetMailState::on_reply` / `GetMailState::on_unreachable` report
//! what the probe met. It runs two ways. [`GetMailState::get_mail`]
//! probes an analytic [`Prober`] synchronously (the experiments'
//! [`PlanStore`]). The host actor of [`crate::actors`] probes real servers
//! over the network, and decides that a server is unreachable when its
//! session timeouts and retransmissions run out.

use std::collections::BTreeSet;

use lems_core::message::MessageId;
use lems_net::graph::NodeId;
use lems_sim::time::SimTime;

/// Reply from probing one server.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProbeReply {
    /// The server's `LastStartTime`: when it last recovered or booted.
    pub(crate) last_start_time: SimTime,
    /// The stored messages for the user, drained by the probe.
    pub(crate) messages: Vec<MessageId>,
}

/// The servers [`GetMailState::get_mail`] polls synchronously: the
/// analytic [`PlanStore`] used by experiments.
pub trait Prober {
    /// Polls `server` at `now` on behalf of one user. Returns `None` when
    /// the server is down or unreachable; otherwise drains and returns the
    /// user's stored mail along with the server's `LastStartTime`.
    fn probe(&mut self, server: NodeId, now: SimTime) -> Option<ProbeReply>;
}

/// Per-user retrieval bookkeeping (lives in the user interface): the
/// paper's `LastCheckingTime` and `PreviouslyUnavailableServers`.
#[derive(Clone, Debug, Default)]
pub struct GetMailState {
    last_checking_time: SimTime,
    previously_unavailable: BTreeSet<NodeId>,
}

/// One GetMail in progress: how far the walk of the authority list and the
/// sweep of previously unavailable servers have got. Holds no heap until a
/// server that was unavailable at an earlier check needs sweeping.
#[derive(Clone, Debug)]
pub struct Check {
    /// When the check began: the user's next `LastCheckingTime`.
    started: SimTime,
    /// The sweep after the walk: `sweep[..swept]` are the servers it
    /// probed, in order; the rest are previously unavailable servers not
    /// yet probed, highest node first.
    sweep: Vec<NodeId>,
    /// How many servers of the authority list the walk has probed: its
    /// next probe is `servers[walked]`.
    walked: usize,
    swept: usize,
    polls: u32,
    finished_walk_early: bool,
}

impl Check {
    /// When the check began.
    pub(crate) fn started(&self) -> SimTime {
        self.started
    }

    /// True if this check has already probed `server`: in the walk or in
    /// the sweep.
    fn probed(&self, servers: &[NodeId], server: NodeId) -> bool {
        servers[..self.walked].contains(&server) || self.sweep[..self.swept].contains(&server)
    }
}

/// What a [`Check`] does next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Probe this server, then report the outcome with
    /// `GetMailState::on_reply` or `GetMailState::on_unreachable`.
    Probe(NodeId),
    /// The check is complete after `polls` distinct servers.
    Done {
        /// Distinct servers probed: the paper's GetMail cost metric.
        polls: u32,
    },
}

/// What one retrieval accomplished.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RetrievalOutcome {
    /// Probe attempts made (alive or not) — the cost the paper compares
    /// against the poll-everything baseline.
    pub polls: u32,
    /// Messages retrieved, in probe order.
    pub retrieved: Vec<MessageId>,
}

impl GetMailState {
    /// Creates fresh state (no checks yet).
    pub fn new() -> Self {
        GetMailState::default()
    }

    /// Opens a check at `now`.
    pub(crate) fn begin(now: SimTime) -> Check {
        Check {
            started: now,
            sweep: Vec::new(),
            walked: 0,
            swept: 0,
            polls: 0,
            finished_walk_early: false,
        }
    }

    /// The next step of `check` over the authority list `servers`: the
    /// list in order until a reply ends the walk early, then every
    /// previously unavailable server this check has not probed, highest
    /// node first. On [`Step::Done`] the check's start becomes the user's
    /// `LastCheckingTime`.
    ///
    /// `servers` must be the same list for every step of one check.
    pub(crate) fn next(&mut self, check: &mut Check, servers: &[NodeId]) -> Step {
        let walk_over = check.finished_walk_early || check.walked == servers.len();
        let next = if walk_over {
            if check.swept == check.sweep.len() {
                for &s in self.previously_unavailable.iter().rev() {
                    if !check.probed(servers, s) {
                        check.sweep.push(s);
                    }
                }
            }
            let next = check.sweep.get(check.swept).copied();
            if next.is_some() {
                check.swept += 1;
            }
            next
        } else {
            check.walked += 1;
            Some(servers[check.walked - 1])
        };
        match next {
            Some(server) => {
                check.polls += 1;
                Step::Probe(server)
            }
            None => {
                self.last_checking_time = check.started;
                Step::Done { polls: check.polls }
            }
        }
    }

    /// `server` answered, with its `LastStartTime`.
    pub(crate) fn on_reply(&mut self, check: &mut Check, server: NodeId, last_start_time: SimTime) {
        self.previously_unavailable.remove(&server);
        // Up since before the last check: every deposit since then landed
        // here or earlier in the list.
        if self.last_checking_time > last_start_time {
            check.finished_walk_early = true;
        }
    }

    /// `server` did not answer: it may buffer mail until a later check
    /// sweeps it.
    pub(crate) fn on_unreachable(&mut self, server: NodeId) {
        self.previously_unavailable.insert(server);
    }

    /// Runs the paper's `GetMail` procedure at `now` over the user's
    /// authority list.
    ///
    /// # Panics
    ///
    /// Panics if `authorities` is empty.
    pub fn get_mail(
        &mut self,
        authorities: &[NodeId],
        prober: &mut impl Prober,
        now: SimTime,
    ) -> RetrievalOutcome {
        assert!(!authorities.is_empty(), "authority list must not be empty");
        let mut retrieved = Vec::new();
        let mut check = Self::begin(now);
        loop {
            match self.next(&mut check, authorities) {
                Step::Probe(server) => match prober.probe(server, now) {
                    Some(reply) => {
                        retrieved.extend(reply.messages);
                        self.on_reply(&mut check, server, reply.last_start_time);
                    }
                    None => self.on_unreachable(server),
                },
                Step::Done { polls } => return RetrievalOutcome { polls, retrieved },
            }
        }
    }
}

/// The baseline: poll every authority server, every time.
///
/// # Panics
///
/// Panics if `authorities` is empty: a user with no authority server has
/// no mailbox to poll.
pub fn poll_all(
    authorities: &[NodeId],
    prober: &mut impl Prober,
    now: SimTime,
) -> RetrievalOutcome {
    assert!(!authorities.is_empty(), "authority list must not be empty");
    let mut out = RetrievalOutcome::default();
    for &server in authorities {
        out.polls += 1;
        if let Some(reply) = prober.probe(server, now) {
            out.retrieved.extend(reply.messages);
        }
    }
    out
}

/// An analytic [`Prober`] over a [`FailurePlan`]: servers are up or down
/// exactly as the plan says, `LastStartTime` is derived from the plan's
/// outages, and deposits follow the delivery rule (first alive server in
/// the recipient's list).
///
/// [`FailurePlan`]: lems_sim::failure::FailurePlan
#[derive(Clone, Debug)]
pub struct PlanStore {
    plan: lems_sim::failure::FailurePlan,
    /// NodeId -> ActorId mapping is identity here: experiments index
    /// servers directly by node.
    stored: std::collections::BTreeMap<NodeId, Vec<MessageId>>,
    lost: u64,
}

impl PlanStore {
    /// Creates a store governed by `plan` (node `n` maps to the plan's
    /// actor `n`).
    pub fn new(plan: lems_sim::failure::FailurePlan) -> Self {
        PlanStore {
            plan,
            stored: std::collections::BTreeMap::new(),
            lost: 0,
        }
    }

    fn is_up(&self, server: NodeId, at: SimTime) -> bool {
        self.plan.is_up(lems_sim::actor::ActorId(server.0), at)
    }

    /// `LastStartTime` of `server` as of `at`: the end of the latest outage
    /// that finished at or before `at` (or time zero if none).
    pub(crate) fn last_start_time(&self, server: NodeId, at: SimTime) -> SimTime {
        self.plan
            .outages(lems_sim::actor::ActorId(server.0))
            .iter()
            .filter(|o| o.up_at <= at)
            .map(|o| o.up_at)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Deposits `id` at the first alive server of `authorities` at time
    /// `at` (the delivery rule). Returns the chosen server, or `None` — and
    /// counts the message lost — if every server is down.
    pub fn deposit(
        &mut self,
        authorities: &[NodeId],
        id: MessageId,
        at: SimTime,
    ) -> Option<NodeId> {
        for &s in authorities {
            if self.is_up(s, at) {
                self.stored.entry(s).or_default().push(id);
                return Some(s);
            }
        }
        self.lost += 1;
        None
    }

    /// Deposit attempts that found every server down (bounced, not lost in
    /// storage — the sender is told).
    pub fn undeliverable_count(&self) -> u64 {
        self.lost
    }

    /// Messages still sitting in server storage.
    pub fn in_storage(&self) -> usize {
        self.stored.values().map(Vec::len).sum()
    }
}

impl Prober for PlanStore {
    fn probe(&mut self, server: NodeId, now: SimTime) -> Option<ProbeReply> {
        if !self.is_up(server, now) {
            return None;
        }
        let messages = self.stored.remove(&server).unwrap_or_default();
        Some(ProbeReply {
            last_start_time: self.last_start_time(server, now),
            messages,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lems_sim::actor::ActorId;
    use lems_sim::failure::FailurePlan;

    fn t(u: f64) -> SimTime {
        SimTime::from_units(u)
    }

    fn servers() -> Vec<NodeId> {
        vec![NodeId(0), NodeId(1), NodeId(2)]
    }

    #[test]
    fn steady_state_is_one_poll() {
        let mut store = PlanStore::new(FailurePlan::new());
        let auth = servers();
        let mut st = GetMailState::new();
        // First check ever: walks the whole list (conservative).
        let first = st.get_mail(&auth, &mut store, t(1.0));
        assert_eq!(first.polls, 3);
        // From then on: one poll per check.
        for i in 2..10 {
            store.deposit(&auth, MessageId(i), t(i as f64 - 0.5));
            let out = st.get_mail(&auth, &mut store, t(i as f64));
            assert_eq!(out.polls, 1, "check {i}");
            assert_eq!(out.retrieved, vec![MessageId(i)]);
        }
    }

    #[test]
    fn failover_deposits_are_recovered() {
        let mut plan = FailurePlan::new();
        // Primary down between t=2 and t=6.
        plan.add_outage(ActorId(0), t(2.0), t(6.0)).unwrap();
        let mut store = PlanStore::new(plan);
        let auth = servers();
        let mut st = GetMailState::new();
        let _ = st.get_mail(&auth, &mut store, t(1.0)); // settle

        // Deposited while primary is down -> lands on secondary.
        assert_eq!(
            store.deposit(&auth, MessageId(100), t(3.0)),
            Some(NodeId(1))
        );
        // Check while primary is still down: poll primary (down), then
        // secondary (up, start-time 0 < last check -> finished).
        let out = st.get_mail(&auth, &mut store, t(4.0));
        assert_eq!(out.retrieved, vec![MessageId(100)]);
        assert_eq!(out.polls, 2);
        // Primary is now in PreviouslyUnavailableServers.
        assert_eq!(st.previously_unavailable, BTreeSet::from([NodeId(0)]));

        // After recovery, the next check probes the primary; its
        // LastStartTime (6.0) is newer than our last check (4.0), so the
        // walk continues to the secondary, and PUS is cleared.
        store.deposit(&auth, MessageId(101), t(7.0)); // lands on primary again
        let out = st.get_mail(&auth, &mut store, t(8.0));
        assert!(out.retrieved.contains(&MessageId(101)));
        assert!(st.previously_unavailable.is_empty());
        assert_eq!(store.in_storage(), 0, "no mail left behind");
    }

    #[test]
    fn mail_stranded_on_crashed_server_is_recovered_later() {
        let mut plan = FailurePlan::new();
        plan.add_outage(ActorId(0), t(4.0), t(10.0)).unwrap();
        let mut store = PlanStore::new(plan);
        let auth = servers();
        let mut st = GetMailState::new();
        let _ = st.get_mail(&auth, &mut store, t(1.0));

        // Deposited on the primary before it crashes.
        store.deposit(&auth, MessageId(200), t(3.0));
        // User checks while primary is down; the message is stranded there.
        let out = st.get_mail(&auth, &mut store, t(5.0));
        assert!(out.retrieved.is_empty());
        // Primary recovers; next check drains it (via the early walk since
        // LastStartTime > LastCheckingTime continues the scan, and the PUS
        // sweep as a second line of defence).
        let out = st.get_mail(&auth, &mut store, t(11.0));
        assert_eq!(out.retrieved, vec![MessageId(200)]);
        assert_eq!(store.in_storage(), 0);
    }

    #[test]
    fn poll_all_baseline_always_polls_everything() {
        let mut store = PlanStore::new(FailurePlan::new());
        let auth = servers();
        store.deposit(&auth, MessageId(1), t(0.5));
        let out = poll_all(&auth, &mut store, t(1.0));
        assert_eq!(out.polls, 3);
        assert_eq!(out.retrieved, vec![MessageId(1)]);
        let out2 = poll_all(&auth, &mut store, t(2.0));
        assert_eq!(out2.polls, 3);
        assert!(out2.retrieved.is_empty());
    }

    #[test]
    fn deposit_with_all_servers_down_bounces() {
        let mut plan = FailurePlan::new();
        for i in 0..3 {
            plan.add_outage(ActorId(i), t(1.0), t(9.0)).unwrap();
        }
        let mut store = PlanStore::new(plan);
        let auth = servers();
        assert_eq!(store.deposit(&auth, MessageId(5), t(2.0)), None);
        assert_eq!(store.undeliverable_count(), 1);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_authority_list_panics() {
        let mut store = PlanStore::new(FailurePlan::new());
        let mut st = GetMailState::new();
        let _ = st.get_mail(&[], &mut store, t(1.0));
    }

    /// End-to-end ledger test: random failures, random deposits and
    /// checks; every deposited message is eventually retrieved exactly
    /// once (§5: "no messages will be lost even when some servers fail").
    #[test]
    fn no_message_lost_under_random_failures() {
        use lems_sim::rng::SimRng;
        let rng = SimRng::seed(42);
        for trial in 0..20 {
            let mut trial_rng = rng.fork(&format!("trial{trial}"));
            let actors: Vec<ActorId> = (0..3).map(ActorId).collect();
            let plan = FailurePlan::random(
                &mut trial_rng,
                &actors,
                lems_sim::time::SimDuration::from_units(30.0),
                lems_sim::time::SimDuration::from_units(10.0),
                t(400.0),
            )
            .expect("valid random-plan parameters");
            let mut store = PlanStore::new(plan);
            let auth = servers();
            let mut st = GetMailState::new();
            let mut expected = std::collections::HashSet::<MessageId>::new();
            let mut got: Vec<MessageId> = Vec::new();
            let mut next_id = 0u64;

            let mut time = 0.0;
            while time < 400.0 {
                time += trial_rng.unit() * 5.0 + 0.5;
                if trial_rng.chance(0.6) {
                    let id = MessageId(next_id);
                    next_id += 1;
                    if store.deposit(&auth, id, t(time)).is_some() {
                        expected.insert(id);
                    }
                } else {
                    got.extend(st.get_mail(&auth, &mut store, t(time)).retrieved);
                }
            }
            // Final checks after all outages end (horizon 400): drain.
            got.extend(st.get_mail(&auth, &mut store, t(500.0)).retrieved);
            got.extend(st.get_mail(&auth, &mut store, t(501.0)).retrieved);

            let got_set: std::collections::HashSet<MessageId> = got.iter().copied().collect();
            assert_eq!(
                got.len(),
                got_set.len(),
                "duplicate retrievals (trial {trial})"
            );
            assert_eq!(got_set, expected, "lost/extra mail (trial {trial})");
            assert_eq!(
                store.in_storage(),
                0,
                "mail left in storage (trial {trial})"
            );
        }
    }

    /// A [`PlanStore`] that records which servers were probed, in order.
    struct Recording {
        store: PlanStore,
        probes: Vec<NodeId>,
    }

    impl Prober for Recording {
        fn probe(&mut self, server: NodeId, now: SimTime) -> Option<ProbeReply> {
            self.probes.push(server);
            self.store.probe(server, now)
        }
    }

    #[test]
    fn a_sweep_of_two_servers_probes_the_higher_node_first() {
        let mut plan = FailurePlan::new();
        plan.add_outage(ActorId(0), t(2.0), t(6.0)).unwrap();
        plan.add_outage(ActorId(1), t(3.0), t(8.0)).unwrap();
        plan.add_outage(ActorId(2), t(3.0), t(8.0)).unwrap();
        let mut rec = Recording {
            store: PlanStore::new(plan),
            probes: Vec::new(),
        };
        let auth = servers();
        let mut st = GetMailState::new();
        // The first check walks the list.
        assert_eq!(st.get_mail(&auth, &mut rec, t(1.0)).polls, 3);
        // Primary down, secondary still up: stored on n1, which then
        // crashes with n2.
        assert_eq!(
            rec.store.deposit(&auth, MessageId(7), t(2.5)),
            Some(NodeId(1))
        );
        // 4: everything down, all three recorded. 7: n0 restarted since the
        // last check, so the walk goes on and meets n1 and n2 still down.
        for at in [4.0, 7.0] {
            let out = st.get_mail(&auth, &mut rec, t(at));
            assert_eq!((out.polls, out.retrieved.len()), (3, 0), "check at {at}");
        }
        assert_eq!(
            st.previously_unavailable,
            BTreeSet::from([NodeId(1), NodeId(2)])
        );
        // 9: n0 has been up since before the last check, so the walk ends
        // there and the sweep pops n2, then n1.
        rec.probes.clear();
        let out = st.get_mail(&auth, &mut rec, t(9.0));
        assert_eq!(rec.probes, vec![NodeId(0), NodeId(2), NodeId(1)]);
        assert_eq!(out.polls, 3);
        assert_eq!(out.retrieved, vec![MessageId(7)]);
        assert!(st.previously_unavailable.is_empty());
    }

    /// A `VecDeque` + `BTreeSet` walk, written apart from [`Check`] as the
    /// oracle for `machine_matches_the_queue_and_set_walk`.
    struct QueueSetWalk {
        walk_remaining: std::collections::VecDeque<NodeId>,
        sweep_remaining: Vec<NodeId>,
        probed: BTreeSet<NodeId>,
        polls: u32,
        finished_walk_early: bool,
    }

    impl QueueSetWalk {
        fn next_server(&mut self, previously_unavailable: &BTreeSet<NodeId>) -> Option<NodeId> {
            if (self.walk_remaining.is_empty() || self.finished_walk_early)
                && self.sweep_remaining.is_empty()
            {
                self.sweep_remaining = previously_unavailable
                    .iter()
                    .copied()
                    .filter(|s| !self.probed.contains(s))
                    .collect();
            }
            let walk_next = if self.finished_walk_early {
                None
            } else {
                self.walk_remaining.pop_front()
            };
            let next = walk_next.or_else(|| loop {
                match self.sweep_remaining.pop() {
                    Some(s) if self.probed.contains(&s) => {}
                    other => break other,
                }
            });
            if let Some(server) = next {
                self.polls += 1;
                self.probed.insert(server);
            }
            next
        }
    }

    proptest::proptest! {
        /// Same probe order, same `polls`, same `previously_unavailable`
        /// afterwards, whatever the authority list, the servers that timed
        /// out on earlier checks, and what each probe of this check meets:
        /// a reply (0), a reply that ends the walk early (1), a timeout (2).
        #[test]
        fn machine_matches_the_queue_and_set_walk(
            order in proptest::collection::vec(0u32..1_000, 8),
            list_len in 1usize..=5,
            unavailable in proptest::collection::vec(0usize..8, 0..6),
            outcomes in proptest::collection::vec(0u8..3, 0..12),
        ) {
            use proptest::prelude::*;
            // 1-5 distinct servers out of 8, in an order the sort keys pick.
            let mut servers: Vec<NodeId> = (0..8).map(NodeId).collect();
            servers.sort_by_key(|s| order[s.0]);
            servers.truncate(list_len);
            let unavailable: BTreeSet<NodeId> = unavailable.into_iter().map(NodeId).collect();

            // A server that started before the last check ends the walk;
            // one that started after it does not.
            let mut state = GetMailState {
                last_checking_time: t(10.0),
                previously_unavailable: unavailable.clone(),
            };
            let mut check = GetMailState::begin(t(20.0));
            let mut old = QueueSetWalk {
                walk_remaining: servers.iter().copied().collect(),
                sweep_remaining: Vec::new(),
                probed: BTreeSet::new(),
                polls: 0,
                finished_walk_early: false,
            };
            let mut old_unavailable = unavailable;

            let mut outcomes = outcomes.into_iter().chain(std::iter::repeat(0));
            let polls = loop {
                let oracle = old.next_server(&old_unavailable);
                let server = match state.next(&mut check, &servers) {
                    Step::Done { polls } => {
                        prop_assert_eq!(oracle, None);
                        break polls;
                    }
                    Step::Probe(server) => server,
                };
                prop_assert_eq!(Some(server), oracle);
                // Every server is probed at most once, so the check ends.
                prop_assert!(old.polls <= 8);
                match outcomes.next() {
                    Some(2) => {
                        state.on_unreachable(server);
                        old_unavailable.insert(server);
                    }
                    outcome => {
                        let early = outcome == Some(1);
                        state.on_reply(&mut check, server, t(if early { 5.0 } else { 15.0 }));
                        old_unavailable.remove(&server);
                        old.finished_walk_early |= early;
                    }
                }
            };
            prop_assert_eq!(polls, old.polls);
            prop_assert_eq!(state.previously_unavailable, old_unavailable);
            prop_assert_eq!(state.last_checking_time, t(20.0));
        }
    }
}
