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
//! are ever lost; `repro-getmail` measures both.

use std::collections::BTreeSet;

use lems_core::message::MessageId;
use lems_net::graph::NodeId;
use lems_sim::time::SimTime;

/// Reply from probing one server.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProbeReply {
    /// The server's `LastStartTime`: when it last recovered or booted.
    pub last_start_time: SimTime,
    /// The stored messages for the user, drained by the probe.
    pub messages: Vec<MessageId>,
}

/// The storage side GetMail talks to: either simulated servers or the
/// analytic [`PlanStore`] used by experiments.
pub trait MailStore {
    /// Polls `server` at `now` on behalf of one user. Returns `None` when
    /// the server is down or unreachable; otherwise drains and returns the
    /// user's stored mail along with the server's `LastStartTime`.
    fn probe(&mut self, server: NodeId, now: SimTime) -> Option<ProbeReply>;
}

/// Per-user retrieval bookkeeping (lives in the user interface).
#[derive(Clone, Debug, Default)]
pub struct GetMailState {
    last_checking_time: SimTime,
    previously_unavailable: BTreeSet<NodeId>,
}

/// What one retrieval accomplished.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RetrievalOutcome {
    /// Probe attempts made (alive or not) — the cost the paper compares
    /// against the poll-everything baseline.
    pub polls: u32,
    /// Messages retrieved, in probe order.
    pub retrieved: Vec<MessageId>,
    /// True if the walk reached the end of the authority list without the
    /// early-exit condition firing (first check, or every server restarted
    /// since the last check).
    pub exhausted_list: bool,
}

impl GetMailState {
    /// Creates fresh state (no checks yet).
    pub fn new() -> Self {
        GetMailState::default()
    }

    /// When the user last checked mail.
    pub fn last_checking_time(&self) -> SimTime {
        self.last_checking_time
    }

    /// Servers recorded as previously unavailable.
    pub fn previously_unavailable(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.previously_unavailable.iter().copied()
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
        store: &mut impl MailStore,
        now: SimTime,
    ) -> RetrievalOutcome {
        assert!(!authorities.is_empty(), "authority list must not be empty");
        let current_checking_time = now;
        let mut out = RetrievalOutcome::default();
        let mut finished = false;
        let mut probed_this_check: BTreeSet<NodeId> = BTreeSet::new();

        for &server in authorities {
            if finished {
                break;
            }
            out.polls += 1;
            probed_this_check.insert(server);
            match store.probe(server, now) {
                Some(reply) => {
                    out.retrieved.extend(reply.messages);
                    self.previously_unavailable.remove(&server);
                    if self.last_checking_time > reply.last_start_time {
                        finished = true;
                    }
                }
                None => {
                    self.previously_unavailable.insert(server);
                }
            }
        }
        out.exhausted_list = !finished;

        // Drain old mail from servers that were unavailable at earlier
        // checks and are reachable again now. Servers already probed during
        // the walk above are skipped: alive ones were drained there, dead
        // ones stay recorded for next time.
        let pending: Vec<NodeId> = self
            .previously_unavailable
            .iter()
            .copied()
            .filter(|s| !probed_this_check.contains(s))
            .collect();
        for server in pending {
            out.polls += 1;
            if let Some(reply) = store.probe(server, now) {
                out.retrieved.extend(reply.messages);
                self.previously_unavailable.remove(&server);
            }
        }

        self.last_checking_time = current_checking_time;
        out
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
    store: &mut impl MailStore,
    now: SimTime,
) -> RetrievalOutcome {
    assert!(!authorities.is_empty(), "authority list must not be empty");
    let mut out = RetrievalOutcome::default();
    for &server in authorities {
        out.polls += 1;
        if let Some(reply) = store.probe(server, now) {
            out.retrieved.extend(reply.messages);
        }
    }
    out.exhausted_list = true;
    out
}

/// An analytic [`MailStore`] over a [`FailurePlan`]: servers are up or down
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
    deposited: u64,
    lost: u64,
}

impl PlanStore {
    /// Creates a store governed by `plan` (node `n` maps to the plan's
    /// actor `n`).
    pub fn new(plan: lems_sim::failure::FailurePlan) -> Self {
        PlanStore {
            plan,
            stored: std::collections::BTreeMap::new(),
            deposited: 0,
            lost: 0,
        }
    }

    fn is_up(&self, server: NodeId, at: SimTime) -> bool {
        self.plan.is_up(lems_sim::actor::ActorId(server.0), at)
    }

    /// `LastStartTime` of `server` as of `at`: the end of the latest outage
    /// that finished at or before `at` (or time zero if none).
    pub fn last_start_time(&self, server: NodeId, at: SimTime) -> SimTime {
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
                self.deposited += 1;
                return Some(s);
            }
        }
        self.lost += 1;
        None
    }

    /// Messages successfully deposited so far.
    pub fn deposited_count(&self) -> u64 {
        self.deposited
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

impl MailStore for PlanStore {
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
        assert!(first.exhausted_list);
        // From then on: one poll per check.
        for i in 2..10 {
            store.deposit(&auth, MessageId(i), t(i as f64 - 0.5));
            let out = st.get_mail(&auth, &mut store, t(i as f64));
            assert_eq!(out.polls, 1, "check {i}");
            assert_eq!(out.retrieved, vec![MessageId(i)]);
            assert!(!out.exhausted_list);
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
        assert_eq!(
            st.previously_unavailable().collect::<Vec<_>>(),
            vec![NodeId(0)]
        );

        // After recovery, the next check probes the primary; its
        // LastStartTime (6.0) is newer than our last check (4.0), so the
        // walk continues to the secondary, and PUS is cleared.
        store.deposit(&auth, MessageId(101), t(7.0)); // lands on primary again
        let out = st.get_mail(&auth, &mut store, t(8.0));
        assert!(out.retrieved.contains(&MessageId(101)));
        assert!(st.previously_unavailable().next().is_none());
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
        assert_eq!(store.deposited_count(), 0);
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
}
