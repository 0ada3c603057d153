//! §3.1.2c GetMail is written once, as `getmail::GetMailState`'s step
//! machine, and driven twice: by `GetMailState::get_mail` over a
//! `PlanStore`, which the experiments and the scale bench use, and by the
//! `HostActor`'s retrieval session, which every `Deployment` runs. The walk,
//! the sweep and the early-exit test are therefore the same by
//! construction. What construction does not guarantee is that the two
//! sides feed the machine the same verdicts: the model asks the failure
//! plan whether a server is up, the actor concludes it from replies,
//! timeouts and retransmissions over the network. This test drives both
//! through the same outages — a primary outage, then one that leaves mail
//! on a secondary for a later check to sweep from two servers — and holds
//! the actors to the model check by check: same polls, same mail, nothing
//! lost.

use std::collections::BTreeSet;

use lems::core::MessageId;
use lems::net::generators::fig1;
use lems::net::NodeId;
use lems::sim::actor::ActorId;
use lems::sim::failure::FailurePlan;
use lems::sim::metrics::Summary;
use lems::sim::time::{SimDuration, SimTime};
use lems::syntax::getmail::{GetMailState, PlanStore};
use lems::syntax::{Deployment, DeploymentConfig, ServerFailurePlan};

/// The run quiesces far below this; exhausting it means a stuck retry
/// loop, which must fail the test rather than hang it.
const EVENT_BUDGET: u64 = 2_000_000;

/// `(send at, check at, polls the paper's algorithm needs, messages the
/// check retrieves)`. The primary is down over `[1000, 2000)` and
/// `[3200, 3500)`, both secondaries over `[3600, 4600)`: hundreds of units
/// from every send and check, so wire and timeout delays cannot move an
/// event across an edge of an outage.
const SCHEDULE: [(f64, f64, u32, usize); 8] = [
    (100.0, 200.0, 3, 1),   // first check ever: walks the whole list
    (400.0, 500.0, 1, 1),   // steady state
    (1400.0, 1500.0, 2, 1), // primary down: its timeout, then the secondary
    (2400.0, 2500.0, 2, 1), // primary restarted since the last check: walk on
    (2900.0, 3000.0, 1, 1), // steady state again
    // Sent while the primary is down, so stored on the secondary, which is
    // down by the check. The primary restarted since the last check, so the
    // walk goes on and both secondaries time out.
    (3300.0, 3700.0, 3, 0),
    // The primary has been up since the last check, so the walk stops
    // there; the sweep drains both secondaries, the held message included.
    (4800.0, 4900.0, 3, 2),
    (5400.0, 5500.0, 1, 1), // steady state again
];

/// Time after a check by which its retrieval session has finished (a dead
/// server costs three retransmission timeouts, each a handful of units).
const SETTLE: f64 = 150.0;

fn poll_total(polls: &Summary) -> u64 {
    (polls.mean() * polls.count() as f64).round() as u64
}

#[test]
fn actor_retrieval_matches_the_analytic_model_through_a_primary_outage() {
    let f = fig1();
    let mut d = Deployment::build(
        &f.topology,
        &[1, 0, 0, 0, 0, 0],
        &DeploymentConfig {
            seed: 11,
            ..DeploymentConfig::default()
        },
    );
    let user = d.user_names().remove(0);
    let authorities: Vec<NodeId> = d
        .directory
        .by_name(&user)
        .expect("the one user is registered")
        .authorities
        .servers()
        .to_vec();
    assert_eq!(authorities.len(), 3);

    // One plan, addressed by node index, applied to both sides.
    let t = SimTime::from_units;
    let mut plan = FailurePlan::new();
    for (server, down, up) in [
        (0, 1000.0, 2000.0),
        (0, 3200.0, 3500.0),
        (1, 3600.0, 4600.0),
        (2, 3600.0, 4600.0),
    ] {
        plan.add_outage(ActorId(authorities[server].0), t(down), t(up))
            .expect("outage window is well-formed");
    }
    let mut server_plan = ServerFailurePlan::new();
    for actor in plan.affected_actors() {
        for o in plan.outages(actor) {
            server_plan.add(NodeId(actor.0), o.down_at, o.up_at);
        }
    }
    d.apply_server_failures(&server_plan);

    let mut store = PlanStore::new(plan);
    let mut model = GetMailState::new();
    let mut model_polls = 0u64;
    let mut retrieved = BTreeSet::new();

    for (k, &(send, check, expected_polls, expected_mail)) in SCHEDULE.iter().enumerate() {
        d.send_at(t(send), &user, &user);
        d.check_at(t(check), &user);
        d.sim.run_until(t(check) + SimDuration::from_units(SETTLE));

        let st = d.stats.borrow();
        // One host allocates every id, so the newest is the largest.
        let id = *st.ledger_submitted.iter().next_back().expect("sent");
        assert_eq!(st.ledger_submitted.len(), k + 1);

        assert!(store.deposit(&authorities, id, t(send)).is_some());
        let out = model.get_mail(&authorities, &mut store, t(check));
        assert_eq!(out.polls, expected_polls, "model, check {k}");
        assert_eq!(out.retrieved.len(), expected_mail, "model, check {k}");
        model_polls += u64::from(out.polls);

        assert_eq!(st.retrieval_polls.count(), k as u64 + 1, "check {k}");
        assert_eq!(poll_total(&st.retrieval_polls), model_polls, "check {k}");
        let new: BTreeSet<MessageId> = st
            .ledger_retrieved
            .difference(&retrieved)
            .copied()
            .collect();
        assert_eq!(new, out.retrieved.into_iter().collect(), "check {k}");
        retrieved.extend(new);
    }

    assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
    let st = d.stats.borrow();
    assert_eq!(st.bounced, 0);
    assert_eq!(st.outstanding(), 0);
    assert_eq!(d.mail_in_storage(), 0);
    assert_eq!(store.undeliverable_count(), 0);
    assert_eq!(store.in_storage(), 0);
}
