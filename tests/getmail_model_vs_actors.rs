//! §3.1.2c GetMail is written twice: the analytic
//! `GetMailState::get_mail` over a `PlanStore`, which the experiments and
//! the scale bench use, and the `HostActor` retrieval session
//! (`start_check` / `advance_retrieval` / the `RetrieveReply` arm), which
//! every `Deployment` runs. This test drives both through the same
//! primary-server outage and holds the actors to the model check by
//! check: same polls, same mail, nothing lost.

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

/// `(send at, check at, polls the paper's algorithm needs)`. The primary
/// is down over `[1000, 2000)`, hundreds of units from every send and
/// check, so wire and timeout delays cannot move an event across an edge
/// of the outage.
const SCHEDULE: [(f64, f64, u32); 5] = [
    (100.0, 200.0, 3),   // first check ever: walks the whole list
    (300.0, 400.0, 1),   // steady state
    (1400.0, 1500.0, 2), // primary down: its timeout, then the secondary
    (2400.0, 2500.0, 2), // primary restarted since the last check: walk on
    (2900.0, 3000.0, 1), // steady state again
];

/// Time after a check by which its retrieval session has finished (a dead
/// primary costs a few retransmission timeouts, each a handful of units).
const SETTLE: f64 = 90.0;

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
    plan.add_outage(ActorId(authorities[0].0), t(1000.0), t(2000.0))
        .expect("outage window is well-formed");
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

    for (k, &(send, check, expected_polls)) in SCHEDULE.iter().enumerate() {
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
        assert_eq!(out.retrieved, vec![id], "model, check {k}");
        model_polls += u64::from(out.polls);

        assert_eq!(st.retrieval_polls.count(), k as u64 + 1, "check {k}");
        assert_eq!(poll_total(&st.retrieval_polls), model_polls, "check {k}");
        assert!(st.ledger_retrieved.contains(&id), "check {k}");
        assert_eq!(st.ledger_retrieved.len(), k + 1, "check {k}");
    }

    assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
    let st = d.stats.borrow();
    assert_eq!(st.bounced, 0);
    assert_eq!(st.outstanding(), 0);
    assert_eq!(d.mail_in_storage(), 0);
    assert_eq!(store.undeliverable_count(), 0);
    assert_eq!(store.in_storage(), 0);
}
