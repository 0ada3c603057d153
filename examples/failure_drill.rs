//! Failure drill: watch the GetMail bookkeeping in action. A user's
//! primary server crashes mid-conversation; mail fails over to the
//! secondary, the primary recovers, and the retrieval algorithm finds
//! everything with near-minimal polling (§3.1.2c).
//!
//! ```sh
//! cargo run --example failure_drill
//! ```

use lems::core::MessageId;
use lems::net::NodeId;
use lems::sim::actor::ActorId;
use lems::sim::failure::FailurePlan;
use lems::sim::time::SimTime;
use lems::syntax::getmail::{poll_all, GetMailState, PlanStore};

fn main() {
    // Three authority servers; the primary fails between t=10 and t=30.
    let authorities = vec![NodeId(0), NodeId(1), NodeId(2)];
    let mut plan = FailurePlan::new();
    plan.add_outage(
        ActorId(0),
        SimTime::from_units(10.0),
        SimTime::from_units(30.0),
    )
    .expect("outage window is well-formed");
    let mut store = PlanStore::new(plan.clone());
    let mut state = GetMailState::new();
    let t = SimTime::from_units;

    println!("timeline (primary = S0, down in [10, 30)):\n");

    // Settle: the first-ever check walks the whole list.
    let out = state.get_mail(&authorities, &mut store, t(1.0));
    println!(
        "t= 1.0  first check:        {} polls (walks the full list once)",
        out.polls
    );

    store.deposit(&authorities, MessageId(1), t(5.0));
    let out = state.get_mail(&authorities, &mut store, t(6.0));
    println!(
        "t= 6.0  normal check:       {} poll(s), got {:?} — the paper's 'approximately one'",
        out.polls,
        out.retrieved.iter().map(|m| m.0).collect::<Vec<_>>()
    );

    // Primary goes down; mail lands on the secondary.
    let srv = store
        .deposit(&authorities, MessageId(2), t(12.0))
        .expect("secondary is up");
    println!("t=12.0  deposit while S0 down -> stored on n{}", srv.0);

    let out = state.get_mail(&authorities, &mut store, t(15.0));
    println!(
        "t=15.0  check during outage: {} polls (S0 timeout + S1), got {:?}; S0 noted as previously unavailable",
        out.polls,
        out.retrieved.iter().map(|m| m.0).collect::<Vec<_>>()
    );

    // Mail deposited on the secondary *while we are not looking*, and the
    // primary recovers before the next check.
    store.deposit(&authorities, MessageId(3), t(20.0));
    println!("t=20.0  deposit while S0 still down -> stored on secondary");
    println!("t=30.0  S0 recovers (its LastStartTime becomes 30.0)");

    let out = state.get_mail(&authorities, &mut store, t(35.0));
    println!(
        "t=35.0  check after recovery: {} polls, got {:?}",
        out.polls,
        out.retrieved.iter().map(|m| m.0).collect::<Vec<_>>()
    );
    println!("        (S0's LastStartTime 30.0 > our last check 15.0, so the walk");
    println!("         continued past S0 and drained the secondary — nothing lost)");

    let out = state.get_mail(&authorities, &mut store, t(40.0));
    println!("t=40.0  steady state again: {} poll(s)", out.polls);

    // Compare with the naive baseline.
    let mut naive_store = PlanStore::new(plan);
    let naive = poll_all(&authorities, &mut naive_store, t(40.0));
    println!(
        "\nbaseline poll-all pays {} polls on every single check, forever.",
        naive.polls
    );
    assert_eq!(store.in_storage(), 0);
    println!("ledger: all deposited mail retrieved; server storage empty.");
}
