//! Pins the allocation cost of the empty GetMail check.
//!
//! The paper's protocol result is that GetMail polls about one server per
//! check, which makes "a user checks and finds nothing" the operation a
//! mail system runs most. The store's row for the user is wired at build
//! (each server's roster); once every other table entry a check touches
//! exists (the kernel's FIFO clamp rows, the host's session table), a
//! further empty check must not allocate: the host finds the user by the
//! slot the injection carries and the session in a free entry of its
//! table, the session walks the authority list by index, the server's
//! drain returns an unallocated `Vec`, the probe's deadline takes a free
//! row of the host's deadline table, and the reply closes that row
//! without reaching the event queue.
//!
//! CI runs this against the release build (the claim is about optimised
//! code); the budget holds in a debug build too.
//!
//! Lives in `tests/` (its own crate) because `lems-syntax` forbids the
//! `unsafe` a `GlobalAlloc` impl requires; the counting allocator is
//! `tests/support/counting_alloc.rs`, shared by every allocation budget.

use lems_net::generators::fig1;
use lems_sim::time::SimTime;
use lems_syntax::actors::{Deployment, DeploymentConfig};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

/// Further empty checks measured after the warm-up.
const CHECKS: u64 = 2_000;

/// Allocations during a run of [`CHECKS`] warmed-up empty checks on the
/// Figure-1 world with `per_host` users on each of its six hosts.
fn warmed_up_empty_checks(per_host: u32) -> u64 {
    let f = fig1();
    let mut d = Deployment::build(
        &f.topology,
        &[per_host; 6],
        &DeploymentConfig {
            seed: 15,
            ..DeploymentConfig::default()
        },
    );
    let users = d.user_names();

    // Checks come one every 2 units from now on, round-robin over the
    // users: a user's next check starts well after their previous one
    // finished (no two coalesce), and a few users' checks overlap at any
    // instant. Returns when the last of them is long done.
    let mut next = 0usize;
    let mut schedule = |d: &mut Deployment, checks: u64| {
        let start = d.sim.now().as_units() + 1.0;
        for i in 0..checks {
            let at = SimTime::from_units(start + i as f64 * 2.0);
            d.check_at(at, &users[next % users.len()]);
            next += 1;
        }
        SimTime::from_units(start + checks as f64 * 2.0 + 100.0)
    };

    // Warm-up: two checks per user. The first walks the whole authority
    // list and creates every store entry; the second is the steady
    // one-poll check.
    let warm_until = schedule(&mut d, 2 * users.len() as u64);
    d.sim.run_until(warm_until);
    let polls_before = d.stats.borrow().retrieval_polls.count();

    // Injecting allocates (the queue grows to hold the schedule); only the
    // run is measured.
    let until = schedule(&mut d, CHECKS);
    let before = counting_alloc::allocations();
    d.sim.run_until(until);
    let allocs = counting_alloc::allocations() - before;

    let st = d.stats.borrow();
    assert_eq!(st.retrieval_polls.count() - polls_before, CHECKS);
    assert_eq!(st.retrieved, 0, "every check was an empty one");
    allocs
}

#[test]
fn warmed_up_empty_check_allocates_almost_nothing() {
    let allocs = warmed_up_empty_checks(2);
    // The slack is for the calendar queue: the schedule is injected up
    // front, so the ring shrinks several times as it drains and each
    // rebuild allocates a scratch vector and the new bucket array (13
    // allocations at this seed, and one more where a host's session table
    // grows past the most checks it ran at once during the warm-up; one
    // allocation per check would read 2 000). It read 11 while every
    // probe armed a timer of its own: the queue's sorted front then
    // reached 64 entries in the warm-up, and now grows from 8 to 16 in
    // the measured checks. While every bucket was a vector of its own the rebuilds
    // regrew those too and the same run read 374; before the slot-indexed
    // check path, 4 374: a `VecDeque` and a `BTreeSet` node per session,
    // and the cancelled-timer set's rehashes.
    let budget = CHECKS / 50;
    assert!(
        allocs < budget,
        "{CHECKS} warmed-up empty checks allocated {allocs} times (budget {budget})"
    );
}

/// `check_at` hands the host the slot it keeps the user in, so a check
/// reaches its session without a walk of the host's name map; nothing on
/// that path may cost more because the host serves more users. The
/// allocator's view of it: the same 2 000 checks over a hundred times the
/// population allocate no more.
#[test]
fn injected_check_with_a_good_hint_does_not_grow_with_population() {
    let few = warmed_up_empty_checks(2);
    let many = warmed_up_empty_checks(200);
    assert!(
        many <= few + 8,
        "{CHECKS} checks allocated {few} times with 12 users, {many} with 1 200"
    );
}
