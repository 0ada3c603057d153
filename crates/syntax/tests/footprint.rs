//! Pins the live heap a deployment keeps per user.
//!
//! A server keeps mail for the users whose authority list names it
//! (§3.1.1, §3.1.2c), and most of them hold nothing most of the time: a
//! check that finds nothing is the operation a mail system runs most. So
//! what a user costs should be what they hold. Each server's store is
//! wired with its roster in rows of at most 40 bytes, which grow a box
//! only once the user is deposited to; a host's user row carries no
//! retrieval session (one exists only while a check runs) and no heap of
//! its own.
//!
//! The world is `setup_alloc.rs`'s: 5 regions of 12 hosts and 2 servers,
//! 50 users a host, 3 000 users in all. Every user checks once, so every
//! store has met every user it keeps mail for, and the run goes to
//! quiescence. While a store learned its owners one first check at a
//! time, in 120-byte entries and a name map, and every host row carried
//! an inline session and a vector of owner slots, the deployment then held
//! 1 802 bytes per user; wired with rosters it held 1 156, and with each
//! server's view a name-sorted vector of records 1 131 (1 142 with the
//! deployment's own user index). Now that each user is one record in one
//! table of their region, which the directory and the region's servers
//! share, it holds 784. The budget of 1 400 stands.
//!
//! CI runs this against the release build (the claim is about optimised
//! code); the budget holds in a debug build too.
//!
//! Lives in `tests/` (its own crate) because `lems-syntax` forbids the
//! `unsafe` a `GlobalAlloc` impl requires; the counting allocator is
//! `tests/support/counting_alloc.rs`, shared by every allocation budget.

use lems_net::generators::{multi_region, MultiRegionConfig};
use lems_sim::rng::SimRng;
use lems_sim::time::SimTime;
use lems_syntax::actors::{Deployment, DeploymentConfig};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

/// Live heap bytes per user the quiescent deployment may hold.
const BUDGET_PER_USER: i64 = 1_400;

/// Generous for a run of 3 000 checks.
const EVENT_BUDGET: u64 = 1_000_000;

#[test]
fn a_deployment_keeps_what_its_users_hold() {
    let topology = multi_region(
        &mut SimRng::forked(0, "topology"),
        &MultiRegionConfig {
            regions: 5,
            hosts_per_region: 12,
            servers_per_region: 2,
            ..MultiRegionConfig::default()
        },
    );
    let users_per_host = vec![50; topology.hosts().len()];
    let cfg = DeploymentConfig::default();

    let before = counting_alloc::live_bytes();
    let mut d = Deployment::build(&topology, &users_per_host, &cfg);
    let names = d.user_names();
    for (i, user) in names.iter().enumerate() {
        d.check_at(SimTime::from_units(1.0 + i as f64 * 0.1), user);
    }
    assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
    let live = counting_alloc::live_bytes() - before;

    let users = names.len() as i64;
    assert_eq!(users, 3_000);
    assert_eq!(d.stats.borrow().retrieval_polls.count(), 3_000);
    let per_user = live / users;
    assert!(
        per_user <= BUDGET_PER_USER,
        "{users} users keep {live} live bytes, {per_user} each (budget {BUDGET_PER_USER})"
    );
}
