//! Pins the allocation cost of wiring a deployment.
//!
//! §2 partially replicates the name database: every server can find the
//! authority servers of every user of its region, and keeps mail for the
//! users whose authority list names it. `Deployment::build` builds each
//! replicated table once and shares it — authority lists are
//! reference-counted slices, and a region's servers resolve through the
//! directory's own table of the region — so set-up costs a few
//! allocations per user, most of them the user's name.
//!
//! The world is the benchmark ladder's shape, smaller: 5 regions of 12
//! hosts and 2 servers, 50 users a host, 3 000 users in all. Before the
//! tables were shared, building it allocated 58 157 times (19.4 per user):
//! a fresh `Vec` and a hash set per authority-list copy, a clone of every
//! view and of every region index per server. Shared, it allocated 16 031
//! times (5.3 per user: the name and its formatting buffer, the host's
//! per-user session state, and the table nodes). Since the host's row
//! keeps its owner slots inline it allocated 12 711 times (4.2 per user);
//! each server's store is wired with its roster in one allocation. With
//! each server's own name-sorted view of its users beside its region's
//! B-tree index, the directory's and a user table, it allocated 11 862
//! times (4.0 per user). Now that one table per region serves the
//! directory and the region's servers, it allocates 10 790 times (3.6 per
//! user): the name and its formatting buffer, the host's row, and a few
//! growth steps per table and roster. The budget of 5 per user leaves
//! more than one allocation per user of room: the host's row taking a
//! heap allocation of its own again, say for its wired slots, would spend
//! most of it.
//!
//! CI runs this against the release build (the claim is about optimised
//! code); the budget holds in a debug build too.
//!
//! Lives in `tests/` (its own crate) because `lems-syntax` forbids the
//! `unsafe` a `GlobalAlloc` impl requires; the counting allocator is
//! `tests/support/counting_alloc.rs`, shared by every allocation budget.

use lems_net::generators::{multi_region, MultiRegionConfig};
use lems_sim::rng::SimRng;
use lems_syntax::actors::{Deployment, DeploymentConfig};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

/// Allocations per user `Deployment::build` may make.
const BUDGET_PER_USER: u64 = 5;

#[test]
fn building_a_deployment_allocates_a_few_times_per_user() {
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
    let users: u64 = users_per_host.iter().map(|&n| u64::from(n)).sum();
    let cfg = DeploymentConfig::default();

    let before = counting_alloc::allocations();
    let d = Deployment::build(&topology, &users_per_host, &cfg);
    let allocs = counting_alloc::allocations() - before;

    assert_eq!(d.user_names().len() as u64, users);
    let budget = BUDGET_PER_USER * users;
    assert!(
        allocs <= budget,
        "building {users} users allocated {allocs} times (budget {budget})"
    );
}
