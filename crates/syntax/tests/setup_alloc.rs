//! Pins the allocation cost of wiring a deployment.
//!
//! §2 partially replicates the name database: every server holds the
//! records of the users it is an authority for and the authority lists of
//! every user of its region. `Deployment::build` builds each replicated
//! table once and shares it — authority lists are reference-counted
//! slices, a region's servers share one index, each server's view is moved
//! out of the partition rather than copied — so set-up costs a few
//! allocations per user, most of them the user's name and the nodes of
//! the tables that find users by name.
//!
//! The world is the benchmark ladder's shape, smaller: 5 regions of 12
//! hosts and 2 servers, 50 users a host, 3 000 users in all. Before the
//! tables were shared, building it allocated 58 157 times (19.4 per user):
//! a fresh `Vec` and a hash set per authority-list copy, a clone of every
//! view and of every region index per server. Shared, it allocated 16 031
//! times (5.3 per user: the name and its formatting buffer, the host's
//! per-user session state, and the table nodes). Since the host's row
//! keeps its owner slots inline it allocated 12 711 times (4.2 per user);
//! each server's store is wired with its roster in one allocation. Since
//! a server's view is a name-sorted vector of records rather than a
//! B-tree, which the partition fills in one pass and which doubles as the
//! store's roster order, it allocates 11 861 times (4.0 per user): the
//! name and its formatting buffer, the host's row, the region indexes'
//! nodes, and a few growth steps per view. The budget of 5 per user
//! leaves about one allocation per user of room: the host's row taking a
//! heap allocation of its own again, say for its wired slots, would
//! spend all of it.
//!
//! CI runs this against the release build (the claim is about optimised
//! code); the budget holds in a debug build too.
//!
//! Lives in `tests/` (its own crate) because `lems-syntax` forbids the
//! `unsafe` a `GlobalAlloc` impl requires — the `crates/sim/tests/
//! zero_alloc.rs` pattern.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lems_net::generators::{multi_region, MultiRegionConfig};
use lems_sim::rng::SimRng;
use lems_syntax::actors::{Deployment, DeploymentConfig};

thread_local! {
    /// Allocations made by this thread. The code measured runs on the
    /// test's own thread, so nothing another thread of the test binary
    /// allocates reaches the count.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

#[global_allocator]
static GLOBAL: Counting = Counting;

struct Counting;

// SAFETY: delegates every operation verbatim to `System`; the counter is a
// `const`-initialised thread-local `Cell` without a destructor, so
// touching it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

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

    let before = ALLOCS.with(Cell::get);
    let d = Deployment::build(&topology, &users_per_host, &cfg);
    let allocs = ALLOCS.with(Cell::get) - before;

    assert_eq!(d.user_names().len() as u64, users);
    let budget = BUDGET_PER_USER * users;
    assert!(
        allocs <= budget,
        "building {users} users allocated {allocs} times (budget {budget})"
    );
}
