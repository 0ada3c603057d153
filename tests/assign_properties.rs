//! Property-based invariants for the §3.1.1 assignment solver and the
//! §3.1.3 reconfiguration procedures:
//!
//! * every user is always assigned (per-host populations are conserved);
//! * balancing never raises the objective;
//! * balancing stops at the rule's fixed point: no host's one-user
//!   `S_max → S_min` move lowers the objective;
//! * on the Fig. 1 network with capacity available, no server is left over
//!   `max_load`, and with headroom the ρ ≤ 0.99 M/M/1 cap is respected —
//!   on random topologies the rule can stop with a server over capacity
//!   (`paper_rule_can_stop_with_a_server_over_capacity`);
//! * add-user / delete-user reconfiguration preserves the above.

use proptest::prelude::*;

use lems::net::generators::{fig1, multi_region, MultiRegionConfig};
use lems::sim::rng::SimRng;
use lems::syntax::assign::transfer_delta;
use lems::syntax::{
    initialize, solve, Assignment, AssignmentProblem, BalanceOptions, CostModel, Reconfigurator,
    ServerSpec,
};

/// The solver's margin below which a move is no gain (`assign`'s
/// `COST_EPS`).
const COST_EPS: f64 = 1e-12;

fn fig1_problem(users: &[u32]) -> AssignmentProblem {
    let f = fig1();
    AssignmentProblem::from_topology(
        &f.topology,
        users,
        ServerSpec::paper_example(),
        CostModel::paper_example(),
    )
}

/// A seeded random two-region problem with ~80% aggregate utilisation.
fn random_problem(seed: u64, hosts_per_region: usize) -> AssignmentProblem {
    let cfg = MultiRegionConfig {
        regions: 2,
        hosts_per_region,
        servers_per_region: 3,
        ..MultiRegionConfig::default()
    };
    let mut rng = SimRng::seed(seed);
    let topology = multi_region(&mut rng, &cfg);
    let users: Vec<u32> = (0..2 * hosts_per_region)
        .map(|_| rng.range::<u64, _>(1..=40) as u32)
        .collect();
    let total: u64 = users.iter().map(|&u| u64::from(u)).sum();
    let capacity = (total * 5 / 4 / 6 + 1).max(2) as u32;
    AssignmentProblem::from_topology(
        &topology,
        &users,
        ServerSpec::new(capacity, 0.5),
        CostModel::paper_example(),
    )
}

fn populations_conserved(p: &AssignmentProblem, a: &Assignment) -> Result<(), String> {
    for i in 0..p.host_count() {
        let placed: u32 = (0..p.server_count()).map(|j| a.count(i, j)).sum();
        if placed != p.hosts[i].users {
            return Err(format!(
                "host {i}: {placed} placed vs {} population",
                p.hosts[i].users
            ));
        }
    }
    Ok(())
}

/// The paper rule's stopping condition: for no host does moving one user
/// from `S_max` (its costliest server holding its users) to a strictly
/// cheaper `S_min` (its cheapest server) at the final loads lower the
/// objective. Servers tied on `TC` propose no move.
fn at_fixed_point(p: &AssignmentProblem, a: &Assignment) -> Result<(), String> {
    for i in 0..p.host_count() {
        let tc = |j: usize| p.tc(i, j, a.load(j));
        let s_min = (0..p.server_count()).min_by(|&x, &y| tc(x).total_cmp(&tc(y)));
        let s_max = (0..p.server_count())
            .filter(|&j| a.count(i, j) > 0)
            .max_by(|&x, &y| tc(x).total_cmp(&tc(y)));
        if let (Some(to), Some(from)) = (s_min, s_max) {
            let delta = transfer_delta(p, a, i, from, to, 1);
            if tc(to) < tc(from) && delta < -COST_EPS {
                return Err(format!(
                    "host {i}: {from} -> {to} changes the cost by {delta}"
                ));
            }
        }
    }
    Ok(())
}

/// On seed 3 with five hosts a region the rule stops with server 5 over
/// its capacity of 35, while server 2 holds one user: no host's
/// `S_max → S_min` move lowers the objective. The paper's last step,
/// `overloaded`, reports it.
#[test]
fn paper_rule_can_stop_with_a_server_over_capacity() {
    let p = random_problem(3, 5);
    let (a, report) = solve(&p, BalanceOptions::default());
    assert!(p.servers.iter().all(|(_, s)| s.max_load == 35));
    assert_eq!(a.loads(), &[30, 30, 1, 34, 34, 37]);
    assert_eq!(a.overloaded(&p), vec![5]);
    assert_eq!(report.moves, 69);
    assert_eq!(a.digest(), 0x86e5_50c2_25b9_4d59);
    assert_eq!(at_fixed_point(&p, &a), Ok(()));
}

proptest! {
    /// Solver invariants on random Fig. 1 populations: users conserved,
    /// cost never raised, and — with capacity available — no overloaded
    /// server and ρ below the cutoff.
    #[test]
    fn scaled_solver_invariants(users in proptest::collection::vec(1u32..45, 6)) {
        let p = fig1_problem(&users);
        let (a, report) = solve(&p, BalanceOptions::default());
        prop_assert!(populations_conserved(&p, &a).is_ok(),
            "{:?}", populations_conserved(&p, &a));
        prop_assert!(report.final_cost <= report.initial_cost + 1e-9);
        if p.total_users() <= p.total_capacity() {
            prop_assert!(a.overloaded(&p).is_empty(),
                "loads {:?} with capacity available", a.loads());
        }
        // With comfortable headroom the ρ ≤ 0.99 cap must hold everywhere.
        if f64::from(p.total_users()) <= 0.9 * f64::from(p.total_capacity()) {
            for j in 0..p.server_count() {
                prop_assert!(a.utilization(&p, j) < p.model.rho_cutoff,
                    "server {} at rho {}", j, a.utilization(&p, j));
            }
        }
    }

    /// On seeded random multi-region topologies: users conserved, cost
    /// never raised, and the rule's fixed point reached. Overload is not
    /// ruled out here (see `paper_rule_can_stop_with_a_server_over_capacity`).
    #[test]
    fn scaled_solver_invariants_on_random_topologies(
        seed in 0u64..4096, hosts_per_region in 4usize..12
    ) {
        let p = random_problem(seed, hosts_per_region);
        let (a, report) = solve(&p, BalanceOptions::default());
        prop_assert!(populations_conserved(&p, &a).is_ok(),
            "{:?}", populations_conserved(&p, &a));
        prop_assert!(report.final_cost <= report.initial_cost);
        prop_assert!(at_fixed_point(&p, &a).is_ok(), "{:?}", at_fixed_point(&p, &a));
    }

    /// §3.1.3a add-user reconfiguration: populations stay consistent, and
    /// as long as capacity still suffices no server ends up overloaded.
    #[test]
    fn reconfig_add_users_preserves_invariants(
        users in proptest::collection::vec(1u32..30, 6),
        host in 0usize..6,
        k in 1u32..40,
    ) {
        let p = fig1_problem(&users);
        let (a, _) = solve(&p, BalanceOptions::default());
        let mut rc = Reconfigurator::new(p, a);
        rc.add_users(host, k);

        let (p, a) = (rc.problem(), rc.assignment());
        prop_assert_eq!(p.hosts[host].users, users[host] + k);
        prop_assert!(populations_conserved(p, a).is_ok(), "{:?}", populations_conserved(p, a));
        prop_assert_eq!(
            a.loads().iter().sum::<u32>(),
            users.iter().sum::<u32>() + k
        );
        if p.total_users() <= p.total_capacity() {
            prop_assert!(a.overloaded(p).is_empty(),
                "loads {:?} with capacity available", a.loads());
        }
    }

    /// §3.1.3a delete-user reconfiguration: exactly `k` users leave the
    /// chosen host, everyone else stays put, and no overload appears.
    #[test]
    fn reconfig_remove_users_preserves_invariants(
        users in proptest::collection::vec(5u32..40, 6),
        host in 0usize..6,
        frac in 1u32..5,
    ) {
        let k = (users[host] * frac / 5).max(1);
        let p = fig1_problem(&users);
        let (a, _) = solve(&p, BalanceOptions::default());
        let before_total: u32 = a.loads().iter().sum();
        let mut rc = Reconfigurator::new(p, a);
        rc.remove_users(host, k);

        let (p, a) = (rc.problem(), rc.assignment());
        prop_assert_eq!(p.hosts[host].users, users[host] - k);
        prop_assert!(populations_conserved(p, a).is_ok(), "{:?}", populations_conserved(p, a));
        prop_assert_eq!(a.loads().iter().sum::<u32>(), before_total - k);
        prop_assert!(a.overloaded(p).is_empty());
    }

    /// Add-then-remove round trip: the population vector returns to its
    /// starting point and the assignment stays internally consistent.
    #[test]
    fn reconfig_round_trip_conserves_populations(
        users in proptest::collection::vec(1u32..30, 6),
        host in 0usize..6,
        k in 1u32..25,
    ) {
        let p = fig1_problem(&users);
        let a = initialize(&p);
        let mut rc = Reconfigurator::new(p, a);
        rc.add_users(host, k);
        rc.remove_users(host, k);
        let (p, a) = (rc.problem(), rc.assignment());
        prop_assert_eq!(p.hosts[host].users, users[host]);
        prop_assert!(populations_conserved(p, a).is_ok(), "{:?}", populations_conserved(p, a));
    }
}
