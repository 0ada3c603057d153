//! Differential harness for the §3.1.1 assignment solver (`solve`) on the
//! two routes into it: the paper's Fig. 1 worked example built through the
//! scale path (`CostMatrix` + `from_matrix`, as `repro-scale` builds it)
//! must reproduce Table 1 and balance to the very assignment the
//! `from_topology` route (as `Deployment::build` builds it) reaches, and
//! the solved-assignment invariants must hold on 20 seeded random
//! multi-region topologies from 6 hosts up to 2 000 hosts.

use lems::net::cost_matrix::CostMatrix;
use lems::net::generators::{fig1, multi_region, MultiRegionConfig};
use lems::sim::rng::SimRng;
use lems::syntax::{initialize, solve, Assignment, AssignmentProblem, BalanceOptions};
use lems::syntax::{CostModel, ServerSpec};

/// One randomized differential case: a seeded multi-region topology with
/// seeded per-host populations and a capacity that comfortably fits them.
struct Case {
    seed: u64,
    regions: usize,
    hosts_per_region: usize,
    servers_per_region: usize,
    max_users_per_host: u32,
}

impl Case {
    const fn new(
        seed: u64,
        regions: usize,
        hosts_per_region: usize,
        servers_per_region: usize,
        max_users_per_host: u32,
    ) -> Self {
        Case {
            seed,
            regions,
            hosts_per_region,
            servers_per_region,
            max_users_per_host,
        }
    }

    fn build(&self) -> AssignmentProblem {
        let cfg = MultiRegionConfig {
            regions: self.regions,
            hosts_per_region: self.hosts_per_region,
            servers_per_region: self.servers_per_region,
            ..MultiRegionConfig::default()
        };
        let mut rng = SimRng::seed(self.seed);
        let topology = multi_region(&mut rng, &cfg);
        let hosts = self.regions * self.hosts_per_region;
        let users: Vec<u32> = (0..hosts)
            .map(|_| rng.range::<u64, _>(1..=u64::from(self.max_users_per_host)) as u32)
            .collect();
        // Size capacity so the total fits at ~80% aggregate utilisation,
        // where every server should end below the M/M/1 cutoff, which
        // `solved_invariants` asserts on these cases.
        let servers = self.regions * self.servers_per_region;
        let total: u64 = users.iter().map(|&u| u64::from(u)).sum();
        let capacity = (total * 5 / 4 / servers as u64 + 1).max(2) as u32;
        AssignmentProblem::from_topology(
            &topology,
            &users,
            ServerSpec::new(capacity, 0.5),
            CostModel::paper_example(),
        )
    }
}

/// The ≥20 seeded topologies required by the harness, spanning 6 hosts
/// (a single tiny region) to 2 000 hosts across 40 regions.
fn cases() -> Vec<Case> {
    vec![
        Case::new(1, 1, 6, 3, 60),
        Case::new(2, 1, 6, 3, 60),
        Case::new(3, 1, 8, 2, 40),
        Case::new(4, 2, 5, 2, 40),
        Case::new(5, 2, 10, 3, 40),
        Case::new(6, 3, 10, 3, 40),
        Case::new(7, 4, 6, 3, 50),
        Case::new(8, 4, 6, 3, 50),
        Case::new(9, 4, 15, 3, 30),
        Case::new(10, 5, 20, 2, 30),
        Case::new(11, 5, 20, 4, 30),
        Case::new(12, 8, 25, 3, 25),
        Case::new(13, 8, 25, 3, 25),
        Case::new(14, 10, 30, 4, 25),
        Case::new(15, 10, 50, 4, 20),
        Case::new(16, 16, 50, 3, 20),
        Case::new(17, 20, 60, 4, 15),
        Case::new(18, 25, 64, 4, 12),
        Case::new(19, 32, 50, 4, 12),
        Case::new(20, 40, 50, 2, 10),
    ]
}

fn solved_invariants(label: &str, p: &AssignmentProblem, a: &Assignment) {
    for i in 0..p.host_count() {
        let placed: u32 = (0..p.server_count()).map(|j| a.count(i, j)).sum();
        assert_eq!(
            placed, p.hosts[i].users,
            "{label}: host {i} population changed"
        );
    }
    assert!(
        a.overloaded(p).is_empty(),
        "{label}: capacity suffices yet a server is over max_load"
    );
    for j in 0..p.server_count() {
        assert!(
            a.utilization(p, j) < p.model.rho_cutoff,
            "{label}: server {j} left at or above the M/M/1 cutoff"
        );
    }
}

fn fig1_through_scale_path() -> AssignmentProblem {
    // The Fig. 1 problem through the explicit CostMatrix route the
    // million-user pipeline uses.
    let f = fig1();
    AssignmentProblem::from_matrix(
        &f.topology,
        CostMatrix::build(&f.topology),
        &f.users_per_host,
        ServerSpec::paper_example(),
        CostModel::paper_example(),
    )
}

#[test]
fn fig1_table1_initialisation_through_scale_path() {
    let p = fig1_through_scale_path();
    let a = initialize(&p);
    assert_eq!(a.count(0, 0), 50);
    assert_eq!(a.count(1, 1), 60);
    assert_eq!(a.count(2, 0), 50);
    assert_eq!(a.count(3, 1), 50);
    assert_eq!(a.count(4, 1), 40);
    assert_eq!(a.count(5, 2), 20);
    assert_eq!(a.loads(), &[100, 150, 20]);
    assert_eq!(a.overloaded(&p), vec![1]);
}

#[test]
fn fig1_table2_balancing_through_scale_path() {
    let p = fig1_through_scale_path();
    let (a, report) = solve(&p, BalanceOptions::default());
    // Table 2's qualitative contract: all 270 users placed, S2's overload
    // drained below the M/M/1 cutoff, objective strictly improved.
    assert_eq!(a.loads().iter().sum::<u32>(), 270);
    solved_invariants("fig1", &p, &a);
    assert!(report.final_cost < report.initial_cost);
    // And the route `Deployment::build` takes reaches the same assignment.
    let f = fig1();
    let q = AssignmentProblem::from_topology(
        &f.topology,
        &f.users_per_host,
        ServerSpec::paper_example(),
        CostModel::paper_example(),
    );
    let (b, _) = solve(&q, BalanceOptions::default());
    assert_eq!(a.digest(), b.digest());
}

#[test]
fn solved_invariants_hold_on_twenty_seeded_topologies() {
    let cases = cases();
    assert!(cases.len() >= 20);
    for c in &cases {
        let p = c.build();
        let label = format!(
            "seed {} ({} hosts x {} servers)",
            c.seed,
            p.host_count(),
            p.server_count()
        );
        let (a, report) = solve(&p, BalanceOptions::default());
        solved_invariants(&label, &p, &a);
        assert!(report.passes > 0, "{label}: solver did no work");
    }
}

#[test]
fn digest_is_seed_sensitive() {
    // Same seed twice => same digest; different seed => (here) different.
    let d = |seed| {
        let p = Case::new(seed, 4, 10, 3, 30).build();
        solve(&p, BalanceOptions::default()).0.digest()
    };
    assert_eq!(d(5), d(5));
    assert_ne!(d(5), d(6));
}

/// The paper rule keeps a move only if it strictly lowers the objective.
/// On case 18, host 456's one-user move 28 → 31 changes the total by
/// exactly zero, while recomputing the 1.47e9 total before and after
/// reads −2.4e-7 of round-off. An accept test on the two sums takes that
/// for a gain (551 moves); judged by its exact change the move is
/// refused.
#[test]
fn paper_rule_refuses_a_zero_gain_move_on_case_18() {
    let c = cases().into_iter().find(|c| c.seed == 18).expect("case 18");
    let p = c.build();
    let (a, report) = solve(&p, BalanceOptions::default());
    assert_eq!(report.moves, 550);
    assert_eq!(a.digest(), 0x5947_db9f_089d_e2e0);
}
