//! SCALE: the §3.1.1 assignment pipeline from the Fig. 1 example to a
//! million users, behind `artifacts/repro-scale.txt`.
//!
//! Each size tier generates a deterministic multi-region topology, builds
//! the shared [`CostMatrix`] once, runs the §3.1.1 solver, and then draws
//! the §3.2.3 authority lists and samples GetMail retrievals off the final
//! assignment — the same solver and list rule `Deployment::build` runs.
//! Every field of a [`TierRow`] is a pure function of the seed (the
//! digests are the proof), so the table is pinned by bytes; how long the
//! solver takes is the `syntax.assign_*` rows of the `benchmark/` ladder,
//! not this module's business.
//!
//! [`CostMatrix`]: lems_net::cost_matrix::CostMatrix

use lems_core::message::MessageId;
use lems_net::cost_matrix::CostMatrix;
use lems_net::generators::{fig1, multi_region, MultiRegionConfig};
use lems_net::graph::NodeId;
use lems_net::topology::Topology;
use lems_sim::failure::FailurePlan;
use lems_sim::rng::SimRng;
use lems_sim::time::SimTime;
use lems_syntax::assign::{authority_lists, solve, AssignmentProblem, BalanceOptions};
use lems_syntax::cost::{CostModel, ServerSpec};
use lems_syntax::getmail::{GetMailState, PlanStore};

/// How a tier's topology is generated.
#[derive(Clone, Copy, Debug)]
pub enum TierTopology {
    /// The paper's Fig. 1 worked example (6 hosts, 3 servers, 270 users).
    Fig1,
    /// A seeded multi-region network.
    MultiRegion {
        /// Regions in the network.
        regions: usize,
        /// Hosts per region.
        hosts_per_region: usize,
        /// Servers per region.
        servers_per_region: usize,
        /// Users on every host.
        users_per_host: u32,
        /// Per-server capacity `M`.
        server_capacity: u32,
    },
}

/// One size tier of the scale experiment.
#[derive(Clone, Copy, Debug)]
pub struct TierSpec {
    /// Tier label, the first column of both tables. It also names the
    /// tier's RNG fork, so renaming a tier moves its digests.
    pub label: &'static str,
    /// Topology recipe.
    pub topology: TierTopology,
}

/// Authority-list length used by every tier's GetMail stage.
pub const LIST_LEN: usize = 3;

/// The seed `repro-scale` runs at.
pub const SEED: u64 = 42;

/// The tier ladder: Fig. 1, then 50k, 200k and a million users (the last
/// on 10k hosts and 500 servers).
pub const TIERS: [TierSpec; 4] = [
    TierSpec {
        label: "fig1",
        topology: TierTopology::Fig1,
    },
    TierSpec {
        label: "smoke-50k",
        topology: TierTopology::MultiRegion {
            regions: 25,
            hosts_per_region: 40,
            servers_per_region: 2,
            users_per_host: 50,
            server_capacity: 1_250,
        },
    },
    TierSpec {
        label: "200k",
        topology: TierTopology::MultiRegion {
            regions: 50,
            hosts_per_region: 80,
            servers_per_region: 4,
            users_per_host: 50,
            server_capacity: 1_250,
        },
    },
    TierSpec {
        label: "1m",
        topology: TierTopology::MultiRegion {
            regions: 50,
            hosts_per_region: 200,
            servers_per_region: 10,
            users_per_host: 100,
            server_capacity: 2_500,
        },
    },
];

/// What one tier produced. Same `seed` ⇒ same row, field for field.
#[derive(Clone, Debug, PartialEq)]
pub struct TierRow {
    /// Tier label.
    pub label: &'static str,
    /// Total users assigned.
    pub users: u64,
    /// Hosts in the topology.
    pub hosts: usize,
    /// Servers in the topology.
    pub servers: usize,
    /// Balancing passes to convergence.
    pub passes: u64,
    /// Accepted transfers.
    pub moves: u64,
    /// Maximum final server utilisation ρ.
    pub rho_max: f64,
    /// Spread `max ρ − min ρ` across servers after balancing.
    pub rho_spread: f64,
    /// Final objective `Σ A_ij · TC_ij`.
    pub total_cost: f64,
    /// FNV-1a fingerprint of the final assignment.
    pub assign_digest: u64,
    /// Mean polls per retrieval over the sampled GetMail runs.
    pub polls_mean: f64,
    /// FNV-1a fingerprint over every distinct authority list's node ids
    /// (one per host and primary server).
    pub lists_digest: u64,
}

fn tier_topology(spec: &TierSpec, seed: u64) -> (Topology, Vec<u32>, ServerSpec) {
    match spec.topology {
        TierTopology::Fig1 => {
            let f = fig1();
            (f.topology, f.users_per_host, ServerSpec::paper_example())
        }
        TierTopology::MultiRegion {
            regions,
            hosts_per_region,
            servers_per_region,
            users_per_host,
            server_capacity,
        } => {
            let mut rng = SimRng::seed(seed).fork(&format!("scale-{}", spec.label));
            let cfg = MultiRegionConfig {
                regions,
                hosts_per_region,
                servers_per_region,
                ..MultiRegionConfig::default()
            };
            let t = multi_region(&mut rng, &cfg);
            let hosts = t.hosts().len();
            (
                t,
                vec![users_per_host; hosts],
                ServerSpec::new(server_capacity, 0.5),
            )
        }
    }
}

/// FNV-1a over a flat sequence of node ids.
fn lists_digest(lists: &[Vec<NodeId>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(lists.len() as u64);
    for list in lists {
        eat(list.len() as u64);
        for n in list {
            eat(n.0 as u64);
        }
    }
    h
}

/// Runs one tier end to end: topology → [`CostMatrix`] → `solve` →
/// `authority_lists` → sampled polls.
pub fn run_tier(spec: &TierSpec, seed: u64) -> TierRow {
    let (topology, users_per_host, server_spec) = tier_topology(spec, seed);
    let problem = AssignmentProblem::from_matrix(
        &topology,
        CostMatrix::build(&topology),
        &users_per_host,
        server_spec,
        CostModel::paper_example(),
    );

    let (assignment, report) = solve(&problem, BalanceOptions::default());

    let users = u64::from(problem.total_users());
    debug_assert_eq!(
        assignment
            .loads()
            .iter()
            .map(|&l| u64::from(l))
            .sum::<u64>(),
        users
    );
    let rhos = (0..problem.server_count()).map(|j| assignment.utilization(&problem, j));
    let rho_max = rhos.clone().fold(0.0_f64, f64::max);
    let rho_min = rhos.fold(f64::INFINITY, f64::min);

    let lists: Vec<Vec<NodeId>> = authority_lists(&problem, &assignment, LIST_LEN)
        .into_iter()
        .flatten()
        .map(|(_, list)| list)
        .collect();

    TierRow {
        label: spec.label,
        users,
        hosts: problem.host_count(),
        servers: problem.server_count(),
        passes: report.passes,
        moves: report.moves,
        rho_max,
        rho_spread: rho_max - rho_min,
        total_cost: report.final_cost,
        assign_digest: assignment.digest(),
        polls_mean: sample_polls(&lists, seed),
        lists_digest: lists_digest(&lists),
    }
}

/// Samples GetMail retrievals over up to 500 of the authority lists
/// (failure-free stores): deposit one message, retrieve it, record polls.
/// The §5 claim is "approximately one" — this stays exactly 1.0 while
/// every primary server is up.
fn sample_polls(lists: &[Vec<NodeId>], seed: u64) -> f64 {
    let mut rng = SimRng::seed(seed).fork("scale-getmail-sample");
    let samples = lists.len().min(500);
    let mut polls = 0u64;
    for s in 0..samples {
        let pick = if lists.len() <= 500 {
            s
        } else {
            rng.index(lists.len())
        };
        let servers = &lists[pick];
        let mut store = PlanStore::new(FailurePlan::new());
        let mut state = GetMailState::new();
        // A user's very first check walks the whole list to establish the
        // checking times; steady-state polling is what the §5 claim is
        // about, so warm up before measuring.
        let _ = state.get_mail(servers, &mut store, SimTime::from_units(0.5));
        let _ = store.deposit(servers, MessageId(s as u64), SimTime::from_units(1.0));
        let out = state.get_mail(servers, &mut store, SimTime::from_units(2.0));
        assert_eq!(out.retrieved.len(), 1, "deposited message must come back");
        polls += u64::from(out.polls);
    }
    polls as f64 / samples.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_tier_matches_paper_shape() {
        let row = run_tier(&TIERS[0], SEED);
        assert_eq!((row.users, row.hosts, row.servers), (270, 6, 3));
        assert!(row.rho_max <= 1.0);
        assert_eq!(row.polls_mean, 1.0);
    }

    #[test]
    fn tiers_are_deterministic_across_runs() {
        let spec = &TIERS[1];
        let a = run_tier(spec, SEED);
        assert_eq!(a, run_tier(spec, SEED));
        assert_eq!((a.users, a.hosts, a.servers), (50_000, 1_000, 50));
        assert!(a.rho_max < 0.999, "a server was left at the wall");
        assert!(a.total_cost > 0.0);
        // A different seed lands elsewhere.
        assert_ne!(a.assign_digest, run_tier(spec, SEED + 1).assign_digest);
    }
}
