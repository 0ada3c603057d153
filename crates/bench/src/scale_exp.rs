//! SCALE: the million-user §3.1.1 assignment pipeline behind
//! `BENCH_assign.json` / `BENCH_getmail.json`.
//!
//! Each size tier generates a deterministic multi-region topology, builds
//! the shared [`CostMatrix`] once, runs the scaled solver, optionally
//! cross-times the paper's classic solver where it is still tractable, and
//! then builds the §3.2.3 authority lists and samples GetMail retrievals
//! off the final assignment. Wall times go into the committed
//! `BENCH_*.json` artifacts; everything except wall time is a pure function
//! of the seed (the digest fields are the proof).
//!
//! [`CostMatrix`]: lems_net::cost_matrix::CostMatrix

use std::time::Instant;

use lems_core::message::MessageId;
use lems_net::cost_matrix::CostMatrix;
use lems_net::generators::{fig1, multi_region, MultiRegionConfig};
use lems_net::graph::NodeId;
use lems_net::topology::Topology;
use lems_sim::failure::FailurePlan;
use lems_sim::rng::SimRng;
use lems_sim::time::SimTime;
use lems_syntax::assign::{
    authority_lists, balance, balance_sync, initialize, Assignment, AssignmentProblem,
    BalanceOptions, ScaleOptions, ScaleReport,
};
use lems_syntax::cost::{CostModel, ServerSpec};
use lems_syntax::getmail::{GetMailState, PlanStore};

use crate::emit::{AssignBench, AssignTier, GetMailBench, GetMailTier, BENCH_SCHEMA_VERSION};

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
    /// Tier label carried into the JSON documents.
    pub label: &'static str,
    /// Topology recipe.
    pub topology: TierTopology,
    /// Whether the classic (full-recompute) solver is timed too — it is
    /// `O(hosts × servers)` per tentative move, so only small tiers can
    /// afford it.
    pub run_classic: bool,
}

/// Authority-list length used by every tier's GetMail stage.
pub const LIST_LEN: usize = 3;

/// The CI smoke subset: Fig. 1 plus the ~50k-user tier, small enough for
/// a sub-minute gate run.
pub fn smoke_tiers() -> Vec<TierSpec> {
    vec![
        TierSpec {
            label: "fig1",
            topology: TierTopology::Fig1,
            run_classic: true,
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
            run_classic: true,
        },
    ]
}

/// The full tier ladder, up to a million users on 10k hosts and 500
/// servers.
pub fn full_tiers() -> Vec<TierSpec> {
    let mut tiers = smoke_tiers();
    tiers.push(TierSpec {
        label: "200k",
        topology: TierTopology::MultiRegion {
            regions: 50,
            hosts_per_region: 80,
            servers_per_region: 4,
            users_per_host: 50,
            server_capacity: 1_250,
        },
        run_classic: false,
    });
    tiers.push(TierSpec {
        label: "1m",
        topology: TierTopology::MultiRegion {
            regions: 50,
            hosts_per_region: 200,
            servers_per_region: 10,
            users_per_host: 100,
            server_capacity: 2_500,
        },
        run_classic: false,
    });
    tiers
}

/// Everything one tier produced: the JSON rows plus the problem and final
/// assignment for callers that want to keep digging.
#[derive(Debug)]
pub struct TierOutput {
    /// Assignment-side measurements.
    pub assign: AssignTier,
    /// GetMail-side measurements.
    pub getmail: GetMailTier,
    /// The solved problem.
    pub problem: AssignmentProblem,
    /// The final assignment.
    pub assignment: Assignment,
    /// The scaled solver's report (trace included).
    pub report: ScaleReport,
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

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1_000.0
}

/// Runs `f` once for its result, then re-times it up to two more times and
/// keeps the minimum wall time. Small tiers finish within a few
/// milliseconds — right at the scheduler's jitter floor — and the CI perf
/// gate compares these numbers, so a single cold sample is too noisy.
/// Tiers past 200 ms are stable relative to the gate tolerance and are
/// not re-run.
fn best_ms<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    let mut best = ms(t0);
    if best < 200.0 {
        for _ in 0..2 {
            let t0 = Instant::now();
            let _ = f();
            best = best.min(ms(t0));
        }
    }
    (out, best)
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

/// Runs one tier end to end. Deterministic modulo the `*_ms` wall times:
/// same `seed` ⇒ same digests, loads, costs, and traces.
pub fn run_tier(spec: &TierSpec, seed: u64) -> TierOutput {
    let (topology, users_per_host, server_spec) = tier_topology(spec, seed);

    let t0 = Instant::now();
    let matrix = CostMatrix::build(&topology);
    let matrix_build_ms = ms(t0);

    let problem = AssignmentProblem::from_matrix(
        &topology,
        matrix,
        &users_per_host,
        server_spec,
        CostModel::paper_example(),
    );

    let t0 = Instant::now();
    let initial = initialize(&problem);
    let init_ms = ms(t0);

    let opts = ScaleOptions::default();

    let ((assignment, report), sync_ms) = best_ms(|| {
        let mut a = initial.clone();
        let r = balance_sync(&problem, &mut a, opts);
        (a, r)
    });

    let classic_ms = if spec.run_classic {
        let t0 = Instant::now();
        let mut a_classic = initial.clone();
        let _ = balance(
            &problem,
            &mut a_classic,
            BalanceOptions {
                batch: opts.batch,
                ..BalanceOptions::default()
            },
        );
        Some(ms(t0))
    } else {
        None
    };

    let loads = assignment.loads();
    let rhos: Vec<f64> = (0..problem.server_count())
        .map(|j| assignment.utilization(&problem, j))
        .collect();
    let rho_max = rhos.iter().copied().fold(0.0_f64, f64::max);
    let rho_min = rhos.iter().copied().fold(f64::INFINITY, f64::min);

    let assign = AssignTier {
        label: spec.label.to_owned(),
        users: u64::from(problem.total_users()),
        hosts: problem.host_count(),
        servers: problem.server_count(),
        matrix_build_ms,
        init_ms,
        classic_ms,
        sync_ms,
        speedup_vs_classic: classic_ms.map(|c| c / sync_ms.max(1e-9)),
        passes: report.passes,
        moves: report.moves,
        rho_max,
        rho_spread: rho_max - rho_min,
        total_cost: report.final_cost,
        digest: format!("{:016x}", assignment.digest()),
    };
    debug_assert_eq!(
        loads.iter().map(|&l| u64::from(l)).sum::<u64>(),
        assign.users
    );

    let t0 = Instant::now();
    let lists = authority_lists(&problem, &assignment, LIST_LEN);
    let build_ms = ms(t0);

    let getmail = GetMailTier {
        label: spec.label.to_owned(),
        users: assign.users,
        hosts: assign.hosts,
        servers: assign.servers,
        list_len: LIST_LEN,
        build_ms,
        polls_mean: sample_polls(&lists, seed),
        digest: format!("{:016x}", lists_digest(&lists)),
    };

    TierOutput {
        assign,
        getmail,
        problem,
        assignment,
        report,
    }
}

/// Samples GetMail retrievals over up to 500 hosts' authority lists
/// (failure-free stores): deposit one message, retrieve it, record polls.
/// The §5 claim is "approximately one" — this stays exactly 1.0 while
/// every primary server is up.
fn sample_polls(lists: &[Vec<NodeId>], seed: u64) -> f64 {
    let mut rng = SimRng::seed(seed).fork("scale-getmail-sample");
    let samples = lists.len().min(500);
    let mut polls = 0u64;
    for s in 0..samples {
        let host = if lists.len() <= 500 {
            s
        } else {
            rng.index(lists.len())
        };
        let servers = &lists[host];
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

/// Runs a tier list into the two `BENCH_*.json` documents.
pub fn run_suite(tiers: &[TierSpec], seed: u64) -> (AssignBench, GetMailBench) {
    let mut assign_tiers = Vec::new();
    let mut getmail_tiers = Vec::new();
    for spec in tiers {
        let out = run_tier(spec, seed);
        assign_tiers.push(out.assign);
        getmail_tiers.push(out.getmail);
    }
    (
        AssignBench {
            schema_version: BENCH_SCHEMA_VERSION,
            experiment: "assign-scale".into(),
            seed,
            tiers: assign_tiers,
        },
        GetMailBench {
            schema_version: BENCH_SCHEMA_VERSION,
            experiment: "getmail-scale".into(),
            seed,
            tiers: getmail_tiers,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_tier_matches_paper_shape() {
        let spec = &smoke_tiers()[0];
        let out = run_tier(spec, 42);
        assert_eq!(out.assign.users, 270);
        assert_eq!(out.assign.hosts, 6);
        assert_eq!(out.assign.servers, 3);
        assert!(out.assign.rho_max <= 1.0);
        assert!(out.assign.classic_ms.is_some());
        assert_eq!(out.getmail.polls_mean, 1.0);
        assert_eq!(out.getmail.list_len, LIST_LEN);
    }

    #[test]
    fn tiers_are_deterministic_across_runs() {
        let spec = &smoke_tiers()[1];
        let a = run_tier(spec, 42);
        let b = run_tier(spec, 42);
        assert_eq!(a.assign.digest, b.assign.digest);
        assert_eq!(a.getmail.digest, b.getmail.digest);
        assert_eq!(a.report.cost_trace, b.report.cost_trace);
        // A different seed lands elsewhere.
        let c = run_tier(spec, 43);
        assert_ne!(a.assign.digest, c.assign.digest);
    }

    #[test]
    fn smoke_suite_builds_well_formed_docs() {
        let (assign, getmail) = run_suite(&smoke_tiers(), 42);
        assert_eq!(assign.tiers.len(), 2);
        assert_eq!(getmail.tiers.len(), 2);
        assert_eq!(assign.experiment, "assign-scale");
        for t in &assign.tiers {
            assert!(
                t.rho_max < 0.999,
                "tier {} left a server at the wall",
                t.label
            );
            assert!(t.total_cost > 0.0);
            assert_eq!(t.digest.len(), 16);
        }
        let smoke = &assign.tiers[1];
        assert_eq!(smoke.users, 50_000);
        assert_eq!(smoke.hosts, 1_000);
        assert_eq!(smoke.servers, 50);
    }
}
