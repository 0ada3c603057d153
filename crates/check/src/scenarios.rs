//! The scenarios `lems-check` runs, as data.
//!
//! A [`Scenario`] is a name, a description and a builder that wires a
//! deployment with trace, spans and the kernel profiler on and applies
//! its workload, outages and chaos without running it. [`AUDIT`] holds
//! the scenarios `lems-check audit` runs once each; [`EXPLORE`] the tiny
//! worlds `lems-check explore` drives through every schedule. Both hand
//! every terminal run to [`verdict`].
//!
//! The scenarios are seeds-in, verdict-out: replaying one with the same
//! seed reproduces the identical event stream, which is what makes a
//! reported violation actionable.

use lems_locindep::roaming_deployment;
use lems_net::generators::{fig1, multi_region, MultiRegionConfig};
use lems_obs::export::{export_jsonl, RunTelemetry};
use lems_sim::linkfault::LinkProfile;
use lems_sim::rng::SimRng;
use lems_sim::time::{SimDuration, SimTime};
use lems_store::{DurabilityConfig, WalConfig};
use lems_syntax::actors::{
    Deployment, DeploymentConfig, LinkChaos, ServerFailurePlan, SessionConfig,
};

use crate::audit::verdict;

/// Event budget for one audit run: chaos plans can in principle make a
/// retry loop diverge, so scenarios run bounded and report budget
/// exhaustion as a violation instead of hanging the audit.
pub const EVENT_BUDGET: u64 = 2_000_000;

/// One reproducible scenario.
#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    /// Stable scenario name (CLI selector, telemetry run name).
    pub name: &'static str,
    /// One-line human description.
    pub description: &'static str,
    /// Builds the deployment for a seed, workload injected, not yet run.
    pub build: fn(u64) -> Deployment,
}

/// The scenarios `lems-check audit` runs, once each.
pub static AUDIT: &[Scenario] = &[
    Scenario {
        name: "steady",
        description: "Fig. 1 topology, no failures: ring of sends, then everyone checks",
        build: steady,
    },
    Scenario {
        name: "failover",
        description: "Fig. 1 primary server down in [10, 30): failover, recovery, drain",
        build: failover,
    },
    Scenario {
        name: "random-failures",
        description: "Fig. 1 with random server outages (MTBF 120, MTTR 15): load + drain",
        build: random_failures,
    },
    Scenario {
        name: "chaos-lossy",
        description: "Fig. 1 with 8% loss, 2% duplication, jitter until t=300: load + drain",
        build: chaos_lossy,
    },
    Scenario {
        name: "chaos-partition",
        description: "Fig. 1 with 5% loss + jitter and a flapping partition of server 0",
        build: chaos_partition,
    },
    Scenario {
        name: "chaos-crash-loss",
        description: "Fig. 1 with a server crash in [50, 90) under 5% link loss + jitter",
        build: chaos_crash_loss,
    },
    Scenario {
        name: "durable-crash",
        description: "WAL-backed Fig. 1, server 0 crashes in [10, 30) mid-deposit: replay, drain",
        build: durable_crash,
    },
    Scenario {
        name: "durable-torn-tail",
        description: "WAL-backed Fig. 1, crash in [10, 30) leaves a torn segment tail: \
                      truncate, replay, drain",
        build: durable_torn_tail,
    },
    Scenario {
        name: "durable-recrash",
        description: "WAL-backed Fig. 1, server 0 crashes twice ([10, 25) and [45, 60)): \
                      recover, re-crash, drain",
        build: durable_recrash,
    },
];

/// The scenarios `lems-check explore` drives through every schedule:
/// small enough that every interleaving of their same-instant events can
/// be enumerated.
pub static EXPLORE: &[Scenario] = &[
    Scenario {
        name: "s1-steady",
        description: "System-1, 3 servers, 3 users, coincident send bursts, no failures",
        build: s1_steady,
    },
    Scenario {
        name: "s1-crash",
        description: "System-1, 3 servers, coincident send bursts, server 0 down in [6, 40)",
        build: s1_crash,
    },
    Scenario {
        name: "s2-roam",
        description: "System-2, 2 servers, 3 roaming users: logins race mail routing",
        build: s2_roam,
    },
    Scenario {
        name: "s2-crash",
        description: "System-2, 2 servers, 3 roaming users, server 0 down in [4, 40)",
        build: s2_crash,
    },
];

impl Scenario {
    /// The entry of [`AUDIT`] or [`EXPLORE`] called `name`.
    ///
    /// # Panics
    ///
    /// Panics if no scenario is called `name`: tests name scenarios
    /// literally; the CLI looks names up in its own table and reports an
    /// unknown one as a usage error.
    #[expect(clippy::panic, reason = "an unknown literal name is a test bug")]
    pub fn named(name: &str) -> &'static Scenario {
        AUDIT
            .iter()
            .chain(EXPLORE)
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("no scenario `{name}`"))
    }

    /// Builds the scenario at `seed`, runs it to quiescence within
    /// [`EVENT_BUDGET`] under the engine's FIFO schedule, and judges it.
    pub fn run(&'static self, seed: u64) -> ScenarioOutcome {
        let mut deployment = (self.build)(seed);
        let quiesced = deployment.sim.run_to_quiescence_bounded(EVENT_BUDGET);
        let violations = verdict(&deployment, quiesced);
        ScenarioOutcome {
            scenario: self,
            seed,
            deployment,
            quiesced,
            violations,
        }
    }
}

/// One finished scenario run and its verdict.
pub struct ScenarioOutcome {
    /// The scenario that ran.
    pub scenario: &'static Scenario,
    /// Engine seed the scenario ran with.
    pub seed: u64,
    /// The deployment as the run left it.
    pub deployment: Deployment,
    /// Whether the run drained within [`EVENT_BUDGET`].
    pub quiesced: bool,
    /// What [`verdict`] reported (empty = clean).
    pub violations: Vec<String>,
}

impl ScenarioOutcome {
    /// True when the verdict found nothing.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The run's spans, metrics, store health and profile as
    /// deterministic JSONL for `lems-trace`.
    ///
    /// # Errors
    ///
    /// Whatever [`export_jsonl`] refuses (a non-finite metric).
    pub fn export_jsonl(&self) -> Result<String, String> {
        let d = &self.deployment;
        export_jsonl(&RunTelemetry {
            run: self.scenario.name,
            seed: self.seed,
            finished_at: d.sim.now(),
            spans: &d.spans.borrow(),
            recoveries: &d.recoveries.borrow(),
            scopes: &d.metrics_snapshot(),
            store: &d.store_metrics_snapshot(),
            profile: &d.sim.profile_samples(),
        })
    }
}

fn t(u: f64) -> SimTime {
    SimTime::from_units(u)
}

/// Switches on every evidence stream before the first injection, so the
/// verdict sees the whole history. None of them draws randomness or
/// schedules anything: the event stream is the same with them off.
fn observed(mut d: Deployment) -> Deployment {
    d.sim.enable_trace();
    d.enable_spans();
    // Feeds the Profile block of `--trace-out` dumps.
    d.sim.enable_prof();
    d
}

/// The Fig. 1 topology with two users on each host.
fn fig1_deployment(cfg: &DeploymentConfig) -> Deployment {
    observed(Deployment::build(
        &fig1().topology,
        &[2, 2, 2, 2, 2, 2],
        cfg,
    ))
}

fn config(seed: u64) -> DeploymentConfig {
    DeploymentConfig {
        seed,
        ..DeploymentConfig::default()
    }
}

/// Steady-state exchange on the Fig. 1 topology: no failures, every user
/// mails a distant peer, everyone checks mail afterwards. The baseline —
/// if this reports a violation, the engine itself is miswired.
fn steady(seed: u64) -> Deployment {
    let mut d = fig1_deployment(&config(seed));
    let names = d.user_names();
    for i in 0..names.len() {
        d.send_at(t(1.0 + i as f64), &names[i], &names[(i + 5) % names.len()]);
    }
    for (i, n) in names.iter().enumerate() {
        d.check_at(t(100.0 + i as f64), n);
    }
    d
}

/// The actor-level analogue of `examples/failure_drill.rs`: the first
/// Fig. 1 server is down in `[10, 30)`, mail submitted during the outage
/// fails over to secondaries, users check both during the outage and
/// after recovery, and drain sweeps run once everything is healed.
/// Exercises crash/recover tracing, message drops on the downed server,
/// the §3.1.2c `LastStartTime` walk, and the store-and-forward recovery
/// path — nothing may be lost or stranded.
fn failover(seed: u64) -> Deployment {
    let f = fig1();
    let mut d = fig1_deployment(&config(seed));
    let names = d.user_names();

    let mut plan = ServerFailurePlan::new();
    plan.add(f.servers[0], t(10.0), t(30.0));
    d.apply_server_failures(&plan);

    // Sends straddle the outage: before (settled), during (failover),
    // and just after recovery (catch-up traffic).
    for i in 0..names.len() {
        d.send_at(
            t(5.0 + 2.0 * i as f64),
            &names[i],
            &names[(i + 3) % names.len()],
        );
    }
    // Checks during the outage see timeouts and secondaries...
    for (i, n) in names.iter().enumerate() {
        d.check_at(t(15.0 + i as f64), n);
    }
    // ...and checks after recovery drain whatever failed over.
    for (i, n) in names.iter().enumerate() {
        d.check_at(t(60.0 + i as f64), n);
        d.check_at(t(120.0 + i as f64), n);
    }
    d
}

/// Random exponential outages across all three Fig. 1 servers (MTBF 120,
/// MTTR 15 over a 600-unit horizon) under a spread-out send/check load,
/// with drain sweeps scheduled after the last outage heals.
fn random_failures(seed: u64) -> Deployment {
    let f = fig1();
    let mut d = fig1_deployment(&config(seed));
    let names = d.user_names();

    let mut rng = SimRng::seed(seed).fork("check-failures");
    let plan = ServerFailurePlan::random(
        &mut rng,
        &f.servers,
        SimDuration::from_units(120.0),
        SimDuration::from_units(15.0),
        t(600.0),
    );
    let last_up = plan
        .outages
        .values()
        .flatten()
        .map(|&(_, up)| up)
        .max()
        .unwrap_or(t(600.0));
    d.apply_server_failures(&plan);

    for i in 0..names.len() {
        for k in 0..8u64 {
            d.send_at(
                t(3.0 + 70.0 * k as f64 + 5.0 * i as f64),
                &names[i],
                &names[(i + 1 + k as usize) % names.len()],
            );
        }
        d.check_at(t(200.0 + i as f64), &names[i]);
        d.check_at(t(400.0 + i as f64), &names[i]);
    }
    // Drain sweeps strictly after every server is back up.
    for (i, n) in names.iter().enumerate() {
        d.check_at(last_up + SimDuration::from_units(50.0 + i as f64), n);
        d.check_at(last_up + SimDuration::from_units(150.0 + i as f64), n);
    }
    d
}

/// A lossy, jittery wire under steady load: every link drops 8% of
/// traffic and duplicates 2% with up to one unit of jitter until t=300,
/// after which the network heals and users drain their mailboxes. The
/// session layer (timeout/retransmit/backoff + ack'd retrieval) must
/// deliver everything despite the loss.
///
/// # Panics
///
/// Panics if the scenario's literal fault parameters are invalid or
/// name unbound Fig. 1 nodes — a typo in the scenario definition must
/// abort the checker loudly, not audit a half-built deployment.
#[expect(
    clippy::expect_used,
    reason = "literal scenario parameters: a typo must abort the checker"
)]
fn chaos_lossy(seed: u64) -> Deployment {
    let mut d = fig1_deployment(&config(seed));
    let names = d.user_names();
    let chaos = LinkChaos::new(
        LinkProfile::new(0.08, 0.02, SimDuration::from_units(1.0))
            .expect("probabilities are in range"),
        t(300.0),
    );
    d.apply_link_chaos(&chaos).expect("fig1 nodes are bound");

    for i in 0..names.len() {
        for k in 0..4u64 {
            d.send_at(
                t(2.0 + 60.0 * k as f64 + 3.0 * i as f64),
                &names[i],
                &names[(i + 1 + k as usize) % names.len()],
            );
        }
    }
    // Checks run after the stochastic horizon so the drain itself is
    // clean; two sweeps catch mail parked in drain buffers.
    for (i, n) in names.iter().enumerate() {
        d.check_at(t(350.0 + i as f64), n);
        d.check_at(t(450.0 + i as f64), n);
    }
    d
}

/// The acceptance gauntlet: ≥5% probabilistic loss with jitter on every
/// link *plus* a flapping partition that repeatedly isolates the first
/// server (windows [40,70) and [120,150)). Mail submitted into the
/// partition must fail over to secondaries; nothing may be lost or
/// stranded once the network heals and users drain.
fn chaos_partition(seed: u64) -> Deployment {
    chaos_partition_with(seed, SessionConfig::default())
}

/// The `chaos-partition` world under `session` — shared by the audited
/// scenario and the session-off counterexample test.
///
/// # Panics
///
/// Panics if the scenario's literal fault parameters are invalid or
/// name unbound Fig. 1 nodes (a typo in the scenario definition).
#[expect(
    clippy::expect_used,
    reason = "literal scenario parameters: a typo must abort the checker"
)]
fn chaos_partition_with(seed: u64, session: SessionConfig) -> Deployment {
    let f = fig1();
    let mut d = fig1_deployment(&DeploymentConfig {
        session,
        ..config(seed)
    });
    let names = d.user_names();

    let isolated = vec![f.servers[0]];
    let mut others: Vec<_> = f.hosts.clone();
    others.extend(f.servers.iter().skip(1).copied());
    let chaos = LinkChaos::new(
        LinkProfile::new(0.05, 0.01, SimDuration::from_units(1.0))
            .expect("probabilities are in range"),
        t(300.0),
    )
    .partition(isolated.clone(), others.clone(), t(40.0), t(70.0))
    .partition(isolated, others, t(120.0), t(150.0));
    d.apply_link_chaos(&chaos).expect("fig1 nodes are bound");

    // Sends land before, inside, and between the partition windows.
    for i in 0..names.len() {
        for k in 0..3u64 {
            d.send_at(
                t(10.0 + 50.0 * k as f64 + 2.0 * i as f64),
                &names[i],
                &names[(i + 5 + k as usize) % names.len()],
            );
        }
    }
    // Check waves while the wire is still lossy (the ack'd-retrieval
    // path earns its keep here), then clean drain sweeps after the
    // horizon.
    for (i, n) in names.iter().enumerate() {
        d.check_at(t(200.0 + i as f64), n);
        d.check_at(t(240.0 + i as f64), n);
        d.check_at(t(350.0 + i as f64), n);
        d.check_at(t(450.0 + i as f64), n);
    }
    d
}

/// Compound failure: a crashed server in `[50, 90)` *while* every link
/// drops 5% of traffic with jitter. Exercises the interaction between
/// actor-level drops (down server) and link-level loss — both consume
/// sends in the trace, and the ledgers must still balance.
///
/// # Panics
///
/// Panics if the scenario's literal fault parameters are invalid or
/// name unbound Fig. 1 nodes (a typo in the scenario definition).
#[expect(
    clippy::expect_used,
    reason = "literal scenario parameters: a typo must abort the checker"
)]
fn chaos_crash_loss(seed: u64) -> Deployment {
    let f = fig1();
    let mut d = fig1_deployment(&config(seed));
    let names = d.user_names();

    let chaos = LinkChaos::new(
        LinkProfile::new(0.05, 0.0, SimDuration::from_units(0.5))
            .expect("probabilities are in range"),
        t(300.0),
    );
    d.apply_link_chaos(&chaos).expect("fig1 nodes are bound");
    let mut plan = ServerFailurePlan::new();
    plan.add(f.servers[1], t(50.0), t(90.0));
    d.apply_server_failures(&plan);

    for i in 0..names.len() {
        for k in 0..3u64 {
            d.send_at(
                t(5.0 + 40.0 * k as f64 + 3.0 * i as f64),
                &names[i],
                &names[(i + 2 + k as usize) % names.len()],
            );
        }
    }
    for (i, n) in names.iter().enumerate() {
        d.check_at(t(350.0 + i as f64), n);
        d.check_at(t(450.0 + i as f64), n);
    }
    d
}

/// A Fig. 1 deployment whose servers log to a WAL with small segments, so
/// rotation and chunked compaction actually happen inside a short audited
/// run, and a crash leaves `torn_tail_bytes` of garbage past the durable
/// boundary of the newest segment.
fn fig1_on_wal(seed: u64, torn_tail_bytes: usize) -> Deployment {
    fig1_deployment(&DeploymentConfig {
        durability: DurabilityConfig::Wal(WalConfig {
            segment_bytes: 8 * 1024,
            chunk_messages: 8,
            max_segments: 3,
            torn_tail_bytes,
            ..WalConfig::default()
        }),
        ..config(seed)
    })
}

/// Crash-mid-deposit on a WAL: the first Fig. 1 server goes down in
/// `[10, 30)` while mail is in flight, its WAL replays on recovery, and
/// every acked deposit must still reach its recipient.
fn wal_crash_mid_deposit(seed: u64, torn_tail_bytes: usize) -> Deployment {
    let f = fig1();
    let mut d = fig1_on_wal(seed, torn_tail_bytes);
    let names = d.user_names();
    let mut plan = ServerFailurePlan::new();
    plan.add(f.servers[0], t(10.0), t(30.0));
    d.apply_server_failures(&plan);
    for i in 0..names.len() {
        d.send_at(
            t(5.0 + 2.0 * i as f64),
            &names[i],
            &names[(i + 3) % names.len()],
        );
    }
    for (i, n) in names.iter().enumerate() {
        d.check_at(t(60.0 + i as f64), n);
        d.check_at(t(120.0 + i as f64), n);
    }
    d
}

/// [`wal_crash_mid_deposit`] with a clean crash: the same verdict the
/// in-memory scenarios get proves the replay lost nothing.
fn durable_crash(seed: u64) -> Deployment {
    wal_crash_mid_deposit(seed, 0)
}

/// As `durable-crash`, but the crash additionally leaves a torn write.
/// Recovery must truncate the torn tail and still lose nothing.
fn durable_torn_tail(seed: u64) -> Deployment {
    wal_crash_mid_deposit(seed, 13)
}

/// Recover-then-re-crash: the same WAL-backed server goes down twice
/// (`[10, 25)` and `[45, 60)`), so the second recovery replays a log that
/// already contains one recovery's worth of re-routing. Nothing may be
/// lost across either cycle.
fn durable_recrash(seed: u64) -> Deployment {
    let f = fig1();
    let mut d = fig1_on_wal(seed, 13);
    let names = d.user_names();
    let mut plan = ServerFailurePlan::new();
    plan.add(f.servers[0], t(10.0), t(25.0));
    plan.add(f.servers[0], t(45.0), t(60.0));
    d.apply_server_failures(&plan);
    for i in 0..names.len() {
        d.send_at(
            t(5.0 + 4.0 * i as f64),
            &names[i],
            &names[(i + 3) % names.len()],
        );
        d.send_at(
            t(40.0 + 2.0 * i as f64),
            &names[i],
            &names[(i + 7) % names.len()],
        );
    }
    for (i, n) in names.iter().enumerate() {
        d.check_at(t(90.0 + i as f64), n);
        d.check_at(t(150.0 + i as f64), n);
    }
    d
}

/// System-1 steady exchange, shrunk to explorable size: the Fig. 1
/// topology's 3-server chain with one user on each of the first three
/// hosts. Each user fires a burst of *simultaneous* sends (simultaneity is
/// what creates schedule branch points), then everyone checks mail.
fn s1_steady(seed: u64) -> Deployment {
    let mut d = observed(Deployment::build(
        &fig1().topology,
        &[1, 1, 1, 0, 0, 0],
        &config(seed),
    ));
    let names = d.user_names();
    // Three coincident submissions per user: every host actor has a 3-way
    // contended arrival group (3!^3 base schedules), and the submit/forward
    // traffic they fan out into races organically further downstream.
    for (i, from) in names.iter().enumerate() {
        for k in 1..=3usize {
            d.send_at(t(1.0), from, &names[(i + k) % names.len()]);
        }
    }
    for (i, n) in names.iter().enumerate() {
        d.check_at(t(120.0 + i as f64), n);
        d.check_at(t(200.0 + i as f64), n);
    }
    d
}

/// The same shrunken System-1 deployment plus one crash point — the
/// first server (primary authority for the user hosts) dies at t=6 with
/// traffic in flight and recovers at t=40, before the check waves. Every
/// interleaving of the send bursts, the submit/forward races, and the
/// crash must conserve mail.
fn s1_crash(seed: u64) -> Deployment {
    let f = fig1();
    let mut d = s1_steady(seed);
    let mut plan = ServerFailurePlan::new();
    plan.add(f.servers[0], t(6.0), t(40.0));
    d.apply_server_failures(&plan);
    d
}

/// System-2 (location-independent addressing) shrunk to explorable size:
/// one region, three hosts, two sub-group servers. Users log in and fire
/// sends at the same instant, racing the `LocationUpdate` broadcasts
/// against mail routing — the orderings where mail outruns the location
/// update are exactly the ones a single seed rarely hits.
fn s2_roam(seed: u64) -> Deployment {
    let mut rng = SimRng::seed(seed).fork("explore-s2-topo");
    let topo = multi_region(
        &mut rng,
        &MultiRegionConfig {
            regions: 1,
            hosts_per_region: 3,
            servers_per_region: 2,
            ..MultiRegionConfig::default()
        },
    );
    let mut d = observed(roaming_deployment(&topo, &[1, 1, 1], 16, &config(seed)));
    let users = d.user_names();
    let homes: Vec<_> = users
        .iter()
        .filter_map(|u| Some(d.directory.by_name(u)?.home_host))
        .collect();
    // Everyone logs in at the same instant — at their *neighbour's* host,
    // so location knowledge matters — and the first user immediately
    // mails the other two, racing the location broadcasts.
    for (i, u) in users.iter().enumerate() {
        d.login_at(t(1.0), u, homes[(i + 1) % homes.len()]);
    }
    d.send_at(t(1.0), &users[0], &users[1]);
    d.send_at(t(1.0), &users[0], &users[2]);
    d.send_at(t(1.0), &users[1], &users[2]);
    for (i, u) in users.iter().enumerate() {
        d.check_at(t(120.0 + i as f64), u);
    }
    d
}

/// The twin of `s1-crash` on the System-2 world: the first server — a
/// sub-group's only authority and a tracking peer — dies at t=4 with
/// submissions accepted and login reports, location updates and forwards
/// in flight, and recovers at t=40, before the check wave.
fn s2_crash(seed: u64) -> Deployment {
    let mut d = s2_roam(seed);
    let first = d.problem.servers[0].0;
    let mut plan = ServerFailurePlan::new();
    plan.add(first, t(4.0), t(40.0));
    d.apply_server_failures(&plan);
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::audit_trace;

    #[test]
    fn steady_scenario_is_clean_and_nontrivial() {
        let o = Scenario::named("steady").run(3);
        assert!(o.is_clean(), "{:?}", o.violations);
        let st = o.deployment.stats.borrow();
        assert!(st.submitted >= 12 && st.retrieved == st.submitted - st.bounced);
        let trace = audit_trace(o.deployment.sim.trace());
        assert!(trace.sends > 0 && trace.crashes == 0);
    }

    #[test]
    fn failover_scenario_exercises_crash_paths_and_stays_clean() {
        let o = Scenario::named("failover").run(3);
        assert!(o.is_clean(), "{:?}", o.violations);
        let trace = audit_trace(o.deployment.sim.trace());
        assert_eq!(trace.crashes, 1);
        assert_eq!(trace.recoveries, 1);
        assert!(trace.drops > 0, "outage should drop in-flight messages");
    }

    #[test]
    fn random_failure_scenario_is_clean_across_seeds() {
        for seed in [1, 2] {
            let o = Scenario::named("random-failures").run(seed);
            assert!(o.is_clean(), "seed {seed}: {:?}", o.violations);
        }
    }

    #[test]
    fn chaos_lossy_scenario_is_clean_and_actually_lossy() {
        let o = Scenario::named("chaos-lossy").run(3);
        assert!(o.is_clean(), "{:?}", o.violations);
        let trace = audit_trace(o.deployment.sim.trace());
        assert!(trace.link_drops > 0, "8% loss must drop something");
        assert!(
            o.deployment.stats.borrow().retransmits > 0,
            "loss must force retransmissions"
        );
    }

    /// The acceptance criterion: ≥5% loss + jitter + a flapping partition
    /// completes with zero lost mail under the session layer...
    #[test]
    fn chaos_partition_scenario_loses_nothing() {
        let o = Scenario::named("chaos-partition").run(7);
        assert!(o.is_clean(), "{:?}", o.violations);
        let trace = audit_trace(o.deployment.sim.trace());
        assert!(trace.link_drops > 0, "the partition must cut traffic");
        assert_eq!(
            o.deployment.stats.borrow().bounced,
            0,
            "failover should beat the retry budget"
        );
    }

    /// ...and the same gauntlet with the session layer disabled
    /// demonstrably loses mail — the robustness is load-bearing, not luck.
    #[test]
    fn chaos_partition_without_session_layer_loses_mail() {
        let mut d = chaos_partition_with(7, SessionConfig::legacy());
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
        let v = verdict(&d, true);
        assert!(
            v.iter()
                .any(|l| l.contains("nowhere in server storage (lost)")),
            "expected lost mail without retries: {v:?}"
        );
    }

    /// Every scenario carries the evidence its verdict and its export
    /// read: spans whose terminal counts agree with the ledgers, per-actor
    /// metric registries, and kernel-profiler samples.
    #[test]
    fn scenarios_carry_span_and_metric_evidence() {
        let o = Scenario::named("steady").run(3);
        let d = &o.deployment;
        let spans = lems_sim::span::audit_spans(&d.spans.borrow(), true);
        let st = d.stats.borrow();
        assert_eq!(spans.retrieved, st.retrieved);
        assert_eq!(spans.bounced, st.bounced);
        assert!(spans.opened > 0, "spans must be recorded");
        assert!(
            !d.metrics_snapshot().is_empty(),
            "metric scopes must be captured"
        );
        assert!(d.sim.now() > t(0.0));
        // The kernel profiler ran: dispatch cells for both actor kinds.
        for cell in ["server/deliver", "host/deliver"] {
            assert!(
                d.sim
                    .profile_samples()
                    .iter()
                    .any(|s| s.scope == "dispatch" && s.name == cell && s.count > 0),
                "missing dispatch cell {cell}"
            );
        }
        assert!(
            d.store_metrics_snapshot().is_empty(),
            "a deployment on the Ideal store must export no store metrics"
        );
    }

    /// Durable scenarios additionally export WAL health: appends, fsyncs,
    /// and the recovery scan work of the crash they survived — and each
    /// really crashed, or its clean verdict would prove nothing.
    #[test]
    fn durable_scenarios_carry_store_metrics() {
        for name in ["durable-crash", "durable-torn-tail", "durable-recrash"] {
            let o = Scenario::named(name).run(3);
            assert!(o.is_clean(), "{name}: {:?}", o.violations);
            assert!(
                !o.deployment.recoveries.borrow().is_empty(),
                "{name} recorded no store recovery"
            );
        }
        let o = Scenario::named("durable-crash").run(3);
        let store = o.deployment.store_metrics_snapshot();
        assert!(!store.is_empty(), "WAL servers must export store metrics");
        for (scope, m) in &store {
            assert!(scope.starts_with("server:n"), "scope {scope}");
            assert!(m.appended_records > 0 && m.fsyncs > 0, "{scope}: {m:?}");
        }
        assert!(
            store.iter().any(|(_, m)| m.replayed_records > 0),
            "the crashed server's recovery scan must be visible"
        );
    }

    #[test]
    fn chaos_crash_loss_scenario_is_clean() {
        let o = Scenario::named("chaos-crash-loss").run(3);
        assert!(o.is_clean(), "{:?}", o.violations);
        let trace = audit_trace(o.deployment.sim.trace());
        assert_eq!(trace.crashes, 1);
        assert!(trace.drops > 0, "the downed server must drop sends");
        assert!(trace.link_drops > 0, "the lossy wire must drop sends");
    }
}
