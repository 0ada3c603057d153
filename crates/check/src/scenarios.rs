//! The runs `lems-check` judges, as data.
//!
//! A [`RunSpec`] is one run written down: the world, the durability of
//! its stores, server outages (fixed, or drawn from the seed), link chaos
//! and the timed workload. [`RunSpec::build`] wires it at a seed, with
//! trace, spans and the kernel profiler on, without running it; it is the
//! only code here that builds a [`Deployment`] or injects into one. A
//! [`Scenario`] is a named spec: [`AUDIT`] holds the scenarios
//! `lems-check audit` runs once each, [`EXPLORE`] the tiny worlds
//! `lems-check explore` drives through every schedule, and both hand
//! every terminal run to [`verdict`]. A variant of a row is written with
//! struct-update syntax: `RunSpec { durability, ..row.spec.clone() }`.
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
use lems_store::{DurabilityConfig, SyncPolicy, WalConfig};
use lems_syntax::actors::{Deployment, DeploymentConfig, LinkChaos, ServerFailurePlan};

use crate::audit::verdict;

/// Event budget for one audit run: chaos plans can in principle make a
/// retry loop diverge, so scenarios run bounded and report budget
/// exhaustion as a violation instead of hanging the audit.
pub(crate) const EVENT_BUDGET: u64 = 2_000_000;

/// One run as plain data. Times are in units; servers are indices into
/// the topology's servers, users indices into
/// [`Deployment::user_names`].
#[derive(Clone, Debug)]
pub struct RunSpec<'a> {
    /// The topology and its users.
    pub world: World<'a>,
    /// What a crash keeps of every server's store.
    pub durability: DurabilityConfig,
    /// Server outages at fixed times.
    pub outages: &'a [Outage],
    /// Exponential outages on every server, drawn from the seed.
    pub random_outages: Option<RandomOutages>,
    /// Faults on every link, and partitions.
    pub chaos: Option<Chaos<'a>>,
    /// The workload, injected in this order, which is the order
    /// same-instant events fire in.
    pub events: &'a [Event<'a>],
}

/// The topology a run is wired on, with its users.
#[derive(Clone, Copy, Debug)]
pub enum World<'a> {
    /// Fig. 1 with `users_per_host[i]` users on its host `H(i+1)`.
    Fig1(&'a [u32]),
    /// System 2 at explorable size: one region of three hosts with one
    /// user each and two servers, hashed into 16 sub-groups, the topology
    /// drawn from the seed's `explore-s2-topo` fork.
    Roaming,
}

/// `Outage(server, down, up)`: server `server` is down in `[down, up)`;
/// as a partition, it is cut off from every other node instead.
#[derive(Clone, Copy, Debug)]
pub struct Outage(pub usize, pub f64, pub f64);

/// Exponential outages (mean time between failures `mtbf`, to repair
/// `mttr`) on every server until `horizon`, drawn from the seed's
/// `check-failures` fork.
#[derive(Clone, Copy, Debug)]
pub struct RandomOutages {
    /// Mean time between failures.
    pub mtbf: f64,
    /// Mean time to repair.
    pub mttr: f64,
    /// No outage begins after this.
    pub horizon: f64,
}

/// Until `until`, every wire send is lost with probability `loss`,
/// duplicated with probability `duplicate` and delayed by up to `jitter`;
/// each of `partitions` cuts its server off over its window.
#[derive(Clone, Copy, Debug)]
pub struct Chaos<'a> {
    /// Loss probability.
    pub loss: f64,
    /// Duplication probability.
    pub duplicate: f64,
    /// Largest extra delay.
    pub jitter: f64,
    /// The wire heals here (partitions keep their own windows).
    pub until: f64,
    /// Windows in which a server is cut off from every other node.
    pub partitions: &'a [Outage],
}

/// One timed injection, or a wave of them.
#[derive(Clone, Copy, Debug)]
pub enum Event<'a> {
    /// `Send(at, from, to)`: user `from` mails user `to`.
    Send(f64, usize, usize),
    /// `Check(at, user)`: `user` checks their mail.
    Check(f64, usize),
    /// `Login(at, user, host_of)`: `user` logs in at the home host of
    /// user `host_of` (§3.2.2c).
    Login(f64, usize, usize),
    /// Every user in turn takes each step.
    Wave(&'a [Step]),
    /// A wave timed from the end of the last outage (from the random
    /// horizon when none was drawn): the drain sweep after every server
    /// is back up.
    Drain(&'a [Step]),
}

/// What user `i` does in a wave; recipients wrap around the users.
#[derive(Clone, Copy, Debug)]
pub enum Step {
    /// `Send(at, per_user, to)`: user `i` mails user `i + to` at
    /// `at + per_user·i`.
    Send(f64, f64, usize),
    /// `Sends(rounds, every, at, per_user, to)`: user `i` mails user
    /// `i + to + k` at `at + every·k + per_user·i`, for each `k` in
    /// `0..rounds`.
    Sends(usize, f64, f64, f64, usize),
    /// `Check(at, per_user)`: user `i` checks at `at + per_user·i`.
    Check(f64, f64),
}

fn t(u: f64) -> SimTime {
    SimTime::from_units(u)
}

impl RunSpec<'_> {
    /// Wires the run at `seed` and applies its chaos, its outages and its
    /// events, in that order, without running it. Trace, spans and the
    /// kernel profiler are on before the first injection, so a verdict
    /// sees the whole history; none of them draws randomness or schedules
    /// anything, so the event stream is the same with them off.
    ///
    /// # Panics
    ///
    /// Panics if an index names no server or user, a probability is out
    /// of range or an outage ends before it begins: a typo in a spec must
    /// abort the checker loudly, not judge a half-built run.
    #[expect(
        clippy::expect_used,
        reason = "a typo in a literal spec must abort the checker"
    )]
    pub fn build(&self, seed: u64) -> Deployment {
        let cfg = DeploymentConfig {
            seed,
            durability: self.durability.clone(),
            ..DeploymentConfig::default()
        };
        let (topology, mut d) = match self.world {
            World::Fig1(users_per_host) => {
                let topology = fig1().topology;
                let d = Deployment::build(&topology, users_per_host, &cfg);
                (topology, d)
            }
            World::Roaming => {
                let topology = multi_region(
                    &mut SimRng::seed(seed).fork("explore-s2-topo"),
                    &MultiRegionConfig {
                        regions: 1,
                        hosts_per_region: 3,
                        servers_per_region: 2,
                        ..MultiRegionConfig::default()
                    },
                );
                let d = roaming_deployment(&topology, &[1, 1, 1], 16, &cfg);
                (topology, d)
            }
        };
        d.sim.enable_trace();
        d.enable_spans();
        // Feeds the Profile block of `--trace-out` dumps.
        d.sim.enable_prof();

        let servers = topology.servers();
        if let Some(c) = self.chaos {
            let jitter = SimDuration::from_units(c.jitter);
            let profile =
                LinkProfile::new(c.loss, c.duplicate, jitter).expect("valid probabilities");
            let mut chaos = LinkChaos::new(profile, t(c.until));
            for &Outage(server, down, up) in c.partitions {
                let cut = servers[server];
                let mut others = topology.hosts();
                others.extend(servers.iter().copied().filter(|&s| s != cut));
                chaos = chaos.partition(vec![cut], others, t(down), t(up));
            }
            d.apply_link_chaos(&chaos)
                .expect("the topology's nodes are bound");
        }
        let mut plan = ServerFailurePlan::new();
        if let Some(r) = self.random_outages {
            plan = ServerFailurePlan::random(
                &mut SimRng::seed(seed).fork("check-failures"),
                &servers,
                SimDuration::from_units(r.mtbf),
                SimDuration::from_units(r.mttr),
                t(r.horizon),
            );
        }
        for &Outage(server, down, up) in self.outages {
            plan.add(servers[server], t(down), t(up));
        }
        let last_up = plan.outages.values().flatten().map(|&(_, up)| up).max();
        let healed = last_up.unwrap_or(t(self.random_outages.map_or(0.0, |r| r.horizon)));
        d.apply_server_failures(&plan);

        let names = d.user_names();
        for event in self.events {
            let (start, steps) = match *event {
                Event::Send(at, from, to) => {
                    d.send_at(t(at), &names[from], &names[to]);
                    continue;
                }
                Event::Check(at, user) => {
                    d.check_at(t(at), &names[user]);
                    continue;
                }
                Event::Login(at, user, host_of) => {
                    let home = d.directory.by_name(&names[host_of]).expect("a wired user");
                    let host = home.home_host;
                    d.login_at(t(at), &names[user], host);
                    continue;
                }
                Event::Wave(steps) => (SimTime::ZERO, steps),
                Event::Drain(steps) => (healed, steps),
            };
            let at = |units: f64| start + SimDuration::from_units(units);
            for (i, name) in names.iter().enumerate() {
                for step in steps {
                    let (rounds, every, first, per_user, to) = match *step {
                        Step::Send(first, per_user, to) => (1, 0.0, first, per_user, to),
                        Step::Sends(rounds, every, first, per_user, to) => {
                            (rounds, every, first, per_user, to)
                        }
                        Step::Check(first, per_user) => {
                            d.check_at(at(first + per_user * i as f64), name);
                            continue;
                        }
                    };
                    for k in 0..rounds {
                        let units = first + every * k as f64 + per_user * i as f64;
                        d.send_at(at(units), name, &names[(i + to + k) % names.len()]);
                    }
                }
            }
        }
        d
    }
}

/// One reproducible scenario.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Stable scenario name (CLI selector, telemetry run name).
    pub name: &'static str,
    /// One-line human description.
    pub description: &'static str,
    /// The run, built afresh for each seed (and each explored schedule).
    pub spec: RunSpec<'static>,
}

/// Fig. 1 with two users on each host, Ideal stores, no fault and no
/// workload: the world most rows start from.
const FIG1: RunSpec<'static> = RunSpec {
    world: World::Fig1(&[2, 2, 2, 2, 2, 2]),
    durability: DurabilityConfig::Ideal,
    outages: &[],
    random_outages: None,
    chaos: None,
    events: &[],
};

/// Small segments, so rotation and chunked compaction happen inside a
/// short audited run.
const SMALL_WAL: WalConfig = WalConfig {
    segment_bytes: 8 * 1024,
    chunk_messages: 8,
    max_segments: 3,
    sync: SyncPolicy::PerRecord,
    torn_tail_bytes: 0,
};

/// [`SMALL_WAL`] whose crash leaves 13 bytes of torn write past the
/// durable end of the newest segment, for recovery to truncate.
const TORN_WAL: DurabilityConfig = DurabilityConfig::Wal(WalConfig {
    torn_tail_bytes: 13,
    ..SMALL_WAL
});

/// Crash mid-deposit on a WAL: the first server goes down in `[10, 30)`
/// while mail is in flight, its WAL replays on recovery, and every acked
/// deposit must still reach its recipient.
const DURABLE_CRASH: RunSpec<'static> = RunSpec {
    durability: DurabilityConfig::Wal(SMALL_WAL),
    outages: &[Outage(0, 10.0, 30.0)],
    events: &[
        Event::Wave(&[Step::Send(5.0, 2.0, 3)]),
        Event::Wave(&[Step::Check(60.0, 1.0), Step::Check(120.0, 1.0)]),
    ],
    ..FIG1
};

/// The scenarios `lems-check audit` runs, once each.
pub static AUDIT: &[Scenario] = &[
    // The baseline: every user mails a distant peer, everyone checks
    // afterwards. If this reports a violation, the engine is miswired.
    Scenario {
        name: "steady",
        description: "Fig. 1 topology, no failures: ring of sends, then everyone checks",
        spec: RunSpec {
            events: &[
                Event::Wave(&[Step::Send(1.0, 1.0, 5)]),
                Event::Wave(&[Step::Check(100.0, 1.0)]),
            ],
            ..FIG1
        },
    },
    // The actor-level analogue of `examples/failure_drill.rs`. Sends
    // straddle the outage; checks during it see timeouts and
    // secondaries, checks after recovery drain what failed over
    // (crash/recover tracing, drops on the downed server, the §3.1.2c
    // `LastStartTime` walk, store-and-forward recovery).
    Scenario {
        name: "failover",
        description: "Fig. 1 primary server down in [10, 30): failover, recovery, drain",
        spec: RunSpec {
            outages: &[Outage(0, 10.0, 30.0)],
            events: &[
                Event::Wave(&[Step::Send(5.0, 2.0, 3)]),
                Event::Wave(&[Step::Check(15.0, 1.0)]),
                Event::Wave(&[Step::Check(60.0, 1.0), Step::Check(120.0, 1.0)]),
            ],
            ..FIG1
        },
    },
    // Spread-out load over a 600-unit horizon of random outages, then
    // drain sweeps strictly after every server is back up.
    Scenario {
        name: "random-failures",
        description: "Fig. 1 with random server outages (MTBF 120, MTTR 15): load + drain",
        spec: RunSpec {
            random_outages: Some(RandomOutages {
                mtbf: 120.0,
                mttr: 15.0,
                horizon: 600.0,
            }),
            events: &[
                Event::Wave(&[
                    Step::Sends(8, 70.0, 3.0, 5.0, 1),
                    Step::Check(200.0, 1.0),
                    Step::Check(400.0, 1.0),
                ]),
                Event::Drain(&[Step::Check(50.0, 1.0), Step::Check(150.0, 1.0)]),
            ],
            ..FIG1
        },
    },
    // The session layer (timeout, retransmit, backoff, acked retrieval)
    // must deliver everything despite the loss. Checks run after the
    // wire heals, so the drain itself is clean; two sweeps catch mail
    // parked in drain buffers.
    Scenario {
        name: "chaos-lossy",
        description: "Fig. 1 with 8% loss, 2% duplication, jitter until t=300: load + drain",
        spec: RunSpec {
            chaos: Some(Chaos {
                loss: 0.08,
                duplicate: 0.02,
                jitter: 1.0,
                until: 300.0,
                partitions: &[],
            }),
            events: &[
                Event::Wave(&[Step::Sends(4, 60.0, 2.0, 3.0, 1)]),
                Event::Wave(&[Step::Check(350.0, 1.0), Step::Check(450.0, 1.0)]),
            ],
            ..FIG1
        },
    },
    // The acceptance gauntlet: sends land before, inside and between two
    // windows that isolate the first server, so mail must fail over;
    // check waves run while the wire is still lossy (where acked
    // retrieval earns its keep), then clean drain sweeps after it heals.
    Scenario {
        name: "chaos-partition",
        description: "Fig. 1 with 5% loss + jitter and a flapping partition of server 0",
        spec: RunSpec {
            chaos: Some(Chaos {
                loss: 0.05,
                duplicate: 0.01,
                jitter: 1.0,
                until: 300.0,
                partitions: &[Outage(0, 40.0, 70.0), Outage(0, 120.0, 150.0)],
            }),
            events: &[
                Event::Wave(&[Step::Sends(3, 50.0, 10.0, 2.0, 5)]),
                Event::Wave(&[
                    Step::Check(200.0, 1.0),
                    Step::Check(240.0, 1.0),
                    Step::Check(350.0, 1.0),
                    Step::Check(450.0, 1.0),
                ]),
            ],
            ..FIG1
        },
    },
    // Compound failure: drops at a down server and on the wire both
    // consume sends in the trace, and the ledgers must still balance.
    Scenario {
        name: "chaos-crash-loss",
        description: "Fig. 1 with a server crash in [50, 90) under 5% link loss + jitter",
        spec: RunSpec {
            chaos: Some(Chaos {
                loss: 0.05,
                duplicate: 0.0,
                jitter: 0.5,
                until: 300.0,
                partitions: &[],
            }),
            outages: &[Outage(1, 50.0, 90.0)],
            events: &[
                Event::Wave(&[Step::Sends(3, 40.0, 5.0, 3.0, 2)]),
                Event::Wave(&[Step::Check(350.0, 1.0), Step::Check(450.0, 1.0)]),
            ],
            ..FIG1
        },
    },
    Scenario {
        name: "durable-crash",
        description: "WAL-backed Fig. 1, server 0 crashes in [10, 30) mid-deposit: replay, drain",
        spec: DURABLE_CRASH,
    },
    Scenario {
        name: "durable-torn-tail",
        description: "WAL-backed Fig. 1, crash in [10, 30) leaves a torn segment tail: \
                      truncate, replay, drain",
        spec: RunSpec {
            durability: TORN_WAL,
            ..DURABLE_CRASH
        },
    },
    // The second recovery replays a log that already holds one
    // recovery's worth of re-routing; nothing may be lost across either.
    Scenario {
        name: "durable-recrash",
        description: "WAL-backed Fig. 1, server 0 crashes twice ([10, 25) and [45, 60)): \
                      recover, re-crash, drain",
        spec: RunSpec {
            durability: TORN_WAL,
            outages: &[Outage(0, 10.0, 25.0), Outage(0, 45.0, 60.0)],
            events: &[
                Event::Wave(&[Step::Send(5.0, 4.0, 3), Step::Send(40.0, 2.0, 7)]),
                Event::Wave(&[Step::Check(90.0, 1.0), Step::Check(150.0, 1.0)]),
            ],
            ..FIG1
        },
    },
];

/// System-1 at explorable size: Fig. 1's three-server chain with one user
/// on each of the first three hosts. Each user submits three mails at
/// the same instant, so every host has a 3-way contended arrival group
/// (3!³ base schedules) and the submit/forward traffic races further
/// downstream; then everyone checks.
const S1_STEADY: RunSpec<'static> = RunSpec {
    world: World::Fig1(&[1, 1, 1, 0, 0, 0]),
    events: &[
        Event::Wave(&[Step::Sends(3, 0.0, 1.0, 0.0, 1)]),
        Event::Wave(&[Step::Check(120.0, 1.0), Step::Check(200.0, 1.0)]),
    ],
    ..FIG1
};

/// System-2 at explorable size. Everyone logs in at the same instant at
/// their neighbour's host, so location knowledge matters, and mail races
/// the `LocationUpdate` broadcasts: the orderings where mail outruns the
/// update are the ones a single seed rarely hits.
const S2_ROAM: RunSpec<'static> = RunSpec {
    world: World::Roaming,
    events: &[
        Event::Login(1.0, 0, 1),
        Event::Login(1.0, 1, 2),
        Event::Login(1.0, 2, 0),
        Event::Send(1.0, 0, 1),
        Event::Send(1.0, 0, 2),
        Event::Send(1.0, 1, 2),
        Event::Wave(&[Step::Check(120.0, 1.0)]),
    ],
    ..FIG1
};

/// The scenarios `lems-check explore` drives through every schedule:
/// small enough that every interleaving of their same-instant events can
/// be enumerated.
pub static EXPLORE: &[Scenario] = &[
    Scenario {
        name: "s1-steady",
        description: "System-1, 3 servers, 3 users, coincident send bursts, no failures",
        spec: S1_STEADY,
    },
    // The first server, primary for the user hosts, dies with traffic in
    // flight and recovers before the check waves.
    Scenario {
        name: "s1-crash",
        description: "System-1, 3 servers, coincident send bursts, server 0 down in [6, 40)",
        spec: RunSpec {
            outages: &[Outage(0, 6.0, 40.0)],
            ..S1_STEADY
        },
    },
    Scenario {
        name: "s2-roam",
        description: "System-2, 2 servers, 3 roaming users: logins race mail routing",
        spec: S2_ROAM,
    },
    // The first server, a sub-group's only authority and a tracking
    // peer, dies with submissions accepted and login reports, location
    // updates and forwards in flight, and recovers before the checks.
    Scenario {
        name: "s2-crash",
        description: "System-2, 2 servers, 3 roaming users, server 0 down in [4, 40)",
        spec: RunSpec {
            outages: &[Outage(0, 4.0, 40.0)],
            ..S2_ROAM
        },
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
    /// `EVENT_BUDGET` under the engine's FIFO schedule, and judges it.
    pub fn run(&'static self, seed: u64) -> ScenarioOutcome {
        let mut deployment = self.spec.build(seed);
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
    pub(crate) scenario: &'static Scenario,
    /// Engine seed the scenario ran with.
    pub(crate) seed: u64,
    /// The deployment as the run left it.
    pub deployment: Deployment,
    /// Whether the run drained within `EVENT_BUDGET`.
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
    /// completes with zero lost mail under the session layer.
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
