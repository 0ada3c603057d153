//! Reproducible audit scenarios.
//!
//! Each scenario builds a System-1 deployment with full tracing enabled
//! ([`ActorSim::enable_trace`]), drives
//! a deterministic workload, runs to quiescence, and then applies both
//! audit layers: the stream-level conservation laws of
//! [`audit_trace`](crate::audit::audit_trace) and the domain-level
//! ledger checks of [`audit_deployment`](crate::audit::audit_deployment).
//!
//! The scenarios are seeds-in, verdict-out: replaying one with the same
//! seed reproduces the identical event stream, which is what makes a
//! reported violation actionable.

use lems_core::store::{StoreMetrics, StoreRecovery};
use lems_net::generators::fig1;
use lems_sim::linkfault::LinkProfile;
use lems_sim::metrics::MetricsRegistry;
use lems_sim::prof::ProfSample;
use lems_sim::span::{audit_spans, SpanAuditReport, SpanLog};
use lems_sim::time::{SimDuration, SimTime};
use lems_store::{DurabilityConfig, WalConfig};
use lems_syntax::actors::{
    Deployment, DeploymentConfig, LinkChaos, ServerFailurePlan, SessionConfig,
};

use crate::audit::{audit_deployment, audit_trace, AuditReport, AuditViolation};

/// Event budget for one scenario run: chaos plans can in principle make a
/// retry loop diverge, so scenarios run bounded and report budget
/// exhaustion as a violation instead of hanging the audit.
pub const EVENT_BUDGET: u64 = 2_000_000;

/// The verdict for one scenario run.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// Stable scenario name (CLI selector).
    pub name: &'static str,
    /// One-line human description.
    pub description: &'static str,
    /// Stream-level conservation report.
    pub trace: AuditReport,
    /// Domain-level ledger violations.
    pub domain: Vec<AuditViolation>,
    /// Messages submitted over the run.
    pub submitted: u64,
    /// Messages retrieved by their recipients.
    pub retrieved: u64,
    /// Messages bounced.
    pub bounced: u64,
    /// Session-layer retransmissions over the run.
    pub retransmits: u64,
    /// Transport wiring errors (sends to unbound/unknown nodes).
    pub wiring_errors: u64,
    /// Message-lifecycle span conservation report — the third evidence
    /// stream, cross-checked against the session stats.
    pub span_report: SpanAuditReport,
    /// The run's complete span log (exportable via `lems-obs`).
    pub spans: SpanLog,
    /// Store-recovery reports, one per server recovery (exportable).
    pub recoveries: Vec<StoreRecovery>,
    /// Per-actor metric registries in deployment order (exportable).
    pub scopes: Vec<(String, MetricsRegistry)>,
    /// Per-server store durability metrics in deployment order
    /// (exportable; empty for volatile backends).
    pub store: Vec<(String, StoreMetrics)>,
    /// Kernel-profiler samples (exportable). Scenarios run with the
    /// profiler on — enabling it changes no output byte (pinned by
    /// `crates/sim/tests/prof_digest.rs`), so the audited digests are
    /// unaffected.
    pub profile: Vec<ProfSample>,
    /// Engine seed the scenario ran with.
    pub seed: u64,
    /// Simulated time at quiescence.
    pub finished_at: SimTime,
    /// FNV-1a digest of the run's rendered trace stream
    /// ([`Trace::digest`](lems_sim::trace::Trace::digest)) — the byte-level
    /// fingerprint `tests/kernel_equivalence.rs` pins against the committed
    /// pre-refactor values in `GOLDEN_kernel_digests.txt`.
    pub trace_digest: u64,
}

impl ScenarioOutcome {
    /// True when all three audit layers found nothing.
    pub fn is_clean(&self) -> bool {
        self.trace.is_clean() && self.domain.is_empty() && self.span_report.is_clean()
    }

    /// Every violation from all layers, rendered.
    pub fn violation_lines(&self) -> Vec<String> {
        self.trace
            .violations
            .iter()
            .map(std::string::ToString::to_string)
            .chain(self.domain.iter().map(std::string::ToString::to_string))
            .chain(
                self.span_report
                    .violations
                    .iter()
                    .map(|v| format!("span: {v}")),
            )
            .collect()
    }
}

fn t(u: f64) -> SimTime {
    SimTime::from_units(u)
}

fn fig1_deployment(seed: u64) -> Deployment {
    fig1_deployment_with_session(seed, SessionConfig::default())
}

fn fig1_deployment_with_session(seed: u64, session: SessionConfig) -> Deployment {
    let f = fig1();
    let mut d = Deployment::build(
        &f.topology,
        &[2, 2, 2, 2, 2, 2],
        &DeploymentConfig {
            seed,
            session,
            ..DeploymentConfig::default()
        },
    );
    // Unbounded so the auditor sees the complete history; must happen
    // before the first injection or the stream starts mid-story.
    d.sim.enable_trace();
    // Lifecycle spans ride the same runs: recording draws no randomness
    // and schedules nothing, so the event stream is unchanged.
    d.enable_spans();
    // Kernel profiling likewise changes no output byte; it feeds the
    // Profile block of `--trace-out` dumps.
    d.sim.enable_prof();
    d
}

fn finish(
    name: &'static str,
    description: &'static str,
    seed: u64,
    mut d: Deployment,
    expect_drained: bool,
) -> ScenarioOutcome {
    let quiesced = d.sim.run_to_quiescence_bounded(EVENT_BUDGET);
    let trace_digest = d.sim.trace().digest();
    let trace = audit_trace(d.sim.trace());
    let mut domain = audit_deployment(&d, expect_drained);
    if !quiesced {
        domain.insert(
            0,
            AuditViolation::Domain(format!(
                "event budget exceeded: {EVENT_BUDGET} events processed without \
                 quiescence (runaway retry loop?)"
            )),
        );
    }
    // Third evidence stream: every opened span must reach exactly one
    // terminal state (open-ended spans are only tolerated when the run
    // itself was cut off), and the span ledger's retransmit count must
    // agree with the session layer's own accounting.
    let spans = d.spans.borrow().clone();
    let span_report = audit_spans(&spans, expect_drained && quiesced);
    let stats = d.stats.borrow();
    if span_report.retransmits != stats.retransmits {
        domain.push(AuditViolation::Domain(format!(
            "span ledger disagrees with session stats: {} retransmit probe(s) \
             recorded in spans, {} counted by the session layer",
            span_report.retransmits, stats.retransmits
        )));
    }
    let submitted = stats.submitted;
    let retrieved = stats.retrieved;
    let bounced = stats.bounced;
    let retransmits = stats.retransmits;
    drop(stats);
    ScenarioOutcome {
        name,
        description,
        trace,
        domain,
        submitted,
        retrieved,
        bounced,
        retransmits,
        wiring_errors: d.transport.wiring_errors(),
        span_report,
        spans,
        recoveries: d.recoveries.borrow().clone(),
        scopes: d.metrics_snapshot(),
        store: d.store_metrics_snapshot(),
        profile: d.sim.profile_samples(),
        seed,
        finished_at: d.sim.now(),
        trace_digest,
    }
}

/// Steady-state exchange on the Fig. 1 topology: no failures, every user
/// mails a distant peer, everyone checks mail afterwards. The baseline —
/// if this reports a violation, the engine itself is miswired.
pub fn steady_exchange(seed: u64) -> ScenarioOutcome {
    let mut d = fig1_deployment(seed);
    let names = d.user_names();
    for i in 0..names.len() {
        d.send_at(t(1.0 + i as f64), &names[i], &names[(i + 5) % names.len()]);
    }
    for (i, n) in names.iter().enumerate() {
        d.check_at(t(100.0 + i as f64), n);
    }
    finish(
        "steady",
        "Fig. 1 topology, no failures: ring of sends, then everyone checks",
        seed,
        d,
        true,
    )
}

/// The actor-level analogue of `examples/failure_drill.rs`: the first
/// Fig. 1 server is down in `[10, 30)`, mail submitted during the outage
/// fails over to secondaries, users check both during the outage and
/// after recovery, and drain sweeps run once everything is healed.
/// Exercises crash/recover tracing, message drops on the downed server,
/// the §3.1.2c `LastStartTime` walk, and the store-and-forward recovery
/// path — nothing may be lost or stranded.
pub fn primary_outage_failover(seed: u64) -> ScenarioOutcome {
    let f = fig1();
    let mut d = fig1_deployment(seed);
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
    finish(
        "failover",
        "Fig. 1 primary server down in [10, 30): failover, recovery, drain",
        seed,
        d,
        true,
    )
}

/// Random exponential outages across all three Fig. 1 servers (MTBF 120,
/// MTTR 15 over a 600-unit horizon) under a spread-out send/check load,
/// with drain sweeps scheduled after the last outage heals.
pub fn random_failures(seed: u64) -> ScenarioOutcome {
    let f = fig1();
    let mut d = fig1_deployment(seed);
    let names = d.user_names();

    let mut rng = lems_sim::rng::SimRng::seed(seed).fork("check-failures");
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
    finish(
        "random-failures",
        "Fig. 1 with random server outages (MTBF 120, MTTR 15): load + drain",
        seed,
        d,
        true,
    )
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
pub fn chaos_lossy(seed: u64) -> ScenarioOutcome {
    let mut d = fig1_deployment(seed);
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
    finish(
        "chaos-lossy",
        "Fig. 1 with 8% loss, 2% duplication, jitter until t=300: load + drain",
        seed,
        d,
        true,
    )
}

/// The acceptance gauntlet: ≥5% probabilistic loss with jitter on every
/// link *plus* a flapping partition that repeatedly isolates the first
/// server (windows [40,70) and [120,150)). Mail submitted into the
/// partition must fail over to secondaries; nothing may be lost or
/// stranded once the network heals and users drain.
pub fn chaos_partition(seed: u64) -> ScenarioOutcome {
    let d = chaos_partition_deployment(seed, SessionConfig::default());
    finish(
        "chaos-partition",
        "Fig. 1 with 5% loss + jitter and a flapping partition of server 0",
        seed,
        d,
        true,
    )
}

/// Builds the `chaos-partition` workload without running it — shared by
/// the audited scenario and the session-off counterexample test.
///
/// # Panics
///
/// Panics if the scenario's literal fault parameters are invalid or
/// name unbound Fig. 1 nodes (a typo in the scenario definition).
#[expect(
    clippy::expect_used,
    reason = "literal scenario parameters: a typo must abort the checker"
)]
fn chaos_partition_deployment(seed: u64, session: SessionConfig) -> Deployment {
    let f = fig1();
    let mut d = fig1_deployment_with_session(seed, session);
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
pub fn chaos_crash_loss(seed: u64) -> ScenarioOutcome {
    let f = fig1();
    let mut d = fig1_deployment(seed);
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
    finish(
        "chaos-crash-loss",
        "Fig. 1 with a server crash in [50, 90) under 5% link loss + jitter",
        seed,
        d,
        true,
    )
}

/// Builds a Fig. 1 deployment whose servers persist through `durability`,
/// with tracing and spans enabled.
fn fig1_deployment_durable(seed: u64, durability: DurabilityConfig) -> Deployment {
    let f = fig1();
    let mut d = Deployment::build(
        &f.topology,
        &[2, 2, 2, 2, 2, 2],
        &DeploymentConfig {
            seed,
            durability,
            ..DeploymentConfig::default()
        },
    );
    d.sim.enable_trace();
    d.enable_spans();
    d.sim.enable_prof();
    d
}

/// The WAL configuration the durability scenarios run with: small
/// segments so rotation and chunked compaction actually happen inside a
/// short audited run, plus an optional torn tail at crash time.
fn scenario_wal(torn_tail_bytes: usize) -> WalConfig {
    WalConfig {
        segment_bytes: 8 * 1024,
        chunk_messages: 8,
        max_segments: 3,
        torn_tail_bytes,
        ..WalConfig::default()
    }
}

/// Post-audit durability gate: the scenario must have actually recovered
/// at least one server, and no recovery may report destroyed mail — an
/// acked deposit that did not survive its crash is exactly the loss the
/// WAL exists to prevent.
fn expect_durable(mut o: ScenarioOutcome) -> ScenarioOutcome {
    if o.recoveries.is_empty() {
        o.domain.push(AuditViolation::Domain(
            "durability scenario recorded no store recovery — nothing crashed, \
             so the scenario proves nothing"
                .to_owned(),
        ));
    }
    for r in &o.recoveries {
        if r.lost_messages > 0 {
            o.domain.push(AuditViolation::Domain(format!(
                "store recovery at {} on n{} lost {} acked message(s) \
                 (backend {})",
                r.at, r.site, r.lost_messages, r.backend
            )));
        }
    }
    o
}

/// Crash-mid-deposit under the WAL backend: the first Fig. 1 server goes
/// down in `[10, 30)` while mail is in flight, its WAL replays on
/// recovery, and every acked deposit must still reach its recipient —
/// proven by the same span-conservation audit the volatile scenarios use.
pub fn durable_crash(seed: u64) -> ScenarioOutcome {
    let f = fig1();
    let mut d = fig1_deployment_durable(seed, DurabilityConfig::Wal(scenario_wal(0)));
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
    expect_durable(finish(
        "durable-crash",
        "WAL-backed Fig. 1, server 0 crashes in [10, 30) mid-deposit: replay, drain",
        seed,
        d,
        true,
    ))
}

/// As `durable-crash`, but the crash additionally leaves a torn write —
/// garbage bytes past the durable boundary of the newest WAL segment.
/// Recovery must truncate the torn tail and still lose nothing.
pub fn durable_torn_tail(seed: u64) -> ScenarioOutcome {
    let f = fig1();
    let mut d = fig1_deployment_durable(seed, DurabilityConfig::Wal(scenario_wal(13)));
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
    expect_durable(finish(
        "durable-torn-tail",
        "WAL-backed Fig. 1, crash in [10, 30) leaves a torn segment tail: truncate, replay, drain",
        seed,
        d,
        true,
    ))
}

/// Recover-then-re-crash: the same WAL-backed server goes down twice
/// (`[10, 25)` and `[45, 60)`), so the second recovery replays a log that
/// already contains one recovery's worth of re-routing. Nothing may be
/// lost across either cycle.
pub fn durable_recrash(seed: u64) -> ScenarioOutcome {
    let f = fig1();
    let mut d = fig1_deployment_durable(seed, DurabilityConfig::Wal(scenario_wal(13)));
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
    expect_durable(finish(
        "durable-recrash",
        "WAL-backed Fig. 1, server 0 crashes twice ([10, 25) and [45, 60)): recover, re-crash, drain",
        seed,
        d,
        true,
    ))
}

/// The durability scenarios only (the `--durability` CLI selector).
pub fn run_durability(seed: u64) -> Vec<ScenarioOutcome> {
    vec![
        durable_crash(seed),
        durable_torn_tail(seed),
        durable_recrash(seed),
    ]
}

/// The chaos scenarios only (the `--chaos` CLI selector).
pub fn run_chaos(seed: u64) -> Vec<ScenarioOutcome> {
    vec![
        chaos_lossy(seed),
        chaos_partition(seed),
        chaos_crash_loss(seed),
    ]
}

/// Runs every scenario with `seed`.
pub fn run_all(seed: u64) -> Vec<ScenarioOutcome> {
    vec![
        steady_exchange(seed),
        primary_outage_failover(seed),
        random_failures(seed),
        chaos_lossy(seed),
        chaos_partition(seed),
        chaos_crash_loss(seed),
        durable_crash(seed),
        durable_torn_tail(seed),
        durable_recrash(seed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_scenario_is_clean_and_nontrivial() {
        let o = steady_exchange(3);
        assert!(o.is_clean(), "{:?}", o.violation_lines());
        assert!(o.submitted >= 12 && o.retrieved == o.submitted - o.bounced);
        assert!(o.trace.sends > 0 && o.trace.crashes == 0);
    }

    #[test]
    fn failover_scenario_exercises_crash_paths_and_stays_clean() {
        let o = primary_outage_failover(3);
        assert!(o.is_clean(), "{:?}", o.violation_lines());
        assert_eq!(o.trace.crashes, 1);
        assert_eq!(o.trace.recoveries, 1);
        assert!(o.trace.drops > 0, "outage should drop in-flight messages");
    }

    #[test]
    fn random_failure_scenario_is_clean_across_seeds() {
        for seed in [1, 2] {
            let o = random_failures(seed);
            assert!(o.is_clean(), "seed {seed}: {:?}", o.violation_lines());
        }
    }

    #[test]
    fn chaos_lossy_scenario_is_clean_and_actually_lossy() {
        let o = chaos_lossy(3);
        assert!(o.is_clean(), "{:?}", o.violation_lines());
        assert!(o.trace.link_drops > 0, "8% loss must drop something");
        assert!(o.retransmits > 0, "loss must force retransmissions");
        assert_eq!(o.retrieved + o.bounced, o.submitted);
        assert_eq!(o.wiring_errors, 0);
    }

    /// The acceptance criterion: ≥5% loss + jitter + a flapping partition
    /// completes with zero lost mail under the session layer...
    #[test]
    fn chaos_partition_scenario_loses_nothing() {
        let o = chaos_partition(7);
        assert!(o.is_clean(), "{:?}", o.violation_lines());
        assert!(o.trace.link_drops > 0, "the partition must cut traffic");
        assert_eq!(o.retrieved + o.bounced, o.submitted, "zero lost mail");
        assert_eq!(o.bounced, 0, "failover should beat the retry budget");
    }

    /// ...and the same gauntlet with the session layer disabled
    /// demonstrably loses mail — the robustness is load-bearing, not luck.
    #[test]
    fn chaos_partition_without_session_layer_loses_mail() {
        let mut d = chaos_partition_deployment(7, SessionConfig::legacy());
        assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
        let stats = d.stats.borrow();
        let accounted = stats.retrieved + stats.bounced + d.mail_in_storage() as u64;
        assert!(
            accounted < stats.submitted,
            "expected lost mail without retries: submitted {} accounted {}",
            stats.submitted,
            accounted
        );
    }

    /// Every scenario now carries the third evidence stream: a clean span
    /// conservation report whose terminal counts agree with the ledgers,
    /// plus per-actor metric registries ready for export.
    #[test]
    fn scenarios_carry_span_and_metric_evidence() {
        let o = steady_exchange(3);
        assert!(o.span_report.is_clean(), "{:?}", o.span_report.violations);
        assert_eq!(o.span_report.retrieved, o.retrieved);
        assert_eq!(o.span_report.bounced, o.bounced);
        assert_eq!(o.span_report.retransmits, o.retransmits);
        assert!(o.spans.spans_opened() > 0, "spans must be recorded");
        assert!(!o.scopes.is_empty(), "metric scopes must be captured");
        assert_eq!(o.seed, 3);
        assert!(o.finished_at > t(0.0));
        // The kernel profiler ran: dispatch cells for both actor kinds.
        for cell in ["server/deliver", "host/deliver"] {
            assert!(
                o.profile
                    .iter()
                    .any(|s| s.scope == "dispatch" && s.name == cell && s.count > 0),
                "missing dispatch cell {cell}"
            );
        }
        assert!(
            o.store.is_empty(),
            "volatile deployment must export no store metrics"
        );
    }

    /// Durable scenarios additionally export WAL health: appends, fsyncs,
    /// and the recovery scan work of the crash they survived.
    #[test]
    fn durable_scenarios_carry_store_metrics() {
        let o = durable_crash(3);
        assert!(o.is_clean(), "{:?}", o.violation_lines());
        assert!(!o.store.is_empty(), "WAL servers must export store metrics");
        for (scope, m) in &o.store {
            assert!(scope.starts_with("server:n"), "scope {scope}");
            assert!(m.appended_records > 0 && m.fsyncs > 0, "{scope}: {m:?}");
        }
        let crashed: Vec<_> = o
            .store
            .iter()
            .filter(|(_, m)| m.replayed_records > 0)
            .collect();
        assert!(
            !crashed.is_empty(),
            "the crashed server's recovery scan must be visible"
        );
    }

    #[test]
    fn chaos_crash_loss_scenario_is_clean() {
        let o = chaos_crash_loss(3);
        assert!(o.is_clean(), "{:?}", o.violation_lines());
        assert_eq!(o.trace.crashes, 1);
        assert!(o.trace.drops > 0, "the downed server must drop sends");
        assert!(o.trace.link_drops > 0, "the lossy wire must drop sends");
    }
}
