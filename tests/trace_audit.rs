//! Integration: the trace auditor's conservation laws hold on full
//! System-1 deployments, including under injected server failures — the
//! tier-1 wiring of `lems-check`'s dynamic layer.
//!
//! The scenarios live in `lems_check::scenarios` so the same runs are
//! reproducible from the CLI: `cargo run -p lems-check -- audit`.

use lems::net::generators::fig1;
use lems::sim::time::SimTime;
use lems::syntax::{Deployment, DeploymentConfig, ServerFailurePlan};
use lems_check::audit::{audit_trace, verdict};
use lems_check::scenarios::Scenario;

/// Every scenario here quiesces far below this; exhausting it means a
/// stuck retry loop, which must fail the test rather than hang it.
const EVENT_BUDGET: u64 = 2_000_000;

#[test]
fn steady_scenario_conserves_every_message() {
    for seed in [1, 4, 9] {
        let o = Scenario::named("steady").run(seed);
        assert!(o.is_clean(), "seed {seed}: {:?}", o.violations);
        // Conservation at the stream level: sends = delivers + drops.
        let trace = audit_trace(o.deployment.sim.trace());
        assert_eq!(trace.sends, trace.delivers + trace.drops);
    }
}

#[test]
fn failover_scenario_conserves_through_crash_and_recovery() {
    for seed in [1, 4, 9] {
        let o = Scenario::named("failover").run(seed);
        assert!(o.is_clean(), "seed {seed}: {:?}", o.violations);
        let trace = audit_trace(o.deployment.sim.trace());
        assert_eq!(trace.crashes, 1, "seed {seed}");
        assert_eq!(trace.recoveries, 1, "seed {seed}");
    }
}

#[test]
fn random_failure_scenario_conserves_across_seeds() {
    for seed in [2, 7] {
        let o = Scenario::named("random-failures").run(seed);
        assert!(o.is_clean(), "seed {seed}: {:?}", o.violations);
        let trace = audit_trace(o.deployment.sim.trace());
        assert_eq!(trace.crashes, trace.recoveries, "seed {seed}");
    }
}

/// The actor-level failure drill from `examples/failure_drill.rs`,
/// audited directly (not via the scenarios module): deposits land while
/// the primary is down, and GetMail must still drain everything once it
/// recovers — no delivered message may be stranded.
#[test]
fn getmail_under_outage_strands_nothing() {
    let f = fig1();
    let mut d = Deployment::build(
        &f.topology,
        &[2, 2, 2, 2, 2, 2],
        &DeploymentConfig {
            seed: 5,
            ..DeploymentConfig::default()
        },
    );
    d.sim.enable_trace();
    d.enable_spans();

    let mut plan = ServerFailurePlan::new();
    plan.add(
        f.servers[0],
        SimTime::from_units(10.0),
        SimTime::from_units(30.0),
    );
    d.apply_server_failures(&plan);

    let names = d.user_names();
    let t = SimTime::from_units;
    // Deposits before, during, and after the outage (cf. the drill's
    // t=5 / t=12 / t=20 deposits), against user 0.
    d.send_at(t(5.0), &names[1], &names[0]);
    d.send_at(t(12.0), &names[2], &names[0]);
    d.send_at(t(20.0), &names[3], &names[0]);
    // Checks during the outage and after recovery (drill's 15/35/40).
    d.check_at(t(15.0), &names[0]);
    d.check_at(t(35.0), &names[0]);
    d.check_at(t(60.0), &names[0]);
    assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));

    let violations = verdict(&d, true);
    assert!(violations.is_empty(), "{violations:?}");
    let trace = audit_trace(d.sim.trace());
    assert_eq!(trace.crashes, 1);
    assert_eq!(trace.recoveries, 1);
    let st = d.stats.borrow();
    assert_eq!(st.retrieved, 3, "all three deposits must be drained");
    assert_eq!(st.outstanding(), 0);
}
