//! Integration: the trace auditor's conservation laws hold on full
//! System-1 deployments, including under injected server failures — the
//! tier-1 wiring of `lems-check`'s dynamic layer.
//!
//! The scenarios live in `lems_check::scenarios` so the same runs are
//! reproducible from the CLI: `cargo run -p lems-check -- audit`.

use lems_check::audit::{audit_trace, verdict};
use lems_check::scenarios::{Event, RunSpec, Scenario};

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

/// The actor-level failure drill from `examples/failure_drill.rs` on
/// `failover`'s outage (the first server down in [10, 30)): deposits for
/// user 0 land before, during and after it (the drill's t=5 / 12 / 20),
/// user 0 checks during it and after recovery (the drill's 15 / 35 / 40),
/// and GetMail must drain everything — no delivered message may be
/// stranded.
#[test]
fn getmail_under_outage_strands_nothing() {
    let drill = RunSpec {
        events: &[
            Event::Send(5.0, 1, 0),
            Event::Send(12.0, 2, 0),
            Event::Send(20.0, 3, 0),
            Event::Check(15.0, 0),
            Event::Check(35.0, 0),
            Event::Check(60.0, 0),
        ],
        ..Scenario::named("failover").spec.clone()
    };
    let mut d = drill.build(5);
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
