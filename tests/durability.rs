//! Durability acceptance tests (ISSUE 7): the WAL backend must make a
//! server crash *invisible* to the rest of the system — byte-identical
//! event traces against the fiat-stable in-memory model — while the
//! volatile backend demonstrably loses acked mail under the same crash
//! plan, and a persist/restore round trip of the storage layer must not
//! perturb a run at all.

use lems_check::audit::verdict;
use lems_net::generators::fig1;
use lems_sim::time::SimTime;
use lems_store::{DurabilityConfig, SyncPolicy, WalConfig};
use lems_syntax::actors::{Deployment, DeploymentConfig, ServerFailurePlan};

const EVENT_BUDGET: u64 = 2_000_000;

fn t(u: f64) -> SimTime {
    SimTime::from_units(u)
}

/// FNV-1a over the rendered trace (same digest as `schedule_explore`).
fn trace_digest(trace: &lems_sim::trace::Trace) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for ev in trace.events() {
        for b in format!("{ev}\n").bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

/// Small segments so rotation + compaction run inside the test window.
fn wal_cfg() -> WalConfig {
    WalConfig {
        segment_bytes: 8 * 1024,
        chunk_messages: 8,
        max_segments: 3,
        ..WalConfig::default()
    }
}

/// The shared crash plan: Fig. 1, server 0 down in [10, 30) while mail is
/// in flight, deposits landing on it before the crash, users draining
/// well after recovery.
fn crash_workload(seed: u64, durability: DurabilityConfig) -> Deployment {
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

/// The headline claim: with per-record sync, WAL recovery reconstructs the
/// exact pre-crash state, so the entire post-crash event schedule —
/// re-routes, retries, drains — is byte-identical to the fiat-stable
/// model where the crash never destroyed anything.
#[test]
fn wal_crash_trace_is_byte_identical_to_ideal_model() {
    let mut ideal = crash_workload(3, DurabilityConfig::Ideal);
    assert!(ideal.sim.run_to_quiescence_bounded(EVENT_BUDGET));
    let ideal_digest = trace_digest(ideal.sim.trace());

    let mut wal = crash_workload(3, DurabilityConfig::Wal(wal_cfg()));
    assert!(wal.sim.run_to_quiescence_bounded(EVENT_BUDGET));
    let wal_digest = trace_digest(wal.sim.trace());

    assert_eq!(
        ideal_digest, wal_digest,
        "WAL recovery must make the crash invisible to the event schedule"
    );
    // Sanity: both runs delivered everything, and the WAL actually ran
    // (it wrote bytes, and its recovery replayed records losslessly).
    let st = wal.stats.borrow();
    assert_eq!(st.submitted, 12);
    assert_eq!(st.retrieved, 12);
    drop(st);
    assert!(wal.wal_bytes() > 0, "the WAL backend must actually log");
    let recs = wal.recoveries.borrow();
    assert_eq!(recs.len(), 1);
    assert_eq!(recs[0].backend, "wal");
    assert!(recs[0].replayed_records > 0);
    assert_eq!(recs[0].lost_messages, 0);
    assert!(ideal.recoveries.borrow()[0].replayed_records == 0);
}

/// Same seed, same WAL config ⇒ same bytes: the durability layer draws no
/// randomness and schedules nothing of its own.
#[test]
fn wal_run_replays_byte_identically() {
    let mut a = crash_workload(7, DurabilityConfig::Wal(wal_cfg()));
    assert!(a.sim.run_to_quiescence_bounded(EVENT_BUDGET));
    let mut b = crash_workload(7, DurabilityConfig::Wal(wal_cfg()));
    assert!(b.sim.run_to_quiescence_bounded(EVENT_BUDGET));
    assert_eq!(trace_digest(a.sim.trace()), trace_digest(b.sim.trace()));
}

/// A torn write at the crash point is truncated by recovery and changes
/// nothing: the schedule still matches the fiat-stable model.
#[test]
fn torn_tail_recovery_matches_ideal_model() {
    let mut ideal = crash_workload(11, DurabilityConfig::Ideal);
    assert!(ideal.sim.run_to_quiescence_bounded(EVENT_BUDGET));

    let cfg = WalConfig {
        torn_tail_bytes: 13,
        ..wal_cfg()
    };
    let mut wal = crash_workload(11, DurabilityConfig::Wal(cfg));
    assert!(wal.sim.run_to_quiescence_bounded(EVENT_BUDGET));
    assert_eq!(
        trace_digest(ideal.sim.trace()),
        trace_digest(wal.sim.trace())
    );
    let recs = wal.recoveries.borrow();
    assert!(
        recs[0].torn_bytes > 0,
        "the crash must actually have left a torn tail to truncate"
    );
    assert_eq!(recs[0].lost_messages, 0);
}

/// Stopping mid-run, persisting every server's WAL, rebuilding state from
/// the log, and resuming yields the same bytes as never stopping: replay
/// reconstructs the exact in-memory state.
#[test]
fn persist_restore_round_trip_preserves_trace_digest() {
    let mut straight = crash_workload(5, DurabilityConfig::Wal(wal_cfg()));
    assert!(straight.sim.run_to_quiescence_bounded(EVENT_BUDGET));
    let expected = trace_digest(straight.sim.trace());

    let mut resumed = crash_workload(5, DurabilityConfig::Wal(wal_cfg()));
    resumed.sim.run_until(t(45.0));
    let restored = resumed.persist_restore_stores();
    assert_eq!(restored, 3, "all three Fig. 1 servers round-trip");
    assert!(resumed.sim.run_to_quiescence_bounded(EVENT_BUDGET));
    assert_eq!(trace_digest(resumed.sim.trace()), expected);
}

/// The counterexample the WAL exists for: RAM-only storage under the
/// *identical* crash plan loses acked deposits for good — the recipients
/// never retrieve them.
#[test]
fn volatile_backend_loses_acked_mail_under_identical_crash_plan() {
    let mut d = crash_workload(3, DurabilityConfig::Volatile);
    assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
    assert_eq!(d.stats.borrow().submitted, 12);
    let v = verdict(&d, true);
    for loss in [
        "nowhere in server storage (lost)",
        "acked message(s) (backend mem-volatile)",
    ] {
        assert!(
            v.iter().any(|l| l.contains(loss)),
            "a crash of volatile storage must lose mail: `{loss}` not in {v:?}"
        );
    }
}

/// Acknowledge-before-sync is the same bug with extra steps: a WAL whose
/// sync policy never forces records to media loses its un-synced suffix
/// at the crash, exactly like volatile RAM.
#[test]
fn manual_sync_wal_loses_unsynced_records_at_crash() {
    let cfg = WalConfig {
        sync: SyncPolicy::Manual,
        ..wal_cfg()
    };
    let mut d = crash_workload(3, DurabilityConfig::Wal(cfg));
    assert!(d.sim.run_to_quiescence_bounded(EVENT_BUDGET));
    let v = verdict(&d, true);
    assert!(
        v.iter()
            .any(|l| l.contains("acked message(s) (backend wal)")),
        "records never synced must not survive the crash: {v:?}"
    );
}
