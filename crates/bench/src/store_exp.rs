//! Experiment D1: the durability tax — deposits/sec, crash-recovery time,
//! and drain throughput for the fiat-stable in-memory backend against the
//! per-record-synced WAL backend, behind the committed `BENCH_store.json`.
//!
//! Each tier deposits a deterministic workload into one server's store,
//! crashes it, recovers it (log replay for the WAL), and destructively
//! drains every mailbox — asserting that *every* acked deposit comes back.
//! The WAL tier is sized so segment rotation and chunked compaction both
//! run inside the measurement window; wall times are the only
//! non-deterministic outputs.

use std::time::Instant;

use lems_core::message::{Message, MessageId};
use lems_core::name::MailName;
use lems_core::store::{MailStore, StoreMetrics};
use lems_sim::time::SimTime;
use lems_store::{make_store, DurabilityConfig, WalConfig};

use crate::emit::{StoreBench, StoreTier, BENCH_SCHEMA_VERSION};

/// One size tier of the durability experiment.
#[derive(Clone, Copy, Debug)]
pub struct StoreTierSpec {
    /// Tier label carried into `BENCH_store.json`.
    pub label: &'static str,
    /// Distinct mailboxes the workload spreads over.
    pub users: usize,
    /// Messages deposited.
    pub messages: u64,
}

/// The CI smoke ladder: one tier, small enough for the gate job yet big
/// enough (hundreds of milliseconds per backend) that scheduler jitter
/// cannot masquerade as a regression.
pub fn smoke_tiers() -> Vec<StoreTierSpec> {
    vec![StoreTierSpec {
        label: "smoke-100k",
        users: 1_000,
        messages: 100_000,
    }]
}

/// The full committed ladder, up to the paper's million-message scale.
pub fn full_tiers() -> Vec<StoreTierSpec> {
    let mut tiers = smoke_tiers();
    tiers.push(StoreTierSpec {
        label: "1m",
        users: 1_000,
        messages: 1_000_000,
    });
    tiers
}

/// WAL sized for the tier: roughly eight segment rotations per run, so
/// rotation and compaction are exercised at every size without compaction
/// (which rewrites the live state) turning the tier quadratic.
fn wal_cfg(messages: u64) -> WalConfig {
    WalConfig {
        segment_bytes: (messages * 160 / 8).max(64 * 1024),
        ..WalConfig::default()
    }
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1_000.0
}

/// Runs one tier against both backends (`mem` first, then `wal`).
pub fn run_tier(spec: &StoreTierSpec, seed: u64) -> Vec<StoreTier> {
    vec![
        run_backend(spec, seed, "mem", || make_store(&DurabilityConfig::Ideal)),
        run_backend(spec, seed, "wal", || {
            make_store(&DurabilityConfig::Wal(wal_cfg(spec.messages)))
        }),
    ]
}

/// Repetitions per measurement: the small tiers finish in tens of
/// milliseconds, where scheduler noise on a shared runner is a large
/// fraction of the signal, so we keep the minimum over three runs; the
/// million-message tier is long enough to measure once.
fn reps_for(messages: u64) -> u32 {
    if messages <= 100_000 {
        3
    } else {
        1
    }
}

fn run_backend(
    spec: &StoreTierSpec,
    seed: u64,
    backend: &str,
    make: impl Fn() -> Box<dyn MailStore>,
) -> StoreTier {
    let mut best: Option<StoreTier> = None;
    for _ in 0..reps_for(spec.messages) {
        let (tier, _) = run_backend_once(spec, seed, backend, make());
        best = Some(match best {
            None => tier,
            Some(prev) => StoreTier {
                deposit_ms: prev.deposit_ms.min(tier.deposit_ms),
                deposits_per_sec: prev.deposits_per_sec.max(tier.deposits_per_sec),
                recovery_ms: prev.recovery_ms.min(tier.recovery_ms),
                drain_ms: prev.drain_ms.min(tier.drain_ms),
                ..prev
            },
        });
    }
    best.expect("at least one repetition runs")
}

fn run_backend_once(
    spec: &StoreTierSpec,
    seed: u64,
    backend: &str,
    mut store: Box<dyn MailStore>,
) -> (StoreTier, StoreMetrics) {
    let users: Vec<MailName> = (0..spec.users)
        .map(|u| {
            MailName::new("r0", &format!("h{}", u % 31), &format!("u{u}"))
                .expect("generated names are well-formed")
        })
        .collect();

    let t0 = Instant::now();
    for i in 0..spec.messages {
        let slot = usize::try_from(i).expect("tier sizes fit usize");
        let at = SimTime::from_units(i as f64);
        let msg = Message::new(
            MessageId(i),
            users[(slot + 1) % users.len()].clone(),
            users[slot % users.len()].clone(),
            "bench",
            format!("durability workload {seed}/{i}"),
            at,
        );
        assert!(store.deposit(msg, at), "workload ids are unique");
    }
    let deposit_ms = ms(t0);
    let wal_bytes = store.wal_bytes();

    // Crash at the end of the workload, then time recovery (for the WAL
    // this is a full log replay; for fiat-stable RAM it is a no-op).
    let crash_at = SimTime::from_units(spec.messages as f64);
    let t0 = Instant::now();
    store.crash(crash_at);
    let report = store.recover(crash_at);
    let recovery_ms = ms(t0);
    assert_eq!(
        report.lost_messages, 0,
        "{}/{backend}: acked deposits must survive the crash",
        spec.label
    );

    let t0 = Instant::now();
    let mut drained = 0u64;
    for owner in &users {
        drained += store.drain_destructive(owner).len() as u64;
    }
    let drain_ms = ms(t0);
    assert_eq!(
        drained, spec.messages,
        "{}/{backend}: every deposit drains back after recovery",
        spec.label
    );

    let tier = StoreTier {
        label: spec.label.to_owned(),
        backend: backend.to_owned(),
        users: spec.users,
        messages: spec.messages,
        deposit_ms,
        deposits_per_sec: if deposit_ms > 0.0 {
            spec.messages as f64 / (deposit_ms / 1_000.0)
        } else {
            f64::INFINITY
        },
        recovery_ms,
        replayed_records: report.replayed_records,
        recovered_messages: report.recovered_messages,
        drain_ms,
        wal_bytes,
    };
    (tier, store.store_metrics())
}

/// Runs the WAL workload of `spec` once — deposit, crash, recover,
/// drain — and returns the backend's lifetime health counters (fsyncs,
/// rotations, compaction chunks, replay scan work): the same counters a
/// durable deployment exports as a schema-v3 `Metrics` line, here made
/// visible in the benchmark report.
pub fn wal_health(spec: &StoreTierSpec, seed: u64) -> StoreMetrics {
    let store = make_store(&DurabilityConfig::Wal(wal_cfg(spec.messages)));
    run_backend_once(spec, seed, "wal", store).1
}

/// Runs the given ladder and assembles the `BENCH_store.json` document.
pub fn run_suite(tiers: &[StoreTierSpec], seed: u64) -> StoreBench {
    StoreBench {
        schema_version: BENCH_SCHEMA_VERSION,
        experiment: "store-durability".to_owned(),
        seed,
        tiers: tiers.iter().flat_map(|t| run_tier(t, seed)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_tier_measures_both_backends() {
        let spec = StoreTierSpec {
            label: "test-1k",
            users: 20,
            messages: 1_000,
        };
        let tiers = run_tier(&spec, 7);
        assert_eq!(tiers.len(), 2);
        let (mem, wal) = (&tiers[0], &tiers[1]);
        assert_eq!(mem.backend, "mem");
        assert_eq!(wal.backend, "wal");
        // The asserts inside run_backend already proved zero loss; the
        // document-level contract is that the WAL actually logged and
        // replayed while RAM did neither.
        assert_eq!(mem.replayed_records, 0);
        assert_eq!(mem.wal_bytes, 0);
        assert!(wal.replayed_records > 0);
        assert!(wal.wal_bytes > 0);
        assert_eq!(wal.recovered_messages, 1_000);
    }

    #[test]
    fn wal_health_counters_reflect_the_workload() {
        let spec = StoreTierSpec {
            label: "test-1k",
            users: 20,
            messages: 1_000,
        };
        let m = wal_health(&spec, 7);
        // Per-record sync: at least one fsync per deposit, plus the
        // rotation/compaction syncs the segment sizing guarantees. The
        // append count exceeds the deposit count because destructive
        // drains are themselves logged.
        assert!(
            m.appended_records >= 1_000,
            "{} appends",
            m.appended_records
        );
        assert!(m.appended_bytes > 0);
        assert!(
            m.fsyncs >= 1_000,
            "per-record durability: {} fsyncs",
            m.fsyncs
        );
        assert!(m.rotations > 0, "segment rotation must run in-window");
        assert!(m.replayed_records > 0, "recovery must scan the log");
        assert!(m.replayed_bytes > 0);
        assert_eq!(m.io_errors, 0);
    }

    #[test]
    fn suite_orders_tiers_mem_before_wal() {
        let doc = run_suite(
            &[StoreTierSpec {
                label: "t",
                users: 5,
                messages: 100,
            }],
            3,
        );
        assert_eq!(doc.experiment, "store-durability");
        let pairs: Vec<(&str, &str)> = doc
            .tiers
            .iter()
            .map(|t| (t.label.as_str(), t.backend.as_str()))
            .collect();
        assert_eq!(pairs, vec![("t", "mem"), ("t", "wal")]);
    }
}
