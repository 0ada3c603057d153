//! Pins what the store allocates per operation once it is warm, with a
//! log and without one.
//!
//! A server's store runs four operations per delivered message — deposit,
//! the check that finds it, the acknowledgement, and (far more often than
//! any of those) the check that finds nothing. The last must cost nothing
//! at all: no record is built, no frame encoded, no byte appended. The
//! other three encode into the log's one frame buffer and allocate only
//! what the state itself keeps or hands out; a store without a log builds
//! no record at all.
//!
//! CI runs this against the release build (the claim is about optimised
//! code); the budget holds in a debug build too.
//!
//! Lives in `tests/` (its own crate) because `lems-store` forbids the
//! `unsafe` a `GlobalAlloc` impl requires; the counting allocator is
//! `tests/support/counting_alloc.rs`, shared by every allocation budget.

use lems_core::message::{Message, MessageId};
use lems_core::name::MailName;
use lems_core::store::MailStore;
use lems_sim::time::SimTime;
use lems_store::{DurabilityConfig, Store, WalConfig};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

/// Allocations made while `f` runs.
fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = counting_alloc::allocations();
    f();
    counting_alloc::allocations() - before
}

const OWNERS: usize = 50;
const CYCLES: usize = 2_000;

/// What one subject allocated, once warm: over [`CYCLES`] idle checks,
/// and over [`CYCLES`] deposit/check/acknowledgement cycles.
struct Spent {
    idle: u64,
    busy: u64,
}

/// Warms `store` up, then counts what its idle checks and its cycles
/// allocate. Every cycle must log exactly three records, and an idle
/// check none.
fn spend(store: &mut Store) -> Spent {
    let owners: Vec<MailName> = (0..OWNERS)
        .map(|i| format!("east.h{}.u{i}", i % 7).parse().unwrap())
        .collect();
    let sender: MailName = "west.h.sender".parse().unwrap();
    let message = |id: usize| {
        Message::new(
            MessageId(id as u64),
            sender.clone(),
            owners[id % OWNERS].clone(),
            "subject",
            "a body of ordinary length",
            SimTime::from_units(id as f64),
        )
    };
    // One delivered message: deposit, the check that finds it, the ack.
    let mut ids = Vec::with_capacity(1);
    let mut cycle = |store: &mut Store, m: Message| {
        let owner = m.to.clone();
        let now = m.submitted_at;
        assert!(store.deposit(m, now));
        let reserved = store.drain_reserve(&owner);
        ids.clear();
        ids.extend(reserved.iter().map(|m| m.id));
        assert_eq!(store.release_drained(&owner, &ids), 1);
    };
    let appended = |store: &Store| store.store_metrics().appended_records;
    let logs = store.backend() == "wal";

    // Warm-up: every owner's entry, mailbox and buffers exist and the
    // frame buffer has seen its largest record.
    for id in 0..2 * OWNERS {
        cycle(store, message(id));
    }
    let before = appended(store);
    // Owners take slots in the order their first deposit met them.
    for (slot, owner) in owners.iter().enumerate() {
        assert_eq!(store.state().slot_of(owner), Some(slot as u32));
    }

    // The check that finds nothing, hint-less and hinted: nothing at all.
    let idle = allocs_in(|| {
        for round in 0..CYCLES {
            let owner = &owners[round % OWNERS];
            assert!(store.drain_reserve(owner).is_empty());
            let hint = (round % OWNERS) as u32;
            assert!(store.drain_reserve_at(owner, hint).is_empty());
        }
    });
    assert_eq!(appended(store), before, "idle checks log nothing");

    // Messages are built outside the measurement: they are the caller's.
    let messages: Vec<Message> = (2 * OWNERS..2 * OWNERS + CYCLES).map(message).collect();
    let busy = allocs_in(|| {
        for m in messages {
            cycle(store, m);
        }
    });
    let logged = if logs { 3 * CYCLES as u64 } else { 0 };
    assert_eq!(appended(store), before + logged);
    Spent { idle, busy }
}

/// The WAL store, then the log-less one.
#[test]
fn warmed_up_wal_cycle_stays_within_its_allocation_budget() {
    // One segment for the whole run: rotation and compaction have their
    // own tests, and their cost is per segment, not per operation.
    let cfg = WalConfig {
        segment_bytes: u64::MAX,
        ..WalConfig::default()
    };
    let wal = spend(&mut Store::new(&DurabilityConfig::Wal(cfg)));
    assert_eq!(
        wal.idle, 0,
        "{CYCLES} idle checks allocated {} times",
        wal.idle
    );
    // Per cycle: the mailbox's `Vec` regrows from empty after the drain
    // took it (1), the reserved list is handed out as a clone (1), the
    // acknowledgement is sorted in a copy and logged from one (2); the
    // rest is amortised growth of the dedup ledger's tree and of the
    // segment's bytes. 8 337 measured for 2 000 cycles (4.2 each); at the
    // parent of this test 50 335 (25.2 each), and five per idle check.
    let budget = 5 * CYCLES as u64;
    assert!(
        wal.busy <= budget,
        "{CYCLES} WAL deposit/drain/release cycles allocated {} times (budget {budget})",
        wal.busy
    );

    // The log-less store builds no record: what is left is the state's
    // own regrown mailbox, handed-out clone, sorted acknowledgement and
    // ledger growth. 6 333 measured for 2 000 cycles (3.2 each).
    let stable = spend(&mut Store::new(&DurabilityConfig::Ideal));
    assert_eq!(
        stable.idle, 0,
        "{CYCLES} idle checks allocated {} times",
        stable.idle
    );
    let budget = 4 * CYCLES as u64;
    assert!(
        stable.busy <= budget,
        "{CYCLES} mem-stable deposit/drain/release cycles allocated {} times (budget {budget})",
        stable.busy
    );
}
