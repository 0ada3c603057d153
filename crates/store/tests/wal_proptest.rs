//! Property tests for the WAL codec and recovery (ISSUE 7 satellite):
//! arbitrary deposit/drain/release/forward sequences round-trip
//! through append → crash-at-every-byte-prefix → recover, and the
//! recovered state always equals an in-memory oracle.

use lems_core::message::{Message, MessageId, MessageIdGen};
use lems_core::name::MailName;
use lems_core::store::{MailStore, StoreState, NO_OWNER_SLOT};
use lems_sim::time::SimTime;
use lems_store::codec;
use lems_store::wal::{apply, SyncPolicy, WalConfig};
use lems_store::{DurabilityConfig, Store};
use proptest::prelude::*;

const USERS: &[&str] = &[
    "east.vax1.alice",
    "east.vax1.bob",
    "west.sun1.carol",
    "west.sun1.dave",
    "north.pc1.erin",
    "south.pc2.frank",
];

fn user(idx: u64) -> MailName {
    USERS[(idx as usize) % USERS.len()].parse().unwrap()
}

fn message(gen: &mut MessageIdGen, to: u64, at: u64) -> Message {
    Message::new(
        gen.next_id(),
        "east.vax1.postmaster".parse().unwrap(),
        user(to),
        format!("subject-{to}"),
        "property test body",
        SimTime::from_units(at as f64),
    )
}

/// One scripted operation, decoded from a `(op, user, val)` triple.
fn run_op(
    store: &mut Store,
    oracle: &mut StoreState,
    gen: &mut MessageIdGen,
    op: u8,
    who: u64,
    val: u64,
) {
    let now = SimTime::from_units(val as f64);
    match op {
        // Deposits dominate the mix, like real traffic.
        0..=2 => {
            let m = message(gen, who, val);
            store.deposit(m.clone(), now);
            oracle.deposit_at(m, NO_OWNER_SLOT);
        }
        3 => {
            let owner = user(who);
            let a = store.drain_reserve(&owner);
            let b = oracle.drain_reserve_at(&owner, NO_OWNER_SLOT).0;
            assert_eq!(a, b, "live drain must match oracle");
        }
        4 => {
            // Release a handful of plausible ids (some reserved, some not).
            let owner = user(who);
            let ids: Vec<MessageId> = (val..val + 3).map(MessageId).collect();
            assert_eq!(
                store.release_drained(&owner, &ids),
                oracle.release_drained_at(&owner, &ids, NO_OWNER_SLOT)
            );
        }
        5 => {
            let m = message(gen, who, val);
            store.accept_forward(&m, (val % 16) as u32);
            oracle.accept_forward(&m, (val % 16) as u32);
        }
        6 => {
            store.settle_forward(MessageId(val));
            oracle.settle_forward(MessageId(val));
        }
        7 => {
            // A check straight after a check: the second one is idle.
            let owner = user(who);
            for _ in 0..2 {
                assert_eq!(
                    store.drain_reserve(&owner),
                    oracle.drain_reserve_at(&owner, NO_OWNER_SLOT).0
                );
            }
        }
        _ => {
            // A check, its acknowledgement, and the acknowledgement's
            // duplicate, which releases nothing.
            let owner = user(who);
            let drained = store.drain_reserve(&owner);
            assert_eq!(drained, oracle.drain_reserve_at(&owner, NO_OWNER_SLOT).0);
            let ids: Vec<MessageId> = drained.iter().map(|m| m.id).collect();
            for released in [ids.len() as u64, 0] {
                assert_eq!(store.release_drained(&owner, &ids), released);
                assert_eq!(
                    oracle.release_drained_at(&owner, &ids, NO_OWNER_SLOT),
                    released
                );
            }
        }
    }
}

/// Runs `ops` against a one-segment WAL and an in-memory oracle, then
/// crashes at *every byte prefix* of the log: replay must yield exactly the
/// state after the complete records in that prefix, and the full log the
/// oracle. Returns the log's bytes and the final state.
fn crash_at_every_prefix(ops: &[(u8, u64, u64)]) -> (Vec<u8>, StoreState) {
    let cfg = WalConfig {
        segment_bytes: u64::MAX, // keep one segment so prefixes are meaningful
        sync: SyncPolicy::PerRecord,
        ..WalConfig::default()
    };
    let mut store = Store::new(&DurabilityConfig::Wal(cfg));
    let mut oracle = StoreState::default();
    let mut gen = MessageIdGen::new();
    for (op, who, val) in ops {
        run_op(&mut store, &mut oracle, &mut gen, *op, *who, *val);
    }
    assert_eq!(store.state(), &oracle);

    // Reconstruct the log bytes and the state after each record.
    let bytes = store.read_segment(0).unwrap();
    let mut snapshots: Vec<StoreState> = vec![StoreState::default()];
    let replayed = codec::replay_segment(&bytes, 0, |rec| {
        let mut next = snapshots.last().cloned().unwrap_or_default();
        apply(&mut next, rec);
        snapshots.push(next);
    })
    .unwrap();
    assert!(replayed.tail.is_none());
    assert_eq!(snapshots.last().unwrap(), &oracle);

    // Crash at every byte prefix: replay tolerating a torn tail must
    // land exactly on a record boundary's state.
    for cut in 0..=bytes.len() {
        let mut state = StoreState::default();
        let seg = codec::replay_segment(&bytes[..cut], 0, |rec| {
            apply(&mut state, rec);
        })
        .unwrap();
        assert_eq!(&state, &snapshots[seg.records as usize]);
    }
    (bytes, oracle)
}

/// A user who only ever checked (alice), one who was only ever deposited
/// to (bob), and one with both (carol): `(op, user, val)` as `run_op`
/// reads them.
const SHAPE_SCRIPT: &[(u8, u64, u64)] = &[
    (3, 0, 1), // alice checks and finds nothing: no change, no record
    (0, 1, 2), // bob is deposited to (id 0)
    (0, 2, 3), // carol is deposited to (id 1) ...
    (3, 2, 4), // ... checks ...
    (4, 2, 1), // ... and acks ids 1-3: she holds nothing for a while
    (0, 1, 5), // bob again (id 2)
    (3, 0, 6), // alice again
    (0, 2, 7), // carol holds one undrained message (id 3)
];

/// Length of the log `SHAPE_SCRIPT` writes: the 604 bytes of a log that
/// records every operation, less the two records that change nothing —
/// alice's two checks, each a 31-byte `DrainReserve` (9 of header, 3 of
/// version and tag, 4 + 15 of name) — and less the deposit time each of
/// the four `Deposit` records carried until schema version 2, 8 bytes
/// apiece: 604 − 62 − 32. 542 with the time, and 573 while her first
/// check still wrote one, to record that she had a (empty) reservation
/// buffer.
const SHAPE_SCRIPT_LOG_BYTES: usize = 510;

/// Total segment bytes after `SHAPE_SCRIPT` × 12 through a WAL that
/// rotates every 256 bytes and compacts past two segments — snapshot
/// records included, so this pins what compaction writes. None of alice's
/// 24 checks and none of carol's 10 acknowledgements that release nothing
/// (from the third round on she holds no id in 1..=3) are written.
///
/// 6 017 while each stored message carried its deposit time: the last
/// segment then held a snapshot of bob's 23 waiting messages, then two
/// `Deposit` records, and lost 8 bytes on each of those 25 (6 017 − 200
/// = 5 817). Smaller records fill segments later — 16 rotations where
/// there were 20 — so the last compaction now lands one step earlier,
/// before carol's last check: her two messages are snapshotted in her
/// mailbox instead of at the end of her buffer (223 bytes either way),
/// and her check follows as a 31-byte `DrainReserve` (5 817 + 31).
///
/// 6 160 before that, while compaction also wrote each mailbox's lifetime
/// counters and an empty buffer for a user who had checked: the last
/// snapshot lost bob's and carol's 54-byte counter records and alice's
/// 35-byte empty `SnapshotPending` (9 + 3 + 4 + 15, and 4 for the count),
/// 143 bytes; the segments rotated and compacted where they did.
const SHAPE_SCRIPT_COMPACTED_BYTES: u64 = 5848;

/// Alice only ever checked, so nothing of her is held, and no record
/// names her; bob and carol hold mail.
fn assert_shape(state: &StoreState, bytes: &[u8]) {
    let (alice, bob, carol) = (user(0), user(1), user(2));
    assert!(state.mailboxes().get(&alice).is_none());
    assert!(state.pending().get(&alice).is_none());
    let name = alice.to_string();
    assert!(
        !bytes.windows(name.len()).any(|w| w == name.as_bytes()),
        "no record names a user who only checked"
    );
    assert_eq!(
        state.mailboxes().keys().collect::<Vec<_>>(),
        [&bob, &carol],
        "the view lists those who hold mail, in name order"
    );
}

#[test]
fn an_only_checked_user_leaves_no_trace_in_any_prefix() {
    let (bytes, state) = crash_at_every_prefix(SHAPE_SCRIPT);
    assert_shape(&state, &bytes);
    assert_eq!(state.pending().iter().count(), 0, "carol acked her mail");
    assert_eq!(bytes.len(), SHAPE_SCRIPT_LOG_BYTES);
}

#[test]
fn an_only_checked_user_leaves_no_trace_through_compaction() {
    let cfg = WalConfig {
        segment_bytes: 256,
        chunk_messages: 2,
        max_segments: 2,
        sync: SyncPolicy::PerRecord,
        ..WalConfig::default()
    };
    let mut store = Store::new(&DurabilityConfig::Wal(cfg));
    let mut oracle = StoreState::default();
    let mut gen = MessageIdGen::new();
    for _ in 0..12 {
        for &(op, who, val) in SHAPE_SCRIPT {
            run_op(&mut store, &mut oracle, &mut gen, op, who, val);
        }
    }
    assert!(
        store.store_metrics().compactions > 0,
        "small segments must compact"
    );
    // The last compaction dropped every older segment: the active one,
    // numbered by the rotations so far, is the whole log.
    let active = store.read_segment(store.store_metrics().rotations).unwrap();
    assert_eq!(active.len() as u64, store.wal_bytes());
    assert_shape(store.state(), &active);
    assert_eq!(
        store.state().pending().keys().collect::<Vec<_>>(),
        [&user(2)],
        "carol's later mail waits for an acknowledgement"
    );
    assert_eq!(store.store_metrics().appended_records, 12 * 8 - 24 - 10);
    assert_eq!(store.wal_bytes(), SHAPE_SCRIPT_COMPACTED_BYTES);

    let live = store.state().clone();
    store.crash(SimTime::from_units(1000.0));
    let (report, _) = store.recover(SimTime::from_units(1001.0));
    assert_eq!(report.lost_messages, 0);
    assert_eq!(
        store.state(),
        &live,
        "snapshot + tail replay to the live state"
    );
    assert_eq!(store.state(), &oracle);
    assert_eq!(report.recovered_messages, live.mailbox_messages() as u64);
    assert_eq!(report.recovered_pending, live.pending_messages() as u64);
}

proptest! {
    /// Single-segment WAL: after any operation mix, recovery from a crash
    /// at *every byte prefix* of the log yields exactly the state after
    /// the complete records in that prefix — and the full log yields the
    /// oracle.
    #[test]
    fn crash_at_every_prefix_recovers_record_boundary_state(
        ops in proptest::collection::vec((0u8..9, 0u64..6, 0u64..40), 1..24)
    ) {
        crash_at_every_prefix(&ops);
    }

    /// Multi-segment WAL with rotation and chunked compaction active:
    /// a clean crash/recover cycle always reproduces the oracle exactly.
    #[test]
    fn rotated_compacted_wal_recovers_oracle_state(
        ops in proptest::collection::vec((0u8..9, 0u64..6, 0u64..40), 1..40)
    ) {
        let cfg = WalConfig {
            segment_bytes: 384,
            chunk_messages: 2,
            max_segments: 2,
            sync: SyncPolicy::PerRecord,
            ..WalConfig::default()
        };
        let mut store = Store::new(&DurabilityConfig::Wal(cfg));
        let mut oracle = StoreState::default();
        let mut gen = MessageIdGen::new();
        for (op, who, val) in &ops {
            run_op(&mut store, &mut oracle, &mut gen, *op, *who, *val);
        }
        store.crash(SimTime::from_units(1000.0));
        let (report, _) = store.recover(SimTime::from_units(1001.0));
        prop_assert_eq!(report.lost_messages, 0);
        prop_assert_eq!(store.state(), &oracle);
    }
}
