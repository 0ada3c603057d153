//! Stranded mail, pinned: a known defect of §3.1.2c GetMail as built.
//!
//! A forwarder that times out on a down primary deposits the message at a
//! secondary after the primary has come back. The owner's next check finds
//! the primary up since its last check, stops after one poll, and never
//! visits the secondary: the mail stays stored, and `verdict` reports it
//! stranded. These tests assert that defect as it stands, so they fail the
//! moment anything moves it. The fix of ROADMAP item 1 must invert both:
//! no message stranded at the point, and zero strands over the whole grid.

use lems_check::audit::verdict;
use lems_check::scenarios::{Event, Outage, RunSpec, World};
use lems_store::{DurabilityConfig, WalConfig};

/// Every run here quiesces far below this.
const EVENT_BUDGET: u64 = 2_000_000;

/// Fig. 1 with one user on each of `H1` and `H2`. `S1` (server 0), the
/// owner's primary, is down in [10, 25); `r0.H2.u0` (user 1) mails
/// `r0.H1.u0` (user 0) at t=8, and the owner checks at 1, 25.5, 300 and
/// 400. `S2` resolves the message at t=9 and forwards it to `S1`, which
/// crashes before acking; `S2`'s retries find `S1` down, and it deposits
/// locally at ≈ 43, after `S1` came back and after the check at 25.5
/// walked both servers. The checks at 300 and 400 stop at `S1`.
const STRANDED: RunSpec<'static> = RunSpec {
    world: World::Fig1(&[1, 1, 0, 0, 0, 0]),
    durability: DurabilityConfig::Ideal,
    outages: &[Outage(0, 10.0, 25.0)],
    random_outages: None,
    chaos: None,
    events: &[
        Event::Check(1.0, 0),
        Event::Send(8.0, 1, 0),
        Event::Check(25.5, 0),
        Event::Check(300.0, 0),
        Event::Check(400.0, 0),
    ],
};

/// `spec` run to quiescence at `seed`, judged.
fn judge(spec: &RunSpec<'_>, seed: u64) -> Vec<String> {
    let mut d = spec.build(seed);
    let quiesced = d.sim.run_to_quiescence_bounded(EVENT_BUDGET);
    verdict(&d, quiesced)
}

/// The point, on the Ideal store and on a WAL, at three seeds: the verdict
/// names the one message, stranded on `S2`. Item 1's fix makes this
/// verdict clean.
#[test]
fn stranded_point_strands_message_zero_on_s2() {
    for durability in [
        DurabilityConfig::Ideal,
        DurabilityConfig::Wal(WalConfig::default()),
    ] {
        let spec = RunSpec {
            durability: durability.clone(),
            ..STRANDED
        };
        for seed in [1, 7, 42] {
            let v = judge(&spec, seed);
            assert!(
                v.iter().any(|l| l
                    .contains("message MessageId(0) for r0.H1.u0 stranded on server NodeId(1)")),
                "{durability:?} seed {seed}: {v:?}"
            );
        }
    }
}

/// The point's neighbourhood on both stores at seed 1: the outage's
/// length (3 to 30), the send time (4 to 18) and the owner's second check
/// (0.5 to 6 after recovery), each varied by struct update of the point.
/// Only outages of at least 15 units strand: the forwarder's retries must
/// outlast the outage. The counts are the defect's size as built; item
/// 1's fix must bring both to zero.
#[test]
fn stranded_grid_counts_the_defect() {
    let mut stranded = [0; 2];
    let mut shortest = f64::INFINITY;
    for (store, durability) in [
        DurabilityConfig::Ideal,
        DurabilityConfig::Wal(WalConfig::default()),
    ]
    .into_iter()
    .enumerate()
    {
        for length in (1..=10).map(|k| 3.0 * f64::from(k)) {
            let outages = [Outage(0, 10.0, 10.0 + length)];
            for send in (2..=9).map(|k| 2.0 * f64::from(k)) {
                for after in [0.5, 2.0, 4.0, 6.0] {
                    let events = [
                        Event::Check(1.0, 0),
                        Event::Send(send, 1, 0),
                        Event::Check(10.0 + length + after, 0),
                        Event::Check(300.0, 0),
                        Event::Check(400.0, 0),
                    ];
                    let spec = RunSpec {
                        durability: durability.clone(),
                        outages: &outages,
                        events: &events,
                        ..STRANDED
                    };
                    if judge(&spec, 1)
                        .iter()
                        .any(|l| l.contains(" stranded on server "))
                    {
                        stranded[store] += 1;
                        shortest = shortest.min(length);
                    }
                }
            }
        }
    }
    assert_eq!(stranded, [79, 79], "of 320 points per store");
    assert_eq!(shortest, 15.0);
}
