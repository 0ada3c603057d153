//! The benchmark's declarations: workloads with their sizes, and every
//! metric with its unit, direction and bound. `BENCHMARK.json` at the
//! repository root is [`declaration`] printed by `lems-benchmark declare`;
//! `tests/smoke.rs` holds the two in step.

use serde::Serialize;

use crate::s1::{Durability, Faults, S1Spec};
use crate::s3::S3Spec;

/// How long one driver run measures, in seconds.
pub const RUN_SECONDS: u64 = 20;

const LOWER: &str = "lower";
const HIGHER: &str = "higher";

#[derive(Serialize)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

impl EndToEnd {
    pub fn higher_is_better(&self) -> bool {
        self.better == HIGHER
    }
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", LOWER, 0.25),
    e2e("ops_per_s", "op/s", HIGHER, 0.25),
    e2e("peak_rss_mib", "MiB", LOWER, 0.20),
    e2e("deliver_ticks_p50", "ticks", LOWER, 0.25),
    e2e("deliver_ticks_p99", "ticks", LOWER, 0.25),
    e2e("e2e_ticks_p50", "ticks", LOWER, 0.20),
    e2e("e2e_ticks_p99", "ticks", LOWER, 0.15),
    e2e("polls_mean", "polls/op", LOWER, 0.12),
    e2e("completed_share", "ratio", HIGHER, 0.001),
];

#[derive(Serialize)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: LOWER,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: HIGHER,
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    // net
    lower("net.topology_s", "s"),
    lower("net.transport_build_s", "s"),
    lower("net.nodes", "count"),
    lower("net.edges", "count"),
    // syntax.assign
    lower("syntax.assign_problem_s", "s"),
    lower("syntax.assign_solve_s", "s"),
    // syntax.deploy
    lower("syntax.deploy_build_s", "s"),
    lower("syntax.deploy_wire_s", "s"),
    lower("syntax.inject_s", "s"),
    lower("syntax.inject_ns_per_event", "ns"),
    // core.workload
    lower("core.workload_gen_s", "s"),
    lower("core.workload_events", "count"),
    lower("core.workload_ns_per_event", "ns"),
    // sim.actor / sim.queue
    lower("sim.run_s", "s"),
    lower("sim.events", "count"),
    higher("sim.events_per_s", "1/s"),
    lower("sim.ns_per_event", "ns"),
    lower("sim.events_per_op", "count"),
    lower("sim.queue_depth_start", "count"),
    lower("sim.queue_resizes", "count"),
    lower("sim.pool_capacity", "count"),
    lower("sim.pool_grows", "count"),
    lower("sim.timers_fired", "count"),
    lower("sim.timers_suppressed", "count"),
    lower("sim.timer_waste_share", "ratio"),
    lower("sim.dropped_down", "count"),
    lower("sim.step_ns_p50", "ns"),
    lower("sim.step_ns_p99", "ns"),
    lower("sim.step_ns_max", "ns"),
    lower("sim.deliver_ns_mean", "ns"),
    lower("sim.timer_ns_mean", "ns"),
    lower("sim.queue_floor_ns_per_event", "ns"),
    lower("sim.dispatch_floor_ns_per_event", "ns"),
    // syntax.actors
    lower("syntax.handler_ns_per_event", "ns"),
    lower("syntax.submit_attempts_per_op", "count"),
    lower("syntax.forward_attempts_per_op", "count"),
    lower("syntax.retransmits", "count"),
    lower("syntax.notifications", "count"),
    lower("syntax.peak_storage", "count"),
    lower("syntax.stranded_before_restart", "count"),
    // core.store / store.wal
    lower("store.deposits", "count"),
    lower("store.appends", "count"),
    lower("store.append_bytes", "B"),
    lower("store.fsyncs", "count"),
    lower("store.rotations", "count"),
    lower("store.compactions", "count"),
    lower("store.replayed_records", "count"),
    lower("store.recoveries", "count"),
    lower("store.wal_bytes_per_op", "B"),
    lower("store.deposit_ns_mean", "ns"),
    lower("store.deposit_ns_p99", "ns"),
    lower("store.drain_ns_per_check", "ns"),
    lower("store.release_ns_per_msg", "ns"),
    lower("store.replay_s", "s"),
    lower("store.share_of_run", "ratio"),
    lower("store.recover_ns_per_msg", "ns"),
    lower("store.mailbox_depth_p99", "count"),
    lower("store.mailbox_depth_max", "count"),
    // alloc
    lower("alloc.setup_allocs", "count"),
    lower("alloc.run_allocs_per_op", "count"),
    lower("alloc.run_bytes_per_op", "B"),
    lower("alloc.run_allocs_per_event", "count"),
    lower("alloc.inject_bytes_per_event", "B"),
    // sim.span / sim.prof / obs
    lower("sim.span_events", "count"),
    lower("sim.span_events_per_op", "count"),
    lower("obs.export_s", "s"),
    lower("obs.export_bytes", "B"),
    higher("obs.export_mib_per_s", "MiB/s"),
    lower("obs.parse_s", "s"),
    lower("obs.bytes_per_op", "B"),
    lower("trace.overhead_ratio", "ratio"),
    // mst / attr
    lower("mst.ghs_build_s", "s"),
    lower("mst.ghs_msgs", "count"),
    lower("mst.broadcast_s_mean", "s"),
    lower("mst.broadcast_events", "count"),
    lower("attr.profiles", "count"),
    higher("attr.matches", "count"),
    lower("attr.count_matches_s", "s"),
    lower("attr.central_matches_s", "s"),
    lower("attr.count_matches_ns_per_profile", "ns"),
];

pub enum Kind {
    S1(S1Spec),
    S3(S3Spec),
}

pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists, in one line (it goes into `BENCHMARK.json`).
    pub why: &'static str,
    pub kind: Kind,
}

/// The steady traffic mix — a send every 50 units and a check every 20 per
/// user, Zipf 0.8 — on Ideal stores, 50 users per host, 2 servers per region.
const fn steady(
    regions: usize,
    hosts_per_region: usize,
    horizon: f64,
    world: &'static str,
) -> S1Spec {
    S1Spec {
        regions,
        hosts_per_region,
        servers_per_region: 2,
        users_per_host: 50,
        max_load: 1_250,
        durability: Durability::Ideal,
        faults: None,
        telemetry: false,
        interarrival: 50.0,
        check_interval: 20.0,
        zipf: 0.8,
        horizon,
        world,
    }
}

/// The five workloads. `smoke` shrinks every size so the whole set runs in
/// seconds (for `tests/smoke.rs`); the names and code paths stay the same.
pub fn workloads(smoke: bool) -> Vec<Workload> {
    let pick = |full: f64, small: f64| if smoke { small } else { full };
    let size = |full: usize, small: usize| if smoke { small } else { full };
    let ten_k = steady(size(10, 3), size(20, 4), pick(100.0, 60.0), "10k");
    vec![
        Workload {
            name: "s1-steady-25k",
            why: "Mainstream mail path at the largest population that still gives ten repetitions in 20 s: 25k users, Ideal store, shallow mailboxes; handlers, name maps, kernel and allocator dominate",
            kind: Kind::S1(steady(size(20, 3), size(25, 5), pick(20.0, 40.0), "steady")),
        },
        Workload {
            name: "s1-hotbox-1k",
            why: "Same stack, opposite store use: 1k users, Zipf 1.0, 100k sends and no check before the drain sweeps, so mail piles 8k deep and every drain is huge; population costs least, mailboxes most",
            kind: Kind::S1(S1Spec {
                users_per_host: 20,
                interarrival: 5.0,
                // No check inside the horizon: the drain sweeps do them all.
                check_interval: 1.0e6,
                zipf: 1.0,
                ..steady(size(5, 2), size(10, 3), pick(500.0, 100.0), "hotbox")
            }),
        },
        Workload {
            name: "s1-walcrash-10k",
            why: "10k users on WAL stores (fsync per record), one 16-unit crash per server, then a rolling restart: WAL append/rotation/compaction, recovery replay, retransmits, timer cancellation; no mail may be lost",
            kind: Kind::S1(S1Spec {
                durability: Durability::Wal,
                faults: Some(Faults { outage: 16.0 }),
                ..ten_k
            }),
        },
        Workload {
            name: "s1-telemetry-10k",
            why: "World and traffic of s1-walcrash-10k on Ideal stores without faults, lifecycle spans and kernel profiler on, JSONL export inside the timed run: the only workload with telemetry on the measured path",
            kind: Kind::S1(S1Spec {
                telemetry: true,
                ..ten_k
            }),
        },
        Workload {
            name: "s3-search-2k",
            why: "System 3: three attribute searches over a 2000-node two-level MST and 200k profiles; tiny handlers, no store, no names, a fresh ActorSim and two Transports per broadcast; bypasses what s1 stresses",
            kind: Kind::S3(S3Spec {
                regions: size(50, 4),
                hosts_per_region: size(36, 4),
                servers_per_region: size(4, 2),
                profiles_per_server: size(1_000, 50),
                searches: 3,
            }),
        },
    ]
}

#[derive(Serialize)]
struct WorkloadDecl {
    name: &'static str,
    why: &'static str,
}

#[derive(Serialize)]
struct Declaration {
    command: Vec<&'static str>,
    paths: Vec<&'static str>,
    run_seconds: u64,
    workloads: Vec<WorkloadDecl>,
    end_to_end: &'static [EndToEnd],
    per_layer: &'static [PerLayer],
}

/// The text of `BENCHMARK.json`.
pub fn declaration() -> String {
    let doc = Declaration {
        command: vec![
            "cargo",
            "run",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            "benchmark/Cargo.toml",
            "--",
        ],
        paths: vec!["benchmark"],
        run_seconds: RUN_SECONDS,
        workloads: workloads(false)
            .iter()
            .map(|w| WorkloadDecl {
                name: w.name,
                why: w.why,
            })
            .collect(),
        end_to_end: END_TO_END,
        per_layer: PER_LAYER,
    };
    serde_json::to_string_pretty(&doc).expect("the declaration holds only strings and bounds")
}
