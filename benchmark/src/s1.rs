//! System-1 workloads: a full `Deployment` carrying generated mail from
//! submit to GetMail, driven only through the product crates' public calls.

use std::collections::BTreeMap;
use std::time::Instant;

use lems_core::message::{Message, MessageId};
use lems_core::name::MailName;
use lems_core::workload::{self, Workload, WorkloadConfig, WorkloadEvent};
use lems_core::UserId;
use lems_net::generators::{multi_region, MultiRegionConfig};
use lems_net::graph::NodeId;
use lems_net::topology::{RegionId, Topology};
use lems_net::transport::Transport;
use lems_obs::export::{export_jsonl, RunTelemetry};
use lems_obs::inspect::Dump;
use lems_sim::actor::{Actor, ActorId, ActorSim, Ctx};
use lems_sim::metrics::MetricsRegistry;
use lems_sim::queue::EventQueue;
use lems_sim::rng::SimRng;
use lems_sim::time::{SimDuration, SimTime, TICKS_PER_UNIT};
use lems_store::{make_store, DurabilityConfig, WalConfig};
use lems_syntax::assign::{solve, AssignmentProblem};
use lems_syntax::cost::ServerSpec;
use lems_syntax::{Deployment, DeploymentConfig, ServerFailurePlan};

use crate::alloc;
use crate::rep::{quantile, ratio, Rep};
use crate::spans::Recorder;

/// Processing more events than this without quiescing is a stuck retry
/// loop, not a workload: every size here finishes below a tenth of it.
const EVENT_BUDGET: u64 = 200_000_000;

/// Simulated time between the traffic horizon and the first drain sweep,
/// and between sweeps: long enough for every outage and retry to settle.
const SWEEP_GAP: f64 = 100.0;
/// One sweep's checks are spread over this window so they do not all land
/// on one instant.
const SWEEP_WINDOW: f64 = 40.0;

#[derive(Clone, Copy)]
pub enum Durability {
    Ideal,
    Wal,
}

/// One outage of `outage` time units per server, starting at a
/// seed-drawn instant of the traffic phase. (Exponential outage lengths,
/// as `ServerFailurePlan::random` draws them, let one long outage set the
/// latency tail, and the tick metrics then swing by a quarter from seed to
/// seed.)
#[derive(Clone, Copy)]
pub struct Faults {
    pub outage: f64,
}

#[derive(Clone, Copy)]
pub struct S1Spec {
    pub regions: usize,
    pub hosts_per_region: usize,
    pub servers_per_region: usize,
    pub users_per_host: u32,
    pub max_load: u32,
    pub durability: Durability,
    /// Random server outages over the traffic horizon, followed by a census
    /// of stranded mail and a rolling restart (see [`inject`]).
    pub faults: Option<Faults>,
    /// Lifecycle spans and the kernel profiler on, and the run ends with
    /// the JSONL export.
    pub telemetry: bool,
    pub interarrival: f64,
    pub check_interval: f64,
    pub zipf: f64,
    pub horizon: f64,
    /// RNG fork label for topology, workload and faults: workloads meant to
    /// see the same world and traffic share it.
    pub world: &'static str,
}

fn t(units: f64) -> SimTime {
    SimTime::from_units(units)
}

/// Everything the run phase and the replays need from set-up.
struct World {
    topology: Topology,
    users_per_host: Vec<u32>,
    config: DeploymentConfig,
    deployment: Deployment,
    names: Vec<MailName>,
    traffic: Workload,
    /// `(time, user)` of every injected drain-sweep check, in injection order.
    sweeps: Vec<(SimTime, usize)>,
    /// The stranded-mail census of a fault workload.
    census: Option<Census>,
    injected: u64,
}

/// When the census is taken: once every event up to `at` has been
/// dispatched and none after it. `step()` cannot look ahead, so a traced
/// run steps until it has dispatched the `marker` — a check injected just
/// before `at` for that purpose — and lets `run_until(at)` do the rest.
#[derive(Clone, Copy)]
struct Census {
    marker: SimTime,
    at: SimTime,
}

fn set_up(spec: &S1Spec, seed: u64, rec: &mut Recorder, rep: &mut Rep) -> World {
    let root = SimRng::seed(seed).fork(spec.world);
    let setup = rec.open("setup");

    let (topology, secs) = rec.time("net.topology", || {
        let mut rng = SimRng::seed(0).fork(spec.world).fork("topology");
        multi_region(
            &mut rng,
            &MultiRegionConfig {
                regions: spec.regions,
                hosts_per_region: spec.hosts_per_region,
                servers_per_region: spec.servers_per_region,
                ..MultiRegionConfig::default()
            },
        )
    });
    rep.wall.insert("net.topology_s", secs);
    rep.setup_slices.push(secs);

    let users_per_host = vec![spec.users_per_host; topology.hosts().len()];
    let config = DeploymentConfig {
        seed,
        server_spec: ServerSpec::new(spec.max_load, 0.5),
        durability: match spec.durability {
            Durability::Ideal => DurabilityConfig::Ideal,
            Durability::Wal => DurabilityConfig::Wal(WalConfig::default()),
        },
        ..DeploymentConfig::default()
    };
    let (mut deployment, secs) = rec.time("syntax.deploy_build", || {
        Deployment::build(&topology, &users_per_host, &config)
    });
    rep.wall.insert("syntax.deploy_build_s", secs);
    rep.setup_slices.push(secs);
    if spec.telemetry {
        deployment.enable_spans();
        deployment.sim.enable_prof();
    }

    let servers = topology.servers();
    let rolling_restart_at = spec.horizon + 3.0 * SWEEP_GAP;
    if let Some(f) = spec.faults {
        let ((), secs) = rec.time("syntax.fault_plan", || {
            let mut rng = root.fork("faults");
            let mut plan = ServerFailurePlan::new();
            for &s in &servers {
                let down = (0.05 + 0.8 * rng.unit()) * spec.horizon;
                plan.add(s, t(down), t(down + f.outage));
            }
            // One server at a time, so every user keeps two authorities up.
            for (k, &s) in servers.iter().enumerate() {
                let down = rolling_restart_at + 2.0 * k as f64;
                plan.add(s, t(down), t(down + 1.0));
            }
            deployment.apply_server_failures(&plan);
        });
        rep.setup_slices.push(secs);
    }

    let (names, secs) = rec.time("syntax.user_names", || deployment.user_names());
    rep.setup_slices.push(secs);
    let (traffic, secs) = rec.time("core.workload_gen", || {
        let population: Vec<(UserId, RegionId)> = names
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let region = n.region()[1..].parse().expect("region tokens are r<id>");
                (UserId(i), RegionId(region))
            })
            .collect();
        workload::generate(
            &mut root.fork("workload"),
            &population,
            &WorkloadConfig {
                mean_interarrival: SimDuration::from_units(spec.interarrival),
                mean_check_interval: SimDuration::from_units(spec.check_interval),
                local_bias: 0.8,
                zipf_exponent: spec.zipf,
                horizon: t(spec.horizon),
            },
        )
    });
    rep.wall.insert("core.workload_gen_s", secs);
    rep.setup_slices.push(secs);

    let mut world = World {
        topology,
        users_per_host,
        config,
        deployment,
        names,
        traffic,
        sweeps: Vec::new(),
        census: None,
        injected: 0,
    };
    let armed_bytes = alloc::snapshot().1;
    let ((), secs) = rec.time("syntax.inject", || inject(spec, &mut world));
    let inject_bytes = alloc::snapshot().1 - armed_bytes;
    world.injected = (world.traffic.len() + world.sweeps.len()) as u64;
    rep.wall.insert("syntax.inject_s", secs);
    rep.setup_slices.push(secs);
    rep.wall.insert(
        "syntax.inject_ns_per_event",
        ratio(secs * 1e9, world.injected as f64),
    );
    rep.wall.insert(
        "core.workload_ns_per_event",
        ratio(
            rep.wall["core.workload_gen_s"] * 1e9,
            world.traffic.len() as f64,
        ),
    );
    rep.exact
        .insert("core.workload_events", world.traffic.len() as f64);
    if alloc::armed() {
        rep.wall.insert(
            "alloc.inject_bytes_per_event",
            ratio(inject_bytes as f64, world.injected as f64),
        );
    }

    let secs = rec.close(setup);
    rep.wall.insert("setup_s", secs);
    world
}

/// Injects the generated traffic and then the drain sweeps.
///
/// Every workload ends with two sweeps in which each user checks mail once.
/// A fault workload then takes a census of mail still in storage — mail
/// deposited at a secondary just after the primary came back, which no
/// later check looks for — restarts every server in turn, and sweeps twice
/// more: after a restart GetMail walks the whole authority list again, so
/// the stranded mail is retrieved and no submitted message fails.
fn inject(spec: &S1Spec, world: &mut World) {
    let World {
        deployment,
        names,
        traffic,
        sweeps,
        census,
        ..
    } = world;
    for ev in traffic.events() {
        match *ev {
            WorkloadEvent::Send { at, from, to } => {
                deployment.send_at(at, &names[from.0], &names[to.0]);
            }
            WorkloadEvent::CheckMail { at, user } => deployment.check_at(at, &names[user.0]),
        }
    }
    let mut check = |at: SimTime, user: usize| {
        deployment.check_at(at, &names[user]);
        sweeps.push((at, user));
    };
    let mut sweep = |start: f64| {
        for user in 0..names.len() {
            check(
                t(start + SWEEP_WINDOW * user as f64 / names.len() as f64),
                user,
            );
        }
    };
    sweep(spec.horizon + SWEEP_GAP);
    sweep(spec.horizon + 2.0 * SWEEP_GAP);
    if spec.faults.is_some() {
        let servers = spec.regions * spec.servers_per_region;
        let restarted = spec.horizon + 3.0 * SWEEP_GAP + 2.0 * servers as f64;
        sweep(restarted + SWEEP_GAP);
        sweep(restarted + 2.0 * SWEEP_GAP);
        let marker = t(spec.horizon + 3.0 * SWEEP_GAP - 2.0);
        check(marker, 0);
        *census = Some(Census {
            marker,
            at: t(spec.horizon + 3.0 * SWEEP_GAP - 1.0),
        });
    }
}

/// Writes the first 20 of `stranded` — `Deployment::stranded_mail` rows —
/// into the notes.
fn note_stranded(
    when: &str,
    stranded: &[(NodeId, MailName, MessageId, Vec<NodeId>)],
    rep: &mut Rep,
) {
    for (server, owner, id, authorities) in stranded.iter().take(20) {
        rep.notes.push(format!(
            "stranded {when}: {id} for {owner} at n{} (authorities {:?})",
            server.0,
            authorities.iter().map(|n| n.0).collect::<Vec<_>>()
        ));
    }
}

/// Injected events per slice of an untraced run: about 30 ms of work.
const SLICE_INJECTED: usize = 2_000;

/// The simulated instants at which an untraced run is cut into slices:
/// every `SLICE_INJECTED`-th injected event's time (injection is in time
/// order), and the census instant.
fn slice_deadlines(world: &World) -> Vec<SimTime> {
    let traffic = world.traffic.events().iter().map(WorkloadEvent::at);
    let sweeps = world.sweeps.iter().map(|&(at, _)| at);
    let mut deadlines: Vec<SimTime> = traffic
        .chain(sweeps)
        .skip(SLICE_INJECTED - 1)
        .step_by(SLICE_INJECTED)
        .chain(world.census.map(|c| c.at))
        .collect();
    deadlines.sort_unstable();
    deadlines.dedup();
    deadlines
}

/// The run phase; returns whether the simulation quiesced within budget.
///
/// Untraced, the event list is worked off in slices — `run_until` each
/// deadline, then `run_to_quiescence_bounded` — each timed on its own.
/// Traced, every `step()` is timed. The census is not the product's work
/// and is left out of both.
fn run(world: &mut World, traced: Option<&mut StepLog>, rep: &mut Rep) -> bool {
    let deadlines = slice_deadlines(world);
    let dep = &mut world.deployment;
    let census = |dep: &Deployment, rep: &mut Rep| {
        let stranded = dep.stranded_mail();
        rep.exact
            .insert("syntax.stranded_before_restart", stranded.len() as f64);
        note_stranded("before restart", &stranded, rep);
    };
    let Some(log) = traced else {
        for deadline in deadlines {
            let t0 = Instant::now();
            dep.sim.run_until(deadline);
            rep.run_slices.push(t0.elapsed().as_secs_f64());
            if world.census.is_some_and(|c| c.at == deadline) {
                census(dep, rep);
            }
        }
        let t0 = Instant::now();
        let quiesced = dep.sim.run_to_quiescence_bounded(EVENT_BUDGET);
        rep.run_slices.push(t0.elapsed().as_secs_f64());
        rep.wall.insert("sim.run_s", rep.run_slices.iter().sum());
        return quiesced;
    };

    let mut pending = world.census;
    let mut paused = 0.0;
    let mut quiesced = false;
    let started = Instant::now();
    for _ in 0..EVENT_BUDGET {
        let before = dep.sim.counters();
        let (delivered, fired) = (before.delivered.get(), before.timers_fired.get());
        let t0 = Instant::now();
        let more = dep.sim.step();
        let ns = t0.elapsed().as_nanos() as u64;
        if !more {
            quiesced = true;
            break;
        }
        let after = dep.sim.counters();
        log.record(
            ns,
            after.delivered.get() > delivered,
            after.timers_fired.get() > fired,
        );
        if let Some(c) = pending.filter(|c| dep.sim.now() >= c.marker) {
            pending = None;
            dep.sim.run_until(c.at);
            let t0 = Instant::now();
            census(dep, rep);
            paused += t0.elapsed().as_secs_f64();
        }
    }
    rep.wall
        .insert("sim.run_s", started.elapsed().as_secs_f64() - paused);
    quiesced
}

/// Per-`step()` wall times of a traced run.
struct StepLog {
    ns: Vec<u32>,
    deliver_ns: u64,
    delivers: u64,
    timer_ns: u64,
    timers: u64,
}

impl StepLog {
    fn with_capacity(events: usize) -> Self {
        StepLog {
            ns: Vec::with_capacity(events),
            deliver_ns: 0,
            delivers: 0,
            timer_ns: 0,
            timers: 0,
        }
    }

    fn record(&mut self, ns: u64, delivered: bool, timer_fired: bool) {
        self.ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
        if delivered {
            self.deliver_ns += ns;
            self.delivers += 1;
        } else if timer_fired {
            self.timer_ns += ns;
            self.timers += 1;
        }
    }

    fn report(&mut self, rep: &mut Rep) {
        rep.wall
            .insert("sim.step_ns_p50", quantile(&mut self.ns, 0.5));
        rep.wall
            .insert("sim.step_ns_p99", quantile(&mut self.ns, 0.99));
        rep.wall
            .insert("sim.step_ns_max", quantile(&mut self.ns, 1.0));
        rep.wall.insert(
            "sim.deliver_ns_mean",
            ratio(self.deliver_ns as f64, self.delivers as f64),
        );
        rep.wall.insert(
            "sim.timer_ns_mean",
            ratio(self.timer_ns as f64, self.timers as f64),
        );
    }
}

/// Quantile `q` of a latency histogram in simulated ticks, interpolated
/// inside the bucket that holds the rank. (The histogram's own `quantile`
/// answers with a bucket edge, a 19 % step; interpolation keeps the figure
/// a smooth function of the distribution and still exact for a seed.)
fn ticks_quantile(metrics: &MetricsRegistry, histogram: &str, q: f64) -> (f64, u64) {
    let Some(h) = metrics.histogram(histogram) else {
        return (0.0, 0);
    };
    let rank = (q * h.count() as f64).ceil().max(1.0);
    let mut seen = 0.0;
    let mut units = h.max().unwrap_or(0.0);
    for (i, &c) in h.bins().iter().enumerate() {
        if c > 0 && seen + c as f64 >= rank {
            let lo = if i == 0 { 0.0 } else { h.bucket_edge(i - 1) };
            let hi = h.bucket_edge(i).min(units);
            units = lo + (hi - lo).max(0.0) * (rank - seen) / c as f64;
            break;
        }
        seen += c as f64;
    }
    (units * TICKS_PER_UNIT as f64, h.count())
}

/// Reads every simulated-time result and counter off the finished
/// deployment and applies the output checks.
fn collect(spec: &S1Spec, world: &World, quiesced: bool, rep: &mut Rep) {
    let dep = &world.deployment;
    let st = dep.stats.borrow();
    rep.ops = st.retrieved;
    rep.attempted = st.submitted;
    let ops = rep.ops as f64;

    let c = dep.sim.counters();
    let events = c.delivered.get()
        + c.dropped_down.get()
        + c.dropped_unknown.get()
        + c.timers_fired.get()
        + c.timers_suppressed.get()
        + c.crashes.get()
        + c.recoveries.get();
    let q = dep.sim.queue_stats();
    let timers = c.timers_fired.get() + c.timers_suppressed.get();
    let x = &mut rep.exact;
    x.insert("net.nodes", world.topology.node_count() as f64);
    x.insert("net.edges", world.topology.graph().edge_count() as f64);
    x.insert("sim.events", events as f64);
    x.insert("sim.events_per_op", ratio(events as f64, ops));
    x.insert("sim.queue_resizes", q.resizes as f64);
    x.insert("sim.pool_capacity", q.pool_capacity as f64);
    x.insert("sim.pool_grows", q.pool_grows as f64);
    x.insert("sim.timers_fired", c.timers_fired.get() as f64);
    x.insert("sim.timers_suppressed", c.timers_suppressed.get() as f64);
    x.insert(
        "sim.timer_waste_share",
        ratio(c.timers_suppressed.get() as f64, timers as f64),
    );
    x.insert("sim.dropped_down", c.dropped_down.get() as f64);

    x.insert(
        "syntax.submit_attempts_per_op",
        ratio(st.submit_attempts as f64, ops),
    );
    x.insert(
        "syntax.forward_attempts_per_op",
        ratio(st.forward_attempts as f64, ops),
    );
    x.insert("syntax.retransmits", st.retransmits as f64);
    x.insert("syntax.notifications", st.notifications as f64);
    x.insert("syntax.peak_storage", st.peak_storage as f64);

    let mut appends = 0;
    let mut append_bytes = 0;
    let mut fsyncs = 0;
    let mut rotations = 0;
    let mut compactions = 0;
    let mut replayed = 0;
    for (_, m) in dep.store_metrics_snapshot() {
        appends += m.appended_records;
        append_bytes += m.appended_bytes;
        fsyncs += m.fsyncs;
        rotations += m.rotations;
        compactions += m.compactions;
        replayed += m.replayed_records;
    }
    x.insert("store.deposits", st.deposited as f64);
    x.insert("store.appends", appends as f64);
    x.insert("store.append_bytes", append_bytes as f64);
    x.insert("store.fsyncs", fsyncs as f64);
    x.insert("store.rotations", rotations as f64);
    x.insert("store.compactions", compactions as f64);
    x.insert("store.replayed_records", replayed as f64);
    x.insert("store.recoveries", dep.recoveries.borrow().len() as f64);
    x.insert("store.wal_bytes_per_op", ratio(append_bytes as f64, ops));

    let span_events = dep.spans.borrow().events().len();
    x.insert("sim.span_events", span_events as f64);
    x.insert("sim.span_events_per_op", ratio(span_events as f64, ops));

    let merged = dep.merged_metrics();
    let (d50, deposited) = ticks_quantile(&merged, "delivery_latency", 0.5);
    let (d99, _) = ticks_quantile(&merged, "delivery_latency", 0.99);
    let (e50, retrieved) = ticks_quantile(&merged, "end_to_end", 0.5);
    let (e99, _) = ticks_quantile(&merged, "end_to_end", 0.99);
    x.insert("deliver_ticks_p50", d50);
    x.insert("deliver_ticks_p99", d99);
    x.insert("e2e_ticks_p50", e50);
    x.insert("e2e_ticks_p99", e99);
    x.insert("polls_mean", st.retrieval_polls.mean());
    x.insert("completed_share", ratio(ops, rep.attempted as f64));

    // Output checks.
    let stranded = dep.stranded_mail();
    let mut lost = Vec::new();
    let mut stranded_ids: Vec<MessageId> = stranded.iter().map(|s| s.2).collect();
    stranded_ids.sort_unstable();
    for id in &st.ledger_submitted {
        if !st.ledger_retrieved.contains(id)
            && !st.ledger_bounced.contains_key(id)
            && stranded_ids.binary_search(id).is_err()
        {
            lost.push(*id);
        }
    }
    let stranded_open = stranded_ids
        .iter()
        .filter(|id| !st.ledger_retrieved.contains(id) && !st.ledger_bounced.contains_key(id))
        .count() as u64;
    let bounced = st.ledger_bounced.len() as u64;
    let (submitted, retrieved_ids) = (st.submitted, st.ledger_retrieved.len() as u64);
    let in_storage = dep.mail_in_storage();
    drop(st);
    rep.check(quiesced, || {
        "event budget exhausted before quiescence".into()
    });
    rep.check(lost.is_empty(), || {
        format!(
            "{} message(s) in no ledger and no store, first {:?}",
            lost.len(),
            lost.first()
        )
    });
    rep.check(submitted == retrieved_ids + bounced + stranded_open, || {
        format!(
            "conservation: submitted {submitted} != retrieved {retrieved_ids} + bounced {bounced} \
             + stranded {stranded_open}"
        )
    });
    let ops = rep.ops;
    rep.check(deposited >= ops && retrieved == ops, || {
        format!(
            "latency histograms hold {deposited} deposits and {retrieved} retrievals for {ops} ops"
        )
    });
    rep.check(spec.telemetry == (span_events > 0), || {
        format!(
            "{span_events} span events with telemetry {}",
            spec.telemetry
        )
    });
    if bounced + stranded_open > 0 {
        rep.notes.push(format!(
            "not retrieved: {bounced} bounced, {stranded_open} stranded ({in_storage} in storage)"
        ));
    }
    note_stranded("at end", &stranded, rep);
}

/// The JSONL dump, as the run phase's closing step on the telemetry
/// workload. Returns the text for the traced run's parse replay.
fn export(world: &World, seed: u64, rec: &mut Recorder, rep: &mut Rep) -> String {
    let dep = &world.deployment;
    let (text, secs) = rec.time("obs.export", || {
        export_jsonl(&RunTelemetry {
            run: "lems-benchmark",
            seed,
            finished_at: dep.sim.now(),
            spans: &dep.spans.borrow(),
            recoveries: &dep.recoveries.borrow(),
            scopes: &dep.metrics_snapshot(),
            store: &dep.store_metrics_snapshot(),
            profile: &dep.sim.profile_samples(),
        })
    });
    match text {
        Ok(text) => {
            rep.wall.insert("obs.export_s", secs);
            rep.run_slices.push(secs);
            rep.wall.insert(
                "obs.export_mib_per_s",
                ratio(text.len() as f64 / (1024.0 * 1024.0), secs),
            );
            rep.exact.insert("obs.export_bytes", text.len() as f64);
            text
        }
        Err(e) => {
            rep.failures.push(format!("telemetry export refused: {e}"));
            String::new()
        }
    }
}

/// One repetition: set-up, run, (export,) collect, check.
///
/// With `baseline` — an untraced repetition of the same seed — the
/// repetition is a traced one: timed `step()` calls, armed allocator
/// counters, and the standalone layer replays afterwards.
pub fn rep(spec: &S1Spec, seed: u64, baseline: Option<&Rep>, rec: &mut Recorder) -> Rep {
    let mut rep = Rep::default();
    let traced = baseline.is_some();

    alloc::arm(traced);
    let allocs_at_start = alloc::snapshot();
    let mut world = set_up(spec, seed, rec, &mut rep);
    let allocs_after_setup = alloc::snapshot();
    alloc::arm(false);

    rep.exact.insert(
        "sim.queue_depth_start",
        world.deployment.sim.queue_stats().depth as f64,
    );
    let mut steps = baseline.map(|b| StepLog::with_capacity(b.exact["sim.events"] as usize + 16));
    let run_span = rec.open("run");
    alloc::arm(traced);
    let (quiesced, _) = rec.time("sim.run", || run(&mut world, steps.as_mut(), &mut rep));
    let allocs_after_run = alloc::snapshot();
    alloc::arm(false);
    let dump = spec.telemetry.then(|| export(&world, seed, rec, &mut rep));
    rec.close(run_span);

    collect(spec, &world, quiesced, &mut rep);
    if let Some(&bytes) = rep.exact.get("obs.export_bytes") {
        rep.exact
            .insert("obs.bytes_per_op", ratio(bytes, rep.ops as f64));
    }
    rep.seal_digest();

    let events = rep.exact["sim.events"];
    rep.wall
        .insert("sim.events_per_s", ratio(events, rep.wall["sim.run_s"]));
    rep.wall.insert(
        "sim.ns_per_event",
        ratio(rep.wall["sim.run_s"] * 1e9, events),
    );

    if let (Some(baseline), Some(steps)) = (baseline, steps.as_mut()) {
        steps.report(&mut rep);
        let run_allocs = allocs_after_run.0 - allocs_after_setup.0;
        let run_bytes = allocs_after_run.1 - allocs_after_setup.1;
        let w = &mut rep.wall;
        w.insert(
            "alloc.setup_allocs",
            (allocs_after_setup.0 - allocs_at_start.0) as f64,
        );
        w.insert(
            "alloc.run_allocs_per_op",
            ratio(run_allocs as f64, rep.ops as f64),
        );
        w.insert(
            "alloc.run_bytes_per_op",
            ratio(run_bytes as f64, rep.ops as f64),
        );
        w.insert(
            "alloc.run_allocs_per_event",
            ratio(run_allocs as f64, events),
        );
        w.insert(
            "trace.overhead_ratio",
            ratio(w["sim.run_s"], baseline.wall["sim.run_s"]),
        );
        replays(spec, &world, baseline, dump.as_deref(), rec, &mut rep);
    }
    rep
}

/// The standalone layer measurements of a traced run: the same public
/// calls the workload made, replayed alone on the workload's own inputs.
fn replays(
    spec: &S1Spec,
    world: &World,
    baseline: &Rep,
    dump: Option<&str>,
    rec: &mut Recorder,
    rep: &mut Rep,
) {
    let open = rec.open("replays");

    // Set-up layers inside `Deployment::build`.
    let (_, transport_s) = rec.time("net.transport_build", || {
        Transport::new(world.topology.graph())
    });
    let (problem, problem_s) = rec.time("syntax.assign_problem", || {
        AssignmentProblem::from_topology(
            &world.topology,
            &world.users_per_host,
            world.config.server_spec,
            world.config.cost_model,
        )
    });
    let (_, solve_s) = rec.time("syntax.assign_solve", || {
        solve(&problem, world.config.balance)
    });
    let build_s = baseline.wall["syntax.deploy_build_s"];
    rep.wall.insert("net.transport_build_s", transport_s);
    rep.wall.insert("syntax.assign_problem_s", problem_s);
    rep.wall.insert("syntax.assign_solve_s", solve_s);
    // `build` makes two transports: a placeholder and the bound one.
    rep.wall.insert(
        "syntax.deploy_wire_s",
        (build_s - 2.0 * transport_s - problem_s - solve_s).max(0.0),
    );

    // Where each injected event was aimed, for the two kernel floors.
    let dep = &world.deployment;
    let host_actor: Vec<ActorId> = world
        .names
        .iter()
        .map(|n| {
            let rec = dep.directory.by_name(n).expect("every user is registered");
            dep.host_actor(rec.home_host)
                .expect("every host has an actor")
        })
        .collect();
    let mut injected: Vec<(SimTime, ActorId)> = world
        .traffic
        .events()
        .iter()
        .map(|ev| match *ev {
            WorkloadEvent::Send { at, from, .. } => (at, host_actor[from.0]),
            WorkloadEvent::CheckMail { at, user } => (at, host_actor[user.0]),
        })
        .collect();
    injected.extend(world.sweeps.iter().map(|&(at, u)| (at, host_actor[u])));
    let events = baseline.exact["sim.events"] as u64;
    let run_s = baseline.wall["sim.run_s"];

    let (_, secs) = rec.time("sim.queue_floor", || queue_floor(&injected, events));
    rep.wall.insert(
        "sim.queue_floor_ns_per_event",
        ratio(secs * 1e9, events as f64),
    );
    let floor_s = dispatch_floor(&injected, events, dep.sim.actor_count(), rec);
    let floor_ns = ratio(floor_s * 1e9, events as f64);
    rep.wall.insert("sim.dispatch_floor_ns_per_event", floor_ns);

    let store_s = store_replay(spec, world, rec, rep);
    rep.wall.insert("store.replay_s", store_s);
    rep.wall.insert("store.share_of_run", ratio(store_s, run_s));
    // The residual closes the attribution by construction:
    // dispatch floor + store share + handlers = ns per event.
    rep.wall.insert(
        "syntax.handler_ns_per_event",
        baseline.wall["sim.ns_per_event"] - floor_ns - ratio(store_s * 1e9, events as f64),
    );

    if let Some(text) = dump {
        let (parsed, secs) = rec.time("obs.parse", || Dump::parse(text));
        rep.wall.insert("obs.parse_s", secs);
        rep.check(parsed.is_ok(), || {
            format!("exported dump does not parse: {:?}", parsed.as_ref().err())
        });
    }
    rec.close(open);
}

/// Bare future-event list: the run's event count popped in time order,
/// starting from the injected timestamps; each pop beyond those schedules
/// one follow-up, as a handler's reply would.
fn queue_floor(injected: &[(SimTime, ActorId)], events: u64) {
    let mut q: EventQueue<u32> = EventQueue::with_capacity(injected.len());
    for &(at, _) in injected {
        q.push(at, 0);
    }
    let hop = SimDuration::from_units(1.0);
    let mut follow_ups = events.saturating_sub(injected.len() as u64);
    let started = Instant::now();
    let mut popped = 0u64;
    while let Some((at, payload)) = q.pop() {
        popped += u64::from(std::hint::black_box(payload)) + 1;
        if follow_ups > 0 {
            follow_ups -= 1;
            q.push(at + hop, 0);
        }
    }
    std::hint::black_box((popped, started));
}

/// An actor whose handler does nothing but pass the message on while hops
/// remain — the kernel's dispatch cost with the protocol taken out.
struct Relay {
    next: ActorId,
}

impl Actor for Relay {
    type Msg = u32;

    fn on_message(&mut self, _from: ActorId, hops: u32, ctx: &mut Ctx<'_, u32>) {
        if hops > 0 {
            ctx.send(self.next, hops - 1, SimDuration::from_units(1.0));
        }
    }
}

/// `ActorSim` with the deployment's actor count and relay handlers,
/// processing the run's event count from the injected timestamps. Returns
/// the run phase's seconds (injection is set-up here as in the workload).
fn dispatch_floor(
    injected: &[(SimTime, ActorId)],
    events: u64,
    actors: usize,
    rec: &mut Recorder,
) -> f64 {
    let mut sim: ActorSim<u32> = ActorSim::new(0);
    for i in 0..actors {
        sim.add_actor(Relay {
            next: ActorId((i + 1) % actors),
        });
    }
    let follow_ups = events.saturating_sub(injected.len() as u64);
    let n = injected.len().max(1) as u64;
    for (i, &(at, to)) in injected.iter().enumerate() {
        let hops = follow_ups / n + u64::from((i as u64) < follow_ups % n);
        sim.inject(to, hops as u32, at.duration_since(SimTime::ZERO));
    }
    let (quiesced, secs) = rec.time("sim.dispatch_floor", || {
        sim.run_to_quiescence_bounded(EVENT_BUDGET)
    });
    assert!(quiesced, "relay actors always run out of hops");
    secs
}

/// Replays the workload's deposit/check sequence against fresh stores of
/// the workload's backend, one per server, timing only the `MailStore`
/// calls. Returns the total seconds inside them.
fn store_replay(spec: &S1Spec, world: &World, rec: &mut Recorder, rep: &mut Rep) -> f64 {
    let dep = &world.deployment;
    let servers = world.topology.servers();
    let slot: BTreeMap<NodeId, usize> = servers.iter().enumerate().map(|(i, &s)| (s, i)).collect();
    let primary: Vec<usize> = world
        .names
        .iter()
        .map(|n| {
            let rec = dep.directory.by_name(n).expect("every user is registered");
            slot[&rec.authorities.primary()]
        })
        .collect();
    let mut stores: Vec<_> = servers
        .iter()
        .map(|_| make_store(&world.config.durability))
        .collect();

    let open = rec.open("store.replay");
    let mut deposit_ns: Vec<u32> = Vec::with_capacity(world.traffic.send_count());
    let mut depths: Vec<u32> = Vec::with_capacity(world.traffic.check_count() + world.sweeps.len());
    let (mut drain_ns, mut release_ns, mut released) = (0u64, 0u64, 0u64);
    let mut next_id = 0u64;
    let mut check = |stores: &mut Vec<Box<dyn lems_core::store::MailStore>>, user: usize| {
        let owner = &world.names[user];
        let store = &mut stores[primary[user]];
        let t0 = Instant::now();
        let drained = store.drain_reserve(owner);
        drain_ns += t0.elapsed().as_nanos() as u64;
        depths.push(drained.len() as u32);
        if !drained.is_empty() {
            let ids: Vec<MessageId> = drained.iter().map(|m| m.id).collect();
            let t0 = Instant::now();
            released += store.release_drained(owner, &ids);
            release_ns += t0.elapsed().as_nanos() as u64;
        }
    };
    for ev in world.traffic.events() {
        match *ev {
            WorkloadEvent::Send { at, from, to } => {
                let message = Message::new(
                    MessageId(next_id),
                    world.names[from.0].clone(),
                    world.names[to.0].clone(),
                    "msg",
                    "body",
                    at,
                );
                next_id += 1;
                let store = &mut stores[primary[to.0]];
                let t0 = Instant::now();
                let fresh = store.deposit(message, at);
                deposit_ns.push(u32::try_from(t0.elapsed().as_nanos()).unwrap_or(u32::MAX));
                assert!(fresh, "replayed ids are unique");
            }
            WorkloadEvent::CheckMail { user, .. } => check(&mut stores, user.0),
        }
    }

    // A crash and recovery of every store while it holds the undrained
    // mail of the traffic phase.
    let held: usize = stores
        .iter()
        .map(|s| s.mailboxes().values().map(|m| m.len()).sum::<usize>())
        .sum();
    let now = t(spec.horizon);
    let t0 = Instant::now();
    for store in &mut stores {
        store.crash(now);
        std::hint::black_box(store.recover(now));
    }
    let recover_ns = t0.elapsed().as_nanos() as u64;

    for &(_, user) in &world.sweeps {
        check(&mut stores, user);
    }
    rec.close(open);

    let total_deposit_ns: u64 = deposit_ns.iter().map(|&n| u64::from(n)).sum();
    let checks = depths.len() as f64;
    let w = &mut rep.wall;
    w.insert(
        "store.deposit_ns_mean",
        ratio(total_deposit_ns as f64, deposit_ns.len() as f64),
    );
    w.insert("store.deposit_ns_p99", quantile(&mut deposit_ns, 0.99));
    w.insert("store.drain_ns_per_check", ratio(drain_ns as f64, checks));
    w.insert(
        "store.release_ns_per_msg",
        ratio(release_ns as f64, released as f64),
    );
    w.insert(
        "store.recover_ns_per_msg",
        ratio(recover_ns as f64, held as f64),
    );
    rep.exact
        .insert("store.mailbox_depth_p99", quantile(&mut depths, 0.99));
    rep.exact
        .insert("store.mailbox_depth_max", quantile(&mut depths, 1.0));
    rep.check(released == next_id, || {
        format!("store replay released {released} of {next_id} deposits")
    });
    (total_deposit_ns + drain_ns + release_ns + recover_ns) as f64 / 1e9
}
