//! System-3 workload: distributed attribute searches over the two-level
//! MST. No mailboxes, no names to resolve — thousands of tiny handlers and
//! a fresh `ActorSim` and `Transport` for every broadcast.

use std::collections::BTreeMap;

use lems_attr::attribute::{AttrKey, AttributeSet, RequesterContext, Visibility};
use lems_attr::query::{Predicate, Query};
use lems_attr::registry::AttributeRegistry;
use lems_attr::search::AttributeNetwork;
use lems_core::name::MailName;
use lems_mst::backbone::build_two_level_distributed;
use lems_mst::broadcast::{simulate_broadcast, BroadcastConfig};
use lems_net::generators::{multi_region, MultiRegionConfig};
use lems_net::graph::NodeId;
use lems_net::topology::{NodeKind, Topology};
use lems_net::transport::Transport;
use lems_sim::failure::FailurePlan;
use lems_sim::rng::SimRng;
use lems_sim::time::SimDuration;

use crate::alloc;
use crate::rep::{quantile, ratio, Rep};
use crate::spans::Recorder;

#[derive(Clone, Copy)]
pub struct S3Spec {
    pub regions: usize,
    pub hosts_per_region: usize,
    pub servers_per_region: usize,
    pub profiles_per_server: usize,
    pub searches: usize,
}

const FIRST: &[&str] = &[
    "ada", "grace", "alan", "edsger", "barbara", "donald", "leslie",
];
const LAST: &[&str] = &[
    "johnson", "jonsson", "hopper", "turing", "liskov", "knuth", "lamport",
];
const EXPERTISE: &[&str] = &[
    "electronic mail",
    "mail routing",
    "networks",
    "databases",
    "compilers",
    "queueing theory",
];
const CITY: &[&str] = &["austin", "boston", "cairo", "delft", "espoo"];

/// The predicates searches cycle through: substring, fuzzy name, equality.
fn queries() -> [Query; 3] {
    [
        Query::Attr(AttrKey::Expertise, Predicate::Contains("mail".into())),
        Query::name_like("jonson", 1),
        Query::text_eq(AttrKey::City, "austin"),
    ]
}

struct World {
    network: AttributeNetwork,
    servers: Vec<NodeId>,
    profiles: usize,
}

/// `multi_region` with pairwise-distinct edge weights, which GHS and a
/// deterministic MST need.
fn distinct_weight_topology(rng: &mut SimRng, spec: &S3Spec) -> Topology {
    let raw = multi_region(
        rng,
        &MultiRegionConfig {
            regions: spec.regions,
            hosts_per_region: spec.hosts_per_region,
            servers_per_region: spec.servers_per_region,
            ..MultiRegionConfig::default()
        },
    );
    let distinct = raw.graph().with_distinct_weights();
    let mut t = Topology::new();
    for n in raw.nodes() {
        match raw.kind(n) {
            NodeKind::Host => t.add_host(raw.region(n), raw.name(n)),
            NodeKind::Server => t.add_server(raw.region(n), raw.name(n)),
        };
    }
    for e in distinct.edges() {
        t.link(e.a, e.b, e.weight);
    }
    t
}

fn set_up(spec: &S3Spec, seed: u64, rec: &mut Recorder, rep: &mut Rep) -> World {
    let root = SimRng::seed(seed).fork("search");
    let setup = rec.open("setup");

    let (topology, secs) = rec.time("net.topology", || {
        distinct_weight_topology(&mut SimRng::seed(0).fork("search").fork("topology"), spec)
    });
    rep.wall.insert("net.topology_s", secs);
    rep.setup_slices.push(secs);
    rep.exact.insert("net.nodes", topology.node_count() as f64);
    rep.exact
        .insert("net.edges", topology.graph().edge_count() as f64);

    let servers = topology.servers();
    let (registries, secs) = rec.time("attr.registries", || {
        let mut rng = root.fork("profiles");
        let mut registries = BTreeMap::new();
        for &s in &servers {
            let mut registry = AttributeRegistry::new();
            for k in 0..spec.profiles_per_server {
                let mut a = AttributeSet::new();
                a.add(AttrKey::FirstName, *rng.pick(FIRST), Visibility::Public);
                a.add(AttrKey::LastName, *rng.pick(LAST), Visibility::Public);
                a.add(AttrKey::Expertise, *rng.pick(EXPERTISE), Visibility::Public);
                a.add(AttrKey::City, *rng.pick(CITY), Visibility::Public);
                let name = MailName::new(
                    &format!("r{}", topology.region(s).0),
                    topology.name(s),
                    &format!("u{k}"),
                )
                .expect("generated names are valid");
                registry.upsert(name, a);
            }
            registries.insert(s, registry);
        }
        registries
    });
    rep.setup_slices.push(secs);
    let profiles = servers.len() * spec.profiles_per_server;
    rep.exact.insert("attr.profiles", profiles as f64);

    let (network, secs) = rec.time("attr.network", || {
        AttributeNetwork::new(topology, registries)
    });
    rep.setup_slices.push(secs);
    let secs = rec.close(setup);
    rep.wall.insert("setup_s", secs);
    World {
        network,
        servers,
        profiles,
    }
}

/// One repetition: set-up, then `spec.searches` searches, each from
/// another root, checked against the centrally computed answer.
pub fn rep(spec: &S3Spec, seed: u64, baseline: Option<&Rep>, rec: &mut Recorder) -> Rep {
    let mut rep = Rep::default();
    let traced = baseline.is_some();

    alloc::arm(traced);
    let allocs_at_start = alloc::snapshot();
    let world = set_up(spec, seed, rec, &mut rep);
    let allocs_after_setup = alloc::snapshot();

    let nodes = world.network.topology().node_count() as u64;
    let queries = queries();
    let ctx = RequesterContext::default();
    let plan = FailurePlan::new();
    // Co-prime with any server count used here, so roots rotate over regions.
    let stride = 7;
    let mut completed: Vec<f64> = Vec::with_capacity(spec.searches);
    let (mut responded, mut matches) = (0u64, 0u64);
    let run = rec.open("run");
    for i in 0..spec.searches {
        let root = world.servers[(i * stride) % world.servers.len()];
        let query = &queries[i % queries.len()];
        let search = rec.open("attr.search");
        let out = world
            .network
            .search(root, query, &ctx, &plan, seed ^ i as u64);
        rep.run_slices.push(rec.close(search));
        rep.attempted += 1;
        match out {
            Some(o) if o.matches == o.ground_truth_matches && o.responded == nodes => {
                rep.ops += 1;
                responded += o.responded;
                matches += o.matches;
                completed.push(o.completed_at.as_units());
                rep.check(o.matches > 0, || {
                    format!("search {i} matched nothing: the query exercises no profile")
                });
            }
            Some(o) => rep.failures.push(format!(
                "search {i}: {} matches of {} expected, {} of {nodes} nodes answered",
                o.matches, o.ground_truth_matches, o.responded
            )),
            None => rep.failures.push(format!("search {i} did not complete")),
        }
    }
    let run_s = rec.close(run);
    let allocs_after_run = alloc::snapshot();
    alloc::arm(false);
    rep.wall.insert("sim.run_s", run_s);

    let ticks = |units: f64| units * lems_sim::time::TICKS_PER_UNIT as f64;
    let p50 = ticks(quantile(&mut completed, 0.5));
    let p99 = ticks(quantile(&mut completed, 0.99));
    // A search has no deposit stage: issue → answer is the only latency.
    for name in ["deliver_ticks_p50", "e2e_ticks_p50"] {
        rep.exact.insert(name, p50);
    }
    for name in ["deliver_ticks_p99", "e2e_ticks_p99"] {
        rep.exact.insert(name, p99);
    }
    // Every node is polled by a broadcast — System 3's contrast with
    // GetMail's "≈ 1 server".
    rep.exact
        .insert("polls_mean", ratio(responded as f64, rep.ops as f64));
    rep.exact.insert(
        "completed_share",
        ratio(rep.ops as f64, rep.attempted as f64),
    );
    // A failure-free broadcast and convergecast deliver one query and one
    // summary per tree edge, plus the injected query. Computed from the
    // tree: `simulate_broadcast` does not expose its engine's counters.
    rep.exact
        .insert("mst.broadcast_events", (2 * (nodes - 1) + 1) as f64);
    // The answers themselves: what makes the digest follow the seed, which
    // draws the profiles.
    rep.exact.insert("attr.matches", matches as f64);
    rep.seal_digest();

    if let Some(baseline) = baseline {
        let w = &mut rep.wall;
        let (run_allocs, run_bytes) = (
            allocs_after_run.0 - allocs_after_setup.0,
            allocs_after_run.1 - allocs_after_setup.1,
        );
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
            "trace.overhead_ratio",
            ratio(run_s, baseline.wall["sim.run_s"]),
        );
        replays(spec, seed, &world, rec, &mut rep);
    }
    rep
}

/// The layers inside `AttributeNetwork::search`, each called alone.
fn replays(spec: &S3Spec, seed: u64, world: &World, rec: &mut Recorder, rep: &mut Rep) {
    let open = rec.open("replays");
    let topology = world.network.topology();
    let graph = topology.graph();

    let (_, secs) = rec.time("net.transport_build", || Transport::new(graph));
    rep.wall.insert("net.transport_build_s", secs);

    let ((_, ghs), secs) = rec.time("mst.ghs_build", || {
        build_two_level_distributed(topology, seed)
    });
    rep.wall.insert("mst.ghs_build_s", secs);
    rep.exact.insert("mst.ghs_msgs", ghs.total_sent() as f64);

    let adjacency = world.network.two_level().adjacency(topology);
    let rounds = spec.searches.min(3);
    let (_, secs) = rec.time("mst.broadcast", || {
        for i in 0..rounds {
            let out = simulate_broadcast(
                graph,
                &adjacency,
                &BroadcastConfig {
                    root: world.servers[i % world.servers.len()],
                    local_matches: Vec::new(),
                    grace: SimDuration::from_units(2.0),
                    seed,
                },
                &FailurePlan::new(),
            );
            assert!(out.is_some(), "failure-free broadcast completes");
        }
    });
    rep.wall
        .insert("mst.broadcast_s_mean", ratio(secs, rounds as f64));

    let ctx = RequesterContext::default();
    let queries = queries();
    let (_, secs) = rec.time("attr.count_matches", || {
        for q in &queries {
            for &s in &world.servers {
                let registry = world.network.registry(s).expect("every server has one");
                std::hint::black_box(registry.count_matches(q, &ctx));
            }
        }
    });
    let per_query = secs / queries.len() as f64;
    rep.wall.insert("attr.count_matches_s", per_query);
    rep.wall.insert(
        "attr.count_matches_ns_per_profile",
        ratio(per_query * 1e9, world.profiles as f64),
    );
    let (_, secs) = rec.time("attr.central_matches", || {
        for q in &queries {
            std::hint::black_box(world.network.central_matches(q, &ctx));
        }
    });
    rep.wall
        .insert("attr.central_matches_s", secs / queries.len() as f64);
    rec.close(open);
}
