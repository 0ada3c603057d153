//! Pins the allocation cost of one attribute search, and of building the
//! registries it searches.
//!
//! §3.3.1 prices a search at the tree it walks: the query goes down every
//! edge once, each server searches its database, one summary — a count —
//! comes back up every edge. Evaluating a registry must therefore allocate
//! nothing — the query is prepared once, its row bitsets and the
//! requester's audiences live in one scratch reused from registry to
//! registry, and a text predicate reads the postings it holds for straight
//! into a bitset — and a search counts its hits without listing them,
//! which leaves one thing
//! that may: the broadcast world (actors, waiting lists, queue: in
//! proportion to the nodes of the tree; the tree's links are wired once,
//! with the network). Ten times the profiles on the same topology must
//! cost exactly the same allocations. Before the prepared evaluator a
//! search allocated about twenty times per profile; before it counted, the
//! vector of hits doubled on top.
//!
//! A registry stores a profile by moving its values into per-key columns:
//! a number into the column's cells, a text as an entry in the posting of
//! its lowercase form, which the column's dictionary stores once. A
//! posting holds its first entry inline, so a value one row holds
//! allocates nothing of its own. What allocates is a column's growth, its
//! dictionary's index doubling and a repeated value's posting doubling,
//! never a profile, nor a value that does not repeat.
//!
//! CI runs this against the release build (the claim is about optimised
//! code); the budget holds in a debug build too.
//!
//! Lives in `tests/` (its own crate) because `lems-attr` forbids the
//! `unsafe` a `GlobalAlloc` impl requires; the counting allocator is
//! `tests/support/counting_alloc.rs`, shared by every allocation budget.

use std::collections::BTreeMap;

use lems_attr::attribute::{AttrKey, AttributeSet, RequesterContext, Visibility};
use lems_attr::query::{Predicate, Query};
use lems_attr::registry::AttributeRegistry;
use lems_attr::search::AttributeNetwork;
use lems_core::name::MailName;
use lems_net::generators::{multi_region, MultiRegionConfig};
use lems_net::topology::{NodeKind, Topology};
use lems_sim::failure::FailurePlan;
use lems_sim::rng::SimRng;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

const FIRST: [&str; 4] = ["Ada", "Grace", "Alan", "Edsger"];
const LAST: [&str; 4] = ["Johnson", "Jonsson", "Hopper", "Turing"];

/// Four regions of four hosts and two servers, with the distinct edge
/// weights a deterministic MST needs.
fn topology() -> Topology {
    let raw = multi_region(
        &mut SimRng::seed(17),
        &MultiRegionConfig {
            regions: 4,
            hosts_per_region: 4,
            servers_per_region: 2,
            ..MultiRegionConfig::default()
        },
    );
    let mut t = Topology::new();
    for n in raw.nodes() {
        match raw.kind(n) {
            NodeKind::Host => t.add_host(raw.region(n), raw.name(n)),
            NodeKind::Server => t.add_server(raw.region(n), raw.name(n)),
        };
    }
    for e in raw.graph().with_distinct_weights().edges() {
        t.link(e.a, e.b, e.weight);
    }
    t
}

fn network(profiles_per_server: usize) -> AttributeNetwork {
    let t = topology();
    let mut rng = SimRng::seed(17).fork("profiles");
    let mut registries = BTreeMap::new();
    for s in t.servers() {
        let mut registry = AttributeRegistry::new();
        for k in 0..profiles_per_server {
            let mut a = AttributeSet::new();
            a.add(AttrKey::FirstName, *rng.pick(&FIRST), Visibility::Public);
            a.add(AttrKey::LastName, *rng.pick(&LAST), Visibility::Public);
            a.add(
                AttrKey::Organization,
                "DEC",
                Visibility::Organization("dec".into()),
            );
            let name = MailName::new(&format!("r{}", t.region(s).0), t.name(s), &format!("u{k}"))
                .expect("generated names are valid");
            registry.upsert(name, a);
        }
        registries.insert(s, registry);
    }
    AttributeNetwork::new(t, registries)
}

/// `(allocations, matches)` of one failure-free fuzzy-name search by a
/// requester whose organization every profile has to be checked against.
fn one_search(net: &AttributeNetwork) -> (u64, u64) {
    let root = net.topology().servers()[0];
    let query = Query::All(vec![
        Query::name_like("jonson", 1),
        Query::text_eq(AttrKey::Organization, "dec"),
    ]);
    let ctx = RequesterContext {
        organization: Some("DEC".into()),
    };
    let plan = FailurePlan::new();
    let before = counting_alloc::allocations();
    let out = net.search(root, &query, &ctx, &plan, 17);
    let allocs = counting_alloc::allocations() - before;
    let out = out.expect("a failure-free search completes");
    assert_eq!(out.matches, out.ground_truth_matches);
    assert!(out.matches > 0, "the query exercises no profile");
    (allocs, out.matches)
}

#[test]
fn a_search_allocates_for_the_tree_not_for_the_profiles() {
    let (small, large) = (network(50), network(500));
    let nodes = small.topology().node_count() as u64;
    let (small_allocs, small_hits) = one_search(&small);
    let (large_allocs, large_hits) = one_search(&large);

    // allocations ≤ a·nodes: the broadcast world is four allocations a
    // node (88 in all on these 24 nodes: actor, waiting list, queue and
    // timer slots, the timeouts, and the evaluation's counts, bitsets and
    // scratch).
    for (allocs, hits) in [(small_allocs, small_hits), (large_allocs, large_hits)] {
        let budget = 4 * nodes;
        assert!(
            allocs <= budget,
            "a search with {hits} hits over {nodes} nodes allocated {allocs} times (budget {budget})"
        );
    }
    // Ten times the profiles: the same allocations, exactly.
    assert_eq!(
        large_allocs, small_allocs,
        "{small_allocs} allocations for {small_hits} hits, {large_allocs} for {large_hits}"
    );
}

/// `(allocations, matches)` of one failure-free search for `query` by an
/// anonymous requester.
fn search_for(net: &AttributeNetwork, query: &Query) -> (u64, u64) {
    let root = net.topology().servers()[0];
    let ctx = RequesterContext::default();
    let plan = FailurePlan::new();
    let before = counting_alloc::allocations();
    let out = net.search(root, query, &ctx, &plan, 17);
    let allocs = counting_alloc::allocations() - before;
    let out = out.expect("a failure-free search completes");
    assert_eq!(out.matches, out.ground_truth_matches);
    assert!(out.matches > 0, "{query:?} exercises no profile");
    (allocs, out.matches)
}

/// The edit-distance kernel keeps one block of its state in locals and
/// any further blocks in the search's scratch, and looks a non-ASCII
/// character's mask up in a table prepared with the query: neither a
/// needle of more than 64 characters (within reach of every name, so that
/// every cell runs every block) nor a non-ASCII one allocates per profile.
#[test]
fn every_kernel_path_allocates_for_the_tree_not_for_the_profiles() {
    let long = "jonson".repeat(12);
    assert!(long.chars().count() > 64);
    let queries = [
        Query::name_like(&long, long.len()),
        Query::name_like("Jönsson", 1),
    ];
    let (small, large) = (network(50), network(500));
    let nodes = small.topology().node_count() as u64;
    for query in &queries {
        let (small_allocs, small_hits) = search_for(&small, query);
        let (large_allocs, large_hits) = search_for(&large, query);
        for (allocs, hits) in [(small_allocs, small_hits), (large_allocs, large_hits)] {
            let budget = 4 * nodes;
            assert!(
                allocs <= budget,
                "{query:?}: {hits} hits over {nodes} nodes allocated {allocs} times \
                 (budget {budget})"
            );
        }
        assert_eq!(
            large_allocs, small_allocs,
            "{query:?}: {small_allocs} allocations for {small_hits} hits, {large_allocs} for \
             {large_hits}"
        );
    }
}

/// Evaluation alone, without the broadcast, and listing its hits:
/// `central_matches` over all eight registries allocates what it does over
/// the first of them, but for the hit vector's further doublings (a
/// search, which counts, has none). The scratch — row bitsets and the
/// audiences; the fuzzy, equality and substring predicates write the
/// postings they hold for into the bitsets and need nothing more — is
/// sized by the first registry and reused by every later one.
#[test]
fn evaluation_allocates_nothing_past_the_first_registry() {
    let all = network(50);
    let t = all.topology();
    let first = t.servers()[0];
    let registry = all.registry(first).expect("every server has one").clone();
    let one = AttributeNetwork::new(t.clone(), BTreeMap::from([(first, registry)]));
    let query = Query::All(vec![
        Query::name_like("jonson", 1),
        Query::text_eq(AttrKey::Organization, "DEC"),
        Query::Attr(AttrKey::LastName, Predicate::Contains("SON".into())),
    ]);
    let ctx = RequesterContext {
        organization: Some("dec".into()),
    };
    let evaluate = |net: &AttributeNetwork| {
        let before = counting_alloc::allocations();
        let hits = net.central_matches(&query, &ctx).len() as u64;
        (counting_alloc::allocations() - before, hits)
    };
    let (one_allocs, one_hits) = evaluate(&one);
    let (all_allocs, all_hits) = evaluate(&all);
    let doublings = |hits: u64| u64::from(hits.next_power_of_two().ilog2());
    assert!(
        one_hits >= 4 && all_hits > 4 * one_hits,
        "{one_hits} and {all_hits} hits"
    );
    let growth = doublings(all_hits) - doublings(one_hits);
    assert!(
        all_allocs <= one_allocs + growth,
        "{one_allocs} allocations over one registry, {all_allocs} over eight: more than the \
         {growth} the hit vector accounts for"
    );
}

#[test]
fn a_registry_allocates_per_column_growth_not_per_profile() {
    const PROFILES: usize = 5_000;
    let orgs = ["DEC", "dec", "AT&T"];
    // What the callers allocate — names, attribute sets, their strings —
    // is built before the count starts.
    let mut rng = SimRng::seed(17).fork("upsert");
    let profiles: Vec<(MailName, AttributeSet)> = (0..PROFILES)
        .map(|k| {
            let mut a = AttributeSet::new();
            a.add(AttrKey::FirstName, *rng.pick(&FIRST), Visibility::Public);
            a.add(AttrKey::LastName, *rng.pick(&LAST), Visibility::Public);
            a.add(AttrKey::Nickname, *rng.pick(&FIRST), Visibility::Private);
            a.add(
                AttrKey::Organization,
                *rng.pick(&orgs),
                Visibility::Organization((*rng.pick(&orgs)).into()),
            );
            a.add(
                AttrKey::Custom("years".into()),
                k as i64,
                Visibility::Public,
            );
            let name = MailName::new("r0", "h", &format!("u{k}")).expect("valid name");
            (name, a)
        })
        .collect();

    let mut registry = AttributeRegistry::new();
    let before = counting_alloc::allocations();
    for (name, attrs) in profiles {
        registry.upsert(name, attrs);
    }
    let allocs = counting_alloc::allocations() - before;
    assert_eq!(registry.len(), PROFILES);

    // The number column's cells, the four text columns' dictionaries
    // (each holding two to four distinct texts) and the postings of their
    // values, the rows' names, their order and its prefixes each grow by
    // doubling: a dozen steps apiece. Any allocation per value or per
    // profile would be thousands.
    let budget = (PROFILES / 16) as u64;
    assert!(
        allocs <= budget,
        "building a registry of {PROFILES} profiles allocated {allocs} times (budget {budget})"
    );
}

/// The same budget where no value repeats: every profile's nickname is its
/// own, half of them longer than the 16 bytes a dictionary key holds. A
/// value one row holds keeps that row inline in its posting, so what
/// allocates is still the dictionary's and the postings' growth by
/// doubling, not a value.
#[test]
fn a_registry_of_unique_values_allocates_per_column_growth_not_per_value() {
    const PROFILES: usize = 5_000;
    let profiles: Vec<(MailName, AttributeSet)> = (0..PROFILES)
        .map(|k| {
            let nickname = if k.is_multiple_of(2) {
                format!("nick-{k}")
            } else {
                format!("a-longer-nickname-{k}")
            };
            let mut a = AttributeSet::new();
            a.add(AttrKey::Nickname, nickname, Visibility::Public);
            let name = MailName::new("r0", "h", &format!("u{k}")).expect("valid name");
            (name, a)
        })
        .collect();

    let mut registry = AttributeRegistry::new();
    let before = counting_alloc::allocations();
    for (name, attrs) in profiles {
        registry.upsert(name, attrs);
    }
    let allocs = counting_alloc::allocations() - before;
    assert_eq!(registry.len(), PROFILES);
    let anon = RequesterContext::default();
    let long = Query::text_eq(AttrKey::Nickname, "A-Longer-Nickname-4999");
    assert_eq!(registry.count_matches(&long, &anon), 1);

    // One column: its dictionary's text, values and index, its postings,
    // and the rows' names, their order and its prefixes, each growing by
    // doubling. An allocation per value would be five thousand.
    let budget = (PROFILES / 16) as u64;
    assert!(
        allocs <= budget,
        "building a registry of {PROFILES} unique nicknames allocated {allocs} times \
         (budget {budget})"
    );
}
