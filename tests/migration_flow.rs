//! Integration: user migration across the directory, redirect table, and
//! System-2 tracking — §3.1.4 (rename + redirect) and §3.2.4 (free
//! within-region movement) side by side.

use lems::core::{DirectoryError, MailName};
use lems::locindep::{RegionTracker, SubgroupMap};
use lems::net::generators::fig1;
use lems::net::NodeId;
use lems::sim::time::{SimDuration, SimTime};
use lems::syntax::Deployment;
use lems_check::audit::verdict;
use lems_check::scenarios::{RunSpec, Scenario};

/// Every run here quiesces far below this.
const EVENT_BUDGET: u64 = 2_000_000;

fn t(u: f64) -> SimTime {
    SimTime::from_units(u)
}

/// `steady`'s world — Fig. 1, two users on each host, `r0.H1.u0` first —
/// with no workload yet.
fn fig1_world(seed: u64) -> Deployment {
    RunSpec {
        events: &[],
        ..Scenario::named("steady").spec.clone()
    }
    .build(seed)
}

/// §3.1.4 on the live system: `r0.H1.u0` moves to `H5` under a new
/// name; mail still addressed to the old name is redirected to the new one
/// and retrieved there.
#[test]
fn system1_migration_renames_and_mail_follows_redirect() {
    let f = fig1();
    let mut d = fig1_world(3);
    let names = d.user_names();
    let old = names[0].clone();
    let ttl = SimDuration::from_units(200.0);
    let new = d
        .migrate_user_live(&old, f.hosts[4], Some("moved"), ttl)
        .unwrap();

    // The old name is retired; the new one lives at the new host.
    assert_eq!(new.to_string(), "r0.H5.moved");
    assert!(!d.directory.is_registered(&old));
    assert_eq!(d.directory.by_name(&new).unwrap().home_host, f.hosts[4]);

    // Senders still write to the old name while the redirect is live.
    for (i, from) in names[1..4].iter().enumerate() {
        d.send_at(t(1.0 + i as f64), from, &old);
    }
    d.check_at(t(100.0), &new);
    let quiesced = d.sim.run_to_quiescence_bounded(EVENT_BUDGET);
    let violations = verdict(&d, quiesced);
    assert!(violations.is_empty(), "{violations:?}");
    let st = d.stats.borrow();
    assert_eq!(st.bounced, 0, "old-name mail must redirect, not bounce");
    assert_eq!(st.retrieved, 3);
}

#[test]
fn system2_within_region_move_needs_no_rename() {
    let servers = vec![NodeId(0), NodeId(1), NodeId(2)];
    let map = SubgroupMap::new(32, servers.clone());
    let mut tracker = RegionTracker::new(servers);
    let bob: MailName = "east.h2.bob".parse().unwrap();

    // Bob's resolving server is a pure function of his name...
    let before = map.server_of(&bob);
    // ... he roams to another host ...
    tracker.login(&bob, NodeId(15), NodeId(2));
    // ... and his name, sub-group, and resolving server are unchanged.
    assert_eq!(map.server_of(&bob), before);
    let found = tracker.locate(&bob, before);
    assert_eq!(found.host, Some(NodeId(15)));
}

/// A migration to a taken name fails with `DuplicateName` and changes
/// nothing: the directory and the old user are as they were, and mail to
/// the old name still reaches them.
#[test]
fn failed_migration_is_atomic() {
    let f = fig1();
    let mut d = fig1_world(3);
    let old: MailName = "r0.H1.u0".parse().unwrap();
    let before = d.user_names();
    let ttl = SimDuration::from_units(10.0);

    // `r0.H2.u0` is taken.
    let err = d
        .migrate_user_live(&old, f.hosts[1], None, ttl)
        .unwrap_err();

    assert!(matches!(err, DirectoryError::DuplicateName(_)));
    assert_eq!(d.user_names(), before);
    assert_eq!(d.directory.len(), before.len());
    assert_eq!(d.directory.by_name(&old).unwrap().home_host, f.hosts[0]);
    d.send_at(t(1.0), &before[1], &old);
    d.check_at(t(100.0), &old);
    let quiesced = d.sim.run_to_quiescence_bounded(EVENT_BUDGET);
    assert!(verdict(&d, quiesced).is_empty());
    assert_eq!(d.stats.borrow().retrieved, 1);
}
