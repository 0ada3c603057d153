//! Roaming users under System 2: location-independent access within a
//! region, cross-server location lookups, and the §3.2.4 decision between
//! remote access, redirection, and renaming after a cross-region move.
//!
//! ```sh
//! cargo run --example roaming_users
//! ```

use lems::locindep::{
    delivery_cost, rename_breakeven, CostParams, CrossRegionPolicy, LocIndepResolver,
    RegionTracker, SubgroupMap, UserLocation,
};
use lems::net::generators::{multi_region, MultiRegionConfig};
use lems::net::topology::RegionId;
use lems::sim::rng::SimRng;
use std::collections::BTreeMap;

fn main() {
    // A two-region world.
    let mut rng = SimRng::seed(7);
    let world = multi_region(
        &mut rng,
        &MultiRegionConfig {
            regions: 2,
            hosts_per_region: 5,
            servers_per_region: 3,
            ..MultiRegionConfig::default()
        },
    );
    let dist = world.distances();
    let east = RegionId(0);
    let servers = world.servers_in(east);
    let hosts = world.hosts_in(east);

    // Name resolution is hash-based: any server can compute who is
    // responsible for carol, no matter which host she uses today.
    let subgroups = SubgroupMap::new(32, servers.clone());
    let mut region_names = BTreeMap::new();
    region_names.insert("r0".to_owned(), RegionId(0));
    region_names.insert("r1".to_owned(), RegionId(1));
    let mut region_servers = BTreeMap::new();
    region_servers.insert(RegionId(0), servers.clone());
    region_servers.insert(RegionId(1), world.servers_in(RegionId(1)));
    let resolver = LocIndepResolver::new(
        servers[0],
        east,
        subgroups.clone(),
        region_names,
        region_servers,
    );

    let carol: lems::core::MailName = format!("r0.{}.carol", world.name(hosts[0]))
        .parse()
        .expect("valid name");
    println!("carol's primary host: {}", world.name(hosts[0]));
    println!(
        "her sub-group server (resolved by hash, host-independent): {:?}",
        resolver.resolve(&carol)
    );

    // Carol roams: logs in from another host through its nearest server.
    let mut tracker = RegionTracker::new(servers.clone());
    tracker.login(&carol, hosts[3], servers[1]);
    let found = tracker.locate(&carol, servers[0]);
    println!(
        "\ncarol roams to {}: located via {} consultation(s)",
        world.name(hosts[3]),
        found.consults
    );

    // Delivery cost at primary vs roaming.
    let params = CostParams::default();
    let at_primary = delivery_cost(
        &dist,
        servers[2],
        servers[0],
        hosts[0],
        &servers,
        UserLocation::Primary,
        CrossRegionPolicy::Redirect,
        &params,
    );
    let roaming = delivery_cost(
        &dist,
        servers[2],
        servers[0],
        hosts[0],
        &servers,
        UserLocation::WithinRegion {
            current_host: hosts[3],
            consults: found.consults,
        },
        CrossRegionPolicy::Redirect,
        &params,
    );
    println!("delivery cost at primary: {:.1} units", at_primary.total());
    println!(
        "delivery cost roaming:    {:.1} units (overhead only when moving)",
        roaming.total()
    );

    // Carol moves to the other region for a semester: compare policies.
    let new_server = world.servers_in(RegionId(1))[0];
    let new_host = world.hosts_in(RegionId(1))[0];
    let loc = UserLocation::CrossRegion {
        current_host: new_host,
        new_region_server: new_server,
    };
    let mut costs = Vec::new();
    for policy in [
        CrossRegionPolicy::RemoteAccess,
        CrossRegionPolicy::Redirect,
        CrossRegionPolicy::Rename,
    ] {
        let c = delivery_cost(
            &dist, servers[2], servers[0], hosts[0], &servers, loc, policy, &params,
        );
        println!(
            "cross-region via {policy:?}: {:.1} units/message",
            c.total()
        );
        costs.push(c.total());
    }
    match rename_breakeven(costs[1], costs[2], &params) {
        Some(n) => println!("=> renaming pays for itself after {n} message(s)"),
        None => println!("=> redirection is never more expensive here"),
    }

    // Reconfiguration: add a server, only re-hashed sub-groups move.
    let mut grown = subgroups;
    let extra = world.servers_in(RegionId(1))[2];
    let mut roster = servers.clone();
    roster.push(extra);
    let report = grown.rehash(roster);
    println!(
        "\nadding a 4th server rehashes {}/{} sub-groups ({:.0}% of the name space) — no names change",
        report.moved_groups.len(),
        report.total_groups,
        100.0 * report.moved_fraction()
    );
}
