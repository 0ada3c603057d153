//! Delivery-cost accounting for limited location-independent access
//! (§3.2.2c, §3.2.4).
//!
//! System 2's delivery pipeline is System 1's plus a location lookup: when
//! the recipient is not at their primary location, the delivering server
//! "has to consult with other local servers to find out the current
//! location of the user". The paper's claim is qualitative — "overhead is
//! only incurred if a user moves"; this module quantifies it for the C5
//! experiment, including the three ways to handle a *cross-region* move
//! (remote access, redirection, renaming) whose trade-off §3.2.4
//! discusses.

use lems_net::graph::NodeId;
use lems_net::shortest_path::DistanceTable;

/// Where the recipient currently is, relative to their primary location.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UserLocation {
    /// Logged on at the primary host (the System-1 case).
    Primary,
    /// Logged on at another host of the same region; found after
    /// `consults` server consultations.
    WithinRegion {
        /// The host the user currently sits at.
        current_host: NodeId,
        /// Cross-server consultations the lookup needed.
        consults: u32,
    },
    /// Moved to another region entirely (§3.2.4).
    CrossRegion {
        /// The host in the new region.
        current_host: NodeId,
        /// A server of the new region to relay through.
        new_region_server: NodeId,
    },
}

/// How a cross-region user receives mail sent to their old name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrossRegionPolicy {
    /// The user remotely logs into the old region; interactive traffic
    /// ("very few characters are packed in every remote-access packet")
    /// crosses the inter-region links for every message read.
    RemoteAccess,
    /// The old region's servers forward each message to the new region.
    Redirect,
    /// The user takes a new name in the new region; delivery is local
    /// after a one-time migration cost.
    Rename,
}

/// Cost parameters for the accounting.
#[derive(Clone, Copy, Debug)]
pub struct CostParams {
    /// Communication cost of one server consultation, per unit of
    /// distance (a request/response round trip = 2).
    pub(crate) consult_round_trip_factor: f64,
    /// Packets exchanged per message under remote access (interactive
    /// echo traffic — tens of packets per message read).
    pub(crate) remote_access_packets: f64,
    /// One-time cost of a rename migration, in comm units: updating
    /// directories in both regions and notifying correspondents.
    pub(crate) rename_migration_cost: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            consult_round_trip_factor: 2.0,
            remote_access_packets: 40.0,
            rename_migration_cost: 50.0,
        }
    }
}

/// Cost of delivering one message, broken into the paper's components.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DeliveryCost {
    /// Sender's server to recipient's (old-name) authority server.
    pub(crate) forward_units: f64,
    /// Location lookup among the region's servers.
    pub consult_units: f64,
    /// Authority server to the recipient's current host (notification +
    /// retrieval path), including any cross-region relay.
    pub(crate) last_mile_units: f64,
}

impl DeliveryCost {
    /// Total communication cost in time units.
    pub fn total(&self) -> f64 {
        self.forward_units + self.consult_units + self.last_mile_units
    }
}

/// Computes the delivery cost for one message.
///
/// * `sender_server` — the server that accepted the message;
/// * `authority_server` — the recipient's (primary-name) authority server;
/// * `primary_host` — the recipient's primary host;
/// * `region_servers` — the servers of the recipient's region (for consult
///   pricing);
/// * `location` — where the recipient actually is;
/// * `policy` — cross-region handling (ignored unless the location is
///   cross-region).
///
/// # Examples
///
/// ```
/// use lems_locindep::delivery::{delivery_cost, CostParams, CrossRegionPolicy, UserLocation};
/// use lems_net::graph::{Graph, NodeId, Weight};
/// use lems_net::shortest_path::DistanceTable;
///
/// // chain: sender-server(0) - authority(1) - primary host(2)
/// let mut g = Graph::with_nodes(3);
/// g.add_edge(NodeId(0), NodeId(1), Weight::UNIT);
/// g.add_edge(NodeId(1), NodeId(2), Weight::UNIT);
/// let dist = DistanceTable::build(&g);
/// let cost = delivery_cost(
///     &dist, NodeId(0), NodeId(1), NodeId(2), &[NodeId(1)],
///     UserLocation::Primary, CrossRegionPolicy::Redirect, &CostParams::default(),
/// );
/// assert_eq!(cost.total(), 2.0); // 1 forward + 1 notify
/// ```
#[allow(clippy::too_many_arguments)]
pub fn delivery_cost(
    dist: &DistanceTable,
    sender_server: NodeId,
    authority_server: NodeId,
    primary_host: NodeId,
    region_servers: &[NodeId],
    location: UserLocation,
    policy: CrossRegionPolicy,
    params: &CostParams,
) -> DeliveryCost {
    let d = |a: NodeId, b: NodeId| dist.distance(a, b).as_units();
    let forward_units = d(sender_server, authority_server);

    match location {
        UserLocation::Primary => DeliveryCost {
            forward_units,
            consult_units: 0.0,
            last_mile_units: d(authority_server, primary_host),
        },
        UserLocation::WithinRegion {
            current_host,
            consults,
        } => {
            // Each consult is a round trip to another region server; price
            // it at the mean distance from the authority server.
            let mean_dist = if region_servers.len() > 1 {
                let sum: f64 = region_servers
                    .iter()
                    .filter(|&&s| s != authority_server)
                    .map(|&s| d(authority_server, s))
                    .sum();
                sum / (region_servers.len() - 1) as f64
            } else {
                0.0
            };
            DeliveryCost {
                forward_units,
                consult_units: f64::from(consults) * mean_dist * params.consult_round_trip_factor,
                last_mile_units: d(authority_server, current_host),
            }
        }
        UserLocation::CrossRegion {
            current_host,
            new_region_server,
        } => match policy {
            CrossRegionPolicy::RemoteAccess => DeliveryCost {
                forward_units,
                consult_units: 0.0,
                // The user's interactive session hauls every message over
                // the long-haul path, packet by packet.
                last_mile_units: params.remote_access_packets * d(current_host, authority_server),
            },
            CrossRegionPolicy::Redirect => DeliveryCost {
                forward_units,
                consult_units: 0.0,
                last_mile_units: d(authority_server, new_region_server)
                    + d(new_region_server, current_host),
            },
            CrossRegionPolicy::Rename => DeliveryCost {
                // After renaming, mail goes straight to the new region.
                forward_units: d(sender_server, new_region_server),
                consult_units: 0.0,
                last_mile_units: d(new_region_server, current_host),
            },
        },
    }
}

/// Messages after which renaming beats redirecting: the one-time migration
/// cost divided by the per-message saving. Returns `None` if redirecting
/// is never more expensive (no break-even).
pub fn rename_breakeven(
    per_message_redirect: f64,
    per_message_after_rename: f64,
    params: &CostParams,
) -> Option<u64> {
    let saving = per_message_redirect - per_message_after_rename;
    if saving <= 0.0 {
        return None;
    }
    Some((params.rename_migration_cost / saving).ceil() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lems_net::graph::{Graph, Weight};

    /// sender server(0) -- 1 -- authority(1) -- 1 -- primary host(2)
    ///                              |
    ///                              2 (to peer server 3)
    ///                              |-- 10 --> new region server(4) -- 1 -- new host(5)
    fn world() -> (DistanceTable, Vec<NodeId>) {
        let mut g = Graph::with_nodes(7);
        g.add_edge(NodeId(0), NodeId(1), Weight::from_units(1.0));
        g.add_edge(NodeId(1), NodeId(2), Weight::from_units(1.0));
        g.add_edge(NodeId(1), NodeId(3), Weight::from_units(2.0)); // peer server
        g.add_edge(NodeId(1), NodeId(4), Weight::from_units(10.0)); // long haul
                                                                    // Direct long-haul from the sender's server, slightly shorter than
                                                                    // relaying through the old authority — renaming can exploit it,
                                                                    // redirection cannot.
        g.add_edge(NodeId(0), NodeId(4), Weight::from_units(10.0));
        g.add_edge(NodeId(4), NodeId(5), Weight::from_units(1.0));
        g.add_edge(NodeId(3), NodeId(6), Weight::from_units(1.0)); // roamed-to host
        (DistanceTable::build(&g), vec![NodeId(1), NodeId(3)])
    }

    #[test]
    fn primary_location_matches_system_one() {
        let (dist, servers) = world();
        let c = delivery_cost(
            &dist,
            NodeId(0),
            NodeId(1),
            NodeId(2),
            &servers,
            UserLocation::Primary,
            CrossRegionPolicy::Redirect,
            &CostParams::default(),
        );
        assert_eq!(c.total(), 2.0);
        assert_eq!(c.consult_units, 0.0);
    }

    #[test]
    fn within_region_movement_adds_consults_only() {
        let (dist, servers) = world();
        let c = delivery_cost(
            &dist,
            NodeId(0),
            NodeId(1),
            NodeId(2),
            &servers,
            UserLocation::WithinRegion {
                current_host: NodeId(6),
                consults: 1,
            },
            CrossRegionPolicy::Redirect,
            &CostParams::default(),
        );
        // forward 1 + consult (1 × dist(1,3)=2 × 2) + last mile dist(1,6)=3
        assert_eq!(c.forward_units, 1.0);
        assert_eq!(c.consult_units, 4.0);
        assert_eq!(c.last_mile_units, 3.0);
    }

    #[test]
    fn cross_region_policies_rank_as_the_paper_argues() {
        let (dist, servers) = world();
        let loc = UserLocation::CrossRegion {
            current_host: NodeId(5),
            new_region_server: NodeId(4),
        };
        let params = CostParams::default();
        let remote = delivery_cost(
            &dist,
            NodeId(0),
            NodeId(1),
            NodeId(2),
            &servers,
            loc,
            CrossRegionPolicy::RemoteAccess,
            &params,
        );
        let redirect = delivery_cost(
            &dist,
            NodeId(0),
            NodeId(1),
            NodeId(2),
            &servers,
            loc,
            CrossRegionPolicy::Redirect,
            &params,
        );
        let rename = delivery_cost(
            &dist,
            NodeId(0),
            NodeId(1),
            NodeId(2),
            &servers,
            loc,
            CrossRegionPolicy::Rename,
            &params,
        );
        // "remote access is usually slow and imposes large overhead".
        assert!(remote.total() > redirect.total());
        // Renaming is cheapest per message once migrated.
        assert!(rename.total() < redirect.total());
    }

    #[test]
    fn breakeven_reflects_migration_cost() {
        let params = CostParams::default();
        // Redirect costs 12/message, rename delivery costs 2/message:
        // break-even at ceil(50 / 10) = 5 messages.
        assert_eq!(rename_breakeven(12.0, 2.0, &params), Some(5));
        // No saving -> never worth renaming.
        assert_eq!(rename_breakeven(2.0, 2.0, &params), None);
        assert_eq!(rename_breakeven(1.0, 2.0, &params), None);
    }
}
