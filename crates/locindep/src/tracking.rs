//! Cooperative user-location tracking within a region (§3.2.2c).
//!
//! "Whenever a user logs on to a host, the host will inform the nearest
//! active server to retrieve mail messages for this user. The connecting
//! server keeps the information about the current location of this user.
//! … If the user is not at his primary location, the server has to consult
//! with other local servers to find out the current location of the user."
//!
//! [`RegionTracker`] models the region's servers' collective knowledge:
//! each server holds the locations of users who last connected through it;
//! a lookup starting at any server walks the other servers until one
//! answers, counting the consultations — the overhead the paper says "is
//! only incurred if a user moves to other locations other than his primary
//! location".

use std::collections::BTreeMap;

use lems_core::name::MailName;
use lems_net::graph::NodeId;

/// Where a lookup found the user, and what it cost.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LocateOutcome {
    /// The host the user was last seen at, if any server knows.
    pub host: Option<NodeId>,
    /// Servers consulted beyond the first (0 when the starting server knew
    /// or the user is at their primary location).
    pub consults: u32,
}

/// The region's location knowledge, distributed across its servers.
///
/// # Examples
///
/// ```
/// use lems_locindep::tracking::RegionTracker;
/// use lems_net::graph::NodeId;
///
/// let mut t = RegionTracker::new(vec![NodeId(0), NodeId(1)]);
/// let alice = "east.h1.alice".parse()?;
/// // Alice roams to host 7, connecting through server 1.
/// t.login(&alice, NodeId(7), NodeId(1));
/// // A lookup starting at server 0 must consult server 1.
/// let found = t.locate(&alice, NodeId(0));
/// assert_eq!(found.host, Some(NodeId(7)));
/// assert_eq!(found.consults, 1);
/// # Ok::<(), lems_core::name::ParseNameError>(())
/// ```
#[derive(Clone, Debug)]
pub struct RegionTracker {
    servers: Vec<NodeId>,
    /// server -> (user -> current host)
    known: BTreeMap<NodeId, BTreeMap<MailName, NodeId>>,
}

impl RegionTracker {
    /// Creates a tracker for a region's servers.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is empty.
    pub fn new(servers: Vec<NodeId>) -> Self {
        assert!(!servers.is_empty(), "region needs at least one server");
        let known = servers.iter().map(|&s| (s, BTreeMap::new())).collect();
        RegionTracker { servers, known }
    }

    /// Records a login: `user` connected from `host` through
    /// `via_server` (their nearest active server). Any stale entry at
    /// other servers is superseded lazily — locate prefers the freshest
    /// record because logins overwrite in place and stale servers are
    /// corrected on lookup.
    ///
    /// # Panics
    ///
    /// Panics if `via_server` is not one of the region's servers.
    pub fn login(&mut self, user: &MailName, host: NodeId, via_server: NodeId) {
        assert!(
            self.known.contains_key(&via_server),
            "{via_server} is not a server of this region"
        );
        if let Some(entry) = self.known.get_mut(&via_server) {
            entry.insert(user.clone(), host);
        }
        // Remove stale knowledge elsewhere: the paper's servers "cooperate
        // to keep track of the movement of users".
        for (&s, map) in &mut self.known {
            if s != via_server {
                map.remove(user);
            }
        }
    }

    /// Looks up `user`'s current host starting from `from_server`,
    /// consulting the region's other servers in roster order until one
    /// knows. Counts consults (0 if `from_server` knew).
    pub fn locate(&self, user: &MailName, from_server: NodeId) -> LocateOutcome {
        if let Some(&host) = self.known.get(&from_server).and_then(|m| m.get(user)) {
            return LocateOutcome {
                host: Some(host),
                consults: 0,
            };
        }
        let mut consults = 0;
        for &s in &self.servers {
            if s == from_server {
                continue;
            }
            consults += 1;
            if let Some(&host) = self.known.get(&s).and_then(|m| m.get(user)) {
                return LocateOutcome {
                    host: Some(host),
                    consults,
                };
            }
        }
        LocateOutcome {
            host: None,
            consults,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> MailName {
        s.parse().unwrap()
    }

    #[test]
    fn login_then_locate_through_same_server_is_free() {
        let mut t = RegionTracker::new(vec![NodeId(0), NodeId(1), NodeId(2)]);
        let u = name("east.h1.alice");
        t.login(&u, NodeId(5), NodeId(2));
        let out = t.locate(&u, NodeId(2));
        assert_eq!(
            out,
            LocateOutcome {
                host: Some(NodeId(5)),
                consults: 0
            }
        );
    }

    #[test]
    fn locate_from_other_server_consults() {
        let mut t = RegionTracker::new(vec![NodeId(0), NodeId(1), NodeId(2)]);
        let u = name("east.h1.alice");
        t.login(&u, NodeId(5), NodeId(2));
        let out = t.locate(&u, NodeId(0));
        assert_eq!(out.host, Some(NodeId(5)));
        assert_eq!(out.consults, 2); // asked 1 then 2
    }

    #[test]
    fn relogin_supersedes_old_location() {
        let mut t = RegionTracker::new(vec![NodeId(0), NodeId(1)]);
        let u = name("east.h1.alice");
        t.login(&u, NodeId(5), NodeId(0));
        t.login(&u, NodeId(9), NodeId(1));
        // Server 0 no longer claims to know alice.
        let out = t.locate(&u, NodeId(0));
        assert_eq!(out.host, Some(NodeId(9)));
        assert_eq!(out.consults, 1);
    }

    #[test]
    fn unknown_user_consults_everyone() {
        let t = RegionTracker::new(vec![NodeId(0), NodeId(1), NodeId(2)]);
        let out = t.locate(&name("east.h1.ghost"), NodeId(1));
        assert_eq!(out.host, None);
        assert_eq!(out.consults, 2);
    }

    #[test]
    #[should_panic(expected = "not a server of this region")]
    fn login_via_foreign_server_panics() {
        let mut t = RegionTracker::new(vec![NodeId(0)]);
        t.login(&name("east.h1.alice"), NodeId(5), NodeId(99));
    }
}
