//! Hash-based sub-group name resolution (§3.2.2b).
//!
//! Under limited location-independent access, "regions are divided into
//! small groups of manageable size using some mapping functions"; a server
//! resolving a name "applies a hash function to the name to find out in
//! which sub-group the name belongs", then resolves it "within the context
//! of that sub-group". Each sub-group is managed by one of the region's
//! servers, so resolution is a hash plus one table lookup — no dependence
//! on the host component of the name.
//!
//! Reconfiguration (§3.2.3c) works by *changing the hashing function*:
//! when servers are added or removed, the group-to-server map is rebuilt
//! and only the records of re-mapped groups move.

use lems_core::name::MailName;
use lems_net::graph::NodeId;

/// A stable hash of the name's identity within its region.
///
/// Only `region` and `user` participate: the `host` token is the user's
/// *primary access location*, not part of their identity, so a user who
/// changes primary host inside the region keeps their sub-group.
fn name_hash(name: &MailName) -> u64 {
    // FNV-1a, stable across platforms and runs.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name
        .region()
        .bytes()
        .chain([0x1f])
        .chain(name.user().bytes())
    {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Rendezvous (highest-random-weight) score of server `s` for group `g`:
/// each group independently ranks the servers, so adding or removing a
/// server remaps only the groups whose winner changed (≈ 1/(n+1) of the
/// name space on an addition) — the property that makes §3.2.3c's
/// "changing the hashing functions" cheap.
fn rendezvous_score(group: usize, server: NodeId) -> u64 {
    let mut h: u64 = 0x9e37_79b9_7f4a_7c15;
    for v in [group as u64, server.0 as u64 ^ 0xdead_beef] {
        h ^= v;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 31;
    }
    h
}

/// The region's sub-group layout: `groups` hash buckets distributed over
/// the region's servers by rendezvous hashing.
///
/// # Examples
///
/// ```
/// use lems_locindep::subgroup::SubgroupMap;
/// use lems_net::graph::NodeId;
///
/// let map = SubgroupMap::new(16, vec![NodeId(0), NodeId(1), NodeId(2)]);
/// let name = "east.h1.alice".parse()?;
/// let server = map.server_of(&name);
/// assert!(map.servers().contains(&server));
/// // Moving hosts does not change the resolving server:
/// let moved = "east.h7.alice".parse()?;
/// assert_eq!(map.server_of(&moved), server);
/// # Ok::<(), lems_core::name::ParseNameError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubgroupMap {
    groups: usize,
    servers: Vec<NodeId>,
    group_server: Vec<NodeId>,
}

impl SubgroupMap {
    /// Creates a layout with `groups` buckets over `servers` (rendezvous
    /// hashing: each group picks the server with the highest hash score).
    ///
    /// # Panics
    ///
    /// Panics if `groups == 0` or `servers` is empty.
    pub fn new(groups: usize, servers: Vec<NodeId>) -> Self {
        assert!(groups > 0, "need at least one sub-group");
        assert!(!servers.is_empty(), "need at least one server");
        let group_server = (0..groups)
            .map(|g| {
                servers
                    .iter()
                    .copied()
                    .max_by_key(|&s| (rendezvous_score(g, s), s))
                    .unwrap_or_else(|| servers[0])
            })
            .collect();
        SubgroupMap {
            groups,
            servers,
            group_server,
        }
    }

    /// The region's servers.
    pub fn servers(&self) -> &[NodeId] {
        &self.servers
    }

    /// The sub-group a name hashes into.
    pub(crate) fn group_of(&self, name: &MailName) -> usize {
        (name_hash(name) % self.groups as u64) as usize
    }

    /// The server managing a name's sub-group.
    pub fn server_of(&self, name: &MailName) -> NodeId {
        self.group_server[self.group_of(name)]
    }

    /// Rebuilds the layout for a new server roster ("changing the hashing
    /// functions"), returning which sub-groups moved to a different server
    /// — the records of exactly those groups must be transferred.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is empty.
    pub fn rehash(&mut self, servers: Vec<NodeId>) -> RehashReport {
        assert!(!servers.is_empty(), "need at least one server");
        let new = SubgroupMap::new(self.groups, servers);
        let moved: Vec<usize> = (0..self.groups)
            .filter(|&g| self.group_server[g] != new.group_server[g])
            .collect();
        let report = RehashReport {
            moved_groups: moved,
            total_groups: self.groups,
        };
        *self = new;
        report
    }
}

/// What a rehash had to move.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RehashReport {
    /// Sub-groups whose managing server changed.
    pub(crate) moved_groups: Vec<usize>,
    /// Total sub-groups in the layout.
    pub(crate) total_groups: usize,
}

impl RehashReport {
    /// Fraction of the name space that had to move.
    pub fn moved_fraction(&self) -> f64 {
        self.moved_groups.len() as f64 / self.total_groups as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn name(s: &str) -> MailName {
        s.parse().unwrap()
    }

    #[test]
    fn resolution_is_host_independent() {
        let map = SubgroupMap::new(64, vec![NodeId(0), NodeId(1), NodeId(2)]);
        for u in ["alice", "bob", "carol", "dave"] {
            let a = map.server_of(&name(&format!("east.h1.{u}")));
            let b = map.server_of(&name(&format!("east.h9.{u}")));
            assert_eq!(a, b, "user {u} must resolve identically from any host");
        }
    }

    #[test]
    fn different_regions_hash_independently() {
        let map = SubgroupMap::new(64, vec![NodeId(0), NodeId(1)]);
        let east = map.group_of(&name("east.h1.alice"));
        let west = map.group_of(&name("west.h1.alice"));
        // Not a strict requirement per-user, but across several users the
        // groups must differ at least once.
        let differs = ["alice", "bob", "carol", "dave", "erin"].iter().any(|u| {
            map.group_of(&name(&format!("east.h1.{u}")))
                != map.group_of(&name(&format!("west.h1.{u}")))
        });
        assert!(differs);
        let _ = (east, west);
    }

    #[test]
    fn groups_are_reasonably_balanced() {
        let servers = vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)];
        let map = SubgroupMap::new(64, servers.clone());
        let mut counts = std::collections::HashMap::new();
        for i in 0..2000 {
            let n = name(&format!("east.h{}.user{i}", i % 7));
            *counts.entry(map.server_of(&n)).or_insert(0usize) += 1;
        }
        for &s in &servers {
            let c = counts.get(&s).copied().unwrap_or(0);
            assert!(
                c > 350 && c < 650,
                "server {s} got {c} of 2000 names — poor balance"
            );
        }
    }

    #[test]
    fn rehash_reports_moved_groups_only() {
        let mut map = SubgroupMap::new(12, vec![NodeId(0), NodeId(1)]);
        let before = map.clone();
        // Adding a third server remaps roughly the groups whose index mod
        // pattern changed.
        let report = map.rehash(vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert!(!report.moved_groups.is_empty());
        assert!(report.moved_fraction() < 1.0);
        for g in 0..12 {
            let moved = report.moved_groups.contains(&g);
            let changed = before.group_server[g] != map.group_server[g];
            assert_eq!(moved, changed, "group {g}");
        }
    }

    #[test]
    fn rehash_to_same_roster_moves_nothing() {
        let mut map = SubgroupMap::new(8, vec![NodeId(0), NodeId(1)]);
        let report = map.rehash(vec![NodeId(0), NodeId(1)]);
        assert!(report.moved_groups.is_empty());
        assert_eq!(report.moved_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one sub-group")]
    fn zero_groups_panics() {
        let _ = SubgroupMap::new(0, vec![NodeId(0)]);
    }

    proptest! {
        /// Every name resolves to a server in the roster, deterministically.
        #[test]
        fn resolution_total_and_deterministic(
            user in "[a-z]{1,8}",
            host in "[a-z0-9]{1,4}",
        ) {
            let map = SubgroupMap::new(16, vec![NodeId(3), NodeId(7), NodeId(9)]);
            let n = MailName::new("east", &host, &user).unwrap();
            let s1 = map.server_of(&n);
            let s2 = map.server_of(&n);
            prop_assert_eq!(s1, s2);
            prop_assert!(map.servers().contains(&s1));
        }
    }
}
