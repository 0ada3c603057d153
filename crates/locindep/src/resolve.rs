//! Name resolution under limited location-independent access (§3.2.2b).
//!
//! "Upon receiving a request from the user, the server will try to resolve
//! the name. All servers can resolve local names within the region. A hash
//! function is applied to the name to find out in which sub-group the name
//! belongs. … If the name is not a local name, the server has to contact
//! the corresponding server in the region where the name belongs."
//!
//! Contrast with System 1: *any* server of the region can compute the
//! responsible server from the hash alone — there is no per-user routing
//! table to replicate, which is why reconfiguration is cheap (§3.2.3).

use std::collections::BTreeMap;

use lems_core::name::MailName;
use lems_net::graph::NodeId;
use lems_net::topology::RegionId;

use crate::subgroup::SubgroupMap;

/// One resolution step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Resolution {
    /// The name is regional; this server manages its sub-group.
    LocalSubgroup {
        /// The sub-group index.
        group: usize,
    },
    /// The name is regional; the given peer server manages its sub-group.
    PeerSubgroup {
        /// The responsible server.
        server: NodeId,
        /// The sub-group index.
        group: usize,
    },
    /// The name belongs to another region.
    ForwardToRegion {
        /// The recipient's region.
        region: RegionId,
        /// That region's servers.
        servers: Vec<NodeId>,
    },
    /// Unknown region token.
    UnknownRegion,
}

/// A System-2 server's resolver.
#[derive(Clone, Debug)]
pub struct LocIndepResolver {
    server: NodeId,
    region: RegionId,
    subgroups: SubgroupMap,
    region_names: BTreeMap<String, RegionId>,
    region_servers: BTreeMap<RegionId, Vec<NodeId>>,
}

impl LocIndepResolver {
    /// Creates a resolver for `server` in `region` with the region's
    /// sub-group layout.
    pub fn new(
        server: NodeId,
        region: RegionId,
        subgroups: SubgroupMap,
        region_names: BTreeMap<String, RegionId>,
        region_servers: BTreeMap<RegionId, Vec<NodeId>>,
    ) -> Self {
        LocIndepResolver {
            server,
            region,
            subgroups,
            region_names,
            region_servers,
        }
    }

    /// The server this resolver runs on.
    pub fn server(&self) -> NodeId {
        self.server
    }

    /// The current sub-group layout (mutable for rehash reconfiguration).
    pub fn subgroups_mut(&mut self) -> &mut SubgroupMap {
        &mut self.subgroups
    }

    /// Resolves `name` one step.
    pub fn resolve(&self, name: &MailName) -> Resolution {
        let Some(&target_region) = self.region_names.get(name.region()) else {
            return Resolution::UnknownRegion;
        };
        if target_region == self.region {
            let group = self.subgroups.group_of(name);
            let responsible = self.subgroups.server_of_group(group);
            if responsible == self.server {
                Resolution::LocalSubgroup { group }
            } else {
                Resolution::PeerSubgroup {
                    server: responsible,
                    group,
                }
            }
        } else {
            match self.region_servers.get(&target_region) {
                Some(servers) if !servers.is_empty() => Resolution::ForwardToRegion {
                    region: target_region,
                    servers: servers.clone(),
                },
                _ => Resolution::UnknownRegion,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resolver_for(server: NodeId) -> LocIndepResolver {
        let subgroups = SubgroupMap::new(8, vec![NodeId(0), NodeId(1)]);
        let mut region_names = BTreeMap::new();
        region_names.insert("east".to_owned(), RegionId(0));
        region_names.insert("west".to_owned(), RegionId(1));
        let mut region_servers = BTreeMap::new();
        region_servers.insert(RegionId(0), vec![NodeId(0), NodeId(1)]);
        region_servers.insert(RegionId(1), vec![NodeId(5)]);
        LocIndepResolver::new(server, RegionId(0), subgroups, region_names, region_servers)
    }

    fn name(s: &str) -> MailName {
        s.parse().unwrap()
    }

    #[test]
    fn regional_names_resolve_by_hash_from_any_server() {
        let r0 = resolver_for(NodeId(0));
        let r1 = resolver_for(NodeId(1));
        let n = name("east.h3.alice");
        // Both servers agree on the responsible server.
        let (who0, who1) = (r0.resolve(&n), r1.resolve(&n));
        let responsible = |r: &Resolution, me: NodeId| match r {
            Resolution::LocalSubgroup { .. } => me,
            Resolution::PeerSubgroup { server, .. } => *server,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(responsible(&who0, NodeId(0)), responsible(&who1, NodeId(1)));
    }

    #[test]
    fn host_component_is_irrelevant() {
        let r = resolver_for(NodeId(0));
        assert_eq!(
            r.resolve(&name("east.h1.bob")),
            r.resolve(&name("east.h99.bob"))
        );
    }

    #[test]
    fn foreign_names_forward() {
        let r = resolver_for(NodeId(0));
        match r.resolve(&name("west.h1.carol")) {
            Resolution::ForwardToRegion { region, servers } => {
                assert_eq!(region, RegionId(1));
                assert_eq!(servers, vec![NodeId(5)]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(r.resolve(&name("mars.h1.zed")), Resolution::UnknownRegion);
    }

    #[test]
    fn rehash_changes_responsibility_without_name_changes() {
        let mut r = resolver_for(NodeId(0));
        let n = name("east.h1.dave");
        let before = r.resolve(&n);
        let report = r
            .subgroups_mut()
            .rehash(vec![NodeId(0), NodeId(1), NodeId(2)]);
        let after = r.resolve(&n);
        // The name itself never changes; only the responsible server may.
        if report.moved_groups.contains(&match &before {
            Resolution::LocalSubgroup { group } | Resolution::PeerSubgroup { group, .. } => *group,
            _ => usize::MAX,
        }) {
            assert_ne!(before, after);
        } else {
            assert_eq!(before, after);
        }
    }
}
