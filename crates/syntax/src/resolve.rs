//! Syntax-directed name resolution (§3.1.2b).
//!
//! "The name resolution scheme is based on the syntax of names. A name is
//! said to be resolved if an authority server for the name is located.
//! Given a name, the resolution procedure will either return the authority
//! server or a server that may be able to resolve the name properly. If
//! the recipient is located within the local region then his server can be
//! located directly from other servers in the region. Otherwise, the
//! message is transmitted to one of the servers in the recipient region
//! where the name resolution process continues."

use std::sync::Arc;

use lems_core::directory::{RegionTable, Regions};
use lems_core::name::MailName;
use lems_core::store::NO_OWNER_SLOT;
use lems_core::user::{AuthorityList, UserRecord};
use lems_net::graph::NodeId;
use lems_net::topology::RegionId;

/// What one resolution step decided, borrowing what it found from the
/// resolver's tables: one step is one table walk, and the caller needs no
/// second lookup to act on the answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Resolution<'a> {
    /// This server is an authority for the name: deliver here.
    LocalAuthority {
        /// The slot this server's store was wired to keep the user in, a
        /// hint the store checks.
        slot: u32,
        /// The user's record.
        record: &'a UserRecord,
    },
    /// The name belongs to this region; its authority servers are known
    /// directly (regional replication).
    RegionalAuthority(&'a AuthorityList),
    /// The name belongs to another region; forward to one of that region's
    /// servers and resolve there.
    ForwardToRegion {
        /// The recipient's region.
        region: RegionId,
        /// Known servers of that region, nearest-first as configured.
        servers: &'a [NodeId],
    },
    /// The region token does not map to any known region — undeliverable.
    UnknownRegion,
    /// The region is local but no user record matches — undeliverable.
    UnknownUser,
}

/// One server's syntax-directed resolver.
///
/// Knowledge model (§2, §3.1.2b): a server replicates the records of
/// every user *of its own region* (so local names resolve in one step,
/// and it knows which of them it is an authority for) and the server
/// roster of every region (so foreign names forward in one step). Both
/// are the directory's own tables, shared by reference: the region's
/// [`RegionTable`] with the region's other servers, the [`Regions`] with
/// every server.
#[derive(Clone, Debug)]
pub(crate) struct SyntaxResolver {
    node: NodeId,
    region: RegionId,
    /// The directory's table of this server's region.
    pub(crate) table: Arc<RegionTable>,
    regions: Arc<Regions>,
}

impl SyntaxResolver {
    /// Builds the resolver of server `node` in `region`.
    pub(crate) fn new(
        node: NodeId,
        region: RegionId,
        table: Arc<RegionTable>,
        regions: Arc<Regions>,
    ) -> Self {
        SyntaxResolver {
            node,
            region,
            table,
            regions,
        }
    }

    /// The server's region.
    #[cfg(test)]
    pub(crate) fn region(&self) -> RegionId {
        self.region
    }

    /// The record of `name`, a user of this server's region.
    pub(crate) fn record(&self, name: &MailName) -> Option<&UserRecord> {
        self.table.find(name).map(|(record, _)| record)
    }

    /// Resolves `name` one step, per §3.1.2b.
    pub(crate) fn resolve(&self, name: &MailName) -> Resolution<'_> {
        let Some(target_region) = self.regions.region_of_name(name.region()) else {
            return Resolution::UnknownRegion;
        };
        if target_region != self.region {
            return match self.regions.servers(target_region) {
                [] => Resolution::UnknownRegion,
                servers => Resolution::ForwardToRegion {
                    region: target_region,
                    servers,
                },
            };
        }
        let Some((record, slots)) = self.table.find(name) else {
            return Resolution::UnknownUser;
        };
        match record.authorities.rank_of(self.node) {
            Some(rank) => Resolution::LocalAuthority {
                slot: slots.get(rank).copied().unwrap_or(NO_OWNER_SLOT),
                record,
            },
            None => Resolution::RegionalAuthority(&record.authorities),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lems_core::directory::Directory;

    fn name(s: &str) -> MailName {
        s.parse().unwrap()
    }

    /// The directory, and the resolver of its server 0.
    fn resolver() -> (Directory, SyntaxResolver) {
        let mut dir = Directory::new();
        dir.map_region("east", RegionId(0));
        dir.map_region("west", RegionId(1));
        for (region, s) in [(0, 0), (0, 1), (1, 5)] {
            dir.add_server(RegionId(region), NodeId(s));
        }
        dir.register(
            name("east.h1.alice"),
            NodeId(10),
            AuthorityList::new(vec![NodeId(0), NodeId(1)]),
        )
        .unwrap();
        // Bob's authorities exclude server 0, so server 0 must resolve him
        // through the regional table.
        dir.register(
            name("east.h2.bob"),
            NodeId(11),
            AuthorityList::new(vec![NodeId(1)]),
        )
        .unwrap();
        dir.partition();
        let table = Arc::clone(dir.table(RegionId(0)).unwrap());
        let r = SyntaxResolver::new(NodeId(0), RegionId(0), table, Arc::clone(dir.regions()));
        (dir, r)
    }

    #[test]
    fn local_authority_resolves_immediately() {
        let (_, r) = resolver();
        match r.resolve(&name("east.h1.alice")) {
            Resolution::LocalAuthority { slot, record } => {
                assert_eq!(slot, 0, "the first name server 0 holds");
                assert_eq!(record.name, name("east.h1.alice"));
                assert_eq!(record.home_host, NodeId(10));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn regional_name_resolves_to_authority_list() {
        let (_, r) = resolver();
        match r.resolve(&name("east.h2.bob")) {
            Resolution::RegionalAuthority(list) => {
                assert_eq!(list.primary(), NodeId(1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn foreign_region_forwards() {
        let (_, r) = resolver();
        match r.resolve(&name("west.h9.carol")) {
            Resolution::ForwardToRegion { region, servers } => {
                assert_eq!(region, RegionId(1));
                assert_eq!(servers, vec![NodeId(5)]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_region_and_user() {
        let (_, r) = resolver();
        assert_eq!(r.resolve(&name("mars.h1.zed")), Resolution::UnknownRegion);
        assert_eq!(r.resolve(&name("east.h1.nobody")), Resolution::UnknownUser);
    }

    /// The resolver reads the directory's table itself; a change to the
    /// directory copies the shared table first, so the resolver answers
    /// from the old one until it is handed the new.
    #[test]
    fn changing_a_shared_index_copies_it_first() {
        let (mut dir, mut r) = resolver();
        assert!(Arc::ptr_eq(&r.table, dir.table(RegionId(0)).unwrap()));
        // Removing a name the table lacks changes nothing, shares on.
        assert!(dir.unregister(&name("east.h3.dave")).is_err());
        assert!(Arc::ptr_eq(&r.table, dir.table(RegionId(0)).unwrap()));
        dir.unregister(&name("east.h2.bob")).unwrap();
        assert!(!Arc::ptr_eq(&r.table, dir.table(RegionId(0)).unwrap()));
        assert!(matches!(
            r.resolve(&name("east.h2.bob")),
            Resolution::RegionalAuthority(_)
        ));
        r.table = Arc::clone(dir.table(RegionId(0)).unwrap());
        assert_eq!(r.resolve(&name("east.h2.bob")), Resolution::UnknownUser);
    }

    /// A user registered after wiring resolves, with no slot to hint,
    /// once the resolver holds the directory's table again.
    #[test]
    fn reconfiguration_updates_tables() {
        let (mut dir, mut r) = resolver();
        let dave = name("east.h3.dave");
        let list = AuthorityList::new(vec![NodeId(0)]);
        dir.register(dave.clone(), NodeId(12), list).unwrap();
        r.table = Arc::clone(dir.table(RegionId(0)).unwrap());
        assert!(matches!(
            r.resolve(&dave),
            Resolution::LocalAuthority {
                slot: NO_OWNER_SLOT,
                ..
            }
        ));
        dir.unregister(&dave).unwrap();
        r.table = Arc::clone(dir.table(RegionId(0)).unwrap());
        assert_eq!(r.resolve(&dave), Resolution::UnknownUser);
    }
}
