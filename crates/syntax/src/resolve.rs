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

use std::collections::BTreeMap;
use std::rc::Rc;

use lems_core::directory::ServerView;
use lems_core::name::MailName;
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
        /// Where this server's view holds the user: the slot its store was
        /// wired to keep them in, a hint the store checks.
        slot: u32,
        /// The record this server holds for the user.
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

/// The authority list of every user of one region, by name: what each of
/// the region's servers replicates.
pub(crate) type RegionIndex = BTreeMap<MailName, AuthorityList>;

/// One server's syntax-directed resolver.
///
/// Knowledge model (§2, §3.1.2b): a server is authoritative for the names
/// in its [`ServerView`]; it additionally replicates the authority lists of
/// every user *of its own region* (so local names resolve in one step) and
/// the server roster of every region (so foreign names forward in one
/// step).
///
/// The region's servers all hold the same [`RegionIndex`], so a deployment
/// builds it once and shares it; the first change a server makes to it
/// gives that server its own copy.
#[derive(Clone, Debug)]
pub(crate) struct SyntaxResolver {
    region: RegionId,
    view: ServerView,
    /// Shared with the region's other servers until one of them changes it.
    pub(crate) region_index: Rc<RegionIndex>,
    region_servers: BTreeMap<RegionId, Vec<NodeId>>,
}

impl SyntaxResolver {
    /// Builds a resolver for a server in `region`.
    pub(crate) fn new(
        region: RegionId,
        view: ServerView,
        region_index: Rc<RegionIndex>,
        region_servers: BTreeMap<RegionId, Vec<NodeId>>,
    ) -> Self {
        SyntaxResolver {
            region,
            view,
            region_index,
            region_servers,
        }
    }

    /// The server's region.
    pub(crate) fn region(&self) -> RegionId {
        self.region
    }

    /// This server's authoritative view (mutable, for reconfiguration).
    pub(crate) fn view_mut(&mut self) -> &mut ServerView {
        &mut self.view
    }

    /// This server's authoritative view.
    pub(crate) fn view(&self) -> &ServerView {
        &self.view
    }

    /// Adds or updates a local-region user's authority list (regional
    /// replication maintenance). Copies a shared index first.
    pub(crate) fn upsert_regional(&mut self, name: MailName, authorities: AuthorityList) {
        Rc::make_mut(&mut self.region_index).insert(name, authorities);
    }

    /// Drops a local-region user (delete/migrate-away). Copies a shared
    /// index first, unless `name` is not in it.
    pub(crate) fn remove_regional(&mut self, name: &MailName) -> Option<AuthorityList> {
        if !self.region_index.contains_key(name) {
            return None;
        }
        Rc::make_mut(&mut self.region_index).remove(name)
    }

    /// Resolves `name` one step, per §3.1.2b.
    pub(crate) fn resolve(&self, name: &MailName) -> Resolution<'_> {
        let Some(target_region) = self.view.region_of_name(name.region()) else {
            return Resolution::UnknownRegion;
        };
        if target_region == self.region {
            if let Some((slot, record)) = self.view.find(name) {
                return Resolution::LocalAuthority { slot, record };
            }
            match self.region_index.get(name) {
                Some(list) => Resolution::RegionalAuthority(list),
                None => Resolution::UnknownUser,
            }
        } else {
            match self.region_servers.get(&target_region) {
                Some(servers) if !servers.is_empty() => Resolution::ForwardToRegion {
                    region: target_region,
                    servers,
                },
                _ => Resolution::UnknownRegion,
            }
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

    fn resolver() -> SyntaxResolver {
        let mut dir = Directory::new();
        dir.map_region("east", RegionId(0));
        dir.map_region("west", RegionId(1));
        dir.register(
            name("east.h1.alice"),
            NodeId(10),
            AuthorityList::new(vec![NodeId(0), NodeId(1)]),
        )
        .unwrap();
        // Bob's authorities exclude server 0, so server 0 must resolve him
        // through the regional index.
        dir.register(
            name("east.h2.bob"),
            NodeId(11),
            AuthorityList::new(vec![NodeId(1)]),
        )
        .unwrap();
        let views = dir.partition(&[NodeId(0), NodeId(1)]).views;

        let region_index: RegionIndex = dir
            .iter()
            .map(|rec| (rec.name.clone(), rec.authorities.clone()))
            .collect();
        let mut region_servers = BTreeMap::new();
        region_servers.insert(RegionId(0), vec![NodeId(0), NodeId(1)]);
        region_servers.insert(RegionId(1), vec![NodeId(5)]);

        SyntaxResolver::new(
            RegionId(0),
            views[&NodeId(0)].clone(),
            Rc::new(region_index),
            region_servers,
        )
    }

    #[test]
    fn local_authority_resolves_immediately() {
        let r = resolver();
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
        let r = resolver();
        match r.resolve(&name("east.h2.bob")) {
            Resolution::RegionalAuthority(list) => {
                assert_eq!(list.primary(), NodeId(1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn foreign_region_forwards() {
        let r = resolver();
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
        let r = resolver();
        assert_eq!(r.resolve(&name("mars.h1.zed")), Resolution::UnknownRegion);
        assert_eq!(r.resolve(&name("east.h1.nobody")), Resolution::UnknownUser);
    }

    #[test]
    fn changing_a_shared_index_copies_it_first() {
        let mut r = resolver();
        let peer = r.clone();
        assert!(Rc::ptr_eq(&r.region_index, &peer.region_index));
        // Removing a name the index lacks changes nothing, shares on.
        assert_eq!(r.remove_regional(&name("east.h3.dave")), None);
        assert!(Rc::ptr_eq(&r.region_index, &peer.region_index));
        assert!(r.remove_regional(&name("east.h2.bob")).is_some());
        assert!(!Rc::ptr_eq(&r.region_index, &peer.region_index));
        assert_eq!(r.resolve(&name("east.h2.bob")), Resolution::UnknownUser);
        assert!(matches!(
            peer.resolve(&name("east.h2.bob")),
            Resolution::RegionalAuthority(_)
        ));
    }

    #[test]
    fn reconfiguration_updates_tables() {
        let mut r = resolver();
        r.upsert_regional(name("east.h3.dave"), AuthorityList::new(vec![NodeId(1)]));
        assert!(matches!(
            r.resolve(&name("east.h3.dave")),
            Resolution::RegionalAuthority(_)
        ));
        r.remove_regional(&name("east.h3.dave"));
        assert_eq!(r.resolve(&name("east.h3.dave")), Resolution::UnknownUser);
    }
}
