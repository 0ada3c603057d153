//! The partitioned, partially replicated name database.
//!
//! §2: "the name space is partitioned into some easily manageable subspaces
//! … and distributed among servers so that no server needs the complete
//! knowledge of all names"; each server "only contains a subset of the user
//! names" and requests it cannot resolve locally are passed toward a server
//! "that has complete information about the user and has a mailbox for
//! him" — the user's *authority server*.
//!
//! A [`Directory`] is the global registry a deployment is configured from;
//! [`ServerView`] is the subset one server actually holds (its own users
//! plus the region routing table), which is what resolution procedures in
//! `lems-syntax` / `lems-locindep` consult.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use lems_net::graph::NodeId;
use lems_net::topology::RegionId;

use crate::name::MailName;
use crate::store::NO_OWNER_SLOT;
use crate::user::{AuthorityList, UserId, UserRecord};

/// Error from directory operations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DirectoryError {
    /// A record with the same name is already registered.
    DuplicateName(MailName),
    /// No record for the given name.
    UnknownName(MailName),
    /// No record for the given id.
    UnknownUser(UserId),
}

impl std::fmt::Display for DirectoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DirectoryError::DuplicateName(n) => write!(f, "duplicate name {n}"),
            DirectoryError::UnknownName(n) => write!(f, "unknown name {n}"),
            DirectoryError::UnknownUser(u) => write!(f, "unknown user {u}"),
        }
    }
}

impl std::error::Error for DirectoryError {}

/// The global user registry of one deployment.
///
/// This is configuration state (who exists, where, with which authority
/// servers), not something any single simulated server holds in full.
///
/// # Examples
///
/// ```
/// use lems_core::directory::Directory;
/// use lems_core::user::AuthorityList;
/// use lems_net::graph::NodeId;
/// use lems_net::topology::RegionId;
///
/// let mut dir = Directory::new();
/// dir.map_region("east", RegionId(0));
/// let alice = dir.register(
///     "east.vax1.alice".parse()?,
///     NodeId(4),
///     AuthorityList::new(vec![NodeId(0), NodeId(1)]),
/// )?;
/// let rec = dir.by_name(&"east.vax1.alice".parse()?).unwrap();
/// assert_eq!(rec.id, alice);
/// assert_eq!(dir.region_of_name("east"), Some(RegionId(0)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct Directory {
    users: Vec<UserRecord>,
    by_name: BTreeMap<MailName, UserId>,
    /// Shared with every [`ServerView`] [`Directory::partition`] builds:
    /// each server replicates the whole table, so they all read one copy.
    region_names: Arc<HashMap<String, RegionId>>,
}

impl Directory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Directory::default()
    }

    /// Declares that the region token `name` denotes `region`.
    pub fn map_region(&mut self, name: &str, region: RegionId) {
        Arc::make_mut(&mut self.region_names).insert(name.to_owned(), region);
    }

    /// Resolves a region token to its id.
    pub fn region_of_name(&self, name: &str) -> Option<RegionId> {
        self.region_names.get(name).copied()
    }

    /// Registers a new user; returns the assigned id.
    ///
    /// # Errors
    ///
    /// Returns [`DirectoryError::DuplicateName`] if the name is taken.
    pub fn register(
        &mut self,
        name: MailName,
        home_host: NodeId,
        authorities: AuthorityList,
    ) -> Result<UserId, DirectoryError> {
        let id = UserId(self.users.len());
        match self.by_name.entry(name) {
            Entry::Occupied(taken) => Err(DirectoryError::DuplicateName(taken.key().clone())),
            Entry::Vacant(slot) => {
                let name = slot.key().clone();
                slot.insert(id);
                self.users
                    .push(UserRecord::new(id, name, home_host, authorities));
                Ok(id)
            }
        }
    }

    /// Removes a user by name, returning a copy of the record.
    ///
    /// The dense id of the removed user is retired, not reused: the name no
    /// longer resolves (check [`Directory::is_registered`] for liveness).
    ///
    /// # Errors
    ///
    /// Returns [`DirectoryError::UnknownName`] if absent.
    pub fn unregister(&mut self, name: &MailName) -> Result<UserRecord, DirectoryError> {
        let id = self
            .by_name
            .remove(name)
            .ok_or_else(|| DirectoryError::UnknownName(name.clone()))?;
        // Only the name index entry goes: the record stays in its slot, so
        // every other id keeps pointing at its own record.
        Ok(self.users[id.0].clone())
    }

    /// Looks a user up by name.
    pub fn by_name(&self, name: &MailName) -> Option<&UserRecord> {
        self.by_name.get(name).map(|&id| &self.users[id.0])
    }

    /// True if the name currently resolves.
    pub fn is_registered(&self, name: &MailName) -> bool {
        self.by_name.contains_key(name)
    }

    /// Number of registered (non-removed) users.
    pub fn len(&self) -> usize {
        self.by_name.len()
    }

    /// True when no users are registered.
    pub fn is_empty(&self) -> bool {
        self.by_name.is_empty()
    }

    /// Iterates registered records in name order.
    pub fn iter(&self) -> impl Iterator<Item = &UserRecord> {
        self.by_name.values().map(|&id| &self.users[id.0])
    }

    /// Builds the per-server views: each server receives the records of
    /// users whose authority list includes it ("the databases are partially
    /// replicated to increase the availability and the reliability", §2).
    ///
    /// One pass over the records in name order fills every view; a
    /// record's copies share its name and authority list with the
    /// directory, and all views share one region table. The pass also
    /// notes where each record lands: a view's length when a record is
    /// pushed onto it is that record's index there, and so the roster
    /// slot of a store seeded with the view's names
    /// ([`Partition::slots_of`]).
    pub fn partition(&self, servers: &[NodeId]) -> Partition {
        let mut held: BTreeMap<NodeId, Vec<UserRecord>> =
            servers.iter().map(|&s| (s, Vec::new())).collect();
        let mut starts = Vec::with_capacity(self.users.len() + 1);
        starts.push(0);
        for rec in &self.users {
            starts.push(starts[starts.len() - 1] + rec.authorities.len());
        }
        let mut slots = vec![NO_OWNER_SLOT; starts[starts.len() - 1]];
        for rec in self.iter() {
            for (rank, s) in rec.authorities.servers().iter().enumerate() {
                if let Some(records) = held.get_mut(s) {
                    slots[starts[rec.id.0] + rank] =
                        u32::try_from(records.len()).unwrap_or(NO_OWNER_SLOT);
                    records.push(rec.clone());
                }
            }
        }
        let views = held
            .into_iter()
            .map(|(server, records)| {
                let view = ServerView {
                    // Already in name order: built in bulk, not by search.
                    records,
                    region_names: Arc::clone(&self.region_names),
                };
                (server, view)
            })
            .collect();
        Partition {
            views,
            slots,
            starts,
        }
    }
}

/// What [`Directory::partition`] builds: every server's view, and where
/// each user's record sits in the views of their authority servers.
#[derive(Debug)]
pub struct Partition {
    /// The view of each partitioned server.
    pub views: BTreeMap<NodeId, ServerView>,
    /// Every user's slots, in id order, each user's in list order.
    slots: Vec<u32>,
    /// Where each user's run of `slots` starts, by id; one entry more.
    starts: Vec<usize>,
}

impl Partition {
    /// Where each of `user`'s authority servers, by rank in their list,
    /// holds their record: its index in that server's view, which is the
    /// slot a store seeded with the view's names keeps them in.
    /// [`NO_OWNER_SLOT`] for a server that was not partitioned; empty
    /// for an id the directory never gave.
    pub fn slots_of(&self, user: UserId) -> &[u32] {
        match (self.starts.get(user.0), self.starts.get(user.0 + 1)) {
            (Some(&start), Some(&end)) => &self.slots[start..end],
            _ => &[],
        }
    }
}

/// The slice of the name database one server holds: records for users it
/// is an authority for, plus the region routing knowledge every server
/// replicates.
#[derive(Clone, Debug)]
pub struct ServerView {
    /// In name order, one per name. At wiring a record's index is the
    /// slot the server's store keeps the user in; a reconfiguration moves
    /// indices, and the store's hint check then finds the user by name.
    records: Vec<UserRecord>,
    /// The directory's table, shared by every view of one partition.
    region_names: Arc<HashMap<String, RegionId>>,
}

impl ServerView {
    /// Resolves a name this server is authoritative for.
    pub fn lookup(&self, name: &MailName) -> Option<&UserRecord> {
        self.find(name).map(|(_, record)| record)
    }

    /// [`ServerView::lookup`], with the record's index: the roster slot
    /// the server's store was wired to keep the user in (a hint only,
    /// once a reconfiguration has moved the view).
    pub fn find(&self, name: &MailName) -> Option<(u32, &UserRecord)> {
        let Ok(at) = self.position(name) else {
            return None;
        };
        let slot = u32::try_from(at).unwrap_or(NO_OWNER_SLOT);
        Some((slot, &self.records[at]))
    }

    /// Where `name` sits in the name order, or would.
    fn position(&self, name: &MailName) -> Result<usize, usize> {
        self.records.binary_search_by(|r| r.name.cmp(name))
    }

    /// Region token resolution (fully replicated on every server).
    pub fn region_of_name(&self, name: &str) -> Option<RegionId> {
        self.region_names.get(name).copied()
    }

    /// The names of the records held, in name order.
    pub fn names(&self) -> impl Iterator<Item = &MailName> {
        self.records.iter().map(|r| &r.name)
    }

    /// Number of records held.
    pub fn record_count(&self) -> usize {
        self.records.len()
    }

    /// Adds/updates a record (reconfiguration push).
    pub fn upsert(&mut self, record: UserRecord) {
        match self.position(&record.name) {
            Ok(at) => self.records[at] = record,
            Err(at) => self.records.insert(at, record),
        }
    }

    /// Drops a record (user deleted or reassigned away).
    pub fn remove(&mut self, name: &MailName) -> Option<UserRecord> {
        let Ok(at) = self.position(name) else {
            return None;
        };
        Some(self.records.remove(at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir_with_users() -> Directory {
        let mut d = Directory::new();
        d.map_region("east", RegionId(0));
        d.map_region("west", RegionId(1));
        d.register(
            "east.h1.alice".parse().unwrap(),
            NodeId(10),
            AuthorityList::new(vec![NodeId(0), NodeId(1)]),
        )
        .unwrap();
        d.register(
            "east.h1.bob".parse().unwrap(),
            NodeId(10),
            AuthorityList::new(vec![NodeId(1)]),
        )
        .unwrap();
        d.register(
            "west.h2.carol".parse().unwrap(),
            NodeId(11),
            AuthorityList::new(vec![NodeId(2), NodeId(0)]),
        )
        .unwrap();
        d
    }

    #[test]
    fn register_and_lookup() {
        let d = dir_with_users();
        assert_eq!(d.len(), 3);
        let alice = d.by_name(&"east.h1.alice".parse().unwrap()).unwrap();
        assert_eq!(alice.home_host, NodeId(10));
        assert!(d.by_name(&"east.h1.nobody".parse().unwrap()).is_none());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut d = dir_with_users();
        let err = d
            .register(
                "east.h1.alice".parse().unwrap(),
                NodeId(9),
                AuthorityList::new(vec![NodeId(0)]),
            )
            .unwrap_err();
        let alice: MailName = "east.h1.alice".parse().unwrap();
        assert_eq!(err, DirectoryError::DuplicateName(alice.clone()));
        // The first registration stands, and the rejected name took no id.
        assert_eq!(d.len(), 3);
        assert_eq!(d.by_name(&alice).unwrap().home_host, NodeId(10));
        let id = d
            .register(
                "east.h1.erin".parse().unwrap(),
                NodeId(9),
                AuthorityList::new(vec![NodeId(2)]),
            )
            .unwrap();
        assert_eq!(id, UserId(3));
    }

    #[test]
    fn unregister_retires_name() {
        let mut d = dir_with_users();
        let name: MailName = "east.h1.bob".parse().unwrap();
        let rec = d.unregister(&name).unwrap();
        assert_eq!(rec.name, name);
        assert!(!d.is_registered(&name));
        assert_eq!(d.len(), 2);
        assert!(d.unregister(&name).is_err());
    }

    #[test]
    fn partition_replicates_by_authority() {
        let d = dir_with_users();
        let views = d.partition(&[NodeId(0), NodeId(1), NodeId(2)]).views;
        assert_eq!(views[&NodeId(0)].record_count(), 2);
        assert_eq!(views[&NodeId(1)].record_count(), 2);
        assert_eq!(views[&NodeId(2)].record_count(), 1);
        let v0 = &views[&NodeId(0)];
        assert!(v0.lookup(&"east.h1.alice".parse().unwrap()).is_some());
        assert!(v0.lookup(&"east.h1.bob".parse().unwrap()).is_none());
        assert_eq!(v0.region_of_name("west"), Some(RegionId(1)));
    }

    /// Each view holds exactly the records a per-record insertion would,
    /// in name order, sharing the directory's names, lists and region
    /// table.
    #[test]
    fn partition_shares_what_it_replicates() {
        let mut d = dir_with_users();
        d.register(
            "west.h2.dave".parse().unwrap(),
            NodeId(11),
            AuthorityList::new(vec![NodeId(0), NodeId(2)]),
        )
        .unwrap();
        let servers = [NodeId(2), NodeId(0), NodeId(1), NodeId(0), NodeId(7)];
        let views = d.partition(&servers).views;
        assert_eq!(
            views.keys().copied().collect::<Vec<_>>(),
            [NodeId(0), NodeId(1), NodeId(2), NodeId(7)]
        );
        for (&s, view) in &views {
            let want: Vec<&UserRecord> = d.iter().filter(|r| r.authorities.contains(s)).collect();
            let got: Vec<&UserRecord> = view.records.iter().collect();
            assert_eq!(got, want, "n{}", s.0);
            for rec in got {
                let held = d.by_name(&rec.name).unwrap();
                assert!(std::ptr::eq(
                    rec.authorities.servers(),
                    held.authorities.servers()
                ));
            }
            assert!(Arc::ptr_eq(&view.region_names, &d.region_names));
        }
        assert_eq!(views[&NodeId(7)].record_count(), 0);
    }

    /// A user's slot at each authority is their record's index in that
    /// server's view, in list order; a server left out of the partition
    /// gives none.
    #[test]
    fn partition_returns_each_users_index_in_each_view() {
        let d = dir_with_users();
        let part = d.partition(&[NodeId(0), NodeId(1)]);
        for rec in d.iter() {
            let slots = part.slots_of(rec.id);
            assert_eq!(slots.len(), rec.authorities.len(), "{}", rec.name);
            for (&s, &slot) in rec.authorities.servers().iter().zip(slots) {
                let want = part.views.get(&s).map_or(NO_OWNER_SLOT, |view| {
                    view.names().position(|n| *n == rec.name).unwrap() as u32
                });
                assert_eq!(slot, want, "{} at n{}", rec.name, s.0);
                if let Some(view) = part.views.get(&s) {
                    assert_eq!(view.find(&rec.name), Some((slot, rec)));
                }
            }
        }
        // carol's primary, n2, was not partitioned; n0 holds alice first.
        let carol = d.by_name(&"west.h2.carol".parse().unwrap()).unwrap();
        assert_eq!(part.slots_of(carol.id), [NO_OWNER_SLOT, 1]);
        assert_eq!(part.slots_of(UserId(9)), [] as [u32; 0]);
    }

    #[test]
    fn server_view_mutation() {
        let d = dir_with_users();
        let mut views = d.partition(&[NodeId(0)]).views;
        let v = views.get_mut(&NodeId(0)).unwrap();
        let name: MailName = "east.h1.alice".parse().unwrap();
        let rec = v.remove(&name).unwrap();
        assert!(v.lookup(&name).is_none());
        assert_eq!(v.find(&"west.h2.carol".parse().unwrap()).unwrap().0, 0);
        v.upsert(rec.clone());
        v.upsert(rec);
        assert_eq!(v.record_count(), 2, "an upsert of a held name replaces it");
        assert_eq!(v.find(&name).unwrap().0, 0);
        let names: Vec<&MailName> = v.names().collect();
        assert!(names.is_sorted(), "{names:?}");
    }
}
