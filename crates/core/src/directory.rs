//! The partitioned, partially replicated name database.
//!
//! §2: "the name space is partitioned into some easily manageable subspaces
//! … and distributed among servers so that no server needs the complete
//! knowledge of all names"; each server "only contains a subset of the user
//! names" and requests it cannot resolve locally are passed toward a server
//! "that has complete information about the user and has a mailbox for
//! him" — the user's *authority server*.
//!
//! A [`Directory`] is the registry a deployment is configured from, split
//! by region: each region's users are one [`RegionTable`], the table every
//! server of that region resolves through (§3.1.2b), shared rather than
//! copied; and every server shares the directory's [`Regions`], which
//! region each region token denotes and which servers it has. The users a
//! server keeps mail for are its store's roster ([`Directory::partition`]).

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

use lems_net::graph::NodeId;
use lems_net::topology::RegionId;

use crate::name::{bucket, prefix_key, MailName};
use crate::store::NO_OWNER_SLOT;
use crate::user::{AuthorityList, UserId, UserRecord};

/// Error from directory operations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DirectoryError {
    /// A record with the same name is already registered.
    DuplicateName(MailName),
    /// No record for the given name.
    UnknownName(MailName),
    /// The name's region token denotes no region.
    UnknownRegion(MailName),
}

impl std::fmt::Display for DirectoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DirectoryError::DuplicateName(n) => write!(f, "duplicate name {n}"),
            DirectoryError::UnknownName(n) => write!(f, "unknown name {n}"),
            DirectoryError::UnknownRegion(n) => write!(f, "unknown region in {n}"),
        }
    }
}

impl std::error::Error for DirectoryError {}

/// What every server replicates whole (§3.1.2b): the region each region
/// token denotes, and each region's servers, in the order they were added.
#[derive(Clone, Debug, Default)]
pub struct Regions {
    /// `(prefix_key(token), token, region)`, in the order the tokens were
    /// first mapped.
    tokens: Vec<(u128, Box<str>, RegionId)>,
    /// Open addressing over `tokens` by key, as in [`RegionTable`]: a
    /// bucket holds a row number or [`NO_ROW`], and at least half the
    /// buckets are empty.
    index: Vec<u32>,
    servers: BTreeMap<RegionId, Vec<NodeId>>,
}

impl Regions {
    /// Resolves a region token to its id.
    pub fn region_of_name(&self, token: &str) -> Option<RegionId> {
        let row = self.row_of(token)?;
        Some(self.tokens[row].2)
    }

    /// The row of `token`: its key finds it, and the token itself is read
    /// only past 16 bytes, where two keys can tie (two tokens of one
    /// length up to 16 bytes with one key are equal).
    fn row_of(&self, token: &str) -> Option<usize> {
        let key = prefix_key(token);
        let mask = self.index.len().checked_sub(1)?;
        let mut h = bucket(key, mask);
        loop {
            let row = *self.index.get(h)?;
            let (k, t, _) = self.tokens.get(row as usize)?;
            if *k == key && t.len() == token.len() && (token.len() <= 16 || **t == *token) {
                return Some(row as usize);
            }
            h = (h + 1) & mask;
        }
    }

    /// Makes `token` denote `region`, in place of any region it denoted.
    fn map(&mut self, token: &str, region: RegionId) {
        if let Some(row) = self.row_of(token) {
            self.tokens[row].2 = region;
            return;
        }
        self.tokens.push((prefix_key(token), token.into(), region));
        let mask = (2 * self.tokens.len()).next_power_of_two() - 1;
        self.index.clear();
        self.index.resize(mask + 1, NO_ROW);
        for (row, &(key, _, _)) in self.tokens.iter().enumerate() {
            let mut h = bucket(key, mask);
            while self.index[h] != NO_ROW {
                h = (h + 1) & mask;
            }
            self.index[h] = row as u32;
        }
    }

    /// The servers of `region`; none for a region without any.
    pub fn servers(&self, region: RegionId) -> &[NodeId] {
        self.servers.get(&region).map_or(&[], Vec::as_slice)
    }
}

/// An empty bucket of [`RegionTable::index`] and [`Regions::index`].
const NO_ROW: u32 = u32::MAX;

/// One user of a [`RegionTable`].
#[derive(Clone, Debug)]
struct Row {
    /// `record.name.order_key()`.
    key: u128,
    record: UserRecord,
    /// Where the table's `slots` hold the roster slot of each of the
    /// user's authority servers, by rank: empty until
    /// [`Directory::partition`], and for a user registered after it.
    slots: Range<u32>,
}

impl Row {
    /// Name order, read from the keys wherever they differ.
    fn order(&self, other: &Row) -> Ordering {
        self.key
            .cmp(&other.key)
            .then_with(|| self.record.name.cmp(&other.record.name))
    }
}

/// The users of one region: their records in name order, the roster slot
/// each of their authority servers keeps them in, and a hash index from
/// [`MailName::order_key`] to the first row holding each key.
///
/// A lookup hashes the key, compares integers along a short probe and
/// reads only the name it lands on — and not even that when the name asked
/// for is a clone of the one stored, as the names
/// [`Directory::iter`] hands out are. Names that share their first 16
/// bytes share a key; past the first of them a lookup bisects the rows.
#[derive(Clone, Debug, Default)]
pub struct RegionTable {
    /// In name order, one per name.
    rows: Vec<Row>,
    /// Open addressing with linear probes: a bucket holds a row number or
    /// [`NO_ROW`], and at least half the buckets are empty, so every probe
    /// ends. Rebuilt whenever a row moves.
    index: Vec<u32>,
    /// The rows' runs of roster slots.
    slots: Vec<u32>,
}

impl RegionTable {
    /// `name`'s record, and the roster slot each of their authority
    /// servers was wired to keep them in, by rank ([`NO_OWNER_SLOT`] at a
    /// server outside the partition; none at all for a user registered
    /// after it).
    pub fn find(&self, name: &MailName) -> Option<(&UserRecord, &[u32])> {
        let row = &self.rows[self.position(name)?];
        let run = row.slots.start as usize..row.slots.end as usize;
        let slots = self.slots.get(run).unwrap_or(&[]);
        Some((&row.record, slots))
    }

    /// Rebuilds the index over the rows as they now stand.
    fn reindex(&mut self) {
        let buckets = (2 * self.rows.len()).max(1).next_power_of_two();
        let mask = buckets - 1;
        self.index.clear();
        self.index.resize(buckets, NO_ROW);
        for (at, row) in self.rows.iter().enumerate() {
            if at > 0 && self.rows[at - 1].key == row.key {
                continue;
            }
            let mut h = bucket(row.key, mask);
            while self.index[h] != NO_ROW {
                h = (h + 1) & mask;
            }
            self.index[h] = at as u32;
        }
    }

    /// Where `name` sits in the name order, or would.
    fn search(&self, name: &MailName) -> Result<usize, usize> {
        let key = name.order_key();
        self.rows
            .binary_search_by(|row| row.key.cmp(&key).then_with(|| row.record.name.cmp(name)))
    }

    /// `name`'s row number: through the index, and by bisection where the
    /// first row with `name`'s key holds another name.
    fn position(&self, name: &MailName) -> Option<usize> {
        let key = name.order_key();
        let mask = self.index.len().checked_sub(1)?;
        let mut h = bucket(key, mask);
        loop {
            let at = self.index[h];
            if at == NO_ROW {
                return None;
            }
            let row = &self.rows[at as usize];
            if row.key == key {
                if row.record.name == *name {
                    return Some(at as usize);
                }
                let Ok(at) = self.search(name) else {
                    return None;
                };
                return Some(at);
            }
            h = (h + 1) & mask;
        }
    }
}

/// The user registry of one deployment, one [`RegionTable`] per region.
///
/// This is configuration state (who exists, where, with which authority
/// servers); a server holds its own region's table and the [`Regions`],
/// shared with the directory, and no other region's users.
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
    /// Each region's users, by region id, shared with the region's
    /// servers: a change copies a shared table first.
    tables: Vec<Arc<RegionTable>>,
    /// Shared with every server. (`Arc`, not `Rc`: `lems-core`'s types
    /// stay `Send + Sync`.)
    regions: Arc<Regions>,
    /// How many ids have been given: the next user's.
    ids: usize,
}

impl Directory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Directory::default()
    }

    /// Declares that the region token `name` denotes `region`.
    pub fn map_region(&mut self, name: &str, region: RegionId) {
        Arc::make_mut(&mut self.regions).map(name, region);
        if self.tables.len() <= region.0 {
            self.tables.resize_with(region.0 + 1, Arc::default);
        }
    }

    /// Adds `server` to `region`'s servers, after those added before.
    pub fn add_server(&mut self, region: RegionId, server: NodeId) {
        Arc::make_mut(&mut self.regions)
            .servers
            .entry(region)
            .or_default()
            .push(server);
    }

    /// Resolves a region token to its id.
    pub fn region_of_name(&self, name: &str) -> Option<RegionId> {
        self.regions.region_of_name(name)
    }

    /// The region tokens and servers, to share with every server.
    pub fn regions(&self) -> &Arc<Regions> {
        &self.regions
    }

    /// `region`'s table, to share with the region's servers.
    pub fn table(&self, region: RegionId) -> Option<&Arc<RegionTable>> {
        self.tables.get(region.0)
    }

    /// Registers a new user; returns the assigned id.
    ///
    /// # Errors
    ///
    /// Returns [`DirectoryError::DuplicateName`] if the name is taken, and
    /// [`DirectoryError::UnknownRegion`] if its region token is not mapped.
    pub fn register(
        &mut self,
        name: MailName,
        home_host: NodeId,
        authorities: AuthorityList,
    ) -> Result<UserId, DirectoryError> {
        self.register_all([(name, home_host, authorities)])
    }

    /// Registers `users` in turn, as one [`Directory::register`] each
    /// would, but sorting each region's table once; returns the first id
    /// assigned.
    ///
    /// # Errors
    ///
    /// As [`Directory::register`], for a name taken before or earlier in
    /// `users`; the directory is then unchanged.
    pub fn register_all(
        &mut self,
        users: impl IntoIterator<Item = (MailName, NodeId, AuthorityList)>,
    ) -> Result<UserId, DirectoryError> {
        let first = self.ids;
        let mut ids = first;
        let mut added: BTreeMap<RegionId, Vec<Row>> = BTreeMap::new();
        for (name, home_host, authorities) in users {
            let Some(region) = self.region_of_name(name.region()) else {
                return Err(DirectoryError::UnknownRegion(name));
            };
            if self.is_registered(&name) {
                return Err(DirectoryError::DuplicateName(name));
            }
            let row = Row {
                key: name.order_key(),
                record: UserRecord::new(UserId(ids), name, home_host, authorities),
                slots: 0..0,
            };
            added.entry(region).or_default().push(row);
            ids += 1;
        }
        for rows in added.values_mut() {
            rows.sort_unstable_by(Row::order);
            if let Some(twin) = rows
                .windows(2)
                .find(|w| w[0].record.name == w[1].record.name)
            {
                return Err(DirectoryError::DuplicateName(twin[1].record.name.clone()));
            }
        }
        for (region, rows) in added {
            // `map_region` gave the region its table.
            let table = Arc::make_mut(&mut self.tables[region.0]);
            table.rows.extend(rows);
            // Two runs in name order: the stable sort merges them.
            table.rows.sort_by(Row::order);
            table.reindex();
        }
        self.ids = ids;
        Ok(UserId(first))
    }

    /// Removes a user by name, returning their record.
    ///
    /// The dense id of the removed user is retired, not reused: the name no
    /// longer resolves (check [`Directory::is_registered`] for liveness).
    ///
    /// # Errors
    ///
    /// Returns [`DirectoryError::UnknownName`] if absent.
    pub fn unregister(&mut self, name: &MailName) -> Result<UserRecord, DirectoryError> {
        let unknown = || DirectoryError::UnknownName(name.clone());
        let region = self.region_of_name(name.region()).ok_or_else(unknown)?;
        let shared = self.tables.get_mut(region.0).ok_or_else(unknown)?;
        // Found before the table is copied: a miss copies nothing.
        let at = shared.position(name).ok_or_else(unknown)?;
        let table = Arc::make_mut(shared);
        let row = table.rows.remove(at);
        table.reindex();
        Ok(row.record)
    }

    /// `name`'s record, and the roster slot each of their authority
    /// servers keeps them in ([`RegionTable::find`]).
    pub fn find(&self, name: &MailName) -> Option<(&UserRecord, &[u32])> {
        let region = self.region_of_name(name.region())?;
        self.tables.get(region.0)?.find(name)
    }

    /// Looks a user up by name.
    pub fn by_name(&self, name: &MailName) -> Option<&UserRecord> {
        let table = self.tables.get(self.region_of_name(name.region())?.0)?;
        Some(&table.rows[table.position(name)?].record)
    }

    /// True if the name currently resolves.
    pub fn is_registered(&self, name: &MailName) -> bool {
        self.find(name).is_some()
    }

    /// Number of registered (non-removed) users.
    pub fn len(&self) -> usize {
        self.tables.iter().map(|table| table.rows.len()).sum()
    }

    /// True when no users are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates registered records in name order.
    pub fn iter(&self) -> impl Iterator<Item = &UserRecord> {
        self.in_name_order().into_iter().map(|(_, row)| &row.record)
    }

    /// Every row, with the number of its table, in name order.
    fn in_name_order(&self) -> Vec<(usize, &Row)> {
        let mut rows: Vec<(usize, &Row)> = self
            .tables
            .iter()
            .enumerate()
            .flat_map(|(t, table)| table.rows.iter().map(move |row| (t, row)))
            .collect();
        // Each table is in name order: the stable sort merges them.
        rows.sort_by(|(_, a), (_, b)| a.order(b));
        rows
    }

    /// Builds each server's roster: the users whose authority list names
    /// it ("the databases are partially replicated to increase the
    /// availability and the reliability", §2), in name order, for every
    /// server of the [`Regions`]. A user's rank in a roster is the slot a
    /// store seeded with it keeps them in; the pass records it in the
    /// user's row, for each server of their list by rank
    /// ([`RegionTable::find`]). Call it before sharing the tables: it
    /// writes to every one.
    pub fn partition(&mut self) -> BTreeMap<NodeId, Vec<MailName>> {
        // Each row's run of slots, one per rank of its list.
        let mut slots: Vec<Vec<u32>> = Vec::with_capacity(self.tables.len());
        for table in &mut self.tables {
            let table = Arc::make_mut(table);
            let mut end = 0;
            for row in &mut table.rows {
                let start = end;
                end += row.record.authorities.len() as u32;
                row.slots = start..end;
            }
            slots.push(vec![NO_OWNER_SLOT; end as usize]);
        }
        let mut rosters: BTreeMap<NodeId, Vec<MailName>> = self
            .regions
            .servers
            .values()
            .flatten()
            .map(|&s| (s, Vec::new()))
            .collect();
        for (t, row) in self.in_name_order() {
            let servers = row.record.authorities.servers();
            let run = &mut slots[t][row.slots.start as usize..row.slots.end as usize];
            for (s, slot) in servers.iter().zip(run) {
                if let Some(roster) = rosters.get_mut(s) {
                    *slot = u32::try_from(roster.len()).unwrap_or(NO_OWNER_SLOT);
                    roster.push(row.record.name.clone());
                }
            }
        }
        for (table, slots) in self.tables.iter_mut().zip(slots) {
            Arc::make_mut(table).slots = slots;
        }
        rosters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> MailName {
        s.parse().unwrap()
    }

    fn dir_with_users() -> Directory {
        let mut d = Directory::new();
        d.map_region("east", RegionId(0));
        d.map_region("west", RegionId(1));
        d.register(
            name("east.h1.alice"),
            NodeId(10),
            AuthorityList::new(vec![NodeId(0), NodeId(1)]),
        )
        .unwrap();
        d.register(
            name("east.h1.bob"),
            NodeId(10),
            AuthorityList::new(vec![NodeId(1)]),
        )
        .unwrap();
        d.register(
            name("west.h2.carol"),
            NodeId(11),
            AuthorityList::new(vec![NodeId(2), NodeId(0)]),
        )
        .unwrap();
        d
    }

    /// `d` with `servers` added to region 0.
    fn with_servers(mut d: Directory, servers: &[NodeId]) -> Directory {
        for &s in servers {
            d.add_server(RegionId(0), s);
        }
        d
    }

    #[test]
    fn register_and_lookup() {
        let d = dir_with_users();
        assert_eq!(d.len(), 3);
        let alice = d.by_name(&name("east.h1.alice")).unwrap();
        assert_eq!(alice.home_host, NodeId(10));
        assert!(d.by_name(&name("east.h1.nobody")).is_none());
        assert!(d.by_name(&name("mars.h1.alice")).is_none());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut d = dir_with_users();
        let err = d
            .register(
                name("east.h1.alice"),
                NodeId(9),
                AuthorityList::new(vec![NodeId(0)]),
            )
            .unwrap_err();
        let alice = name("east.h1.alice");
        assert_eq!(err, DirectoryError::DuplicateName(alice.clone()));
        // The first registration stands, and the rejected name took no id.
        assert_eq!(d.len(), 3);
        assert_eq!(d.by_name(&alice).unwrap().home_host, NodeId(10));
        let id = d
            .register(
                name("east.h1.erin"),
                NodeId(9),
                AuthorityList::new(vec![NodeId(2)]),
            )
            .unwrap();
        assert_eq!(id, UserId(3));
    }

    /// A batch registers as its users would one by one; a batch with a
    /// name taken, twice over or in an unmapped region changes nothing.
    #[test]
    fn registering_in_bulk_is_registering_in_turn() {
        let list = AuthorityList::new(vec![NodeId(0)]);
        let user = |n: &str| (name(n), NodeId(9), list.clone());
        let users = ["west.h1.u2", "east.h1.u10", "east.h1.u1", "west.h1.u0"];
        let mut bulk = dir_with_users();
        assert_eq!(bulk.register_all(users.map(user)), Ok(UserId(3)));
        let mut single = dir_with_users();
        for n in users {
            single.register(name(n), NodeId(9), list.clone()).unwrap();
        }
        assert!(bulk.iter().eq(single.iter()));
        let taken = |n| DirectoryError::DuplicateName(name(n));
        for (batch, err) in [
            (["east.h1.u3", "east.h1.u3"], taken("east.h1.u3")),
            (["east.h1.u3", "east.h1.bob"], taken("east.h1.bob")),
            (
                ["east.h1.u3", "mars.h1.u3"],
                DirectoryError::UnknownRegion(name("mars.h1.u3")),
            ),
        ] {
            let mut d = dir_with_users();
            assert_eq!(d.register_all(batch.map(user)), Err(err));
            assert!(d.iter().eq(dir_with_users().iter()));
            assert_eq!(
                d.register(name("east.h1.u3"), NodeId(9), list.clone()),
                Ok(UserId(3))
            );
        }
    }

    #[test]
    fn unregister_retires_name() {
        let mut d = dir_with_users();
        let bob = name("east.h1.bob");
        let rec = d.unregister(&bob).unwrap();
        assert_eq!(rec.name, bob);
        assert!(!d.is_registered(&bob));
        assert_eq!(d.len(), 2);
        assert!(d.unregister(&bob).is_err());
    }

    #[test]
    fn partition_replicates_by_authority() {
        let mut d = with_servers(dir_with_users(), &[NodeId(0), NodeId(1), NodeId(2)]);
        let rosters = d.partition();
        let names = |s: usize| {
            rosters[&NodeId(s)]
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
        };
        assert_eq!(names(0), ["east.h1.alice", "west.h2.carol"]);
        assert_eq!(names(1), ["east.h1.alice", "east.h1.bob"]);
        assert_eq!(names(2), ["west.h2.carol"]);
        assert_eq!(d.region_of_name("west"), Some(RegionId(1)));
    }

    /// Each roster holds exactly the names a per-record filter would, in
    /// name order; a server without users gets an empty one; and the
    /// partition leaves one table per region, which a clone of the
    /// directory shares.
    #[test]
    fn partition_shares_what_it_replicates() {
        let mut d = dir_with_users();
        d.register(
            name("west.h2.dave"),
            NodeId(11),
            AuthorityList::new(vec![NodeId(0), NodeId(2)]),
        )
        .unwrap();
        let mut d = with_servers(d, &[NodeId(2), NodeId(0), NodeId(1), NodeId(7)]);
        let rosters = d.partition();
        assert_eq!(
            rosters.keys().copied().collect::<Vec<_>>(),
            [NodeId(0), NodeId(1), NodeId(2), NodeId(7)]
        );
        for (&s, roster) in &rosters {
            let want: Vec<&MailName> = d
                .iter()
                .filter(|r| r.authorities.contains(s))
                .map(|r| &r.name)
                .collect();
            assert_eq!(roster.iter().collect::<Vec<_>>(), want, "n{}", s.0);
        }
        assert!(rosters[&NodeId(7)].is_empty());
        let copy = d.clone();
        for region in [RegionId(0), RegionId(1)] {
            let (a, b) = (d.table(region).unwrap(), copy.table(region).unwrap());
            assert!(Arc::ptr_eq(a, b));
        }
        assert!(Arc::ptr_eq(d.regions(), copy.regions()));
    }

    /// A user's slot at each authority is their rank in that server's
    /// roster, in list order; a server left out of the partition gives
    /// none, and a user registered after it has no slots at all.
    #[test]
    fn partition_returns_each_users_slot_in_each_roster() {
        let mut d = with_servers(dir_with_users(), &[NodeId(0), NodeId(1)]);
        let rosters = d.partition();
        for rec in d.iter() {
            let (_, slots) = d.find(&rec.name).unwrap();
            assert_eq!(slots.len(), rec.authorities.len(), "{}", rec.name);
            for (&s, &slot) in rec.authorities.servers().iter().zip(slots) {
                let want = rosters.get(&s).map_or(NO_OWNER_SLOT, |roster| {
                    roster.iter().position(|n| *n == rec.name).unwrap() as u32
                });
                assert_eq!(slot, want, "{} at n{}", rec.name, s.0);
            }
        }
        // carol's primary, n2, was not partitioned; n0 holds alice first.
        assert_eq!(
            d.find(&name("west.h2.carol")).unwrap().1,
            [NO_OWNER_SLOT, 1]
        );
        let erin = name("east.h1.erin");
        d.register(erin.clone(), NodeId(9), AuthorityList::new(vec![NodeId(0)]))
            .unwrap();
        assert_eq!(d.find(&erin).unwrap().1, [] as [u32; 0]);
        assert_eq!(d.find(&name("east.h1.bob")).unwrap().1, [1]);
    }

    /// Region tokens resolve as a map of strings would: tokens that are
    /// prefixes of one another (`r1`, `r10`, `r100`), tokens whose first
    /// 16 bytes agree, the empty token, a token mapped again, and tokens
    /// never mapped.
    #[test]
    fn region_tokens_resolve_as_a_string_map_does() {
        let tokens = [
            "r1",
            "r10",
            "r100",
            "r",
            "",
            "r2",
            "east",
            "region-with-a-long-name-a",
            "region-with-a-long-name-b",
            "region-with-a-long-name",
            "region-with-a-lo",
        ];
        assert_eq!(prefix_key(tokens[7]), prefix_key(tokens[8]));
        assert_eq!(prefix_key(tokens[7]), prefix_key(tokens[10]));
        let mut regions = Regions::default();
        let mut model: BTreeMap<&str, RegionId> = BTreeMap::new();
        // Map in an order unlike the token order, remapping some.
        for (step, k) in [8, 1, 4, 0, 10, 7, 2, 1, 6, 3, 8].into_iter().enumerate() {
            regions.map(tokens[k], RegionId(step));
            model.insert(tokens[k], RegionId(step));
            for token in tokens.iter().chain(&["r1000", "region-with-a-long-name-c"]) {
                let want = model.get(token).copied();
                assert_eq!(
                    regions.region_of_name(token),
                    want,
                    "{token:?} at step {step}"
                );
            }
        }
        assert_eq!(regions.tokens.len(), model.len());
    }

    /// A table's index stays in step with its rows: after each removal
    /// and each insertion every name present resolves to its own record
    /// and every name absent to none — short names with keys of their own
    /// and long ones sharing a key alike.
    #[test]
    fn the_index_follows_every_register_and_unregister() {
        let names: Vec<MailName> = [
            "r0.h1.u1",
            "r0.h1.u2",
            "r0.longhostname-a.u1",
            "r0.longhostname-a.u2",
            "r0.longhostname-b.u1",
            "r1.h1.u1",
        ]
        .map(name)
        .to_vec();
        assert_eq!(names[2].order_key(), names[4].order_key());
        let mut d = Directory::new();
        d.map_region("r0", RegionId(0));
        d.map_region("r1", RegionId(1));
        let mut present = vec![false; names.len()];
        let check = |d: &Directory, present: &[bool]| {
            for (k, name) in names.iter().enumerate() {
                let found = d.by_name(name).map(|r| r.home_host);
                assert_eq!(found, present[k].then_some(NodeId(k)), "{name}");
            }
        };
        // Register in an order unlike the name order, then remove likewise.
        let order = [3, 0, 5, 2, 4, 1];
        for &k in &order {
            let list = AuthorityList::new(vec![NodeId(0)]);
            d.register(names[k].clone(), NodeId(k), list).unwrap();
            present[k] = true;
            check(&d, &present);
        }
        for &k in order.iter().rev() {
            assert!(d.unregister(&names[k]).is_ok());
            assert!(d.unregister(&names[k]).is_err());
            present[k] = false;
            check(&d, &present);
        }
    }
}
