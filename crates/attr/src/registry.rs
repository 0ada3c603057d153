//! Per-server attribute registries.
//!
//! Each mail server holds the attribute profiles of the users it is an
//! authority for (the same partitioning as the name database of §2);
//! attribute searches fan out across servers via the MST and each server
//! answers from its local registry.
//!
//! A registry is stored the way a search reads it (DESIGN.md §17). Its
//! `Table` keeps one column per attribute key. A column's numbers are a
//! run of cells, each naming its row, who may see it and the number. Its
//! texts are a dictionary, which holds each distinct lowercased text once,
//! and beside each value its posting: the `(row, audience)` entries of the
//! cells that hold it, in row order. A text predicate is judged once per
//! distinct value, and only the postings of the values it holds for are
//! read, with nothing to fold and no profile to reach through a pointer; a
//! query turns a table into a bitset of rows (`PreparedQuery::eval`), and
//! the name index turns the set bits into users, in name order.

use std::mem;

use lems_core::name::{bucket, prefix_key, MailName};

use crate::attribute::{
    AttrKey, AttrValue, Attribute, AttributeSet, Requester, RequesterContext, Visibility,
};
use crate::fuzzy::push_lower;
use crate::query::{PreparedQuery, Query, Scratch};

/// The audience of a cell anyone may see.
const PUBLIC: u32 = 0;
/// The audience of a cell nobody may (excluded from all searches).
const PRIVATE: u32 = 1;
/// The audience of a cell visible to the table's `i`-th organization is
/// `FIRST_ORGANIZATION + i`.
const FIRST_ORGANIZATION: u32 = 2;

/// What [`Table::compact`] maps a dropped row to.
const DROPPED: u32 = u32::MAX;

/// An empty bucket of [`Dictionary::index`].
const NO_VALUE: u32 = u32::MAX;

/// One stored number as a search reads it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Cell {
    row: u32,
    audience: u32,
    number: i64,
}

impl Cell {
    pub(crate) fn row(self) -> usize {
        self.row as usize
    }

    /// Index of this cell's audience in what [`Table::audiences`] writes.
    pub(crate) fn audience(self) -> usize {
        self.audience as usize
    }

    pub(crate) fn number(self) -> i64 {
        self.number
    }
}

/// One text cell as its value's posting lists it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Entry {
    row: u32,
    audience: u32,
}

impl Entry {
    pub(crate) fn row(self) -> usize {
        self.row as usize
    }

    /// Index of this cell's audience in what [`Table::audiences`] writes.
    pub(crate) fn audience(self) -> usize {
        self.audience as usize
    }
}

/// The text cells that hold one value, in row order (a row that holds the
/// value twice, twice). The first is held inline, so a value that one row
/// holds allocates nothing.
#[derive(Clone, Debug)]
pub(crate) struct Posting {
    first: Entry,
    more: Vec<Entry>,
}

impl Posting {
    pub(crate) fn first(&self) -> Entry {
        self.first
    }

    /// Every entry after the first.
    pub(crate) fn more(&self) -> &[Entry] {
        &self.more
    }

    /// Gives each entry its row's new number and drops the entries of
    /// [`DROPPED`] rows, keeping the order; false if none is left.
    fn renumber(&mut self, renumber: &[u32]) -> bool {
        let keep = |entry: &mut Entry| {
            entry.row = renumber[entry.row()];
            entry.row != DROPPED
        };
        self.more.retain_mut(keep);
        if keep(&mut self.first) {
            return true;
        }
        if self.more.is_empty() {
            return false;
        }
        self.first = self.more.remove(0);
        true
    }
}

/// `0x01` in every byte of a [`prefix_key`].
const ONES: u128 = u128::MAX / 0xFF;
/// The top bit of every byte: clear in the key of an ASCII string.
const TOP_BITS: u128 = ONES * 0x80;

/// The key of an ASCII string's lowercase form, from the string's own
/// [`prefix_key`]: every byte in `A..=Z` gains `0x20`, all sixteen at once.
/// (A byte below `0x80` plus `0x3F` carries into its top bit exactly when
/// it is at least `A`, plus `0x25` when it is past `Z`, and never into the
/// next byte.)
fn ascii_lower(key: u128) -> u128 {
    let from_a = key + ONES * 0x3F;
    let past_z = key + ONES * 0x25;
    key | (from_a & !past_z & TOP_BITS) >> 2
}

/// One distinct text of a column.
#[derive(Clone, Copy, Debug)]
struct Value {
    /// [`prefix_key`] of the lowercased text.
    key: u128,
    /// Its span in [`Dictionary::text`].
    start: u32,
    end: u32,
}

/// The distinct lowercased texts of one column, each kept once and known
/// by its id, the order it was first stored in.
#[derive(Clone, Debug, Default)]
struct Dictionary {
    /// Every distinct text, end to end.
    text: String,
    /// By id.
    values: Vec<Value>,
    /// Open addressing with linear probes from [`bucket`] of a value's
    /// key: a bucket holds an id or [`NO_VALUE`], and at least half the
    /// buckets are empty, so every probe ends. Rebuilt as it doubles.
    index: Vec<u32>,
}

impl Dictionary {
    fn text_of(&self, value: Value) -> &str {
        &self.text[value.start as usize..value.end as usize]
    }

    /// The id of `text`'s lowercase form, stored now if it is new.
    fn intern(&mut self, text: &str) -> u32 {
        let key = prefix_key(text);
        // A text of up to 16 bytes is all in its key.
        let ascii = if text.len() <= 16 {
            key & TOP_BITS == 0
        } else {
            text.is_ascii()
        };
        if ascii {
            // Folded in the key: nothing is copied for a text already held.
            let key = ascii_lower(key);
            if let Some(id) = self.find(key, text.len(), |held| held.eq_ignore_ascii_case(text)) {
                return id;
            }
            let start = self.text.len();
            self.text.push_str(text);
            self.text[start..].make_ascii_lowercase();
            return self.insert(key, start);
        }
        let start = self.text.len();
        push_lower(text, &mut self.text);
        let lower = &self.text[start..];
        let key = prefix_key(lower);
        if let Some(id) = self.find(key, lower.len(), |held| held == lower) {
            self.text.truncate(start);
            return id;
        }
        self.insert(key, start)
    }

    /// The id of the text whose key is `key` and length `len`, if held;
    /// past 16 bytes, keys can tie and `same` tells the held text apart.
    fn find(&self, key: u128, len: usize, same: impl Fn(&str) -> bool) -> Option<u32> {
        let mask = self.index.len().checked_sub(1)?;
        let mut h = bucket(key, mask);
        loop {
            let id = self.index[h];
            // An empty bucket, `NO_VALUE`, names no value: the text is new.
            let value = *self.values.get(id as usize)?;
            if value.key == key
                && (value.end - value.start) as usize == len
                && (len <= 16 || same(self.text_of(value)))
            {
                return Some(id);
            }
            h = (h + 1) & mask;
        }
    }

    /// Stores the lowercased text from `start` to the end of `text`, which
    /// no id holds yet, under the next id.
    fn insert(&mut self, key: u128, start: usize) -> u32 {
        let id = self.values.len() as u32;
        self.values.push(Value {
            key,
            start: start as u32,
            end: self.text.len() as u32,
        });
        if 2 * self.values.len() > self.index.len() {
            self.reindex();
        } else {
            self.place(id);
        }
        id
    }

    /// Files `id` in the first empty bucket of its probe.
    fn place(&mut self, id: u32) {
        let mask = self.index.len() - 1;
        let mut h = bucket(self.values[id as usize].key, mask);
        while self.index[h] != NO_VALUE {
            h = (h + 1) & mask;
        }
        self.index[h] = id;
    }

    /// Rebuilds the index at twice the values, rounded up to a power of two.
    fn reindex(&mut self) {
        self.index.clear();
        self.index
            .resize((2 * self.values.len()).next_power_of_two(), NO_VALUE);
        for id in 0..self.values.len() as u32 {
            self.place(id);
        }
    }
}

/// All values stored under one key.
#[derive(Clone, Debug)]
pub(crate) struct Column {
    key: AttrKey,
    /// The number cells, in row order; a row's in the order its values
    /// were added.
    cells: Vec<Cell>,
    /// The distinct texts, by id.
    dictionary: Dictionary,
    /// By value id: the text cells that hold the value.
    postings: Vec<Posting>,
}

impl Column {
    pub(crate) fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// The column's distinct texts, lowercased, each with its posting, in
    /// the order of their ids.
    pub(crate) fn texts(&self) -> impl Iterator<Item = (&str, &Posting)> {
        let dictionary = &self.dictionary;
        let texts = dictionary.values.iter().map(|&v| dictionary.text_of(v));
        texts.zip(&self.postings)
    }

    /// Adds `entry`, a cell of the newest row, to the posting of value
    /// `id`; a new value's posting starts with it.
    fn post(&mut self, id: u32, entry: Entry) {
        match self.postings.get_mut(id as usize) {
            Some(posting) => posting.more.push(entry),
            None => self.postings.push(Posting {
                first: entry,
                more: Vec::new(),
            }),
        }
    }

    /// Renumbers the rows of every cell and posting entry by `renumber`,
    /// dropping those of [`DROPPED`] rows and the values no live row holds;
    /// the values left keep their order and take the ids from 0 up.
    fn compact(&mut self, renumber: &[u32]) {
        self.cells.retain_mut(|cell| {
            cell.row = renumber[cell.row()];
            cell.row != DROPPED
        });
        let old = mem::take(&mut self.dictionary);
        let mut id = 0;
        self.postings.retain_mut(|posting| {
            let value = old.values[id];
            id += 1;
            if !posting.renumber(renumber) {
                return false;
            }
            let start = self.dictionary.text.len();
            self.dictionary.text.push_str(old.text_of(value));
            self.dictionary.insert(value.key, start);
            true
        });
    }

    fn is_empty(&self) -> bool {
        self.cells.is_empty() && self.postings.is_empty()
    }
}

/// The organizations a table's restricted cells are visible to, each kept
/// once.
#[derive(Clone, Debug, Default)]
struct Organizations {
    /// By audience − [`FIRST_ORGANIZATION`]: the name as given, and its
    /// lowercase form.
    names: Vec<(String, String)>,
    /// Indices into `names`, in the order of the names as given.
    by_name: Vec<u32>,
}

impl Organizations {
    /// The audience of `visibility`, interning an organization not seen
    /// before.
    fn audience(&mut self, visibility: Visibility) -> u32 {
        match visibility {
            Visibility::Public => PUBLIC,
            Visibility::Private => PRIVATE,
            Visibility::Organization(org) => self.intern(org),
        }
    }

    /// The audience of cells visible to `org` only.
    fn intern(&mut self, org: String) -> u32 {
        let i = match self
            .by_name
            .binary_search_by(|&i| self.names[i as usize].0.cmp(&org))
        {
            Ok(at) => self.by_name[at],
            Err(at) => {
                let i = self.names.len() as u32;
                let lower = org.to_lowercase();
                self.names.push((org, lower));
                self.by_name.insert(at, i);
                i
            }
        };
        FIRST_ORGANIZATION + i
    }
}

/// Attribute sets stored by column: rows, no names.
#[derive(Clone, Debug, Default)]
pub(crate) struct Table {
    /// One per key, in key order.
    columns: Vec<Column>,
    organizations: Organizations,
    /// One bit per row, set while the row holds a profile.
    live: Vec<u64>,
    rows: u32,
    dead: u32,
}

/// True if bit `row` of `bits` is set.
pub(crate) fn has(bits: &[u64], row: usize) -> bool {
    bits[row / 64] >> (row % 64) & 1 == 1
}

impl Table {
    /// Stores `attrs` as a new row and returns it. What is kept of a text
    /// is an entry in the posting of its lowercase form, which its
    /// column's dictionary holds once.
    ///
    /// # Panics
    ///
    /// If a column's distinct text would reach 4 GiB or the rows 2³² − 1.
    pub(crate) fn push(&mut self, attrs: AttributeSet) -> u32 {
        let row = self.rows;
        assert!(
            row < DROPPED,
            "an attribute registry holds at most 2³² − 1 rows"
        );
        // The entries come in key order, as the columns are kept: each
        // entry's column is at or after the previous entry's.
        let mut at = 0;
        for (key, Attribute { value, visibility }) in attrs.into_entries() {
            let audience = self.organizations.audience(visibility);
            while self.columns.get(at).is_some_and(|c| c.key < key) {
                at += 1;
            }
            if self.columns.get(at).is_none_or(|c| c.key != key) {
                let column = Column {
                    key,
                    cells: Vec::new(),
                    dictionary: Dictionary::default(),
                    postings: Vec::new(),
                };
                self.columns.insert(at, column);
            }
            let column = &mut self.columns[at];
            match value {
                AttrValue::Text(text) => {
                    let id = column.dictionary.intern(&text);
                    assert!(
                        column.dictionary.text.len() < u32::MAX as usize,
                        "an attribute registry holds less than 4 GiB of distinct text per key"
                    );
                    column.post(id, Entry { row, audience });
                }
                AttrValue::Number(number) => column.cells.push(Cell {
                    row,
                    audience,
                    number,
                }),
            }
        }
        if row.is_multiple_of(64) {
            self.live.push(0);
        }
        self.live[row as usize / 64] |= 1 << (row % 64);
        self.rows += 1;
        row
    }

    /// The column of `key`, if any row has a value under it.
    pub(crate) fn column(&self, key: &AttrKey) -> Option<&Column> {
        let at = self.columns.binary_search_by(|c| c.key.cmp(key)).ok()?;
        Some(&self.columns[at])
    }

    /// One bit per row, set for the rows that hold a profile.
    pub(crate) fn live(&self) -> &[u64] {
        &self.live
    }

    /// Writes into `visible`, per audience, whether `requester` sees it.
    pub(crate) fn audiences(&self, requester: &Requester, visible: &mut Vec<bool>) {
        visible.clear();
        // `PUBLIC`, `PRIVATE`, then each organization from
        // `FIRST_ORGANIZATION` on.
        visible.extend([true, false]);
        let orgs = &self.organizations.names;
        visible.extend(orgs.iter().map(|(_, lower)| requester.belongs_to(lower)));
    }

    /// Marks `row` dead: no search finds it from now on.
    fn kill(&mut self, row: u32) {
        self.live[row as usize / 64] &= !(1 << (row % 64));
        self.dead += 1;
    }

    /// True once dead rows outnumber live ones.
    fn is_sparse(&self) -> bool {
        self.dead > self.rows - self.dead
    }

    /// Drops the dead rows, their cells and the texts only they held, and
    /// renumbers the live rows in order and each column's texts in the
    /// order of their old ids. Returns each old row's new number, or
    /// [`DROPPED`].
    fn compact(&mut self) -> Vec<u32> {
        let mut renumber = Vec::with_capacity(self.rows as usize);
        let mut kept = 0;
        for row in 0..self.rows as usize {
            if has(&self.live, row) {
                renumber.push(kept);
                kept += 1;
            } else {
                renumber.push(DROPPED);
            }
        }
        for column in &mut self.columns {
            column.compact(&renumber);
        }
        self.columns.retain(|c| !c.is_empty());
        self.live.clear();
        self.live.resize((kept as usize).div_ceil(64), 0);
        for row in 0..kept as usize {
            self.live[row / 64] |= 1 << (row % 64);
        }
        self.rows = kept;
        self.dead = 0;
        renumber
    }
}

/// One server's attribute database.
///
/// # Examples
///
/// ```
/// use lems_attr::attribute::{AttrKey, AttributeSet, RequesterContext, Visibility};
/// use lems_attr::query::Query;
/// use lems_attr::registry::AttributeRegistry;
///
/// let mut reg = AttributeRegistry::new();
/// let mut attrs = AttributeSet::new();
/// attrs.add(AttrKey::Expertise, "databases", Visibility::Public);
/// reg.upsert("east.h1.alice".parse()?, attrs);
///
/// let hits = reg.search(
///     &Query::text_eq(AttrKey::Expertise, "databases"),
///     &RequesterContext::default(),
/// );
/// assert_eq!(hits.len(), 1);
/// # Ok::<(), lems_core::name::ParseNameError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct AttributeRegistry {
    table: Table,
    /// The user of each row of `table`.
    names: Vec<MailName>,
    /// The live rows, in the order of their users' names.
    by_name: Vec<u32>,
    /// The [`MailName::order_key`] of each user in `by_name`, in the same
    /// order: a bisection compares these integers and falls back to names
    /// only where they tie.
    prefixes: Vec<u128>,
}

impl AttributeRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        AttributeRegistry::default()
    }

    /// Where `user`, whose [`MailName::order_key`] is `prefix`, sits in the name
    /// order, or would.
    fn find(&self, user: &MailName, prefix: u128) -> Result<usize, usize> {
        let lo = self.prefixes.partition_point(|&p| p < prefix);
        // A new name usually ties no prefix: then one comparison says so.
        let ties = match self.prefixes.get(lo) {
            Some(&p) if p == prefix => self.prefixes[lo..].partition_point(|&p| p == prefix),
            _ => 0,
        };
        self.by_name[lo..lo + ties]
            .binary_search_by(|&row| self.names[row as usize].cmp(user))
            .map(|i| lo + i)
            .map_err(|i| lo + i)
    }

    /// Adds or replaces a user's profile. A replaced profile's row is
    /// dropped at the next compaction, which runs once dead rows outnumber
    /// live ones.
    ///
    /// # Panics
    ///
    /// If the distinct lowercased text under one key would reach 4 GiB.
    pub fn upsert(&mut self, user: MailName, attrs: AttributeSet) {
        let row = self.table.push(attrs);
        let prefix = user.order_key();
        match self.find(&user, prefix) {
            Ok(at) => {
                let old = mem::replace(&mut self.by_name[at], row);
                self.table.kill(old);
            }
            Err(at) => {
                self.by_name.insert(at, row);
                self.prefixes.insert(at, prefix);
            }
        }
        self.names.push(user);
        self.compact_if_sparse();
    }

    fn compact_if_sparse(&mut self) {
        if !self.table.is_sparse() {
            return;
        }
        let renumber = self.table.compact();
        let mut old = renumber.iter();
        self.names.retain(|_| old.next() != Some(&DROPPED));
        for row in &mut self.by_name {
            *row = renumber[*row as usize];
        }
    }

    /// Number of registered profiles.
    pub fn len(&self) -> usize {
        self.by_name.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.by_name.is_empty()
    }

    /// The first registered user in name order.
    pub(crate) fn first_name(&self) -> Option<&MailName> {
        let &row = self.by_name.first()?;
        Some(&self.names[row as usize])
    }

    /// Users whose visible attributes satisfy `query`, in name order.
    pub(crate) fn hits<'a, 's>(
        &'a self,
        query: &PreparedQuery<'_>,
        scratch: &'s mut Scratch,
    ) -> impl Iterator<Item = &'a MailName> + use<'a, 's> {
        let rows = query.eval(&self.table, scratch);
        self.by_name
            .iter()
            .filter(move |&&row| has(rows, row as usize))
            .map(|&row| &self.names[row as usize])
    }

    /// How many users satisfy `query`, and the first and last of them in
    /// name order: what [`hits`](Self::hits) would count and yield first
    /// and last, without the walk between. The rows' bitset has one bit
    /// per hit (dead rows are clear), so the count is its popcount.
    pub(crate) fn hit_ends<'a>(
        &'a self,
        query: &PreparedQuery<'_>,
        scratch: &mut Scratch,
    ) -> (u64, Option<(&'a MailName, &'a MailName)>) {
        let rows = query.eval(&self.table, scratch);
        let count = count_rows(rows);
        if count == 0 {
            return (0, None);
        }
        let hit = |row: &&u32| has(rows, **row as usize);
        let ends = self
            .by_name
            .iter()
            .find(hit)
            .zip(self.by_name.iter().rfind(hit));
        let name = |&row: &u32| &self.names[row as usize];
        (count, ends.map(|(first, last)| (name(first), name(last))))
    }

    /// Users whose visible attributes satisfy `query`, in name order.
    pub fn search(&self, query: &Query, ctx: &RequesterContext) -> Vec<&MailName> {
        let mut scratch = Scratch::default();
        self.hits(&PreparedQuery::new(query, ctx), &mut scratch)
            .collect()
    }

    /// Number of matches only (what convergecast summaries carry).
    pub fn count_matches(&self, query: &Query, ctx: &RequesterContext) -> u64 {
        let mut scratch = Scratch::default();
        count_rows(PreparedQuery::new(query, ctx).eval(&self.table, &mut scratch))
    }
}

/// The number of set bits in `rows`.
fn count_rows(rows: &[u64]) -> u64 {
    rows.iter().map(|w| u64::from(w.count_ones())).sum()
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;
    use crate::fuzzy::reference::unicode_fold_eq;
    use crate::query::tape::Tape;
    use crate::query::{reference, Predicate};

    fn reg() -> AttributeRegistry {
        let mut r = AttributeRegistry::new();
        for (name, field, vis) in [
            ("east.h1.alice", "databases", Visibility::Public),
            ("east.h1.bob", "networks", Visibility::Public),
            (
                "east.h2.carol",
                "databases",
                Visibility::Organization("DEC".into()),
            ),
        ] {
            let mut a = AttributeSet::new();
            a.add(AttrKey::Expertise, field, vis);
            r.upsert(name.parse().unwrap(), a);
        }
        r
    }

    #[test]
    fn search_respects_visibility() {
        let r = reg();
        let q = Query::text_eq(AttrKey::Expertise, "databases");
        let anon = RequesterContext::default();
        let hits = r.search(&q, &anon);
        assert_eq!(hits.len(), 1); // carol's profile is org-restricted
        assert_eq!(hits[0].to_string(), "east.h1.alice");

        let insider = RequesterContext {
            organization: Some("DEC".into()),
        };
        assert_eq!(r.search(&q, &insider).len(), 2);
        assert_eq!(r.count_matches(&q, &insider), 2);
    }

    #[test]
    fn maintenance_is_an_upsert() {
        let mut r = reg();
        let mut attrs = AttributeSet::new();
        attrs.add(AttrKey::Expertise, "databases", Visibility::Public);
        attrs.add(AttrKey::City, "Boston", Visibility::Public);
        r.upsert("east.h1.alice".parse().unwrap(), attrs);
        let anon = RequesterContext::default();
        let q = Query::text_eq(AttrKey::City, "boston");
        assert_eq!(r.count_matches(&q, &anon), 1);
        let q = Query::text_eq(AttrKey::Expertise, "databases");
        assert_eq!(r.count_matches(&q, &anon), 1);
        assert_eq!(r.len(), 3);
    }

    /// Names spread over the alphabet, few enough that upserts replace:
    /// one token a prefix of another's, and three names whose first 16
    /// bytes agree, so their prefixes tie.
    const NAMES: [&str; 8] = [
        "a.h.ann",
        "b.h.bo",
        "m.h.mo",
        "m.h.mom",
        "east.mailhost-17.alice",
        "east.mailhost-17.alina",
        "east.mailhost-17b.al",
        "z.h.zed",
    ];

    /// The registry a sequence of upserts leaves, beside the map it stands
    /// for, after every upsert: `search` returns the model's matches in
    /// name order, `count_matches` their number, `len` the model's.
    fn check_against_model(words: &[String], choices: &[u8]) {
        let names: Vec<MailName> = NAMES.iter().map(|n| n.parse().unwrap()).collect();
        let mut tape = Tape::new(choices);
        let queries: Vec<(Query, RequesterContext)> = (0..3)
            .map(|_| (tape.query(words, 0), tape.requester(words)))
            .collect();
        let mut registry = AttributeRegistry::new();
        let mut model: BTreeMap<MailName, AttributeSet> = BTreeMap::new();
        while !tape.is_empty() {
            let name = &names[tape.pick(names.len())];
            let attrs = tape.profile(words);
            registry.upsert(name.clone(), attrs.clone());
            model.insert(name.clone(), attrs);
            assert_eq!(registry.len(), model.len());
            for (query, ctx) in &queries {
                let want: Vec<&MailName> = model
                    .iter()
                    .filter(|(_, attrs)| reference::eval(query, attrs, ctx, unicode_fold_eq))
                    .map(|(name, _)| name)
                    .collect();
                assert_eq!(registry.search(query, ctx), want, "{query:?} as {ctx:?}");
                assert_eq!(registry.count_matches(query, ctx), want.len() as u64);
            }
        }
    }

    proptest! {
        /// Replacements over multi-valued keys, numbers, a custom key,
        /// every kind of visibility and the words whose case does not map
        /// one-to-one.
        #[test]
        fn the_column_registry_is_a_map_of_attribute_sets(
            words in collection::vec("[akAK ßİΣσςéÉ\u{212a}]{0,4}", 5),
            choices in collection::vec(0u8..=255, 400),
        ) {
            check_against_model(&words, &choices);
        }
    }

    /// The count path against the hit walk, on one registry: the count,
    /// the first hit and the last hit of `hit_ends` are what `hits` counts,
    /// yields first and yields last.
    fn check_hit_ends(registry: &AttributeRegistry, query: &Query, ctx: &RequesterContext) {
        let prepared = PreparedQuery::new(query, ctx);
        let mut scratch = Scratch::default();
        let walked: Vec<&MailName> = registry.hits(&prepared, &mut scratch).collect();
        let (count, ends) = registry.hit_ends(&prepared, &mut scratch);
        assert_eq!(count, walked.len() as u64, "{query:?} as {ctx:?}");
        let want = walked.first().copied().zip(walked.last().copied());
        assert_eq!(ends, want, "{query:?} as {ctx:?}");
    }

    proptest! {
        /// From the empty registry on, through 250 upserts over a hundred
        /// names: the first hundred add a user each, so the row bitset
        /// spans two words; the rest replace rows and kill the old ones
        /// until dead rows outnumber live ones and the table compacts.
        /// After every upsert, random queries and one that no profile can
        /// match count what the hit walk yields, between the same ends.
        #[test]
        fn counting_hits_agrees_with_walking_them(
            words in collection::vec("[akAK ßİΣσςéÉ\u{212a}]{0,4}", 5),
            choices in collection::vec(0u8..=255, 4_000),
        ) {
            const UPSERTS: usize = 250;
            let names: Vec<MailName> = NAMES
                .iter()
                .map(ToString::to_string)
                .chain((NAMES.len()..100).map(|k| format!("r.h.u{k:02}")))
                .map(|n| n.parse().unwrap())
                .collect();
            let mut tape = Tape::new(&choices);
            let mut queries: Vec<(Query, RequesterContext)> = (0..3)
                .map(|_| (tape.query(&words, 0), tape.requester(&words)))
                .collect();
            // No generated word is as long as `nowhere`.
            let nothing = Query::text_eq(AttrKey::City, "nowhere");
            queries.push((nothing, RequesterContext::default()));
            let mut registry = AttributeRegistry::new();
            for (query, ctx) in &queries {
                check_hit_ends(&registry, query, ctx);
            }
            let mut compactions = 0;
            for i in 0..UPSERTS {
                let rows = registry.table.rows;
                // A stride coprime with the hundred names visits each once
                // a round.
                let name = &names[i * 7 % names.len()];
                registry.upsert(name.clone(), tape.profile(&words));
                compactions += usize::from(registry.table.rows <= rows);
                for (query, ctx) in &queries {
                    check_hit_ends(&registry, query, ctx);
                }
            }
            prop_assert!(compactions >= 1, "no compaction");
            prop_assert!(registry.table.live().len() >= 2, "one bitset word");
        }
    }

    /// The rows of `posting`'s entries, in its order.
    fn posted_rows(posting: &Posting) -> Vec<usize> {
        let more = posting.more().iter().map(|e| e.row());
        std::iter::once(posting.first().row()).chain(more).collect()
    }

    /// The dictionary of `key` in `r`'s table.
    fn dictionary<'a>(r: &'a AttributeRegistry, key: &AttrKey) -> &'a Dictionary {
        &r.table
            .column(key)
            .expect("the key has a column")
            .dictionary
    }

    #[test]
    fn case_and_unicode_variants_fold_to_one_value() {
        let mut r = AttributeRegistry::new();
        let variants = ["K", "É", "k", "ß", "\u{212a}", "é", "ẞ", "K"];
        for (i, text) in variants.iter().enumerate() {
            let mut a = AttributeSet::new();
            a.add(AttrKey::City, *text, Visibility::Public);
            r.upsert(format!("r.h.u{i}").parse().unwrap(), a);
        }
        let held = dictionary(&r, &AttrKey::City);
        assert_eq!(held.text, "kéß");
        assert_eq!(held.values.len(), 3);
        let column = r.table.column(&AttrKey::City).unwrap();
        let rows: Vec<Vec<usize>> = column.texts().map(|(_, p)| posted_rows(p)).collect();
        assert_eq!(rows, [vec![0, 2, 4, 7], vec![1, 5], vec![3, 6]]);
        let anon = RequesterContext::default();
        for (text, hits) in [("k", 4), ("\u{212a}", 4), ("É", 2), ("ß", 2)] {
            assert_eq!(
                r.count_matches(&Query::text_eq(AttrKey::City, text), &anon),
                hits,
                "{text}"
            );
        }
    }

    #[test]
    fn ascii_keys_fold_as_their_text_does() {
        for text in [
            "",
            "A",
            "Za",
            "@[`{",
            "MAIL routing",
            "ABCDEFGHIJKLMNOP",
            "xyzXYZ 09",
        ] {
            let lower = text.to_ascii_lowercase();
            assert_eq!(
                ascii_lower(prefix_key(text)),
                prefix_key(&lower),
                "{text:?}"
            );
        }
    }

    /// Ten thousand distinct nicknames in mixed case, half of them longer
    /// than 16 bytes and sharing their first 16 with 49 others, so that
    /// their keys tie and only their bytes tell them apart: the index
    /// doubles past every size on the way, and the registry answers as
    /// the reference evaluator does on every profile.
    #[test]
    fn ten_thousand_distinct_values_answer_as_the_reference() {
        const VALUES: usize = 10_000;
        let nickname = |k: usize| {
            let text = if k.is_multiple_of(2) {
                format!("n{k}")
            } else {
                format!("{:03}-long-prefix-{k}", k / 100)
            };
            if k.is_multiple_of(3) {
                text.to_uppercase()
            } else {
                text
            }
        };
        let mut r = AttributeRegistry::new();
        let mut model = Vec::new();
        for k in 0..VALUES {
            let mut a = AttributeSet::new();
            a.add(AttrKey::Nickname, nickname(k), Visibility::Public);
            // Every value again, in the other case: nothing new is stored.
            a.add(
                AttrKey::Nickname,
                nickname(k).to_lowercase(),
                Visibility::Public,
            );
            let name: MailName = format!("r.h.u{k:05}").parse().unwrap();
            r.upsert(name.clone(), a.clone());
            model.push((name, a));
        }
        let held = dictionary(&r, &AttrKey::Nickname);
        assert_eq!(held.values.len(), VALUES);
        assert_eq!(held.index.len(), (2 * VALUES).next_power_of_two());
        let anon = RequesterContext::default();
        let fuzzy = |query: &str| {
            Query::Attr(
                AttrKey::Nickname,
                Predicate::Fuzzy {
                    query: query.into(),
                    max_edits: 1,
                },
            )
        };
        for query in [
            Query::text_eq(AttrKey::Nickname, "N9990"),
            Query::text_eq(AttrKey::Nickname, "041-LONG-PREFIX-4111"),
            Query::text_eq(AttrKey::Nickname, "004-Long-Prefix-411"),
            fuzzy("041-long-prefix-411"),
            Query::Attr(AttrKey::Nickname, Predicate::Contains("X-99".into())),
            fuzzy("n123"),
            fuzzy("099-long-prefix-990"),
        ] {
            let want: Vec<&MailName> = model
                .iter()
                .filter(|(_, a)| reference::eval(&query, a, &anon, unicode_fold_eq))
                .map(|(name, _)| name)
                .collect();
            assert!(!want.is_empty(), "{query:?} matches nothing");
            assert_eq!(r.search(&query, &anon), want, "{query:?}");
        }
    }

    /// One user whose nickname is new at every upsert: each replaced
    /// row's text goes at the compaction that drops the row, so the
    /// dictionary never holds more than twice the live text.
    #[test]
    fn churn_keeps_the_dictionary_near_the_live_values() {
        let user: MailName = "r.h.churner".parse().unwrap();
        let mut r = AttributeRegistry::new();
        for i in 0..1_000 {
            let nickname = format!("Nick-{i}");
            let mut a = AttributeSet::new();
            a.add(AttrKey::Nickname, nickname.as_str(), Visibility::Public);
            r.upsert(user.clone(), a);
            let held = dictionary(&r, &AttrKey::Nickname);
            assert!(
                held.text.len() <= 2 * nickname.len(),
                "{} bytes held for a live value of {}",
                held.text.len(),
                nickname.len()
            );
            assert!(held.values.len() <= 2);
        }
        let hit = r.search(
            &Query::text_eq(AttrKey::Nickname, "nick-999"),
            &RequesterContext::default(),
        );
        assert_eq!(hit, [&user]);
    }

    /// What a table's postings must be after any upsert: each value's
    /// entries in row order, within the rows; right after a compaction,
    /// every entry's row live and so every value held by a live row.
    fn check_postings(table: &Table, compacted: bool) {
        for column in &table.columns {
            for (text, posting) in column.texts() {
                let rows = posted_rows(posting);
                assert!(rows.is_sorted(), "{text:?} posted out of order: {rows:?}");
                assert!(rows.iter().all(|&r| r < table.rows as usize), "{text:?}");
                if compacted {
                    let dead = rows.iter().find(|&&r| !has(table.live(), r));
                    assert_eq!(dead, None, "{text:?} keeps a dead row");
                }
            }
        }
    }

    /// Postings through replacements and compactions, against the
    /// reference evaluator after every upsert. One value, `boston`, is
    /// held under all three kinds of visibility and twice by every third
    /// row (in two cases and two audiences); a custom key mixes numbers and
    /// texts, one row holding both; every nickname is new each round, so a
    /// compaction has values to drop.
    #[test]
    fn postings_follow_replacements_through_compaction() {
        let names: Vec<MailName> = (0..12)
            .map(|i| format!("r.h.u{i:02}").parse().unwrap())
            .collect();
        let mix = AttrKey::Custom("mix".into());
        let visibility = |k: usize| match k % 3 {
            0 => Visibility::Public,
            1 => Visibility::Organization("DEC".into()),
            _ => Visibility::Private,
        };
        let queries = [
            Query::text_eq(AttrKey::City, "BOSTON"),
            Query::Attr(AttrKey::City, Predicate::Contains("ost".into())),
            Query::Attr(AttrKey::City, Predicate::Exists),
            Query::Attr(mix.clone(), Predicate::Exists),
            Query::Attr(mix.clone(), Predicate::Equals(AttrValue::Number(4))),
            Query::text_eq(mix.clone(), "T1"),
            Query::Attr(mix.clone(), Predicate::InRange { lo: 2, hi: 6 }),
            Query::text_eq(AttrKey::Nickname, "n3-7"),
            Query::Not(Box::new(Query::Attr(mix.clone(), Predicate::Exists))),
        ];
        let requesters = [None, Some("dec"), Some("IBM")].map(|org| RequesterContext {
            organization: org.map(Into::into),
        });
        let mut registry = AttributeRegistry::new();
        let mut model: BTreeMap<MailName, AttributeSet> = BTreeMap::new();
        let mut compactions = 0;
        for round in 0..4 {
            for (i, name) in names.iter().enumerate() {
                let mut a = AttributeSet::new();
                a.add(AttrKey::City, "Boston", visibility(i + round));
                if i.is_multiple_of(3) {
                    a.add(AttrKey::City, "BOSTON", visibility(i + round + 1));
                }
                if i.is_multiple_of(2) {
                    a.add(mix.clone(), (i + round) as i64, visibility(i));
                }
                if !i.is_multiple_of(2) || i.is_multiple_of(5) {
                    a.add(mix.clone(), format!("t{}", i % 3), visibility(i + 1));
                }
                a.add(
                    AttrKey::Nickname,
                    format!("n{round}-{i}"),
                    Visibility::Public,
                );
                let rows = registry.table.rows;
                registry.upsert(name.clone(), a.clone());
                model.insert(name.clone(), a);
                let compacted = registry.table.rows <= rows;
                compactions += usize::from(compacted);
                check_postings(&registry.table, compacted);
                for query in &queries {
                    for ctx in &requesters {
                        let want: Vec<&MailName> = model
                            .iter()
                            .filter(|(_, a)| reference::eval(query, a, ctx, unicode_fold_eq))
                            .map(|(name, _)| name)
                            .collect();
                        assert_eq!(registry.search(query, ctx), want, "{query:?} as {ctx:?}");
                    }
                }
            }
        }
        assert!(compactions >= 2, "{compactions} compactions");
        // One round's nicknames are live; a compaction dropped the rest.
        assert!(dictionary(&registry, &AttrKey::Nickname).values.len() <= 2 * names.len());
    }

    #[test]
    fn compaction_keeps_names_rows_and_text_in_step() {
        let mut r = AttributeRegistry::new();
        let names: Vec<MailName> = NAMES.iter().map(|n| n.parse().unwrap()).collect();
        for round in 0..5 {
            for (i, name) in names.iter().enumerate() {
                let mut a = AttributeSet::new();
                a.add(
                    AttrKey::Nickname,
                    format!("N{round}-{i}"),
                    Visibility::Public,
                );
                a.add(AttrKey::Custom("n".into()), i as i64, Visibility::Private);
                let city = if i.is_multiple_of(2) {
                    "Boston"
                } else {
                    "BOSTON"
                };
                a.add(AttrKey::City, city, Visibility::Public);
                r.upsert(name.clone(), a);
            }
        }
        // Every replacement killed a row; compaction kept the table within
        // twice the live rows, and one value for the city every row holds.
        assert!(r.table.rows as usize <= 2 * names.len());
        assert_eq!(r.names.len(), r.table.rows as usize);
        assert_eq!(dictionary(&r, &AttrKey::City).text, "boston");
        let hit = r.search(
            &Query::text_eq(AttrKey::Nickname, "n4-2"),
            &RequesterContext::default(),
        );
        assert_eq!(hit, [&names[2]]);
    }
}
