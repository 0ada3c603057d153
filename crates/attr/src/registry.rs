//! Per-server attribute registries.
//!
//! Each mail server holds the attribute profiles of the users it is an
//! authority for (the same partitioning as the name database of §2);
//! attribute searches fan out across servers via the MST and each server
//! answers from its local registry.
//!
//! A registry is stored the way a search reads it (DESIGN.md §17). Its
//! `Table` keeps one column per attribute key: a run of 16-byte cells,
//! each naming its row, who may see it, and either the span of its
//! lowercased text in one arena or its number. A predicate is one pass
//! over one key's cells, with nothing to fold and no profile to reach
//! through a pointer; a query turns a table into a bitset of rows
//! (`PreparedQuery::eval`), and the name index turns the set bits into
//! users, in name order.

use std::mem;
use std::ops::Range;

use lems_core::name::MailName;

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

/// One stored value as a search reads it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Cell {
    row: u32,
    /// The audience, shifted left once; the low bit is set for a number.
    tag: u32,
    /// A number's bits, or the span of a text's lowercase form in the
    /// arena: start in the high half, end in the low.
    data: u64,
}

/// A text cell's `data`.
fn span_bits(span: Range<usize>) -> u64 {
    (span.start as u64) << 32 | span.end as u64
}

impl Cell {
    fn of_text(row: u32, audience: u32, span: Range<usize>) -> Self {
        Cell {
            row,
            tag: audience << 1,
            data: span_bits(span),
        }
    }

    fn of_number(row: u32, audience: u32, n: i64) -> Self {
        Cell {
            row,
            tag: audience << 1 | 1,
            data: n as u64,
        }
    }

    pub(crate) fn row(self) -> usize {
        self.row as usize
    }

    /// Index of this cell's audience in what [`Table::audiences`] writes.
    pub(crate) fn audience(self) -> usize {
        (self.tag >> 1) as usize
    }

    pub(crate) fn as_number(self) -> Option<i64> {
        (self.tag & 1 == 1).then_some(self.data as i64)
    }

    /// The lowercased text, if this is a text cell of a table whose arena
    /// is `arena`.
    pub(crate) fn as_text(self, arena: &str) -> Option<&str> {
        (self.tag & 1 == 0).then(|| &arena[(self.data >> 32) as usize..self.data as u32 as usize])
    }
}

/// All values stored under one key.
#[derive(Clone, Debug)]
pub(crate) struct Column {
    key: AttrKey,
    /// In row order; a row's cells in the order its values were added.
    cells: Vec<Cell>,
}

impl Column {
    pub(crate) fn cells(&self) -> &[Cell] {
        &self.cells
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
    /// The lowercase form of every stored text, end to end.
    arena: String,
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
    /// is its lowercase form, copied into the arena.
    ///
    /// # Panics
    ///
    /// If the arena would pass 4 GiB or the rows 2³² − 1.
    pub(crate) fn push(&mut self, attrs: AttributeSet) -> u32 {
        let row = self.rows;
        // A profile's texts are usually all ASCII: then they are checked
        // and lowercased together, in one pass each, and as folding ASCII
        // keeps every length, each span follows from the last. Otherwise
        // each text is folded on its own below.
        let first = self.arena.len();
        for text in attrs.texts() {
            self.arena.push_str(text);
        }
        let ascii = self.arena[first..].is_ascii();
        if ascii {
            self.arena[first..].make_ascii_lowercase();
        } else {
            self.arena.truncate(first);
        }
        let mut next = first;
        // The entries come in key order, as the columns are kept: each
        // entry's column is at or after the previous entry's.
        let mut at = 0;
        for (key, Attribute { value, visibility }) in attrs.into_entries() {
            let audience = self.organizations.audience(visibility);
            let cell = match &value {
                AttrValue::Text(text) => {
                    let span = if ascii {
                        next..next + text.len()
                    } else {
                        let start = self.arena.len();
                        push_lower(text, &mut self.arena);
                        start..self.arena.len()
                    };
                    next = span.end;
                    Cell::of_text(row, audience, span)
                }
                AttrValue::Number(n) => Cell::of_number(row, audience, *n),
            };
            while self.columns.get(at).is_some_and(|c| c.key < key) {
                at += 1;
            }
            if self.columns.get(at).is_none_or(|c| c.key != key) {
                let column = Column {
                    key,
                    cells: Vec::new(),
                };
                self.columns.insert(at, column);
            }
            self.columns[at].cells.push(cell);
        }
        assert!(
            u32::try_from(self.arena.len()).is_ok() && row < DROPPED,
            "an attribute registry holds at most 4 GiB of text in 2³² − 1 rows"
        );
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

    /// The text every text cell's span points into.
    pub(crate) fn arena(&self) -> &str {
        &self.arena
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

    /// Drops the dead rows, their cells and their text, and renumbers the
    /// live rows in order. Returns each old row's new number, or
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
        let mut arena = String::new();
        for column in &mut self.columns {
            for cell in mem::take(&mut column.cells) {
                let row = renumber[cell.row()];
                if row == DROPPED {
                    continue;
                }
                let mut cell = Cell { row, ..cell };
                if let Some(text) = cell.as_text(&self.arena) {
                    let start = arena.len();
                    arena.push_str(text);
                    cell.data = span_bits(start..arena.len());
                }
                column.cells.push(cell);
            }
        }
        self.columns.retain(|c| !c.cells.is_empty());
        self.arena = arena;
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
    /// If the registry's lowercased text would pass 4 GiB.
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

    /// Users whose visible attributes satisfy `query`, in name order.
    pub fn search(&self, query: &Query, ctx: &RequesterContext) -> Vec<&MailName> {
        let mut scratch = Scratch::default();
        self.hits(&PreparedQuery::new(query, ctx), &mut scratch)
            .collect()
    }

    /// Number of matches only (what convergecast summaries carry).
    pub fn count_matches(&self, query: &Query, ctx: &RequesterContext) -> u64 {
        let mut scratch = Scratch::default();
        let rows = PreparedQuery::new(query, ctx).eval(&self.table, &mut scratch);
        rows.iter().map(|w| u64::from(w.count_ones())).sum()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;
    use crate::fuzzy::reference::unicode_fold_eq;
    use crate::query::reference;
    use crate::query::tape::Tape;

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
                r.upsert(name.clone(), a);
            }
        }
        // Every replacement killed a row; compaction kept the table within
        // twice the live rows.
        assert!(r.table.rows as usize <= 2 * names.len());
        assert_eq!(r.names.len(), r.table.rows as usize);
        let hit = r.search(
            &Query::text_eq(AttrKey::Nickname, "n4-2"),
            &RequesterContext::default(),
        );
        assert_eq!(hit, [&names[2]]);
    }
}
