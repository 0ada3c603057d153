//! The attribute query language.
//!
//! Queries identify "one or more mail recipients by attributes instead of
//! only by precise names" (abstract). A query is a small boolean AST over
//! attribute predicates; evaluation respects per-attribute visibility and
//! supports fuzzy name predicates for the directory-lookup application.

use crate::attribute::{AttrKey, AttrValue, AttributeSet, Requester, RequesterContext};
use crate::fuzzy::{Block, Needle};
use crate::registry::{Column, Entry, Table};

/// A predicate over one attribute key.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Predicate {
    /// Text equals (case-insensitive) or number equals.
    Equals(AttrValue),
    /// Text contains the given (case-insensitive) substring.
    Contains(String),
    /// Text matches with spelling/phonetic tolerance.
    Fuzzy {
        /// The (possibly misspelled) query string.
        query: String,
        /// Spelling errors tolerated before phonetic fallback.
        max_edits: usize,
    },
    /// Number lies in `[lo, hi]` (inclusive).
    InRange {
        /// Lower bound.
        lo: i64,
        /// Upper bound.
        hi: i64,
    },
    /// The key merely exists (with any visible value).
    Exists,
}

/// A boolean query over attributes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Query {
    /// A predicate on one key: satisfied if *any* visible value matches.
    Attr(AttrKey, Predicate),
    /// All sub-queries must hold.
    All(Vec<Query>),
    /// At least one sub-query must hold.
    Any(Vec<Query>),
    /// The sub-query must not hold.
    Not(Box<Query>),
}

impl Query {
    /// Convenience: `key == text`.
    pub fn text_eq(key: AttrKey, text: &str) -> Query {
        Query::Attr(key, Predicate::Equals(text.into()))
    }

    /// Convenience: fuzzy name lookup across first/last/nick/misspelling.
    pub fn name_like(query: &str, max_edits: usize) -> Query {
        let p = |k: AttrKey| {
            Query::Attr(
                k,
                Predicate::Fuzzy {
                    query: query.to_owned(),
                    max_edits,
                },
            )
        };
        Query::Any(vec![
            p(AttrKey::FirstName),
            p(AttrKey::LastName),
            p(AttrKey::Nickname),
            p(AttrKey::Misspelling),
        ])
    }

    /// Evaluates the query against one user's attributes, as seen by
    /// `ctx` (invisible attributes are as if absent): the evaluator
    /// [`AttributeRegistry::search`] runs, over a registry of this one
    /// profile.
    ///
    /// [`AttributeRegistry::search`]: crate::registry::AttributeRegistry::search
    ///
    /// # Examples
    ///
    /// ```
    /// use lems_attr::attribute::{AttrKey, AttributeSet, RequesterContext, Visibility};
    /// use lems_attr::query::{Predicate, Query};
    ///
    /// let mut a = AttributeSet::new();
    /// a.add(AttrKey::Expertise, "electronic mail", Visibility::Public);
    /// let q = Query::Attr(AttrKey::Expertise, Predicate::Contains("mail".into()));
    /// assert!(q.eval(&a, &RequesterContext::default()));
    /// ```
    pub fn eval(&self, attrs: &AttributeSet, ctx: &RequesterContext) -> bool {
        let mut table = Table::default();
        table.push(attrs.clone());
        let mut scratch = Scratch::default();
        let rows = PreparedQuery::new(self, ctx).eval(&table, &mut scratch);
        rows.first().is_some_and(|w| w & 1 == 1)
    }

    /// Number of predicate leaves (a crude cost measure for the
    /// flow-control estimate).
    pub(crate) fn leaf_count(&self) -> usize {
        match self {
            Query::Attr(..) => 1,
            Query::All(qs) | Query::Any(qs) => qs.iter().map(Query::leaf_count).sum(),
            Query::Not(q) => q.leaf_count(),
        }
    }
}

/// A [`Predicate`] with its query side folded as the stored text is: all
/// three text predicates compare `str::to_lowercase` forms.
#[derive(Debug)]
enum PreparedPredicate {
    /// Holds the lowercased text.
    EqualsText(String),
    EqualsNumber(i64),
    Contains(Substring),
    Fuzzy(Needle),
    InRange {
        lo: i64,
        hi: i64,
    },
    Exists,
}

impl PreparedPredicate {
    fn new(predicate: &Predicate) -> Self {
        match predicate {
            Predicate::Equals(AttrValue::Text(want)) => Self::EqualsText(want.to_lowercase()),
            Predicate::Equals(AttrValue::Number(want)) => Self::EqualsNumber(*want),
            Predicate::Contains(sub) => Self::Contains(Substring::new(&sub.to_lowercase())),
            Predicate::Fuzzy { query, max_edits } => Self::Fuzzy(Needle::new(query, *max_edits)),
            Predicate::InRange { lo, hi } => Self::InRange { lo: *lo, hi: *hi },
            Predicate::Exists => Self::Exists,
        }
    }

    /// Sets in `out` the row of every cell of `column` the requester sees
    /// and this predicate holds for. A text predicate never matches a
    /// number, nor a numeric one text.
    fn mark(&self, column: &Column, pass: &mut Pass<'_>, out: &mut [u64]) {
        let Pass {
            visible, columns, ..
        } = pass;
        match self {
            Self::Exists => {
                mark(column, visible, out, |_| true);
                judge(column, visible, out, |_| true);
            }
            Self::EqualsNumber(want) => mark(column, visible, out, |n| n == *want),
            Self::InRange { lo, hi } => mark(column, visible, out, |n| (*lo..=*hi).contains(&n)),
            Self::EqualsText(want) => judge(column, visible, out, |t| t == want),
            Self::Contains(sub) => judge(column, visible, out, |t| sub.is_in(t)),
            Self::Fuzzy(needle) => judge(column, visible, out, |t| {
                needle.quality(t, t, columns).is_match()
            }),
        }
    }
}

/// A substring search prepared once: the lowercased needle's bytes with
/// their Knuth–Morris–Pratt failure links. [`Substring::is_in`] reads each
/// byte of a text once and follows at most as many links as it has read,
/// so a cell costs time linear in its length whatever the texts are —
/// which `str::contains` also guarantees, but by building a Two-Way
/// searcher per call.
#[derive(Debug)]
struct Substring {
    /// Per byte `needle[i]`: the byte, and the length of the longest proper
    /// prefix of `needle[..=i]` that is also its suffix.
    steps: Vec<(u8, usize)>,
}

impl Substring {
    fn new(needle: &str) -> Self {
        let bytes = needle.as_bytes();
        let mut steps: Vec<(u8, usize)> = Vec::with_capacity(bytes.len());
        let mut k = 0;
        for (i, &b) in bytes.iter().enumerate() {
            if i > 0 {
                while k > 0 && bytes[k] != b {
                    k = steps[k - 1].1;
                }
                if bytes[k] == b {
                    k += 1;
                }
            }
            steps.push((b, k));
        }
        Substring { steps }
    }

    /// Whether the needle occurs in `text`, byte for byte (a UTF-8 needle
    /// can only match a text at a character boundary).
    fn is_in(&self, text: &str) -> bool {
        let steps = &self.steps;
        let Some(&(first, _)) = steps.first() else {
            return true;
        };
        let mut bytes = text.as_bytes().iter();
        // The first `k` bytes of the needle end where the text has got to.
        let mut k = 0;
        loop {
            if k == 0 {
                // Nothing matched: on to the next byte that starts the needle.
                if bytes.position(|&b| b == first).is_none() {
                    return false;
                }
                k = 1;
            } else {
                let Some(&b) = bytes.next() else {
                    return false;
                };
                while k > 0 && steps[k].0 != b {
                    k = steps[k - 1].1;
                }
                if steps[k].0 == b {
                    k += 1;
                }
            }
            if k == steps.len() {
                return true;
            }
        }
    }
}

/// A number predicate: one pass over the number cells of `column`.
fn mark(column: &Column, visible: &[bool], out: &mut [u64], holds: impl Fn(i64) -> bool) {
    for &cell in column.cells() {
        if visible[cell.audience()] && holds(cell.number()) {
            set(out, cell.row());
        }
    }
}

/// A text predicate: `holds` is judged once per distinct text of `column`,
/// and the posting of each text it holds for is read, no other.
fn judge(column: &Column, visible: &[bool], out: &mut [u64], mut holds: impl FnMut(&str) -> bool) {
    let mut post = |entry: Entry| {
        if visible[entry.audience()] {
            set(out, entry.row());
        }
    };
    for (text, posting) in column.texts() {
        if holds(text) {
            post(posting.first());
            for &entry in posting.more() {
                post(entry);
            }
        }
    }
}

/// Sets bit `row` of `out`.
fn set(out: &mut [u64], row: usize) {
    out[row / 64] |= 1 << (row % 64);
}

/// The buffers one evaluation reuses from registry to registry: after the
/// largest registry a search allocates nothing more for them. A text
/// predicate needs none of its own: it judges each distinct value of a
/// column and reads the postings of those it holds for straight into the
/// row bitset.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// One row bitset per level of the query, end to end.
    rows: Vec<u64>,
    /// Per audience of the registry at hand, whether the requester sees
    /// it.
    visible: Vec<bool>,
    /// The edit-distance kernel's state below its first 64 rows: a block
    /// per further 64 characters of the longest fuzzy query.
    columns: Vec<Block>,
}

/// A [`Query`] and its requester readied for a pass over many registries:
/// every needle lowercased, every substring's failure links and every
/// fuzzy query's match masks and Soundex code computed, and the
/// requester's organization folded, all once.
#[derive(Debug)]
pub(crate) struct PreparedQuery<'q> {
    root: Node<'q>,
    requester: Requester,
    /// How many row bitsets an evaluation holds at once.
    depth: usize,
}

#[derive(Debug)]
enum Node<'q> {
    Attr(&'q AttrKey, PreparedPredicate),
    All(Vec<Node<'q>>),
    Any(Vec<Node<'q>>),
    Not(Box<Node<'q>>),
}

/// What a node reads besides its bitsets.
struct Pass<'a> {
    table: &'a Table,
    visible: &'a [bool],
    columns: &'a mut Vec<Block>,
}

impl<'q> Node<'q> {
    fn new(query: &'q Query) -> Self {
        match query {
            Query::Attr(key, predicate) => Node::Attr(key, PreparedPredicate::new(predicate)),
            Query::All(qs) => Node::All(qs.iter().map(Node::new).collect()),
            Query::Any(qs) => Node::Any(qs.iter().map(Node::new).collect()),
            Query::Not(q) => Node::Not(Box::new(Node::new(q))),
        }
    }

    fn depth(&self) -> usize {
        match self {
            Node::Attr(..) => 1,
            Node::All(nodes) | Node::Any(nodes) => {
                1 + nodes.iter().map(Node::depth).max().unwrap_or(0)
            }
            Node::Not(node) => node.depth(),
        }
    }

    /// Writes the rows that satisfy this node into the first `words` of
    /// `rows`, using the rest for its children. Dead rows and the bits past
    /// the last row may come out either way; the root masks them.
    fn eval(&self, pass: &mut Pass<'_>, rows: &mut [u64], words: usize) {
        match self {
            Node::Attr(key, predicate) => {
                let out = &mut rows[..words];
                out.fill(0);
                if let Some(column) = pass.table.column(key) {
                    predicate.mark(column, pass, out);
                }
            }
            Node::All(nodes) => combine(nodes, pass, rows, words, !0, |w, b| *w &= b),
            Node::Any(nodes) => combine(nodes, pass, rows, words, 0, |w, b| *w |= b),
            Node::Not(node) => {
                node.eval(pass, rows, words);
                for w in &mut rows[..words] {
                    *w = !*w;
                }
            }
        }
    }
}

/// `All` and `Any`: starting from `empty` (what they are without
/// children), folds every child's rows in with `op`.
fn combine(
    nodes: &[Node<'_>],
    pass: &mut Pass<'_>,
    rows: &mut [u64],
    words: usize,
    empty: u64,
    op: fn(&mut u64, u64),
) {
    let (out, below) = rows.split_at_mut(words);
    out.fill(empty);
    for node in nodes {
        node.eval(pass, below, words);
        for (w, &b) in out.iter_mut().zip(&*below) {
            op(w, b);
        }
    }
}

impl<'q> PreparedQuery<'q> {
    pub(crate) fn new(query: &'q Query, ctx: &RequesterContext) -> Self {
        let root = Node::new(query);
        PreparedQuery {
            depth: root.depth(),
            root,
            requester: Requester::new(ctx),
        }
    }

    /// The rows of `table` whose visible attributes satisfy the query, one
    /// bit each (bit `r % 64` of word `r / 64`), dead rows clear.
    pub(crate) fn eval<'s>(&self, table: &Table, scratch: &'s mut Scratch) -> &'s [u64] {
        let live = table.live();
        let words = live.len();
        let Scratch {
            rows,
            visible,
            columns,
        } = scratch;
        // Every node fills its own bitset before it is read.
        rows.resize(self.depth * words, 0);
        table.audiences(&self.requester, visible);
        let mut pass = Pass {
            table,
            visible,
            columns,
        };
        self.root.eval(&mut pass, rows, words);
        for (w, &l) in rows.iter_mut().zip(live) {
            *w &= l;
        }
        &rows[..words]
    }
}

/// The evaluator as it stood before [`PreparedQuery`]: a walk of one
/// profile's attributes, a fresh lowercase copy of every value and needle
/// per comparison, `fuzzy::classify` per fuzzy value, two folded
/// organizations per restricted attribute. Kept as the oracle the column
/// evaluator is held to.
#[cfg(test)]
pub(crate) mod reference {
    use super::{Predicate, Query};
    use crate::attribute::{AttrValue, AttributeSet, RequesterContext, Visibility};
    use crate::fuzzy::reference::classify;
    pub(crate) use crate::fuzzy::reference::{ascii_fold_eq, unicode_fold_eq, TextEq};
    use crate::fuzzy::MatchQuality;

    fn matches(predicate: &Predicate, value: &AttrValue, text_eq: TextEq) -> bool {
        match predicate {
            Predicate::Equals(want) => match (want, value) {
                (AttrValue::Text(a), AttrValue::Text(b)) => text_eq(a, b),
                (AttrValue::Number(a), AttrValue::Number(b)) => a == b,
                _ => false,
            },
            Predicate::Contains(sub) => value
                .as_text_lower()
                .is_some_and(|t| t.contains(&sub.to_lowercase())),
            Predicate::Fuzzy { query, max_edits } => value
                .as_text_lower()
                .is_some_and(|t| classify(query, &t, *max_edits, text_eq) != MatchQuality::None),
            Predicate::InRange { lo, hi } => {
                matches!(value, AttrValue::Number(n) if n >= lo && n <= hi)
            }
            Predicate::Exists => true,
        }
    }

    fn allows(visibility: &Visibility, ctx: &RequesterContext) -> bool {
        match visibility {
            Visibility::Public => true,
            Visibility::Organization(org) => {
                ctx.organization.as_deref().map(str::to_lowercase) == Some(org.to_lowercase())
            }
            Visibility::Private => false,
        }
    }

    /// Whether `attrs` satisfies `q` as seen by `ctx`, with `Equals` and
    /// the fuzzy exact tier comparing texts by `text_eq`.
    pub(crate) fn eval(
        q: &Query,
        attrs: &AttributeSet,
        ctx: &RequesterContext,
        text_eq: TextEq,
    ) -> bool {
        match q {
            Query::Attr(key, predicate) => attrs
                .values(key)
                .filter(|a| allows(&a.visibility, ctx))
                .any(|a| matches(predicate, &a.value, text_eq)),
            Query::All(qs) => qs.iter().all(|q| eval(q, attrs, ctx, text_eq)),
            Query::Any(qs) => qs.iter().any(|q| eval(q, attrs, ctx, text_eq)),
            Query::Not(q) => !eval(q, attrs, ctx, text_eq),
        }
    }
}

/// Generators for the differential tests here and in `registry`: a byte
/// string read as a sequence of choices, over a few words so predicates
/// do hit.
#[cfg(test)]
pub(crate) mod tape {
    use super::{Predicate, Query};
    use crate::attribute::{AttrKey, AttrValue, AttributeSet, RequesterContext, Visibility};

    /// Reads a generated byte string as a sequence of choices.
    pub(crate) struct Tape<'a>(std::slice::Iter<'a, u8>);

    impl<'a> Tape<'a> {
        pub(crate) fn new(choices: &'a [u8]) -> Self {
            Tape(choices.iter())
        }

        /// True once every choice has been read.
        pub(crate) fn is_empty(&self) -> bool {
            self.0.len() == 0
        }

        /// The next choice among `n` (the first, once the tape runs out).
        pub(crate) fn pick(&mut self, n: usize) -> usize {
            self.0.next().map_or(0, |&b| usize::from(b) % n)
        }

        fn word(&mut self, words: &[String]) -> String {
            let word = &words[self.pick(words.len())];
            match self.pick(3) {
                0 => word.clone(),
                1 => word.to_uppercase(),
                _ => word.to_lowercase(),
            }
        }

        fn key(&mut self) -> AttrKey {
            match self.pick(4) {
                0 => AttrKey::FirstName,
                1 => AttrKey::Nickname,
                2 => AttrKey::City,
                _ => AttrKey::Custom("x".into()),
            }
        }

        fn value(&mut self, words: &[String]) -> AttrValue {
            match self.pick(4) {
                0 => AttrValue::Number(self.pick(4) as i64),
                _ => AttrValue::Text(self.word(words)),
            }
        }

        /// Multi-valued keys, every kind of visibility.
        pub(crate) fn profile(&mut self, words: &[String]) -> AttributeSet {
            let mut attrs = AttributeSet::new();
            for _ in 0..self.pick(7) {
                let visibility = match self.pick(4) {
                    0 => Visibility::Private,
                    1 => Visibility::Organization(self.word(words)),
                    _ => Visibility::Public,
                };
                attrs.add(self.key(), self.value(words), visibility);
            }
            attrs
        }

        pub(crate) fn requester(&mut self, words: &[String]) -> RequesterContext {
            RequesterContext {
                organization: (self.pick(3) > 0).then(|| self.word(words)),
            }
        }

        pub(crate) fn query(&mut self, words: &[String], depth: usize) -> Query {
            let children = |tape: &mut Self| {
                (0..tape.pick(4))
                    .map(|_| tape.query(words, depth + 1))
                    .collect()
            };
            match self.pick(if depth < 3 { 8 } else { 5 }) {
                0 => Query::Attr(self.key(), Predicate::Equals(self.value(words))),
                1 => Query::Attr(self.key(), Predicate::Contains(self.word(words))),
                2 => Query::Attr(
                    self.key(),
                    Predicate::Fuzzy {
                        query: self.word(words),
                        max_edits: self.pick(4),
                    },
                ),
                3 => {
                    let lo = self.pick(4) as i64;
                    let hi = lo + self.pick(3) as i64 - 1;
                    Query::Attr(self.key(), Predicate::InRange { lo, hi })
                }
                4 => Query::Attr(self.key(), Predicate::Exists),
                5 => Query::All(children(self)),
                6 => Query::Any(children(self)),
                _ => Query::Not(Box::new(self.query(words, depth + 1))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::tape::Tape;
    use super::*;
    use crate::attribute::Visibility;
    use crate::registry::has;
    use proptest::prelude::*;

    fn profile() -> AttributeSet {
        let mut a = AttributeSet::new();
        a.add(AttrKey::FirstName, "Wael", Visibility::Public);
        a.add(AttrKey::LastName, "Hidal", Visibility::Public);
        a.add(AttrKey::Misspelling, "Waiel", Visibility::Public);
        a.add(AttrKey::Organization, "DEC", Visibility::Public);
        a.add(
            AttrKey::Expertise,
            "electronic mail systems",
            Visibility::Public,
        );
        a.add(
            AttrKey::Custom("experience-years".into()),
            12i64,
            Visibility::Public,
        );
        a.add(AttrKey::Interest, "opera", Visibility::Private);
        a
    }

    fn anon() -> RequesterContext {
        RequesterContext::default()
    }

    #[test]
    fn equals_and_contains() {
        let p = profile();
        assert!(Query::text_eq(AttrKey::Organization, "dec").eval(&p, &anon()));
        assert!(!Query::text_eq(AttrKey::Organization, "ibm").eval(&p, &anon()));
        assert!(
            Query::Attr(AttrKey::Expertise, Predicate::Contains("MAIL".into())).eval(&p, &anon())
        );
    }

    #[test]
    fn fuzzy_name_lookup_matches_misspellings() {
        let p = profile();
        // One edit away from the registered first name.
        assert!(Query::name_like("Wail", 1).eval(&p, &anon()));
        // Matches the registered misspelling exactly.
        assert!(Query::name_like("Waiel", 0).eval(&p, &anon()));
        assert!(!Query::name_like("Zorro", 1).eval(&p, &anon()));
    }

    #[test]
    fn numeric_ranges() {
        let p = profile();
        let key = AttrKey::Custom("experience-years".into());
        assert!(Query::Attr(key.clone(), Predicate::InRange { lo: 10, hi: 20 }).eval(&p, &anon()));
        assert!(!Query::Attr(key, Predicate::InRange { lo: 0, hi: 5 }).eval(&p, &anon()));
    }

    #[test]
    fn boolean_composition() {
        let p = profile();
        let q = Query::All(vec![
            Query::text_eq(AttrKey::Organization, "DEC"),
            Query::Not(Box::new(Query::text_eq(AttrKey::LastName, "Yuen"))),
        ]);
        assert!(q.eval(&p, &anon()));
        assert_eq!(q.leaf_count(), 2);
    }

    #[test]
    fn private_attributes_invisible_to_queries() {
        let p = profile();
        let q = Query::Attr(AttrKey::Interest, Predicate::Exists);
        assert!(!q.eval(&p, &anon()), "private interest must not match");
    }

    #[test]
    fn exists_predicate() {
        let p = profile();
        assert!(Query::Attr(AttrKey::Expertise, Predicate::Exists).eval(&p, &anon()));
        assert!(!Query::Attr(AttrKey::City, Predicate::Exists).eval(&p, &anon()));
    }

    #[test]
    fn equals_folds_case_as_contains_and_fuzzy_do() {
        let mut school = AttributeSet::new();
        school.add(AttrKey::Organization, "ÉCOLE", Visibility::Public);
        let equals = Query::text_eq(AttrKey::Organization, "école");
        let contains = Query::Attr(AttrKey::Organization, Predicate::Contains("école".into()));
        let fuzzy = Query::Attr(
            AttrKey::Organization,
            Predicate::Fuzzy {
                query: "école".into(),
                max_edits: 0,
            },
        );
        for q in [&equals, &contains, &fuzzy] {
            assert!(q.eval(&school, &anon()), "{q:?}");
        }
        // The evaluator this one replaced folded ASCII only, and only here.
        assert!(!reference::eval(
            &equals,
            &school,
            &anon(),
            reference::ascii_fold_eq
        ));
        assert!(reference::eval(
            &contains,
            &school,
            &anon(),
            reference::ascii_fold_eq
        ));
    }

    /// One generated case: a query and a requester against four profiles,
    /// all drawing on the same few words so that predicates do hit. The
    /// column evaluator must answer as `reference::eval` does with
    /// `text_eq` for `Equals`: on each profile alone, and on a table that
    /// grows by one profile per evaluation through one reused scratch.
    fn check_against_reference(words: &[String], choices: &[u8], text_eq: reference::TextEq) {
        let mut tape = Tape::new(choices);
        let query = tape.query(words, 0);
        let ctx = tape.requester(words);
        let prepared = PreparedQuery::new(&query, &ctx);
        let mut reused = Scratch::default();
        let mut table = Table::default();
        let mut wants = Vec::new();
        for _ in 0..4 {
            let profile = tape.profile(words);
            let want = reference::eval(&query, &profile, &ctx, text_eq);
            assert_eq!(
                query.eval(&profile, &ctx),
                want,
                "one row: {query:?} as {ctx:?} on {profile:?}"
            );
            table.push(profile);
            wants.push(want);
            let rows = prepared.eval(&table, &mut reused);
            let got: Vec<bool> = (0..wants.len()).map(|r| has(rows, r)).collect();
            assert_eq!(got, wants, "{} rows: {query:?} as {ctx:?}", wants.len());
            assert_eq!(rows[0] >> wants.len(), 0, "bits past the last row");
        }
    }

    proptest! {
        /// On every text — `ß` and `İ` lowercase to two characters, `Σ` by
        /// its neighbours, the Kelvin sign to ASCII `k` — the column
        /// evaluator is the old one with `Equals` folding as `Contains`
        /// and `Fuzzy` always did.
        #[test]
        fn prepared_evaluation_is_the_reference_evaluation(
            words in collection::vec("[akAK ßİΣσςéÉ\u{212a}]{0,4}", 5),
            choices in collection::vec(0u8..=255, 96),
        ) {
            check_against_reference(&words, &choices, reference::unicode_fold_eq);
        }

        /// The prepared substring search is `str::contains`, over a
        /// two-letter alphabet where a needle's prefixes overlap its
        /// suffixes and a partial match has to fall back along them, and
        /// over two-byte characters.
        #[test]
        fn the_substring_search_is_str_contains(
            needle in "[ab]{0,7}",
            texts in collection::vec("[ab]{0,24}", 1..8),
            wide in "[aé]{0,4}",
            wide_text in "[aéb]{0,12}",
        ) {
            let sub = Substring::new(&needle);
            for text in &texts {
                prop_assert_eq!(sub.is_in(text), text.contains(&needle), "{:?} in {:?}", needle, text);
            }
            prop_assert_eq!(Substring::new(&wide).is_in(&wide_text), wide_text.contains(&wide));
        }

        /// On ASCII text the two notions of case are one: the column
        /// evaluator is the old one, unchanged.
        #[test]
        fn on_ascii_text_no_answer_moved(
            words in collection::vec("[abAB 1]{0,4}", 5),
            choices in collection::vec(0u8..=255, 96),
        ) {
            check_against_reference(&words, &choices, reference::ascii_fold_eq);
        }
    }
}
