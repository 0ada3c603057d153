//! Approximate name matching for directory lookup (§3.3, application i).
//!
//! "People do not always remember the exact spelling of the full
//! electronic mail addresses … Misspelling occurs so often that the system
//! fails to recognize them and services cannot be provided. In
//! attribute-based mail system, users are allowed to provide aliases,
//! nicknames or some possible misspellings of the names."
//!
//! Two matchers: bounded Levenshtein edit distance, and the classic
//! Soundex phonetic code (mail-era technology, fitting the paper's
//! vintage).
//!
//! Each matcher has one kernel: `Pattern::distance`, bit-parallel over
//! the query's characters in 64-row blocks, and `soundex_bytes`, which
//! produces a code a byte at a time. A search evaluates a `Needle` — the
//! query side, its match masks and Soundex code prepared once — against
//! hundreds of thousands of stored values through one reused column
//! state, and stops comparing Soundex codes at the first byte that
//! differs; the public [`edit_distance`] and [`soundex`] are the same
//! kernels behind throw-away buffers.

/// Appends `s.to_lowercase()` to `out`.
pub(crate) fn push_lower(s: &str, out: &mut String) {
    if s.is_ascii() {
        let start = out.len();
        out.push_str(s);
        out[start..].make_ascii_lowercase();
    } else if s.contains('Σ') {
        // Final sigma is the one mapping that depends on the neighbouring
        // characters, and the tables that decide it are private to std.
        out.push_str(&s.to_lowercase());
    } else {
        out.extend(s.chars().flat_map(char::to_lowercase));
    }
}

/// Rows in one block of the edit-distance kernel: one bit each of a `u64`.
const BLOCK: usize = 64;

/// The characters of an edit-distance pattern as Myers' match masks
/// (`Peq`): per character `c` and per 64-row block of the pattern, the bits
/// of the rows that hold `c`. What [`Pattern::distance`] reads per text
/// character is one row of `blocks` words.
#[derive(Debug)]
struct Pattern {
    /// Characters in the pattern: the rows of the table.
    len: usize,
    /// ⌈`len` / 64⌉.
    blocks: usize,
    /// The bit of the pattern's last row in its block.
    last_row: u64,
    /// `blocks` words per character: the 128 ASCII ones by code point,
    /// then one per entry of `wide`, then a zero row for every other
    /// character.
    masks: Vec<u64>,
    /// The pattern's non-ASCII characters, sorted, each once.
    wide: Vec<char>,
}

impl Pattern {
    /// The masks of `pattern`'s characters, as given (callers fold case
    /// first).
    fn new(pattern: &str) -> Self {
        let mut wide: Vec<char> = pattern.chars().filter(|c| !c.is_ascii()).collect();
        wide.sort_unstable();
        wide.dedup();
        let len = pattern.chars().count();
        let blocks = len.div_ceil(BLOCK);
        let mut this = Pattern {
            len,
            blocks,
            last_row: 1 << ((len + BLOCK - 1) % BLOCK),
            masks: vec![0; (128 + wide.len() + 1) * blocks],
            wide,
        };
        for (i, c) in pattern.chars().enumerate() {
            let row = this.row(c);
            this.masks[row * blocks + i / BLOCK] |= 1 << (i % BLOCK);
        }
        this
    }

    /// The row of `masks` that holds `c`'s bits.
    fn row(&self, c: char) -> usize {
        if c.is_ascii() {
            return c as usize;
        }
        128 + self.wide.binary_search(&c).unwrap_or(self.wide.len())
    }

    /// Levenshtein distance between the pattern and the characters of
    /// `text`, exactly as given (callers fold case first) — or, once the
    /// distance is known to exceed `limit`, some lower bound of it that
    /// does. The bit-parallel kernel of Myers (JACM 1999) in Hyyrö's form
    /// for the distance between whole strings (2003), blocked so that any
    /// pattern length runs through it: O(⌈|pattern|/64⌉·|text|) word
    /// operations. The first block's state is held in locals and the
    /// others' in `columns`, so for a pattern of up to 64 characters a text
    /// character costs one load of its mask and a dozen word operations.
    fn distance(&self, text: &str, limit: usize, columns: &mut Vec<Block>) -> usize {
        if self.len == 0 {
            return text.chars().count();
        }
        // A text has at most as many characters as bytes, so its bytes
        // bound below what is left of the distance.
        let bytes = text.as_bytes();
        if bytes.len().saturating_add(limit) < self.len {
            return self.len - bytes.len();
        }
        columns.clear();
        columns.resize(self.blocks - 1, Block::LEFT_EDGE);
        let mut first = Block::LEFT_EDGE;
        let last_of = |b: usize| {
            if b + 1 == self.blocks {
                self.last_row
            } else {
                1 << (BLOCK - 1)
            }
        };
        let first_last = last_of(0);
        // The last row, D[len][j]: `len` at the left edge.
        let mut score = self.len;
        let mut at = 0;
        while let Some(&byte) = bytes.get(at) {
            let row = if byte.is_ascii() {
                at += 1;
                usize::from(byte)
            } else {
                let Some(c) = text[at..].chars().next() else {
                    break;
                };
                at += c.len_utf8();
                self.row(c)
            };
            let eq = &self.masks[row * self.blocks..][..self.blocks];
            // The top edge, D[0][j] = j, steps by one per column; each block
            // hands the step along its last row to the block below.
            let mut carry = first.advance(eq[0], 1, first_last);
            for (b, (column, &eq)) in columns.iter_mut().zip(&eq[1..]).enumerate() {
                carry = column.advance(eq, carry, last_of(b + 1));
            }
            score = score.wrapping_add_signed(carry);
            // Each character still to come moves the last row by at most
            // one, and no more of them are left than bytes.
            let left = bytes.len() - at;
            if score.saturating_sub(left) > limit {
                return score - left;
            }
        }
        score
    }
}

/// One 64-row block of the current column of the edit-distance table, as
/// Myers' vertical deltas: bit `i` of `plus` (of `minus`) is set where row
/// `i` is one more (one less) than the row above it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Block {
    plus: u64,
    minus: u64,
}

impl Block {
    /// The left edge, D[i][0] = i: every row one more than the one above.
    const LEFT_EDGE: Block = Block { plus: !0, minus: 0 };

    /// Moves this block one column right, where `eq` marks the rows whose
    /// pattern character is the column's text character and `carry` is the
    /// horizontal delta (−1, 0 or +1) of the row above the block. Returns
    /// the horizontal delta of the row marked by `last`.
    fn advance(&mut self, eq: u64, carry: isize, last: u64) -> isize {
        let Block { plus, minus } = *self;
        let xv = eq | minus;
        let eq = eq | u64::from(carry < 0);
        let xh = ((eq & plus).wrapping_add(plus) ^ plus) | eq;
        let h_plus = minus | !(xh | plus);
        let h_minus = plus & xh;
        let out = isize::from(h_plus & last != 0) - isize::from(h_minus & last != 0);
        let h_plus = (h_plus << 1) | u64::from(carry > 0);
        let h_minus = (h_minus << 1) | u64::from(carry < 0);
        self.plus = h_minus | !(xv | h_plus);
        self.minus = h_plus & xv;
        out
    }
}

/// Levenshtein edit distance between two strings (case-insensitive): the
/// search's bit-parallel kernel, with no limit and the shorter string as
/// the pattern. O(⌈min/64⌉·max) word operations on the lowercased copies
/// of both strings.
///
/// # Examples
///
/// ```
/// use lems_attr::fuzzy::edit_distance;
///
/// assert_eq!(edit_distance("smith", "Smyth"), 1);
/// assert_eq!(edit_distance("jonson", "johnson"), 1);
/// assert_eq!(edit_distance("alice", "alice"), 0);
/// ```
pub fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b) = (a.to_lowercase(), b.to_lowercase());
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    Pattern::new(&short).distance(&long, usize::MAX, &mut Vec::new())
}

/// [`SOUNDEX`]'s entry for a byte that is not an ASCII letter.
const NOT_A_LETTER: u8 = 0;
/// [`SOUNDEX`]'s entry for `h` and `w`, which neither code nor separate.
const SILENT: u8 = 1;

/// Per byte, its Soundex digit: `b'1'`–`b'6'` for a coded consonant,
/// `b'0'` for a vowel or `y` (not coded, but separates two equal digits),
/// [`SILENT`] for `h`/`w` and [`NOT_A_LETTER`] for anything else.
const SOUNDEX: [u8; 256] = {
    let mut table = [NOT_A_LETTER; 256];
    let mut c = b'a';
    while c <= b'z' {
        let digit = match c {
            b'b' | b'f' | b'p' | b'v' => b'1',
            b'c' | b'g' | b'j' | b'k' | b'q' | b's' | b'x' | b'z' => b'2',
            b'd' | b't' => b'3',
            b'l' => b'4',
            b'm' | b'n' => b'5',
            b'r' => b'6',
            b'h' | b'w' => SILENT,
            _ => b'0',
        };
        table[c as usize] = digit;
        table[c.to_ascii_uppercase() as usize] = digit;
        c += 1;
    }
    table
};

/// Produces the Soundex code of `word` (see [`soundex`]) a byte at a
/// time, handing each to `take` with its position and stopping at the
/// first one refused (`None`). Otherwise returns how many bytes were
/// produced; the rest of the four are `b'0'`.
fn soundex_bytes(word: &str, mut take: impl FnMut(usize, u8) -> bool) -> Option<usize> {
    // Only ASCII letters count, and no byte of a multi-byte character is
    // one, so the bytes can be walked directly.
    let mut letters = word
        .bytes()
        .map(|c| (c, SOUNDEX[usize::from(c)]))
        .filter(|&(_, digit)| digit != NOT_A_LETTER);
    let Some((first, digit)) = letters.next() else {
        return Some(0);
    };
    if !take(0, first.to_ascii_uppercase()) {
        return None;
    }
    let mut len = 1;
    let mut last = if digit == SILENT { b'0' } else { digit };
    for (_, k) in letters {
        // h/w do not reset the previous code; vowels do.
        if k == SILENT {
            continue;
        }
        if k != b'0' && k != last {
            if !take(len, k) {
                return None;
            }
            len += 1;
            if len == 4 {
                break;
            }
        }
        last = k;
    }
    Some(len)
}

/// The Soundex code of `word` as four ASCII bytes (see [`soundex`]).
pub(crate) fn soundex_code(word: &str) -> [u8; 4] {
    let mut out = *b"0000";
    soundex_bytes(word, |i, b| {
        out[i] = b;
        true
    });
    out
}

/// The Soundex phonetic code of a word (classic 4-character form, e.g.
/// `"Robert"` → `"R163"`). Non-ASCII-alphabetic characters are skipped;
/// an empty input yields `"0000"`.
///
/// # Examples
///
/// ```
/// use lems_attr::fuzzy::soundex;
///
/// assert_eq!(soundex("Robert"), soundex("Rupert"));
/// assert_eq!(soundex("Smith"), soundex("Smyth"));
/// assert_ne!(soundex("Smith"), soundex("Jones"));
/// ```
pub fn soundex(word: &str) -> String {
    soundex_code(word).iter().map(|&b| char::from(b)).collect()
}

/// How close a candidate string is to a query string.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum MatchQuality {
    /// Exact (case-insensitive) match.
    Exact,
    /// Within the allowed edit distance.
    CloseSpelling(usize),
    /// Same Soundex code.
    SoundsAlike,
    /// No match.
    None,
}

impl MatchQuality {
    /// True for anything better than [`MatchQuality::None`].
    pub(crate) fn is_match(&self) -> bool {
        !matches!(self, MatchQuality::None)
    }
}

/// The query side of a fuzzy match, with everything that depends on the
/// query alone computed once.
#[derive(Debug)]
pub(crate) struct Needle {
    /// The match masks of the lowercased query's characters.
    pattern: Pattern,
    soundex: [u8; 4],
    max_edits: usize,
}

impl Needle {
    pub(crate) fn new(query: &str, max_edits: usize) -> Self {
        Needle {
            pattern: Pattern::new(&query.to_lowercase()),
            soundex: soundex_code(query),
            max_edits,
        }
    }

    /// The edit distance to `lower`, if it is within `max_edits`.
    fn within(&self, lower: &str, columns: &mut Vec<Block>) -> Option<usize> {
        let k = self.max_edits;
        Some(self.pattern.distance(lower, k, columns)).filter(|&d| d <= k)
    }

    /// Whether `candidate`'s Soundex code is the query's, decided at the
    /// first byte that differs — for most names, the first letter.
    fn sounds_like(&self, candidate: &str) -> bool {
        let code = &self.soundex;
        soundex_bytes(candidate, |i, b| code[i] == b)
            .is_some_and(|len| code[len..].iter().all(|&b| b == b'0'))
    }

    /// Classifies `candidate`, whose lowercase form the caller supplies as
    /// `lower` (case and spelling are compared on that; the phonetic tier
    /// sees `candidate` itself). `columns` is the kernel's reusable state.
    /// The exact tier is the spelling tier at distance 0: the only string
    /// no edit away from the lowercased query is the lowercased query.
    pub(crate) fn quality(
        &self,
        candidate: &str,
        lower: &str,
        columns: &mut Vec<Block>,
    ) -> MatchQuality {
        match self.within(lower, columns) {
            Some(0) => MatchQuality::Exact,
            Some(d) => MatchQuality::CloseSpelling(d),
            None if self.sounds_like(candidate) => MatchQuality::SoundsAlike,
            None => MatchQuality::None,
        }
    }
}

/// The three matchers as they stood before the kernels above: a full
/// two-row table over two fresh `Vec<char>`s, Soundex through a `String`.
/// Kept as the oracle the kernels are held to.
#[cfg(test)]
pub(crate) mod reference {
    use super::MatchQuality;

    /// How two texts are compared where "equal, ignoring case" is meant:
    /// `classify`'s exact tier and `Predicate::Equals`. The one thing the
    /// kernels changed on purpose.
    pub(crate) type TextEq = fn(&str, &str) -> bool;

    /// What both did: ASCII-only folding, beside a spelling tier and
    /// `Contains` that fold Unicode.
    pub(crate) fn ascii_fold_eq(a: &str, b: &str) -> bool {
        a.eq_ignore_ascii_case(b)
    }

    /// What both do now: the fold everything else always used.
    pub(crate) fn unicode_fold_eq(a: &str, b: &str) -> bool {
        a.to_lowercase() == b.to_lowercase()
    }

    pub(crate) fn edit_distance(a: &str, b: &str) -> usize {
        let a: Vec<char> = a.to_lowercase().chars().collect();
        let b: Vec<char> = b.to_lowercase().chars().collect();
        if a.is_empty() {
            return b.len();
        }
        if b.is_empty() {
            return a.len();
        }
        let mut prev: Vec<usize> = (0..=b.len()).collect();
        let mut cur = vec![0usize; b.len() + 1];
        for (i, &ca) in a.iter().enumerate() {
            cur[0] = i + 1;
            for (j, &cb) in b.iter().enumerate() {
                let cost = usize::from(ca != cb);
                cur[j + 1] = (prev[j + 1] + 1).min(cur[j] + 1).min(prev[j] + cost);
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        prev[b.len()]
    }

    pub(crate) fn soundex(word: &str) -> String {
        fn code(c: char) -> u8 {
            match c.to_ascii_lowercase() {
                'b' | 'f' | 'p' | 'v' => b'1',
                'c' | 'g' | 'j' | 'k' | 'q' | 's' | 'x' | 'z' => b'2',
                'd' | 't' => b'3',
                'l' => b'4',
                'm' | 'n' => b'5',
                'r' => b'6',
                _ => b'0',
            }
        }
        let letters: Vec<char> = word.chars().filter(char::is_ascii_alphabetic).collect();
        let Some(&first) = letters.first() else {
            return "0000".to_owned();
        };
        let mut out = String::new();
        out.push(first.to_ascii_uppercase());
        let mut last = code(first);
        for &c in &letters[1..] {
            let k = code(c);
            if matches!(c.to_ascii_lowercase(), 'h' | 'w') {
                continue;
            }
            if k != b'0' && k != last {
                out.push(k as char);
                if out.len() == 4 {
                    break;
                }
            }
            last = k;
        }
        while out.len() < 4 {
            out.push('0');
        }
        out
    }

    pub(crate) fn classify(
        query: &str,
        candidate: &str,
        max_edits: usize,
        exact: TextEq,
    ) -> MatchQuality {
        if exact(query, candidate) {
            return MatchQuality::Exact;
        }
        let d = edit_distance(query, candidate);
        if d <= max_edits {
            return MatchQuality::CloseSpelling(d);
        }
        if soundex(query) == soundex(candidate) {
            return MatchQuality::SoundsAlike;
        }
        MatchQuality::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Classifies how well `candidate` matches `query`, allowing up to
    /// `max_edits` spelling errors before falling back to phonetic matching.
    fn classify(query: &str, candidate: &str, max_edits: usize) -> MatchQuality {
        Needle::new(query, max_edits).quality(candidate, &candidate.to_lowercase(), &mut Vec::new())
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("abc", ""), 3);
        assert_eq!(edit_distance("", "xy"), 2);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("CASE", "case"), 0);
        assert_eq!(edit_distance("smith", "Smyth"), 1);
        assert_eq!(edit_distance("jonson", "johnson"), 1);
        assert_eq!(edit_distance("alice", "alice"), 0);
    }

    #[test]
    fn soundex_classics() {
        for (word, code) in [
            ("Robert", "R163"),
            ("Rupert", "R163"),
            ("Ashcraft", "A261"),
            ("Tymczak", "T522"),
            ("Pfister", "P236"),
            ("", "0000"),
            ("123", "0000"),
        ] {
            assert_eq!(soundex(word), code);
            assert_eq!(soundex_code(word), code.as_bytes(), "{word}");
        }
        assert_eq!(soundex("Smith"), soundex("Smyth"));
        assert_ne!(soundex("Smith"), soundex("Jones"));
    }

    #[test]
    fn classify_tiers() {
        assert_eq!(classify("smith", "Smith", 1), MatchQuality::Exact);
        assert_eq!(
            classify("smith", "smyth", 1),
            MatchQuality::CloseSpelling(1)
        );
        // Far in spelling (distance 2 > 1) but phonetically equal.
        assert_eq!(classify("robert", "rupert", 1), MatchQuality::SoundsAlike);
        assert_eq!(classify("smith", "jones", 1), MatchQuality::None);
        assert!(classify("a", "b", 1).is_match()); // distance 1
    }

    #[test]
    fn exact_folds_unicode_case() {
        assert_eq!(classify("ÉCOLE", "école", 0), MatchQuality::Exact);
        assert_eq!(classify("École", "ÉCOLE", 1), MatchQuality::Exact);
        // The tier this one replaced folded ASCII only: one pair of the
        // same word was exact, the other a spelling at distance 0.
        let ascii = |q, c, k| reference::classify(q, c, k, reference::ascii_fold_eq);
        assert_eq!(ascii("ÉCOLE", "école", 0), MatchQuality::CloseSpelling(0));
        assert_eq!(ascii("École", "ÉCOLE", 1), MatchQuality::Exact);
        // Either way it is a match: no search answer depends on the tier.
        assert!(ascii("ÉCOLE", "école", 0).is_match());
    }

    /// Words over the characters whose lowercase mapping is not one-to-one
    /// (`ß`, `İ`), depends on the neighbours (`Σ`) or lands in ASCII (the
    /// Kelvin sign), beside plain ASCII and a Latin-1 pair. Some are
    /// Soundex letters, some are not.
    const TRICKY: &str = "[abrRtT ßİΣσςéÉ\u{212a}]{0,6}";

    proptest! {
        /// Metric properties: identity, symmetry, triangle inequality.
        #[test]
        fn edit_distance_is_a_metric(
            a in "[a-z]{0,8}",
            b in "[a-z]{0,8}",
            c in "[a-z]{0,8}",
        ) {
            prop_assert_eq!(edit_distance(&a, &a), 0);
            prop_assert_eq!(edit_distance(&a, &b), edit_distance(&b, &a));
            prop_assert!(
                edit_distance(&a, &c) <= edit_distance(&a, &b) + edit_distance(&b, &c)
            );
        }

        /// Soundex always yields a 4-character code starting with a letter
        /// or the null code.
        #[test]
        fn soundex_shape(w in "[A-Za-z]{0,12}") {
            let s = soundex(&w);
            prop_assert_eq!(s.len(), 4);
            if !w.is_empty() {
                prop_assert!(s.chars().next().unwrap().is_ascii_uppercase());
            }
        }

        /// Lowering into a buffer is `str::to_lowercase`, whatever the
        /// buffer already held.
        #[test]
        fn lower_into_is_to_lowercase(a in TRICKY, b in TRICKY) {
            let mut out = String::new();
            for s in [&a, &b, &a] {
                let start = out.len();
                push_lower(s, &mut out);
                prop_assert_eq!(&out[start..], &s.to_lowercase());
            }
        }

        /// The kernels are the matchers they replaced, with the exact tier
        /// folding as the spelling tier always did.
        #[test]
        fn kernels_match_the_reference(a in TRICKY, b in TRICKY, k in 0usize..4) {
            prop_assert_eq!(edit_distance(&a, &b), reference::edit_distance(&a, &b));
            prop_assert_eq!(soundex(&a), reference::soundex(&a));
            prop_assert_eq!(
                classify(&a, &b, k),
                reference::classify(&a, &b, k, reference::unicode_fold_eq)
            );
            prop_assert_eq!(
                classify(&a, &b, k).is_match(),
                reference::classify(&a, &b, k, reference::ascii_fold_eq).is_match()
            );
        }

        /// On ASCII text the two notions of case are one: `classify` is
        /// the old one, unchanged.
        #[test]
        fn on_ascii_text_no_tier_moved(a in "[abrRtT 1]{0,6}", b in "[abrRtT 1]{0,6}", k in 0usize..4) {
            prop_assert_eq!(
                classify(&a, &b, k),
                reference::classify(&a, &b, k, reference::ascii_fold_eq)
            );
        }

        /// The table-driven Soundex is the one it replaced on every byte.
        #[test]
        fn soundex_reads_every_byte_as_the_reference(w in collection::vec(0u32..0x250, 0..10)) {
            // Every ASCII byte, and two-byte characters whose bytes span the
            // lead and continuation ranges.
            let w: String = w.into_iter().filter_map(char::from_u32).collect();
            prop_assert_eq!(soundex(&w), reference::soundex(&w));
        }

        /// Giving up early changes no answer, and one column state carried
        /// across candidates answers as a fresh one does.
        #[test]
        fn within_is_edit_distance_at_most_k(
            query in TRICKY,
            candidates in collection::vec(TRICKY, 1..6),
            k in 0usize..4,
        ) {
            let needle = Needle::new(&query, k);
            let mut reused = Vec::new();
            for c in &candidates {
                let d = edit_distance(&query, c);
                let want = (d <= k).then_some(d);
                let lower = c.to_lowercase();
                prop_assert_eq!(needle.within(&lower, &mut reused), want);
                prop_assert_eq!(needle.within(&lower, &mut Vec::new()), want);
            }
        }

        /// The bit-parallel kernel is the DP oracle: exact up to `limit`, a
        /// lower bound above it beyond, for every limit the search uses and
        /// none, on strings that cross one and two 64-character block
        /// boundaries and on near copies of them.
        #[test]
        fn the_kernel_is_the_dp_oracle(
            a in "[abß İΣ\u{212a}k]{0,140}",
            unrelated in "[abß İΣ\u{212a}k]{0,140}",
            edits in collection::vec((0usize..3, 0usize..200, "[abß İΣ\u{212a}k]"), 0..6),
        ) {
            let near = mutate(&a, &edits);
            for b in [&near, &unrelated, &String::new()] {
                let d = reference::edit_distance(&a, b);
                prop_assert_eq!(edit_distance(&a, b), d);
                prop_assert_eq!(edit_distance(b, &a), d);
                for (pattern, text) in [(&a, b), (b, &a)] {
                    let pattern = Pattern::new(&pattern.to_lowercase());
                    let text = text.to_lowercase();
                    let mut columns = Vec::new();
                    for limit in [0, 1, 2, 3, 4, usize::MAX] {
                        let got = pattern.distance(&text, limit, &mut columns);
                        if d <= limit {
                            prop_assert_eq!(got, d, "limit {}", limit);
                        } else {
                            prop_assert!(limit < got && got <= d, "{} for {} at limit {}", got, d, limit);
                        }
                    }
                }
            }
        }

        /// Comparing Soundex codes as they are produced is comparing them
        /// whole, on words whose codes often agree: `h`/`w` between equal
        /// digits, vowels that separate them, digits and other non-letters
        /// that do not count, codes shorter than four.
        #[test]
        fn sounding_alike_is_equal_codes(
            query in "[rRbBlmhwaeyT1 -]{0,8}",
            candidates in collection::vec("[rRbBlmhwaeyT1 -]{0,8}", 1..8),
        ) {
            let needle = Needle::new(&query, 0);
            // The query itself, and words that differ from it only at the
            // end, where its code may end or go on.
            let near = [
                query.to_uppercase(),
                query.chars().skip(1).collect(),
                query.chars().take(query.chars().count().saturating_sub(1)).collect(),
                format!("{query}l"),
                format!("{query}am"),
            ];
            for c in candidates.iter().chain(&near).chain([&query]) {
                prop_assert_eq!(
                    needle.sounds_like(c),
                    needle.soundex == soundex_code(c),
                    "{:?} against {:?}", query, c
                );
            }
        }
    }

    /// `a` with each `(kind, position, character)` of `edits` applied in
    /// turn: 0 substitutes, 1 inserts, 2 deletes, at `position` modulo the
    /// length.
    fn mutate(a: &str, edits: &[(usize, usize, String)]) -> String {
        let mut chars: Vec<char> = a.chars().collect();
        for (kind, at, with) in edits {
            let c = with.chars().next().unwrap();
            let at = at % (chars.len() + 1);
            match kind {
                0 if at < chars.len() => chars[at] = c,
                1 => chars.insert(at, c),
                _ if at < chars.len() => {
                    chars.remove(at);
                }
                _ => {}
            }
        }
        chars.into_iter().collect()
    }

    #[test]
    fn the_kernel_crosses_block_boundaries() {
        for n in [63, 64, 65, 127, 128, 129, 200] {
            let a = "ab".repeat(n).chars().take(n).collect::<String>();
            for b in [
                a.clone(),
                format!("{a}x"),
                format!("x{a}"),
                a[1..].to_owned(),
                a[..n - 1].to_owned(),
                a.replace('a', "b"),
                "ΣßİK".repeat(n / 4),
            ] {
                let d = reference::edit_distance(&a, &b);
                assert_eq!(edit_distance(&a, &b), d, "{n}: {a} / {b}");
                assert_eq!(edit_distance(&b, &a), d, "{n}: {b} / {a}");
            }
        }
    }
}
