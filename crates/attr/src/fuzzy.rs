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
//! Each matcher has one kernel (`levenshtein`, `soundex_code`) working on
//! borrowed buffers. A search evaluates a `Needle` — the query side,
//! prepared once — against hundreds of thousands of stored values through
//! one reused table row; the public [`edit_distance`] and [`soundex`] are
//! the same kernels behind throw-away buffers.

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

/// Levenshtein distance between `pattern` and the characters of `text`,
/// exactly as given (callers fold case first) — or, once the distance is
/// known to exceed `limit`, some lower bound of it that does.
/// O(|pattern|·|text|) time; the table is kept in `row`, one row as long
/// as the pattern.
fn levenshtein(pattern: &[char], text: &str, limit: usize, row: &mut Vec<usize>) -> usize {
    // The distance is at least the difference in length.
    let gap = pattern.len().abs_diff(text.chars().count());
    if gap > limit {
        return gap;
    }
    row.clear();
    row.extend(0..=pattern.len());
    for (i, ct) in text.chars().enumerate() {
        // `row` holds the previous row ahead of the cell being written and
        // this one behind it; `diagonal` and `left` are the two overwritten
        // neighbours still needed.
        let mut diagonal = i;
        let mut left = i + 1;
        row[0] = left;
        let mut row_min = left;
        for (&cp, cell) in pattern.iter().zip(&mut row[1..]) {
            let up = *cell;
            left = (up + 1).min(left + 1).min(diagonal + usize::from(cp != ct));
            *cell = left;
            diagonal = up;
            row_min = row_min.min(left);
        }
        // Every cell of a later row is reached from this one by steps that
        // cost 0 or 1, so the answer is no smaller than this row's minimum.
        if row_min > limit {
            return row_min;
        }
    }
    row[pattern.len()]
}

/// Levenshtein edit distance between two strings (case-insensitive).
/// O(|a|·|b|) time; beside the lowercased copies of both strings, the
/// table is kept as one row as long as the shorter of them.
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
    let pattern: Vec<char> = short.chars().collect();
    levenshtein(&pattern, &long, usize::MAX, &mut Vec::new())
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

/// The Soundex code of `word` as four ASCII bytes (see [`soundex`]).
pub(crate) fn soundex_code(word: &str) -> [u8; 4] {
    // Only ASCII letters count, and no byte of a multi-byte character is
    // one, so the bytes can be walked directly.
    let mut letters = word
        .bytes()
        .map(|c| (c, SOUNDEX[usize::from(c)]))
        .filter(|&(_, digit)| digit != NOT_A_LETTER);
    let mut out = *b"0000";
    let Some((first, digit)) = letters.next() else {
        return out;
    };
    out[0] = first.to_ascii_uppercase();
    let mut len = 1;
    let mut last = if digit == SILENT { b'0' } else { digit };
    for (_, k) in letters {
        // h/w do not reset the previous code; vowels do.
        if k == SILENT {
            continue;
        }
        if k != b'0' && k != last {
            out[len] = k;
            len += 1;
            if len == 4 {
                break;
            }
        }
        last = k;
    }
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
    /// The lowercased query.
    lower: String,
    /// Its characters.
    chars: Vec<char>,
    soundex: [u8; 4],
    max_edits: usize,
}

impl Needle {
    pub(crate) fn new(query: &str, max_edits: usize) -> Self {
        let lower = query.to_lowercase();
        Needle {
            chars: lower.chars().collect(),
            lower,
            soundex: soundex_code(query),
            max_edits,
        }
    }

    /// The edit distance to `lower`, if it is within `max_edits`.
    fn within(&self, lower: &str, row: &mut Vec<usize>) -> Option<usize> {
        let k = self.max_edits;
        Some(levenshtein(&self.chars, lower, k, row)).filter(|&d| d <= k)
    }

    /// Classifies `candidate`, whose lowercase form the caller supplies as
    /// `lower` (case and spelling are compared on that; the phonetic tier
    /// sees `candidate` itself). `row` is the table's reusable buffer.
    pub(crate) fn quality(
        &self,
        candidate: &str,
        lower: &str,
        row: &mut Vec<usize>,
    ) -> MatchQuality {
        if self.lower == lower {
            MatchQuality::Exact
        } else if let Some(d) = self.within(lower, row) {
            MatchQuality::CloseSpelling(d)
        } else if self.soundex == soundex_code(candidate) {
            MatchQuality::SoundsAlike
        } else {
            MatchQuality::None
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

        /// Giving up early changes no answer, and one row carried across
        /// candidates answers as a fresh one does.
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
    }
}
