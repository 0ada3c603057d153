//! Hierarchical mail names: `region.host.user`.
//!
//! §3.1.1: "we use a three level hierarchical name in the form of
//! `region.host.user` to identify users of the computer mail systems. The
//! name components are location dependent. The region name is globally
//! unique, the host name is unique within a region, and the user name is
//! locally unique within a host."
//!
//! Names are "structured as a set of alphanumeric strings chosen from a
//! finite alphabet and separated by delimiters" (§2); we allow ASCII
//! alphanumerics plus `-` and `_` inside tokens and use `.` as the
//! delimiter.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;
use std::sync::Arc;

/// Error produced when parsing or validating a [`MailName`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ParseNameError {
    /// The name did not have exactly three `.`-separated components.
    WrongComponentCount {
        /// Number of components found.
        found: usize,
    },
    /// A component was empty.
    EmptyToken {
        /// Which level was empty.
        level: NameLevel,
    },
    /// A component contained a character outside the allowed alphabet.
    InvalidCharacter {
        /// Which level the character appeared in.
        level: NameLevel,
        /// The offending character.
        ch: char,
    },
    /// The three tokens together exceed 65 535 bytes.
    TooLong {
        /// Combined byte length of the tokens.
        bytes: usize,
    },
}

/// Longest name accepted, as the combined byte length of its tokens.
pub(crate) const MAX_NAME_BYTES: usize = u16::MAX as usize;

impl fmt::Display for ParseNameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseNameError::WrongComponentCount { found } => write!(
                f,
                "expected three components `region.host.user`, found {found}"
            ),
            ParseNameError::EmptyToken { level } => {
                write!(f, "empty {level} component")
            }
            ParseNameError::InvalidCharacter { level, ch } => {
                write!(f, "invalid character {ch:?} in {level} component")
            }
            ParseNameError::TooLong { bytes } => {
                write!(f, "name of {bytes} bytes exceeds {MAX_NAME_BYTES}")
            }
        }
    }
}

impl std::error::Error for ParseNameError {}

/// The three levels of the naming hierarchy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NameLevel {
    /// The globally unique region token.
    Region,
    /// The host token, unique within its region.
    Host,
    /// The user token, unique within its host.
    User,
}

impl fmt::Display for NameLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameLevel::Region => f.write_str("region"),
            NameLevel::Host => f.write_str("host"),
            NameLevel::User => f.write_str("user"),
        }
    }
}

fn validate_token(token: &str, level: NameLevel) -> Result<(), ParseNameError> {
    if token.is_empty() {
        return Err(ParseNameError::EmptyToken { level });
    }
    for ch in token.chars() {
        if !(ch.is_ascii_alphanumeric() || ch == '-' || ch == '_') {
            return Err(ParseNameError::InvalidCharacter { level, ch });
        }
    }
    Ok(())
}

/// A fully qualified, location-dependent mail name.
///
/// Under System 1 (syntax-directed naming) the `host` token is the user's
/// fixed location; under System 2 it is only the user's *primary* location
/// — the user may connect from any host of the region (§3.2.1).
///
/// A name is the key of every table a host or server touches, so it is one
/// shared immutable buffer `region\x01host\x01user`: `clone` bumps a
/// reference count, and equality and ordering are one byte comparison of
/// the buffers. The separator sorts below every token character, so that
/// comparison orders names exactly as the tuple `(region, host, user)`
/// does: where one token is a proper prefix of the other, the shorter
/// one's separator meets a token character and loses, as the shorter
/// string would.
///
/// # Examples
///
/// ```
/// use lems_core::name::MailName;
///
/// let n: MailName = "east.vax1.alice".parse()?;
/// assert_eq!(n.region(), "east");
/// assert_eq!(n.host(), "vax1");
/// assert_eq!(n.user(), "alice");
/// assert_eq!(n.to_string(), "east.vax1.alice");
/// # Ok::<(), lems_core::name::ParseNameError>(())
/// ```
#[derive(Clone)]
pub struct MailName {
    /// `region SEP host SEP user`.
    buf: Arc<str>,
    /// Byte length of the region token.
    region_len: u32,
    /// Byte offset of the user token.
    user_start: u32,
}

/// Joins the tokens inside the buffer; below every character
/// [`validate_token`] admits.
const SEP: char = '\u{1}';

impl MailName {
    /// Builds a name from validated tokens.
    ///
    /// # Errors
    ///
    /// Returns [`ParseNameError`] if any token is empty or contains a
    /// character outside `[A-Za-z0-9_-]`, or if the tokens together are
    /// longer than 65 535 bytes.
    pub fn new(region: &str, host: &str, user: &str) -> Result<Self, ParseNameError> {
        validate_token(region, NameLevel::Region)?;
        validate_token(host, NameLevel::Host)?;
        validate_token(user, NameLevel::User)?;
        let bytes = region.len() + host.len() + user.len();
        if bytes > MAX_NAME_BYTES {
            return Err(ParseNameError::TooLong { bytes });
        }
        let mut buf = String::with_capacity(bytes + 2);
        buf.push_str(region);
        buf.push(SEP);
        buf.push_str(host);
        buf.push(SEP);
        let user_start = buf.len() as u32;
        buf.push_str(user);
        Ok(MailName {
            buf: buf.into(),
            region_len: region.len() as u32,
            user_start,
        })
    }

    /// The region token.
    pub fn region(&self) -> &str {
        &self.buf[..self.region_len as usize]
    }

    /// The host token (primary location under System 2).
    pub fn host(&self) -> &str {
        &self.buf[self.region_len as usize + 1..self.user_start as usize - 1]
    }

    /// The user token.
    pub fn user(&self) -> &str {
        &self.buf[self.user_start as usize..]
    }

    /// The first 16 bytes of the name's buffer, padded with zeros, as a
    /// big-endian integer.
    ///
    /// Names order as their buffers do, and a zero byte sorts below the
    /// separator and every token byte, so `a < b` implies `a.order_key() <=
    /// b.order_key()`: a search over a name-ordered table can compare these
    /// integers and fall back to names only where two keys tie (names that
    /// agree on their first 16 bytes).
    ///
    /// # Examples
    ///
    /// ```
    /// use lems_core::name::MailName;
    ///
    /// let a: MailName = "east.vax1.alice".parse()?;
    /// let b: MailName = "east.vax1.bob".parse()?;
    /// assert!(a < b && a.order_key() < b.order_key());
    /// # Ok::<(), lems_core::name::ParseNameError>(())
    /// ```
    pub fn order_key(&self) -> u128 {
        prefix_key(&self.buf)
    }
}

/// The first 16 bytes of `s`, padded with zeros, as a big-endian integer:
/// strings order no earlier than their keys do, and two strings of one
/// length up to 16 bytes share a key only if they are equal.
pub fn prefix_key(s: &str) -> u128 {
    let b = s.as_bytes();
    let n = b.len();
    if let Some(head) = b.first_chunk::<16>() {
        return u128::from_be_bytes(*head);
    }
    // Shorter: its first and last 8 (or 4) bytes, read as two integers
    // that overlap, cover it, and shifting the overlap out of the second
    // leaves each byte once. (A copy of a variable length into a zeroed
    // buffer is a `memcpy` call, and shifting the bytes in one by one a
    // chain of 128-bit shifts: each costs more than these four loads.)
    if let (Some(head), Some(tail)) = (b.first_chunk::<8>(), b.last_chunk::<8>()) {
        let rest = (u128::from(u64::from_be_bytes(*tail)) << (8 * (16 - n))) as u64;
        return u128::from(u64::from_be_bytes(*head)) << 64 | u128::from(rest);
    }
    if let (Some(head), Some(tail)) = (b.first_chunk::<4>(), b.last_chunk::<4>()) {
        let rest = (u64::from(u32::from_be_bytes(*tail)) << (8 * (8 - n))) as u32;
        return (u128::from(u32::from_be_bytes(*head)) << 32 | u128::from(rest)) << 64;
    }
    let key = b.iter().fold(0u128, |key, &x| key << 8 | u128::from(x));
    // The empty string's 128-bit shift overflows; its key is 0 either way.
    key.checked_shl(8 * (16 - n as u32)).unwrap_or(0)
}

/// `key`'s home bucket in an open-addressed index of `mask + 1` buckets (a
/// power of two): the top bits of the Fibonacci product of the key's
/// folded halves, which depend on every bit of the key. (A key of a few
/// bytes, a region token's, sets only its top bits, so the product's low
/// bits are all zero.)
pub fn bucket(key: u128, mask: usize) -> usize {
    let folded = (key >> 64) as u64 ^ key as u64;
    let product = folded.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (product >> (64 - mask.count_ones()).min(63)) as usize & mask
}

// The offsets follow from the buffer (the separator occurs nowhere else),
// so comparing, ordering and hashing the buffer alone is consistent.
impl PartialEq for MailName {
    fn eq(&self, other: &Self) -> bool {
        // A clone shares its original's buffer, and most names compared
        // for equality are clones of one another.
        Arc::ptr_eq(&self.buf, &other.buf) || self.buf == other.buf
    }
}

impl Eq for MailName {}

impl PartialOrd for MailName {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for MailName {
    fn cmp(&self, other: &Self) -> Ordering {
        // As in `eq`: a clone meets its original without reading either
        // buffer.
        if Arc::ptr_eq(&self.buf, &other.buf) {
            return Ordering::Equal;
        }
        self.buf.cmp(&other.buf)
    }
}

impl Hash for MailName {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.buf.hash(state);
    }
}

impl fmt::Debug for MailName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MailName")
            .field("region", &self.region())
            .field("host", &self.host())
            .field("user", &self.user())
            .finish()
    }
}

impl fmt::Display for MailName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}.{}", self.region(), self.host(), self.user())
    }
}

impl FromStr for MailName {
    type Err = ParseNameError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split('.');
        match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some(region), Some(host), Some(user), None) => MailName::new(region, host, user),
            _ => Err(ParseNameError::WrongComponentCount {
                found: s.split('.').count(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parse_round_trip() {
        let n: MailName = "west.pc-7.bob_2".parse().unwrap();
        assert_eq!(n.to_string(), "west.pc-7.bob_2");
        assert_eq!(n.region(), "west");
        assert_eq!(n.host(), "pc-7");
        assert_eq!(n.user(), "bob_2");
    }

    #[test]
    fn rejects_wrong_arity() {
        assert_eq!(
            "a.b".parse::<MailName>(),
            Err(ParseNameError::WrongComponentCount { found: 2 })
        );
        assert_eq!(
            "a.b.c.d".parse::<MailName>(),
            Err(ParseNameError::WrongComponentCount { found: 4 })
        );
    }

    #[test]
    fn rejects_empty_and_invalid_tokens() {
        assert_eq!(
            "a..c".parse::<MailName>(),
            Err(ParseNameError::EmptyToken {
                level: NameLevel::Host
            })
        );
        assert_eq!(
            "a.b.c d".parse::<MailName>(),
            Err(ParseNameError::InvalidCharacter {
                level: NameLevel::User,
                ch: ' '
            })
        );
        assert!("é.b.c".parse::<MailName>().is_err());
        let long = "u".repeat(MAX_NAME_BYTES);
        assert_eq!(
            MailName::new("r", "h", &long),
            Err(ParseNameError::TooLong {
                bytes: MAX_NAME_BYTES + 2
            })
        );
    }

    #[test]
    fn error_messages_are_informative() {
        let e = "a.b".parse::<MailName>().unwrap_err();
        assert!(e.to_string().contains("three components"));
        let e = "a..c".parse::<MailName>().unwrap_err();
        assert!(e.to_string().contains("host"));
    }

    fn hash_of<T: Hash>(v: &T) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    /// `MailName` must compare as the tuple of its tokens does, including
    /// where one token is a proper prefix of the other.
    fn assert_agrees_with_tuple(a: [&str; 3], b: [&str; 3]) {
        let (na, nb) = (
            MailName::new(a[0], a[1], a[2]).unwrap(),
            MailName::new(b[0], b[1], b[2]).unwrap(),
        );
        assert_eq!(na.cmp(&nb), a.cmp(&b), "{na} vs {nb}");
        assert_eq!(na == nb, a == b, "{na} vs {nb}");
        assert_eq!(hash_of(&na) == hash_of(&nb), a == b, "{na} vs {nb}");
    }

    #[test]
    fn prefix_tokens_order_like_the_tuple() {
        // '-' is the lowest token character; the separator must still
        // sort below it.
        assert_agrees_with_tuple(["a", "h", "u"], ["a-b", "h", "u"]);
        assert_agrees_with_tuple(["r", "a", "z"], ["r", "a-", "a"]);
        assert_agrees_with_tuple(["r", "h", "u"], ["r", "h", "u-"]);
        assert_agrees_with_tuple(["ab", "c", "u"], ["a", "bc", "u"]);
        assert_agrees_with_tuple(["a", "b", "c"], ["a", "b", "c"]);
    }

    #[test]
    fn a_clone_compares_equal_as_a_separately_built_name_does() {
        let n = MailName::new("east", "vax1", "alice").unwrap();
        let clone = n.clone();
        let rebuilt: MailName = "east.vax1.alice".parse().unwrap();
        assert!(Arc::ptr_eq(&n.buf, &clone.buf));
        assert!(!Arc::ptr_eq(&n.buf, &rebuilt.buf));
        assert_eq!(n.cmp(&clone), Ordering::Equal);
        assert_eq!(n.cmp(&rebuilt), Ordering::Equal);
        assert_eq!(rebuilt.cmp(&clone), Ordering::Equal);
        let other: MailName = "east.vax1.alicf".parse().unwrap();
        assert_eq!(clone.cmp(&other), Ordering::Less);
        assert_eq!(other.cmp(&clone), Ordering::Greater);
    }

    /// Names whose buffers agree on their first 16 bytes tie on the key,
    /// whatever their order; names that differ there do not.
    #[test]
    fn prefix_keys_are_the_first_16_bytes_padded_with_zeros() {
        let text = "abcdefghijklmnopqrst";
        for n in 0..=text.len() {
            let mut bytes = [0; 16];
            let head = &text.as_bytes()[..n.min(16)];
            bytes[..head.len()].copy_from_slice(head);
            assert_eq!(
                prefix_key(&text[..n]),
                u128::from_be_bytes(bytes),
                "{n} bytes"
            );
        }
    }

    #[test]
    fn order_keys_tie_on_a_shared_16_byte_prefix() {
        let names: Vec<MailName> = [
            "east.mailhost-17.alice",
            "east.mailhost-17.alina",
            "east.mailhost-17b.al",
            "east.mailhost-1.a",
            "east.mailhost-17.a",
        ]
        .iter()
        .map(|n| n.parse().unwrap())
        .collect();
        // "east\x01mailhost-17" is 16 bytes: the first three tie.
        assert_eq!(names[0].order_key(), names[1].order_key());
        assert_eq!(names[1].order_key(), names[2].order_key());
        assert!(names[0] < names[1] && names[1] < names[2]);
        // A shorter buffer pads with zeros and sorts below its extensions.
        assert!(names[3].order_key() < names[4].order_key());
        assert_eq!(names[4].order_key(), names[0].order_key());
        assert!(names[4] < names[0]);
        let short: MailName = "a.b.c".parse().unwrap();
        assert_eq!(
            short.order_key(),
            u128::from_be_bytes(*b"a\x01b\x01c\0\0\0\0\0\0\0\0\0\0\0")
        );
    }

    proptest! {
        /// The order key never orders two names against their order.
        /// Tokens are drawn from a four-letter alphabet so that equal
        /// tokens, prefixes and 16-byte ties all occur.
        #[test]
        fn order_keys_follow_name_order(
            a in "[ab_-]{1,7}", b in "[ab_-]{1,7}", c in "[ab_-]{1,7}",
            d in "[ab_-]{1,7}", e in "[ab_-]{1,7}", f in "[ab_-]{1,7}",
        ) {
            let x = MailName::new(&a, &b, &c).unwrap();
            let y = MailName::new(&d, &e, &f).unwrap();
            let (lo, hi) = if x <= y { (&x, &y) } else { (&y, &x) };
            prop_assert!(lo.order_key() <= hi.order_key(), "{lo} {hi}");
        }

        /// The same over names that share their first two tokens and tie
        /// on the first 16 bytes: the key stays monotone, and equal keys
        /// are exactly the pairs whose buffers agree that far.
        #[test]
        fn order_keys_follow_name_order_across_ties(
            host in "[ab]{11,13}", u in "[ab_-]{1,7}", v in "[ab_-]{1,7}",
        ) {
            let x = MailName::new("r0", &host, &u).unwrap();
            let y = MailName::new("r0", &host, &v).unwrap();
            let (lo, hi) = if x <= y { (&x, &y) } else { (&y, &x) };
            prop_assert!(lo.order_key() <= hi.order_key(), "{lo} {hi}");
            let agree = lo.buf.as_bytes().iter().take(16).eq(hi.buf.as_bytes().iter().take(16))
                && lo.buf.len().min(16) == hi.buf.len().min(16);
            prop_assert_eq!(lo.order_key() == hi.order_key(), agree, "{} {}", lo, hi);
        }

        /// `Ord`, `Eq` and `Hash` agree with the `(region, host, user)`
        /// tuple. Tokens are drawn so that prefixes and equal tokens occur.
        #[test]
        fn ord_eq_hash_agree_with_tuple(
            a in proptest::collection::vec("[A-Za-z0-9_-]{1,12}", 3),
            b in proptest::collection::vec("[A-Za-z0-9_-]{1,12}", 3),
            share in 0usize..4,
            cut in 0usize..12,
        ) {
            // Make `b` share its first `share` tokens with `a`, and the
            // next one a prefix of `a`'s.
            let mut b = b;
            let shared = share.min(3);
            b[..shared].clone_from_slice(&a[..shared]);
            if share < 3 {
                let keep = (cut % a[share].len()) + 1;
                b[share] = a[share][..keep].to_owned();
            }
            assert_agrees_with_tuple(
                [&a[0], &a[1], &a[2]],
                [&b[0], &b[1], &b[2]],
            );
            assert_agrees_with_tuple(
                [&b[0], &b[1], &b[2]],
                [&a[0], &a[1], &a[2]],
            );
        }

        /// Every syntactically valid triple survives a display/parse round
        /// trip.
        #[test]
        fn round_trip_any_valid_tokens(
            r in "[A-Za-z0-9_-]{1,12}",
            h in "[A-Za-z0-9_-]{1,12}",
            u in "[A-Za-z0-9_-]{1,12}",
        ) {
            let n = MailName::new(&r, &h, &u).unwrap();
            let back: MailName = n.to_string().parse().unwrap();
            prop_assert_eq!(n, back);
        }
    }
}
