//! Generalised hierarchical names and zone-based resolution.
//!
//! §3.1.1: "The current hierarchical numbering scheme for telephone
//! services is a good example of syntax-directed naming … A three or four
//! hierarchy system can be applied to electronic mail." The fixed
//! three-level [`MailName`](crate::name::MailName) covers the paper's main
//! design; this module provides the generalisation: names with any number
//! of levels, resolved by longest-prefix match against a zone table —
//! exactly how telephone prefixes (and later DNS zones) delegate
//! authority.

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

use lems_net::graph::NodeId;

use crate::name::{NameLevel, ParseNameError};

/// A hierarchical name with 2 or more levels, most significant first
/// (e.g. `usa.east.boston.vax1.alice`).
///
/// # Examples
///
/// ```
/// use lems_core::hierarchy::HierName;
///
/// let n: HierName = "usa.east.boston.vax1.alice".parse()?;
/// assert_eq!(n.depth(), 5);
/// assert_eq!(n.leaf(), "alice");
/// assert!(n.starts_with(&"usa.east".parse()?));
/// # Ok::<(), lems_core::name::ParseNameError>(())
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct HierName {
    tokens: Vec<String>,
}

fn validate_token(token: &str) -> Result<(), ParseNameError> {
    if token.is_empty() {
        return Err(ParseNameError::EmptyToken {
            level: NameLevel::User,
        });
    }
    for ch in token.chars() {
        if !(ch.is_ascii_alphanumeric() || ch == '-' || ch == '_') {
            return Err(ParseNameError::InvalidCharacter {
                level: NameLevel::User,
                ch,
            });
        }
    }
    Ok(())
}

impl HierName {
    /// Builds a name from tokens, most significant first.
    ///
    /// # Errors
    ///
    /// Returns [`ParseNameError`] if fewer than one token is given or any
    /// token is empty / contains a character outside `[A-Za-z0-9_-]`.
    pub fn new<I, S>(tokens: I) -> Result<Self, ParseNameError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let tokens: Vec<String> = tokens.into_iter().map(|t| t.as_ref().to_owned()).collect();
        if tokens.is_empty() {
            return Err(ParseNameError::WrongComponentCount { found: 0 });
        }
        for t in &tokens {
            validate_token(t)?;
        }
        Ok(HierName { tokens })
    }

    /// Number of levels.
    pub fn depth(&self) -> usize {
        self.tokens.len()
    }

    /// The tokens, most significant first.
    pub fn tokens(&self) -> &[String] {
        &self.tokens
    }

    /// The least significant token (the user under the paper's
    /// convention).
    pub fn leaf(&self) -> &str {
        // Construction guarantees at least one token.
        self.tokens.last().map_or("", String::as_str)
    }

    /// True if `prefix`'s tokens are a prefix of this name's tokens.
    pub fn starts_with(&self, prefix: &HierName) -> bool {
        prefix.tokens.len() <= self.tokens.len()
            && self.tokens[..prefix.tokens.len()] == prefix.tokens[..]
    }

    /// The parent name (one level up), or `None` at the root.
    pub fn parent(&self) -> Option<HierName> {
        if self.tokens.len() <= 1 {
            None
        } else {
            Some(HierName {
                tokens: self.tokens[..self.tokens.len() - 1].to_vec(),
            })
        }
    }

    /// A child of this name.
    ///
    /// # Errors
    ///
    /// Returns [`ParseNameError`] if the token is invalid.
    pub fn child(&self, token: &str) -> Result<HierName, ParseNameError> {
        validate_token(token)?;
        let mut tokens = self.tokens.clone();
        tokens.push(token.to_owned());
        Ok(HierName { tokens })
    }

    /// Converts a three-level [`MailName`](crate::name::MailName).
    pub fn from_mail_name(name: &crate::name::MailName) -> HierName {
        HierName {
            tokens: vec![
                name.region().to_owned(),
                name.host().to_owned(),
                name.user().to_owned(),
            ],
        }
    }
}

impl fmt::Display for HierName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.tokens.join("."))
    }
}

impl FromStr for HierName {
    type Err = ParseNameError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        HierName::new(s.split('.'))
    }
}

/// A zone table: name prefixes delegated to servers, resolved by longest
/// prefix — the syntax-directed resolution of §3.1.2b generalised to any
/// hierarchy depth.
///
/// # Examples
///
/// ```
/// use lems_core::hierarchy::{HierName, ZoneTable};
/// use lems_net::graph::NodeId;
///
/// let mut zones = ZoneTable::new(NodeId(0)); // root server
/// zones.delegate("usa".parse()?, NodeId(1));
/// zones.delegate("usa.east".parse()?, NodeId(2));
///
/// let name: HierName = "usa.east.boston.vax1.alice".parse()?;
/// let (server, zone_depth) = zones.resolve(&name);
/// assert_eq!(server, NodeId(2));        // longest matching prefix wins
/// assert_eq!(zone_depth, 2);
/// # Ok::<(), lems_core::name::ParseNameError>(())
/// ```
#[derive(Clone, Debug)]
pub struct ZoneTable {
    root: NodeId,
    zones: BTreeMap<HierName, NodeId>,
}

impl ZoneTable {
    /// Creates a table whose fallback (root zone) is served by `root`.
    pub fn new(root: NodeId) -> Self {
        ZoneTable {
            root,
            zones: BTreeMap::new(),
        }
    }

    /// Delegates `prefix` to `server` (replacing any previous
    /// delegation).
    pub fn delegate(&mut self, prefix: HierName, server: NodeId) {
        self.zones.insert(prefix, server);
    }

    /// Removes a delegation; names fall back to the next-longest prefix.
    pub fn undelegate(&mut self, prefix: &HierName) -> Option<NodeId> {
        self.zones.remove(prefix)
    }

    /// Number of explicit delegations.
    pub fn len(&self) -> usize {
        self.zones.len()
    }

    /// True if only the root zone exists.
    pub fn is_empty(&self) -> bool {
        self.zones.is_empty()
    }

    /// Resolves `name` to `(server, matched prefix depth)` by longest
    /// prefix; depth 0 means the root zone answered.
    pub fn resolve(&self, name: &HierName) -> (NodeId, usize) {
        let mut best: Option<(&HierName, NodeId)> = None;
        for (prefix, &server) in &self.zones {
            if name.starts_with(prefix) {
                match best {
                    Some((bp, _)) if bp.depth() >= prefix.depth() => {}
                    _ => best = Some((prefix, server)),
                }
            }
        }
        match best {
            Some((prefix, server)) => (server, prefix.depth()),
            None => (self.root, 0),
        }
    }

    /// The delegation chain a query walks from the root to the answering
    /// zone — the number of referrals a resolution costs.
    pub fn referral_chain(&self, name: &HierName) -> Vec<NodeId> {
        let mut chain = vec![self.root];
        for depth in 1..=name.depth() {
            let prefix = HierName {
                tokens: name.tokens()[..depth].to_vec(),
            };
            if let Some(&server) = self.zones.get(&prefix) {
                if chain.last() != Some(&server) {
                    chain.push(server);
                }
            }
        }
        chain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parse_and_navigate() {
        let n: HierName = "usa.east.boston.vax1.alice".parse().unwrap();
        assert_eq!(n.depth(), 5);
        assert_eq!(n.leaf(), "alice");
        assert_eq!(n.parent().unwrap().to_string(), "usa.east.boston.vax1");
        assert_eq!(
            n.parent().unwrap().child("bob").unwrap().to_string(),
            "usa.east.boston.vax1.bob"
        );
        assert!("".parse::<HierName>().is_err());
        assert!("a..b".parse::<HierName>().is_err());
    }

    #[test]
    fn three_level_names_convert() {
        let m: crate::name::MailName = "east.vax1.alice".parse().unwrap();
        let h = HierName::from_mail_name(&m);
        assert_eq!(h.to_string(), "east.vax1.alice");
        assert_eq!(h.depth(), 3);
    }

    #[test]
    fn longest_prefix_wins() {
        let mut z = ZoneTable::new(NodeId(0));
        z.delegate("usa".parse().unwrap(), NodeId(1));
        z.delegate("usa.east".parse().unwrap(), NodeId(2));
        z.delegate("usa.east.boston".parse().unwrap(), NodeId(3));
        z.delegate("europe".parse().unwrap(), NodeId(4));

        let resolve = |s: &str| z.resolve(&s.parse().unwrap());
        assert_eq!(resolve("usa.west.la.h.u"), (NodeId(1), 1));
        assert_eq!(resolve("usa.east.ny.h.u"), (NodeId(2), 2));
        assert_eq!(resolve("usa.east.boston.h.u"), (NodeId(3), 3));
        assert_eq!(resolve("europe.fr.paris.h.u"), (NodeId(4), 1));
        assert_eq!(resolve("asia.jp.tokyo.h.u"), (NodeId(0), 0));
    }

    #[test]
    fn undelegation_falls_back() {
        let mut z = ZoneTable::new(NodeId(0));
        z.delegate("usa".parse().unwrap(), NodeId(1));
        z.delegate("usa.east".parse().unwrap(), NodeId(2));
        assert_eq!(z.undelegate(&"usa.east".parse().unwrap()), Some(NodeId(2)));
        assert_eq!(z.resolve(&"usa.east.h.u".parse().unwrap()), (NodeId(1), 1));
        assert_eq!(z.len(), 1);
    }

    #[test]
    fn referral_chain_walks_delegations() {
        let mut z = ZoneTable::new(NodeId(0));
        z.delegate("usa".parse().unwrap(), NodeId(1));
        z.delegate("usa.east".parse().unwrap(), NodeId(2));
        let chain = z.referral_chain(&"usa.east.boston.vax1.alice".parse().unwrap());
        assert_eq!(chain, vec![NodeId(0), NodeId(1), NodeId(2)]);
        let chain = z.referral_chain(&"asia.jp.h.u".parse().unwrap());
        assert_eq!(chain, vec![NodeId(0)]);
    }

    proptest! {
        /// Display/parse round trip for arbitrary valid token vectors.
        #[test]
        fn round_trip(tokens in proptest::collection::vec("[a-z0-9_-]{1,8}", 1..6)) {
            let n = HierName::new(&tokens).unwrap();
            let back: HierName = n.to_string().parse().unwrap();
            prop_assert_eq!(n, back);
        }

        /// starts_with is reflexive and respects parents.
        #[test]
        fn prefix_laws(tokens in proptest::collection::vec("[a-z]{1,5}", 2..6)) {
            let n = HierName::new(&tokens).unwrap();
            prop_assert!(n.starts_with(&n));
            let p = n.parent().unwrap();
            prop_assert!(n.starts_with(&p));
            prop_assert!(!p.starts_with(&n));
        }
    }
}
