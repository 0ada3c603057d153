//! Group naming via distribution lists (§4.3).
//!
//! The paper lists "group naming" among the flexibility criteria and
//! §3.3.1B notes that without attribute addressing a mass mailing needs a
//! "distribution list … to be available". This module is that
//! conventional mechanism for Systems 1 and 2: named lists whose members
//! are users or other lists, expanded recursively with cycle and depth
//! protection — the baseline the attribute-based System 3 is an
//! alternative to.

use std::collections::{BTreeMap, BTreeSet};

use lems_core::name::MailName;

/// A member of a distribution list.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Member {
    /// A user, by full name.
    User(MailName),
    /// Another list, by list name.
    List(String),
}

/// Error from group operations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum GroupError {
    /// The named list does not exist.
    UnknownList(String),
    /// Expansion exceeded the depth bound (deep nesting or a cycle
    /// escaping detection through aliasing).
    TooDeep {
        /// The list whose expansion blew the bound.
        list: String,
        /// The bound that was hit.
        max_depth: usize,
    },
}

impl std::fmt::Display for GroupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GroupError::UnknownList(l) => write!(f, "unknown distribution list {l:?}"),
            GroupError::TooDeep { list, max_depth } => {
                write!(f, "expanding {list:?} exceeded depth {max_depth}")
            }
        }
    }
}

impl std::error::Error for GroupError {}

/// Maximum nesting depth honoured by [`GroupTable::expand`].
pub const MAX_EXPANSION_DEPTH: usize = 32;

/// The server-side table of distribution lists.
///
/// # Examples
///
/// ```
/// use lems_syntax::groups::{GroupTable, Member};
///
/// let mut t = GroupTable::new();
/// t.define("staff", vec![
///     Member::User("east.h1.alice".parse()?),
///     Member::User("east.h1.bob".parse()?),
/// ]);
/// t.define("everyone", vec![
///     Member::List("staff".into()),
///     Member::User("west.h2.carol".parse()?),
/// ]);
/// let members = t.expand("everyone")?;
/// assert_eq!(members.len(), 3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct GroupTable {
    lists: BTreeMap<String, Vec<Member>>,
}

impl GroupTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        GroupTable::default()
    }

    /// Defines (or redefines) a list.
    pub fn define(&mut self, name: &str, members: Vec<Member>) {
        self.lists.insert(name.to_owned(), members);
    }

    /// Removes a list; returns whether it existed. Dangling references
    /// from other lists surface as [`GroupError::UnknownList`] at
    /// expansion time.
    pub fn remove(&mut self, name: &str) -> bool {
        self.lists.remove(name).is_some()
    }

    /// True if the list exists.
    pub fn contains(&self, name: &str) -> bool {
        self.lists.contains_key(name)
    }

    /// Number of defined lists.
    pub fn len(&self) -> usize {
        self.lists.len()
    }

    /// True when no lists are defined.
    pub fn is_empty(&self) -> bool {
        self.lists.is_empty()
    }

    /// Expands a list to its set of users (deduplicated, sorted).
    /// Nested lists expand recursively; each list is visited at most once
    /// per expansion, so mutually recursive lists are handled gracefully.
    ///
    /// # Errors
    ///
    /// Returns [`GroupError::UnknownList`] for missing lists (top-level or
    /// nested) and [`GroupError::TooDeep`] past
    /// [`MAX_EXPANSION_DEPTH`].
    pub fn expand(&self, name: &str) -> Result<Vec<MailName>, GroupError> {
        let mut out = BTreeSet::new();
        let mut visited = BTreeSet::new();
        self.expand_into(name, &mut out, &mut visited, 0)?;
        Ok(out.into_iter().collect())
    }

    fn expand_into(
        &self,
        name: &str,
        out: &mut BTreeSet<MailName>,
        visited: &mut BTreeSet<String>,
        depth: usize,
    ) -> Result<(), GroupError> {
        if depth > MAX_EXPANSION_DEPTH {
            return Err(GroupError::TooDeep {
                list: name.to_owned(),
                max_depth: MAX_EXPANSION_DEPTH,
            });
        }
        if !visited.insert(name.to_owned()) {
            return Ok(()); // cycle: already expanded on this walk
        }
        let members = self
            .lists
            .get(name)
            .ok_or_else(|| GroupError::UnknownList(name.to_owned()))?;
        for m in members {
            match m {
                Member::User(u) => {
                    out.insert(u.clone());
                }
                Member::List(l) => self.expand_into(l, out, visited, depth + 1)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn user(s: &str) -> Member {
        Member::User(s.parse().unwrap())
    }

    #[test]
    fn flat_expansion_dedupes() {
        let mut t = GroupTable::new();
        t.define(
            "l",
            vec![user("east.h.a"), user("east.h.b"), user("east.h.a")],
        );
        let got = t.expand("l").unwrap();
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn nested_expansion() {
        let mut t = GroupTable::new();
        t.define("inner", vec![user("east.h.a")]);
        t.define(
            "outer",
            vec![Member::List("inner".into()), user("east.h.b")],
        );
        let got = t.expand("outer").unwrap();
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn cycles_terminate() {
        let mut t = GroupTable::new();
        t.define("a", vec![Member::List("b".into()), user("east.h.x")]);
        t.define("b", vec![Member::List("a".into()), user("east.h.y")]);
        let got = t.expand("a").unwrap();
        assert_eq!(got.len(), 2, "both users found despite the a<->b cycle");
    }

    #[test]
    fn unknown_lists_error() {
        let t = GroupTable::new();
        assert!(matches!(t.expand("ghost"), Err(GroupError::UnknownList(_))));
        let mut t = GroupTable::new();
        t.define("l", vec![Member::List("ghost".into())]);
        let err = t.expand("l").unwrap_err();
        assert_eq!(err.to_string(), "unknown distribution list \"ghost\"");
    }

    #[test]
    fn removal_leaves_dangling_references() {
        let mut t = GroupTable::new();
        t.define("inner", vec![user("east.h.a")]);
        t.define("outer", vec![Member::List("inner".into())]);
        assert!(t.remove("inner"));
        assert!(!t.remove("inner"));
        assert!(t.expand("outer").is_err());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn deep_chain_within_bound() {
        let mut t = GroupTable::new();
        t.define("l0", vec![user("east.h.z")]);
        for i in 1..=MAX_EXPANSION_DEPTH {
            t.define(&format!("l{i}"), vec![Member::List(format!("l{}", i - 1))]);
        }
        let got = t.expand(&format!("l{MAX_EXPANSION_DEPTH}")).unwrap();
        assert_eq!(got.len(), 1);
    }
}
