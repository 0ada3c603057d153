//! Per-server attribute registries.
//!
//! Each mail server holds the attribute profiles of the users it is an
//! authority for (the same partitioning as the name database of §2);
//! attribute searches fan out across servers via the MST and each server
//! answers from its local registry.

use std::collections::BTreeMap;

use lems_core::name::MailName;

use crate::attribute::{AttributeSet, RequesterContext};
use crate::query::{PreparedQuery, Query, Scratch};

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
    profiles: BTreeMap<MailName, AttributeSet>,
}

impl AttributeRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        AttributeRegistry::default()
    }

    /// Adds or replaces a user's profile.
    pub fn upsert(&mut self, user: MailName, attrs: AttributeSet) {
        self.profiles.insert(user, attrs);
    }

    /// Removes a user's profile.
    pub fn remove(&mut self, user: &MailName) -> Option<AttributeSet> {
        self.profiles.remove(user)
    }

    /// The profile of `user`, if registered.
    pub fn profile(&self, user: &MailName) -> Option<&AttributeSet> {
        self.profiles.get(user)
    }

    /// Mutable profile access (attribute maintenance).
    pub fn profile_mut(&mut self, user: &MailName) -> Option<&mut AttributeSet> {
        self.profiles.get_mut(user)
    }

    /// Number of registered profiles.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Users whose visible attributes satisfy `query`, in name order.
    pub(crate) fn hits<'a, 's, 'q>(
        &'a self,
        query: &'s PreparedQuery<'q>,
        scratch: &'s mut Scratch,
    ) -> impl Iterator<Item = &'a MailName> + use<'a, 's, 'q> {
        self.profiles
            .iter()
            .filter(move |(_, attrs)| query.eval(attrs, scratch))
            .map(|(name, _)| name)
    }

    /// Users whose visible attributes satisfy `query`.
    pub fn search(&self, query: &Query, ctx: &RequesterContext) -> Vec<&MailName> {
        self.hits(&PreparedQuery::new(query, ctx), &mut Scratch::default())
            .collect()
    }

    /// Number of matches only (what convergecast summaries carry).
    pub fn count_matches(&self, query: &Query, ctx: &RequesterContext) -> u64 {
        self.hits(&PreparedQuery::new(query, ctx), &mut Scratch::default())
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::{AttrKey, Visibility};

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
    fn upsert_and_remove() {
        let mut r = reg();
        assert_eq!(r.len(), 3);
        let name: MailName = "east.h1.bob".parse().unwrap();
        assert!(r.profile(&name).is_some());
        assert!(r.remove(&name).is_some());
        assert!(r.profile(&name).is_none());
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
    }

    #[test]
    fn profile_mut_allows_maintenance() {
        let mut r = reg();
        let name: MailName = "east.h1.alice".parse().unwrap();
        r.profile_mut(&name)
            .unwrap()
            .add(AttrKey::City, "Boston", Visibility::Public);
        let q = Query::text_eq(AttrKey::City, "boston");
        assert_eq!(r.count_matches(&q, &RequesterContext::default()), 1);
    }
}
