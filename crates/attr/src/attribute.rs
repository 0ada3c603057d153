//! Typed user attributes (§3.3.1).
//!
//! "Each attribute has a type and a value. The 'type' indicates the format
//! and the meaning of the value field. The choice of the attributes must
//! be those in which most mail service users are commonly interested. The
//! values of the attributes should not be ambiguous." The paper's example
//! attribute kinds — names, nicknames, aliases, commonly misspelled names,
//! job title, organization, location, expertise, interests — are covered
//! by [`AttrKey`]; free extension is available through
//! [`AttrKey::Custom`].
//!
//! Privacy (§3.3.1): "users must have the option to limit the access to
//! their personal information to specific groups or organizations" —
//! every attribute carries a [`Visibility`].

use std::fmt;
use std::ops::Range;

/// The attribute vocabulary.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum AttrKey {
    /// Given name.
    FirstName,
    /// Family name.
    LastName,
    /// Nickname or alias.
    Nickname,
    /// A commonly seen misspelling of the name, registered so misspelled
    /// queries still match (§3.3's directory-lookup application).
    Misspelling,
    /// Job title.
    JobTitle,
    /// Employer or institution.
    Organization,
    /// Kind of organization (university, vendor, …).
    OrganizationType,
    /// City.
    City,
    /// State or province.
    State,
    /// Country.
    Country,
    /// Field of expertise/specialty.
    Expertise,
    /// Personal interest or hobby.
    Interest,
    /// Anything else.
    Custom(String),
}

impl fmt::Display for AttrKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrKey::FirstName => f.write_str("first-name"),
            AttrKey::LastName => f.write_str("last-name"),
            AttrKey::Nickname => f.write_str("nickname"),
            AttrKey::Misspelling => f.write_str("misspelling"),
            AttrKey::JobTitle => f.write_str("job-title"),
            AttrKey::Organization => f.write_str("organization"),
            AttrKey::OrganizationType => f.write_str("organization-type"),
            AttrKey::City => f.write_str("city"),
            AttrKey::State => f.write_str("state"),
            AttrKey::Country => f.write_str("country"),
            AttrKey::Expertise => f.write_str("expertise"),
            AttrKey::Interest => f.write_str("interest"),
            AttrKey::Custom(s) => write!(f, "x-{s}"),
        }
    }
}

/// An attribute value.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum AttrValue {
    /// Free text (matched case-insensitively).
    Text(String),
    /// An integer (e.g. years of experience).
    Number(i64),
}

impl AttrValue {
    /// Text content, lowercased, if this is a text value (what the
    /// reference evaluator in `query::reference` folds with).
    #[cfg(test)]
    pub(crate) fn as_text_lower(&self) -> Option<String> {
        match self {
            AttrValue::Text(s) => Some(s.to_lowercase()),
            AttrValue::Number(_) => None,
        }
    }
}

impl From<&str> for AttrValue {
    fn from(s: &str) -> Self {
        AttrValue::Text(s.to_owned())
    }
}

impl From<String> for AttrValue {
    fn from(s: String) -> Self {
        AttrValue::Text(s)
    }
}

impl From<i64> for AttrValue {
    fn from(n: i64) -> Self {
        AttrValue::Number(n)
    }
}

/// Who may see an attribute.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Visibility {
    /// Anyone.
    Public,
    /// Only requesters from the named organization.
    Organization(String),
    /// Nobody but the owner (excluded from all searches).
    Private,
}

/// Who is asking.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct RequesterContext {
    /// The requester's organization, if asserted.
    pub organization: Option<String>,
}

/// A [`RequesterContext`] folded once, for a pass over many attributes.
#[derive(Debug)]
pub(crate) struct Requester {
    organization_lower: Option<String>,
}

impl Requester {
    pub(crate) fn new(ctx: &RequesterContext) -> Self {
        Requester {
            organization_lower: ctx.organization.as_deref().map(str::to_lowercase),
        }
    }

    /// True if this requester belongs to the organization whose lowercase
    /// form is `org_lower`.
    pub(crate) fn belongs_to(&self, org_lower: &str) -> bool {
        self.organization_lower.as_deref() == Some(org_lower)
    }
}

/// One stored attribute: value plus visibility.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Attribute {
    /// The value.
    pub(crate) value: AttrValue,
    /// Who may see it.
    pub(crate) visibility: Visibility,
}

/// A user's attribute set (multi-valued per key: a user may register
/// several nicknames, interests, misspellings, …).
///
/// # Examples
///
/// ```
/// use lems_attr::attribute::{AttrKey, AttributeSet, Visibility};
///
/// let mut a = AttributeSet::new();
/// a.add(AttrKey::FirstName, "Wael", Visibility::Public);
/// a.add(AttrKey::Expertise, "distributed systems", Visibility::Public);
/// a.add(AttrKey::Interest, "sailing", Visibility::Private);
/// assert_eq!(a.len(), 3);
/// assert_eq!(a.values(&AttrKey::FirstName).count(), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct AttributeSet {
    /// One allocation per profile: sorted by key, the values of one key in
    /// the order they were added.
    attrs: Vec<(AttrKey, Attribute)>,
}

impl AttributeSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        AttributeSet::default()
    }

    /// Adds an attribute value under `key`.
    pub fn add(&mut self, key: AttrKey, value: impl Into<AttrValue>, visibility: Visibility) {
        let at = self.attrs.partition_point(|(k, _)| *k <= key);
        let attribute = Attribute {
            value: value.into(),
            visibility,
        };
        self.attrs.insert(at, (key, attribute));
    }

    /// Where the entries of `key` sit. A profile holds a handful of
    /// entries, which a scan from the front walks faster than a bisection.
    fn range(&self, key: &AttrKey) -> Range<usize> {
        let start = self.attrs.iter().take_while(|(k, _)| k < key).count();
        let len = self.attrs[start..]
            .iter()
            .take_while(|(k, _)| k == key)
            .count();
        start..start + len
    }

    /// All attributes under `key` (any visibility).
    pub fn values(&self, key: &AttrKey) -> impl Iterator<Item = &Attribute> {
        self.attrs[self.range(key)].iter().map(|(_, a)| a)
    }

    /// Total stored attributes.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// True if no attributes are stored.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// The entries, moved out in key order (the values of one key in the
    /// order they were added): what `add`ing them back in this order
    /// rebuilds.
    pub(crate) fn into_entries(self) -> std::vec::IntoIter<(AttrKey, Attribute)> {
        self.attrs.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Predicate, Query};

    /// Whether `ctx` may see any of `a`'s values under `key`.
    fn visible(a: &AttributeSet, key: &AttrKey, ctx: &RequesterContext) -> bool {
        Query::Attr(key.clone(), Predicate::Exists).eval(a, ctx)
    }

    #[test]
    fn multivalued_keys() {
        let mut a = AttributeSet::new();
        a.add(AttrKey::Nickname, "Bill", Visibility::Public);
        a.add(AttrKey::Nickname, "Will", Visibility::Public);
        assert_eq!(a.values(&AttrKey::Nickname).count(), 2);
    }

    #[test]
    fn visibility_filters() {
        let mut a = AttributeSet::new();
        a.add(AttrKey::JobTitle, "Engineer", Visibility::Public);
        a.add(
            AttrKey::Organization,
            "AT&T",
            Visibility::Organization("AT&T".into()),
        );
        a.add(AttrKey::Interest, "chess", Visibility::Private);

        let anon = RequesterContext::default();
        let insider = RequesterContext {
            organization: Some("at&t".into()),
        };
        assert!(visible(&a, &AttrKey::JobTitle, &anon));
        assert!(!visible(&a, &AttrKey::Organization, &anon));
        assert!(visible(&a, &AttrKey::Organization, &insider));
        assert!(!visible(&a, &AttrKey::Interest, &insider));
    }

    #[test]
    fn organizations_fold_unicode_case() {
        let mut a = AttributeSet::new();
        a.add(
            AttrKey::JobTitle,
            "Professeur",
            Visibility::Organization("École Normale".into()),
        );
        let seen_by = |org: &str| {
            let ctx = RequesterContext {
                organization: Some(org.into()),
            };
            visible(&a, &AttrKey::JobTitle, &ctx)
        };
        assert!(seen_by("éCOLE normale"));
        assert!(!seen_by("Ecole Normale"));
    }

    #[test]
    fn entries_sort_by_key_and_keep_insertion_order_within_one() {
        let mut a = AttributeSet::new();
        a.add(AttrKey::Interest, "chess", Visibility::Public);
        a.add(AttrKey::FirstName, "Ada", Visibility::Public);
        a.add(AttrKey::Interest, "aviation", Visibility::Private);
        a.add(AttrKey::City, "London", Visibility::Public);
        a.add(AttrKey::Interest, "bernoulli numbers", Visibility::Public);
        let interests: Vec<&AttrValue> = a.values(&AttrKey::Interest).map(|x| &x.value).collect();
        assert_eq!(
            interests,
            [
                &AttrValue::from("chess"),
                &AttrValue::from("aviation"),
                &AttrValue::from("bernoulli numbers")
            ]
        );
        assert_eq!(a.values(&AttrKey::Nickname).count(), 0);

        // Equality is per key, whatever order the keys arrived in.
        let mut b = AttributeSet::new();
        b.add(AttrKey::City, "London", Visibility::Public);
        b.add(AttrKey::Interest, "chess", Visibility::Public);
        b.add(AttrKey::Interest, "aviation", Visibility::Private);
        b.add(AttrKey::Interest, "bernoulli numbers", Visibility::Public);
        b.add(AttrKey::FirstName, "Ada", Visibility::Public);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        assert_eq!(a.values(&AttrKey::City).count(), 1);
    }

    #[test]
    fn value_conversions() {
        assert_eq!(AttrValue::from("Hi").as_text_lower(), Some("hi".into()));
        assert_eq!(AttrValue::from(7i64), AttrValue::Number(7));
    }

    #[test]
    fn key_display_is_stable() {
        assert_eq!(AttrKey::FirstName.to_string(), "first-name");
        assert_eq!(
            AttrKey::Custom("ham-radio".into()).to_string(),
            "x-ham-radio"
        );
    }
}
