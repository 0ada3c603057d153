//! Users and their authority-server lists.

use std::fmt;
use std::sync::Arc;

use lems_net::graph::NodeId;

use crate::name::MailName;

/// Dense user identifier within one deployment.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct UserId(pub usize);

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// The ordered list of authority servers assigned to a user.
///
/// §3.1.1: "each user is assigned several authority servers, which are
/// ordered in a list such that the first server in the list is the primary
/// server for the user, and the next is the first secondary server, and so
/// on. If one server fails, the user can still access the mail system
/// through the next authority server in the list."
///
/// # Examples
///
/// ```
/// use lems_core::user::AuthorityList;
/// use lems_net::graph::NodeId;
///
/// let list = AuthorityList::new(vec![NodeId(3), NodeId(5), NodeId(9)]);
/// assert_eq!(list.primary(), NodeId(3));
/// assert_eq!(list.len(), 3);
/// assert_eq!(list.rank_of(NodeId(5)), Some(1));
/// ```
///
/// A list is immutable and shared: every user of a host group typically
/// has the same one, and every server replicating a user holds it, so
/// `clone` bumps a reference count.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AuthorityList {
    servers: Arc<[NodeId]>,
}

impl AuthorityList {
    /// Creates a list from primary-first server ids.
    ///
    /// # Panics
    ///
    /// Panics if the list is empty or contains duplicates — a user without
    /// an authority server cannot use the mail system, and duplicate
    /// entries would double-poll.
    pub fn new(servers: Vec<NodeId>) -> Self {
        assert!(!servers.is_empty(), "authority list must not be empty");
        // Lists are a handful of servers long: a quadratic scan beats
        // hashing.
        for (i, s) in servers.iter().enumerate() {
            assert!(!servers[..i].contains(s), "duplicate authority server {s}");
        }
        AuthorityList {
            servers: servers.into(),
        }
    }

    /// The primary server.
    pub fn primary(&self) -> NodeId {
        self.servers[0]
    }

    /// All servers, primary first.
    pub fn servers(&self) -> &[NodeId] {
        &self.servers
    }

    /// Number of servers in the list.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Always false (the constructor rejects empty lists); provided for
    /// API completeness.
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// Position of `server` in the list (0 = primary).
    pub fn rank_of(&self, server: NodeId) -> Option<usize> {
        self.servers.iter().position(|&s| s == server)
    }

    /// True if `server` appears anywhere in the list.
    pub fn contains(&self, server: NodeId) -> bool {
        self.rank_of(server).is_some()
    }
}

/// A registered mail user.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UserRecord {
    /// Dense id.
    pub id: UserId,
    /// Fully qualified name.
    pub name: MailName,
    /// The host node the user sits at (primary location under System 2).
    pub home_host: NodeId,
    /// Primary-first authority servers.
    pub authorities: AuthorityList,
}

impl UserRecord {
    /// Creates a record.
    pub(crate) fn new(
        id: UserId,
        name: MailName,
        home_host: NodeId,
        authorities: AuthorityList,
    ) -> Self {
        UserRecord {
            id,
            name,
            home_host,
            authorities,
        }
    }
}

impl fmt::Display for UserRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} @host n{} (primary s=n{})",
            self.id,
            self.name,
            self.home_host.0,
            self.authorities.primary().0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn authority_list_ordering() {
        let l = AuthorityList::new(vec![NodeId(2), NodeId(7)]);
        assert_eq!(l.primary(), NodeId(2));
        assert_eq!(l.rank_of(NodeId(7)), Some(1));
        assert_eq!(l.rank_of(NodeId(9)), None);
        assert!(l.contains(NodeId(2)));
        assert!(!l.is_empty());
    }

    #[test]
    fn clones_share_the_list_and_print_as_before() {
        let l = AuthorityList::new(vec![NodeId(2), NodeId(7), NodeId(4)]);
        let c = l.clone();
        assert!(std::ptr::eq(l.servers(), c.servers()));
        assert_eq!(c, AuthorityList::new(vec![NodeId(2), NodeId(7), NodeId(4)]));
        assert_ne!(c, AuthorityList::new(vec![NodeId(2), NodeId(4), NodeId(7)]));
        assert_eq!(
            format!("{l:?}"),
            "AuthorityList { servers: [NodeId(2), NodeId(7), NodeId(4)] }"
        );
    }

    #[test]
    #[should_panic(expected = "duplicate authority server n5")]
    fn a_duplicate_past_the_head_panics() {
        let _ = AuthorityList::new(vec![NodeId(1), NodeId(5), NodeId(3), NodeId(5)]);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_list_panics() {
        let _ = AuthorityList::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "duplicate authority server")]
    fn duplicate_servers_panic() {
        let _ = AuthorityList::new(vec![NodeId(1), NodeId(1)]);
    }

    #[test]
    fn user_record_display() {
        let r = UserRecord::new(
            UserId(3),
            "east.vax1.alice".parse().unwrap(),
            NodeId(9),
            AuthorityList::new(vec![NodeId(1)]),
        );
        let s = r.to_string();
        assert!(s.contains("u3") && s.contains("alice") && s.contains("n9"));
    }
}
