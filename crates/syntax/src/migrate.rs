//! User migration under syntax-directed naming (§3.1.4).
//!
//! "Since the names in this system are location dependent …, migrated
//! users have to change their names to indicate their new locations. Also
//! the users are assigned to new servers. Basically the operation involves
//! adding the user to the new location, then deleting the user from the
//! old location. Between the two operations, mail addressed to a migrated
//! user can be redirected to the new user address, and the senders are
//! notified about the name changes."

use std::collections::BTreeMap;

use lems_core::directory::{Directory, DirectoryError};
use lems_core::name::MailName;
use lems_core::user::AuthorityList;
use lems_net::graph::NodeId;
use lems_sim::time::SimTime;

/// A forwarding entry left behind at the old location.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Redirect {
    /// The name mail may still be addressed to.
    pub(crate) old_name: MailName,
    /// Where it should go now.
    pub new_name: MailName,
    /// The entry is honoured until this instant, after which mail to the
    /// old name bounces with a name-change notification.
    pub(crate) expires_at: SimTime,
}

/// The old region's table of migrated users.
///
/// # Examples
///
/// ```
/// use lems_syntax::RedirectTable;
/// use lems_sim::time::SimTime;
///
/// let mut t = RedirectTable::new();
/// let old = "east.h1.alice".parse()?;
/// let new = "west.h9.alice".parse()?;
/// t.insert(old, new, SimTime::from_units(100.0));
/// let hit = t.lookup(&"east.h1.alice".parse()?, SimTime::from_units(50.0));
/// assert!(hit.is_some());
/// let miss = t.lookup(&"east.h1.alice".parse()?, SimTime::from_units(150.0));
/// assert!(miss.is_none());
/// # Ok::<(), lems_core::name::ParseNameError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct RedirectTable {
    entries: BTreeMap<MailName, Redirect>,
    /// Senders notified of name changes (old name -> notification count).
    notifications: BTreeMap<MailName, u64>,
}

impl RedirectTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        RedirectTable::default()
    }

    /// Installs a redirect.
    pub fn insert(&mut self, old_name: MailName, new_name: MailName, expires_at: SimTime) {
        self.entries.insert(
            old_name.clone(),
            Redirect {
                old_name,
                new_name,
                expires_at,
            },
        );
    }

    /// Looks up a still-valid redirect; records a sender notification on
    /// every hit ("the senders are notified about the name changes").
    pub fn lookup(&mut self, name: &MailName, now: SimTime) -> Option<&Redirect> {
        let hit = self.entries.get(name).filter(|r| now < r.expires_at);
        if hit.is_some() {
            *self.notifications.entry(name.clone()).or_insert(0) += 1;
        }
        hit
    }

    /// Drops expired entries, returning how many were removed.
    pub fn expire(&mut self, now: SimTime) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, r| now < r.expires_at);
        before - self.entries.len()
    }

    /// True when no entries remain.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// How many redirected lookups have hit `old_name`.
    pub fn notification_count(&self, old_name: &MailName) -> u64 {
        self.notifications.get(old_name).copied().unwrap_or(0)
    }
}

/// Result of migrating one user.
#[derive(Clone, Debug)]
pub struct MigrationOutcome {
    /// The new name at the new location.
    pub new_name: MailName,
}

/// Performs the §3.1.4 migration: register the user under a new
/// location-dependent name, retire the old name, and leave a redirect for
/// `redirect_ttl` worth of time.
///
/// # Errors
///
/// Returns the directory's error if the old name is unknown or the new
/// name is taken; the directory is left unchanged on error.
#[allow(clippy::too_many_arguments)] // mirrors the paper's migration inputs
pub fn migrate_user(
    directory: &mut Directory,
    redirects: &mut RedirectTable,
    old_name: &MailName,
    new_region_token: &str,
    new_host_token: &str,
    new_home_host: NodeId,
    new_authorities: AuthorityList,
    now: SimTime,
    redirect_ttl: lems_sim::time::SimDuration,
) -> Result<MigrationOutcome, DirectoryError> {
    let old = directory
        .by_name(old_name)
        .ok_or_else(|| DirectoryError::UnknownName(old_name.clone()))?
        .clone();
    let new_name = old
        .name
        .relocated(new_region_token, new_host_token)
        .map_err(|_| DirectoryError::UnknownName(old_name.clone()))?;
    let expires_at = now + redirect_ttl;
    rename(
        directory,
        redirects,
        old_name,
        &new_name,
        new_home_host,
        new_authorities,
        expires_at,
    )?;
    Ok(MigrationOutcome { new_name })
}

/// Moves the user `old_name` to `new_name` at `new_home_host` — "adding
/// the user to the new location, then deleting the user from the old
/// location" — and redirects the old name until `expires_at`.
pub(crate) fn rename(
    directory: &mut Directory,
    redirects: &mut RedirectTable,
    old_name: &MailName,
    new_name: &MailName,
    new_home_host: NodeId,
    new_authorities: AuthorityList,
    expires_at: SimTime,
) -> Result<(), DirectoryError> {
    directory.register(new_name.clone(), new_home_host, new_authorities)?;
    directory.unregister(old_name)?;
    redirects.insert(old_name.clone(), new_name.clone(), expires_at);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lems_sim::time::SimDuration;

    fn t(u: f64) -> SimTime {
        SimTime::from_units(u)
    }

    fn setup() -> (Directory, RedirectTable) {
        let mut d = Directory::new();
        d.map_region("east", lems_net::topology::RegionId(0));
        d.map_region("west", lems_net::topology::RegionId(1));
        d.register(
            "east.h1.alice".parse().unwrap(),
            NodeId(10),
            AuthorityList::new(vec![NodeId(0)]),
        )
        .unwrap();
        (d, RedirectTable::new())
    }

    #[test]
    fn migration_renames_and_redirects() {
        let (mut d, mut r) = setup();
        let old: MailName = "east.h1.alice".parse().unwrap();
        let out = migrate_user(
            &mut d,
            &mut r,
            &old,
            "west",
            "h9",
            NodeId(20),
            AuthorityList::new(vec![NodeId(5)]),
            t(10.0),
            SimDuration::from_units(50.0),
        )
        .unwrap();
        assert_eq!(out.new_name.to_string(), "west.h9.alice");
        assert!(!d.is_registered(&old));
        assert!(d.is_registered(&out.new_name));

        // Mail to the old name redirects while the entry is live …
        let hit = r.lookup(&old, t(30.0)).cloned().unwrap();
        assert_eq!(hit.new_name, out.new_name);
        assert_eq!(r.notification_count(&old), 1);
        // … and stops after expiry.
        assert!(r.lookup(&old, t(70.0)).is_none());
        assert_eq!(r.expire(t(70.0)), 1);
        assert!(r.is_empty());
    }

    #[test]
    fn migrating_unknown_user_fails_cleanly() {
        let (mut d, mut r) = setup();
        let ghost: MailName = "east.h1.ghost".parse().unwrap();
        let err = migrate_user(
            &mut d,
            &mut r,
            &ghost,
            "west",
            "h9",
            NodeId(20),
            AuthorityList::new(vec![NodeId(5)]),
            t(1.0),
            SimDuration::from_units(10.0),
        )
        .unwrap_err();
        assert!(matches!(err, DirectoryError::UnknownName(_)));
        assert_eq!(d.len(), 1);
        assert!(r.is_empty());
    }

    #[test]
    fn migration_to_taken_name_fails_without_side_effects() {
        let (mut d, mut r) = setup();
        d.register(
            "west.h9.alice".parse().unwrap(),
            NodeId(21),
            AuthorityList::new(vec![NodeId(6)]),
        )
        .unwrap();
        let old: MailName = "east.h1.alice".parse().unwrap();
        let err = migrate_user(
            &mut d,
            &mut r,
            &old,
            "west",
            "h9",
            NodeId(20),
            AuthorityList::new(vec![NodeId(5)]),
            t(1.0),
            SimDuration::from_units(10.0),
        )
        .unwrap_err();
        assert!(matches!(err, DirectoryError::DuplicateName(_)));
        assert!(
            d.is_registered(&old),
            "old name must survive a failed migration"
        );
        assert!(r.is_empty());
    }
}
