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
use lems_core::user::{AuthorityList, UserId};
use lems_net::graph::NodeId;
use lems_sim::time::SimTime;

/// A forwarding entry left behind at the old location.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct Redirect {
    /// Where mail to the old name should go now.
    pub(crate) new_name: MailName,
    /// The entry is honoured until this instant, after which mail to the
    /// old name bounces with a name-change notification.
    expires_at: SimTime,
}

/// The old region's table of migrated users, keyed by old name.
#[derive(Clone, Debug, Default)]
pub(crate) struct RedirectTable {
    entries: BTreeMap<MailName, Redirect>,
    /// Senders notified of name changes (old name -> notification count).
    notifications: BTreeMap<MailName, u64>,
}

impl RedirectTable {
    /// Creates an empty table.
    pub(crate) fn new() -> Self {
        RedirectTable::default()
    }

    /// Installs a redirect.
    fn insert(&mut self, old_name: MailName, new_name: MailName, expires_at: SimTime) {
        self.entries.insert(
            old_name,
            Redirect {
                new_name,
                expires_at,
            },
        );
    }

    /// Looks up a still-valid redirect; records a sender notification on
    /// every hit ("the senders are notified about the name changes").
    pub(crate) fn lookup(&mut self, name: &MailName, now: SimTime) -> Option<&Redirect> {
        let hit = self.entries.get(name).filter(|r| now < r.expires_at);
        if hit.is_some() {
            *self.notifications.entry(name.clone()).or_insert(0) += 1;
        }
        hit
    }

    /// How many redirected lookups have hit `old_name`.
    #[cfg(test)]
    pub(crate) fn notification_count(&self, old_name: &MailName) -> u64 {
        self.notifications.get(old_name).copied().unwrap_or(0)
    }
}

/// Moves the user `old_name` to `new_name` at `new_home_host` — "adding
/// the user to the new location, then deleting the user from the old
/// location" — and redirects the old name until `expires_at`. Returns the
/// new name's id.
pub(crate) fn rename(
    directory: &mut Directory,
    redirects: &mut RedirectTable,
    old_name: &MailName,
    new_name: &MailName,
    new_home_host: NodeId,
    new_authorities: AuthorityList,
    expires_at: SimTime,
) -> Result<UserId, DirectoryError> {
    let id = directory.register(new_name.clone(), new_home_host, new_authorities)?;
    directory.unregister(old_name)?;
    redirects.insert(old_name.clone(), new_name.clone(), expires_at);
    Ok(id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actors::{Deployment, DeploymentConfig};
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
        let new: MailName = "west.h9.alice".parse().unwrap();
        let authorities = AuthorityList::new(vec![NodeId(5)]);
        rename(&mut d, &mut r, &old, &new, NodeId(20), authorities, t(60.0)).unwrap();
        assert!(!d.is_registered(&old));
        assert_eq!(d.by_name(&new).unwrap().home_host, NodeId(20));

        // Mail to the old name redirects while the entry is live, and
        // the sender is notified …
        let hit = r.lookup(&old, t(30.0)).cloned().unwrap();
        assert_eq!(hit.new_name, new);
        assert_eq!(r.notification_count(&old), 1);
        // … and stops after expiry.
        assert!(r.lookup(&old, t(70.0)).is_none());
        assert_eq!(r.notification_count(&old), 1);
    }

    /// The live migration looks the old name up before it touches
    /// anything: an unknown one changes neither the directory nor the
    /// redirects.
    #[test]
    fn migrating_unknown_user_fails_cleanly() {
        let f = lems_net::generators::fig1();
        let cfg = DeploymentConfig::default();
        let mut d = Deployment::build(&f.topology, &[1, 1, 0, 0, 0, 0], &cfg);
        let ghost: MailName = "r0.H1.ghost".parse().unwrap();
        let ttl = SimDuration::from_units(10.0);
        let err = d
            .migrate_user_live(&ghost, f.hosts[1], None, ttl)
            .unwrap_err();
        assert!(matches!(err, DirectoryError::UnknownName(_)));
        assert_eq!(d.directory.len(), 2);
        assert!(d.redirects.borrow_mut().lookup(&ghost, t(1.0)).is_none());
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
        let new: MailName = "west.h9.alice".parse().unwrap();
        let authorities = AuthorityList::new(vec![NodeId(5)]);
        let err = rename(&mut d, &mut r, &old, &new, NodeId(20), authorities, t(11.0)).unwrap_err();
        assert!(matches!(err, DirectoryError::DuplicateName(_)));
        assert!(
            d.is_registered(&old),
            "old name must survive a failed migration"
        );
        assert_eq!(d.by_name(&new).unwrap().home_host, NodeId(21));
        assert!(r.lookup(&old, t(1.0)).is_none());
    }
}
