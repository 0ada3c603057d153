//! Message archiving and clean-up (§3.1.2c).
//!
//! "Another option can be provided to allow a copy of the message to be
//! retained on the server. In that case, some policy of message archiving
//! and clean-up must be implemented to protect the servers' storage from
//! being used up."
//!
//! A [`RetentionPolicy`] bounds each mailbox by age and by count;
//! [`sweep`] applies it across a server's store and reports what was
//! archived. All mutation routes through [`MailStore`] — the policy never
//! touches a [`Mailbox`](lems_core::mailbox::Mailbox) directly, so a
//! durable backend journals every expiry exactly like a retrieval
//! (it could not: `Mailbox`'s mutators are `pub(crate)` in `lems-core`).

use lems_core::name::MailName;
use lems_core::store::MailStore;
use lems_sim::time::{SimDuration, SimTime};

/// Storage bounds for retained mail.
#[derive(Clone, Copy, Debug)]
pub struct RetentionPolicy {
    /// Messages older than this are archived away from server storage.
    pub max_age: SimDuration,
    /// At most this many messages stay per mailbox (oldest leave first).
    pub max_per_mailbox: usize,
}

impl RetentionPolicy {
    /// A permissive default: 1,000 time units, 1,000 messages.
    pub fn generous() -> Self {
        RetentionPolicy {
            max_age: SimDuration::from_units(1_000.0),
            max_per_mailbox: 1_000,
        }
    }

    /// Applies the policy to `owner`'s mailbox at time `now`; returns how
    /// many messages were removed by each rule.
    pub fn apply(
        &self,
        store: &mut dyn MailStore,
        owner: &MailName,
        now: SimTime,
    ) -> (usize, usize) {
        let cutoff = now - self.max_age;
        let by_age = store.expire_older_than(owner, cutoff);
        let mut by_count = 0;
        loop {
            let oldest = store
                .mailboxes()
                .get(owner)
                .filter(|mb| mb.len() > self.max_per_mailbox)
                .and_then(|mb| mb.peek().first().map(|s| s.message.id));
            let Some(oldest) = oldest else { break };
            store.remove(owner, oldest);
            by_count += 1;
        }
        (by_age, by_count)
    }
}

/// What one clean-up pass removed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CleanupReport {
    /// Messages archived for exceeding the age bound.
    pub archived_by_age: usize,
    /// Messages archived for exceeding the per-mailbox count bound.
    pub archived_by_count: usize,
    /// Mailboxes touched.
    pub mailboxes_swept: usize,
}

impl CleanupReport {
    /// Total messages removed from server storage.
    pub fn total_archived(&self) -> usize {
        self.archived_by_age + self.archived_by_count
    }
}

/// Sweeps every mailbox of a server's store under `policy` at time `now`.
pub fn sweep(store: &mut dyn MailStore, policy: &RetentionPolicy, now: SimTime) -> CleanupReport {
    let owners: Vec<MailName> = store.mailboxes().keys().cloned().collect();
    let mut report = CleanupReport::default();
    for owner in owners {
        let before = store
            .mailboxes()
            .get(&owner)
            .map_or(0, lems_core::Mailbox::len);
        let (age, count) = policy.apply(store, &owner, now);
        let after = store
            .mailboxes()
            .get(&owner)
            .map_or(0, lems_core::Mailbox::len);
        report.archived_by_age += age;
        report.archived_by_count += count;
        if age + count > 0 || before != after {
            report.mailboxes_swept += 1;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use lems_core::message::{Message, MessageIdGen};
    use lems_core::store::MemStore;

    fn store_with(owners: &[MailName], n: usize, spacing: f64) -> (MemStore, MessageIdGen) {
        let mut store = MemStore::stable();
        let mut gen = MessageIdGen::new();
        for owner in owners {
            for i in 0..n {
                let m = Message::new(
                    gen.next_id(),
                    "east.h1.s".parse().unwrap(),
                    owner.clone(),
                    "s",
                    "b",
                    SimTime::ZERO,
                );
                store.deposit(m, SimTime::from_units(i as f64 * spacing));
            }
        }
        (store, gen)
    }

    fn owner(i: usize) -> MailName {
        format!("east.h1.u{i}").parse().unwrap()
    }

    #[test]
    fn age_bound_archives_old_mail() {
        let o = owner(0);
        let (mut store, _) = store_with(std::slice::from_ref(&o), 10, 10.0); // deposits at 0,10,..,90
        let policy = RetentionPolicy {
            max_age: SimDuration::from_units(35.0),
            max_per_mailbox: 100,
        };
        let (by_age, by_count) = policy.apply(&mut store, &o, SimTime::from_units(100.0));
        // cutoff = 65: deposits at 0..60 leave (7 messages).
        assert_eq!(by_age, 7);
        assert_eq!(by_count, 0);
        assert_eq!(store.mailboxes()[&o].len(), 3);
    }

    #[test]
    fn count_bound_keeps_newest() {
        let o = owner(0);
        let (mut store, _) = store_with(std::slice::from_ref(&o), 10, 1.0);
        let policy = RetentionPolicy {
            max_age: SimDuration::from_units(1e6),
            max_per_mailbox: 4,
        };
        let (by_age, by_count) = policy.apply(&mut store, &o, SimTime::from_units(20.0));
        assert_eq!(by_age, 0);
        assert_eq!(by_count, 6);
        assert_eq!(store.mailboxes()[&o].len(), 4);
        // The survivors are the newest deposits.
        assert!(store.mailboxes()[&o]
            .peek()
            .iter()
            .all(|s| s.deposited_at >= SimTime::from_units(6.0)));
    }

    #[test]
    fn sweep_reports_across_mailboxes() {
        // Two mailboxes with different deposit cadences.
        let (mut store, mut gen) = store_with(&[owner(0)], 10, 10.0);
        for i in 0..10 {
            let m = Message::new(
                gen.next_id(),
                "east.h1.s".parse().unwrap(),
                owner(1),
                "s",
                "b",
                SimTime::ZERO,
            );
            store.deposit(m, SimTime::from_units(i as f64));
        }
        let policy = RetentionPolicy {
            max_age: SimDuration::from_units(50.0),
            max_per_mailbox: 5,
        };
        let report = sweep(&mut store, &policy, SimTime::from_units(100.0));
        assert!(report.total_archived() > 0);
        assert_eq!(report.mailboxes_swept, 2);
        for mb in store.mailboxes().values() {
            assert!(mb.len() <= 5);
        }
    }

    #[test]
    fn generous_policy_touches_nothing_fresh() {
        let o = owner(0);
        let (mut store, _) = store_with(std::slice::from_ref(&o), 5, 1.0);
        let policy = RetentionPolicy::generous();
        let (a, c) = policy.apply(&mut store, &o, SimTime::from_units(10.0));
        assert_eq!((a, c), (0, 0));
        assert_eq!(store.mailboxes()[&o].len(), 5);
    }
}
