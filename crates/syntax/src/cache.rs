//! Name-resolution caching (§4.1).
//!
//! The paper lists "caching capability (i.e., the capability of
//! maintaining a list of both frequently and recently used names and
//! addresses)" among the efficiency criteria. This module provides the
//! cache a user interface or server keeps in front of the resolution
//! machinery: bounded LRU with an optional time-to-live, explicit
//! invalidation for reconfiguration events, and hit/miss accounting.

use std::collections::BTreeMap;

use lems_core::name::MailName;
use lems_core::user::AuthorityList;
use lems_sim::time::{SimDuration, SimTime};

/// A bounded LRU cache from mail names to authority lists.
///
/// Entries expire after the configured TTL (stale routing knowledge is
/// worse than a miss: it sends mail to servers that may no longer be
/// authorities) and are evicted least-recently-used beyond capacity.
///
/// # Examples
///
/// ```
/// use lems_syntax::cache::ResolutionCache;
/// use lems_core::user::AuthorityList;
/// use lems_net::graph::NodeId;
/// use lems_sim::time::{SimDuration, SimTime};
///
/// let mut cache = ResolutionCache::new(2, SimDuration::from_units(100.0));
/// let alice = "east.h1.alice".parse()?;
/// let list = AuthorityList::new(vec![NodeId(1)]);
/// cache.put(alice, list.clone(), SimTime::ZERO);
/// let hit = cache.get(&"east.h1.alice".parse()?, SimTime::from_units(1.0));
/// assert_eq!(hit, Some(&list));
/// assert_eq!(cache.stats().hits, 1);
/// # Ok::<(), lems_core::name::ParseNameError>(())
/// ```
#[derive(Clone, Debug)]
pub struct ResolutionCache {
    capacity: usize,
    ttl: SimDuration,
    entries: BTreeMap<MailName, Entry>,
    /// Monotonic use counter implementing LRU ordering.
    tick: u64,
    stats: CacheStats,
}

#[derive(Clone, Debug)]
struct Entry {
    list: AuthorityList,
    inserted_at: SimTime,
    last_used: u64,
}

/// Hit/miss accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed (absent or expired).
    pub(crate) misses: u64,
    /// Entries evicted by capacity pressure.
    pub evictions: u64,
    /// Entries dropped because they had expired.
    pub(crate) expirations: u64,
    /// Entries removed by explicit invalidation.
    pub(crate) invalidations: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` (0 when no lookups yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl ResolutionCache {
    /// Creates a cache holding at most `capacity` entries, each valid for
    /// `ttl` after insertion.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize, ttl: SimDuration) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        ResolutionCache {
            capacity,
            ttl,
            entries: BTreeMap::new(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Looks `name` up at time `now`, refreshing its LRU position on a
    /// hit. Expired entries count as misses and are dropped.
    pub fn get(&mut self, name: &MailName, now: SimTime) -> Option<&AuthorityList> {
        self.tick += 1;
        let expired = match self.entries.get(name) {
            Some(e) => now.duration_since(e.inserted_at) >= self.ttl,
            None => {
                self.stats.misses += 1;
                return None;
            }
        };
        if expired {
            self.entries.remove(name);
            self.stats.expirations += 1;
            self.stats.misses += 1;
            return None;
        }
        self.stats.hits += 1;
        let tick = self.tick;
        self.entries.get_mut(name).map(|e| {
            e.last_used = tick;
            &e.list
        })
    }

    /// Inserts or refreshes an entry, evicting the least recently used
    /// entry if at capacity.
    pub fn put(&mut self, name: MailName, list: AuthorityList, now: SimTime) {
        self.tick += 1;
        if !self.entries.contains_key(&name) && self.entries.len() >= self.capacity {
            if let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&victim);
                self.stats.evictions += 1;
            }
        }
        self.entries.insert(
            name,
            Entry {
                list,
                inserted_at: now,
                last_used: self.tick,
            },
        );
    }

    /// Drops every entry whose list mentions `server` — the
    /// reconfiguration hook for server removal (§3.1.3c).
    pub fn invalidate_server(&mut self, server: lems_net::graph::NodeId) -> usize {
        let victims: Vec<MailName> = self
            .entries
            .iter()
            .filter(|(_, e)| e.list.contains(server))
            .map(|(k, _)| k.clone())
            .collect();
        for v in &victims {
            self.entries.remove(v);
        }
        self.stats.invalidations += victims.len() as u64;
        victims.len()
    }

    /// Accounting so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lems_net::graph::NodeId;
    use proptest::prelude::*;

    fn name(i: usize) -> MailName {
        format!("east.h1.user{i}").parse().unwrap()
    }

    fn list(s: usize) -> AuthorityList {
        AuthorityList::new(vec![NodeId(s)])
    }

    fn t(u: f64) -> SimTime {
        SimTime::from_units(u)
    }

    #[test]
    fn hit_miss_and_rate() {
        let mut c = ResolutionCache::new(4, SimDuration::from_units(100.0));
        assert!(c.get(&name(0), t(0.0)).is_none());
        c.put(name(0), list(1), t(0.0));
        assert!(c.get(&name(0), t(1.0)).is_some());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ttl_expires_entries() {
        let mut c = ResolutionCache::new(4, SimDuration::from_units(10.0));
        c.put(name(0), list(1), t(0.0));
        assert!(c.get(&name(0), t(9.9)).is_some());
        assert!(c.get(&name(0), t(10.0)).is_none(), "expired at exactly ttl");
        assert_eq!(c.stats().expirations, 1);
        assert!(c.entries.is_empty());
    }

    #[test]
    fn lru_eviction_prefers_stale_entries() {
        let mut c = ResolutionCache::new(2, SimDuration::from_units(1000.0));
        c.put(name(0), list(0), t(0.0));
        c.put(name(1), list(1), t(1.0));
        // Touch 0 so 1 becomes the LRU victim.
        let _ = c.get(&name(0), t(2.0));
        c.put(name(2), list(2), t(3.0));
        assert!(c.get(&name(0), t(4.0)).is_some());
        assert!(c.get(&name(1), t(4.0)).is_none(), "evicted");
        assert!(c.get(&name(2), t(4.0)).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn server_invalidation_targets_lists() {
        let mut c = ResolutionCache::new(8, SimDuration::from_units(1000.0));
        c.put(
            name(0),
            AuthorityList::new(vec![NodeId(1), NodeId(2)]),
            t(0.0),
        );
        c.put(name(1), AuthorityList::new(vec![NodeId(3)]), t(0.0));
        c.put(name(2), AuthorityList::new(vec![NodeId(2)]), t(0.0));
        assert_eq!(c.invalidate_server(NodeId(2)), 2);
        assert_eq!(c.entries.len(), 1);
        assert!(c.get(&name(1), t(1.0)).is_some());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = ResolutionCache::new(0, SimDuration::from_units(1.0));
    }

    proptest! {
        /// The cache never exceeds capacity, and a just-inserted entry is
        /// always retrievable before its TTL.
        #[test]
        fn capacity_bound_holds(ops in proptest::collection::vec((0usize..20, 0u64..50), 1..200)) {
            let mut c = ResolutionCache::new(5, SimDuration::from_units(1e6));
            for (i, (user, at)) in ops.into_iter().enumerate() {
                let now = SimTime::from_ticks(at + i as u64);
                c.put(name(user), list(user), now);
                prop_assert!(c.entries.len() <= 5);
                prop_assert!(c.get(&name(user), now).is_some());
            }
        }
    }
}
