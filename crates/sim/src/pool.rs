//! A generation-checked slab for event payloads.
//!
//! The calendar queue ([`queue`](crate::queue)) keeps its ordering
//! structures small and cache-dense by storing 24-byte index entries and
//! parking the actual payloads here. Freed slots are recycled through a
//! free list, so steady-state scheduling — push one event, pop one event —
//! allocates nothing once the pool has warmed up to the peak pending count.
//!
//! Every slot carries a *generation* that is bumped when its value is
//! taken. A [`Handle`] captures the generation at insert time, so a stale
//! handle (slot since recycled) is detected and refused instead of silently
//! aliasing another event's payload — the classic slab-reuse bug class.

/// A generation-checked reference to a pooled value.
///
/// Handles are `Copy` and 8 bytes: a slot index plus the slot generation
/// observed at insert time. A handle is *live* until the value is taken;
/// afterwards every access through it returns `None`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Handle {
    index: u32,
    gen: u32,
}

impl Handle {
    /// The slot this handle names, as [`Pool::at`] and [`Pool::at_mut`] take it.
    pub(crate) fn index(self) -> u32 {
        self.index
    }
}

struct Slot<T> {
    gen: u32,
    val: Option<T>,
}

/// Allocation-behaviour counters for one [`Pool`].
///
/// Hits recycle a freed slot; misses allocate a fresh one (every miss
/// grows the slab, so `misses == grows` today — both are kept so the
/// distinction survives a future reservation strategy). A warmed-up
/// steady state is *all hits*: `crates/sim/tests/zero_alloc.rs` pins the
/// counter form of its counting-allocator proof against these.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub(crate) struct PoolStats {
    /// Inserts served by recycling a freed slot.
    pub(crate) hits: u64,
    /// Inserts that found no free slot.
    pub(crate) misses: u64,
    /// Slots appended to the slab.
    pub(crate) grows: u64,
    /// Values currently live.
    pub(crate) live: usize,
    /// Slots allocated (live + recyclable) — the high-water mark.
    pub(crate) capacity: usize,
}

/// A slab of `T` with free-list recycling and generation-checked handles.
///
/// # Examples
///
/// ```
/// use lems_sim::pool::Pool;
///
/// let mut p = Pool::new();
/// let a = p.insert("alpha");
/// let b = p.insert("beta");
/// assert_eq!(p.get(a), Some(&"alpha"));
/// assert_eq!(p.take(a), Some("alpha"));
/// assert_eq!(p.get(a), None, "taken handles are dead");
///
/// // The freed slot is recycled under a new generation: the old handle
/// // stays dead.
/// let c = p.insert("gamma");
/// assert_eq!(p.get(a), None);
/// assert_eq!(p.get(c), Some(&"gamma"));
/// assert_eq!(p.get(b), Some(&"beta"));
/// ```
pub struct Pool<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    live: usize,
    hits: u64,
    misses: u64,
}

impl<T> Default for Pool<T> {
    fn default() -> Self {
        Pool::new()
    }
}

impl<T> Pool<T> {
    /// An empty pool.
    pub fn new() -> Self {
        Pool {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// An empty pool with room for `capacity` values before reallocating.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Pool {
            slots: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            live: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Stores `val`, recycling a freed slot when one exists.
    pub fn insert(&mut self, val: T) -> Handle {
        self.insert_with(|_| val)
    }

    /// Stores the value `make` builds from the handle it will live under —
    /// for values that must know their own handle (a timer event carries
    /// the id that removes it).
    pub(crate) fn insert_with(&mut self, make: impl FnOnce(Handle) -> T) -> Handle {
        self.live += 1;
        if let Some(index) = self.free.pop() {
            self.hits += 1;
            let slot = &mut self.slots[index as usize];
            let h = Handle {
                index,
                gen: slot.gen,
            };
            slot.val = Some(make(h));
            return h;
        }
        self.misses += 1;
        let index = u32::try_from(self.slots.len()).unwrap_or(u32::MAX);
        debug_assert!(index != u32::MAX, "pool exceeded u32 slot space");
        let h = Handle { index, gen: 0 };
        self.slots.push(Slot {
            gen: 0,
            val: Some(make(h)),
        });
        h
    }

    fn slot_of(&self, h: Handle) -> Option<&Slot<T>> {
        self.slots
            .get(h.index as usize)
            .filter(|s| s.gen == h.gen && s.val.is_some())
    }

    /// Borrows the value behind `h`, or `None` when the handle is stale.
    pub fn get(&self, h: Handle) -> Option<&T> {
        self.slot_of(h).and_then(|s| s.val.as_ref())
    }

    /// Mutably borrows the value behind `h`, or `None` when stale.
    pub(crate) fn get_mut(&mut self, h: Handle) -> Option<&mut T> {
        self.slots
            .get_mut(h.index as usize)
            .filter(|s| s.gen == h.gen)
            .and_then(|s| s.val.as_mut())
    }

    /// The live value in slot `index` and the handle it lives under — for a
    /// structure threaded through the slots themselves, which links them by
    /// bare index. `None` for a free slot or an index beyond the slab.
    pub(crate) fn at(&self, index: u32) -> Option<(Handle, &T)> {
        let slot = self.slots.get(index as usize)?;
        let gen = slot.gen;
        slot.val.as_ref().map(|val| (Handle { index, gen }, val))
    }

    /// The live value in slot `index`, mutably; `None` as for [`Pool::at`].
    pub(crate) fn at_mut(&mut self, index: u32) -> Option<&mut T> {
        self.slots.get_mut(index as usize)?.val.as_mut()
    }

    /// Removes and returns the value behind `h`, freeing its slot under a
    /// new generation. `None` when the handle is stale.
    pub fn take(&mut self, h: Handle) -> Option<T> {
        let slot = self
            .slots
            .get_mut(h.index as usize)
            .filter(|s| s.gen == h.gen)?;
        let val = slot.val.take()?;
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(h.index);
        self.live -= 1;
        Some(val)
    }

    /// Allocation-behaviour counters accumulated since construction.
    pub(crate) fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits,
            misses: self.misses,
            grows: self.misses,
            live: self.live,
            capacity: self.slots.len(),
        }
    }

    /// Drops every live value and recycles all slots (generations advance,
    /// so handles issued before the clear are all dead).
    pub(crate) fn clear(&mut self) {
        self.free.clear();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if slot.val.take().is_some() {
                slot.gen = slot.gen.wrapping_add(1);
            }
            self.free.push(i as u32);
        }
        self.live = 0;
    }
}

impl<T> std::fmt::Debug for Pool<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("live", &self.live)
            .field("capacity", &self.slots.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_take_round_trip() {
        let mut p = Pool::new();
        let h = p.insert(42u64);
        assert_eq!(p.stats().live, 1);
        assert_eq!(p.get(h), Some(&42));
        *p.get_mut(h).unwrap() = 43;
        assert_eq!(p.take(h), Some(43));
        assert_eq!(p.stats().live, 0);
        assert_eq!(p.take(h), None, "double-take refused");
    }

    #[test]
    fn stale_handles_are_refused_after_recycling() {
        let mut p = Pool::new();
        let a = p.insert("a");
        let live = p.insert("live");
        assert_eq!(p.take(a), Some("a"));
        assert_eq!(p.get(a), None, "taken handles are dead");
        let b = p.insert("b");
        // Same slot, new generation.
        assert_eq!(p.get(a), None);
        assert_eq!(p.get_mut(a), None);
        assert_eq!(p.take(a), None);
        assert_eq!(p.get(b), Some(&"b"));
        assert_eq!(p.get(live), Some(&"live"), "the neighbour is untouched");
        assert_eq!(p.stats().capacity, 2, "slot was recycled, not re-allocated");
    }

    #[test]
    fn steady_state_recycles_without_growth() {
        let mut p = Pool::new();
        let mut handles: Vec<Handle> = (0..64).map(|i| p.insert(i)).collect();
        let peak = p.stats().capacity;
        for round in 0..1000u32 {
            let h = handles.remove(0);
            let v = p.take(h).expect("live handle");
            assert_eq!(p.get(h), None);
            handles.push(p.insert(v + round));
        }
        assert_eq!(
            p.stats().capacity,
            peak,
            "steady churn must not grow the slab"
        );
        assert_eq!(p.stats().live, 64);
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut p = Pool::new();
        let a = p.insert(1);
        let b = p.insert(2);
        assert_eq!(p.stats().misses, 2, "cold inserts miss");
        assert_eq!(p.stats().hits, 0);
        p.take(a);
        p.take(b);
        p.insert(3);
        p.insert(4);
        let s = p.stats();
        assert_eq!(s.hits, 2, "warm inserts recycle");
        assert_eq!(s.misses, 2);
        assert_eq!(s.grows, s.misses);
        assert_eq!(s.live, 2);
        assert_eq!(s.capacity, 2);
    }

    #[test]
    fn clear_kills_all_handles() {
        let mut p = Pool::new();
        let hs: Vec<Handle> = (0..8).map(|i| p.insert(i)).collect();
        p.clear();
        assert_eq!(p.stats().live, 0);
        for h in hs {
            assert_eq!(p.get(h), None);
        }
        // Slots are recyclable after clear.
        let h = p.insert(99);
        assert_eq!(p.get(h), Some(&99));
        assert_eq!(p.stats().capacity, 8);
    }
}
