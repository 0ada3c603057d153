//! The future-event list: a time-ordered priority queue with a deterministic
//! FIFO tie-break.
//!
//! Two events scheduled for the same instant fire in the order they were
//! scheduled. This is what makes same-seed runs byte-for-byte reproducible.
//! A sequence number can also be taken ahead of its event
//! ([`EventQueue::reserve`]); the event pushed under it later
//! ([`EventQueue::push_reserved`]) sorts as if it had been pushed then.
//!
//! # Structure
//!
//! The queue is a bucketed *calendar queue* in the style of Brown (CACM
//! 1988), rebuilt here for the mail simulations' hot path. Time is divided
//! into power-of-two-wide *days*; each day hashes onto a ring of buckets.
//! The current day is kept extracted into a sorted `front` vector consumed
//! by a cursor, so `pop`, `peek_time` and the same-instant
//! [`ready`](EventQueue::ready) view are O(1) and allocation-free. Pushes
//! binary-insert into the front (same day) or link onto a bucket's chain
//! (later day); days beyond the ring spill into a small ordered overflow
//! map. Payloads live in a generation-checked `Pool`
//! beside their `(ticks, seq)` key and a `next` index, and a bucket is just
//! the `u32` index of its first slot: the chain runs through the pool's own
//! slots, so filing an event under a later day is two stores and never an
//! allocation, however cold the bucket. Freed slots recycle without touching
//! the allocator. The ring resizes (and re-picks its day width from the
//! observed inter-event gaps) when the pending count outgrows or undershoots
//! it, keeping inserts and pops amortized O(1).
//!
//! What allocates, then, is the pool's slab growing to the peak pending
//! count, the `front` vector growing to about twice the most events of one
//! day pending at once (it drops its consumed prefix before it grows), and
//! the O(log n) ring rebuilds — nothing per bucket and nothing per event
//! (`tests/zero_alloc.rs` counts it on a cold ring).
//!
//! Pop order is exactly `(time, sequence)`; `tests/queue_differential.rs`
//! crosses every operation against a `BTreeMap` model of that contract.
//!
//! The queue exposes the *ready set* — every event scheduled for the
//! earliest pending instant — so a [`Scheduler`](crate::sched::Scheduler)
//! can pick which one fires next during schedule exploration.

use std::collections::BTreeMap;

use crate::pool::{Handle, Pool};
use crate::time::SimTime;

/// Monotonic sequence number used to break ties between events scheduled for
/// the same instant.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub struct EventSeq(pub u64);

/// A 24-byte index entry of the sorted front: where and when, with the
/// payload parked in the pool behind a generation-checked handle.
#[derive(Clone, Copy, Debug)]
struct Entry {
    ticks: u64,
    seq: u64,
    slot: Handle,
}

impl Entry {
    fn key(&self) -> (u64, u64) {
        (self.ticks, self.seq)
    }
}

/// What a pool slot holds: the payload, its key, and the link to the next
/// slot of the same bucket (meaningful only while the entry is in the ring).
struct Node<E> {
    ticks: u64,
    seq: u64,
    next: u32,
    val: E,
}

/// End of a bucket chain; an empty bucket's head.
const NIL: u32 = u32::MAX;

/// The entries chained from slot `head` on, in chain order.
fn chain<E>(pool: &Pool<Node<E>>, head: u32) -> impl Iterator<Item = Entry> + '_ {
    let mut cur = head;
    std::iter::from_fn(move || {
        let (slot, node) = pool.at(cur)?;
        cur = node.next;
        Some(Entry {
            ticks: node.ticks,
            seq: node.seq,
            slot,
        })
    })
}

/// Smallest bucket-ring size; the ring never shrinks below this.
const MIN_BUCKETS: usize = 16;
/// Largest bucket-ring size; growth stops here.
const MAX_BUCKETS: usize = 1 << 20;
/// Initial day width exponent: 2^20 ticks ≈ one simulated time unit.
const INITIAL_SHIFT: u32 = 20;
/// Widest permitted day (2^40 ticks); keeps day arithmetic well away from
/// the u64 edge while still covering any realistic event horizon per day.
const MAX_SHIFT: u32 = 40;
/// Empty days scanned on a refill before jumping straight to the earliest
/// pending day. Bounds worst-case refill latency on sparse queues.
const SCAN_LIMIT: u64 = 64;

struct Calendar<E> {
    pool: Pool<Node<E>>,
    /// All pending entries whose day precedes `current_day`, sorted by
    /// `(ticks, seq)`; `front[cursor..]` is the unconsumed suffix.
    front: Vec<Entry>,
    cursor: usize,
    /// The next day the refill scan will visit. Every pending entry with an
    /// earlier day is in `front` — that invariant is what lets `peek_time`
    /// and `ready` take `&self`.
    current_day: u64,
    /// Ring of bucket heads; day `d` hashes to `buckets[d & mask]`, whose
    /// entries are chained, unsorted, through their pool slots' `next`.
    ///
    /// Every day in the ring lies in `current_day .. current_day + len`:
    /// `place` files nothing further out (that is what `overflow` is for),
    /// `refill` advances `current_day` only past days it has emptied, and
    /// `resize` re-files everything. A window of `len` consecutive days
    /// hashes onto `len` distinct buckets, so a chain holds one day only.
    buckets: Vec<u32>,
    shift: u32,
    in_buckets: usize,
    /// Entries whose day falls beyond the ring's reach from `current_day`.
    overflow: BTreeMap<(u64, u64), Handle>,
    len: usize,
    /// Ring rebuilds (growth or shrink) since construction.
    resizes: u64,
}

impl<E> Calendar<E> {
    fn with_capacity(capacity: usize) -> Self {
        Calendar {
            pool: Pool::with_capacity(capacity),
            front: Vec::new(),
            cursor: 0,
            current_day: 0,
            buckets: vec![NIL; MIN_BUCKETS],
            shift: INITIAL_SHIFT,
            in_buckets: 0,
            overflow: BTreeMap::new(),
            len: 0,
            resizes: 0,
        }
    }

    fn mask(&self) -> u64 {
        self.buckets.len() as u64 - 1
    }

    fn day_of(&self, ticks: u64) -> u64 {
        ticks >> self.shift
    }

    fn bucket_of(&self, day: u64) -> usize {
        usize::try_from(day & self.mask()).unwrap_or(0)
    }

    /// Files an entry into front, ring, or overflow according to its day.
    /// Does not touch `len` and does not restore the front invariant.
    fn place(&mut self, e: Entry) {
        let day = self.day_of(e.ticks);
        if day < self.current_day {
            // A full front that is mostly consumed drops what it has
            // consumed instead of growing: a queue with too few events
            // pending to ever resize stays on one day, and its front would
            // otherwise grow by every event of that day. The suffix moved
            // is no longer than the prefix dropped, and refilling the room
            // freed takes as many pushes, so this is amortized O(1).
            let full = self.front.len() == self.front.capacity();
            if full && self.cursor > 0 && 2 * self.cursor >= self.front.len() {
                self.front.drain(..self.cursor);
                self.cursor = 0;
            }
            let key = e.key();
            let pos = self.cursor + self.front[self.cursor..].partition_point(|x| x.key() < key);
            self.front.insert(pos, e);
        } else if day - self.current_day < self.buckets.len() as u64 {
            let idx = self.bucket_of(day);
            if let Some(node) = self.pool.get_mut(e.slot) {
                node.next = std::mem::replace(&mut self.buckets[idx], e.slot.index());
                self.in_buckets += 1;
            }
        } else {
            self.overflow.insert(e.key(), e.slot);
        }
    }

    /// Re-establishes `cursor < front.len()` whenever the queue is
    /// non-empty, by extracting the earliest non-empty day into `front`.
    fn refill(&mut self) {
        debug_assert!(self.front.is_empty() && self.cursor == 0 && self.len > 0);
        let mut d = self.current_day;
        let mut scanned = 0u64;
        loop {
            // Unchain day `d`: the whole chain, because a bucket never
            // holds two days at once (see `buckets`). The walk reads the
            // very slots the next pops will take, which pulls them toward
            // cache ahead of those pops.
            let idx = self.bucket_of(d);
            let head = std::mem::replace(&mut self.buckets[idx], NIL);
            self.front.extend(chain(&self.pool, head));
            self.in_buckets -= self.front.len();
            debug_assert!(self.front.iter().all(|e| self.day_of(e.ticks) == d));
            while let Some((&(t, _), _)) = self.overflow.first_key_value() {
                if t >> self.shift > d {
                    break;
                }
                if let Some(((t, s), slot)) = self.overflow.pop_first() {
                    self.front.push(Entry {
                        ticks: t,
                        seq: s,
                        slot,
                    });
                }
            }
            if !self.front.is_empty() {
                self.front.sort_unstable_by_key(Entry::key);
                self.current_day = d.saturating_add(1);
                return;
            }
            scanned += 1;
            d = d.saturating_add(1);
            if scanned >= SCAN_LIMIT.min(self.buckets.len() as u64) {
                // Sparse stretch: jump straight to the earliest pending day.
                let bucket_min = self.chained().map(|e| e.ticks >> self.shift).min();
                let over_min = self
                    .overflow
                    .first_key_value()
                    .map(|(&(t, _), _)| t >> self.shift);
                match bucket_min.into_iter().chain(over_min).min() {
                    Some(m) => d = m,
                    // Unreachable while `len > 0`; bail rather than spin.
                    None => return,
                }
                scanned = 0;
            }
        }
    }

    /// Every entry in the ring, bucket by bucket along each chain.
    fn chained(&self) -> impl Iterator<Item = Entry> + '_ {
        self.buckets
            .iter()
            .flat_map(|&head| chain(&self.pool, head))
    }

    /// Restores the front invariant after a mutation that may have consumed
    /// or removed the last front entry.
    fn maintain_front(&mut self) {
        if self.cursor >= self.front.len() {
            self.front.clear();
            self.cursor = 0;
            if self.len > 0 {
                self.refill();
            }
        }
    }

    fn push(&mut self, ticks: u64, seq: u64, make: impl FnOnce(Handle) -> E) -> Handle {
        let slot = self.pool.insert_with(|h| Node {
            ticks,
            seq,
            next: NIL,
            val: make(h),
        });
        self.len += 1;
        self.place(Entry { ticks, seq, slot });
        self.maintain_front();
        if self.len > self.buckets.len() * 2 && self.buckets.len() < MAX_BUCKETS {
            self.resize(self.buckets.len() * 2);
        }
        slot
    }

    fn pop(&mut self) -> Option<(u64, u64, E)> {
        let e = *self.front.get(self.cursor)?;
        let node = self.pool.take(e.slot)?;
        self.cursor += 1;
        self.len -= 1;
        self.maintain_front();
        if self.buckets.len() > MIN_BUCKETS && self.len < self.buckets.len() / 4 {
            self.resize(self.buckets.len() / 2);
        }
        Some((e.ticks, e.seq, node.val))
    }

    fn peek(&self) -> Option<&Entry> {
        self.front.get(self.cursor)
    }

    fn remove(&mut self, ticks: u64, seq: u64) -> Option<E> {
        let day = self.day_of(ticks);
        if day < self.current_day {
            let key = (ticks, seq);
            let rel = self.front[self.cursor..].partition_point(|x| x.key() < key);
            let pos = self.cursor + rel;
            if self.front.get(pos).map(Entry::key) == Some(key) {
                let e = self.front.remove(pos);
                let node = self.pool.take(e.slot)?;
                self.len -= 1;
                self.maintain_front();
                return Some(node.val);
            }
            return None;
        }
        if day - self.current_day < self.buckets.len() as u64 {
            let idx = self.bucket_of(day);
            // Walk the chain with the link that points at `cur` in hand, so
            // a hit anywhere — head, middle, tail — unlinks with one store.
            let mut prev = NIL;
            let mut cur = self.buckets[idx];
            while let Some((slot, node)) = self.pool.at(cur) {
                let next = node.next;
                if (node.ticks, node.seq) == (ticks, seq) {
                    match self.pool.at_mut(prev) {
                        Some(before) => before.next = next,
                        None => self.buckets[idx] = next,
                    }
                    self.in_buckets -= 1;
                    let node = self.pool.take(slot)?;
                    self.len -= 1;
                    return Some(node.val);
                }
                prev = cur;
                cur = next;
            }
        }
        // The entry may predate a window advance: pushed to overflow when
        // its day was out of the ring's reach, even if that day is within
        // reach now.
        let slot = self.overflow.remove(&(ticks, seq))?;
        let node = self.pool.take(slot)?;
        self.len -= 1;
        Some(node.val)
    }

    fn clear(&mut self) {
        self.pool.clear();
        self.front.clear();
        self.cursor = 0;
        self.buckets.fill(NIL);
        self.in_buckets = 0;
        self.overflow.clear();
        self.len = 0;
    }

    /// Rebuilds the ring at `nbuckets` buckets, re-estimating the day width
    /// from the observed spread of pending events.
    fn resize(&mut self, nbuckets: usize) {
        self.resizes += 1;
        let mut all: Vec<Entry> = Vec::with_capacity(self.len);
        all.extend_from_slice(&self.front[self.cursor..]);
        self.front.clear();
        self.cursor = 0;
        all.extend(self.chained());
        self.in_buckets = 0;
        while let Some(((t, s), slot)) = self.overflow.pop_first() {
            all.push(Entry {
                ticks: t,
                seq: s,
                slot,
            });
        }
        debug_assert_eq!(all.len(), self.len);
        self.shift = estimate_shift(&mut all, self.shift);
        self.buckets.clear();
        self.buckets.resize(nbuckets, NIL);
        if let Some(min) = all.iter().map(|e| e.ticks).min() {
            self.current_day = min >> self.shift;
        }
        for e in all {
            self.place(e);
        }
        self.maintain_front();
    }
}

/// Picks a day-width exponent so that the events nearest the head land a
/// few per day: the calendar sweet spot where the sorted front stays short
/// but refills rarely walk empty days. The density estimate deliberately
/// counts duplicate instants — many events per tick must *narrow* the day,
/// because a wide current day swallows thousands of events and every push
/// that lands inside it pays a linear front insertion. For the same reason
/// a sample saturated by one instant picks the narrowest day rather than
/// keeping the inherited width: total duplicate saturation is the strongest
/// possible density signal, not a reason to stand pat.
fn estimate_shift(entries: &mut [Entry], current: u32) -> u32 {
    if entries.len() < 8 {
        return current;
    }
    let k = entries.len().min(256);
    entries.select_nth_unstable_by_key(k - 1, Entry::key);
    let head = &entries[..k];
    let lo = head.iter().map(|e| e.ticks).min().unwrap_or(0);
    let hi = head.iter().map(|e| e.ticks).max().unwrap_or(0);
    if lo == hi {
        return 1;
    }
    // Aim for roughly four head-adjacent events per day: with k events
    // spanning `hi - lo` ticks, a day of `4 * span / k` ticks holds ~4.
    let width = ((hi - lo).saturating_mul(4) / k as u64).max(1);
    let bits = 64 - width.leading_zeros();
    bits.clamp(1, MAX_SHIFT)
}

/// A point-in-time structural snapshot of an [`EventQueue`], for the
/// kernel profiler ([`prof`](crate::prof)) and queue-health telemetry.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct QueueStats {
    /// Pending events.
    pub depth: usize,
    /// Unconsumed entries in the sorted current-day front.
    pub front: usize,
    /// Entries parked in the bucket ring.
    pub in_buckets: usize,
    /// Entries in the far-future overflow map.
    pub overflow: usize,
    /// Bucket-ring size.
    pub(crate) buckets: usize,
    /// Ring rebuilds (growth or shrink) since construction.
    pub resizes: u64,
    /// Payload-pool live values.
    pub(crate) pool_live: usize,
    /// Payload-pool slot high-water mark.
    pub pool_capacity: usize,
    /// Payload-pool inserts served by recycling.
    pub pool_hits: u64,
    /// Payload-pool inserts that found no free slot.
    pub pool_misses: u64,
    /// Payload-pool slab growths.
    pub pool_grows: u64,
}

/// A future-event list holding events of type `E`.
///
/// # Examples
///
/// ```
/// use lems_sim::queue::EventQueue;
/// use lems_sim::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_units(2.0), "later");
/// q.push(SimTime::from_units(1.0), "sooner");
/// q.push(SimTime::from_units(1.0), "sooner-but-second");
///
/// assert_eq!(q.pop().unwrap().1, "sooner");
/// assert_eq!(q.pop().unwrap().1, "sooner-but-second");
/// assert_eq!(q.pop().unwrap().1, "later");
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    cal: Calendar<E>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::with_capacity(0)
    }

    /// Creates an empty queue whose payload pool is pre-sized for
    /// `capacity` simultaneously-pending events.
    ///
    /// Steady-state scheduling never allocates once the pool has warmed up
    /// to the peak pending count; pre-sizing reaches that state in one
    /// contiguous allocation instead of a doubling ladder, which matters
    /// for multi-gigabyte pending sets where reallocation churn fragments
    /// the slab across the address space.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            cal: Calendar::with_capacity(capacity),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at `at`. Returns the sequence number
    /// assigned to the event.
    pub fn push(&mut self, at: SimTime, event: E) -> EventSeq {
        let seq = self.reserve();
        self.cal.push(at.as_ticks(), seq.0, |_| event);
        seq
    }

    /// Takes the next sequence number without scheduling anything. An
    /// event pushed later under it ([`EventQueue::push_reserved`]) pops
    /// exactly where one pushed now would have: among events of its
    /// instant, after those scheduled before the reservation and before
    /// those scheduled after it.
    pub fn reserve(&mut self) -> EventSeq {
        let seq = EventSeq(self.next_seq);
        self.next_seq += 1;
        seq
    }

    /// Schedules `event` to fire at `at` under `seq`, a number taken by
    /// [`EventQueue::reserve`] and not yet used: two pending events never
    /// share a `(time, seq)` key.
    pub fn push_reserved(&mut self, at: SimTime, seq: EventSeq, event: E) {
        self.push_reserved_with(at, seq, |_| event);
    }

    /// [`EventQueue::push_reserved`] for the event `make` builds from the
    /// pool [`Handle`] it is stored under, which it returns:
    /// [`EventQueue::get`] reaches the pending event through it until
    /// the event is popped or removed, after which the handle is dead.
    pub(crate) fn push_reserved_with(
        &mut self,
        at: SimTime,
        seq: EventSeq,
        make: impl FnOnce(Handle) -> E,
    ) -> Handle {
        debug_assert!(seq.0 < self.next_seq, "an unreserved sequence number");
        self.cal.push(at.as_ticks(), seq.0, make)
    }

    /// The still-pending event stored under `h`, or `None` once it has
    /// fired, been removed, or the queue was cleared.
    pub(crate) fn get(&self, h: Handle) -> Option<&E> {
        self.cal.pool.get(h).map(|node| &node.val)
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_with_seq().map(|(at, _, e)| (at, e))
    }

    /// Removes and returns the earliest event together with its sequence
    /// number.
    pub fn pop_with_seq(&mut self) -> Option<(SimTime, EventSeq, E)> {
        self.cal
            .pop()
            .map(|(t, s, e)| (SimTime::from_ticks(t), EventSeq(s), e))
    }

    /// The firing time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.cal.peek().map(|e| SimTime::from_ticks(e.ticks))
    }

    /// Iterates over the *ready set*: every event scheduled for the earliest
    /// pending instant, in scheduling (sequence) order. Empty when the queue
    /// is empty.
    ///
    /// The view borrows payloads in place — nothing is cloned or moved.
    pub fn ready(&self) -> impl Iterator<Item = (SimTime, EventSeq, &E)> {
        let c = &self.cal;
        let head = c.peek().map_or(0, |e| e.ticks);
        c.front[c.cursor..].iter().map_while(move |e| {
            if e.ticks != head {
                return None;
            }
            c.pool
                .get(e.slot)
                .map(|node| (SimTime::from_ticks(e.ticks), EventSeq(e.seq), &node.val))
        })
    }

    /// Removes a specific event by its firing time and sequence number.
    /// Used by schedulers to fire a ready event other than the head.
    pub fn remove(&mut self, at: SimTime, seq: EventSeq) -> Option<E> {
        self.cal.remove(at.as_ticks(), seq.0)
    }

    /// Removes the still-pending event stored under `h`; `None` once it
    /// has fired or been removed.
    pub(crate) fn remove_handle(&mut self, h: Handle) -> Option<E> {
        let (ticks, seq) = self.cal.pool.get(h).map(|node| (node.ticks, node.seq))?;
        self.cal.remove(ticks, seq)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.cal.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled on this queue.
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// A structural snapshot for queue-health telemetry.
    pub fn stats(&self) -> QueueStats {
        let c = &self.cal;
        let pool = c.pool.stats();
        QueueStats {
            depth: c.len,
            front: c.front.len().saturating_sub(c.cursor),
            in_buckets: c.in_buckets,
            overflow: c.overflow.len(),
            buckets: c.buckets.len(),
            resizes: c.resizes,
            pool_live: pool.live,
            pool_capacity: pool.capacity,
            pool_hits: pool.hits,
            pool_misses: pool.misses,
            pool_grows: pool.grows,
        }
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.cal.clear();
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len())
            .field("scheduled_total", &self.next_seq)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn orders_by_time() {
        let mut q: EventQueue<i32> = EventQueue::new();
        q.push(SimTime::from_ticks(30), 3);
        q.push(SimTime::from_ticks(10), 1);
        q.push(SimTime::from_ticks(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_within_same_instant() {
        let mut q: EventQueue<i32> = EventQueue::new();
        let t = SimTime::from_ticks(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_len() {
        let mut q: EventQueue<i32> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_ticks(7), 0);
        assert_eq!(q.peek_time(), Some(SimTime::from_ticks(7)));
        assert_eq!(q.len(), 1);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 1);
    }

    #[test]
    fn ready_set_covers_exactly_the_earliest_instant() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ticks(5), "a");
        q.push(SimTime::from_ticks(5), "b");
        q.push(SimTime::from_ticks(9), "c");
        let ready: Vec<&str> = q.ready().map(|(_, _, e)| *e).collect();
        assert_eq!(ready, vec!["a", "b"]);
    }

    #[test]
    fn remove_targets_a_specific_entry() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ticks(5);
        q.push(t, "a");
        let seq_b = q.push(t, "b");
        q.push(t, "c");
        assert_eq!(q.remove(t, seq_b), Some("b"));
        assert_eq!(q.remove(t, seq_b), None);
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "c"]);
    }

    #[test]
    fn far_future_events_survive_in_overflow() {
        let mut q = EventQueue::new();
        q.push(SimTime::MAX, 99);
        q.push(SimTime::from_ticks(u64::MAX - 1), 98);
        q.push(SimTime::from_ticks(1), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_ticks(1)));
        assert_eq!(q.pop(), Some((SimTime::from_ticks(1), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_ticks(u64::MAX - 1), 98)));
        assert_eq!(q.pop(), Some((SimTime::MAX, 99)));
        assert!(q.pop().is_none());
    }

    #[test]
    fn bucket_rotation_across_many_days() {
        // Spread events far beyond MIN_BUCKETS days so the ring wraps and
        // the refill scan needs its jump-to-minimum path.
        let mut q = EventQueue::new();
        let day = 1u64 << INITIAL_SHIFT;
        for i in (0..200u64).rev() {
            q.push(SimTime::from_ticks(i * 37 * day), i);
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn growth_and_shrink_keep_order() {
        // Push enough to force ring growth, drain to force shrink, and keep
        // checking order against a sorted reference throughout.
        let mut q = EventQueue::new();
        let mut expect: Vec<(u64, u64)> = Vec::new();
        for i in 0..5000u64 {
            let t = (i * 7919) % 1024 * 1000;
            let seq = q.push(SimTime::from_ticks(t), i);
            expect.push((t, seq.0));
        }
        expect.sort_unstable();
        let mut got = Vec::new();
        while let Some((t, s, _)) = q.pop_with_seq() {
            got.push((t.as_ticks(), s.0));
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn remove_reaches_front_bucket_and_overflow() {
        let mut q = EventQueue::new();
        let near = SimTime::from_ticks(10);
        let later = SimTime::from_ticks(5 << INITIAL_SHIFT);
        let far = SimTime::from_ticks(u64::MAX / 2);
        let s_near = q.push(near, "front");
        let s_later = q.push(later, "bucket");
        let s_far = q.push(far, "overflow");
        assert_eq!(q.remove(later, s_later), Some("bucket"));
        assert_eq!(q.remove(far, s_far), Some("overflow"));
        assert_eq!(q.remove(near, s_near), Some("front"));
        assert!(q.is_empty());
        assert_eq!(q.remove(near, s_near), None);
    }

    #[test]
    fn stats_reflect_structure_and_resizes() {
        let mut q = EventQueue::new();
        let fresh = q.stats();
        assert_eq!(fresh.depth, 0);
        assert_eq!(fresh.buckets, MIN_BUCKETS);
        assert_eq!(fresh.resizes, 0);
        for i in 0..5000u64 {
            q.push(SimTime::from_ticks(i * 1000), i);
        }
        let s = q.stats();
        assert_eq!(s.depth, 5000);
        assert_eq!(
            s.front + s.in_buckets + s.overflow,
            5000,
            "every pending entry is in exactly one structure"
        );
        assert!(s.resizes > 0, "growth to 5000 events rebuilds the ring");
        assert_eq!(s.pool_misses, s.pool_grows);
        while q.pop().is_some() {}
        let drained = q.stats();
        assert_eq!(drained.depth, 0);
        assert_eq!(drained.pool_live, 0);
        assert!(drained.resizes >= s.resizes, "shrink also counts");
    }

    /// Walks every chain: each holds one day, filed under that day's
    /// bucket and inside the ring's window, and together they hold exactly
    /// the `in_buckets` that [`EventQueue::stats`] reports.
    fn check_chains<E>(q: &EventQueue<E>) {
        let c = &q.cal;
        let mut chained = 0;
        for (idx, &head) in c.buckets.iter().enumerate() {
            let mut cur = head;
            let mut day = None;
            while let Some((_, node)) = c.pool.at(cur) {
                let d = c.day_of(node.ticks);
                assert_eq!(c.bucket_of(d), idx, "filed under its day's bucket");
                assert!(d >= c.current_day && d - c.current_day < c.buckets.len() as u64);
                assert_eq!(*day.get_or_insert(d), d, "one day per bucket");
                chained += 1;
                assert!(chained <= c.len, "a chain loops");
                cur = node.next;
            }
        }
        assert_eq!(q.stats().in_buckets, chained);
        assert_eq!(c.front.len() - c.cursor + chained + c.overflow.len(), c.len);
    }

    #[test]
    fn in_buckets_is_the_sum_of_chain_lengths() {
        let day = 1u64 << INITIAL_SHIFT;
        let at = |d: u64, off: u64| SimTime::from_ticks(d * day + off);
        let mut q = EventQueue::new();

        // Days 3, 19 and 35 hash onto one bucket of the 16-bucket ring.
        // Only one of them is ever chained there: 35 waits in overflow
        // until the window has moved past 19.
        q.push(at(3, 0), 0u64);
        q.push(at(19, 0), 1);
        q.push(at(35, 0), 2);
        check_chains(&q);
        assert_eq!((q.stats().in_buckets, q.stats().overflow), (1, 1));
        assert_eq!(q.pop(), Some((at(3, 0), 0)));
        check_chains(&q);
        q.push(at(35, 1), 3);
        check_chains(&q);
        assert_eq!(
            q.stats().in_buckets,
            1,
            "35 is in reach once 19 is the front"
        );
        assert_eq!(q.pop(), Some((at(19, 0), 1)));
        assert_eq!(q.pop(), Some((at(35, 0), 2)), "ring and overflow merge");
        assert_eq!(q.pop(), Some((at(35, 1), 3)));
        check_chains(&q);

        // A five-long chain, last pushed first: unlink its head, a middle
        // entry and its tail.
        q.push(at(40, 0), 10);
        let seqs: Vec<EventSeq> = (0..5).map(|i| q.push(at(44, i), 20 + i)).collect();
        assert_eq!(q.stats().in_buckets, 5);
        for (i, left) in [(4u64, 4), (2, 3), (0, 2)] {
            assert_eq!(q.remove(at(44, i), seqs[i as usize]), Some(20 + i));
            assert_eq!(q.remove(at(44, i), seqs[i as usize]), None);
            check_chains(&q);
            assert_eq!(q.stats().in_buckets, left);
        }
        // The slot freed last (entry 20's) now holds another event of the
        // same chain; the old key still finds nothing there.
        let cap = q.stats().pool_capacity;
        q.push(at(44, 9), 29);
        assert_eq!(q.stats().pool_capacity, cap, "recycled, not grown");
        assert_eq!(q.remove(at(44, 0), seqs[0]), None);
        check_chains(&q);

        // Growth and shrink re-chain everything under a new day width.
        for i in 0..2_000u64 {
            q.push(at(41 + i % 8, i), 100 + i);
            if i % 97 == 0 {
                check_chains(&q);
            }
        }
        assert!(q.stats().resizes > 0);
        check_chains(&q);
        while q.len() > 3 {
            q.pop();
            if q.len() % 97 == 0 {
                check_chains(&q);
            }
        }
        check_chains(&q);

        // Clear empties every chain; the ring is reusable at once.
        q.push(at(60, 0), 7);
        q.clear();
        check_chains(&q);
        assert_eq!(q.stats().in_buckets, 0);
        q.push(at(50, 0), 8);
        q.push(at(52, 0), 9);
        check_chains(&q);
        assert_eq!(q.pop(), Some((at(50, 0), 8)));
        assert_eq!(q.pop(), Some((at(52, 0), 9)));
        assert!(q.pop().is_none());
    }

    #[test]
    fn long_chains_on_the_smallest_ring_keep_order() {
        // Thirty events pending, all one or two days ahead: the ring never
        // grows past its 16 buckets and two of them carry every chain.
        let day = 1u64 << INITIAL_SHIFT;
        let mut q = EventQueue::new();
        let mut x: u64 = 7;
        let mut push = |q: &mut EventQueue<u64>, now: u64| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let ahead = (now / day + 1 + (x >> 63)) * day + (x >> 20) % day;
            q.push(SimTime::from_ticks(ahead), 0)
        };
        for _ in 0..30 {
            push(&mut q, 0);
        }
        let mut last = (SimTime::ZERO, EventSeq(0));
        let mut longest = 0;
        for i in 0..200_000u64 {
            let (at, seq, _) = q.pop_with_seq().expect("thirty pending");
            assert!((at, seq) > last || i == 0, "pop order is (time, seq)");
            last = (at, seq);
            push(&mut q, at.as_ticks());
            longest = longest.max(q.stats().in_buckets);
            if i % 10_007 == 0 {
                check_chains(&q);
            }
        }
        let s = q.stats();
        assert_eq!((s.buckets, s.resizes), (MIN_BUCKETS, 0));
        assert!(longest >= 20, "chains stayed long: {longest}");
        assert_eq!(s.pool_capacity, 30, "every push recycled a slot");
    }

    proptest! {
        /// Popping always yields events in non-decreasing time order, and
        /// within equal times in scheduling order.
        #[test]
        fn pop_order_is_sorted_and_stable(times in proptest::collection::vec(0u64..50, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_ticks(t), i);
            }
            let mut prev: Option<(SimTime, usize)> = None;
            while let Some((t, idx)) = q.pop() {
                if let Some((pt, pidx)) = prev {
                    prop_assert!(t >= pt);
                    if t == pt {
                        prop_assert!(idx > pidx);
                    }
                }
                prev = Some((t, idx));
            }
        }

        /// The head of the ready set is always what `pop` would return.
        #[test]
        fn ready_head_matches_pop(times in proptest::collection::vec(0u64..10, 1..100)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_ticks(t), i);
            }
            while !q.is_empty() {
                let head = q.ready().next().map(|(at, seq, e)| (at, seq, *e));
                let popped = q.pop_with_seq();
                prop_assert_eq!(head, popped);
            }
        }
    }
}
