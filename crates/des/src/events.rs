//! Deterministic future-event list backed by a hierarchical timing wheel.
//!
//! [`EventQueue`] is a priority queue keyed by ([`SimTime`], insertion
//! sequence number). Two events scheduled for the same instant pop in the
//! order they were pushed, which makes whole-simulation runs bit-for-bit
//! reproducible — a property the paper's sensitivity experiments rely on
//! (identical arrival streams across schedulers).
//!
//! # Layout
//!
//! The queue stores pending events in a four-level timing wheel of 256
//! slots per level. Level `L` covers bits `[8·L, 8·L+8)` of the absolute
//! firing time in milliseconds, so the wheel spans the next `2³²` ms
//! (≈ 49.7 simulated days) relative to the clock; events beyond that go
//! to an overflow calendar, a `BTreeMap` of buckets keyed by
//! `at >> 32`. An event whose firing time agrees with the clock on all
//! bits above `8·(L+1)` but differs somewhere in byte `L` lives at level
//! `L`, in slot `(at >> 8·L) & 255`. Push and pop are O(1) amortized;
//! each event cascades down at most `LEVELS` times over its lifetime.
//!
//! # Cascading and same-instant FIFO order
//!
//! The wheel maintains one invariant: *every pending event sits at the
//! level determined by the current clock*. [`EventQueue::pop`] first
//! advances the clock to the earliest pending time `t`, then — top-down —
//! drains the overflow bucket and the one slot per level whose window the
//! clock just entered, re-placing the drained events at their new
//! (strictly lower) levels. Because the clock never passes the minimum
//! pending time, a slot being cascaded is entered exactly once per wheel
//! wrap, *before* any event can be pushed directly into a lower level of
//! that window (a direct push to level `L` requires the clock to already
//! share the window, which begins at the crossing). Slots are appended in
//! push order and drained front-to-back, so every slot's entries are in
//! strictly increasing sequence order at all times — and the level-0 slot
//! for an instant therefore pops in exact insertion order, matching the
//! binary-heap reference model entry for entry (see
//! `tests/prop_event_queue.rs` for the differential check).
//!
//! Occupancy bitmaps (256 bits per level) plus a per-slot minimum make
//! finding the next firing time O(levels) without scanning slot contents,
//! even under `schedule_now` chains with a large far-future slot pending.

use crate::time::{Duration, SimTime};
use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};

/// A scheduled event: the payload plus its firing time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// When the event fires.
    pub at: SimTime,
    /// The event payload.
    pub event: E,
}

/// Bits of firing time resolved per wheel level.
const BITS: u32 = 8;
/// Slots per level.
const SLOTS: usize = 1 << BITS;
/// Slot-index mask.
const MASK: u64 = (SLOTS - 1) as u64;
/// Number of wheel levels.
const LEVELS: usize = 4;
/// Total bits covered by the wheel; times further ahead overflow.
const WHEEL_BITS: u32 = BITS * LEVELS as u32;
/// `u64` words per occupancy bitmap.
const OCC_WORDS: usize = SLOTS / 64;

#[derive(Debug)]
struct Entry<E> {
    at: u64,
    event: E,
}

/// An overflow bucket: the minimum firing time it holds plus its entries
/// in insertion order.
#[derive(Debug)]
struct Bucket<E> {
    min: u64,
    entries: Vec<Entry<E>>,
}

/// A future-event list with a monotone clock.
///
/// The queue owns the simulation clock: [`EventQueue::pop`] advances the
/// clock to the firing time of the earliest event. Scheduling an event in
/// the past is a logic error and panics.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// `LEVELS × SLOTS` wheel slots, flattened (`level * SLOTS + slot`).
    /// Entries within a slot are in insertion order.
    slots: Vec<VecDeque<Entry<E>>>,
    /// One 256-bit occupancy bitmap per level.
    occ: [[u64; OCC_WORDS]; LEVELS],
    /// Minimum firing time per slot (`u64::MAX` when empty); lets the
    /// next-event search avoid scanning slot contents.
    slot_min: Vec<u64>,
    /// Far-future calendar, keyed by `at >> WHEEL_BITS`.
    overflow: BTreeMap<u64, Bucket<E>>,
    /// Cached earliest pending firing time; `None` means "recompute".
    next_cache: Cell<Option<u64>>,
    pending: usize,
    now: SimTime,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            slots: (0..LEVELS * SLOTS).map(|_| VecDeque::new()).collect(),
            occ: [[0; OCC_WORDS]; LEVELS],
            slot_min: vec![u64::MAX; LEVELS * SLOTS],
            overflow: BTreeMap::new(),
            next_cache: Cell::new(None),
            pending: 0,
            now: SimTime::ZERO,
            popped: 0,
        }
    }

    /// The current simulated time (the firing time of the last popped
    /// event, or zero).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.pending
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Total number of events popped so far (a cheap progress metric).
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current clock.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "EventQueue::schedule_at: scheduling in the past ({:?} < {:?})",
            at,
            self.now
        );
        self.pending += 1;
        if let Some(next) = self.next_cache.get() {
            if at.0 < next {
                self.next_cache.set(Some(at.0));
            }
        }
        self.place(Entry { at: at.0, event });
    }

    /// Schedule `event` after a delay from the current clock.
    pub fn schedule_after(&mut self, delay: Duration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Schedule `event` at the current instant (fires after any event
    /// already scheduled for this instant).
    pub fn schedule_now(&mut self, event: E) {
        self.schedule_at(self.now, event);
    }

    /// Pop the earliest event and advance the clock to its firing time.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        let t = self.next_time()?;
        let old = self.now.0;
        debug_assert!(t >= old, "event queue time went backwards");
        self.now = SimTime(t);
        let diff = old ^ t;
        if diff >> WHEEL_BITS != 0 {
            // Entered a new wheel wrap: all wheel levels are empty (any
            // resident entry would predate `t`, the minimum pending
            // time), so redistributing this wrap's calendar bucket
            // repopulates the wheel from scratch.
            if let Some(bucket) = self.overflow.remove(&(t >> WHEEL_BITS)) {
                for e in bucket.entries {
                    self.place(e);
                }
            }
        }
        for level in (1..LEVELS).rev() {
            let shift = BITS * level as u32;
            if diff >> shift != 0 {
                // The clock entered a new level-`level` window; cascade
                // the one slot of that window down. Earlier slots of this
                // level cannot be occupied (their times would be < t).
                let slot = ((t >> shift) & MASK) as usize;
                let idx = level * SLOTS + slot;
                if !self.slots[idx].is_empty() {
                    let drained = std::mem::take(&mut self.slots[idx]);
                    self.occ[level][slot >> 6] &= !(1u64 << (slot & 63));
                    self.slot_min[idx] = u64::MAX;
                    for e in drained {
                        self.place(e);
                    }
                }
            }
        }
        let slot = (t & MASK) as usize;
        let entry = self.slots[slot]
            .pop_front()
            .expect("timing wheel invariant: level-0 slot empty at pop time");
        debug_assert_eq!(entry.at, t, "timing wheel invariant: slot holds wrong time");
        if self.slots[slot].is_empty() {
            self.occ[0][slot >> 6] &= !(1u64 << (slot & 63));
            self.slot_min[slot] = u64::MAX;
            self.next_cache.set(None);
        }
        self.pending -= 1;
        self.popped += 1;
        Some(Scheduled {
            at: SimTime(t),
            event: entry.event,
        })
    }

    /// Firing time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.next_time().map(SimTime)
    }

    /// Earliest pending firing time, via the cache when warm.
    fn next_time(&self) -> Option<u64> {
        if self.pending == 0 {
            return None;
        }
        if let Some(t) = self.next_cache.get() {
            return Some(t);
        }
        let mut best = u64::MAX;
        for level in 0..LEVELS {
            // The first occupied slot of a level is its earliest window
            // (slots below the clock's own window are always empty), and
            // `slot_min` gives the earliest time inside it.
            if let Some(slot) = first_set(&self.occ[level]) {
                best = best.min(self.slot_min[level * SLOTS + slot]);
            }
        }
        if let Some(bucket) = self.overflow.values().next() {
            best = best.min(bucket.min);
        }
        debug_assert_ne!(best, u64::MAX, "pending > 0 but no entry found");
        self.next_cache.set(Some(best));
        Some(best)
    }

    /// Insert an entry at the level determined by the current clock.
    fn place(&mut self, e: Entry<E>) {
        let diff = e.at ^ self.now.0;
        if diff >> WHEEL_BITS != 0 {
            let bucket = self
                .overflow
                .entry(e.at >> WHEEL_BITS)
                .or_insert_with(|| Bucket {
                    min: u64::MAX,
                    entries: Vec::new(),
                });
            bucket.min = bucket.min.min(e.at);
            bucket.entries.push(e);
            return;
        }
        let mut level = 0;
        while diff >> (BITS * (level as u32 + 1)) != 0 {
            level += 1;
        }
        let slot = ((e.at >> (BITS * level as u32)) & MASK) as usize;
        let idx = level * SLOTS + slot;
        self.occ[level][slot >> 6] |= 1u64 << (slot & 63);
        self.slot_min[idx] = self.slot_min[idx].min(e.at);
        self.slots[idx].push_back(e);
    }
}

/// Index of the first set bit in a 256-bit bitmap.
fn first_set(words: &[u64; OCC_WORDS]) -> Option<usize> {
    words
        .iter()
        .enumerate()
        .find(|(_, &w)| w != 0)
        .map(|(i, &w)| i * 64 + w.trailing_zeros() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(30), "c");
        q.schedule_at(SimTime::from_millis(10), "a");
        q.schedule_at(SimTime::from_millis(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(SimTime::from_millis(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(42), ());
        assert_eq!(q.now(), SimTime::ZERO);
        let s = q.pop().unwrap();
        assert_eq!(s.at, SimTime::from_millis(42));
        assert_eq!(q.now(), SimTime::from_millis(42));
        assert_eq!(q.events_processed(), 1);
    }

    #[test]
    fn schedule_after_and_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(10), 1);
        q.pop();
        q.schedule_after(Duration::from_millis(5), 2);
        q.schedule_now(3);
        // schedule_now at t=10 fires before the one at t=15.
        assert_eq!(q.pop().unwrap().event, 3);
        assert_eq!(q.pop().unwrap().event, 2);
        assert_eq!(q.now(), SimTime::from_millis(15));
    }

    #[test]
    #[should_panic(expected = "scheduling in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(10), ());
        q.pop();
        q.schedule_at(SimTime::from_millis(5), ());
    }

    #[test]
    fn peek_time_matches_next_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule_at(SimTime::from_millis(7), ());
        q.schedule_at(SimTime::from_millis(3), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(3)));
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(7)));
    }

    #[test]
    fn len_and_is_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_at(SimTime::from_millis(1), ());
        q.schedule_at(SimTime::from_millis(2), ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn events_cascade_across_level_boundaries() {
        // Times straddling every level boundary of the wheel, plus an
        // overflow bucket beyond 2^32 ms.
        let times: [u64; 8] = [1, 255, 256, 65_535, 65_536, 1 << 24, (1 << 32) - 1, 1 << 32];
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate().rev() {
            q.schedule_at(SimTime::from_millis(t), i);
        }
        let mut popped = Vec::new();
        while let Some(s) = q.pop() {
            popped.push((s.at.as_millis(), s.event));
        }
        let expect: Vec<(u64, usize)> = times.iter().copied().zip(0..times.len()).collect();
        assert_eq!(popped, expect);
    }

    #[test]
    fn fifo_survives_cascade_then_direct_push() {
        // "a" is pushed while t=1000 is still far away (lands in an upper
        // level and cascades down); "b" is pushed for the same instant
        // after the clock has entered its window. Insertion order must
        // survive both routes into the level-0 slot.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(1000), "a");
        q.schedule_at(SimTime::from_millis(999), "tick");
        assert_eq!(q.pop().unwrap().event, "tick");
        q.schedule_at(SimTime::from_millis(1000), "b");
        assert_eq!(q.pop().unwrap().event, "a");
        assert_eq!(q.pop().unwrap().event, "b");
    }

    #[test]
    fn far_future_overflow_keeps_order() {
        let mut q = EventQueue::new();
        let far = (1u64 << 33) + 17;
        for i in 0..10 {
            q.schedule_at(SimTime::from_millis(far), i);
        }
        q.schedule_at(SimTime::from_millis(3), 99);
        assert_eq!(q.pop().unwrap().event, 99);
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
        assert_eq!(q.now(), SimTime::from_millis(far));
    }
}
