//! Deterministic future-event list backed by a binary heap.
//!
//! [`EventQueue`] is a priority queue keyed by ([`SimTime`], insertion
//! sequence number). Two events scheduled for the same instant pop in the
//! order they were pushed, which makes whole-simulation runs bit-for-bit
//! reproducible — a property the paper's sensitivity experiments rely on
//! (identical arrival streams across schedulers).
//!
//! The pending set is small — at most 1 661 events at the Fig. 8 hot
//! point (WDL; 263 for every other scheduler) and about 100 on the
//! 100-DPN scale runs (DESIGN §15) — so a `std` [`BinaryHeap`] ordered
//! on `(at, seq)` is all the structure it needs: O(log n) push and pop,
//! no allocation beyond the heap's own vector. The sequence number
//! makes every key unique, so the pop order is a pure function of the
//! push order.

use crate::time::{Duration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled event: the payload plus its firing time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// When the event fires.
    pub at: SimTime,
    /// The event payload.
    pub event: E,
}

/// A heap entry. Its order is reversed on `(at, seq)`, so the max-heap
/// pops the earliest firing time, first-pushed first.
#[derive(Debug)]
struct Entry<E> {
    at: u64,
    seq: u64,
    event: E,
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl<E> Eq for Entry<E> {}

/// A future-event list with a monotone clock.
///
/// The queue owns the simulation clock: [`EventQueue::pop`] advances the
/// clock to the firing time of the earliest event. Scheduling an event in
/// the past is a logic error and panics.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Sequence number of the next push.
    seq: u64,
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
            heap: BinaryHeap::new(),
            seq: 0,
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
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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
        self.heap.push(Entry {
            at: at.0,
            seq: self.seq,
            event,
        });
        self.seq += 1;
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
        let Entry { at, event, .. } = self.heap.pop()?;
        debug_assert!(at >= self.now.0, "event queue time went backwards");
        self.now = SimTime(at);
        self.popped += 1;
        Some(Scheduled {
            at: self.now,
            event,
        })
    }

    /// Firing time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| SimTime(e.at))
    }
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
        // Times straddling byte boundaries of the millisecond clock, up
        // to and past 2^32 ms, pushed in reverse order.
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
        // "a" is pushed while t=1000 is still far away; "b" is pushed
        // for the same instant after the clock has moved up to 999.
        // Insertion order decides between them, not the clock at push
        // time.
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
