//! Discrete-event queue.
//!
//! [`EventQueue`] is the heart of the simulation kernel: a priority queue of
//! `(SimTime, payload)` pairs ordered by time, with **stable FIFO ordering
//! for events scheduled at the same instant**. Stability matters for
//! reproducibility: two events at the same timestamp are always delivered in
//! the order they were scheduled, independent of queue internals.
//!
//! The queue is a [`BinaryHeap`] keyed by `(time, seq)`: the delivery time
//! in integer microseconds ([`SimTime::as_micros`]) and the queue's running
//! schedule count, packed into one `u128` with the time in the high 64
//! bits. Every key is unique, so the pop order is fixed by the schedule
//! calls alone: earliest time first, and among equal times the lowest
//! `seq`, which is schedule order. `tests/queue_differential.rs` pins it
//! to a sorted `Vec` over hundreds of seeded schedules.
//!
//! The simulator's queues are small (an island engine holds a few pending
//! events per disk), so a push or pop is a handful of `u128` comparisons,
//! and a queue allocates for its entries alone, with no fixed tables.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A scheduled event: delivery time plus an opaque payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheduled<T> {
    /// When the event fires.
    pub at: SimTime,
    /// The event payload.
    pub payload: T,
}

/// One pending event under its `(time, seq)` key.
struct Pending<T> {
    /// Delivery time (µs) in the high 64 bits, schedule seq in the low 64.
    key: u128,
    payload: T,
}

impl<T> Pending<T> {
    fn at(&self) -> SimTime {
        SimTime::from_micros((self.key >> 64) as u64)
    }
}

impl<T> PartialEq for Pending<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<T> Eq for Pending<T> {}

impl<T> PartialOrd for Pending<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Pending<T> {
    /// Reversed, so the max-heap pops the smallest key first.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

/// A binary heap with a stable pop order: earliest time first, FIFO
/// among equal times. See the [module docs](self).
///
/// # Examples
///
/// ```
/// use spindown_sim::event::EventQueue;
/// use spindown_sim::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(2), "late");
/// q.schedule(SimTime::from_secs(1), "early");
/// q.schedule(SimTime::from_secs(1), "early-second");
///
/// assert_eq!(q.pop().unwrap().payload, "early");
/// assert_eq!(q.pop().unwrap().payload, "early-second");
/// assert_eq!(q.pop().unwrap().payload, "late");
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<T> {
    heap: BinaryHeap<Pending<T>>,
    /// The `seq` of the next scheduled event.
    seq: u64,
    /// Time of the most recently popped event; used to detect scheduling
    /// into the past (a logic error in the caller).
    watermark: SimTime,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue sized for `cap` pending events.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            seq: 0,
            watermark: SimTime::ZERO,
        }
    }

    /// Schedules `payload` for delivery at `at`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `at` is earlier than the time of the most
    /// recently popped event — scheduling into the simulated past is always
    /// a bug in the caller. Release builds deliver such an event
    /// immediately: its time is clamped to [`Self::now`].
    pub fn schedule(&mut self, at: SimTime, payload: T) {
        debug_assert!(
            at >= self.watermark,
            "scheduled event at {at:?} before current time {:?}",
            self.watermark
        );
        let at = at.max(self.watermark);
        let key = (u128::from(at.as_micros()) << 64) | u128::from(self.seq);
        self.seq += 1;
        self.heap.push(Pending { key, payload });
    }

    /// Removes and returns the earliest event, advancing the internal
    /// watermark to its time.
    pub fn pop(&mut self) -> Option<Scheduled<T>> {
        let next = self.heap.pop()?;
        let at = next.at();
        self.watermark = at;
        Some(Scheduled {
            at,
            payload: next.payload,
        })
    }

    /// The delivery time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(Pending::at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The time of the most recently popped event (the queue's notion of
    /// "now").
    pub fn now(&self) -> SimTime {
        self.watermark
    }

    /// Resets the queue to its freshly-constructed state, keeping the
    /// allocation: pending events are dropped, and the watermark and the
    /// schedule count return to zero. A cleared queue schedules and drains
    /// exactly like a fresh one, so warm engines can recycle queues across
    /// runs without reallocating.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.seq = 0;
        self.watermark = SimTime::ZERO;
    }

    /// Number of events the queue can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &s in &[5u64, 1, 9, 3, 7] {
            q.schedule(SimTime::from_secs(s), s);
        }
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push(e.payload);
        }
        assert_eq!(out, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push(e.payload);
        }
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.schedule(t, "a");
        q.schedule(t, "b");
        assert_eq!(q.pop().unwrap().payload, "a");
        q.schedule(t, "c");
        assert_eq!(q.pop().unwrap().payload, "b");
        assert_eq!(q.pop().unwrap().payload, "c");
    }

    #[test]
    fn watermark_tracks_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.schedule(SimTime::from_secs(4), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(4));
    }

    #[test]
    #[should_panic(expected = "before current time")]
    #[cfg(debug_assertions)]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), ());
        q.pop();
        q.schedule(SimTime::from_secs(1), ());
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn scheduling_into_past_delivers_now_in_release() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), 0);
        q.pop();
        q.schedule(SimTime::from_secs(12), 1);
        q.schedule(SimTime::from_secs(1), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(10)));
        let e = q.pop().unwrap();
        assert_eq!((e.at, e.payload), (SimTime::from_secs(10), 2));
        assert_eq!(q.now(), SimTime::from_secs(10));
    }

    #[test]
    fn peek_len_empty_clear() {
        let mut q = EventQueue::with_capacity(8);
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_secs(2), ());
        q.schedule(SimTime::from_secs(1), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn clear_then_reuse_restarts_tie_order() {
        // Warm engines rely on `clear` resetting the tie order and
        // watermark exactly like a fresh queue: a second run's
        // same-time events must drain in schedule order, and early
        // times must be legal again.
        let mut q = EventQueue::with_capacity(64);
        let cap = q.capacity();
        let t = SimTime::from_secs(9);
        for i in 0..50 {
            q.schedule(t, i);
        }
        q.pop();
        assert_eq!(q.now(), t);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
        assert!(q.capacity() >= cap, "clear must keep the allocation");
        q.schedule(SimTime::from_secs(1), 100);
        q.schedule(SimTime::from_secs(1), 101);
        assert_eq!(q.pop().unwrap().payload, 100);
        assert_eq!(q.pop().unwrap().payload, 101);
    }

    #[test]
    fn same_time_as_now_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), 0);
        q.pop();
        // Re-scheduling at exactly `now` must be fine (zero-delay events).
        q.schedule(q.now(), 1);
        assert_eq!(q.pop().unwrap().at, SimTime::from_secs(1));
    }

    #[test]
    fn large_volume_is_sorted() {
        let mut q = EventQueue::new();
        // Deterministic pseudo-shuffle.
        let mut x: u64 = 0x9E3779B97F4A7C15;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            q.schedule(SimTime::from_micros(x % 1_000_000), ());
        }
        let mut prev = SimTime::ZERO;
        while let Some(e) = q.pop() {
            assert!(e.at >= prev);
            prev = e.at;
        }
        let _ = prev + SimDuration::ZERO;
    }

    #[test]
    fn times_around_powers_of_64_drain_sorted_and_fifo() {
        // Times one below, at and one above each boundary (the windows
        // of neighbouring boundaries overlap, so some times repeat):
        // drain order must stay globally sorted and FIFO at ties.
        let mut q = EventQueue::new();
        let boundaries = [
            63u64,
            64,
            65,
            4095,
            4096,
            4097,
            262_143,
            262_144,
            262_145,
            16_777_215,
            16_777_216,
            1_073_741_824,
            68_719_476_736,
        ];
        let mut i = 0u64;
        for &b in &boundaries {
            for t in [b.saturating_sub(1), b, b + 1] {
                q.schedule(SimTime::from_micros(t), i);
                i += 1;
            }
        }
        let mut prev: Option<(SimTime, u64)> = None;
        while let Some(e) = q.pop() {
            if let Some((pt, pp)) = prev {
                assert!(e.at > pt || (e.at == pt && e.payload > pp));
            }
            prev = Some((e.at, e.payload));
        }
    }

    #[test]
    fn far_future_event_drains_last() {
        let mut q = EventQueue::new();
        let far = SimTime::from_micros(u64::MAX - 1);
        q.schedule(far, "far");
        for t in 0..200u64 {
            q.schedule(SimTime::from_micros(t * 997), t.to_string().leak() as &str);
        }
        let mut last = None;
        while let Some(e) = q.pop() {
            last = Some(e);
        }
        let last = last.unwrap();
        assert_eq!(last.payload, "far");
        assert_eq!(last.at, far);
    }

    #[test]
    fn zero_delay_chain_stays_fifo() {
        // Scheduling at exactly `now` while draining the same instant
        // must queue after the entries already pending at that instant.
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(12345);
        q.schedule(t, 0);
        q.schedule(t, 1);
        assert_eq!(q.pop().unwrap().payload, 0);
        q.schedule(q.now(), 2);
        q.schedule(q.now(), 3);
        assert_eq!(q.pop().unwrap().payload, 1);
        assert_eq!(q.pop().unwrap().payload, 2);
        assert_eq!(q.pop().unwrap().payload, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_tracks_the_earliest_pending_time() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(5_000_000), "far");
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(5_000_000)));
        q.schedule(SimTime::from_micros(70), "near");
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(70)));
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(5_000_000)));
        q.pop();
        assert_eq!(q.peek_time(), None);
    }
}
