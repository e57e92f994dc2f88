//! Discrete-event queue.
//!
//! [`EventQueue`] is the heart of the simulation kernel: a priority queue of
//! `(SimTime, payload)` pairs ordered by time, with **stable FIFO ordering
//! for events scheduled at the same instant**. Stability matters for
//! reproducibility: two events at the same timestamp are always delivered in
//! the order they were scheduled, independent of queue internals.
//!
//! The queue is a hierarchical timing wheel (calendar queue). Scheduling
//! and popping are O(1) amortized for the small, disk-bounded event
//! populations the simulator carries (a few events per disk), instead of
//! a binary heap's O(log n) comparisons and sift traffic. Its pop order is
//! exactly a `(time, seq)` heap's; `tests/queue_differential.rs` pins the
//! two to bit-identical pop sequences over hundreds of seeded schedules,
//! with the heap kept there as a test-only reference.
//!
//! # Why the wheel preserves FIFO tie order
//!
//! Ticks are integer microseconds ([`SimTime::as_micros`]). The wheel has
//! 11 levels of 64 slots (6 bits per level covers the full 64-bit tick
//! space); an event lands at the level of the highest bit in which its
//! time differs from the current tick, in the slot addressed by its time's
//! bits for that level. Three invariants make drain order exactly the
//! heap's earliest-time, then-lowest-seq order:
//!
//! 1. Every entry in a level-0 slot has the **same** timestamp (its upper
//!    bits equal the current tick's by construction, its low 6 bits are
//!    the slot index), so time never has to be compared inside a slot.
//! 2. Slot queues only ever append: direct schedules arrive in ascending
//!    seq order, and a cascade (re-filing a higher-level slot when time
//!    advances into it) moves entries in their stored order, which
//!    preserves relative seq order of equal-time entries. A level-0 slot
//!    receives at most one cascade batch — at the moment time enters its
//!    window, before any direct append can target it — so the whole slot
//!    stays seq-sorted without ever sorting.
//! 3. Time only moves to the lowest non-empty slot of the lowest
//!    non-empty level, which by the level/slot addressing is the minimum
//!    pending timestamp.

use std::cell::Cell;

use crate::time::SimTime;

/// A scheduled event: delivery time plus an opaque payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheduled<T> {
    /// When the event fires.
    pub at: SimTime,
    /// The event payload.
    pub payload: T,
}

/// Bits per wheel level; 64 slots each.
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Levels; `11 × 6 = 66` bits covers the whole `u64` tick space, so no
/// overflow list is ever needed.
const LEVELS: usize = 11;

/// Sentinel "no node" link value.
const NIL: u32 = u32::MAX;

/// One arena cell: an event plus its intrusive slot-list link. The
/// payload is an `Option` only so [`EventQueue::pop`] can move it out of
/// the arena without unsafe code; a node on a slot list is always `Some`.
struct WheelNode<T> {
    at: SimTime,
    next: u32,
    payload: Option<T>,
}

/// A hierarchical timing wheel with the heap's exact pop order: earliest
/// time first, FIFO among equal times. See the [module docs](self) for
/// the ordering argument.
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
    /// All pending events, in one contiguous allocation; freed cells are
    /// chained through `next` into a free list. Slot membership is an
    /// intrusive singly-linked list over this arena, so a cascade re-files
    /// a whole slot by rewriting links — payloads never move, and the
    /// working set stays in one block instead of 704 separate buffers.
    arena: Vec<WheelNode<T>>,
    /// Head of the free list (`NIL` when every cell is live).
    free: u32,
    /// Per-slot list head, `LEVELS × SLOTS` row-major (`NIL` = empty).
    /// Entries within a slot are in insertion order — the wheel needs no
    /// sequence stamps: FIFO among equal times is structural (slots only
    /// ever append, in schedule order), where a heap buys it with a
    /// per-entry counter.
    head: Vec<u32>,
    /// Per-slot list tail (`NIL` = empty), for O(1) append.
    tail: Vec<u32>,
    /// Per-slot minimum pending tick (`u64::MAX` when empty), maintained
    /// on every push so [`Self::compute_next`] never has to walk a slot's
    /// entries: higher-level slots span a range of ticks, and scanning one
    /// on every cold peek is the dominant cost of a pop-heavy run.
    slot_min: Vec<u64>,
    /// Per-level occupancy bitmap: bit `s` set ⇔ slot `s` is non-empty.
    occupied: [u64; LEVELS],
    /// Tick (microseconds) of the level-0 slot currently being drained.
    /// Equal to `watermark` between `pop` calls.
    now_tick: u64,
    /// Time of the most recently popped event; used to detect scheduling
    /// into the past (a logic error in the caller).
    watermark: SimTime,
    len: usize,
    /// Cached earliest pending time; `None` = unknown (recompute on peek).
    next_at: Cell<Option<SimTime>>,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            arena: Vec::new(),
            free: NIL,
            head: vec![NIL; LEVELS * SLOTS],
            tail: vec![NIL; LEVELS * SLOTS],
            slot_min: vec![u64::MAX; LEVELS * SLOTS],
            occupied: [0; LEVELS],
            now_tick: 0,
            watermark: SimTime::ZERO,
            len: 0,
            next_at: Cell::new(None),
        }
    }

    /// Creates an empty queue sized for `cap` pending events (pre-reserves
    /// the arena).
    pub fn with_capacity(cap: usize) -> Self {
        let mut q = Self::new();
        q.arena.reserve(cap);
        q
    }

    /// Takes a cell off the free list (or grows the arena) and fills it.
    fn alloc(&mut self, at: SimTime, payload: T) -> u32 {
        if self.free == NIL {
            let idx = self.arena.len() as u32;
            self.arena.push(WheelNode {
                at,
                next: NIL,
                payload: Some(payload),
            });
            idx
        } else {
            let idx = self.free;
            let n = &mut self.arena[idx as usize];
            self.free = n.next;
            n.at = at;
            n.next = NIL;
            n.payload = Some(payload);
            idx
        }
    }

    /// Schedules `payload` for delivery at `at`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `at` is earlier than the time of the most
    /// recently popped event — scheduling into the simulated past is always
    /// a bug in the caller.
    pub fn schedule(&mut self, at: SimTime, payload: T) {
        debug_assert!(
            at >= self.watermark,
            "scheduled event at {at:?} before current time {:?}",
            self.watermark
        );
        self.len += 1;
        match self.next_at.get() {
            _ if self.len == 1 => self.next_at.set(Some(at)),
            Some(t) if at < t => self.next_at.set(Some(at)),
            _ => {}
        }
        let node = self.alloc(at, payload);
        self.insert(node);
    }

    /// Files an unlinked node at the level/slot addressed by its time
    /// relative to `now_tick`. Does not touch `len` — shared by
    /// [`Self::schedule`] and the cascade in [`Self::advance`].
    fn insert(&mut self, node: u32) {
        // Release-mode safety: a caller scheduling into the past (caught by
        // the debug assert) degrades to immediate delivery instead of
        // filing into an already-drained slot.
        let t = self.arena[node as usize].at.as_micros().max(self.now_tick);
        let diff = t ^ self.now_tick;
        let (level, slot) = if diff == 0 {
            (0, (t & (SLOTS as u64 - 1)) as usize)
        } else {
            let level = ((63 - diff.leading_zeros()) / LEVEL_BITS) as usize;
            let slot = ((t >> (LEVEL_BITS as usize * level)) & (SLOTS as u64 - 1)) as usize;
            (level, slot)
        };
        let idx = level * SLOTS + slot;
        self.arena[node as usize].next = NIL;
        let tail = self.tail[idx];
        if tail == NIL {
            self.head[idx] = node;
        } else {
            self.arena[tail as usize].next = node;
        }
        self.tail[idx] = node;
        self.slot_min[idx] = self.slot_min[idx].min(t);
        self.occupied[level] |= 1 << slot;
    }

    /// Moves `now_tick` to the next non-empty slot, cascading one
    /// higher-level slot down when the current 64-tick window is spent.
    /// Requires a non-empty queue and an empty current level-0 slot.
    fn advance(&mut self) {
        debug_assert!(self.len > 0, "advance on empty wheel");
        let cur0 = (self.now_tick & (SLOTS as u64 - 1)) as u32;
        let bits0 = self.occupied[0] & (!0u64 << cur0);
        if bits0 != 0 {
            // Next event lives in the current window: step within level 0.
            self.now_tick = (self.now_tick & !(SLOTS as u64 - 1)) | u64::from(bits0.trailing_zeros());
            return;
        }
        for level in 1..LEVELS {
            let bits = self.occupied[level];
            if bits == 0 {
                continue;
            }
            // Lowest slot of the lowest non-empty level holds the earliest
            // pending entries (levels below it are empty). Jump time to the
            // slot's base and re-file its entries relative to the new now —
            // they all land strictly below `level`.
            let slot = bits.trailing_zeros() as usize;
            self.occupied[level] &= !(1u64 << slot);
            let shift = LEVEL_BITS as usize * level;
            let upper = if shift + LEVEL_BITS as usize >= 64 {
                0
            } else {
                !((1u64 << (shift + LEVEL_BITS as usize)) - 1)
            };
            self.now_tick = (self.now_tick & upper) | ((slot as u64) << shift);
            let idx = level * SLOTS + slot;
            self.slot_min[idx] = u64::MAX;
            let mut cur = self.head[idx];
            self.head[idx] = NIL;
            self.tail[idx] = NIL;
            // Walk the detached list in stored order, re-filing each node
            // by link surgery alone — payloads stay where they are.
            while cur != NIL {
                let next = self.arena[cur as usize].next;
                self.insert(cur);
                cur = next;
            }
            return;
        }
        unreachable!("non-empty wheel with all bitmaps clear");
    }

    /// Removes and returns the earliest event, advancing the internal
    /// watermark to its time.
    pub fn pop(&mut self) -> Option<Scheduled<T>> {
        if self.len == 0 {
            return None;
        }
        loop {
            let idx = (self.now_tick & (SLOTS as u64 - 1)) as usize;
            let node = self.head[idx];
            if node != NIL {
                let n = &mut self.arena[node as usize];
                let at = n.at;
                debug_assert_eq!(at.as_micros(), self.now_tick, "level-0 slot holds one tick");
                let payload = n.payload.take().expect("listed node has a payload");
                let next = n.next;
                n.next = self.free;
                self.free = node;
                self.head[idx] = next;
                if next == NIL {
                    self.tail[idx] = NIL;
                    self.occupied[0] &= !(1u64 << idx);
                    self.slot_min[idx] = u64::MAX;
                    self.next_at.set(None);
                } else {
                    // Same slot, same tick: the cached minimum is unchanged.
                    self.next_at.set(Some(at));
                }
                self.len -= 1;
                self.watermark = at;
                return Some(Scheduled { at, payload });
            }
            self.advance();
        }
    }

    /// The delivery time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        if let Some(t) = self.next_at.get() {
            return Some(t);
        }
        let t = self.compute_next();
        debug_assert!(t.is_some(), "len > 0 but no pending entry found");
        self.next_at.set(t);
        t
    }

    /// Scans the bitmaps for the earliest pending time. O(levels): the
    /// per-slot minimum is maintained on insert, so no slot is walked.
    /// Called only when the cache is cold.
    fn compute_next(&self) -> Option<SimTime> {
        for level in 0..LEVELS {
            let bits = self.occupied[level];
            if bits == 0 {
                continue;
            }
            // Lowest occupied slot of the lowest non-empty level holds the
            // earliest pending entries (see `advance`).
            let slot = bits.trailing_zeros() as usize;
            return Some(SimTime::from_micros(self.slot_min[level * SLOTS + slot]));
        }
        None
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The time of the most recently popped event (the queue's notion of
    /// "now").
    pub fn now(&self) -> SimTime {
        self.watermark
    }

    /// Resets the queue to its freshly-constructed state, keeping the slot
    /// allocations: pending events are dropped and the watermark returns
    /// to zero. A cleared queue schedules and drains exactly like a fresh
    /// one — the wheel's tie order is structural, so dropping the entries
    /// is already enough — and warm engines can recycle queues across runs
    /// without reallocating.
    pub fn clear(&mut self) {
        for level in 0..LEVELS {
            let mut bits = self.occupied[level];
            while bits != 0 {
                let slot = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.head[level * SLOTS + slot] = NIL;
                self.tail[level * SLOTS + slot] = NIL;
                self.slot_min[level * SLOTS + slot] = u64::MAX;
            }
            self.occupied[level] = 0;
        }
        self.arena.clear();
        self.free = NIL;
        self.now_tick = 0;
        self.watermark = SimTime::ZERO;
        self.len = 0;
        self.next_at.set(None);
    }

    /// Number of events the queue can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.arena.capacity()
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
    fn wheel_crosses_level_boundaries_in_order() {
        // Times straddling 64^k boundaries exercise cascades at every
        // level; drain order must stay globally sorted and FIFO at ties.
        let mut q = EventQueue::new();
        let boundaries = [
            63u64, 64, 65, 4095, 4096, 4097, 262_143, 262_144, 262_145,
            16_777_215, 16_777_216, 1_073_741_824, 68_719_476_736,
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
    fn wheel_far_future_event_survives_cascades() {
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
    fn wheel_zero_delay_chain_stays_fifo() {
        // Scheduling at exactly `now` while draining the same tick must
        // append after the entries already pending at that tick.
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
    fn wheel_peek_is_exact_across_levels() {
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
