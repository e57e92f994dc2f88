//! Differential torture suite: the timing wheel
//! ([`spindown_sim::event::EventQueue`]) must produce **bit-identical pop
//! sequences** to a plain `(time, seq)` binary heap on hundreds of seeded
//! schedules — same `(time, payload)` stream, same `peek_time`, same
//! `len`, same `now`, through interleaved schedule/pop traffic, rollover
//! boundaries, far-future cross-level events, and clear-then-reuse.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use spindown_sim::event::{EventQueue, Scheduled};
use spindown_sim::rng::SplitMix64;
use spindown_sim::time::SimTime;

/// The reference order: a max-heap inverted to pop the earliest time
/// first and, among equal times, the lowest schedule sequence number.
struct Entry<T> {
    at: SimTime,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The heap event queue the wheel replaced, trimmed to the calls this
/// suite makes. FIFO among equal times is bought with a per-entry
/// counter, which `clear` rewinds.
struct HeapQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
    watermark: SimTime,
}

impl<T> HeapQueue<T> {
    fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            watermark: SimTime::ZERO,
        }
    }

    fn schedule(&mut self, at: SimTime, payload: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at, seq, payload });
    }

    fn pop(&mut self) -> Option<Scheduled<T>> {
        let e = self.heap.pop()?;
        self.watermark = e.at;
        Some(Scheduled {
            at: e.at,
            payload: e.payload,
        })
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    fn now(&self) -> SimTime {
        self.watermark
    }

    fn clear(&mut self) {
        self.heap.clear();
        self.seq = 0;
        self.watermark = SimTime::ZERO;
    }
}

/// Both queues under lockstep: every operation is applied to both and
/// every observable compared.
struct Pair {
    wheel: EventQueue<u64>,
    heap: HeapQueue<u64>,
    next_payload: u64,
}

impl Pair {
    fn new() -> Self {
        Pair {
            wheel: EventQueue::new(),
            heap: HeapQueue::new(),
            next_payload: 0,
        }
    }

    fn schedule(&mut self, at: SimTime) {
        let p = self.next_payload;
        self.next_payload += 1;
        self.wheel.schedule(at, p);
        self.heap.schedule(at, p);
        self.check_observables();
    }

    fn pop(&mut self) -> Option<SimTime> {
        let w = self.wheel.pop();
        let h = self.heap.pop();
        match (&w, &h) {
            (None, None) => {}
            (Some(we), Some(he)) => {
                assert_eq!(we.at, he.at, "pop time diverged");
                assert_eq!(we.payload, he.payload, "pop FIFO order diverged");
            }
            _ => panic!("one queue empty, the other not"),
        }
        self.check_observables();
        w.map(|e| e.at)
    }

    fn clear(&mut self) {
        self.wheel.clear();
        self.heap.clear();
        self.next_payload = 0;
        self.check_observables();
    }

    fn check_observables(&self) {
        assert_eq!(self.wheel.len(), self.heap.len(), "len diverged");
        assert_eq!(self.wheel.is_empty(), self.heap.is_empty());
        assert_eq!(self.wheel.now(), self.heap.now(), "watermark diverged");
        assert_eq!(
            self.wheel.peek_time(),
            self.heap.peek_time(),
            "peek_time diverged"
        );
    }

    fn drain(&mut self) {
        while self.pop().is_some() {}
    }
}

/// Draws a schedule delta (µs ahead of `now`) from a mixture that hits
/// every wheel level: same-tick ties, within-window, each cascade level,
/// and far-future times, with extra weight on exact 64^k rollover edges.
fn draw_delta(rng: &mut SplitMix64) -> u64 {
    let class = rng.next_u64() % 100;
    match class {
        // Same-timestamp ties — the FIFO-critical class.
        0..=24 => 0,
        // Within the current 64-tick window (level 0).
        25..=44 => rng.next_u64() % 64,
        // Levels 1–3.
        45..=59 => rng.next_u64() % 4096,
        60..=69 => rng.next_u64() % 262_144,
        70..=79 => rng.next_u64() % 16_777_216,
        // Far future, crossing high levels.
        80..=87 => rng.next_u64() % (1 << 45),
        // Exact rollover boundaries 64^k, ±1.
        _ => {
            let k = 1 + (rng.next_u64() % 8) as u32;
            let base = 1u64 << (6 * k);
            match rng.next_u64() % 3 {
                0 => base - 1,
                1 => base,
                _ => base + 1,
            }
        }
    }
}

/// One seeded schedule: `ops` interleaved schedule/pop operations, then a
/// full drain; every intermediate observable compared.
fn run_schedule(seed: u64, ops: usize) {
    let mut rng = SplitMix64::new(seed);
    let mut pair = Pair::new();
    for _ in 0..ops {
        let roll = rng.next_u64() % 100;
        if roll < 60 || pair.wheel.is_empty() {
            let now = pair.wheel.now();
            let at = SimTime::from_micros(now.as_micros().saturating_add(draw_delta(&mut rng)));
            pair.schedule(at);
        } else {
            pair.pop();
        }
    }
    pair.drain();
}

#[test]
fn seeded_schedules_are_bit_identical() {
    // 200+ seeded schedules: every pop sequence must match the heap
    // exactly.
    for seed in 0..220u64 {
        run_schedule(seed * 0x9E37_79B9 + 1, 1500);
    }
}

#[test]
fn heavy_tie_schedules_are_bit_identical() {
    // Arrival vs completion vs power-sample events land at the same
    // instant all the time; model that as bursts of identical timestamps
    // interleaved with pops.
    for seed in 0..64u64 {
        let mut rng = SplitMix64::new(seed ^ 0x71E5);
        let mut pair = Pair::new();
        for _ in 0..300 {
            let now = pair.wheel.now().as_micros();
            let t = SimTime::from_micros(now + rng.next_u64() % 128);
            let burst = 1 + rng.next_u64() % 6;
            for _ in 0..burst {
                pair.schedule(t);
            }
            let pops = rng.next_u64() % (burst + 2);
            for _ in 0..pops {
                if pair.pop().is_none() {
                    break;
                }
            }
        }
        pair.drain();
    }
}

#[test]
fn clear_then_reuse_is_bit_identical() {
    // Warm-engine reuse: clear mid-traffic, then replay a fresh seeded
    // schedule on the same (recycled) queues. The FIFO counter and
    // watermark must reset identically on both sides.
    for seed in 0..32u64 {
        let mut rng = SplitMix64::new(seed.wrapping_mul(0xC13A_9CB5) + 7);
        let mut pair = Pair::new();
        for round in 0..3 {
            for _ in 0..200 {
                let roll = rng.next_u64() % 100;
                if roll < 65 || pair.wheel.is_empty() {
                    let now = pair.wheel.now();
                    let at =
                        SimTime::from_micros(now.as_micros().saturating_add(draw_delta(&mut rng)));
                    pair.schedule(at);
                } else {
                    pair.pop();
                }
            }
            if round < 2 {
                pair.clear();
            }
        }
        pair.drain();
    }
}

#[test]
fn far_future_events_cross_all_levels() {
    // A handful of events parked near the top of the tick space must
    // survive every cascade and drain last, in schedule order.
    let mut pair = Pair::new();
    let far = [u64::MAX - 2, u64::MAX - 1, u64::MAX - 2, u64::MAX];
    for &t in &far {
        pair.schedule(SimTime::from_micros(t));
    }
    let mut rng = SplitMix64::new(99);
    for _ in 0..500 {
        let now = pair.wheel.now();
        let at = SimTime::from_micros(now.as_micros().saturating_add(rng.next_u64() % (1 << 40)));
        pair.schedule(at);
        if rng.next_u64().is_multiple_of(3) {
            pair.pop();
        }
    }
    pair.drain();
}

#[test]
fn zero_delay_cascade_reschedules_match() {
    // Events that reschedule at exactly `now` while the same tick drains
    // (spin-up completion chains do this) must interleave identically.
    for seed in 0..32u64 {
        let mut rng = SplitMix64::new(seed + 0x5EED);
        let mut pair = Pair::new();
        pair.schedule(SimTime::from_micros(rng.next_u64() % 10_000));
        for _ in 0..400 {
            match pair.pop() {
                Some(at) => {
                    // Chain: reschedule 0–2 events at the popped instant,
                    // plus occasionally one strictly later.
                    for _ in 0..rng.next_u64() % 3 {
                        pair.schedule(at);
                    }
                    if rng.next_u64().is_multiple_of(4) {
                        pair.schedule(SimTime::from_micros(
                            at.as_micros().saturating_add(1 + rng.next_u64() % 100_000),
                        ));
                    }
                }
                None => {
                    pair.schedule(SimTime::from_micros(
                        pair.wheel.now().as_micros() + rng.next_u64() % 1_000_000,
                    ));
                }
            }
        }
        pair.drain();
    }
}
