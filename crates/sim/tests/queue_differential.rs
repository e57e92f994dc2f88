//! Differential suite for [`spindown_sim::event::EventQueue`]: its pop
//! sequence must be **bit-identical** to the simplest stable queue, a
//! `Vec` kept sorted by time, on hundreds of seeded schedules — same
//! `(time, payload)` stream, same `peek_time`, same `len`, same `now`,
//! through interleaved schedule/pop traffic, heavy ties, times around
//! powers of 64, far-future times up to `u64::MAX − 1` µs, and
//! clear-then-reuse.

use spindown_sim::event::{EventQueue, Scheduled};
use spindown_sim::rng::SplitMix64;
use spindown_sim::time::SimTime;

/// The reference: pending events in a `Vec` sorted by time, each new
/// entry inserted after every entry whose time is at most its own. Ties
/// are FIFO by construction, and the front is always the next event.
struct SortedVecQueue<T> {
    pending: Vec<Scheduled<T>>,
    watermark: SimTime,
}

impl<T> SortedVecQueue<T> {
    fn new() -> Self {
        SortedVecQueue {
            pending: Vec::new(),
            watermark: SimTime::ZERO,
        }
    }

    fn schedule(&mut self, at: SimTime, payload: T) {
        let i = self.pending.partition_point(|e| e.at <= at);
        self.pending.insert(i, Scheduled { at, payload });
    }

    fn pop(&mut self) -> Option<Scheduled<T>> {
        if self.pending.is_empty() {
            return None;
        }
        let e = self.pending.remove(0);
        self.watermark = e.at;
        Some(e)
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.pending.first().map(|e| e.at)
    }

    fn len(&self) -> usize {
        self.pending.len()
    }

    fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    fn now(&self) -> SimTime {
        self.watermark
    }

    fn clear(&mut self) {
        self.pending.clear();
        self.watermark = SimTime::ZERO;
    }
}

/// Both queues under lockstep: every operation is applied to both and
/// every observable compared.
struct Pair {
    queue: EventQueue<u64>,
    reference: SortedVecQueue<u64>,
    next_payload: u64,
}

impl Pair {
    fn new() -> Self {
        Pair {
            queue: EventQueue::new(),
            reference: SortedVecQueue::new(),
            next_payload: 0,
        }
    }

    fn schedule(&mut self, at: SimTime) {
        let p = self.next_payload;
        self.next_payload += 1;
        self.queue.schedule(at, p);
        self.reference.schedule(at, p);
        self.check_observables();
    }

    fn pop(&mut self) -> Option<SimTime> {
        let got = self.queue.pop();
        let want = self.reference.pop();
        match (&got, &want) {
            (None, None) => {}
            (Some(g), Some(w)) => {
                assert_eq!(g.at, w.at, "pop time diverged");
                assert_eq!(g.payload, w.payload, "pop FIFO order diverged");
            }
            _ => panic!("one queue empty, the other not"),
        }
        self.check_observables();
        got.map(|e| e.at)
    }

    fn clear(&mut self) {
        self.queue.clear();
        self.reference.clear();
        self.next_payload = 0;
        self.check_observables();
    }

    fn check_observables(&self) {
        assert_eq!(self.queue.len(), self.reference.len(), "len diverged");
        assert_eq!(self.queue.is_empty(), self.reference.is_empty());
        assert_eq!(self.queue.now(), self.reference.now(), "watermark diverged");
        assert_eq!(
            self.queue.peek_time(),
            self.reference.peek_time(),
            "peek_time diverged"
        );
    }

    fn drain(&mut self) {
        while self.pop().is_some() {}
    }
}

/// Draws a schedule delta (µs ahead of `now`) from a mixture of scales:
/// same-instant ties, deltas under 64, 4,096, 262,144 and 16,777,216 µs,
/// far-future times, and powers of 64 (±1) with extra weight.
fn draw_delta(rng: &mut SplitMix64) -> u64 {
    let class = rng.next_u64() % 100;
    match class {
        // Same-timestamp ties — the FIFO-critical class.
        0..=24 => 0,
        25..=44 => rng.next_u64() % 64,
        45..=59 => rng.next_u64() % 4096,
        60..=69 => rng.next_u64() % 262_144,
        70..=79 => rng.next_u64() % 16_777_216,
        // Far future.
        80..=87 => rng.next_u64() % (1 << 45),
        // Exact powers 64^k, ±1.
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
        if roll < 60 || pair.queue.is_empty() {
            let now = pair.queue.now();
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
    // 200+ seeded schedules: every pop sequence must match the
    // reference exactly.
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
            let now = pair.queue.now().as_micros();
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
    // schedule on the same (recycled) queues. The queue's schedule
    // count and watermark must reset as a fresh queue's would.
    for seed in 0..32u64 {
        let mut rng = SplitMix64::new(seed.wrapping_mul(0xC13A_9CB5) + 7);
        let mut pair = Pair::new();
        for round in 0..3 {
            for _ in 0..200 {
                let roll = rng.next_u64() % 100;
                if roll < 65 || pair.queue.is_empty() {
                    let now = pair.queue.now();
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
fn far_future_events_drain_last_in_schedule_order() {
    // A handful of events parked near the top of the time space must
    // outlast everything scheduled after them and drain last, in
    // schedule order.
    let mut pair = Pair::new();
    let far = [u64::MAX - 2, u64::MAX - 1, u64::MAX - 2, u64::MAX];
    for &t in &far {
        pair.schedule(SimTime::from_micros(t));
    }
    let mut rng = SplitMix64::new(99);
    for _ in 0..500 {
        let now = pair.queue.now();
        let at = SimTime::from_micros(now.as_micros().saturating_add(rng.next_u64() % (1 << 40)));
        pair.schedule(at);
        if rng.next_u64().is_multiple_of(3) {
            pair.pop();
        }
    }
    pair.drain();
}

#[test]
fn zero_delay_reschedule_chains_match() {
    // Events that reschedule at exactly `now` while the same instant drains
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
                        pair.queue.now().as_micros() + rng.next_u64() % 1_000_000,
                    ));
                }
            }
        }
        pair.drain();
    }
}
