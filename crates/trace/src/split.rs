//! Deterministic fan-out of one sorted stream into per-group substreams,
//! handed off in **blocks**.
//!
//! [`StreamSplitter`] routes items pulled from a single upstream source to
//! `n` consumer groups (one per island worker) **without materializing the
//! stream**: each group owns a bounded queue of fixed-size record blocks,
//! and whichever consumer needs data next drives the shared source until
//! its own next block fills, parking foreign items in their groups'
//! blocks. Consumers take a whole block per lock transaction
//! ([`StreamSplitter::pull_block`]), so the per-record cost of the
//! cross-thread hand-off is `1/block_len` lock acquisitions instead of
//! one — the difference between the island engines outrunning the serial
//! loop and losing to it.
//!
//! Properties:
//!
//! * **Order-preserving** — each group receives exactly its items, in
//!   upstream order. One consumer at a time holds the `reading` flag and
//!   drives the source, so per-group FIFO order is independent of thread
//!   timing.
//! * **Parsing outside the lock** — the reader pulls one block of items
//!   (`block_len`, each with its group) from the source without holding
//!   the splitter's state lock, then parks the whole block under it. The
//!   source and the router sit behind their own mutex, which only the
//!   flag holder locks, so while the reader parses, the other consumers
//!   take the blocks already parked for them.
//! * **Bounded, block-granularity backpressure** — a foreign group's
//!   parked full blocks never exceed `capacity` items; the reader blocks
//!   at a block boundary until the lagging consumer drains. With the open
//!   (partially-filled) block, a group buffers at most
//!   `capacity + block_len` items. The reader's own group is never held
//!   back (its consumer is the reader) and holds at most
//!   `2·block_len − 1` items: fewer than `block_len` in its open block
//!   when it starts reading, plus one pulled block, after which it stops
//!   once a block of its own is parked. As `block_len <= capacity`, the
//!   first bound covers every group; the observed maximum is reported by
//!   [`StreamSplitter::high_water`].
//! * **Recycled blocks** — drained block buffers return through a free
//!   list, so steady-state routing performs no allocation.
//! * **Fail-fast** — an upstream error is latched and returned to every
//!   group after its buffered items (those pulled before the error in the
//!   same block included), matching the serial pipeline's abort
//!   semantics.
//!
//! Deadlock freedom relies on one contract: **every group is consumed by a
//! live thread until it yields `None` or an error**. The island runner
//! guarantees this by construction (each worker loops on `pull_block`
//! until its substream ends).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Per-group buffer: parked full blocks plus the block being filled.
struct GroupState<T> {
    /// Full blocks awaiting the consumer, in upstream order.
    blocks: VecDeque<Vec<T>>,
    /// The block the reader is currently filling for this group.
    open: Vec<T>,
    /// Total items currently buffered (`blocks` + `open`).
    buffered: usize,
}

/// Shared state behind the splitter's mutex.
struct SplitState<T, E> {
    groups: Vec<GroupState<T>>,
    /// Drained block buffers awaiting reuse.
    free: Vec<Vec<T>>,
    /// Upstream exhausted.
    done: bool,
    /// Latched upstream error, returned to every group.
    error: Option<E>,
    /// A consumer is currently driving the source.
    reading: bool,
    /// Largest per-group buffered item count ever observed (diagnostic).
    high_water: usize,
}

/// The upstream side, behind its own mutex: only the consumer holding
/// the `reading` flag locks it.
struct Reader<'a, T, E> {
    /// The single upstream source; `None` result means exhausted.
    source: Box<dyn FnMut() -> Option<Result<T, E>> + Send + 'a>,
    /// Maps an item to its consumer group, `0..n_groups`.
    route: Box<dyn FnMut(&T) -> usize + Send + 'a>,
    /// The block being pulled: items with their groups, in upstream order.
    pulled: Vec<(usize, T)>,
}

impl<T, E> Reader<'_, T, E> {
    /// Pulls up to `n` routed items into `pulled`. Returns `None` when
    /// the block filled, `Some(Ok(()))` when the source ended and
    /// `Some(Err(e))` when it failed, after the items before the failure.
    fn pull(&mut self, n: usize) -> Option<Result<(), E>> {
        while self.pulled.len() < n {
            match (self.source)() {
                None => return Some(Ok(())),
                Some(Err(e)) => return Some(Err(e)),
                Some(Ok(item)) => {
                    let g = (self.route)(&item);
                    self.pulled.push((g, item));
                }
            }
        }
        None
    }
}

/// Splits one sorted upstream into per-group sorted substreams of record
/// blocks with bounded lookahead. See the [module docs](self) for the
/// contract.
pub struct StreamSplitter<'a, T, E> {
    state: Mutex<SplitState<T, E>>,
    reader: Mutex<Reader<'a, T, E>>,
    ready: Condvar,
    /// Full-block backpressure threshold, in items.
    capacity: usize,
    /// Records per block.
    block_len: usize,
}

impl<'a, T, E: Clone> StreamSplitter<'a, T, E> {
    /// Default per-group lookahead bound (items in parked full blocks).
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Default records per hand-off block.
    pub const DEFAULT_BLOCK: usize = 256;

    /// Creates a splitter over `source` routing into `n_groups` block
    /// queues of at most `capacity` parked items each. Blocks hold
    /// `min(capacity, DEFAULT_BLOCK)` records.
    ///
    /// # Panics
    ///
    /// Panics if `n_groups == 0` or `capacity == 0`.
    pub fn new(
        source: Box<dyn FnMut() -> Option<Result<T, E>> + Send + 'a>,
        route: Box<dyn FnMut(&T) -> usize + Send + 'a>,
        n_groups: usize,
        capacity: usize,
    ) -> Self {
        assert!(n_groups > 0, "need at least one group");
        assert!(capacity > 0, "lookahead capacity must be positive");
        let block_len = capacity.min(Self::DEFAULT_BLOCK);
        StreamSplitter {
            state: Mutex::new(SplitState {
                groups: (0..n_groups)
                    .map(|_| GroupState {
                        blocks: VecDeque::new(),
                        open: Vec::new(),
                        buffered: 0,
                    })
                    .collect(),
                free: Vec::new(),
                done: false,
                error: None,
                reading: false,
                high_water: 0,
            }),
            reader: Mutex::new(Reader {
                source,
                route,
                pulled: Vec::with_capacity(block_len),
            }),
            ready: Condvar::new(),
            capacity,
            block_len,
        }
    }

    /// Records per hand-off block.
    pub fn block_len(&self) -> usize {
        self.block_len
    }

    fn lock_state(&self) -> MutexGuard<'_, SplitState<T, E>> {
        self.state.lock().expect("splitter lock poisoned")
    }

    /// Next block for `group`, swapped into `out` (cleared first; its
    /// spare buffer is recycled into the free list). Returns
    /// `Some(Ok(()))` with `out` holding ≥ 1 item in upstream order,
    /// `Some(Err(e))` if the upstream failed (latched, delivered after
    /// the group's buffered items — every later call repeats it), `None`
    /// once the upstream is exhausted and the group has drained.
    pub fn pull_block(&self, group: usize, out: &mut Vec<T>) -> Option<Result<(), E>> {
        out.clear();
        let mut st = self.lock_state();
        loop {
            if let Some(mut block) = st.groups[group].blocks.pop_front() {
                st.groups[group].buffered -= block.len();
                std::mem::swap(out, &mut block);
                // `block` is now the consumer's drained spare; recycle it.
                st.free.push(block);
                // A parked reader may be waiting on this group's drain.
                self.ready.notify_all();
                return Some(Ok(()));
            }
            if st.done || st.error.is_some() {
                let g = &mut st.groups[group];
                if !g.open.is_empty() {
                    // End-of-stream tail: a final short block.
                    g.buffered = 0;
                    std::mem::swap(out, &mut g.open);
                    return Some(Ok(()));
                }
                return st.error.as_ref().map(|e| Err(e.clone()));
            }
            if st.reading {
                // Another consumer is driving the source; it will either
                // fill a block for us or finish the stream.
                st = self.ready.wait(st).expect("splitter lock poisoned");
                continue;
            }
            // Become the reader: pull a block from the source without the
            // state lock, park it under the lock, and repeat until our own
            // next block is parked (or the stream ends or errors).
            st.reading = true;
            drop(st);
            let mut reader = self.reader.lock().expect("splitter reader lock poisoned");
            st = loop {
                let end = reader.pull(self.block_len);
                let mut st = self.lock_state();
                for (g, item) in reader.pulled.drain(..) {
                    st = self.park(st, group, g, item);
                }
                match end {
                    Some(Ok(())) => st.done = true,
                    Some(Err(e)) => st.error = Some(e),
                    None => {}
                }
                if !st.groups[group].blocks.is_empty() || st.done || st.error.is_some() {
                    break st;
                }
                drop(st);
            };
            st.reading = false;
            self.ready.notify_all();
            // Loop back to take our block / tail / latched error.
        }
    }

    /// Appends `item` to group `g`'s open block on behalf of the reader
    /// consuming `reader_group`. A block that fills is parked; for a
    /// foreign group that first waits while the group's parked blocks sit
    /// at capacity. Its consumer is live by contract and pops under the
    /// same lock, so the wait always terminates.
    fn park<'s>(
        &'s self,
        mut st: MutexGuard<'s, SplitState<T, E>>,
        reader_group: usize,
        g: usize,
        item: T,
    ) -> MutexGuard<'s, SplitState<T, E>> {
        debug_assert!(g < st.groups.len(), "route out of range");
        if st.groups[g].open.capacity() == 0 {
            let buf = st.free.pop().unwrap_or_default();
            st.groups[g].open = buf;
        }
        st.groups[g].open.push(item);
        st.groups[g].buffered += 1;
        st.high_water = st.high_water.max(st.groups[g].buffered);
        if st.groups[g].open.len() >= self.block_len {
            while g != reader_group
                && st.groups[g].buffered - st.groups[g].open.len() >= self.capacity
            {
                st = self.ready.wait(st).expect("splitter lock poisoned");
            }
            let spare = st.free.pop().unwrap_or_default();
            let full = std::mem::replace(&mut st.groups[g].open, spare);
            st.groups[g].blocks.push_back(full);
            if g != reader_group {
                // Wake the block's consumer without waiting for our own
                // block to complete.
                self.ready.notify_all();
            }
        }
        st
    }

    /// Largest per-group buffered item count observed so far. Call after
    /// all groups have drained for the run's lookahead high-water mark.
    pub fn high_water(&self) -> usize {
        self.lock_state().high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vec_source<T: Send + 'static>(
        items: Vec<Result<T, String>>,
    ) -> Box<dyn FnMut() -> Option<Result<T, String>> + Send> {
        let mut it = items.into_iter();
        Box::new(move || it.next())
    }

    /// Drains `group` block-by-block into a flat vector, stopping at the
    /// end of the substream; panics on an upstream error.
    fn pull_all<T: Clone + Send, E: Clone + std::fmt::Debug>(
        s: &StreamSplitter<'_, T, E>,
        group: usize,
    ) -> Vec<T> {
        let mut out = Vec::new();
        let mut block = Vec::new();
        while let Some(r) = s.pull_block(group, &mut block) {
            r.unwrap();
            out.extend(block.iter().cloned());
        }
        out
    }

    #[test]
    fn single_group_passthrough() {
        let s = StreamSplitter::new(
            vec_source((0..1000).map(Ok).collect()),
            Box::new(|_: &i32| 0),
            1,
            64,
        );
        assert_eq!(s.block_len(), 64);
        let out = pull_all(&s, 0);
        assert_eq!(out, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn blocks_are_full_until_the_tail() {
        let s = StreamSplitter::new(
            vec_source((0..250).map(Ok).collect()),
            Box::new(|_: &i32| 0),
            1,
            StreamSplitter::<i32, String>::DEFAULT_CAPACITY,
        );
        let mut lens = Vec::new();
        let mut block = Vec::new();
        while let Some(r) = s.pull_block(0, &mut block) {
            r.unwrap();
            lens.push(block.len());
        }
        // 250 = 256-block fixture minus the tail: everything lands in one
        // short final block per full-block run.
        assert_eq!(lens.iter().sum::<usize>(), 250);
        assert!(lens[..lens.len() - 1].iter().all(|&l| l == 256));
    }

    #[test]
    fn routes_preserve_per_group_order() {
        let n: i32 = 30_000;
        let s = StreamSplitter::new(
            vec_source((0..n).map(Ok).collect()),
            Box::new(|x: &i32| (*x % 3) as usize),
            3,
            StreamSplitter::<i32, String>::DEFAULT_CAPACITY,
        );
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3usize)
                .map(|g| {
                    let s = &s;
                    scope.spawn(move || pull_all(s, g))
                })
                .collect();
            for (g, h) in handles.into_iter().enumerate() {
                let got = h.join().unwrap();
                let want: Vec<i32> = (0..n).filter(|x| (*x % 3) as usize == g).collect();
                assert_eq!(got, want, "group {g}");
            }
        });
        assert!(s.high_water() > 0);
    }

    #[test]
    fn bounded_buffers_block_instead_of_growing() {
        // Group 1 gets the first 200 items; group 0's single item comes
        // last. Group 0 must drive the source through all of group 1's
        // items, respecting the block-granularity backpressure bound.
        let mut items: Vec<Result<i32, String>> = (0..200).map(|i| Ok(i * 2 + 1)).collect();
        items.push(Ok(0));
        let cap = 16;
        let s = StreamSplitter::new(
            vec_source(items),
            Box::new(|x: &i32| (*x % 2) as usize),
            2,
            cap,
        );
        std::thread::scope(|scope| {
            let s0 = &s;
            let slow = scope.spawn(move || pull_all(s0, 1));
            let mut block = Vec::new();
            assert_eq!(s.pull_block(0, &mut block), Some(Ok(())));
            assert_eq!(block, vec![0]);
            assert_eq!(s.pull_block(0, &mut block), None);
            let odd = slow.join().unwrap();
            assert_eq!(odd.len(), 200);
        });
        // Parked full blocks are capped at `cap` items; the open block can
        // hold up to one more block beyond that.
        assert!(
            s.high_water() <= cap + s.block_len(),
            "high water {}",
            s.high_water()
        );
    }

    #[test]
    fn upstream_error_latches_for_every_group() {
        let s = StreamSplitter::new(
            vec_source(vec![Ok(0), Ok(1), Err("boom".to_string())]),
            Box::new(|x: &i32| *x as usize),
            2,
            8,
        );
        let mut block = Vec::new();
        assert_eq!(s.pull_block(0, &mut block), Some(Ok(())));
        assert_eq!(block, vec![0]);
        // Pulling group 0 again drives past item 1 (parked for group 1)
        // into the error.
        assert_eq!(s.pull_block(0, &mut block), Some(Err("boom".to_string())));
        // Group 1 still sees its buffered item first, then the error.
        assert_eq!(s.pull_block(1, &mut block), Some(Ok(())));
        assert_eq!(block, vec![1]);
        assert_eq!(s.pull_block(1, &mut block), Some(Err("boom".to_string())));
        assert_eq!(s.pull_block(0, &mut block), Some(Err("boom".to_string())));
    }

    #[test]
    fn an_error_inside_a_pulled_block_follows_its_earlier_items() {
        // Blocks of 4: the reader's second pull is 8, 9 and then the
        // error; items after the error are never pulled.
        let mut items: Vec<Result<i32, String>> = (0..10).map(Ok).collect();
        items.push(Err("boom".to_string()));
        items.extend((10..20).map(Ok));
        let s = StreamSplitter::new(
            vec_source(items),
            Box::new(|x: &i32| (*x % 2) as usize),
            2,
            4,
        );
        let mut block = Vec::new();
        assert_eq!(s.pull_block(0, &mut block), Some(Ok(())));
        assert_eq!(block, vec![0, 2, 4, 6]);
        assert_eq!(s.pull_block(0, &mut block), Some(Ok(())));
        assert_eq!(block, vec![8]);
        assert_eq!(s.pull_block(0, &mut block), Some(Err("boom".to_string())));
        assert_eq!(s.pull_block(1, &mut block), Some(Ok(())));
        assert_eq!(block, vec![1, 3, 5, 7]);
        assert_eq!(s.pull_block(1, &mut block), Some(Ok(())));
        assert_eq!(block, vec![9]);
        assert_eq!(s.pull_block(1, &mut block), Some(Err("boom".to_string())));
        assert_eq!(s.pull_block(0, &mut block), Some(Err("boom".to_string())));
    }

    #[test]
    fn the_readers_own_group_holds_under_two_blocks() {
        // Group 0 reads alone: each pulled block of 256 carries 255 of its
        // items and one of group 1's, so its open block is mostly full
        // when a pull starts and a pull can carry it past one block.
        let items: Vec<Result<i32, String>> = (0..4 * 256).map(Ok).collect();
        let s = StreamSplitter::new(
            vec_source(items),
            Box::new(|x: &i32| usize::from(*x % 256 == 255)),
            2,
            StreamSplitter::<i32, String>::DEFAULT_CAPACITY,
        );
        let own = pull_all(&s, 0);
        assert_eq!(own.len(), 4 * 255);
        assert_eq!(pull_all(&s, 1), vec![255, 511, 767, 1023]);
        assert!(
            s.high_water() < 2 * s.block_len(),
            "high water {}",
            s.high_water()
        );
    }

    #[test]
    fn four_groups_with_a_slow_consumer_keep_order_and_bound() {
        let n: u32 = 60_000;
        let cap = 64;
        // The top two bits of a multiplicative hash: an irregular mix.
        let route = |x: &u32| (x.wrapping_mul(0x9e37_79b9) >> 30) as usize;
        let s = StreamSplitter::new(
            vec_source((0..n).map(Ok).collect()),
            Box::new(route),
            4,
            cap,
        );
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4usize)
                .map(|g| {
                    let s = &s;
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        let mut block = Vec::new();
                        while let Some(r) = s.pull_block(g, &mut block) {
                            r.unwrap();
                            out.extend_from_slice(&block);
                            if g == 3 {
                                std::thread::sleep(std::time::Duration::from_micros(50));
                            }
                        }
                        out
                    })
                })
                .collect();
            for (g, h) in handles.into_iter().enumerate() {
                let want: Vec<u32> = (0..n).filter(|x| route(x) == g).collect();
                assert_eq!(h.join().unwrap(), want, "group {g}");
            }
        });
        assert!(
            s.high_water() <= cap + s.block_len(),
            "high water {}",
            s.high_water()
        );
    }

    #[test]
    fn exhaustion_yields_none_for_all_groups() {
        let s = StreamSplitter::new(vec_source(vec![Ok(1)]), Box::new(|_: &i32| 1), 2, 8);
        let mut block = Vec::new();
        assert_eq!(s.pull_block(0, &mut block), None);
        assert_eq!(s.pull_block(1, &mut block), Some(Ok(())));
        assert_eq!(block, vec![1]);
        assert_eq!(s.pull_block(1, &mut block), None);
        assert_eq!(s.pull_block(0, &mut block), None);
    }

    #[test]
    fn block_buffers_are_recycled() {
        // After a warm-up block cycles through, steady-state pulls swap
        // buffers instead of allocating: the block handed back has the
        // capacity of a previously drained one.
        let s = StreamSplitter::new(
            vec_source((0..512).map(Ok).collect()),
            Box::new(|_: &i32| 0),
            1,
            256,
        );
        let mut block = Vec::new();
        assert_eq!(s.pull_block(0, &mut block), Some(Ok(())));
        let first_ptr_cap = block.capacity();
        assert_eq!(block.len(), 256);
        assert_eq!(s.pull_block(0, &mut block), Some(Ok(())));
        assert_eq!(block.len(), 256);
        assert!(block.capacity() >= first_ptr_cap.min(256));
        assert_eq!(s.pull_block(0, &mut block), None);
    }
}
