//! Thread-local allocation counting for the bench harness.
//!
//! [`CountingAlloc`] is a [`GlobalAlloc`] that delegates every operation
//! to the [`System`] allocator and, on each `alloc`, `alloc_zeroed`, and
//! `realloc`, bumps two thread-local counters: one per acquisition and
//! one by the bytes requested. Installed behind the `bench-alloc`
//! feature of the CLI:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: spindown_alloctrack::CountingAlloc =
//!     spindown_alloctrack::CountingAlloc;
//! ```
//!
//! the harness brackets a warm solve with [`reset_thread_allocs`] /
//! [`thread_allocs`] to report the `allocs_per_solve` gauge — the
//! zero-allocation contract of the scratch-reuse paths, measured rather
//! than asserted. Test binaries that install it bound a solver's
//! working memory by [`thread_bytes`] the same way. The counters are
//! per-thread, so allocations on worker-pool threads do not pollute a
//! measurement taken on the calling thread; that is the right scope for
//! the serial solves they measure.
//!
//! This is the one crate in the workspace that cannot
//! `forbid(unsafe_code)`: implementing `GlobalAlloc` is inherently
//! `unsafe`. Every method forwards verbatim to [`System`]; the only
//! added behaviour is the counter bumps, which cannot allocate (the
//! thread-locals are const-initialized and `u64` has no destructor, so
//! no lazy registration runs inside the allocator).

#![deny(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Number of heap acquisitions (`alloc` + `alloc_zeroed` + `realloc`)
/// performed by the **current thread** since the last
/// [`reset_thread_allocs`], as counted by an installed [`CountingAlloc`].
/// Always 0 when the counting allocator is not the global allocator.
pub fn thread_allocs() -> u64 {
    ALLOCS.with(|c| c.get())
}

/// Bytes requested by the **current thread** since the last
/// [`reset_thread_allocs`]: the sum of the sizes of every `alloc`,
/// `alloc_zeroed` and `realloc` (its new size), so an upper bound on
/// what those requests held at any one moment. Always 0 when the
/// counting allocator is not the global allocator.
pub fn thread_bytes() -> u64 {
    BYTES.with(|c| c.get())
}

/// Resets the current thread's allocation and byte counters to zero.
pub fn reset_thread_allocs() {
    ALLOCS.with(|c| c.set(0));
    BYTES.with(|c| c.set(0));
}

/// A [`System`]-delegating global allocator that counts acquisitions
/// per thread. See the crate docs for usage.
pub struct CountingAlloc;

#[inline]
fn bump(bytes: usize) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    BYTES.with(|c| c.set(c.get() + bytes as u64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The allocator is not installed in this crate's own test binary, so
    // only the counter plumbing is testable here; end-to-end counting is
    // exercised by the CLI's `bench-alloc` build.
    #[test]
    fn counter_plumbing() {
        reset_thread_allocs();
        assert_eq!((thread_allocs(), thread_bytes()), (0, 0));
        bump(16);
        bump(48);
        assert_eq!((thread_allocs(), thread_bytes()), (2, 64));
        reset_thread_allocs();
        assert_eq!((thread_allocs(), thread_bytes()), (0, 0));
    }
}
