//! Deterministic scoped-thread worker pool.
//!
//! One clamp-and-spawn implementation shared by every parallel substrate
//! in the workspace: experiment-grid cells
//! (`spindown-bench`'s `EvalGrid`), sharded conflict-graph construction
//! and per-disk offline evaluation (`spindown-core`). The contract is
//! strict determinism: results land in **pre-sized, index-addressed
//! slots**, so the output of [`map_indexed`] is bit-identical for every
//! worker count — parallelism only changes wall-clock, never bytes.
//!
//! Scheduling is a shared atomic cursor over the task index space (a
//! work queue, not a static partition), so a straggler task cannot idle
//! the other workers. `jobs = 1` never spawns a thread: the closure runs
//! inline on the caller's stack, making the serial path the literal
//! zero-overhead baseline the determinism suites compare against.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable consulted by [`Parallelism::from_env`]: a
/// positive integer worker count. Unset and empty fall back to 1
/// (serial); `0` and unparsable values are *rejected* — they also run
/// serial, but with a warning on stderr so a typo (`SPINDOWN_JOBS=0`,
/// `SPINDOWN_JOBS=max`) is never silently swallowed.
pub const JOBS_ENV_VAR: &str = "SPINDOWN_JOBS";

/// How one [`SPINDOWN_JOBS`](JOBS_ENV_VAR) value parsed. Split from the
/// environment read so every path has a deterministic unit test (env
/// mutation is racy under the parallel test harness).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobsParse {
    /// A valid worker count (≥ 1).
    Jobs(usize),
    /// Empty or whitespace-only: treated like unset (silent serial) —
    /// `SPINDOWN_JOBS= cmd` is the conventional shell idiom for "off".
    Unset,
    /// `0` or not a number: rejected; the caller warns and runs serial.
    Invalid,
}

fn parse_jobs(raw: &str) -> JobsParse {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return JobsParse::Unset;
    }
    match trimmed.parse::<usize>() {
        Ok(n) if n >= 1 => JobsParse::Jobs(n),
        _ => JobsParse::Invalid,
    }
}

/// A resolved worker-thread count (always ≥ 1).
///
/// The precedence chain for user-facing tools is
/// [`Parallelism::resolve`]: an explicit setting (e.g. a `--jobs` flag)
/// wins, otherwise the [`SPINDOWN_JOBS`](JOBS_ENV_VAR) environment
/// variable, otherwise serial.
///
/// # Examples
///
/// ```
/// use spindown_sim::pool::Parallelism;
///
/// assert_eq!(Parallelism::new(0).get(), 1, "zero clamps to serial");
/// assert_eq!(Parallelism::new(8).get(), 8);
/// assert_eq!(Parallelism::resolve(Some(3)).get(), 3, "explicit wins");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Parallelism(usize);

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::SERIAL
    }
}

impl Parallelism {
    /// Serial execution: one worker, no threads spawned.
    pub const SERIAL: Parallelism = Parallelism(1);

    /// Creates a parallelism level; `0` is clamped to 1.
    pub fn new(jobs: usize) -> Self {
        Parallelism(jobs.max(1))
    }

    /// The worker count (≥ 1).
    pub fn get(self) -> usize {
        self.0
    }

    /// Reads [`SPINDOWN_JOBS`](JOBS_ENV_VAR) from the environment.
    /// Unset and empty yield serial silently; `0` and garbage are
    /// rejected with a warning on stderr (and also yield serial) rather
    /// than being silently resolved.
    pub fn from_env() -> Self {
        match std::env::var(JOBS_ENV_VAR) {
            Ok(v) => match parse_jobs(&v) {
                JobsParse::Jobs(n) => Parallelism(n),
                JobsParse::Unset => Parallelism::SERIAL,
                JobsParse::Invalid => {
                    eprintln!(
                        "warning: ignoring {JOBS_ENV_VAR}={v:?}: \
                         expected a worker count >= 1; running serial"
                    );
                    Parallelism::SERIAL
                }
            },
            Err(_) => Parallelism::SERIAL,
        }
    }

    /// Resolves the user-facing precedence chain: `explicit` (e.g. a
    /// `--jobs` flag) > [`SPINDOWN_JOBS`](JOBS_ENV_VAR) > serial.
    pub fn resolve(explicit: Option<usize>) -> Self {
        match explicit {
            Some(n) => Parallelism::new(n),
            None => Parallelism::from_env(),
        }
    }
}

/// Splits `0..len` into `shards` contiguous, balanced, in-order ranges
/// (the first `len % shards` ranges are one longer). Empty ranges are
/// never produced: the shard count is clamped to `1..=len` (a zero-length
/// input yields no ranges at all).
///
/// Sharded producers pair this with [`map_indexed`]: each shard fills its
/// own output slot and the caller concatenates slots in shard-index
/// order, which keeps the merged result independent of both the worker
/// count *and* the shard count whenever downstream consumers normalize
/// order (e.g. CSR finalization sorts each adjacency slice).
pub fn shard_ranges(len: usize, shards: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let shards = shards.clamp(1, len);
    let base = len / shards;
    let extra = len % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0usize;
    for s in 0..shards {
        let width = base + usize::from(s < extra);
        out.push(start..start + width);
        start += width;
    }
    debug_assert_eq!(start, len);
    out
}

/// Applies `f` to every index in `0..len` with up to `jobs` worker
/// threads and returns the results in index order.
///
/// * `jobs` is clamped to `1..=len`; `jobs = 1` (or `len <= 1`) runs
///   entirely on the calling thread — no spawn, no locks.
/// * Tasks are claimed from a shared atomic cursor, so scheduling adapts
///   to imbalance; each result is written to its own pre-sized slot, so
///   the returned `Vec` is **bit-identical for any `jobs` value**.
/// * A panic inside `f` propagates to the caller once the scope joins.
pub fn map_indexed<T, F>(jobs: usize, len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = jobs.clamp(1, len.max(1));
    if jobs == 1 {
        return (0..len).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..len).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= len {
                    break;
                }
                let out = f(i);
                *slots[i].lock().expect("no panics hold the slot lock") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no panics hold the slot lock")
                .expect("work queue computed every slot")
        })
        .collect()
}

/// Hands out the consecutive chunks `data[bounds[s]..bounds[s + 1]]` to
/// up to `jobs` workers, calling `f(s, chunk)` once per chunk, and
/// returns the results in chunk order.
///
/// Each chunk is a disjoint `&mut` borrow cut by `split_at_mut`, so a
/// shard writes its own region of one shared output array in place: no
/// per-shard buffer, no merge, no atomic writes. Empty chunks (repeated
/// bounds) are allowed. Scheduling, determinism and panic propagation
/// are those of [`map_indexed`]: whatever the worker count, chunk `s`
/// sees the same slice and result `s` lands in slot `s`.
///
/// # Panics
///
/// Panics unless `bounds` is non-decreasing, starts at 0 and ends at
/// `data.len()`.
pub fn map_chunks_mut<T, R, F>(jobs: usize, data: &mut [T], bounds: &[usize], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    assert!(
        bounds.first() == Some(&0) && bounds.last() == Some(&data.len()),
        "chunk bounds must run from 0 to the data length"
    );
    let mut chunks = Vec::with_capacity(bounds.len() - 1);
    let mut rest = data;
    for w in bounds.windows(2) {
        assert!(w[0] <= w[1], "chunk bounds must be non-decreasing");
        let (chunk, tail) = rest.split_at_mut(w[1] - w[0]);
        chunks.push(Mutex::new(Some(chunk)));
        rest = tail;
    }
    map_indexed(jobs, chunks.len(), |s| {
        let chunk = chunks[s]
            .lock()
            .expect("no panics hold the chunk lock")
            .take()
            .expect("each chunk is handed out once");
        f(s, chunk)
    })
}

/// Default shard multiplier: sharding finer than the worker count lets
/// the work queue absorb per-shard cost imbalance (dense disks, hot
/// request buckets) without a scheduling heuristic. Four shards per
/// worker keeps the merge bookkeeping negligible while bounding the
/// worst-case idle tail at ~¼ of one worker's share.
pub const SHARDS_PER_JOB: usize = 4;

/// Shard count for `jobs` workers over `len` tasks:
/// `jobs × SHARDS_PER_JOB`, clamped to `1..=len`.
pub fn default_shards(jobs: usize, len: usize) -> usize {
    jobs.saturating_mul(SHARDS_PER_JOB).clamp(1, len.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_clamps_and_resolves() {
        assert_eq!(Parallelism::new(0), Parallelism::SERIAL);
        assert_eq!(Parallelism::new(5).get(), 5);
        assert_eq!(Parallelism::default(), Parallelism::SERIAL);
        assert_eq!(Parallelism::resolve(Some(0)).get(), 1);
        assert_eq!(Parallelism::resolve(Some(7)).get(), 7);
    }

    #[test]
    fn jobs_parse_accepts_positive_counts() {
        assert_eq!(parse_jobs("1"), JobsParse::Jobs(1));
        assert_eq!(parse_jobs("8"), JobsParse::Jobs(8));
        assert_eq!(
            parse_jobs("  16 "),
            JobsParse::Jobs(16),
            "whitespace trimmed"
        );
    }

    #[test]
    fn jobs_parse_treats_empty_as_unset() {
        assert_eq!(parse_jobs(""), JobsParse::Unset);
        assert_eq!(parse_jobs("   "), JobsParse::Unset);
        assert_eq!(parse_jobs("\t"), JobsParse::Unset);
    }

    #[test]
    fn jobs_parse_rejects_zero() {
        assert_eq!(parse_jobs("0"), JobsParse::Invalid);
        assert_eq!(parse_jobs(" 0 "), JobsParse::Invalid);
    }

    #[test]
    fn jobs_parse_rejects_garbage() {
        for garbage in ["max", "-1", "2.5", "1x", "0x8", "eight", "+ 3"] {
            assert_eq!(parse_jobs(garbage), JobsParse::Invalid, "{garbage:?}");
        }
    }

    #[test]
    fn shard_ranges_cover_and_balance() {
        for len in [0usize, 1, 2, 7, 64, 1000] {
            for shards in [1usize, 2, 3, 8, 2000] {
                let ranges = shard_ranges(len, shards);
                if len == 0 {
                    assert!(ranges.is_empty());
                    continue;
                }
                assert_eq!(ranges.len(), shards.min(len));
                // Contiguous, in order, covering 0..len.
                assert_eq!(ranges.first().unwrap().start, 0);
                assert_eq!(ranges.last().unwrap().end, len);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                }
                // Balanced within one.
                let min = ranges.iter().map(|r| r.len()).min().unwrap();
                let max = ranges.iter().map(|r| r.len()).max().unwrap();
                assert!(max - min <= 1, "len {len} shards {shards}");
                assert!(min >= 1);
            }
        }
    }

    #[test]
    fn map_indexed_matches_serial_for_any_jobs() {
        let serial: Vec<usize> = (0..100).map(|i| i * i).collect();
        for jobs in [1usize, 2, 3, 8, 200] {
            assert_eq!(map_indexed(jobs, 100, |i| i * i), serial, "jobs {jobs}");
        }
        assert!(map_indexed::<usize, _>(4, 0, |_| unreachable!()).is_empty());
    }

    #[test]
    fn default_shards_oversubscribes_but_clamps() {
        assert_eq!(default_shards(1, 1000), SHARDS_PER_JOB);
        assert_eq!(default_shards(4, 1000), 4 * SHARDS_PER_JOB);
        assert_eq!(default_shards(8, 5), 5, "never more shards than tasks");
        assert_eq!(default_shards(8, 0), 1);
    }

    #[test]
    fn workers_share_one_queue() {
        // More tasks than workers with wildly uneven costs still produce
        // index-ordered output.
        let out = map_indexed(4, 37, |i| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i
        });
        assert_eq!(out, (0..37).collect::<Vec<_>>());
    }

    #[test]
    fn map_chunks_mut_matches_serial_for_any_jobs() {
        // Chunks 1 and 4 are empty, like a shard of isolated nodes.
        let bounds = [0usize, 4, 4, 9, 17, 17];
        let fill = |jobs| {
            let mut data = vec![0usize; 17];
            let lens = map_chunks_mut(jobs, &mut data, &bounds, |s, chunk| {
                for (p, x) in chunk.iter_mut().enumerate() {
                    *x = 100 * s + p;
                }
                chunk.len()
            });
            (data, lens)
        };
        let serial = fill(1);
        assert_eq!(serial.1, vec![4, 0, 5, 8, 0]);
        assert_eq!(serial.0[..6], [0, 1, 2, 3, 200, 201]);
        assert_eq!(serial.0[16], 307);
        for jobs in [2usize, 3, 8] {
            assert_eq!(fill(jobs), serial, "jobs {jobs}");
        }
        let none: Vec<()> = map_chunks_mut(4, &mut [0u8; 0], &[0], |_, _| unreachable!());
        assert!(none.is_empty(), "empty data, no chunks");
    }

    #[test]
    fn map_chunks_mut_propagates_worker_panics() {
        for jobs in [1usize, 2, 3, 8] {
            let caught = std::panic::catch_unwind(|| {
                let mut data = vec![0u32; 8];
                map_chunks_mut(jobs, &mut data, &[0, 2, 4, 6, 8], |s, _| {
                    assert_ne!(s, 2, "chunk 2 fails");
                })
            });
            assert!(
                caught.is_err(),
                "jobs {jobs}: the panic must reach the caller"
            );
        }
    }

    #[test]
    #[should_panic(expected = "chunk bounds")]
    fn map_chunks_mut_rejects_bounds_short_of_the_data() {
        map_chunks_mut(1, &mut [0u8; 4], &[0, 3], |_, _| ());
    }
}
