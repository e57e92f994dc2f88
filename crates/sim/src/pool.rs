//! Deterministic scoped-thread worker pool.
//!
//! One clamp-and-spawn implementation shared by every parallel substrate
//! in the workspace: experiment-grid cells
//! (`spindown-bench`'s `EvalGrid`), per-disk offline evaluation
//! (`spindown-core`) and the CLI's first pass over the line-aligned byte
//! ranges of a trace file; the island-parallel replay cuts its worker
//! groups with [`shard_ranges`]. The contract is
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
/// order.
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
}
