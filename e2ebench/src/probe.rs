//! Host probes the standard library does not offer: the process CPU
//! clock and the peak resident set size. Linux only.

/// `CLOCK_PROCESS_CPUTIME_ID` in Linux's `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU time consumed so far by every thread of this process, including
/// threads that have exited, in seconds.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed `struct timespec`
    // (two 64-bit fields on the 64-bit Linux targets this runs on), and
    // the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process so far (`VmHWM`), in KiB.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let t0 = process_cpu_s();
        let mut x = 0u64;
        while process_cpu_s() - t0 < 0.01 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(process_cpu_s() > t0);
    }

    #[test]
    fn peak_rss_is_reported() {
        assert!(peak_rss_kib().unwrap() > 0);
    }
}
