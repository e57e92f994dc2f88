//! The WSC scheduler's hot path allocates nothing once warm: its
//! candidate, cost, selection and greedy-cover buffers are reused across
//! `assign_into` calls. Measured with the counting allocator, which this
//! test binary installs as its global allocator.

use spindown_alloctrack::{reset_thread_allocs, thread_allocs, CountingAlloc};
use spindown_core::cost::DiskStatus;
use spindown_core::model::{DataId, DiskId, Request};
use spindown_core::sched::{ExplicitPlacement, Scheduler, SystemView, WscScheduler};
use spindown_disk::power::PowerParams;
use spindown_disk::state::DiskPowerState;
use spindown_sim::time::SimTime;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const DISKS: u32 = 8;

/// Data item `d` on three consecutive disks starting at `d mod 8`.
fn placement() -> ExplicitPlacement {
    let locations = (0..24)
        .map(|d| (0..3).map(|r| DiskId((d + r) % DISKS)).collect())
        .collect();
    ExplicitPlacement::new(locations, DISKS)
}

/// A mix of standby, idle and busy disks, so the set weights differ.
fn statuses() -> Vec<DiskStatus> {
    (0..DISKS)
        .map(|d| DiskStatus {
            state: match d % 3 {
                0 => DiskPowerState::Standby,
                1 => DiskPowerState::Idle,
                _ => DiskPowerState::Active,
            },
            last_request_at: (d % 3 != 0).then(|| SimTime::from_secs(u64::from(d))),
            load: (d % 3 == 2) as usize * d as usize,
        })
        .collect()
}

fn batch(len: usize, stride: u64) -> Vec<Request> {
    (0..len)
        .map(|i| Request {
            index: i as u32,
            at: SimTime::from_secs(10),
            data: DataId((i as u64 * stride) % 24),
            size: 8192,
        })
        .collect()
}

#[test]
fn warm_assign_into_allocates_nothing() {
    let placement = placement();
    let statuses = statuses();
    let params = PowerParams::barracuda();
    let view = SystemView {
        now: SimTime::from_secs(12),
        params: &params,
        placement: &placement,
        statuses: &statuses,
    };
    let batches = [batch(32, 5), batch(3, 7), batch(1, 1), batch(17, 11)];
    let mut sched = WscScheduler::paper_defaults();
    let mut out = Vec::new();
    // The counter is live: a cold call has buffers to grow.
    reset_thread_allocs();
    sched.assign_into(&batches[0], &view, &mut out);
    assert!(thread_allocs() > 0, "counting allocator not installed");
    // Warm-up: one pass over every batch shape grows each buffer to fit.
    for b in &batches {
        sched.assign_into(b, &view, &mut out);
    }
    for b in &batches {
        let expected = WscScheduler::paper_defaults().assign(b, &view);
        reset_thread_allocs();
        sched.assign_into(b, &view, &mut out);
        let allocs = thread_allocs();
        assert_eq!(
            allocs,
            0,
            "warm call on a {}-request batch allocated",
            b.len()
        );
        assert_eq!(out, expected, "reused buffers changed the schedule");
    }
}
