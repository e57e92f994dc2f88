//! Energy-aware `WSC` batch scheduler (paper §3.2, Theorem 2).
//!
//! Every scheduling interval (0.1 s in the paper), the queued requests
//! become a weighted-set-cover instance: elements are the requests, each
//! candidate disk is a set covering the requests whose data it holds, and
//! the set weight is the disk's marginal cost. The greedy
//! most-cost-effective-set algorithm selects the disks; each request is
//! then dispatched to the cheapest selected disk that holds its data.
//!
//! Per §4.3 the disk weights use the *same composite cost function* as the
//! online heuristic (Eq. 6), so the batch scheduler also balances energy
//! against response time.

use spindown_graph::setcover::{CoverScratch, SetCoverInstance};
use spindown_sim::time::SimDuration;

use crate::cost::CostFunction;
use crate::model::{DiskId, Request};
use crate::sched::{ScheduleMode, Scheduler, SystemView};

/// The paper's batch energy-aware scheduler.
///
/// Holds its per-batch buffers (candidate disks with their costs, the
/// set-cover instance and the greedy solve's scratch), so a warm
/// [`Scheduler::assign_into`] call allocates nothing.
#[derive(Debug, Clone)]
pub struct WscScheduler {
    cost: CostFunction,
    interval: SimDuration,
    candidates: Vec<(DiskId, f64)>,
    instance: SetCoverInstance,
    cover: CoverScratch,
}

impl WscScheduler {
    /// Creates the scheduler with the paper's defaults: Eq. 6 cost at
    /// `α = 0.2, β = 100` and a 0.1 s batching interval.
    pub fn paper_defaults() -> Self {
        WscScheduler::new(CostFunction::default(), SimDuration::from_millis(100))
    }

    /// Creates the scheduler.
    ///
    /// # Panics
    ///
    /// Panics if the cost function is invalid or the interval is zero.
    pub fn new(cost: CostFunction, interval: SimDuration) -> Self {
        cost.validate().expect("invalid cost function");
        assert!(!interval.is_zero(), "batch interval must be positive");
        WscScheduler {
            cost,
            interval,
            candidates: Vec::new(),
            instance: SetCoverInstance::default(),
            cover: CoverScratch::default(),
        }
    }

    /// The batching interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }
}

impl Scheduler for WscScheduler {
    fn name(&self) -> &'static str {
        "wsc"
    }

    fn mode(&self) -> ScheduleMode {
        ScheduleMode::Batch(self.interval)
    }

    fn assign(&mut self, reqs: &[Request], view: &SystemView<'_>) -> Vec<DiskId> {
        let mut out = Vec::with_capacity(reqs.len());
        self.assign_into(reqs, view, &mut out);
        out
    }

    fn assign_into(&mut self, reqs: &[Request], view: &SystemView<'_>, out: &mut Vec<DiskId>) {
        out.clear();
        if reqs.is_empty() {
            return;
        }
        let WscScheduler {
            cost,
            candidates,
            instance,
            cover,
            ..
        } = self;
        // Candidate disks: every location of every queued request (their
        // costs are filled in below).
        candidates.clear();
        candidates.extend(
            reqs.iter()
                .flat_map(|r| view.locations(r.data).iter().map(|&d| (d, 0.0))),
        );
        candidates.sort_unstable_by_key(|&(d, _)| d);
        candidates.dedup_by_key(|&mut (d, _)| d);

        // Build the WSC instance: one element per request, one set per
        // candidate disk.
        instance.reset(reqs.len());
        for (d, c) in candidates.iter_mut() {
            let covered = reqs
                .iter()
                .enumerate()
                .filter_map(|(i, r)| view.locations(r.data).contains(d).then_some(i as u32));
            *c = cost.cost(view.status(*d), view.now, view.params);
            instance.add_set(*c, covered);
        }
        let found = instance.solve_greedy_into(cover);
        assert!(
            found,
            "every request has at least one location, so a cover exists"
        );

        // Dispatch each request to the cheapest selected disk holding its
        // data (ties to the lower disk id).
        out.extend(reqs.iter().map(|r| {
            let locs = view.locations(r.data);
            cover
                .sets()
                .iter()
                .map(|&s| &candidates[s])
                .filter(|(d, _)| locs.contains(d))
                .min_by(|(da, ca), (db, cb)| {
                    ca.partial_cmp(cb)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(da.cmp(db))
                })
                .map(|(d, _)| *d)
                .expect("cover covers every request")
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::DiskStatus;
    use crate::model::DataId;
    use crate::sched::{ExplicitPlacement, LocationProvider};
    use spindown_disk::power::PowerParams;
    use spindown_disk::state::DiskPowerState;
    use spindown_sim::time::SimTime;

    fn standby(n: usize) -> Vec<DiskStatus> {
        vec![
            DiskStatus {
                state: DiskPowerState::Standby,
                last_request_at: None,
                load: 0
            };
            n
        ]
    }

    fn reqs(datas: &[u64]) -> Vec<Request> {
        datas
            .iter()
            .enumerate()
            .map(|(i, &d)| Request {
                index: i as u32,
                at: SimTime::ZERO,
                data: DataId(d),
                size: 4096,
            })
            .collect()
    }

    /// The paper's Fig. 2 batch example: the scheduler must find schedule
    /// B — requests r1,r2,r3,r5 on d1 and r4,r6 on d3, using only 2 disks.
    #[test]
    fn fig2_schedule_b() {
        // b1..b6 -> data 0..5; d1..d4 -> disks 0..3.
        let placement = ExplicitPlacement::new(
            vec![
                vec![DiskId(0)],                       // b1: d1
                vec![DiskId(0), DiskId(1)],            // b2: d1,d2
                vec![DiskId(0), DiskId(1), DiskId(3)], // b3: d1,d2,d4
                vec![DiskId(2), DiskId(3)],            // b4: d3,d4
                vec![DiskId(0), DiskId(3)],            // b5: d1,d4
                vec![DiskId(2), DiskId(3)],            // b6: d3,d4
            ],
            4,
        );
        let params = PowerParams::paper_example();
        let statuses = standby(4);
        let view = SystemView {
            now: SimTime::ZERO,
            params: &params,
            placement: &placement,
            statuses: &statuses,
        };
        // Pure-energy cost so the toy example matches the paper exactly.
        let mut s = WscScheduler::new(CostFunction::energy_only(), SimDuration::from_millis(100));
        let batch = reqs(&[0, 1, 2, 3, 4, 5]);
        let picks = s.assign(&batch, &view);
        // Requests must land on exactly two disks: d1 (0) and d3 (2).
        assert_eq!(
            picks,
            vec![
                DiskId(0),
                DiskId(0),
                DiskId(0),
                DiskId(2),
                DiskId(0),
                DiskId(2)
            ]
        );
    }

    #[test]
    fn empty_batch_is_empty() {
        let placement = ExplicitPlacement::new(vec![vec![DiskId(0)]], 1);
        let params = PowerParams::barracuda();
        let statuses = standby(1);
        let view = SystemView {
            now: SimTime::ZERO,
            params: &params,
            placement: &placement,
            statuses: &statuses,
        };
        let mut s = WscScheduler::paper_defaults();
        assert!(s.assign(&[], &view).is_empty());
    }

    #[test]
    fn prefers_already_spinning_disk() {
        let placement = ExplicitPlacement::new(vec![vec![DiskId(0), DiskId(1)]], 2);
        let params = PowerParams::barracuda();
        let mut statuses = standby(2);
        statuses[1] = DiskStatus {
            state: DiskPowerState::Active,
            last_request_at: Some(SimTime::ZERO),
            load: 1,
        };
        let view = SystemView {
            now: SimTime::from_secs(1),
            params: &params,
            placement: &placement,
            statuses: &statuses,
        };
        let mut s = WscScheduler::new(CostFunction::energy_only(), SimDuration::from_millis(100));
        let picks = s.assign(&reqs(&[0]), &view);
        assert_eq!(picks, vec![DiskId(1)]);
    }

    #[test]
    fn mode_reports_interval() {
        let s = WscScheduler::paper_defaults();
        assert_eq!(s.mode(), ScheduleMode::Batch(SimDuration::from_millis(100)));
        assert_eq!(s.interval(), SimDuration::from_millis(100));
        assert_eq!(s.name(), "wsc");
    }

    #[test]
    fn assignments_always_point_to_valid_locations() {
        let placement = ExplicitPlacement::new(
            vec![
                vec![DiskId(0), DiskId(2)],
                vec![DiskId(1)],
                vec![DiskId(2), DiskId(1)],
            ],
            3,
        );
        let params = PowerParams::barracuda();
        let statuses = standby(3);
        let view = SystemView {
            now: SimTime::ZERO,
            params: &params,
            placement: &placement,
            statuses: &statuses,
        };
        let mut s = WscScheduler::paper_defaults();
        let batch = reqs(&[0, 1, 2, 0, 2]);
        let picks = s.assign(&batch, &view);
        for (r, d) in batch.iter().zip(&picks) {
            assert!(placement.locations(r.data).contains(d));
        }
    }

    #[test]
    #[should_panic(expected = "batch interval")]
    fn zero_interval_rejected() {
        WscScheduler::new(CostFunction::default(), SimDuration::ZERO);
    }
}
