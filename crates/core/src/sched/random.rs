//! `Random` baseline: uniformly pick one of the request's replica
//! locations (paper §4.3).

use spindown_sim::rng::SplitMix64;

use crate::model::{DiskId, Request};
use crate::sched::{Scheduler, SystemView};

/// The paper's `Random` baseline scheduler.
///
/// The pick for a request is a pure hash of `(seed, request index)` rather
/// than a draw from a sequential stream, so the decision for a given
/// request does not depend on how many other requests this scheduler
/// instance has seen. That makes the scheduler *partition-invariant*:
/// island-parallel replay, where each island sees only its own requests,
/// reproduces the serial run's assignments exactly.
#[derive(Debug, Clone)]
pub struct RandomScheduler {
    seed: u64,
}

impl RandomScheduler {
    /// Creates the scheduler with its own deterministic stream.
    pub fn new(seed: u64) -> Self {
        RandomScheduler {
            seed: seed ^ 0x52414E44, // "RAND"
        }
    }
}

impl Scheduler for RandomScheduler {
    fn name(&self) -> &'static str {
        "random"
    }

    fn assign(&mut self, reqs: &[Request], view: &SystemView<'_>) -> Vec<DiskId> {
        let mut out = Vec::with_capacity(reqs.len());
        self.assign_into(reqs, view, &mut out);
        out
    }

    fn assign_into(&mut self, reqs: &[Request], view: &SystemView<'_>, out: &mut Vec<DiskId>) {
        out.clear();
        out.extend(reqs.iter().map(|r| {
            let locs = view.locations(r.data);
            let x =
                SplitMix64::new(self.seed ^ (r.index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .next_u64();
            // Unbiased-enough fixed-point scaling of x into 0..len
            // (Lemire's multiply-shift; bias is < len / 2^64).
            let pick = ((x as u128 * locs.len() as u128) >> 64) as usize;
            locs[pick]
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::DiskStatus;
    use crate::model::DataId;
    use crate::sched::ExplicitPlacement;
    use spindown_disk::power::PowerParams;
    use spindown_disk::state::DiskPowerState;
    use spindown_sim::time::SimTime;

    fn view<'a>(
        placement: &'a ExplicitPlacement,
        params: &'a PowerParams,
        statuses: &'a [DiskStatus],
    ) -> SystemView<'a> {
        SystemView {
            now: SimTime::ZERO,
            params,
            placement,
            statuses,
        }
    }

    fn req(i: u32, data: u64) -> Request {
        Request {
            index: i,
            at: SimTime::ZERO,
            data: DataId(data),
            size: 4096,
        }
    }

    #[test]
    fn picks_only_valid_locations_and_spreads() {
        let placement = ExplicitPlacement::new(vec![vec![DiskId(1), DiskId(3), DiskId(4)]], 5);
        let params = PowerParams::barracuda();
        let statuses = vec![
            DiskStatus {
                state: DiskPowerState::Standby,
                last_request_at: None,
                load: 0
            };
            5
        ];
        let v = view(&placement, &params, &statuses);
        let mut s = RandomScheduler::new(1);
        let mut counts = [0u32; 5];
        for i in 0..3000 {
            let picks = s.assign(&[req(i, 0)], &v);
            counts[picks[0].index()] += 1;
        }
        assert_eq!(counts[0], 0);
        assert_eq!(counts[2], 0);
        for d in [1, 3, 4] {
            assert!(counts[d] > 800, "disk {d} only picked {}", counts[d]);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let placement = ExplicitPlacement::new(vec![vec![DiskId(0), DiskId(1)]], 2);
        let params = PowerParams::barracuda();
        let statuses = vec![
            DiskStatus {
                state: DiskPowerState::Standby,
                last_request_at: None,
                load: 0
            };
            2
        ];
        let v = view(&placement, &params, &statuses);
        let run = |seed| {
            let mut s = RandomScheduler::new(seed);
            (0..50)
                .map(|i| s.assign(&[req(i, 0)], &v)[0])
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn decision_depends_only_on_request_not_history() {
        // The pick for request 42 is the same whether the scheduler has
        // previously assigned 0 or 1000 other requests — the property that
        // lets island-parallel replay split the stream arbitrarily.
        let placement = ExplicitPlacement::new(vec![vec![DiskId(0), DiskId(1), DiskId(2)]], 3);
        let params = PowerParams::barracuda();
        let statuses = vec![
            DiskStatus {
                state: DiskPowerState::Standby,
                last_request_at: None,
                load: 0
            };
            3
        ];
        let v = view(&placement, &params, &statuses);
        let mut warm = RandomScheduler::new(7);
        for i in 0..1000 {
            warm.assign(&[req(i, 0)], &v);
        }
        let mut cold = RandomScheduler::new(7);
        assert_eq!(
            warm.assign(&[req(42, 0)], &v),
            cold.assign(&[req(42, 0)], &v)
        );
    }
}
