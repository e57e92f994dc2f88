//! Offline-assignment refinement (an extension beyond the paper).
//!
//! The paper solves the offline problem with the GMIN greedy and notes
//! that "more sophisticated set cover and independent set algorithms"
//! would save more energy (§5.1). This module provides the complementary
//! improvement: **hill climbing directly on the assignment** under the
//! exact offline energy model. Each step moves one request to another of
//! its replica locations if that strictly lowers total energy; deltas are
//! computed incrementally from the affected disk segments, so a pass over
//! `n` requests costs `O(n · rf · log m)`.
//!
//! The segment costs here are algebraically identical to
//! [`crate::offline::evaluate_offline`]'s accounting (idle power inside
//! the saving window; breakeven idle + transition energy + standby
//! otherwise), so a reported improvement is exactly the improvement the
//! evaluator will measure.

use std::collections::BTreeSet;

use spindown_disk::power::PowerParams;
use spindown_sim::time::SimTime;

use crate::model::{Assignment, Request};
use crate::saving::SavingModel;
use crate::sched::LocationProvider;

/// Outcome of a refinement run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefineStats {
    /// Passes actually executed (stops early at a local optimum).
    pub passes: usize,
    /// Requests moved.
    pub moves: usize,
    /// Total energy change, joules (≤ 0).
    pub energy_delta_j: f64,
}

/// Segment-cost model shared by all delta computations.
struct SegModel {
    window_s: f64,
    tb: f64,
    idle_w: f64,
    standby_w: f64,
    up_j: f64,
    down_j: f64,
    up_s: f64,
    down_s: f64,
    horizon_s: f64,
}

impl SegModel {
    fn new(params: &PowerParams, horizon_s: f64) -> Self {
        let model = SavingModel::new(params);
        SegModel {
            window_s: model.window_s,
            tb: model.breakeven_s,
            idle_w: params.idle_w,
            standby_w: params.standby_w,
            up_j: params.spinup_j,
            down_j: params.spindown_j,
            up_s: params.spinup_s,
            down_s: params.spindown_s,
            horizon_s,
        }
    }

    /// Cost of the stretch between two consecutive boundaries on a disk.
    /// `None` on the left means "start of the run"; `None` on the right
    /// means "end of the run". Both `None` is the empty disk.
    fn seg(&self, left: Option<f64>, right: Option<f64>) -> f64 {
        match (left, right) {
            (None, None) => self.standby_w * self.horizon_s,
            // Head: standby until the advance spin-up before the first
            // request.
            (None, Some(t)) => self.standby_w * (t - self.up_s) + self.up_j,
            // Gap between consecutive requests (Lemma 1).
            (Some(a), Some(b)) => {
                let g = (b - a).max(0.0);
                if g < self.window_s {
                    self.idle_w * g
                } else {
                    self.idle_w * self.tb
                        + self.down_j
                        + self.up_j
                        + self.standby_w * (g - self.tb - self.down_s - self.up_s)
                }
            }
            // Tail after the last request.
            (Some(t), None) => {
                let tail = (self.horizon_s - t).max(0.0);
                if tail >= self.tb {
                    self.idle_w * self.tb
                        + self.down_j
                        + self.standby_w * (tail - self.tb - self.down_s)
                } else {
                    self.idle_w * tail
                }
            }
        }
    }
}

type DiskSet = BTreeSet<(SimTime, u32)>;

fn neighbors(set: &DiskSet, key: (SimTime, u32)) -> (Option<f64>, Option<f64>) {
    let prev = set.range(..key).next_back().map(|(t, _)| t.as_secs_f64());
    let next = set
        .range((std::ops::Bound::Excluded(key), std::ops::Bound::Unbounded))
        .next()
        .map(|(t, _)| t.as_secs_f64());
    (prev, next)
}

/// Energy change of removing `key` from a disk.
fn removal_delta(m: &SegModel, set: &DiskSet, key: (SimTime, u32)) -> f64 {
    debug_assert!(set.contains(&key));
    let t = key.0.as_secs_f64();
    let (prev, next) = neighbors(set, key);
    let before = m.seg(prev, Some(t)) + m.seg(Some(t), next);
    let after = if set.len() == 1 {
        m.seg(None, None)
    } else {
        m.seg(prev, next)
    };
    after - before
}

/// Energy change of inserting `key` into a disk.
fn insertion_delta(m: &SegModel, set: &DiskSet, key: (SimTime, u32)) -> f64 {
    debug_assert!(!set.contains(&key));
    let t = key.0.as_secs_f64();
    let (prev, next) = neighbors(set, key);
    let before = if set.is_empty() {
        m.seg(None, None)
    } else {
        m.seg(prev, next)
    };
    let after = m.seg(prev, Some(t)) + m.seg(Some(t), next);
    after - before
}

/// Hill-climbs `assignment` under the offline energy model: repeatedly
/// moves single requests to cheaper replica locations until a local
/// optimum or `max_passes` is reached. The horizon defaults to the
/// evaluator's convention (last request + saving window).
///
/// # Panics
///
/// Panics if the assignment length differs from the request count.
pub fn refine_assignment(
    requests: &[Request],
    assignment: &mut Assignment,
    placement: &dyn LocationProvider,
    params: &PowerParams,
    horizon: Option<SimTime>,
    max_passes: usize,
) -> RefineStats {
    assert_eq!(
        requests.len(),
        assignment.len(),
        "assignment/request mismatch"
    );
    let model = SavingModel::new(params);
    let horizon_s = horizon
        .unwrap_or_else(|| {
            requests
                .last()
                .map(|r| r.at + model.window())
                .unwrap_or(SimTime::ZERO)
        })
        .as_secs_f64();
    let seg = SegModel::new(params, horizon_s);

    let mut disks: Vec<DiskSet> = vec![BTreeSet::new(); placement.disks() as usize];
    for (r, req) in requests.iter().enumerate() {
        disks[assignment.disk_of(r).index()].insert((req.at, req.index));
    }

    let mut stats = RefineStats {
        passes: 0,
        moves: 0,
        energy_delta_j: 0.0,
    };
    for _ in 0..max_passes {
        stats.passes += 1;
        let mut improved = false;
        for (r, req) in requests.iter().enumerate() {
            let key = (req.at, req.index);
            let from = assignment.disk_of(r);
            // Best strictly-improving destination, or — failing that — an
            // energy-neutral *consolidation* move onto a disk at least as
            // loaded (these walk plateaus toward emptying a disk, whose
            // final drain is a strict gain; requiring `|to| ≥ |from|`
            // makes Σ count² strictly increase, so plateau walks cannot
            // cycle).
            let mut best: Option<(f64, crate::model::DiskId)> = None;
            let mut tie: Option<crate::model::DiskId> = None;
            let rem = removal_delta(&seg, &disks[from.index()], key);
            for &to in placement.locations(req.data) {
                if to == from {
                    continue;
                }
                let delta = rem + insertion_delta(&seg, &disks[to.index()], key);
                if delta < -1e-9 {
                    if best.map(|(d, _)| delta < d).unwrap_or(true) {
                        best = Some((delta, to));
                    }
                } else if delta <= 1e-9
                    && tie.is_none()
                    && disks[to.index()].len() >= disks[from.index()].len()
                {
                    tie = Some(to);
                }
            }
            let chosen = match best {
                Some((delta, to)) => {
                    stats.energy_delta_j += delta;
                    Some(to)
                }
                None => tie,
            };
            if let Some(to) = chosen {
                disks[from.index()].remove(&key);
                disks[to.index()].insert(key);
                assignment.disks[r] = to;
                stats.moves += 1;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{DataId, DiskId};
    use crate::offline::evaluate_offline;
    use crate::paper_example;
    use crate::sched::ExplicitPlacement;
    use spindown_sim::rng::SimRng;

    #[test]
    fn schedule_b_is_a_single_move_plateau() {
        // Moving from schedule B (23) to the optimum C (19) requires
        // moving r5 and r6 *together* to d4 — each single move alone is
        // energy-neutral, so 1-move hill climbing correctly stays put.
        // (The full MWIS pipeline never starts from B; its greedy start
        // already reaches 19, see sched::mwis tests.)
        let reqs = paper_example::offline_requests();
        let placement = paper_example::placement();
        let params = paper_example::params();
        let mut a = paper_example::schedule_b();
        let stats = refine_assignment(&reqs, &mut a, &placement, &params, None, 10);
        let after = evaluate_offline(&reqs, &a, 4, &params, None, None).energy_j;
        assert_eq!(after, 23.0, "B is a local optimum for single moves");
        assert_eq!(stats.moves, 0);
        assert_eq!(stats.energy_delta_j, 0.0);
    }

    #[test]
    fn refines_schedule_a_toward_the_batch_optimum() {
        // In the batch instance, schedule A (15) has strictly improving
        // single moves down to the optimum B (10).
        let reqs = paper_example::batch_requests();
        let placement = paper_example::placement();
        let params = paper_example::params();
        let mut a = paper_example::schedule_a();
        let before = evaluate_offline(&reqs, &a, 4, &params, None, None).energy_j;
        let stats = refine_assignment(&reqs, &mut a, &placement, &params, None, 10);
        let after = evaluate_offline(&reqs, &a, 4, &params, None, None).energy_j;
        assert_eq!(before, 15.0);
        assert_eq!(after, 10.0, "single moves reach the batch optimum");
        assert!((stats.energy_delta_j - (after - before)).abs() < 1e-9);
        assert!(stats.moves >= 2);
    }

    #[test]
    fn never_worsens_and_reports_exact_delta() {
        // Random instances: refined energy <= original, and the reported
        // delta matches the evaluator exactly. The paper example's
        // params have no transition times. Under Barracuda's, a first
        // request at 0–20 s may come before T_up = 10 s, and gaps of up
        // to 60 s fall on both sides of the saving window.
        let cases = [
            (paper_example::params(), 8_000, 8_000),
            (PowerParams::barracuda(), 20_000, 60_000),
        ];
        for (params, first_ms, gap_ms) in cases {
            check_exact_delta(&params, first_ms, gap_ms);
        }
    }

    /// Seeded instances of 2–7 requests on 3 disks, the first request at
    /// `[0, first_ms)` ms and each later one `[0, gap_ms)` ms after the
    /// one before. Refine must move requests in some of them, so the
    /// delta check is not only `0 == 0`.
    fn check_exact_delta(params: &PowerParams, first_ms: u64, gap_ms: u64) {
        let mut rng = SimRng::seed_from_u64(5);
        let mut moved = 0;
        for case in 0..200 {
            let n = 2 + (case % 6);
            let disks = 3u32;
            let mut t = 0u64;
            let mut locations = Vec::new();
            let mut requests = Vec::new();
            for i in 0..n {
                t += rng.next_below(if i == 0 { first_ms } else { gap_ms });
                let mut locs: Vec<DiskId> =
                    (0..disks).filter(|_| rng.chance(0.6)).map(DiskId).collect();
                if locs.is_empty() {
                    locs.push(DiskId(rng.next_below(disks as u64) as u32));
                }
                locations.push(locs);
                requests.push(Request {
                    index: i as u32,
                    at: SimTime::from_millis(t),
                    data: DataId(i as u64),
                    size: 4096,
                });
            }
            let placement = ExplicitPlacement::new(locations, disks);
            use crate::sched::LocationProvider as _;
            let mut assignment = Assignment::with_len(requests.len());
            for (r, req) in requests.iter().enumerate() {
                assignment.disks[r] = placement.locations(req.data)[0];
            }
            let before =
                evaluate_offline(&requests, &assignment, disks, params, None, None).energy_j;
            let stats = refine_assignment(&requests, &mut assignment, &placement, params, None, 20);
            let after =
                evaluate_offline(&requests, &assignment, disks, params, None, None).energy_j;
            assert!(after <= before + 1e-9, "case {case}: {after} > {before}");
            assert!(
                (stats.energy_delta_j - (after - before)).abs() < 1e-9,
                "case {case}: delta {} vs {}",
                stats.energy_delta_j,
                after - before
            );
            moved += usize::from(stats.moves > 0);
            // Still a valid schedule.
            for (r, req) in requests.iter().enumerate() {
                assert!(placement
                    .locations(req.data)
                    .contains(&assignment.disk_of(r)));
            }
        }
        assert!(moved >= 50, "only {moved} of 200 instances moved a request");
    }

    #[test]
    fn empty_and_single_location_instances_are_noops() {
        let params = paper_example::params();
        let placement = ExplicitPlacement::new(vec![vec![DiskId(0)]], 1);
        let mut a = Assignment::default();
        let stats = refine_assignment(&[], &mut a, &placement, &params, None, 5);
        assert_eq!(stats.moves, 0);

        let reqs = vec![Request {
            index: 0,
            at: SimTime::from_secs(1),
            data: DataId(0),
            size: 4096,
        }];
        let mut a = Assignment {
            disks: vec![DiskId(0)],
        };
        let stats = refine_assignment(&reqs, &mut a, &placement, &params, None, 5);
        assert_eq!(stats.moves, 0, "single location: nothing to move");
        assert_eq!(stats.passes, 1);
    }
}
