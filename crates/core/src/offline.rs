//! Analytic evaluator for the offline scheduling model.
//!
//! The paper's offline model (§2.2) assumes the power manager knows future
//! arrivals: disks are spun up *in advance*, so requests never wait for
//! spin-up, and an idle disk stays idle through gaps shorter than the
//! saving window `TB + T_up + T_down` (Lemma 1). That behaviour cannot be
//! produced by the reactive event-driven simulator, so offline assignments
//! (from [`crate::sched::MwisPlanner`]) are evaluated analytically: each
//! disk's exact state timeline is reconstructed from its sorted request
//! times.
//!
//! The module also provides a brute-force optimal scheduler for tiny
//! instances — the oracle used to validate Theorem 1 (the MWIS reduction
//! computes optimal schedules).

use spindown_disk::mechanics::Mechanics;
use spindown_disk::power::PowerParams;
use spindown_disk::state::DiskPowerState;
use spindown_sim::pool;
use spindown_sim::stats::LatencyHistogram;
use spindown_sim::time::SimTime;

use crate::metrics::{DiskSummary, RunMetrics};
use crate::model::{Assignment, Request};
use crate::saving::SavingModel;
use crate::sched::LocationProvider;

/// Evaluates an offline `assignment` of `requests` over `disks` disks.
///
/// * `horizon`: measurement horizon; pass `None` to use the paper's
///   convention (last request time + saving window), which makes the toy
///   examples come out exactly (always-on energy 20 in Fig. 2, 72 in
///   Fig. 3).
/// * `mechanics`: when provided, response times are the expected service
///   time of each request and the service time is charged at active
///   power; when `None`, I/O time is fully negligible (the paper's
///   analysis mode) and responses are zero.
///
/// # Panics
///
/// Panics if the assignment length differs from the request count, or a
/// request is assigned to an out-of-range disk.
pub fn evaluate_offline(
    requests: &[Request],
    assignment: &Assignment,
    disks: u32,
    params: &PowerParams,
    horizon: Option<SimTime>,
    mechanics: Option<&Mechanics>,
) -> RunMetrics {
    evaluate_offline_with_jobs(requests, assignment, disks, params, horizon, mechanics, 1)
}

/// Minimum total work — `disks × requests` — below which
/// [`evaluate_offline_with_jobs`] ignores `jobs` and stays serial.
///
/// The per-disk reconstruction is a single cheap pass over each disk's
/// request list, so on small and medium instances the thread spawn plus
/// per-slot histogram allocation and merge of the fan-out costs more
/// than it saves (the committed benchmark history shows the 180-disk ×
/// 100 k-request fixture running ~29 % *slower* parallel than serial).
/// Below this threshold the evaluator takes the serial path, which also
/// reuses one scratch [`LatencyHistogram`] across all disks instead of
/// allocating one per disk.
pub const MIN_PARALLEL_WORK: u64 = 1 << 25;

/// [`evaluate_offline`] with the per-disk timeline reconstruction fanned
/// out across `jobs` worker threads.
///
/// Once the assignment is fixed the disks are independent, so each
/// [`evaluate_disk`] call lands in its own index-addressed slot and the
/// reduction — energy sums, spin counts, and the response-histogram
/// merge — walks the slots in disk order on the serial path and the
/// parallel path alike. The returned [`RunMetrics`] is therefore
/// **bit-identical** for any `jobs` value; `jobs <= 1` never spawns a
/// thread, and instances smaller than [`MIN_PARALLEL_WORK`] are forced
/// serial so they never pay spawn/merge overhead.
///
/// # Panics
///
/// Panics if the assignment length differs from the request count, or a
/// request is assigned to an out-of-range disk.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_offline_with_jobs(
    requests: &[Request],
    assignment: &Assignment,
    disks: u32,
    params: &PowerParams,
    horizon: Option<SimTime>,
    mechanics: Option<&Mechanics>,
    jobs: usize,
) -> RunMetrics {
    let work = disks as u64 * requests.len() as u64;
    let jobs = if work < MIN_PARALLEL_WORK { 1 } else { jobs };
    evaluate_offline_impl(
        requests, assignment, disks, params, horizon, mechanics, jobs,
    )
}

/// [`evaluate_offline_with_jobs`] without the [`MIN_PARALLEL_WORK`]
/// guard — the fan-out runs for any `jobs > 1`. Kept separate so the
/// serial/parallel bit-identity tests can exercise the parallel
/// reduction on instances far below the production threshold.
#[allow(clippy::too_many_arguments)]
fn evaluate_offline_impl(
    requests: &[Request],
    assignment: &Assignment,
    disks: u32,
    params: &PowerParams,
    horizon: Option<SimTime>,
    mechanics: Option<&Mechanics>,
    jobs: usize,
) -> RunMetrics {
    assert_eq!(
        requests.len(),
        assignment.len(),
        "assignment must cover every request"
    );
    let model = SavingModel::new(params);
    let horizon = horizon.unwrap_or_else(|| {
        requests
            .last()
            .map(|r| r.at + model.window())
            .unwrap_or(SimTime::ZERO)
    });
    let horizon_s = horizon.as_secs_f64();

    // Per-disk sorted request times (requests are stream-sorted already).
    let mut per_disk: Vec<Vec<&Request>> = vec![Vec::new(); disks as usize];
    for (r, req) in requests.iter().enumerate() {
        let d = assignment.disk_of(r);
        assert!(d.0 < disks, "request {r} assigned to out-of-range {d}");
        per_disk[d.index()].push(req);
    }

    let mut response = LatencyHistogram::default();
    let mut per_disk_summary = Vec::with_capacity(disks as usize);
    let mut total_energy = 0.0;
    let mut total_up = 0;
    let mut total_down = 0;

    {
        let mut fold = |s: DiskSummary, hist: &LatencyHistogram| {
            total_energy += s.energy_j;
            total_up += s.spinups;
            total_down += s.spindowns;
            per_disk_summary.push(s);
            response.merge(hist);
        };

        if jobs <= 1 {
            // Serial: one scratch histogram, reset per disk — no per-disk
            // allocation at all.
            let mut scratch = LatencyHistogram::default();
            for list in &per_disk {
                let s =
                    evaluate_disk_into(list, params, &model, horizon_s, mechanics, &mut scratch);
                fold(s, &scratch);
            }
        } else {
            let evaluated = pool::map_indexed(jobs, per_disk.len(), |d| {
                evaluate_disk(&per_disk[d], params, &model, horizon_s, mechanics)
            });
            for (s, hist) in evaluated {
                fold(s, &hist);
            }
        }
    }

    RunMetrics {
        scheduler: "mwis-offline".into(),
        requests: requests.len(),
        horizon_s,
        energy_j: total_energy,
        always_on_j: disks as f64 * params.idle_w * horizon_s,
        spinups: total_up,
        spindowns: total_down,
        response,
        per_disk: per_disk_summary,
        power_timeline: Vec::new(),
        // The analytic evaluator never touches an event queue or splitter.
        peak_events: 0,
        peak_in_flight: 0,
        splitter_high_water: 0,
    }
}

/// Reconstructs one disk's timeline. States over the horizon:
///
/// * unused disk — standby throughout, zero transitions;
/// * used disk — standby until `t_1 − T_up`, spin-up, then per-gap: idle
///   the whole gap if it is inside the saving window, else idle `TB`,
///   spin down, standby, spin up in advance of the next request; after the
///   last request idle `TB`, spin down, standby to the horizon.
fn evaluate_disk(
    list: &[&Request],
    params: &PowerParams,
    model: &SavingModel,
    horizon_s: f64,
    mechanics: Option<&Mechanics>,
) -> (DiskSummary, LatencyHistogram) {
    let mut response = LatencyHistogram::default();
    let summary = evaluate_disk_into(list, params, model, horizon_s, mechanics, &mut response);
    (summary, response)
}

/// [`evaluate_disk`] writing into a caller-owned response histogram
/// (reset on entry), so the serial path can reuse one scratch histogram
/// across every disk.
fn evaluate_disk_into(
    list: &[&Request],
    params: &PowerParams,
    model: &SavingModel,
    horizon_s: f64,
    mechanics: Option<&Mechanics>,
    response: &mut LatencyHistogram,
) -> DiskSummary {
    response.reset();
    let mut idle_s = 0.0;
    let mut active_s = 0.0;
    let mut spinups: u64 = 0;
    let mut spindowns: u64 = 0;

    if let Some(first) = list.first() {
        spinups = 1;
        let _ = first;
        for w in list.windows(2) {
            let gap = w[1].at.saturating_since(w[0].at).as_secs_f64();
            if gap < model.window_s {
                idle_s += gap;
            } else {
                idle_s += model.breakeven_s;
                spindowns += 1;
                spinups += 1;
            }
        }
        // Tail after the last request.
        let last = list.last().expect("non-empty");
        let tail = (horizon_s - last.at.as_secs_f64()).max(0.0);
        if tail >= model.breakeven_s {
            idle_s += model.breakeven_s;
            spindowns += 1;
        } else {
            idle_s += tail;
        }
    }

    // Service time: charged at active power, carved out of idle time.
    if let Some(m) = mechanics {
        for req in list {
            let s = m.expected_service_time(req.size).as_secs_f64();
            response.record_secs(s);
            active_s += s;
        }
        let carved = active_s.min(idle_s);
        idle_s -= carved;
        active_s = carved;
    } else {
        for _ in list {
            response.record_secs(0.0);
        }
    }

    let up_s = spinups as f64 * params.spinup_s;
    let down_s = spindowns as f64 * params.spindown_s;
    let standby_s = (horizon_s - idle_s - active_s - up_s - down_s).max(0.0);

    let energy_j = idle_s * params.idle_w
        + active_s * params.active_w
        + standby_s * params.standby_w
        + spinups as f64 * params.spinup_j
        + spindowns as f64 * params.spindown_j;

    let mut state_fractions = [0.0; DiskPowerState::COUNT];
    if horizon_s > 0.0 {
        state_fractions[DiskPowerState::Active.index()] = active_s / horizon_s;
        state_fractions[DiskPowerState::Idle.index()] = idle_s / horizon_s;
        state_fractions[DiskPowerState::Standby.index()] = standby_s / horizon_s;
        state_fractions[DiskPowerState::SpinningUp.index()] = up_s / horizon_s;
        state_fractions[DiskPowerState::SpinningDown.index()] = down_s / horizon_s;
    }

    DiskSummary {
        energy_j,
        state_fractions,
        spinups,
        spindowns,
        requests: list.len() as u64,
    }
}

/// Exhaustively finds a minimum-energy offline schedule by trying every
/// combination of replica choices. Exponential — guarded by
/// `max_combinations`; returns `None` when the instance is too large.
///
/// This is the Theorem 1 test oracle: on small instances the exact MWIS
/// planner must match its energy.
pub fn brute_force_optimal(
    requests: &[Request],
    placement: &dyn LocationProvider,
    params: &PowerParams,
    max_combinations: u64,
) -> Option<(Assignment, f64)> {
    let combos: u64 = requests
        .iter()
        .try_fold(1u64, |acc, r| {
            acc.checked_mul(placement.locations(r.data).len() as u64)
        })
        .filter(|&c| c <= max_combinations)?;

    let mut best: Option<(Assignment, f64)> = None;
    let mut assignment = Assignment::with_len(requests.len());
    for combo in 0..combos {
        let mut c = combo;
        for (r, req) in requests.iter().enumerate() {
            let locs = placement.locations(req.data);
            assignment.disks[r] = locs[(c % locs.len() as u64) as usize];
            c /= locs.len() as u64;
        }
        let m = evaluate_offline(requests, &assignment, placement.disks(), params, None, None);
        if best.as_ref().map(|(_, e)| m.energy_j < *e).unwrap_or(true) {
            best = Some((assignment.clone(), m.energy_j));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{DataId, DiskId};
    use crate::sched::ExplicitPlacement;

    fn toy_requests(times: &[u64]) -> Vec<Request> {
        times
            .iter()
            .enumerate()
            .map(|(i, &t)| Request {
                index: i as u32,
                at: SimTime::from_secs(t),
                data: DataId(i as u64),
                size: 4096,
            })
            .collect()
    }

    fn paper_placement() -> ExplicitPlacement {
        ExplicitPlacement::new(
            vec![
                vec![DiskId(0)],
                vec![DiskId(0), DiskId(1)],
                vec![DiskId(0), DiskId(1), DiskId(3)],
                vec![DiskId(2), DiskId(3)],
                vec![DiskId(0), DiskId(3)],
                vec![DiskId(2), DiskId(3)],
            ],
            4,
        )
    }

    /// Fig. 3(a): schedule B in the offline model costs 23.
    #[test]
    fn fig3a_schedule_b_costs_23() {
        let reqs = toy_requests(&[0, 1, 3, 5, 12, 13]);
        let assignment = Assignment {
            disks: vec![
                DiskId(0),
                DiskId(0),
                DiskId(0),
                DiskId(2),
                DiskId(0),
                DiskId(2),
            ],
        };
        let m = evaluate_offline(
            &reqs,
            &assignment,
            4,
            &PowerParams::paper_example(),
            None,
            None,
        );
        assert!((m.energy_j - 23.0).abs() < 1e-9, "energy {}", m.energy_j);
        // Horizon convention: last request (13) + window (5) = 18;
        // always-on = 4 disks × 18 s × 1 W = 72.
        assert!((m.always_on_j - 72.0).abs() < 1e-9);
    }

    /// Fig. 3(b): schedule C is optimal with cost 19.
    /// (The paper's §2.3.2 text computes 19 — d1 idle 0–8, d3 idle 5–10,
    /// d4 idle 12–18 — while the figure caption says 21; the text's
    /// arithmetic is the consistent one and is what we assert.)
    #[test]
    fn fig3b_schedule_c_costs_19() {
        let reqs = toy_requests(&[0, 1, 3, 5, 12, 13]);
        let assignment = Assignment {
            disks: vec![
                DiskId(0),
                DiskId(0),
                DiskId(0),
                DiskId(2),
                DiskId(3),
                DiskId(3),
            ],
        };
        let m = evaluate_offline(
            &reqs,
            &assignment,
            4,
            &PowerParams::paper_example(),
            None,
            None,
        );
        assert!((m.energy_j - 19.0).abs() < 1e-9, "energy {}", m.energy_j);
    }

    /// Fig. 2(b): the batch example — all requests at t=0, schedule B uses
    /// two disks at 5 energy each while always-on burns 20.
    #[test]
    fn fig2b_batch_schedule_b_costs_10() {
        let reqs = toy_requests(&[0, 0, 0, 0, 0, 0]);
        let assignment = Assignment {
            disks: vec![
                DiskId(0),
                DiskId(0),
                DiskId(0),
                DiskId(2),
                DiskId(0),
                DiskId(2),
            ],
        };
        let m = evaluate_offline(
            &reqs,
            &assignment,
            4,
            &PowerParams::paper_example(),
            None,
            None,
        );
        assert!((m.energy_j - 10.0).abs() < 1e-9, "energy {}", m.energy_j);
        assert!((m.always_on_j - 20.0).abs() < 1e-9);
        assert_eq!(m.spinups, 2);
        assert_eq!(m.spindowns, 2);
    }

    /// Fig. 2(a): schedule A uses three disks — energy 15.
    #[test]
    fn fig2a_batch_schedule_a_costs_15() {
        let reqs = toy_requests(&[0, 0, 0, 0, 0, 0]);
        let assignment = Assignment {
            disks: vec![
                DiskId(0),
                DiskId(1),
                DiskId(1),
                DiskId(2),
                DiskId(0),
                DiskId(2),
            ],
        };
        let m = evaluate_offline(
            &reqs,
            &assignment,
            4,
            &PowerParams::paper_example(),
            None,
            None,
        );
        assert!((m.energy_j - 15.0).abs() < 1e-9, "energy {}", m.energy_j);
    }

    #[test]
    fn brute_force_finds_the_fig3_optimum() {
        let reqs = toy_requests(&[0, 1, 3, 5, 12, 13]);
        let placement = paper_placement();
        let (best, energy) =
            brute_force_optimal(&reqs, &placement, &PowerParams::paper_example(), 100_000)
                .expect("small instance");
        assert!((energy - 19.0).abs() < 1e-9, "optimal energy {energy}");
        // The optimum pins r1..r3 to d1 (there are multiple optima for the
        // rest; energy is what matters).
        assert_eq!(best.disk_of(0), DiskId(0));
    }

    #[test]
    fn brute_force_respects_combination_limit() {
        let reqs = toy_requests(&[0, 1, 3, 5, 12, 13]);
        let placement = paper_placement();
        assert!(brute_force_optimal(&reqs, &placement, &PowerParams::paper_example(), 3).is_none());
    }

    #[test]
    fn unused_disks_stay_standby() {
        let reqs = toy_requests(&[0]);
        let assignment = Assignment {
            disks: vec![DiskId(0)],
        };
        let m = evaluate_offline(
            &reqs,
            &assignment,
            3,
            &PowerParams::paper_example(),
            Some(SimTime::from_secs(100)),
            None,
        );
        // Disks 1 and 2 are 100% standby.
        for d in [1, 2] {
            assert!((m.per_disk[d].standby_fraction() - 1.0).abs() < 1e-9);
            assert_eq!(m.per_disk[d].spinups, 0);
        }
        // Disk 0: 5 s idle (TB), rest standby.
        let f = m.per_disk[0].state_fractions;
        assert!((f[DiskPowerState::Idle.index()] - 0.05).abs() < 1e-9);
    }

    #[test]
    fn fractions_sum_to_one_with_real_params() {
        let reqs = toy_requests(&[0, 5, 100, 300]);
        let assignment = Assignment {
            disks: vec![DiskId(0); 4],
        };
        let m = evaluate_offline(
            &reqs,
            &assignment,
            2,
            &PowerParams::barracuda(),
            Some(SimTime::from_secs(500)),
            None,
        );
        for d in &m.per_disk {
            let sum: f64 = d.state_fractions.iter().sum();
            assert!((sum - 1.0).abs() < 1e-6, "fractions sum {sum}");
        }
        assert!(m.energy_j > 0.0);
        assert!(m.energy_j < m.always_on_j);
    }

    #[test]
    fn mechanics_add_service_time_and_responses() {
        let reqs = toy_requests(&[0, 1]);
        let assignment = Assignment {
            disks: vec![DiskId(0), DiskId(0)],
        };
        let mech = Mechanics::new(
            spindown_disk::mechanics::DiskGeometry::cheetah_15k5(),
            spindown_sim::rng::SimRng::seed_from_u64(1),
        );
        let m = evaluate_offline(
            &reqs,
            &assignment,
            1,
            &PowerParams::barracuda(),
            None,
            Some(&mech),
        );
        assert_eq!(m.response.count(), 2);
        assert!(m.response.mean() > 0.0 && m.response.mean() < 0.05);
        assert!(m.per_disk[0].state_fractions[DiskPowerState::Active.index()] > 0.0);
    }

    #[test]
    fn parallel_offline_eval_is_bit_identical() {
        let reqs = toy_requests(&[0, 1, 3, 5, 12, 13]);
        let assignment = Assignment {
            disks: vec![
                DiskId(0),
                DiskId(0),
                DiskId(1),
                DiskId(2),
                DiskId(3),
                DiskId(2),
            ],
        };
        let mech = Mechanics::new(
            spindown_disk::mechanics::DiskGeometry::cheetah_15k5(),
            spindown_sim::rng::SimRng::seed_from_u64(7),
        );
        for mechanics in [None, Some(&mech)] {
            let serial = evaluate_offline_impl(
                &reqs,
                &assignment,
                4,
                &PowerParams::barracuda(),
                None,
                mechanics,
                1,
            );
            for jobs in [2usize, 3, 8] {
                // The raw fan-out (below the production threshold).
                let par = evaluate_offline_impl(
                    &reqs,
                    &assignment,
                    4,
                    &PowerParams::barracuda(),
                    None,
                    mechanics,
                    jobs,
                );
                assert_eq!(par, serial, "jobs {jobs}");
                // The public entry forces this tiny instance serial; the
                // result must be indistinguishable either way.
                let guarded = evaluate_offline_with_jobs(
                    &reqs,
                    &assignment,
                    4,
                    &PowerParams::barracuda(),
                    None,
                    mechanics,
                    jobs,
                );
                assert_eq!(guarded, serial, "guarded jobs {jobs}");
            }
        }
    }

    /// The scratch-histogram serial path must leave no residue between
    /// disks: a disk with zero requests after a loaded disk reports an
    /// empty response histogram.
    #[test]
    fn serial_scratch_histogram_resets_between_disks() {
        let reqs = toy_requests(&[0, 1, 2]);
        let assignment = Assignment {
            disks: vec![DiskId(0); 3],
        };
        let mech = Mechanics::new(
            spindown_disk::mechanics::DiskGeometry::cheetah_15k5(),
            spindown_sim::rng::SimRng::seed_from_u64(3),
        );
        let m = evaluate_offline(
            &reqs,
            &assignment,
            2,
            &PowerParams::barracuda(),
            None,
            Some(&mech),
        );
        assert_eq!(m.per_disk[0].requests, 3);
        assert_eq!(m.per_disk[1].requests, 0);
        assert_eq!(m.response.count(), 3);
    }

    #[test]
    fn empty_run() {
        let m = evaluate_offline(
            &[],
            &Assignment::default(),
            2,
            &PowerParams::barracuda(),
            None,
            None,
        );
        assert_eq!(m.energy_j, 0.0);
        assert_eq!(m.requests, 0);
        assert_eq!(m.horizon_s, 0.0);
    }

    /// Theorem 1 sanity on the paper instance: exact-MWIS planning yields
    /// the brute-force optimal energy.
    #[test]
    fn exact_mwis_matches_brute_force_on_paper_instance() {
        use crate::sched::{MwisPlanner, MwisSolver};
        let reqs = toy_requests(&[0, 1, 3, 5, 12, 13]);
        let placement = paper_placement();
        let params = PowerParams::paper_example();
        let planner = MwisPlanner {
            params: params.clone(),
            solver: MwisSolver::exact_default(),
            max_successors: 16,
        };
        let (assignment, _) = planner.plan(&reqs, &placement);
        let planned = evaluate_offline(&reqs, &assignment, 4, &params, None, None);
        let (_, optimal) = brute_force_optimal(&reqs, &placement, &params, 100_000).expect("small");
        assert!(
            (planned.energy_j - optimal).abs() < 1e-9,
            "planner {} vs optimal {}",
            planned.energy_j,
            optimal
        );
    }
}
