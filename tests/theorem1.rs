//! Deterministic property checks for Theorem 1: on pseudo-randomly
//! generated small instances (seeded `spindown::sim` RNG, identical cases
//! every run), the exact-MWIS planner's schedule is energy-optimal
//! (matches exhaustive search over all replica assignments).

use spindown::core::model::{DataId, DiskId, Request};
use spindown::core::offline::{brute_force_optimal, evaluate_offline};
use spindown::core::sched::{ExplicitPlacement, LocationProvider, MwisPlanner, MwisSolver};
use spindown::disk::power::PowerParams;
use spindown::sim::rng::SimRng;
use spindown::sim::time::SimTime;

/// A random offline instance: up to 7 requests over up to 4 disks, each
/// request replicated on 1–3 distinct disks, arrival gaps 0–8 s (around
/// the toy breakeven of 5 s so all Lemma-1 cases occur).
fn random_instance(rng: &mut SimRng) -> (Vec<Request>, ExplicitPlacement) {
    let disks = 4u32;
    let n = 1 + rng.index(7);
    let mut t = 0u64;
    let mut locations = Vec::new();
    let mut requests = Vec::new();
    for i in 0..n {
        t += rng.next_below(8_001); // gap to previous request, ms
        let copies = 1 + rng.index(3);
        let mut locs: Vec<DiskId> = Vec::new();
        while locs.len() < copies {
            let d = DiskId(rng.next_below(disks as u64) as u32);
            if !locs.contains(&d) {
                locs.push(d);
            }
        }
        locs.sort_unstable_by_key(|d| d.0);
        locations.push(locs);
        requests.push(Request {
            index: i as u32,
            at: SimTime::from_millis(t),
            data: DataId(i as u64),
            size: 4096,
        });
    }
    (requests, ExplicitPlacement::new(locations, disks))
}

#[test]
fn exact_mwis_schedule_is_optimal() {
    let mut rng = SimRng::seed_from_u64(0x7e01e1);
    for _ in 0..128 {
        let (requests, placement) = random_instance(&mut rng);
        let params = PowerParams::paper_example();
        let planner = MwisPlanner {
            params: params.clone(),
            solver: MwisSolver::Exact { node_limit: 256 },
            max_successors: 16,
        };
        let (assignment, claimed) = planner.plan(&requests, &placement);
        let planned = evaluate_offline(&requests, &assignment, 4, &params, None, None);
        let (_, optimal) =
            brute_force_optimal(&requests, &placement, &params, 100_000).expect("tiny instance");
        assert!(
            (planned.energy_j - optimal).abs() < 1e-9,
            "planner energy {} != optimal {}",
            planned.energy_j,
            optimal
        );
        // The energy identity of §3.1.1: total energy = N·E_max − saving
        // ... holds for the *claimed* saving of an optimal selection.
        let e_max = params.max_request_energy_j();
        let ident = requests.len() as f64 * e_max - claimed;
        assert!(
            (ident - planned.energy_j).abs() < 1e-9,
            "Eq. 1 identity violated: N*E_max - saving = {} vs energy {}",
            ident,
            planned.energy_j
        );
    }
}

#[test]
fn greedy_mwis_is_feasible_and_bounded() {
    let mut rng = SimRng::seed_from_u64(0x7e01e2);
    for _ in 0..128 {
        let (requests, placement) = random_instance(&mut rng);
        let params = PowerParams::paper_example();
        for solver in [
            MwisSolver::GwMin,
            MwisSolver::GwMin2,
            MwisSolver::GwMinLocalSearch,
        ] {
            let planner = MwisPlanner {
                params: params.clone(),
                solver,
                max_successors: 16,
            };
            let (assignment, claimed) = planner.plan(&requests, &placement);
            // Feasibility: every request on one of its locations.
            for (r, req) in requests.iter().enumerate() {
                assert!(placement
                    .locations(req.data)
                    .contains(&assignment.disk_of(r)));
            }
            // Bounded by the optimum from below, by N·E_max from above.
            let planned = evaluate_offline(&requests, &assignment, 4, &params, None, None);
            let (_, optimal) = brute_force_optimal(&requests, &placement, &params, 100_000)
                .expect("tiny instance");
            assert!(planned.energy_j >= optimal - 1e-9);
            assert!(
                planned.energy_j <= requests.len() as f64 * params.max_request_energy_j() + 1e-9
            );
            // Soundness of the claimed saving: the schedule realizes at
            // least what the independent set promised (Eq. 1 as an
            // inequality for sub-optimal selections).
            let bound = requests.len() as f64 * params.max_request_energy_j() - claimed;
            assert!(
                planned.energy_j <= bound + 1e-9,
                "{solver:?}: energy {} above N*E_max - claimed {}",
                planned.energy_j,
                bound
            );
        }
    }
}
