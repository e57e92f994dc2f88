//! Integration tests pinning every number the paper's worked examples
//! quote (Figs. 2–5) through the public facade API.

use spindown::core::offline::{brute_force_optimal, evaluate_offline};
use spindown::core::paper_example as paper;
use spindown::core::sched::{LocationProvider, MwisPlanner, MwisSolver};
use spindown::prelude::*;

fn energy(requests: &[Request], schedule: &Assignment) -> f64 {
    evaluate_offline(requests, schedule, 4, &paper::params(), None, None).energy_j
}

#[test]
fn fig2_batch_energies() {
    let batch = paper::batch_requests();
    assert_eq!(energy(&batch, &paper::schedule_a()), 15.0);
    assert_eq!(energy(&batch, &paper::schedule_b()), 10.0);
    let m = evaluate_offline(
        &batch,
        &paper::schedule_b(),
        4,
        &paper::params(),
        None,
        None,
    );
    assert_eq!(m.always_on_j, 20.0);
}

#[test]
fn fig2_schedule_b_is_batch_optimal() {
    let batch = paper::batch_requests();
    let (_, optimal) =
        brute_force_optimal(&batch, &paper::placement(), &paper::params(), 1_000_000)
            .expect("small instance");
    assert_eq!(optimal, 10.0, "schedule B is optimal for the batch case");
}

#[test]
fn fig3_offline_energies() {
    let offline = paper::offline_requests();
    assert_eq!(energy(&offline, &paper::schedule_b()), 23.0);
    assert_eq!(energy(&offline, &paper::schedule_c()), 19.0);
    let m = evaluate_offline(
        &offline,
        &paper::schedule_c(),
        4,
        &paper::params(),
        None,
        None,
    );
    assert_eq!(m.always_on_j, 72.0);
}

#[test]
fn fig3_schedule_c_is_offline_optimal() {
    let offline = paper::offline_requests();
    let (_, optimal) =
        brute_force_optimal(&offline, &paper::placement(), &paper::params(), 1_000_000)
            .expect("small instance");
    assert_eq!(optimal, 19.0, "schedule C is optimal for the offline case");
}

#[test]
fn fig4_mwis_pipeline_recovers_the_optimum() {
    let offline = paper::offline_requests();
    let placement = paper::placement();
    for solver in [
        MwisSolver::GwMin,
        MwisSolver::GwMin2,
        MwisSolver::GwMinLocalSearch,
        MwisSolver::Exact { node_limit: 64 },
    ] {
        let planner = MwisPlanner {
            params: paper::params(),
            solver,
            max_successors: 8,
        };
        let (assignment, claimed) = planner.plan(&offline, &placement, 1);
        assert_eq!(claimed, 11.0, "{solver:?}: Fig. 4's saving is 4+3+4");
        assert_eq!(
            energy(&offline, &assignment),
            19.0,
            "{solver:?} must recover schedule C's energy"
        );
        for (r, req) in offline.iter().enumerate() {
            assert!(placement
                .locations(req.data)
                .contains(&assignment.disk_of(r)));
        }
    }
}

#[test]
fn fig5_power_configuration() {
    let p = PowerParams::barracuda();
    // Standby draws about a tenth of idle power (paper §1).
    assert!(p.standby_w < p.idle_w / 9.0);
    // TB = E_up/down / P_I.
    assert!((p.breakeven_secs() - (p.spinup_j + p.spindown_j) / p.idle_w).abs() < 1e-9);
    // Spin-up penalties land in the 5–15 s band the paper quotes.
    assert!((5.0..=15.0).contains(&p.spinup_s));
}

#[test]
fn optimal_schedule_depends_on_the_power_model() {
    // Under the toy model (free transitions) schedule C beats B; under
    // the real Barracuda model (E_up = 135 J) waking a third disk is
    // expensive, so the two-disk schedule B wins — and the exact MWIS
    // planner adapts, matching the brute-force optimum either way.
    let offline = paper::offline_requests();
    let params = PowerParams::barracuda().with_breakeven(5.0);
    let eval = |a: &Assignment| evaluate_offline(&offline, a, 4, &params, None, None).energy_j;
    assert!(
        eval(&paper::schedule_b()) < eval(&paper::schedule_c()),
        "with costly spin-ups, fewer disks wins"
    );
    let planner = MwisPlanner {
        params: params.clone(),
        solver: MwisSolver::Exact { node_limit: 256 },
        max_successors: 16,
    };
    let (assignment, _) = planner.plan(&offline, &paper::placement(), 1);
    let (_, optimal) =
        brute_force_optimal(&offline, &paper::placement(), &params, 1_000_000).expect("small");
    assert!(
        (eval(&assignment) - optimal).abs() < 1e-9,
        "planner {} vs optimal {}",
        eval(&assignment),
        optimal
    );
}
