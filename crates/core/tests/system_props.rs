//! Deterministic property checks for the end-to-end system simulator:
//! pseudo-random small workloads (seeded `spindown_sim` RNG, identical
//! cases every run) through every scheduler must satisfy conservation,
//! bounding and determinism invariants.

use spindown_core::cost::CostFunction;
use spindown_core::experiment::{run_experiment, ExperimentSpec, SchedulerKind};
use spindown_core::model::{DataId, Request};
use spindown_core::placement::PlacementConfig;
use spindown_core::sched::MwisSolver;
use spindown_core::system::SystemConfig;
use spindown_sim::rng::SimRng;
use spindown_sim::time::{SimDuration, SimTime};

fn random_requests(rng: &mut SimRng) -> Vec<Request> {
    let n = 1 + rng.index(79);
    let mut t = SimTime::ZERO;
    (0..n)
        .map(|i| {
            t += SimDuration::from_millis(rng.next_below(20_000));
            Request {
                index: i as u32,
                at: t,
                data: DataId(rng.next_below(60)),
                size: 256 * 1024,
            }
        })
        .collect()
}

fn schedulers() -> Vec<SchedulerKind> {
    vec![
        SchedulerKind::Random,
        SchedulerKind::Static,
        SchedulerKind::Heuristic(CostFunction::default()),
        SchedulerKind::Heuristic(CostFunction::energy_only()),
        SchedulerKind::Wsc {
            cost: CostFunction::default(),
            interval: SimDuration::from_millis(100),
        },
        SchedulerKind::Mwis {
            solver: MwisSolver::GwMin,
            max_successors: 3,
        },
        SchedulerKind::Mwis {
            solver: MwisSolver::GwMinRefined { passes: 2 },
            max_successors: 3,
        },
    ]
}

fn spec(scheduler: SchedulerKind, replication: u32, seed: u64) -> ExperimentSpec {
    ExperimentSpec {
        placement: PlacementConfig {
            disks: 10,
            replication,
            zipf_z: 1.0,
        },
        scheduler,
        system: SystemConfig {
            disks: 10,
            ..SystemConfig::default()
        },
        seed,
    }
}

/// Conservation: every request completes; energy is positive and never
/// meaningfully exceeds the always-on ceiling plus transition lumps.
#[test]
fn conservation_and_bounds() {
    let mut rng = SimRng::seed_from_u64(0xc04e1);
    let kinds = schedulers();
    for case in 0..24 {
        let requests = random_requests(&mut rng);
        let scheduler = kinds[case % kinds.len()].clone();
        let rf = 1 + rng.next_below(4) as u32;
        let seed = rng.next_below(50);
        let m = run_experiment(&requests, &spec(scheduler, rf, seed), 1);
        assert_eq!(m.requests, requests.len());
        assert_eq!(m.response.count(), requests.len() as u64);
        assert!(m.energy_j > 0.0);
        let ceiling = m.always_on_j
            + (m.spinups + m.spindowns) as f64 * 148.0
            + requests.len() as f64 * 0.1 * 12.8; // service at active power
        assert!(
            m.energy_j <= ceiling,
            "energy {} above ceiling {}",
            m.energy_j,
            ceiling
        );
        // Per-disk fractions always partition the horizon.
        for d in &m.per_disk {
            let sum: f64 = d.state_fractions.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // Per-disk request counts add up.
        let assigned: u64 = m.per_disk.iter().map(|d| d.requests).sum();
        assert_eq!(assigned, requests.len() as u64);
    }
}

/// Determinism: identical spec, identical metrics.
#[test]
fn determinism() {
    let mut rng = SimRng::seed_from_u64(0xc04e2);
    let kinds = schedulers();
    for case in 0..24 {
        let requests = random_requests(&mut rng);
        let scheduler = kinds[case % kinds.len()].clone();
        let seed = rng.next_below(50);
        let a = run_experiment(&requests, &spec(scheduler.clone(), 3, seed), 1);
        let b = run_experiment(&requests, &spec(scheduler, 3, seed), 1);
        assert_eq!(a.energy_j, b.energy_j);
        assert_eq!(a.spinups, b.spinups);
        assert_eq!(a.spindowns, b.spindowns);
        assert_eq!(a.response_mean_s(), b.response_mean_s());
    }
}

/// Responses are causal and bounded: no response below the minimum
/// service time scale or above (spin-up + full-queue drain) bounds.
#[test]
fn response_times_are_sane() {
    let mut rng = SimRng::seed_from_u64(0xc04e3);
    let kinds = schedulers();
    for case in 0..24 {
        let requests = random_requests(&mut rng);
        let scheduler = kinds[case % kinds.len()].clone();
        let m = run_experiment(&requests, &spec(scheduler, 3, 1), 1);
        // Max possible: every request on one disk behind a spin-down/up
        // bounce plus every service.
        let bound = 11.5 + 10.0 + requests.len() as f64 * 0.1 + 0.2;
        assert!(
            m.response.max() <= bound,
            "max response {} above bound {}",
            m.response.max(),
            bound
        );
    }
}
