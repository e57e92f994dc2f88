//! Full-stack integration tests: traces → placement → schedulers →
//! simulator → metrics, across crate boundaries.

use spindown::prelude::*;
use spindown::trace::synth::arrivals::OnOffProcess;

fn sparse_cello(requests: usize, data_items: usize, seed: u64) -> Vec<Request> {
    let trace = CelloLike {
        requests,
        data_items,
        arrivals: OnOffProcess {
            sources: 8,
            on_shape: 1.5,
            on_scale_s: 2.0,
            off_shape: 1.3,
            off_scale_s: 30.0,
            burst_rate: 10.0,
        },
        ..CelloLike::default()
    }
    .generate(seed);
    requests_from_trace(&trace)
}

fn spec(scheduler: SchedulerKind, disks: u32, rf: u32) -> ExperimentSpec {
    ExperimentSpec {
        placement: PlacementConfig {
            disks,
            replication: rf,
            zipf_z: 1.0,
        },
        scheduler,
        system: SystemConfig {
            disks,
            ..SystemConfig::default()
        },
        seed: 9,
    }
}

fn paper_schedulers() -> Vec<SchedulerKind> {
    SchedulerKind::paper_set()
}

#[test]
fn every_scheduler_completes_every_request() {
    let reqs = sparse_cello(3_000, 1_000, 1);
    for kind in paper_schedulers() {
        let label = kind.label();
        let m = run_experiment(&reqs, &spec(kind, 20, 3), 1);
        assert_eq!(m.requests, 3_000, "{label}");
        assert_eq!(m.response.count(), 3_000, "{label} lost completions");
        assert!(m.energy_j > 0.0, "{label}");
        assert!(m.normalized_energy() <= 1.1, "{label}");
    }
}

#[test]
fn energy_ordering_matches_the_paper() {
    let reqs = sparse_cello(4_000, 1_200, 2);
    let run = |k| run_experiment(&reqs, &spec(k, 20, 3), 1).normalized_energy();
    let random = run(SchedulerKind::Random);
    let static_ = run(SchedulerKind::Static);
    let heuristic = run(SchedulerKind::Heuristic(CostFunction::energy_only()));
    let wsc = run(SchedulerKind::Wsc {
        cost: CostFunction::energy_only(),
        interval: SimDuration::from_millis(100),
    });
    // The paper's Fig. 6 ordering at rf = 3: energy-aware < baselines.
    assert!(
        heuristic < static_,
        "heuristic {heuristic} vs static {static_}"
    );
    assert!(
        heuristic < random,
        "heuristic {heuristic} vs random {random}"
    );
    assert!(wsc < static_, "wsc {wsc} vs static {static_}");
}

#[test]
fn replication_monotonically_helps_energy_aware_schedulers() {
    let reqs = sparse_cello(4_000, 1_200, 3);
    let energies: Vec<f64> = [1u32, 3, 5]
        .iter()
        .map(|&rf| {
            run_experiment(
                &reqs,
                &spec(
                    SchedulerKind::Heuristic(CostFunction::energy_only()),
                    20,
                    rf,
                ),
                1,
            )
            .normalized_energy()
        })
        .collect();
    assert!(
        energies[2] < energies[0],
        "rf5 {} must save more than rf1 {}",
        energies[2],
        energies[0]
    );
}

#[test]
fn static_is_invariant_to_replication() {
    let reqs = sparse_cello(2_000, 800, 4);
    let e1 = run_experiment(&reqs, &spec(SchedulerKind::Static, 20, 1), 1);
    let e5 = run_experiment(&reqs, &spec(SchedulerKind::Static, 20, 5), 1);
    // Same seed → same original placement → identical runs.
    assert_eq!(e1.energy_j, e5.energy_j);
    assert_eq!(e1.spinups, e5.spinups);
}

#[test]
fn mwis_offline_has_no_spinup_delays() {
    let reqs = sparse_cello(2_000, 800, 5);
    let m = run_experiment(
        &reqs,
        &spec(
            SchedulerKind::Mwis {
                solver: MwisSolver::GwMin,
                max_successors: 3,
            },
            20,
            3,
        ),
        1,
    );
    // Offline model: responses are pure service time (≈ 10 ms), never the
    // 10 s spin-up penalty.
    assert!(m.response.max() < 0.1, "max response {}", m.response.max());
    assert!(m.response_mean_s() < 0.05);
}

#[test]
fn online_schedulers_do_suffer_spinup_delays() {
    let reqs = sparse_cello(2_000, 800, 6);
    let m = run_experiment(&reqs, &spec(SchedulerKind::Static, 20, 1), 1);
    // Disks start in standby: at least the first access of each busy disk
    // waits out a ~10 s spin-up.
    assert!(
        m.response.max() >= 10.0,
        "expected spin-up stalls, max {}",
        m.response.max()
    );
    // ... but they are rare: p50 far below the spin-up time.
    assert!(m.response.quantile(0.5) < 1.0);
}

#[test]
fn runs_are_bit_deterministic() {
    let reqs = sparse_cello(2_000, 800, 7);
    for kind in paper_schedulers() {
        let label = kind.label();
        let a = run_experiment(&reqs, &spec(kind.clone(), 20, 3), 1);
        let b = run_experiment(&reqs, &spec(kind, 20, 3), 1);
        assert_eq!(a.energy_j, b.energy_j, "{label}");
        assert_eq!(a.spinups, b.spinups, "{label}");
        assert_eq!(a.spindowns, b.spindowns, "{label}");
        assert_eq!(a.response_mean_s(), b.response_mean_s(), "{label}");
    }
}

#[test]
fn always_on_baseline_normalizes_to_one() {
    let reqs = sparse_cello(2_000, 800, 8);
    let m = run_always_on_baseline(&reqs, &spec(SchedulerKind::Static, 20, 3), 1);
    assert!(
        (m.normalized_energy() - 1.0).abs() < 0.02,
        "always-on normalized {}",
        m.normalized_energy()
    );
    assert_eq!(m.spin_cycles(), 0);
}

#[test]
fn state_fractions_are_a_partition() {
    let reqs = sparse_cello(2_000, 800, 9);
    for kind in paper_schedulers() {
        let label = kind.label();
        let m = run_experiment(&reqs, &spec(kind, 20, 3), 1);
        for (i, d) in m.per_disk.iter().enumerate() {
            let sum: f64 = d.state_fractions.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "{label} disk {i}: sum {sum}");
        }
    }
}

#[test]
fn financial_workload_runs_end_to_end() {
    let trace = FinancialLike {
        requests: 3_000,
        data_items: 1_000,
        rate: 10.0,
        ..FinancialLike::default()
    }
    .generate(1);
    let reqs = requests_from_trace(&trace);
    let m = run_experiment(
        &reqs,
        &spec(SchedulerKind::Heuristic(CostFunction::default()), 20, 3),
        1,
    );
    assert_eq!(m.requests, 3_000);
    assert!(m.normalized_energy() < 1.0);
}
