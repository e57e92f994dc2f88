//! A datacenter-scale scenario: the paper's full rig (180 disks, 70 000
//! requests) compared across all five schedulers — a one-page version of
//! the paper's Figs. 6–8. Pass `--quick` for a 10× smaller run.
//!
//! ```text
//! cargo run --release --example datacenter [-- --quick]
//! ```

use spindown::prelude::*;
use spindown::trace::synth::arrivals::OnOffProcess;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (n_requests, n_data, disks, rate) = if quick {
        (8_000, 3_500, 60u32, 3.5)
    } else {
        (70_000, 30_000, 180u32, 10.0)
    };

    // The calibrated Cello-like workload (see spindown-bench::workload).
    let sources = 24;
    let on_frac = {
        let e_on = 1.5 * 2.0 / 0.5;
        let e_off = 1.3 * 30.0 / 0.3;
        e_on / (e_on + e_off)
    };
    let trace = CelloLike {
        requests: n_requests,
        data_items: n_data,
        arrivals: OnOffProcess {
            sources,
            on_shape: 1.5,
            on_scale_s: 2.0,
            off_shape: 1.3,
            off_scale_s: 30.0,
            burst_rate: rate / (sources as f64 * on_frac),
        },
        ..CelloLike::default()
    }
    .generate(42);
    let requests = requests_from_trace(&trace);
    println!(
        "rig: {} disks, {} read requests over {:.0} minutes, replication 1..5\n",
        disks,
        requests.len(),
        requests.last().unwrap().at.as_secs_f64() / 60.0
    );

    let spec = |kind: SchedulerKind, rf: u32| ExperimentSpec {
        placement: PlacementConfig {
            disks,
            replication: rf,
            zipf_z: 1.0,
        },
        scheduler: kind,
        system: SystemConfig {
            disks,
            ..SystemConfig::default()
        },
        seed: 42,
    };

    for rf in [1u32, 3, 5] {
        println!("== replication factor {rf} ==");
        println!(
            "{:<12} {:>12} {:>12} {:>12} {:>14}",
            "scheduler", "vs always-on", "spin cycles", "mean resp", "standby share"
        );
        for kind in [
            SchedulerKind::Random,
            SchedulerKind::Static,
            SchedulerKind::Heuristic(CostFunction::default()),
            SchedulerKind::Wsc {
                cost: CostFunction::default(),
                interval: SimDuration::from_millis(100),
            },
            SchedulerKind::Mwis {
                solver: MwisSolver::GwMin,
                max_successors: 3,
            },
        ] {
            let label = kind.label();
            let m = run_experiment(&requests, &spec(kind, rf), 1);
            println!(
                "{:<12} {:>11.1}% {:>12} {:>11.0}ms {:>13.1}%",
                label,
                m.normalized_energy() * 100.0,
                m.spin_cycles(),
                m.response_mean_s() * 1000.0,
                m.mean_standby_fraction() * 100.0
            );
        }
        println!();
    }
    println!(
        "More replicas give the energy-aware schedulers more routing freedom:\n\
         energy falls as rf grows, while Random drifts toward always-on\n\
         because spreading requests keeps every disk awake (paper Fig. 6)."
    );
}
