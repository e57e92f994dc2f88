//! Quickstart: a 16-disk storage system under a bursty workload —
//! energy-aware scheduling vs. the static baseline.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use spindown::prelude::*;
use spindown::trace::synth::arrivals::OnOffProcess;

fn main() {
    // 1. A workload: 5 000 bursty, Zipf-skewed read requests over 2 000
    //    blocks (a small Cello-like trace spanning ~20 minutes, so disks
    //    see idle periods long enough to spin down).
    let trace = CelloLike {
        requests: 5_000,
        data_items: 2_000,
        arrivals: OnOffProcess {
            sources: 8,
            on_shape: 1.5,
            on_scale_s: 2.0,
            off_shape: 1.3,
            off_scale_s: 30.0,
            burst_rate: 12.0,
        },
        ..CelloLike::default()
    }
    .generate(42);
    let requests = requests_from_trace(&trace);
    println!(
        "workload: {} reads over {} blocks, {:.0} s span",
        requests.len(),
        2_000,
        requests.last().unwrap().at.as_secs_f64()
    );

    // 2. A storage system: 16 disks, blocks replicated 3×, originals
    //    skewed by Zipf(z=1), replicas uniform — and the 2CPM power
    //    manager that spins idle disks down after the breakeven time.
    let base = ExperimentSpec {
        placement: PlacementConfig {
            disks: 16,
            replication: 3,
            zipf_z: 1.0,
        },
        scheduler: SchedulerKind::Static,
        system: SystemConfig {
            disks: 16,
            ..SystemConfig::default()
        },
        seed: 7,
    };
    println!(
        "power model: idle {} W, standby {} W, breakeven {:.1} s\n",
        base.system.power.idle_w,
        base.system.power.standby_w,
        base.system.power.breakeven_secs()
    );

    // 3. Compare schedulers.
    println!(
        "{:<12} {:>14} {:>12} {:>12} {:>12}",
        "scheduler", "energy (kJ)", "vs always-on", "spin cycles", "mean resp"
    );
    for kind in [
        SchedulerKind::Static,
        SchedulerKind::Random,
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
        let m = run_experiment(
            &requests,
            &ExperimentSpec {
                scheduler: kind,
                ..base.clone()
            },
            1,
        );
        println!(
            "{:<12} {:>14.1} {:>11.1}% {:>12} {:>11.0}ms",
            label,
            m.energy_j / 1000.0,
            m.normalized_energy() * 100.0,
            m.spin_cycles(),
            m.response_mean_s() * 1000.0
        );
    }
    println!(
        "\nThe energy-aware schedulers steer each read to whichever replica\n\
         keeps the fewest disks spinning — no data is ever moved."
    );
}
