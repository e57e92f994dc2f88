//! Sweeps the cost-function knobs α and β (paper Eq. 6, Fig. 11) on a
//! small system and prints the energy/latency trade-off frontier the
//! online heuristic exposes.
//!
//! ```text
//! cargo run --release --example policy_tuner
//! ```

use spindown::prelude::*;

fn main() {
    let trace = CelloLike {
        requests: 8_000,
        data_items: 3_000,
        ..CelloLike::default()
    }
    .generate(5);
    let requests = requests_from_trace(&trace);

    let spec = |alpha: f64, beta: f64| ExperimentSpec {
        placement: PlacementConfig {
            disks: 24,
            replication: 3,
            zipf_z: 1.0,
        },
        scheduler: SchedulerKind::Heuristic(CostFunction { alpha, beta }),
        system: SystemConfig {
            disks: 24,
            ..SystemConfig::default()
        },
        seed: 3,
    };

    println!("C(d) = E(d)·α/β + P(d)·(1−α)   —   α trades energy vs response time\n");
    println!(
        "{:>5} {:>6} {:>13} {:>13} {:>12}",
        "α", "β", "energy (kJ)", "mean resp", "p90 resp"
    );
    for &beta in &[10.0, 100.0, 1000.0] {
        for &alpha in &[0.0, 0.2, 0.5, 0.8, 1.0] {
            let m = run_experiment(&requests, &spec(alpha, beta), 1);
            println!(
                "{:>5} {:>6} {:>13.1} {:>11.0}ms {:>10.0}ms",
                alpha,
                beta,
                m.energy_j / 1000.0,
                m.response_mean_s() * 1000.0,
                m.response_p90_s() * 1000.0
            );
        }
        println!();
    }
    println!(
        "α = 1 chases energy only (requests pile onto awake disks);\n\
         α = 0 chases response time only (requests spread to idle disks).\n\
         The paper settles on α = 0.2, β = 100 as the balanced operating point."
    );
}
