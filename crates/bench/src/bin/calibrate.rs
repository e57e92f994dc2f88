//! Calibration helper: sweep the aggregate arrival rate and report the
//! normalized energy of each scheduler at rf ∈ {1, 3, 5}, to anchor the
//! synthetic workload against the paper's Fig. 6 (rf = 1 ≈ 0.88; WSC at
//! rf = 5 ≈ 0.52; Random drifting toward 1.0).
//!
//! ```text
//! cargo run --release -p spindown-bench --bin calibrate -- [rates...]
//! ```

use spindown_bench::grids::EvalGrid;
use spindown_bench::workload::{self, Scale};

fn main() {
    let rates: Vec<f64> = {
        let args: Vec<f64> = std::env::args()
            .skip(1)
            .filter_map(|a| a.parse().ok())
            .collect();
        if args.is_empty() {
            vec![5.0, 10.0, 20.0]
        } else {
            args
        }
    };
    for rate in rates {
        let scale = Scale {
            rate,
            ..Scale::paper()
        };
        let reqs = workload::cello(scale, 42);
        let span = reqs.last().map(|r| r.at.as_secs_f64()).unwrap_or(0.0);
        println!("=== rate {rate} req/s (span {:.0}s) ===", span);
        let grid = EvalGrid::compute(&reqs, scale, 1.0, 42, 1);
        println!("rf  random  static  heuristic  wsc    mwis   mwis-r (normalized energy)");
        for rf in [1u32, 3, 5] {
            print!("{rf} ");
            for s in ["random", "static", "heuristic", "wsc", "mwis"] {
                print!("  {:.3}", grid.cell(rf, s).metrics.normalized_energy());
            }
            // Refined MWIS (extension): gwmin + hill climbing.
            let spec = spindown_core::experiment::ExperimentSpec {
                placement: spindown_core::placement::PlacementConfig {
                    disks: scale.disks,
                    replication: rf,
                    zipf_z: 1.0,
                },
                scheduler: spindown_core::experiment::SchedulerKind::Mwis {
                    solver: spindown_core::sched::MwisSolver::GwMinRefined { passes: 4 },
                    max_successors: 3,
                },
                system: spindown_core::system::SystemConfig {
                    disks: scale.disks,
                    ..Default::default()
                },
                seed: 42,
            };
            let m = spindown_core::experiment::run_experiment(&reqs, &spec, 1);
            print!("  {:.3}", m.normalized_energy());
            println!();
        }
        println!(
            "spin cycles @rf3: random {}, static {}, heuristic {}, wsc {}, mwis {}",
            grid.cell(3, "random").metrics.spin_cycles(),
            grid.cell(3, "static").metrics.spin_cycles(),
            grid.cell(3, "heuristic").metrics.spin_cycles(),
            grid.cell(3, "wsc").metrics.spin_cycles(),
            grid.cell(3, "mwis").metrics.spin_cycles(),
        );
        println!(
            "mean resp @rf3: random {:.2}s, static {:.2}s, heuristic {:.2}s, wsc {:.2}s",
            grid.cell(3, "random").metrics.response_mean_s(),
            grid.cell(3, "static").metrics.response_mean_s(),
            grid.cell(3, "heuristic").metrics.response_mean_s(),
            grid.cell(3, "wsc").metrics.response_mean_s(),
        );
    }
}
