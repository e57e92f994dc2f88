//! Shared experiment grids: one simulation per (trace, replication
//! factor, scheduler) cell. Figures 6–9 read the Cello grid; Figures
//! 14–17 read the Financial grid; the latency figures (12–13) reuse the
//! same runs plus an always-on reference.

use spindown_core::cost::CostFunction;
use spindown_core::experiment::{
    run_always_on_baseline, run_experiment, ExperimentSpec, SchedulerKind,
};
use spindown_core::metrics::RunMetrics;
use spindown_core::model::Request;
use spindown_core::placement::PlacementConfig;
use spindown_core::system::{PolicyKind, SystemConfig};
use spindown_sim::pool;

use crate::workload::{self, Scale};

/// The replication factors the paper sweeps.
pub const RF_SWEEP: [u32; 5] = [1, 2, 3, 4, 5];

/// One grid cell.
#[derive(Debug)]
pub struct GridCell {
    /// Replication factor of the run.
    pub rf: u32,
    /// Scheduler label (paper legend name).
    pub scheduler: &'static str,
    /// Full metrics of the run.
    pub metrics: RunMetrics,
}

/// A computed grid plus its always-on reference run (at rf = 1).
#[derive(Debug)]
pub struct EvalGrid {
    /// All cells, ordered by (rf, scheduler).
    pub cells: Vec<GridCell>,
    /// The always-on reference (for Figs. 12/13).
    pub always_on: RunMetrics,
}

impl EvalGrid {
    /// Runs the full scheduler × replication grid over `requests` with up
    /// to `jobs` worker threads.
    ///
    /// Every cell is an independent simulation — each run derives its own
    /// RNG stream from the spec seed, never from shared mutable state —
    /// so the cells are fanned out over the shared worker pool
    /// ([`spindown_sim::pool::map_indexed`]) and collected by cell index.
    /// The grid is bit-identical to the serial (`jobs = 1`) result for
    /// any thread count. `jobs` is clamped to `1..=cell count` (and
    /// `jobs = 1` never spawns); cells run at `jobs = 1` internally so
    /// grid-level and intra-run parallelism never oversubscribe. The
    /// always-on reference, replayed after the cells, runs on `jobs`
    /// workers; only its timing-dependent `splitter_high_water` can
    /// differ from the serial run.
    pub fn compute(
        requests: &[Request],
        scale: Scale,
        zipf_z: f64,
        seed: u64,
        jobs: usize,
    ) -> EvalGrid {
        let spec_for = |scheduler: SchedulerKind, rf: u32| ExperimentSpec {
            placement: PlacementConfig {
                disks: scale.disks,
                replication: rf,
                zipf_z,
            },
            scheduler,
            system: SystemConfig {
                disks: scale.disks,
                ..SystemConfig::default()
            },
            seed,
        };

        // The cell plan, in the canonical (rf, scheduler) order the
        // figures index by.
        let mut plan: Vec<(u32, &'static str, SchedulerKind)> = Vec::new();
        for rf in RF_SWEEP {
            for kind in SchedulerKind::paper_set() {
                let label = kind.label();
                plan.push((rf, label, kind));
            }
            // Extension column: the offline planner with assignment-level
            // hill climbing (the "better MWIS algorithm" the paper
            // conjectures about in §5.1).
            plan.push((
                rf,
                "mwis-r",
                SchedulerKind::Mwis {
                    solver: spindown_core::sched::MwisSolver::GwMinRefined { passes: 4 },
                    max_successors: 3,
                },
            ));
        }

        let metrics = pool::map_indexed(jobs, plan.len(), |i| {
            let (rf, _, kind) = &plan[i];
            run_experiment(requests, &spec_for(kind.clone(), *rf), 1)
        });

        let cells = plan
            .into_iter()
            .zip(metrics)
            .map(|((rf, scheduler, _), metrics)| GridCell {
                rf,
                scheduler,
                metrics,
            })
            .collect();
        let always_on = run_always_on_baseline(requests, &spec_for(SchedulerKind::Static, 1), jobs);
        EvalGrid { cells, always_on }
    }

    /// Looks up one cell.
    pub fn cell(&self, rf: u32, scheduler: &str) -> &GridCell {
        self.cells
            .iter()
            .find(|c| c.rf == rf && c.scheduler == scheduler)
            .unwrap_or_else(|| panic!("no grid cell for rf={rf} scheduler={scheduler}"))
    }

    /// Scheduler labels present, in paper-legend order.
    pub fn schedulers(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        for c in &self.cells {
            if !out.contains(&c.scheduler) {
                out.push(c.scheduler);
            }
        }
        out
    }
}

/// One cell of the scenario × policy sweep.
#[derive(Debug)]
pub struct PolicyCell {
    /// Scenario label (`"diurnal"` or `"flash-crowd"`).
    pub scenario: &'static str,
    /// Policy label (`"2cpm"`, `"adaptive"`, `"quantile"`).
    pub policy: &'static str,
    /// Full metrics of the run.
    pub metrics: RunMetrics,
}

/// The scenario × spin-down-policy sweep: one event-loop simulation per
/// cell, all on the heuristic scheduler at replication 1 (so the
/// request-to-disk mapping is fixed by placement and every cell differs
/// only in its power-management policy). The flash-crowd column is the
/// headline comparison: the quantile policy's conditional-tail test is
/// built to separate from the fixed 2CPM breakeven exactly when idle
/// periods are bimodal.
#[derive(Debug)]
pub struct PolicyGrid {
    /// All cells, ordered by (scenario, policy).
    pub cells: Vec<PolicyCell>,
}

/// The policies the sweep compares, in report order.
pub const POLICY_SWEEP: [(&str, PolicyKind); 3] = [
    ("2cpm", PolicyKind::Breakeven),
    ("adaptive", PolicyKind::Adaptive),
    ("quantile", PolicyKind::Quantile),
];

impl PolicyGrid {
    /// Runs the sweep with up to `jobs` worker threads. Cells are
    /// independent simulations fanned over the shared pool, bit-identical
    /// to the serial result for any thread count (same argument as
    /// [`EvalGrid::compute`]).
    pub fn compute(scale: Scale, seed: u64, jobs: usize) -> PolicyGrid {
        let scenarios: Vec<(&'static str, Vec<Request>)> = vec![
            ("diurnal", workload::diurnal(scale, seed)),
            ("flash-crowd", workload::flash_crowd(scale, seed)),
        ];
        let mut plan: Vec<(usize, &'static str, PolicyKind)> = Vec::new();
        for (si, _) in scenarios.iter().enumerate() {
            for (label, kind) in &POLICY_SWEEP {
                plan.push((si, label, kind.clone()));
            }
        }
        let metrics = pool::map_indexed(jobs, plan.len(), |i| {
            let (si, _, kind) = &plan[i];
            let spec = ExperimentSpec {
                placement: PlacementConfig {
                    disks: scale.disks,
                    replication: 1,
                    zipf_z: 1.0,
                },
                scheduler: SchedulerKind::Heuristic(CostFunction::energy_only()),
                system: SystemConfig {
                    disks: scale.disks,
                    policy: kind.clone(),
                    ..SystemConfig::default()
                },
                seed,
            };
            run_experiment(&scenarios[*si].1, &spec, 1)
        });
        let cells = plan
            .into_iter()
            .zip(metrics)
            .map(|((si, policy, _), metrics)| PolicyCell {
                scenario: scenarios[si].0,
                policy,
                metrics,
            })
            .collect();
        PolicyGrid { cells }
    }

    /// Looks up one cell.
    pub fn cell(&self, scenario: &str, policy: &str) -> &PolicyCell {
        self.cells
            .iter()
            .find(|c| c.scenario == scenario && c.policy == policy)
            .unwrap_or_else(|| panic!("no policy cell for {scenario}/{policy}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    #[test]
    fn tiny_grid_computes_and_indexes() {
        let scale = Scale {
            requests: 600,
            data_items: 250,
            disks: 12,
            rate: 3.0,
        };
        let reqs = workload::cello(scale, 1);
        let grid = EvalGrid::compute(&reqs, scale, 1.0, 3, 1);
        assert_eq!(grid.cells.len(), 5 * 6);
        assert_eq!(
            grid.schedulers(),
            vec!["random", "static", "heuristic", "wsc", "mwis", "mwis-r"]
        );
        let c = grid.cell(3, "static");
        assert_eq!(c.rf, 3);
        assert!(c.metrics.energy_j > 0.0);
        assert!((grid.always_on.normalized_energy() - 1.0).abs() < 0.05);
    }

    #[test]
    fn parallel_grid_matches_serial() {
        let scale = Scale {
            requests: 300,
            data_items: 120,
            disks: 10,
            rate: 3.0,
        };
        let reqs = workload::cello(scale, 7);
        let serial = EvalGrid::compute(&reqs, scale, 1.0, 11, 1);
        let wide = EvalGrid::compute(&reqs, scale, 1.0, 11, 8);
        assert_eq!(format!("{:?}", serial.cells), format!("{:?}", wide.cells));
        // The always-on reference replays on the grid's workers, so at 8
        // its `splitter_high_water` is the splitter's timing-dependent
        // lookahead, which determinism comparisons exclude; every other
        // field must match.
        let [serial_on, wide_on] = [&serial, &wide].map(|g| RunMetrics {
            splitter_high_water: 0,
            ..g.always_on.clone()
        });
        assert_eq!(format!("{serial_on:?}"), format!("{wide_on:?}"));
    }

    /// The PR's acceptance criterion: on the flash-crowd scenario the
    /// quantile policy must beat 2CPM on energy at equal-or-better p99
    /// response time. Runs at the same scale and seed as the
    /// `policy_sweep_medium` bench, so the committed
    /// `derived.predictive_vs_2cpm_energy_ratio` reflects this test.
    #[test]
    fn quantile_beats_2cpm_on_flash_crowd() {
        let grid = PolicyGrid::compute(Scale::policy_sweep(), 42, 4);
        let q = &grid.cell("flash-crowd", "quantile").metrics;
        let b = &grid.cell("flash-crowd", "2cpm").metrics;
        let ratio = q.energy_j / b.energy_j;
        assert!(ratio < 1.0, "quantile/2cpm energy ratio {ratio}");
        // p99 is bucket-granular; equal-or-better means same bucket or
        // lower, so a strict <= on the reported edge is the right test.
        assert!(
            q.response.quantile(0.99) <= b.response.quantile(0.99),
            "p99 regressed: quantile {} s vs 2cpm {} s",
            q.response.quantile(0.99),
            b.response.quantile(0.99)
        );
        // Both scenarios actually exercise spin-downs for every policy.
        for c in &grid.cells {
            assert!(
                c.metrics.spin_cycles() > 0,
                "{}/{} never spun down",
                c.scenario,
                c.policy
            );
        }
    }

    #[test]
    fn parallel_policy_grid_matches_serial() {
        let scale = Scale {
            requests: 1_500,
            data_items: 500,
            disks: 8,
            rate: 4.0,
        };
        let serial = PolicyGrid::compute(scale, 11, 1);
        let wide = PolicyGrid::compute(scale, 11, 8);
        assert_eq!(format!("{:?}", serial.cells), format!("{:?}", wide.cells));
    }

    #[test]
    #[should_panic(expected = "no grid cell")]
    fn missing_cell_panics() {
        let scale = Scale {
            requests: 100,
            data_items: 50,
            disks: 8,
            rate: 2.0,
        };
        let reqs = workload::cello(scale, 1);
        let grid = EvalGrid::compute(&reqs, scale, 1.0, 3, 1);
        grid.cell(9, "static");
    }
}
