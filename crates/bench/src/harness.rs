//! Zero-dependency micro-benchmark harness.
//!
//! Times the algorithmic substrates — conflict-graph construction,
//! rolling-horizon re-planning, each MWIS and
//! set-cover solver, full experiment-grid evaluation, and streamed trace
//! parsing and replay — over a configurable warmup + iteration count,
//! reporting median/p10/p90 wall times. The `spindown bench` subcommand
//! renders a [`BenchReport`] to JSON (`BENCH_core.json` at the repo root
//! by default); no external benchmarking crate is involved, so the
//! harness runs in fully offline builds.
//!
//! [`BenchConfig::filter`] restricts a run to benchmarks whose name
//! contains a substring; fixtures are built lazily, so a filtered run
//! pays only for the workloads its benchmarks touch.

use std::hint::black_box;
use std::time::Instant;

use spindown_core::cost::CostFunction;
use spindown_core::experiment::{build_scheduler, data_space, scan_stream, SchedulerKind};
use spindown_core::model::{Assignment, DiskId, Request};
use spindown_core::offline::evaluate_offline_with_jobs;
use spindown_core::placement::{PlacementConfig, PlacementMap};
#[cfg(feature = "bench-alloc")]
use spindown_core::sched::PlanScratch;
use spindown_core::sched::{ExplicitPlacement, MwisPlanner, MwisSolver, WindowedPlanner};
use spindown_core::system::{
    run_system_streamed, run_system_streamed_with_jobs, slice_source, SystemConfig,
};
use spindown_disk::mechanics::{DiskGeometry, Mechanics};
use spindown_disk::power::PowerParams;
use spindown_graph::mwis as solvers;
use spindown_graph::setcover::SetCoverInstance;
use spindown_sim::rng::SimRng;
use spindown_sim::time::SimTime;
use spindown_trace::spc::{self, SpcStream};
use spindown_trace::synth::TraceGenerator;
use spindown_trace::{ParsePolicy, StreamError};

use crate::grids::{EvalGrid, PolicyGrid};
use crate::workload::{self, Scale};

/// Knobs of one harness run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchConfig {
    /// Untimed iterations before sampling starts.
    pub warmup: usize,
    /// Timed iterations per benchmark (at least 1).
    pub iters: usize,
    /// Worker threads for the grid-evaluation benchmarks.
    pub jobs: usize,
    /// Workload seed shared by every fixture.
    pub seed: u64,
    /// Substring filter: only benchmarks whose name contains this run
    /// (`None` runs everything). Derived ratios are emitted only when
    /// both of their component benchmarks ran.
    pub filter: Option<String>,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            warmup: 1,
            iters: 5,
            jobs: 1,
            seed: 42,
            filter: None,
        }
    }
}

/// Wall-time quantiles of one benchmark, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchStats {
    /// Median sample.
    pub median_ns: u64,
    /// 10th-percentile sample.
    pub p10_ns: u64,
    /// 90th-percentile sample.
    pub p90_ns: u64,
}

impl BenchStats {
    /// Summarizes raw samples (sorted internally).
    fn from_samples(mut samples: Vec<u64>) -> BenchStats {
        assert!(!samples.is_empty(), "need at least one sample");
        samples.sort_unstable();
        let q = |frac: f64| {
            let idx = ((samples.len() - 1) as f64 * frac).round() as usize;
            samples[idx]
        };
        BenchStats {
            median_ns: q(0.5),
            p10_ns: q(0.1),
            p90_ns: q(0.9),
        }
    }
}

/// One named benchmark result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchEntry {
    /// Benchmark id (stable, snake_case — the JSON key).
    pub name: &'static str,
    /// Measured quantiles.
    pub stats: BenchStats,
}

/// One derived (ratio) result — a median-over-median speedup.
#[derive(Debug, Clone, PartialEq)]
pub struct DerivedEntry {
    /// Derived id (stable, snake_case — the JSON key).
    pub name: &'static str,
    /// The ratio value.
    pub value: f64,
}

/// Execution context of the host the report was produced on, recorded so
/// a reader can judge the parallel fixtures' numbers: a speedup below 1.0 on
/// an `available_parallelism: 1` host is the expected thread-overhead
/// floor, not a regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostContext {
    /// `std::thread::available_parallelism()` at run time (1 when the
    /// host does not report one).
    pub available_parallelism: usize,
    /// Worker count every parallel fixture actually ran at — the
    /// requested jobs clamped to the host's parallelism when the config
    /// did not pin one explicitly.
    pub parallel_jobs: usize,
}

impl HostContext {
    /// Captures the current host, with the effective worker count.
    fn capture(parallel_jobs: usize) -> HostContext {
        HostContext {
            available_parallelism: host_parallelism(),
            parallel_jobs,
        }
    }
}

/// `available_parallelism`, defaulting to 1 when unavailable.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The full harness output.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// The configuration that produced the report.
    pub config: BenchConfig,
    /// All benchmark results, in execution order.
    pub entries: Vec<BenchEntry>,
    /// Ratios and gauges computed from this run's entries, among them
    /// `incremental_replan_speedup` (delta-maintained vs rebuilt
    /// re-planning), `allocs_per_solve` (heap allocations inside a warm
    /// production solve, `bench-alloc` builds only), and the intra-run
    /// parallelism ratio `island_sim_speedup` (serial vs
    /// [`PARALLEL_BENCH_JOBS`]-worker runs of the same fixture).
    pub derived: Vec<DerivedEntry>,
    /// Host context the run executed under.
    pub host: HostContext,
}

impl BenchReport {
    /// Stats for a benchmark by name.
    pub fn stats(&self, name: &str) -> Option<BenchStats> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.stats)
    }

    /// Value of a derived ratio by name.
    pub fn derived(&self, name: &str) -> Option<f64> {
        self.derived
            .iter()
            .find(|d| d.name == name)
            .map(|d| d.value)
    }

    /// Renders the report as a JSON object (hand-emitted; the values are
    /// integers, plain floats, and snake_case keys, so no escaping is
    /// needed).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"schema\": \"spindown-bench-v1\",\n");
        s.push_str(&format!("  \"warmup\": {},\n", self.config.warmup));
        s.push_str(&format!("  \"iters\": {},\n", self.config.iters));
        s.push_str(&format!("  \"jobs\": {},\n", self.config.jobs));
        s.push_str(&format!("  \"seed\": {},\n", self.config.seed));
        s.push_str(&format!(
            "  \"host\": {{\"available_parallelism\": {}, \"parallel_jobs\": {}}},\n",
            self.host.available_parallelism, self.host.parallel_jobs
        ));
        s.push_str("  \"benches\": {\n");
        for (i, e) in self.entries.iter().enumerate() {
            let comma = if i + 1 == self.entries.len() { "" } else { "," };
            s.push_str(&format!(
                "    \"{}\": {{\"median_ns\": {}, \"p10_ns\": {}, \"p90_ns\": {}}}{comma}\n",
                e.name, e.stats.median_ns, e.stats.p10_ns, e.stats.p90_ns
            ));
        }
        s.push_str("  },\n");
        s.push_str("  \"derived\": {\n");
        for (i, d) in self.derived.iter().enumerate() {
            let comma = if i + 1 == self.derived.len() { "" } else { "," };
            s.push_str(&format!("    \"{}\": {:.3}{comma}\n", d.name, d.value));
        }
        s.push_str("  }\n}\n");
        s
    }

    /// Renders a short human-readable table.
    pub fn to_table(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{:<30} {:>12} {:>12} {:>12}\n",
            "benchmark", "median", "p10", "p90"
        ));
        for e in &self.entries {
            s.push_str(&format!(
                "{:<30} {:>12} {:>12} {:>12}\n",
                e.name,
                fmt_ns(e.stats.median_ns),
                fmt_ns(e.stats.p10_ns),
                fmt_ns(e.stats.p90_ns)
            ));
        }
        for d in &self.derived {
            s.push_str(&format!("{}: {:.2}x\n", d.name, d.value));
        }
        if let Some(f) = &self.config.filter {
            s.push_str(&format!("(filtered: \"{f}\")\n"));
        }
        s.pop();
        s
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Times `f` over `warmup + iters` calls and summarizes the timed ones.
fn time_ns<F: FnMut()>(warmup: usize, iters: usize, mut f: F) -> BenchStats {
    for _ in 0..warmup {
        f();
    }
    let iters = iters.max(1);
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let start = Instant::now();
        f();
        samples.push(start.elapsed().as_nanos() as u64);
    }
    BenchStats::from_samples(samples)
}

/// A conflict-graph fixture: a workload plus its placement and planner.
struct GraphFixture {
    requests: Vec<Request>,
    placement: PlacementMap,
    planner: MwisPlanner,
}

impl GraphFixture {
    fn new(scale: Scale, replication: u32, max_successors: usize, seed: u64) -> Self {
        let requests = workload::cello(scale, seed);
        let placement = PlacementMap::build(
            data_space(&requests),
            &PlacementConfig {
                disks: scale.disks,
                replication,
                zipf_z: 1.0,
            },
            seed,
        );
        let planner = MwisPlanner {
            params: PowerParams::barracuda(),
            solver: MwisSolver::GwMin,
            max_successors,
        };
        GraphFixture {
            requests,
            placement,
            planner,
        }
    }
}

/// A seeded exact-set-cover fixture: one continuous-weight singleton per
/// element (guaranteed coverable, continuous weights keep the optimum
/// unique) plus `2 × universe` random multi-element sets — the same
/// generator shape as the solver's differential suite.
fn cover_fixture(universe: usize, seed: u64) -> SetCoverInstance {
    let mut rng = SimRng::seed_from_u64(seed ^ 0x5e7c0f);
    let mut inst = SetCoverInstance::new(universe);
    for e in 0..universe {
        inst.add_set(0.5 + rng.next_f64() * 2.0, [e as u32]);
    }
    for _ in 0..2 * universe {
        let w = 0.1 + rng.next_f64() * 8.0;
        let elems: Vec<u32> = (0..1 + rng.index(universe))
            .map(|_| rng.index(universe) as u32)
            .collect();
        inst.add_set(w, elems);
    }
    inst
}

/// Default worker cap the parallel fixtures run at when the config
/// does not ask for a specific one (`--jobs` > 1 overrides it,
/// unclamped), compared against their serial (`jobs = 1`) counterparts
/// by the `derived.*_speedup` ratios. The default is clamped to
/// [`host_parallelism`] — worker threads beyond the cores the host
/// grants only add hand-off overhead — and the effective count is
/// recorded in the report's `host.parallel_jobs` field, so a reader can
/// tell an 8-way run from a single-core one.
pub const PARALLEL_BENCH_JOBS: usize = 8;

/// The small graph-build / grid scale (matches the unit-test scale).
fn small_scale() -> Scale {
    Scale {
        requests: 600,
        data_items: 250,
        disks: 12,
        rate: 3.0,
    }
}

/// The medium scale: few data items and a deep successor horizon give
/// dense conflict buckets (~100k nodes, ~15M edges at replication 3,
/// successor horizon 32 — mean degree ~290), a build-dominated workload
/// whose working set stays small enough that shared-host memory noise
/// doesn't swamp its median.
fn medium_scale() -> Scale {
    Scale {
        requests: 1_200,
        data_items: 150,
        disks: 24,
        rate: 10.0,
    }
}

/// The MWIS-solver scale: moderate density (~190k nodes, ~7M edges),
/// sparser than the deliberately dense [`medium_scale`] graph so a solver
/// iteration stays well under a second.
fn solver_scale() -> Scale {
    Scale {
        requests: 8_000,
        data_items: 3_000,
        disks: 24,
        rate: 10.0,
    }
}

/// The grid-evaluation medium scale (kept below [`medium_scale`]: a grid
/// is 30 full simulations per iteration).
fn grid_medium_scale() -> Scale {
    Scale {
        requests: 2_400,
        data_items: 1_000,
        disks: 20,
        rate: 6.0,
    }
}

/// Runs the whole suite under `config`, honoring its name filter.
pub fn run_benches(config: &BenchConfig) -> BenchReport {
    let mut entries: Vec<BenchEntry> = Vec::new();
    let mut derived: Vec<DerivedEntry> = Vec::new();
    let want = |name: &str| match &config.filter {
        Some(f) => name.contains(f.as_str()),
        None => true,
    };
    let (warmup, iters) = (config.warmup, config.iters);
    // Worker count for the parallel fixtures: `--jobs` when the
    // caller pinned one (the CI `--jobs 4` gate), the suite default
    // clamped to the host's parallelism otherwise.
    let par_jobs = if config.jobs > 1 {
        config.jobs
    } else {
        PARALLEL_BENCH_JOBS.min(host_parallelism())
    };

    // Conflict-graph construction (Step 1 plus the Step 2 degree count),
    // small and medium density. Both build benches get extra samples:
    // iterations are cheap (tens to hundreds of ms — the small one
    // especially is noise-dominated at few samples) and their medians
    // feed the CI regression gate, so they must hold still on noisy
    // shared hosts.
    let gb_iters = iters.max(1) * 2 + 1;
    if want("graph_build_bulk_small") {
        let small = GraphFixture::new(small_scale(), 3, 8, config.seed);
        entries.push(BenchEntry {
            name: "graph_build_bulk_small",
            stats: time_ns(warmup, gb_iters, || {
                black_box(small.planner.build_graph_with_jobs(
                    &small.requests,
                    &small.placement,
                    1,
                ));
            }),
        });
    }
    if want("graph_build_bulk_medium") {
        let medium = GraphFixture::new(medium_scale(), 3, 32, config.seed);
        entries.push(BenchEntry {
            name: "graph_build_bulk_medium",
            stats: time_ns(warmup, gb_iters, || {
                black_box(medium.planner.build_graph_with_jobs(
                    &medium.requests,
                    &medium.placement,
                    1,
                ));
            }),
        });
    }

    // Rolling-horizon re-planning: the same sliding-window schedule run
    // through the incrementally maintained WindowedPlanner (resume-region
    // Step 1 re-emission, re-sorted request buckets, and degrees updated
    // from the retired and new nodes' conflicts only) versus a
    // from-scratch conflict-graph build (full Step 1/2) per window. Each
    // window's solve is identical on both paths (the maintained graph is
    // bit-identical to the rebuilt one, and `mwis_*` already times it),
    // so the fixtures time graph maintenance alone — the work the
    // incremental path replaces — and the derived
    // `incremental_replan_speedup` is their ratio. The schedule ramps
    // from empty (cold start admits only the first step) and then slides
    // at full width, the production regime where window >> step.
    if want("window_replan_incremental_medium") || want("window_replan_rebuild_medium") {
        let scale = Scale {
            requests: 1_400,
            data_items: 150,
            disks: 24,
            rate: 10.0,
        };
        let fix = GraphFixture::new(scale, 3, 32, config.seed);
        const CAP: usize = 800; // window size, requests
        const STEP: usize = 25; // arrivals admitted per advance
        let mut schedule: Vec<(std::ops::Range<usize>, SimTime)> = Vec::new();
        let mut fed = 0usize;
        while fed < fix.requests.len() {
            let to = (fed + STEP).min(fix.requests.len());
            let horizon = match to.checked_sub(CAP) {
                Some(cut) => fix.requests[cut].at,
                None => SimTime::ZERO,
            };
            schedule.push((fed..to, horizon));
            fed = to;
        }
        let mut incr_medium = None;
        let mut rebuild_medium = None;
        if want("window_replan_incremental_medium") {
            let stats = time_ns(warmup, iters, || {
                let mut w = WindowedPlanner::new(fix.planner.clone(), scale.disks);
                for (r, h) in &schedule {
                    w.advance_window(&fix.requests[r.clone()], *h, &fix.placement);
                    black_box(w.graph().graph.edge_count());
                }
            });
            entries.push(BenchEntry {
                name: "window_replan_incremental_medium",
                stats,
            });
            incr_medium = Some(stats);
        }
        if want("window_replan_rebuild_medium") {
            // The naive re-planner's graph phase: every window re-runs
            // the full from-scratch build. Windows are pre-rebased so
            // the rebuild side pays only for building, not bookkeeping.
            let windows: Vec<Vec<Request>> = schedule
                .iter()
                .map(|(r, h)| {
                    let start = fix.requests.partition_point(|q| q.at < *h);
                    fix.requests[start..r.end]
                        .iter()
                        .enumerate()
                        .map(|(p, q)| Request {
                            index: p as u32,
                            ..*q
                        })
                        .collect()
                })
                .collect();
            let stats = time_ns(warmup, iters, || {
                for window in &windows {
                    black_box(fix.planner.build_graph_with_jobs(window, &fix.placement, 1));
                }
            });
            entries.push(BenchEntry {
                name: "window_replan_rebuild_medium",
                stats,
            });
            rebuild_medium = Some(stats);
        }
        if let (Some(incr), Some(rebuild)) = (incr_medium, rebuild_medium) {
            derived.push(DerivedEntry {
                name: "incremental_replan_speedup",
                value: rebuild.median_ns as f64 / incr.median_ns as f64,
            });
        }
        // Warm-window solve allocations: after the slide, re-solving the
        // maintained canonical graph with a warmed scratch must not
        // touch the heap — the measured form of the warm-start
        // invariant (DESIGN §12).
        #[cfg(feature = "bench-alloc")]
        if want("window_replan_incremental_medium") {
            let mut w = WindowedPlanner::new(fix.planner.clone(), scale.disks);
            for (r, h) in &schedule {
                w.advance_window(&fix.requests[r.clone()], *h, &fix.placement);
            }
            let mut scratch = PlanScratch::new();
            fix.planner.solve_into(w.graph(), &mut scratch); // warm
            spindown_alloctrack::reset_thread_allocs();
            fix.planner.solve_into(w.graph(), &mut scratch);
            derived.push(DerivedEntry {
                name: "window_replan_allocs_per_solve",
                value: spindown_alloctrack::thread_allocs() as f64,
            });
        }
    }

    // Per-disk offline evaluation of a fixed assignment at paper scale
    // (180 disks), the phase after the MWIS plan.
    if want("offline_eval_serial_medium") {
        let scale = Scale {
            requests: 100_000,
            data_items: 20_000,
            disks: 180,
            rate: 40.0,
        };
        let requests = workload::cello(scale, config.seed);
        let placement = PlacementMap::build(
            data_space(&requests),
            &PlacementConfig {
                disks: scale.disks,
                replication: 3,
                zipf_z: 1.0,
            },
            config.seed,
        );
        // Fixed static assignment: every request to its first replica.
        let assignment = Assignment {
            disks: requests
                .iter()
                .map(|r| placement.locations(r.data)[0])
                .collect(),
        };
        let params = PowerParams::barracuda();
        let mechanics = Mechanics::new(
            DiskGeometry::cheetah_15k5(),
            SimRng::seed_from_u64(config.seed),
        );
        entries.push(BenchEntry {
            name: "offline_eval_serial_medium",
            stats: time_ns(warmup, gb_iters, || {
                black_box(evaluate_offline_with_jobs(
                    &requests,
                    &assignment,
                    scale.disks,
                    &params,
                    None,
                    Some(&mechanics),
                    1,
                ));
            }),
        });
    }

    // MWIS solvers on a moderate-density conflict graph (see
    // [`solver_scale`]), the greedies solving the planner's edge-free
    // conflict graph out of a warm scratch — the repeated-window
    // configuration the planner runs.
    //
    // With the `bench-alloc` feature the warm production solves are also
    // bracketed by the thread-local allocation counter and the largest
    // count is reported as the derived `allocs_per_solve` — the
    // measured form of the scratch-reuse zero-allocation contract.
    let solver_names = ["mwis_gwmin", "mwis_gwmin2", "mwis_local_search"];
    if solver_names.iter().any(|n| want(n)) {
        let solver_fix = GraphFixture::new(solver_scale(), 3, 8, config.seed);
        let cg = solver_fix.planner.build_graph_with_jobs(
            &solver_fix.requests,
            &solver_fix.placement,
            1,
        );
        let mut scratch = solvers::GreedyScratch::new();
        let mut selected: Vec<spindown_graph::NodeId> = Vec::new();
        #[cfg(feature = "bench-alloc")]
        let mut max_allocs_per_solve: u64 = 0;
        #[cfg(feature = "bench-alloc")]
        let count_warm_solve = |f: &mut dyn FnMut()| -> u64 {
            spindown_alloctrack::reset_thread_allocs();
            f();
            spindown_alloctrack::thread_allocs()
        };
        if want("mwis_gwmin") {
            solvers::gwmin_into(&cg, &mut scratch, &mut selected);
            entries.push(BenchEntry {
                name: "mwis_gwmin",
                stats: time_ns(warmup, iters, || {
                    solvers::gwmin_into(&cg, &mut scratch, &mut selected);
                    black_box(&selected);
                }),
            });
            #[cfg(feature = "bench-alloc")]
            {
                let allocs =
                    count_warm_solve(&mut || solvers::gwmin_into(&cg, &mut scratch, &mut selected));
                max_allocs_per_solve = max_allocs_per_solve.max(allocs);
            }
        }
        if want("mwis_gwmin2") {
            solvers::gwmin2_into(&cg, &mut scratch, &mut selected);
            entries.push(BenchEntry {
                name: "mwis_gwmin2",
                stats: time_ns(warmup, iters, || {
                    solvers::gwmin2_into(&cg, &mut scratch, &mut selected);
                    black_box(&selected);
                }),
            });
            #[cfg(feature = "bench-alloc")]
            {
                let allocs = count_warm_solve(&mut || {
                    solvers::gwmin2_into(&cg, &mut scratch, &mut selected)
                });
                max_allocs_per_solve = max_allocs_per_solve.max(allocs);
            }
        }
        #[cfg(feature = "bench-alloc")]
        if want("mwis_gwmin") || want("mwis_gwmin2") {
            derived.push(DerivedEntry {
                name: "allocs_per_solve",
                value: max_allocs_per_solve as f64,
            });
        }
        if want("mwis_local_search") {
            let start = solvers::gwmin(&cg);
            entries.push(BenchEntry {
                name: "mwis_local_search",
                stats: time_ns(warmup, iters, || {
                    black_box(solvers::local_search(&cg, &start));
                }),
            });
        }
    }

    // Exact branch-and-bound on a tiny and a medium conflict graph.
    if want("mwis_exact_small") {
        let tiny = GraphFixture::new(
            Scale {
                requests: 18,
                data_items: 12,
                disks: 4,
                rate: 2.0,
            },
            2,
            2,
            config.seed,
        );
        let tiny_cg = tiny
            .planner
            .build_graph_with_jobs(&tiny.requests, &tiny.placement, 1);
        entries.push(BenchEntry {
            name: "mwis_exact_small",
            stats: time_ns(warmup, iters, || {
                black_box(solvers::exact(&tiny_cg, usize::MAX));
            }),
        });
    }
    if want("mwis_exact_medium") {
        let mid = GraphFixture::new(
            Scale {
                requests: 30,
                data_items: 18,
                disks: 4,
                rate: 2.0,
            },
            2,
            3,
            config.seed,
        );
        let mid_cg = mid
            .planner
            .build_graph_with_jobs(&mid.requests, &mid.placement, 1);
        entries.push(BenchEntry {
            name: "mwis_exact_medium",
            stats: time_ns(warmup, iters, || {
                black_box(solvers::exact(&mid_cg, usize::MAX));
            }),
        });
    }

    // Exact weighted set cover on seeded instances (one singleton per
    // element for coverability plus random multi-sets), small and medium.
    // A single solve is microseconds — far below timer jitter at the CI
    // gate's 25% tolerance — so each timed iteration solves a whole batch
    // of distinct instances.
    if want("setcover_exact_small") {
        let insts: Vec<_> = (0..256)
            .map(|i| cover_fixture(14, config.seed.wrapping_add(i)))
            .collect();
        entries.push(BenchEntry {
            name: "setcover_exact_small",
            stats: time_ns(warmup, iters, || {
                for inst in &insts {
                    black_box(inst.solve_exact(usize::MAX));
                }
            }),
        });
    }
    if want("setcover_exact_medium") {
        let insts: Vec<_> = (0..256)
            .map(|i| cover_fixture(22, config.seed.wrapping_add(i)))
            .collect();
        entries.push(BenchEntry {
            name: "setcover_exact_medium",
            stats: time_ns(warmup, iters, || {
                for inst in &insts {
                    black_box(inst.solve_exact(usize::MAX));
                }
            }),
        });
    }

    // Full experiment grids (30 simulations each), small and medium.
    if want("grid_eval_small") {
        let grid_small_reqs = workload::cello(small_scale(), config.seed);
        entries.push(BenchEntry {
            name: "grid_eval_small",
            stats: time_ns(warmup, iters, || {
                black_box(EvalGrid::compute(
                    &grid_small_reqs,
                    small_scale(),
                    1.0,
                    config.seed,
                    config.jobs,
                ));
            }),
        });
    }
    if want("grid_eval_medium") {
        let grid_medium_reqs = workload::cello(grid_medium_scale(), config.seed);
        entries.push(BenchEntry {
            name: "grid_eval_medium",
            stats: time_ns(warmup, iters, || {
                black_box(EvalGrid::compute(
                    &grid_medium_reqs,
                    grid_medium_scale(),
                    1.0,
                    config.seed,
                    config.jobs,
                ));
            }),
        });
    }

    // Scenario × spin-down-policy sweep: six event-loop simulations
    // (diurnal and flash-crowd, each under 2CPM / adaptive / quantile).
    // Besides the timing, the run yields the headline quality ratio
    // `predictive_vs_2cpm_energy_ratio` — quantile-policy energy over
    // 2CPM energy on the flash-crowd scenario (< 1.0 means the learned
    // policy beats the fixed breakeven; the grids-crate acceptance test
    // additionally pins equal-or-better p99).
    if want("policy_sweep_medium") {
        let scale = Scale::policy_sweep();
        let mut ratio = f64::NAN;
        let stats = time_ns(warmup, iters, || {
            let grid = PolicyGrid::compute(scale, config.seed, config.jobs);
            ratio = grid.cell("flash-crowd", "quantile").metrics.energy_j
                / grid.cell("flash-crowd", "2cpm").metrics.energy_j;
            black_box(grid);
        });
        entries.push(BenchEntry {
            name: "policy_sweep_medium",
            stats,
        });
        derived.push(DerivedEntry {
            name: "predictive_vs_2cpm_energy_ratio",
            value: ratio,
        });
    }

    // Streaming trace pipeline. Two benches gate the two halves of the
    // constant-memory path: the incremental SPC parser on its own, and
    // the full two-pass streamed replay (scan -> placement -> lazy
    // request source -> pull-based event loop).
    if want("stream_parse_spc_medium") {
        let scale = Scale {
            requests: 100_000,
            data_items: 20_000,
            disks: 24,
            rate: 40.0,
        };
        // Render the fixture once; the bench times parsing only. Like
        // the graph-build benches, iterations are cheap (~10 ms) and the
        // median feeds the CI regression gate, so take extra samples
        // after extra warmup to ride out frequency-scaling transients.
        let text = spc::to_string(&workload::cello_like(scale).generate(config.seed));
        let stats = time_ns(warmup + 4, gb_iters, || {
            let mut n = 0usize;
            for rec in SpcStream::new(text.as_bytes(), ParsePolicy::Strict) {
                black_box(rec.expect("rendered fixture parses clean"));
                n += 1;
            }
            assert_eq!(n, scale.requests);
        });
        entries.push(BenchEntry {
            name: "stream_parse_spc_medium",
            stats,
        });
        derived.push(DerivedEntry {
            name: "stream_parse_records_per_sec",
            value: scale.requests as f64 / (stats.median_ns as f64 / 1e9),
        });
    }
    if want("stream_run_medium") {
        let scale = Scale {
            requests: 20_000,
            data_items: 5_000,
            disks: 24,
            rate: 20.0,
        };
        let gen = workload::cello_like(scale);
        let pcfg = PlacementConfig {
            disks: scale.disks,
            replication: 3,
            zipf_z: 1.0,
        };
        let sys = SystemConfig {
            disks: scale.disks,
            seed: config.seed,
            ..SystemConfig::default()
        };
        // The pass-one scan and placement build are per-trace setup, not
        // replay: the timed region is pass two alone — lazy request
        // decode through the scan summary plus the pull-based event loop
        // — the phase that repeats per scheduler/policy configuration
        // over a fixed trace and that `stream_run_records_per_sec`
        // advertises.
        let scan = scan_stream(gen.stream(config.seed).map(Ok::<_, StreamError>))
            .expect("synthetic streams are infallible");
        let placement = PlacementMap::build(scan.data_space(), &pcfg, config.seed);
        let mut peaks = (0usize, 0usize);
        // Extra warmup + samples for the same reason as the parse bench.
        let stats = time_ns(warmup + 4, gb_iters, || {
            let mut sched = build_scheduler(
                &SchedulerKind::Heuristic(CostFunction::energy_only()),
                config.seed,
            )
            .expect("event-loop scheduler");
            let mut source = scan
                .clone()
                .requests(gen.stream(config.seed).map(Ok::<_, StreamError>));
            let m = run_system_streamed(&mut source, &placement, sched.as_mut(), &sys)
                .expect("streamed replay of a synthetic trace");
            peaks = (m.peak_events, m.peak_in_flight);
            black_box(m);
        });
        entries.push(BenchEntry {
            name: "stream_run_medium",
            stats,
        });
        derived.push(DerivedEntry {
            name: "stream_run_records_per_sec",
            value: scale.requests as f64 / (stats.median_ns as f64 / 1e9),
        });
        // Estimated peak resident bytes of the pipeline's only
        // trace-proportional buffers: queued events (time + two ids) plus
        // in-flight bookkeeping (id + arrival time + the request batch
        // slot). An estimate from struct sizes, not an allocator
        // measurement — its job is to prove the replay buffers stay
        // O(in-flight work), far below the materialized trace.
        let event_bytes = std::mem::size_of::<SimTime>() + 2 * std::mem::size_of::<u64>();
        let in_flight_bytes = std::mem::size_of::<u64>()
            + std::mem::size_of::<SimTime>()
            + std::mem::size_of::<Request>();
        derived.push(DerivedEntry {
            name: "stream_run_peak_buffer_bytes",
            value: (peaks.0 * event_bytes + peaks.1 * in_flight_bytes) as f64,
        });
    }
    if want("stream_run_islands_serial_medium") || want("stream_run_islands_medium") {
        // Island replay: 8 replica islands of 6 disks (3 replicas inside
        // the group). The serial fixture runs the serial reference
        // (`run_system_streamed`, one event loop over all 48 disks); the
        // other runs `run_system_streamed_with_jobs` at the parallel
        // worker count, 8 event loops that run inline on the calling
        // thread at one worker and behind the stream splitter at more.
        // `island_sim_speedup` is their median ratio (near 1.0 on a
        // single-core runner — only
        // the bit-identical outputs are meaningful there, and the
        // `host` block in the report records how many workers actually
        // ran). Iterations are kept tens-of-ms long and tripled
        // relative to the global count so shared-host steal spikes
        // land inside a sample and get voted out of the median instead
        // of whipsawing the gated ratio.
        let scale = Scale {
            requests: 60_000,
            data_items: 14_400,
            disks: 48,
            rate: 20.0,
        };
        let requests = workload::cello(scale, config.seed);
        let islands = 8usize;
        let group = 6usize;
        let locations: Vec<Vec<DiskId>> = (0..data_space(&requests))
            .map(|d| {
                let g = d % islands;
                (0..3)
                    .map(|r| DiskId((g * group + (d / islands + r) % group) as u32))
                    .collect()
            })
            .collect();
        let placement = ExplicitPlacement::new(locations, scale.disks);
        let sys = SystemConfig {
            disks: scale.disks,
            seed: config.seed,
            ..SystemConfig::default()
        };
        let factory = || {
            build_scheduler(
                &SchedulerKind::Heuristic(CostFunction::energy_only()),
                config.seed,
            )
            .expect("event-loop scheduler")
        };
        let mut serial_stats = None;
        if want("stream_run_islands_serial_medium") {
            let stats = time_ns(warmup + 4, gb_iters * 3, || {
                let mut source = slice_source(&requests);
                let m = run_system_streamed(&mut source, &placement, factory().as_mut(), &sys);
                black_box(m.expect("sorted fixture"));
            });
            entries.push(BenchEntry {
                name: "stream_run_islands_serial_medium",
                stats,
            });
            serial_stats = Some(stats);
        }
        if want("stream_run_islands_medium") {
            let stats = time_ns(warmup + 4, gb_iters * 3, || {
                let mut source = slice_source(&requests);
                let m = run_system_streamed_with_jobs(
                    &mut source,
                    &placement,
                    &factory,
                    &sys,
                    par_jobs,
                );
                black_box(m.expect("sorted fixture"));
            });
            entries.push(BenchEntry {
                name: "stream_run_islands_medium",
                stats,
            });
            if let Some(serial) = serial_stats {
                derived.push(DerivedEntry {
                    name: "island_sim_speedup",
                    value: serial.median_ns as f64 / stats.median_ns as f64,
                });
            }
        }
    }

    BenchReport {
        config: config.clone(),
        entries,
        derived,
        host: HostContext::capture(par_jobs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_quantiles() {
        let s = BenchStats::from_samples((1..=100).collect());
        assert_eq!(s.p10_ns, 11);
        assert_eq!(s.median_ns, 51);
        assert_eq!(s.p90_ns, 90);
        let one = BenchStats::from_samples(vec![7]);
        assert_eq!((one.p10_ns, one.median_ns, one.p90_ns), (7, 7, 7));
    }

    #[test]
    fn json_shape() {
        let report = BenchReport {
            config: BenchConfig::default(),
            entries: vec![
                BenchEntry {
                    name: "a",
                    stats: BenchStats {
                        median_ns: 10,
                        p10_ns: 5,
                        p90_ns: 20,
                    },
                },
                BenchEntry {
                    name: "b",
                    stats: BenchStats {
                        median_ns: 30,
                        p10_ns: 25,
                        p90_ns: 40,
                    },
                },
            ],
            derived: vec![
                DerivedEntry {
                    name: "island_sim_speedup",
                    value: 2.5,
                },
                DerivedEntry {
                    name: "incremental_replan_speedup",
                    value: 3.25,
                },
            ],
            host: HostContext {
                available_parallelism: 4,
                parallel_jobs: 4,
            },
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"spindown-bench-v1\""));
        assert!(json.contains("\"host\": {\"available_parallelism\": 4, \"parallel_jobs\": 4},"));
        assert!(json.contains("\"a\": {\"median_ns\": 10, \"p10_ns\": 5, \"p90_ns\": 20},"));
        assert!(json.contains("\"b\": {\"median_ns\": 30, \"p10_ns\": 25, \"p90_ns\": 40}\n"));
        assert!(json.contains("\"island_sim_speedup\": 2.500,"));
        assert!(json.contains("\"incremental_replan_speedup\": 3.250\n"));
        assert_eq!(report.stats("b").unwrap().median_ns, 30);
        assert!(report.stats("c").is_none());
        assert_eq!(report.derived("incremental_replan_speedup"), Some(3.25));
        assert!(report.derived("missing").is_none());
        // Balanced braces — cheap structural sanity for the hand emitter.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON"
        );
    }

    #[test]
    fn empty_report_keeps_valid_shape() {
        let report = BenchReport {
            config: BenchConfig {
                filter: Some("nothing".into()),
                ..BenchConfig::default()
            },
            entries: vec![],
            derived: vec![],
            host: HostContext::capture(1),
        };
        let json = report.to_json();
        assert!(json.contains("\"benches\": {\n  },"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(report.to_table().contains("(filtered: \"nothing\")"));
    }

    #[test]
    fn filter_skips_unmatched_benches() {
        // A filter that matches nothing must run nothing (and build no
        // fixtures — this test would take minutes otherwise).
        let report = run_benches(&BenchConfig {
            warmup: 0,
            iters: 1,
            filter: Some("no_such_bench".into()),
            ..BenchConfig::default()
        });
        assert!(report.entries.is_empty());
        assert!(report.derived.is_empty());

        // A narrow filter runs exactly its match.
        let report = run_benches(&BenchConfig {
            warmup: 0,
            iters: 1,
            filter: Some("mwis_exact_small".into()),
            ..BenchConfig::default()
        });
        let names: Vec<&str> = report.entries.iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["mwis_exact_small"]);
        assert!(report.derived.is_empty());
    }

    #[test]
    fn exact_benches_run_in_order() {
        let report = run_benches(&BenchConfig {
            warmup: 0,
            iters: 1,
            filter: Some("exact_".into()),
            ..BenchConfig::default()
        });
        let names: Vec<&str> = report.entries.iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            vec![
                "mwis_exact_small",
                "mwis_exact_medium",
                "setcover_exact_small",
                "setcover_exact_medium",
            ]
        );
        assert!(report.derived.is_empty());
    }

    #[test]
    fn timer_collects_iters() {
        let mut calls = 0usize;
        let stats = time_ns(2, 3, || calls += 1);
        assert_eq!(calls, 5);
        assert!(stats.p10_ns <= stats.median_ns && stats.median_ns <= stats.p90_ns);
    }
}
