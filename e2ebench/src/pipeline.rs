//! The CLI's `simulate` pipeline rebuilt from public calls, so each
//! layer can be timed from outside the program.
//!
//! Streamed workloads: `scan_stream` (pass one), `PlacementMap::build`,
//! then pass two through `run_system_streamed_with_jobs`. Traced runs
//! wrap the request source (one timed `fill_block` per 256-record block)
//! and every scheduler (one timed `assign_into` per call, allocations
//! counted per thread). The offline MWIS workload times each public
//! stage call directly: `collect_trace`, `requests_from_trace`,
//! placement, graph build, solve, derive, offline evaluation.

use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use spindown_alloctrack::thread_allocs;
use spindown_cli::Cli;
use spindown_core::cost::CostFunction;
use spindown_core::experiment::{
    build_scheduler, data_space, requests_from_trace, scan_stream, ExperimentSpec, SchedulerKind,
};
use spindown_core::metrics::RunMetrics;
use spindown_core::model::{DiskId, Request};
use spindown_core::offline::evaluate_offline_with_jobs;
use spindown_core::placement::{IslandPartition, PlacementConfig, PlacementMap};
use spindown_core::sched::{MwisPlanner, PlanScratch, ScheduleMode, Scheduler, SystemView};
use spindown_core::system::{
    run_system_streamed_with_jobs, PolicyKind, RequestSource, SourceError, SystemConfig,
};
use spindown_disk::mechanics::Mechanics;
use spindown_sim::rng::SimRng;
use spindown_trace::spc::SpcStream;
use spindown_trace::stream::collect_trace;
use spindown_trace::ParsePolicy;

use crate::probe::process_cpu_s;

/// Per-layer measurements of one pipeline run. Stage boundaries are
/// timed on every run; the per-block and per-call fields are filled only
/// by traced runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layers {
    /// Setup's pass over the file: `scan_stream`, or `collect_trace` on
    /// the offline path.
    pub scan_s: f64,
    /// Request decode: `fill_block` time during pass two (parse plus
    /// decode), or `requests_from_trace` on the offline path.
    pub source_busy_s: f64,
    /// `PlacementMap::build`.
    pub placement_build_s: f64,
    /// Replica-sharing islands of the placement.
    pub islands: u64,
    /// Scheduler time: every `assign_into`, or the MWIS plan (graph
    /// build, solve and derive) on the offline path.
    pub sched_busy_s: f64,
    /// Scheduler calls (1 for the offline plan).
    pub sched_calls: u64,
    /// Requests handed to the scheduler.
    pub sched_requests: u64,
    /// Heap acquisitions inside scheduler calls, on the calling thread.
    pub sched_allocs: u64,
    /// Wall time of the replay: the event engine, or the offline
    /// evaluation on the offline path.
    pub replay_s: f64,
    /// Process CPU time over the same interval.
    pub replay_cpu_s: f64,
    /// MWIS conflict-graph build.
    pub mwis_build_s: f64,
    /// MWIS solve (`graph::mwis`).
    pub mwis_solve_s: f64,
    /// MWIS plan derivation (Step 4).
    pub mwis_derive_s: f64,
    /// Conflict-graph nodes.
    pub graph_nodes: u64,
    /// Conflict-graph edges.
    pub graph_edges: u64,
    /// Nodes the solver selected.
    pub selected: u64,
}

impl Layers {
    /// Set-up time: the scan and placement build, plus the request decode
    /// on the offline path (on the streamed path decode is part of the
    /// replay).
    pub fn setup_s(&self, streamed: bool) -> f64 {
        let decode = if streamed { 0.0 } else { self.source_busy_s };
        self.scan_s + decode + self.placement_build_s
    }

    /// Replay CPU time not spent in the request source or the scheduler
    /// (on the offline path both run before the replay).
    pub fn self_cpu_s(&self, streamed: bool) -> f64 {
        if streamed {
            self.replay_cpu_s - self.source_busy_s - self.sched_busy_s
        } else {
            self.replay_cpu_s
        }
    }
}

/// A pipeline run's result.
#[derive(Debug)]
pub struct Outcome {
    /// The simulated run, as the CLI computes it.
    pub metrics: RunMetrics,
    /// Where the host time went.
    pub layers: Layers,
}

/// The experiment a `simulate` invocation on the uniform fleet runs (the
/// CLI builds the same spec privately; the report check catches any
/// drift).
pub fn spec_of(cli: &Cli) -> ExperimentSpec {
    let cost = CostFunction {
        alpha: cli.alpha,
        beta: cli.beta,
    };
    ExperimentSpec {
        placement: PlacementConfig {
            disks: cli.disks,
            replication: cli.replication,
            zipf_z: cli.zipf,
        },
        scheduler: cli.scheduler.to_kind(cost, cli.interval_ms),
        system: SystemConfig {
            disks: cli.disks,
            policy: match cli.policy.as_str() {
                "always-on" => PolicyKind::AlwaysOn,
                "adaptive" => PolicyKind::Adaptive,
                "quantile" => PolicyKind::Quantile,
                _ => PolicyKind::Breakeven,
            },
            discipline: cli.discipline,
            ..SystemConfig::default()
        },
        seed: cli.seed,
    }
}

fn open(path: &Path) -> Result<SpcStream<BufReader<File>>, String> {
    let file = File::open(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Ok(SpcStream::new(BufReader::new(file), ParsePolicy::Strict))
}

/// Parses the whole file and discards the records: the parser's cost
/// alone. Returns the records parsed and the seconds taken.
pub fn parse_only(path: &Path) -> Result<(u64, f64), String> {
    let t = Instant::now();
    let mut lines = 0u64;
    for record in open(path)? {
        std::hint::black_box(record.map_err(|e| e.to_string())?);
        lines += 1;
    }
    Ok((lines, t.elapsed().as_secs_f64()))
}

/// Runs only the set-up stages of the pipeline for `cli` on `path`:
/// everything before the first arrival reaches the engine or planner.
pub fn setup(cli: &Cli, path: &Path) -> Result<Layers, String> {
    let spec = spec_of(cli);
    let mut layers = Layers::default();
    if matches!(spec.scheduler, SchedulerKind::Mwis { .. }) {
        std::hint::black_box(offline_setup(path, &spec, &mut layers)?);
    } else {
        std::hint::black_box(streamed_setup(path, &spec, &mut layers)?);
    }
    Ok(layers)
}

/// Runs the `simulate` pipeline for `cli` on `path`, wrapping the source
/// and schedulers when `traced`.
pub fn run(cli: &Cli, path: &Path, traced: bool) -> Result<Outcome, String> {
    let spec = spec_of(cli);
    let jobs = cli.effective_jobs();
    match &spec.scheduler {
        SchedulerKind::Mwis {
            solver,
            max_successors,
        } => {
            let planner = MwisPlanner {
                params: spec.system.power.clone(),
                solver: *solver,
                max_successors: *max_successors,
            };
            run_offline(path, &spec, &planner, jobs)
        }
        _ => run_streamed(path, &spec, jobs, traced),
    }
}

fn streamed_setup(
    path: &Path,
    spec: &ExperimentSpec,
    layers: &mut Layers,
) -> Result<(spindown_core::experiment::StreamScan, PlacementMap), String> {
    let t = Instant::now();
    let scan = scan_stream(open(path)?).map_err(|e| e.to_string())?;
    layers.scan_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let placement = PlacementMap::build(scan.data_space(), &spec.placement, spec.seed);
    layers.placement_build_s = t.elapsed().as_secs_f64();
    Ok((scan, placement))
}

fn offline_setup(
    path: &Path,
    spec: &ExperimentSpec,
    layers: &mut Layers,
) -> Result<(Vec<Request>, PlacementMap), String> {
    let t = Instant::now();
    let trace = collect_trace(open(path)?).map_err(|e| e.to_string())?;
    layers.scan_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let requests = requests_from_trace(&trace);
    layers.source_busy_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let placement = PlacementMap::build(data_space(&requests), &spec.placement, spec.seed);
    layers.placement_build_s = t.elapsed().as_secs_f64();
    Ok((requests, placement))
}

fn run_streamed(
    path: &Path,
    spec: &ExperimentSpec,
    jobs: usize,
    traced: bool,
) -> Result<Outcome, String> {
    let mut layers = Layers::default();
    let (scan, placement) = streamed_setup(path, spec, &mut layers)?;
    layers.islands = IslandPartition::from_provider(&placement).n_islands() as u64;
    let config = SystemConfig {
        disks: spec.placement.disks,
        seed: spec.seed,
        ..spec.system.clone()
    };
    let requests = scan.requests(open(path)?);
    let plain = || build_scheduler(&spec.scheduler, spec.seed).expect("event-loop scheduler");
    let (cpu, t) = (process_cpu_s(), Instant::now());
    let result = if traced {
        let tally = Arc::new(Tally::default());
        let mut source = TimedSource {
            inner: requests,
            busy: Duration::ZERO,
        };
        let factory = || -> Box<dyn Scheduler> {
            Box::new(TimedScheduler {
                inner: plain(),
                tally: Arc::clone(&tally),
                local: Counts::default(),
            })
        };
        let result =
            run_system_streamed_with_jobs(&mut source, &placement, &factory, &config, jobs);
        (layers.replay_s, layers.replay_cpu_s) = (t.elapsed().as_secs_f64(), process_cpu_s() - cpu);
        layers.source_busy_s = source.busy.as_secs_f64();
        let n = tally.load();
        layers.sched_busy_s = n.busy_ns as f64 * 1e-9;
        (
            layers.sched_calls,
            layers.sched_requests,
            layers.sched_allocs,
        ) = (n.calls, n.requests, n.allocs);
        result
    } else {
        let mut source = requests;
        let result = run_system_streamed_with_jobs(&mut source, &placement, &plain, &config, jobs);
        (layers.replay_s, layers.replay_cpu_s) = (t.elapsed().as_secs_f64(), process_cpu_s() - cpu);
        result
    };
    let metrics = result.map_err(|e| e.0)?;
    Ok(Outcome { metrics, layers })
}

fn run_offline(
    path: &Path,
    spec: &ExperimentSpec,
    planner: &MwisPlanner,
    jobs: usize,
) -> Result<Outcome, String> {
    let mut layers = Layers::default();
    let (requests, placement) = offline_setup(path, spec, &mut layers)?;
    layers.islands = IslandPartition::from_provider(&placement).n_islands() as u64;

    let allocs = thread_allocs();
    let t = Instant::now();
    let cg = planner.build_graph_with_jobs(&requests, &placement, jobs);
    layers.mwis_build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut scratch = PlanScratch::new();
    planner.solve_into(&cg, &mut scratch);
    layers.mwis_solve_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (assignment, _) = planner.derive_plan(
        &requests,
        &placement,
        &cg.graph,
        &cg.nodes,
        &scratch.selected,
    );
    layers.mwis_derive_s = t.elapsed().as_secs_f64();
    layers.sched_allocs = thread_allocs() - allocs;
    layers.sched_busy_s = layers.mwis_build_s + layers.mwis_solve_s + layers.mwis_derive_s;
    (layers.sched_calls, layers.sched_requests) = (1, requests.len() as u64);
    layers.graph_nodes = cg.graph.len() as u64;
    layers.graph_edges = cg.graph.edge_count() as u64;
    layers.selected = scratch.selected.len() as u64;
    // The CLI's plan call frees the graph before evaluating.
    drop((cg, scratch));

    let mechanics = Mechanics::new(
        spec.system.geometry.clone(),
        SimRng::seed_from_u64(spec.seed),
    );
    let (cpu, t) = (process_cpu_s(), Instant::now());
    let metrics = evaluate_offline_with_jobs(
        &requests,
        &assignment,
        spec.placement.disks,
        &spec.system.power,
        None,
        Some(&mechanics),
        jobs,
    );
    (layers.replay_s, layers.replay_cpu_s) = (t.elapsed().as_secs_f64(), process_cpu_s() - cpu);
    Ok(Outcome { metrics, layers })
}

/// A request source that times every block pulled from the wrapped one
/// (the engines ingest through `fill_block` only).
struct TimedSource<S> {
    inner: S,
    busy: Duration,
}

impl<S: RequestSource> RequestSource for TimedSource<S> {
    fn next_request(&mut self) -> Option<Result<Request, SourceError>> {
        self.inner.next_request()
    }

    fn fill_block(&mut self, out: &mut Vec<Request>, max: usize) -> Option<SourceError> {
        let t = Instant::now();
        let err = self.inner.fill_block(out, max);
        self.busy += t.elapsed();
        err
    }
}

/// Scheduler counters; [`TimedScheduler`] keeps its own and adds them to
/// the shared [`Tally`] when the engine drops it.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    busy_ns: u64,
    calls: u64,
    requests: u64,
    allocs: u64,
}

/// Counters summed over every scheduler of a run, across worker threads.
/// Statistics only: no other data is published through them.
#[derive(Default)]
struct Tally([AtomicU64; 4]);

impl Tally {
    fn add(&self, c: Counts) {
        for (slot, v) in self
            .0
            .iter()
            .zip([c.busy_ns, c.calls, c.requests, c.allocs])
        {
            slot.fetch_add(v, Ordering::Relaxed);
        }
    }

    fn load(&self) -> Counts {
        let [busy_ns, calls, requests, allocs] =
            self.0.each_ref().map(|a| a.load(Ordering::Relaxed));
        Counts {
            busy_ns,
            calls,
            requests,
            allocs,
        }
    }
}

/// A scheduler that times every call into the wrapped one and counts the
/// heap acquisitions it makes on the calling thread.
struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    tally: Arc<Tally>,
    local: Counts,
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn mode(&self) -> ScheduleMode {
        self.inner.mode()
    }

    fn assign(&mut self, reqs: &[Request], view: &SystemView<'_>) -> Vec<DiskId> {
        let mut out = Vec::with_capacity(reqs.len());
        self.assign_into(reqs, view, &mut out);
        out
    }

    fn assign_into(&mut self, reqs: &[Request], view: &SystemView<'_>, out: &mut Vec<DiskId>) {
        let allocs = thread_allocs();
        let t = Instant::now();
        self.inner.assign_into(reqs, view, out);
        self.local.busy_ns += t.elapsed().as_nanos() as u64;
        self.local.allocs += thread_allocs() - allocs;
        self.local.calls += 1;
        self.local.requests += reqs.len() as u64;
    }
}

impl Drop for TimedScheduler {
    fn drop(&mut self) {
        self.tally.add(self.local);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks::{identity_failures, report_mismatches, Summary};
    use crate::render::render;
    use crate::workload::Workload;

    /// A small instance of each workload shape: the traced pipeline must
    /// reproduce the CLI's own report, and the untraced pipeline the
    /// traced run's metrics bit for bit.
    #[test]
    fn traced_pipeline_reproduces_the_cli_report() {
        let dir = std::env::temp_dir().join(format!("e2ebench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for w in Workload::ALL {
            let path = dir.join(format!("{}.spc", w.name()));
            let file = std::fs::File::create(&path).unwrap();
            let stats = render(w.records_scaled(11, 400), file).unwrap();
            let argv = w.cli_args(&path, 2);
            let cli = Cli::parse(&argv).unwrap();

            let mut report = Vec::new();
            assert_eq!(spindown_cli::run(&argv, &mut report), 0, "{}", w.name());
            let report = String::from_utf8(report).unwrap();

            let traced = run(&cli, &path, true).unwrap();
            let summary = Summary::of(&traced.metrics);
            assert_eq!(
                report_mismatches(&report, &summary, stats.reads),
                Vec::<String>::new()
            );
            let idle_w = spec_of(&cli).system.power.idle_w;
            assert_eq!(
                identity_failures(&traced.metrics, cli.disks, idle_w, stats.reads),
                Vec::<String>::new()
            );

            let plain = run(&cli, &path, false).unwrap();
            assert_eq!(
                Summary::of(&plain.metrics).digest,
                summary.digest,
                "{}",
                w.name()
            );

            let l = &traced.layers;
            assert!(
                l.sched_calls > 0 && l.sched_requests > 0,
                "{}: {l:?}",
                w.name()
            );
            assert!(l.replay_s > 0.0 && l.scan_s > 0.0, "{}: {l:?}", w.name());
            if w.is_streamed() {
                assert_eq!(l.sched_requests, stats.reads, "{}", w.name());
                assert!(l.source_busy_s > 0.0);
            } else {
                assert!(l.graph_nodes > 0 && l.selected > 0);
            }
            if w == Workload::BatchIslands {
                assert_eq!(l.islands, u64::from(cli.disks), "one island per disk");
            }
            let setup = setup(&cli, &path).unwrap();
            assert!(
                setup.scan_s > 0.0 && setup.placement_build_s > 0.0,
                "{}: {setup:?}",
                w.name()
            );
            assert_eq!(parse_only(&path).unwrap().0, stats.lines);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
