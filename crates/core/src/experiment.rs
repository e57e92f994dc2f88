//! Experiment orchestration: turn a trace + placement + scheduler choice
//! into one [`RunMetrics`] row, the unit every figure in the paper's
//! evaluation is built from.

use std::collections::HashSet;

use spindown_disk::mechanics::Mechanics;
use spindown_sim::rng::SimRng;
use spindown_sim::time::{SimDuration, SimTime};
use spindown_trace::record::{OpKind, Trace, TraceRecord};

use crate::cost::CostFunction;
use crate::metrics::RunMetrics;
use crate::model::{DataId, Request};
use crate::offline::evaluate_offline_with_jobs;
use crate::placement::{PlacementConfig, PlacementMap};
use crate::sched::{
    HeuristicScheduler, MwisPlanner, MwisSolver, RandomScheduler, Scheduler, StaticScheduler,
    WscScheduler,
};
use crate::system::{
    run_system_streamed_with_jobs, slice_source, PolicyKind, SourceError, SystemConfig,
};

/// Which scheduling algorithm an experiment runs (paper §4.3).
#[derive(Debug, Clone, PartialEq)]
pub enum SchedulerKind {
    /// Uniform over replica locations.
    Random,
    /// Always the original location.
    Static,
    /// Online Eq. 6 cost minimization.
    Heuristic(CostFunction),
    /// Batch weighted set cover.
    Wsc {
        /// Disk-weight cost function (the paper reuses the heuristic's).
        cost: CostFunction,
        /// Batching interval (0.1 s in the paper).
        interval: SimDuration,
    },
    /// Offline MWIS (evaluated analytically under the offline model).
    Mwis {
        /// Step 3 solver.
        solver: MwisSolver,
        /// Successor fan-out kept during graph construction.
        max_successors: usize,
    },
}

impl SchedulerKind {
    /// The paper's five schedulers with their published configurations.
    pub fn paper_set() -> Vec<SchedulerKind> {
        vec![
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
        ]
    }

    /// Short display name matching the paper's legends.
    pub fn label(&self) -> &'static str {
        match self {
            SchedulerKind::Random => "random",
            SchedulerKind::Static => "static",
            SchedulerKind::Heuristic(_) => "heuristic",
            SchedulerKind::Wsc { .. } => "wsc",
            SchedulerKind::Mwis { .. } => "mwis",
        }
    }
}

/// One experiment: trace × placement × scheduler × power manager.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Placement parameters (disks, replication factor, Zipf z).
    pub placement: PlacementConfig,
    /// The scheduler under test.
    pub scheduler: SchedulerKind,
    /// System parameters (power model, geometry, policy).
    pub system: SystemConfig,
    /// Seed for placement and scheduler randomness.
    pub seed: u64,
}

impl ExperimentSpec {
    /// The paper's default rig: 180 Cheetah-class disks under 2CPM,
    /// replication 3, Zipf z = 1 placement.
    pub fn paper_defaults(scheduler: SchedulerKind) -> Self {
        ExperimentSpec {
            placement: PlacementConfig::default(),
            scheduler,
            system: SystemConfig::default(),
            seed: 42,
        }
    }
}

/// Converts a trace into the scheduler's request stream: reads only
/// (write off-loading, §2.1), rebased to t = 0, data ids densified, and
/// indexed in stream order.
pub fn requests_from_trace(trace: &Trace) -> Vec<Request> {
    let trace = trace.reads_only().rebased().densified();
    trace
        .records()
        .iter()
        .enumerate()
        .map(|(i, r)| Request {
            index: i as u32,
            at: r.at,
            data: r.data,
            size: r.size,
        })
        .collect()
}

/// Number of distinct data items in a request stream (dense id space).
pub fn data_space(requests: &[Request]) -> usize {
    requests
        .iter()
        .map(|r| r.data.0 as usize + 1)
        .max()
        .unwrap_or(0)
}

/// Pass-one summary of a trace stream: the compact state (O(distinct
/// data), never O(records)) that [`StreamScan::requests`] needs to turn
/// a second pass over the same records into the scheduler's request
/// stream without materializing a [`Trace`].
///
/// The two-pass pair is the streaming equivalent of
/// [`requests_from_trace`]: reads only, rebased to the first read,
/// densified over read ids — differential tests pin the outputs
/// identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamScan {
    /// Sorted distinct data ids of the read records; a dense id is the
    /// rank in this table (matching [`Trace::densified`]'s ascending
    /// remap).
    ids: Vec<u64>,
    /// Number of read records seen.
    reads: usize,
    /// Timestamp of the first read record — the rebase anchor.
    anchor: SimTime,
    /// Timestamp of the last read record.
    end: SimTime,
}

impl StreamScan {
    /// Number of read records the scan saw (= requests pass two yields).
    pub fn reads(&self) -> usize {
        self.reads
    }

    /// Size of the dense data-id space (distinct read ids).
    pub fn data_space(&self) -> usize {
        self.ids.len()
    }

    /// Rebased span of the read stream, seconds (= the last request's
    /// arrival time after pass two).
    pub fn span_s(&self) -> f64 {
        self.end.saturating_since(self.anchor).as_secs_f64()
    }

    /// Adapts a second pass over the same records into a request source
    /// for [`crate::system::run_system_streamed_with_jobs`]. `stream` must
    /// replay the records of the scanned pass in the same (time-sorted)
    /// order — re-open the file, re-seed the generator.
    pub fn requests<S>(self, stream: S) -> StreamRequests<S> {
        let dense_lut = self.build_lut();
        StreamRequests {
            inner: stream,
            scan: self,
            dense_lut,
            next_index: 0,
        }
    }

    /// Builds a direct-index raw-id → rank table when the raw id space
    /// is compact enough (at most a small constant factor larger than
    /// the distinct-id count). Returns an empty table — meaning "use
    /// binary search" — for sparse id spaces, so memory stays O(distinct
    /// data) in the worst case.
    fn build_lut(&self) -> Vec<u32> {
        const ABSENT: u32 = u32::MAX;
        let Some(&max) = self.ids.last() else {
            return Vec::new();
        };
        if self.ids.len() >= ABSENT as usize || max >= (self.ids.len() * 4 + 1024) as u64 {
            return Vec::new();
        }
        let mut lut = vec![ABSENT; max as usize + 1];
        for (rank, &id) in self.ids.iter().enumerate() {
            lut[id as usize] = rank as u32;
        }
        lut
    }
}

/// First pass: folds a record stream down to its [`StreamScan`] summary.
/// Fails with the stream's first error.
pub fn scan_stream<E>(
    stream: impl Iterator<Item = Result<TraceRecord, E>>,
) -> Result<StreamScan, E> {
    let mut ids: HashSet<u64> = HashSet::new();
    let mut reads = 0usize;
    let mut anchor: Option<SimTime> = None;
    let mut end = SimTime::ZERO;
    for record in stream {
        let r = record?;
        if r.op != OpKind::Read {
            continue;
        }
        reads += 1;
        anchor.get_or_insert(r.at);
        end = end.max(r.at);
        ids.insert(r.data.0);
    }
    let mut ids: Vec<u64> = ids.into_iter().collect();
    ids.sort_unstable();
    Ok(StreamScan {
        ids,
        reads,
        anchor: anchor.unwrap_or(SimTime::ZERO),
        end,
    })
}

/// Second pass: lazily maps trace records to [`Request`]s (reads only,
/// rebased, dense ids, stream-order indices) using a prior
/// [`StreamScan`]. Yields [`SourceError`]s for upstream failures or
/// records whose data id the scan never saw (a divergent replay).
#[derive(Debug)]
pub struct StreamRequests<S> {
    inner: S,
    scan: StreamScan,
    /// Raw id → dense rank, `u32::MAX` = absent; empty when the id
    /// space is too sparse (then `scan.ids` is binary-searched instead).
    dense_lut: Vec<u32>,
    next_index: u32,
}

impl<S, E> Iterator for StreamRequests<S>
where
    S: Iterator<Item = Result<TraceRecord, E>>,
    E: std::fmt::Display,
{
    type Item = Result<Request, SourceError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let r = match self.inner.next()? {
                Ok(r) => r,
                Err(e) => return Some(Err(SourceError::new(e.to_string()))),
            };
            if r.op != OpKind::Read {
                continue;
            }
            let rank = if self.dense_lut.is_empty() {
                self.scan.ids.binary_search(&r.data.0).ok()
            } else {
                self.dense_lut
                    .get(r.data.0 as usize)
                    .copied()
                    .filter(|&rank| rank != u32::MAX)
                    .map(|rank| rank as usize)
            };
            let dense = match rank {
                Some(rank) => rank as u64,
                None => {
                    return Some(Err(SourceError::new(format!(
                        "data id {} absent from the scan pass (replay diverged)",
                        r.data.0
                    ))))
                }
            };
            let index = self.next_index;
            self.next_index += 1;
            return Some(Ok(Request {
                index,
                at: SimTime::ZERO + r.at.saturating_since(self.scan.anchor),
                data: DataId(dense),
                size: r.size,
            }));
        }
    }
}

/// Builds the event-loop scheduler for `kind`, or `None` for the
/// offline MWIS plan (which never runs through the simulator — use
/// [`run_experiment`], or [`MwisPlanner::plan`] and
/// [`crate::offline::evaluate_offline`], instead).
pub fn build_scheduler(kind: &SchedulerKind, seed: u64) -> Option<Box<dyn Scheduler>> {
    match kind {
        SchedulerKind::Random => Some(Box::new(RandomScheduler::new(seed))),
        SchedulerKind::Static => Some(Box::new(StaticScheduler)),
        SchedulerKind::Heuristic(cost) => Some(Box::new(HeuristicScheduler::new(*cost))),
        SchedulerKind::Wsc { cost, interval } => {
            Some(Box::new(WscScheduler::new(*cost, *interval)))
        }
        SchedulerKind::Mwis { .. } => None,
    }
}

/// Runs one experiment end to end over `jobs` workers.
///
/// Online and batch schedulers run through the event-driven simulator
/// ([`run_system_streamed_with_jobs`], one event loop per replica island);
/// the MWIS scheduler is planned over the full stream
/// ([`MwisPlanner::plan`]) and evaluated with the analytic offline model
/// (advance spin-up, no spin-up delays), as in the paper (§4.3:
/// "configured to an offline model with no disk spin-up delay"). The plan
/// returns, freeing its conflict graph, before the evaluation starts.
/// Every substrate is bit-identical for any thread count, so the returned
/// metrics do not depend on `jobs`.
///
/// # Panics
///
/// Panics if `requests` is not sorted by time (on the MWIS path, in debug
/// builds only).
pub fn run_experiment(requests: &[Request], spec: &ExperimentSpec, jobs: usize) -> RunMetrics {
    let placement = PlacementMap::build(data_space(requests), &spec.placement, spec.seed);
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
            let (assignment, _) = planner.plan(requests, &placement);
            let mechanics = Mechanics::new(
                spec.system.geometry.clone(),
                SimRng::seed_from_u64(spec.seed),
            );
            evaluate_offline_with_jobs(
                requests,
                &assignment,
                spec.placement.disks,
                &spec.system.power,
                None,
                Some(&mechanics),
                jobs,
            )
        }
        online_or_batch => {
            let config = SystemConfig {
                disks: spec.placement.disks,
                seed: spec.seed,
                ..spec.system.clone()
            };
            run_system_streamed_with_jobs(
                &mut slice_source(requests),
                &placement,
                &|| {
                    build_scheduler(online_or_batch, spec.seed)
                        .expect("non-MWIS kinds build an event-loop scheduler")
                },
                &config,
                jobs,
            )
            .expect("run_experiment takes a time-sorted slice")
        }
    }
}

/// Convenience: run the always-on baseline (Static scheduler, always-on
/// power) — the paper's normalization reference configuration — on
/// `jobs` workers, like [`run_experiment`].
pub fn run_always_on_baseline(
    requests: &[Request],
    spec: &ExperimentSpec,
    jobs: usize,
) -> RunMetrics {
    let mut spec = spec.clone();
    spec.scheduler = SchedulerKind::Static;
    spec.system.policy = PolicyKind::AlwaysOn;
    run_experiment(requests, &spec, jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spindown_trace::synth::{CelloLike, TraceGenerator};

    fn small_trace() -> Vec<Request> {
        let trace = CelloLike {
            requests: 1_500,
            data_items: 600,
            ..CelloLike::default()
        }
        .generate(7);
        requests_from_trace(&trace)
    }

    fn small_spec(scheduler: SchedulerKind, replication: u32) -> ExperimentSpec {
        ExperimentSpec {
            placement: PlacementConfig {
                disks: 24,
                replication,
                zipf_z: 1.0,
            },
            scheduler,
            system: SystemConfig {
                disks: 24,
                ..SystemConfig::default()
            },
            seed: 11,
        }
    }

    #[test]
    fn requests_from_trace_is_dense_sorted_indexed() {
        let reqs = small_trace();
        assert_eq!(reqs.len(), 1_500);
        assert!(reqs.windows(2).all(|w| w[0].at <= w[1].at));
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.index as usize, i);
        }
        assert!(data_space(&reqs) <= 600);
    }

    #[test]
    fn all_paper_schedulers_run() {
        let reqs = small_trace();
        for kind in SchedulerKind::paper_set() {
            let label = kind.label();
            let m = run_experiment(&reqs, &small_spec(kind, 3), 1);
            assert_eq!(m.requests, 1_500, "{label}");
            assert!(m.energy_j > 0.0, "{label}");
            assert!(
                m.normalized_energy() < 1.05,
                "{label}: {}",
                m.normalized_energy()
            );
        }
    }

    #[test]
    fn energy_aware_beats_baselines_at_rf3() {
        // A sparse workload (trace span >> breakeven time) so spin-down
        // dynamics dominate, with energy-focused cost functions — the
        // regime where the paper's energy ordering is unambiguous.
        use spindown_trace::synth::arrivals::OnOffProcess;
        let trace = CelloLike {
            requests: 4_000,
            data_items: 800,
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
        .generate(3);
        let reqs = requests_from_trace(&trace);
        let run = |k| run_experiment(&reqs, &small_spec(k, 3), 1).normalized_energy();
        let random = run(SchedulerKind::Random);
        let static_ = run(SchedulerKind::Static);
        let heuristic = run(SchedulerKind::Heuristic(CostFunction::energy_only()));
        let wsc = run(SchedulerKind::Wsc {
            cost: CostFunction::energy_only(),
            interval: SimDuration::from_millis(100),
        });
        let mwis = run(SchedulerKind::Mwis {
            solver: MwisSolver::GwMin,
            max_successors: 3,
        });
        assert!(
            heuristic < random && heuristic < static_,
            "heuristic {heuristic} vs random {random} / static {static_}"
        );
        assert!(
            wsc <= heuristic + 0.05,
            "wsc {wsc} vs heuristic {heuristic}"
        );
        // Greedy-solved MWIS is not strictly dominant on every workload
        // (the paper's clear win shows up at figure scale); it must at
        // least be competitive with the online schedulers and beat the
        // non-energy-aware baselines.
        assert!(
            mwis < static_ && mwis < random,
            "mwis {mwis} vs static {static_} / random {random}"
        );
        assert!(
            mwis <= heuristic + 0.02,
            "mwis {mwis} vs heuristic {heuristic}"
        );
    }

    #[test]
    fn rf1_makes_all_online_schedulers_identical() {
        let reqs = small_trace();
        let energies: Vec<f64> = [
            SchedulerKind::Random,
            SchedulerKind::Static,
            SchedulerKind::Heuristic(CostFunction::default()),
        ]
        .into_iter()
        .map(|k| run_experiment(&reqs, &small_spec(k, 1), 1).energy_j)
        .collect();
        assert!(
            (energies[0] - energies[1]).abs() < 1e-6,
            "random {} vs static {}",
            energies[0],
            energies[1]
        );
        assert!((energies[1] - energies[2]).abs() < 1e-6);
    }

    #[test]
    fn always_on_baseline_is_normalized_one() {
        let reqs = small_trace();
        let m = run_always_on_baseline(&reqs, &small_spec(SchedulerKind::Static, 3), 1);
        assert!(
            (m.normalized_energy() - 1.0).abs() < 0.02,
            "normalized {}",
            m.normalized_energy()
        );
    }

    #[test]
    fn experiments_are_deterministic() {
        let reqs = small_trace();
        let spec = small_spec(SchedulerKind::Heuristic(CostFunction::default()), 3);
        let a = run_experiment(&reqs, &spec, 1);
        let b = run_experiment(&reqs, &spec, 1);
        assert_eq!(a.energy_j, b.energy_j);
        assert_eq!(a.spinups, b.spinups);
    }

    #[test]
    fn labels_are_stable() {
        for (k, label) in SchedulerKind::paper_set().into_iter().zip([
            "random",
            "static",
            "heuristic",
            "wsc",
            "mwis",
        ]) {
            assert_eq!(k.label(), label);
        }
    }
}
