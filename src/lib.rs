//! # spindown
//!
//! A production-quality Rust reproduction of *"Exploiting Replication for
//! Energy-Aware Scheduling in Disk Storage Systems"* (Jerry Chou, Jinoh
//! Kim, Doron Rotem — ICDCS 2011).
//!
//! Large storage systems keep thousands of disks spinning; a disk in
//! standby draws roughly a tenth of its idle power, but can only be spun
//! down when it sees no requests for longer than the breakeven time. The
//! paper's idea: file systems already replicate every block for fault
//! tolerance, so the *scheduler* can steer each read to whichever replica
//! keeps the fewest disks awake — no data migration, no placement changes.
//!
//! This workspace implements the complete system, from the discrete-event
//! simulator up to the figure-regeneration harness:
//!
//! * [`sim`] *(crate `spindown-sim`)* — deterministic event kernel, PRNG,
//!   distributions, statistics;
//! * [`disk`] *(crate `spindown-disk`)* — disk mechanics, the five-state
//!   power machine, 2CPM power management, energy metering;
//! * [`graph`] *(crate `spindown-graph`)* — maximum-weight independent set
//!   and weighted set cover solvers;
//! * [`trace`] *(crate `spindown-trace`)* — trace parsers (SPC, SRT) and
//!   Cello/Financial1-like synthetic workload generators;
//! * [`core`] *(crate `spindown-core`)* — placement, the Eq. 3/5/6/7 cost
//!   model, the five schedulers, the system simulator, the offline
//!   evaluator and the experiment runner.
//!
//! ## Quick start
//!
//! ```
//! use spindown::prelude::*;
//!
//! // A bursty, Zipf-skewed workload (Cello-like), 16 disks, replication 3.
//! let trace = CelloLike { requests: 800, data_items: 300, ..CelloLike::default() }.generate(1);
//! let requests = requests_from_trace(&trace);
//! let spec = ExperimentSpec {
//!     placement: PlacementConfig { disks: 16, replication: 3, zipf_z: 1.0 },
//!     scheduler: SchedulerKind::Heuristic(CostFunction::default()),
//!     system: SystemConfig { disks: 16, ..SystemConfig::default() },
//!     seed: 7,
//! };
//! // The last argument is the worker count; the metrics do not depend on it.
//! let energy_aware = run_experiment(&requests, &spec, 2);
//! let baseline = run_experiment(&requests, &ExperimentSpec {
//!     scheduler: SchedulerKind::Static,
//!     ..spec.clone()
//! }, 1);
//! assert!(energy_aware.energy_j > 0.0 && baseline.energy_j > 0.0);
//! ```
//!
//! See the `examples/` directory for runnable scenarios and the
//! `spindown-bench` crate for the per-figure reproduction harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use spindown_core as core;
pub use spindown_disk as disk;
pub use spindown_graph as graph;
pub use spindown_sim as sim;
pub use spindown_trace as trace;

/// One-stop imports for the common experiment workflow.
pub mod prelude {
    pub use spindown_core::cost::CostFunction;
    pub use spindown_core::experiment::{
        requests_from_trace, run_always_on_baseline, run_experiment, ExperimentSpec, SchedulerKind,
    };
    pub use spindown_core::metrics::RunMetrics;
    pub use spindown_core::model::{Assignment, DataId, DiskId, Request};
    pub use spindown_core::placement::{PlacementConfig, PlacementMap};
    pub use spindown_core::sched::MwisSolver;
    pub use spindown_core::system::{PolicyKind, SystemConfig};
    pub use spindown_disk::power::PowerParams;
    pub use spindown_sim::time::{SimDuration, SimTime};
    pub use spindown_trace::synth::{CelloLike, FinancialLike, TraceGenerator};
}
