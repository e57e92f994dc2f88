//! # spindown-core
//!
//! The paper's contribution: energy-aware scheduling of read requests onto
//! existing data replicas so that as many disks as possible can be spun
//! down by a fixed-threshold (2CPM) power manager.
//!
//! Reproduces *"Exploiting Replication for Energy-Aware Scheduling in Disk
//! Storage Systems"* (Chou, Kim, Rotem — ICDCS 2011):
//!
//! * [`model`] — requests, disk ids, assignments (paper Table 1);
//! * [`placement`] — the experimental placement: Zipf originals + uniform
//!   replicas (§4.2);
//! * [`saving`] — Lemma 1 / Eq. 3 per-request energy savings;
//! * [`cost`] — Eq. 5/6/7 scheduling costs;
//! * [`sched`] — the five schedulers: Random, Static, Heuristic (online,
//!   §3.3), WSC (batch, §3.2), MWIS (offline, §3.1);
//! * [`system`] — the event-driven storage-system simulator;
//! * [`offline`] — the analytic offline-model evaluator + brute-force
//!   optimality oracle;
//! * [`refine`] — offline-assignment hill climbing (extension beyond the
//!   paper);
//! * [`metrics`] — everything the evaluation section plots;
//! * [`experiment`] — one-call experiment runner used by the figure
//!   harness;
//! * [`npc`] — the Theorem 3 reduction from maximum independent set;
//! * [`offload`] — write off-loading (the §2.1 assumption, implemented);
//! * [`paper_example`] — the paper's Figs. 2–4 running example as a
//!   shared fixture.
//!
//! ## Quick start
//!
//! ```
//! use spindown_core::experiment::{
//!     requests_from_trace, run_experiment, ExperimentSpec, SchedulerKind,
//! };
//! use spindown_core::placement::PlacementConfig;
//! use spindown_core::system::SystemConfig;
//! use spindown_trace::synth::{CelloLike, TraceGenerator};
//!
//! let trace = CelloLike { requests: 500, data_items: 200, ..CelloLike::default() }.generate(1);
//! let requests = requests_from_trace(&trace);
//! let spec = ExperimentSpec {
//!     placement: PlacementConfig { disks: 16, replication: 3, zipf_z: 1.0 },
//!     scheduler: SchedulerKind::Heuristic(Default::default()),
//!     system: SystemConfig { disks: 16, ..Default::default() },
//!     seed: 1,
//! };
//! // Two workers; the metrics are the same for any worker count.
//! let metrics = run_experiment(&requests, &spec, 2);
//! assert!(metrics.normalized_energy() <= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod experiment;
pub mod metrics;
pub mod model;
pub mod npc;
pub mod offline;
pub mod offload;
pub mod paper_example;
pub mod placement;
pub mod refine;
pub mod saving;
pub mod sched;
pub mod system;

pub use experiment::{
    build_scheduler, requests_from_trace, run_experiment, scan_stream, ExperimentSpec,
    SchedulerKind, StreamRequests, StreamScan,
};
pub use metrics::{merge_islands, DiskSummary, IslandPart, RunMetrics};
pub use model::{Assignment, DataId, DiskId, Request};
pub use placement::{IslandPartition, PlacementConfig, PlacementMap};
pub use system::{
    run_system_streamed, run_system_streamed_with_jobs, slice_source, PolicyKind, RequestSource,
    SourceError, SystemConfig,
};
