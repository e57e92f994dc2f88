//! # spindown-sim
//!
//! Deterministic discrete-event-simulation kernel for the `spindown`
//! workspace — the substrate that replaces OMNeT++ in the reproduction of
//! *"Exploiting Replication for Energy-Aware Scheduling in Disk Storage
//! Systems"* (Chou, Kim, Rotem — ICDCS 2011).
//!
//! The crate provides four building blocks:
//!
//! * [`time`] — integer-microsecond [`time::SimTime`] / [`time::SimDuration`]
//!   clock types (no float drift, total ordering),
//! * [`event`] — a stable-FIFO [`event::EventQueue`],
//! * [`rng`] — a self-contained xoshiro256\*\* PRNG plus the distributions
//!   the workload generators need (exponential, Pareto, log-normal, Zipf,
//!   alias tables),
//! * [`stats`] — streaming statistics: Welford accumulators, a log-bucketed
//!   latency histogram (paper Fig. 12/13), and per-state time accounting
//!   (paper Fig. 9/17),
//! * [`pool`] — a deterministic scoped-thread worker pool
//!   ([`pool::map_indexed`], [`pool::Parallelism`]) shared by every
//!   parallel substrate in the workspace.
//!
//! The simulation kernel itself is single-threaded by design: event-order
//! determinism is what makes the paper's figures exactly reproducible.
//! Parallelism lives strictly *around* it — independent grid cells,
//! per-disk offline evaluation, replica islands — and
//! the pool's index-addressed result slots keep every parallel output
//! bit-identical to the serial one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod pool;
pub mod rng;
pub mod stats;
pub mod time;

pub use event::{EventQueue, Scheduled};
pub use pool::Parallelism;
pub use rng::{AliasTable, SimRng, Zipf};
pub use stats::{LatencyHistogram, OnlineStats, StateTimer};
pub use time::{SimDuration, SimTime};
