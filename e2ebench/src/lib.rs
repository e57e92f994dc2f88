//! End-to-end trace-replay benchmark for `spindown-cli simulate`.
//!
//! The runner ([`runner::run`]) renders a workload's SPC trace from a
//! seed, replays it through the CLI's own entry point in fresh processes
//! for the requested time, checks every report against a reference run's
//! metrics and accounting identities, and prints the end-to-end metrics.
//! With `--trace 1` it instead runs the pipeline rebuilt from public
//! calls ([`pipeline`]) with each layer timed from outside, and prints
//! the per-layer metrics. See `METRICS.md` beside this crate.

pub mod checks;
pub mod child;
pub mod pipeline;
pub mod probe;
pub mod render;
pub mod runner;
pub mod workload;
