//! # spindown-trace
//!
//! Workload substrate for the ICDCS 2011 reproduction: the paper evaluates
//! on the HP **Cello** and UMass **Financial1** block traces, which are not
//! redistributable. This crate provides
//!
//! * [`record`] — the trace model ([`record::Trace`],
//!   [`record::TraceRecord`], [`record::DataId`]); one data item per unique
//!   (device, block) pair, exactly as the paper defines it (§4.1);
//! * [`spc`] — parser for the SPC CSV format (Financial1's format), so the
//!   real trace drops in when available;
//! * [`srt`] — parser for textual HP SRT-style records (Cello's family);
//! * [`synth`] — deterministic generators that reproduce the traces'
//!   load-bearing statistics: [`synth::CelloLike`] (bursty Pareto-ON/OFF
//!   arrivals, Zipf popularity) and [`synth::FinancialLike`] (smooth OLTP
//!   Poisson arrivals);
//! * [`stats`] — [`stats::TraceStats`] to verify those statistics
//!   (inter-arrival CV, dispersion, popularity skew, fitted Zipf z);
//! * [`transform`] — merge / window / rescale utilities for preparing
//!   real traces (each available as a lazy stream adapter too);
//! * [`stream`] — the pull-based [`stream::RecordStream`] pipeline:
//!   incremental parsers, lazy adapters and policies that let multi-GB
//!   traces flow to the simulator in constant memory;
//! * [`ranges`] — line-aligned byte ranges of one file, each read by
//!   its own parser stream, for passes that parse on several threads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lines;
pub mod ranges;
pub mod record;
pub mod spc;
pub mod split;
pub mod srt;
pub mod stats;
pub mod stream;
pub mod synth;
pub mod transform;

pub use record::{DataId, OpKind, Trace, TraceRecord};
pub use split::StreamSplitter;
pub use stats::TraceStats;
pub use stream::{ErasedStream, ParsePolicy, RecordStream, SkipCount, StreamError};
pub use synth::{CelloLike, FinancialLike, TraceGenerator};
