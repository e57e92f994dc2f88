//! # spindown-cli
//!
//! Command-line driver for the `spindown` storage-system simulator: load a
//! block trace (SPC/SRT) or generate a synthetic one, run it through an
//! energy-aware scheduler, and report energy and response-time metrics.
//!
//! ```text
//! spindown-cli simulate --synthetic cello --requests 8000 --disks 60 \
//!     --replication 3 --scheduler wsc
//! spindown-cli simulate --trace financial1.spc --scheduler heuristic --alpha 0.2
//! spindown-cli compare --synthetic cello --requests 8000 --disks 60
//! spindown-cli stats --trace cello.srt
//! spindown-cli bench --iters 5 --jobs 4        # micro-benchmarks -> BENCH_core.json
//! ```
//!
//! The binary is a thin wrapper over [`run`]; everything is testable as a
//! library.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;

pub use args::{Cli, Command, ParseError, SchedulerArg, SourceArg};

/// Parses `argv` and executes the selected command, writing the report,
/// the help text or an `error: ...` line to `out`. Returns the process
/// exit code; the binary prints `out` on standard output when the code is
/// 0 and on standard error otherwise.
pub fn run(argv: &[String], out: &mut dyn std::io::Write) -> i32 {
    match args::Cli::parse(argv) {
        Ok(cli) => match commands::execute(&cli) {
            Ok(report) => {
                let _ = writeln!(out, "{report}");
                0
            }
            Err(e) => {
                let _ = writeln!(out, "error: {e}");
                1
            }
        },
        Err(ParseError::HelpRequested) => {
            let _ = writeln!(out, "{}", args::USAGE);
            0
        }
        Err(e) => {
            let _ = writeln!(out, "error: {e}\n\n{}", args::USAGE);
            2
        }
    }
}
