//! `e2ebench`: the benchmark runner, and the untraced child runs it
//! starts. Uses the system allocator, as the shipped CLI does.

use std::process::ExitCode;

use e2ebench::child::{self, ChildArgs};
use e2ebench::runner::{self, RunArgs};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let child_args = |rest: &[String]| ChildArgs::parse(rest);
    match args.first().map(String::as_str) {
        Some("cli-run") => {
            child::exit_with(child_args(&args[1..]).and_then(|a| child::cli_run(&a)))
        }
        Some("setup") => {
            child::exit_with(child_args(&args[1..]).and_then(|a| child::setup_run(&a)))
        }
        Some("pipeline") => {
            child::exit_with(child_args(&args[1..]).and_then(|a| child::pipeline_run(&a, false)))
        }
        _ => match RunArgs::parse(&args) {
            Ok(a) => match runner::run(&a) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("e2ebench: {e}");
                    ExitCode::FAILURE
                }
            },
            Err(e) => {
                eprintln!("e2ebench: {e}\n{}", runner::USAGE);
                ExitCode::from(2)
            }
        },
    }
}
