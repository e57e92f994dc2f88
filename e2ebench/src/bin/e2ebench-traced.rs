//! `e2ebench-traced`: one traced pipeline run. Every heap acquisition
//! goes through the counting allocator so scheduler calls can report
//! their allocations.

use std::process::ExitCode;

use e2ebench::child::{self, ChildArgs};

#[global_allocator]
static ALLOC: spindown_alloctrack::CountingAlloc = spindown_alloctrack::CountingAlloc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    child::exit_with(ChildArgs::parse(&args).and_then(|a| child::pipeline_run(&a, true)))
}
