//! `spindown-cli` binary entry point.

use std::io::Write;

// With `--features bench-alloc`, every heap acquisition in the process
// goes through the counting allocator so the bench harness can report
// `allocs_per_solve` (see `spindown_alloctrack`). Off by default: the
// plain `System` allocator serves the production binary.
#[cfg(feature = "bench-alloc")]
#[global_allocator]
static ALLOC: spindown_alloctrack::CountingAlloc = spindown_alloctrack::CountingAlloc;

/// Runs the command into a buffer, then prints it: a report or the help
/// text (exit code 0) on standard output, an error and any usage text
/// (non-zero exit code) on standard error.
fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut text = Vec::new();
    let code = spindown_cli::run(&argv, &mut text);
    // `process::exit` flushes standard output; standard error is unbuffered.
    let _ = if code == 0 {
        std::io::stdout().write_all(&text)
    } else {
        std::io::stderr().write_all(&text)
    };
    std::process::exit(code);
}
