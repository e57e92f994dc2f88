//! Regenerates the paper's tables and figures as plain-text reports.
//!
//! ```text
//! figures [--quick] [--seed N] [--jobs N] [--out DIR] <fig2|...|fig17|ablations|all>
//! ```
//!
//! Reports are printed to stdout and written under `results/` (or the
//! directory given by `--out`).

use std::io::Write;
use std::path::PathBuf;

use spindown_bench::figures::{
    ablation_batch_interval, ablation_discipline, ablation_mwis, ablation_threshold, Harness,
};
use spindown_bench::workload::Scale;

fn main() {
    let mut quick = false;
    let mut seed = 42u64;
    let mut jobs = 1usize;
    let mut out_dir = PathBuf::from("results");
    let mut targets: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--jobs" | "-j" => {
                jobs = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&j| j >= 1)
                    .unwrap_or_else(|| die("--jobs needs a positive integer"));
            }
            "--out" => {
                out_dir = PathBuf::from(args.next().unwrap_or_else(|| die("--out needs a path")));
            }
            "--help" | "-h" => {
                print_help();
                return;
            }
            other if other.starts_with('-') => die(&format!("unknown flag {other}")),
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() {
        print_help();
        std::process::exit(2);
    }

    let scale = if quick {
        Scale::quick()
    } else {
        Scale::paper()
    };
    eprintln!(
        "# scale: {} requests, {} data items, {} disks (seed {seed}, jobs {jobs})",
        scale.requests, scale.data_items, scale.disks
    );
    let harness = Harness::new(scale, seed, jobs);

    let mut ids: Vec<String> = Vec::new();
    for t in targets {
        match t.as_str() {
            "all" => {
                ids.extend(Harness::all_ids().iter().map(|s| s.to_string()));
                ids.push("ablations".into());
            }
            other => ids.push(other.to_string()),
        }
    }

    std::fs::create_dir_all(&out_dir).unwrap_or_else(|e| die(&format!("mkdir: {e}")));
    for id in ids {
        let started = std::time::Instant::now();
        let report = match id.as_str() {
            "ablation-threshold" => ablation_threshold(&harness),
            "ablations" => format!(
                "{}\n{}\n{}\n{}",
                ablation_mwis(&harness),
                ablation_batch_interval(&harness),
                ablation_discipline(&harness),
                ablation_threshold(&harness)
            ),
            fig => harness
                .generate(fig)
                .unwrap_or_else(|| die(&format!("unknown figure id {fig:?} (try fig2..fig17)"))),
        };
        println!("{report}");
        println!("# ({id} generated in {:.1?})\n", started.elapsed());
        let path = out_dir.join(format!("{id}.txt"));
        let mut f =
            std::fs::File::create(&path).unwrap_or_else(|e| die(&format!("create {path:?}: {e}")));
        f.write_all(report.as_bytes())
            .unwrap_or_else(|e| die(&format!("write {path:?}: {e}")));
    }
}

fn print_help() {
    eprintln!(
        "usage: figures [--quick] [--seed N] [--jobs N] [--out DIR] <targets...>\n\
         targets: table1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11\n\
         \t fig12 fig13 fig14 fig15 fig16 fig17 ablations all"
    );
}

fn die(msg: &str) -> ! {
    eprintln!("figures: {msg}");
    std::process::exit(2);
}
