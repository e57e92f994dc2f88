//! The processes the runner starts, one per timed run, and the `key value`
//! text they print back to it.
//!
//! * `e2ebench cli-run`: the untraced end-to-end run. Times the whole
//!   `spindown-cli simulate` command through the CLI's own entry point,
//!   and reports the process's peak RSS.
//! * `e2ebench setup`: the set-up stages of the rebuilt pipeline alone,
//!   untraced, each timed.
//! * `e2ebench pipeline` / `e2ebench-traced`: the rebuilt pipeline,
//!   untraced (system allocator) or traced (counting allocator, timed
//!   source and schedulers). The traced run also times a parse-only pass.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use spindown_cli::Cli;

use crate::checks::{identity_failures, Summary};
use crate::pipeline::{self, Layers};
use crate::probe::peak_rss_kib;
use crate::workload::Workload;

/// Arguments every child takes:
/// `--workload <name> --file <spc> --jobs <n> --reads <n>`.
#[derive(Debug, Clone)]
pub struct ChildArgs {
    /// The workload being replayed.
    pub workload: Workload,
    /// The rendered trace.
    pub file: PathBuf,
    /// Worker threads for the CLI.
    pub jobs: usize,
    /// Read lines the generator wrote into the file.
    pub reads: u64,
}

impl ChildArgs {
    /// Parses the flags above, in any order.
    pub fn parse(args: &[String]) -> Result<ChildArgs, String> {
        let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
        for pair in args.chunks(2) {
            match pair {
                [k, v] => flags.insert(k.as_str(), v.as_str()),
                _ => return Err(format!("flag {:?} has no value", pair[0])),
            };
        }
        let get = |k: &str| flags.get(k).copied().ok_or(format!("missing {k}"));
        Ok(ChildArgs {
            workload: Workload::from_name(get("--workload")?).ok_or("unknown workload")?,
            file: PathBuf::from(get("--file")?),
            jobs: get("--jobs")?.parse().map_err(|_| "bad --jobs")?,
            reads: get("--reads")?.parse().map_err(|_| "bad --reads")?,
        })
    }

    /// The flags [`ChildArgs::parse`] reads.
    pub fn to_args(&self) -> Vec<String> {
        let file = self.file.to_string_lossy().into_owned();
        let (jobs, reads) = (self.jobs.to_string(), self.reads.to_string());
        [
            "--workload",
            self.workload.name(),
            "--file",
            &file,
            "--jobs",
            &jobs,
            "--reads",
            &reads,
        ]
        .map(String::from)
        .to_vec()
    }

    fn argv(&self) -> Vec<String> {
        self.workload.cli_args(&self.file, self.jobs)
    }
}

/// `key value` lines read back from a child; report lines are kept apart.
#[derive(Debug, Default)]
pub struct Fields {
    values: BTreeMap<String, String>,
    /// Lines of the CLI report, in order.
    pub report: Vec<String>,
}

/// Prefix of a child's lines that carry the CLI report.
const REPORT: &str = "report|";

impl Fields {
    /// Parses a child's standard output.
    pub fn parse(text: &str) -> Fields {
        let mut f = Fields::default();
        for line in text.lines() {
            if let Some(r) = line.strip_prefix(REPORT) {
                f.report.push(r.to_string());
            } else if let Some((k, v)) = line.split_once(' ') {
                f.values.insert(k.to_string(), v.to_string());
            }
        }
        f
    }

    /// The value of `key`, parsed.
    pub fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let v = self
            .values
            .get(key)
            .ok_or(format!("child printed no {key}"))?;
        v.parse().map_err(|_| format!("child printed {key} {v:?}"))
    }
}

/// `e2ebench cli-run`: whole-command time, peak RSS, report.
pub fn cli_run(args: &ChildArgs) -> Result<String, String> {
    let argv = args.argv();
    let mut report = Vec::new();
    let t = Instant::now();
    let code = spindown_cli::run(&argv, &mut report);
    let wall_s = t.elapsed().as_secs_f64();
    let report = String::from_utf8(report).map_err(|e| e.to_string())?;
    if code != 0 {
        return Err(format!("spindown-cli exited {code}: {report}"));
    }
    let rss = peak_rss_kib().ok_or("no VmHWM in /proc/self/status")?;
    let mut out = format!("wall_s {wall_s}\npeak_rss_kib {rss}\n");
    for line in report.lines() {
        out.push_str(REPORT);
        out.push_str(line);
        out.push('\n');
    }
    Ok(out)
}

/// `e2ebench setup`: the set-up stage times.
pub fn setup_run(args: &ChildArgs) -> Result<String, String> {
    let cli = Cli::parse(&args.argv()).map_err(|e| e.to_string())?;
    Ok(layers_to_lines(&pipeline::setup(&cli, &args.file)?))
}

/// `e2ebench pipeline` and `e2ebench-traced`: one rebuilt-pipeline run,
/// its summary, its layer times and its identity checks.
pub fn pipeline_run(args: &ChildArgs, traced: bool) -> Result<String, String> {
    let argv = args.argv();
    let cli = Cli::parse(&argv).map_err(|e| e.to_string())?;
    let (lines, parse_s) = if traced {
        pipeline::parse_only(&args.file)?
    } else {
        (0, 0.0)
    };
    let outcome = pipeline::run(&cli, &args.file, traced)?;
    let idle_w = pipeline::spec_of(&cli).system.power.idle_w;
    let failures = identity_failures(&outcome.metrics, cli.disks, idle_w, args.reads);
    for f in &failures {
        eprintln!("identity failed: {f}");
    }
    let l = &outcome.layers;
    let mut out = Summary::of(&outcome.metrics).to_lines();
    out.push_str(&format!(
        "identity_failures {}\nparse_lines {lines}\nparse_s {parse_s}\n",
        failures.len()
    ));
    out.push_str(&layers_to_lines(l));
    Ok(out)
}

fn layers_to_lines(l: &Layers) -> String {
    format!(
        "scan_s {}\nsource_busy_s {}\nplacement_build_s {}\nislands {}\nsched_busy_s {}\n\
         sched_calls {}\nsched_requests {}\nsched_allocs {}\nreplay_s {}\nreplay_cpu_s {}\n\
         mwis_build_s {}\nmwis_solve_s {}\nmwis_derive_s {}\ngraph_nodes {}\ngraph_edges {}\n\
         selected {}\n",
        l.scan_s,
        l.source_busy_s,
        l.placement_build_s,
        l.islands,
        l.sched_busy_s,
        l.sched_calls,
        l.sched_requests,
        l.sched_allocs,
        l.replay_s,
        l.replay_cpu_s,
        l.mwis_build_s,
        l.mwis_solve_s,
        l.mwis_derive_s,
        l.graph_nodes,
        l.graph_edges,
        l.selected
    )
}

/// Reads back the lines [`pipeline_run`] prints about the layers.
pub fn layers_from(f: &Fields) -> Result<Layers, String> {
    Ok(Layers {
        scan_s: f.num("scan_s")?,
        source_busy_s: f.num("source_busy_s")?,
        placement_build_s: f.num("placement_build_s")?,
        islands: f.num("islands")?,
        sched_busy_s: f.num("sched_busy_s")?,
        sched_calls: f.num("sched_calls")?,
        sched_requests: f.num("sched_requests")?,
        sched_allocs: f.num("sched_allocs")?,
        replay_s: f.num("replay_s")?,
        replay_cpu_s: f.num("replay_cpu_s")?,
        mwis_build_s: f.num("mwis_build_s")?,
        mwis_solve_s: f.num("mwis_solve_s")?,
        mwis_derive_s: f.num("mwis_derive_s")?,
        graph_nodes: f.num("graph_nodes")?,
        graph_edges: f.num("graph_edges")?,
        selected: f.num("selected")?,
    })
}

/// Entry point shared by the two child binaries' pipeline mode: prints
/// the fields, or the error on standard error with exit code 1.
pub fn exit_with(result: Result<String, String>) -> std::process::ExitCode {
    match result {
        Ok(text) => {
            print!("{text}");
            std::process::ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn layers_round_trip_through_text() {
        let l = Layers {
            scan_s: 0.25,
            sched_calls: 7,
            replay_cpu_s: 1.0 / 3.0,
            ..Layers::default()
        };
        assert_eq!(
            layers_from(&Fields::parse(&layers_to_lines(&l))).unwrap(),
            l
        );
    }

    #[test]
    fn child_args_round_trip() {
        let a = ChildArgs {
            workload: Workload::BatchIslands,
            file: Path::new("x/y.spc").to_path_buf(),
            jobs: 2,
            reads: 9,
        };
        let b = ChildArgs::parse(&a.to_args()).unwrap();
        assert_eq!(
            (b.workload, b.file, b.jobs, b.reads),
            (a.workload, a.file, a.jobs, a.reads)
        );
        assert!(ChildArgs::parse(&["--workload".to_string()]).is_err());
    }
}
