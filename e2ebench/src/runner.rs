//! The benchmark command: renders the workload's trace from the seed,
//! runs timed child processes for the requested seconds, checks every
//! output and prints the metrics, the last line as one JSON object.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::checks::{report_mismatches, Summary};
use crate::child::{layers_from, ChildArgs, Fields};
use crate::pipeline::Layers;
use crate::render::{render, warm_page_cache, FileStats};
use crate::workload::Workload;

/// Parsed `--workload <name> --seed <n> --seconds <n> --trace <0|1>`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Workload to run.
    pub workload: Workload,
    /// Seed the trace is generated from.
    pub seed: u64,
    /// How long to measure.
    pub seconds: u64,
    /// Per-layer (traced) metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Usage text for a malformed invocation.
pub const USAGE: &str =
    "usage: e2ebench --workload <online-serial|batch-islands|offline-mwis> --seed <n> --seconds <n> --trace <0|1>";

impl RunArgs {
    /// Parses the benchmark's flags; every one is required, once.
    pub fn parse(args: &[String]) -> Result<RunArgs, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        for pair in args.chunks(2) {
            let [flag, value] = pair else {
                return Err(format!("flag {:?} has no value", pair[0]));
            };
            let slot_taken = match flag.as_str() {
                "--workload" => workload
                    .replace(
                        Workload::from_name(value).ok_or(format!("unknown workload {value:?}"))?,
                    )
                    .is_some(),
                "--seed" => seed
                    .replace(value.parse().map_err(|_| "bad --seed")?)
                    .is_some(),
                "--seconds" => seconds
                    .replace(
                        value
                            .parse()
                            .ok()
                            .filter(|&s: &u64| s > 0)
                            .ok_or("bad --seconds")?,
                    )
                    .is_some(),
                "--trace" => trace
                    .replace(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                    .is_some(),
                other => return Err(format!("unknown flag {other:?}")),
            };
            if slot_taken {
                return Err(format!("{flag} given twice"));
            }
        }
        Ok(RunArgs {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        })
    }
}

/// An end-to-end or per-layer metric as the runner prints it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// End-to-end metric names and units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("records_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("energy_pct", "%"),
    ("sim_response_mean_ms", "ms"),
    ("sim_response_p99_ms", "ms"),
    ("spin_cycles", "count"),
];

/// Per-layer metric names and units, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 19] = [
    ("trace.spc.parse_s", "s"),
    ("trace.spc.lines_per_s", "1/s"),
    ("core.experiment.scan_s", "s"),
    ("core.experiment.source_busy_s", "s"),
    ("core.placement.build_s", "s"),
    ("core.sched.busy_s", "s"),
    ("core.sched.calls", "count"),
    ("core.sched.requests_per_call", "count"),
    ("core.sched.allocs_per_call", "count"),
    ("graph.csr.nodes", "count"),
    ("graph.csr.edges", "count"),
    ("graph.mwis.selected", "count"),
    ("core.system.replay_s", "s"),
    ("core.system.replay_cpu_s", "s"),
    ("core.system.self_cpu_s", "s"),
    ("core.system.peak_events", "count"),
    ("core.system.peak_in_flight", "count"),
    ("trace.split.high_water", "count"),
    ("tracing.overhead_pct", "%"),
];

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Where the rendered trace lives: beside the build, inside the checkout.
fn data_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("executable has no build directory")?;
    Ok(target.join("e2ebench-data"))
}

/// Removes the rendered trace when the run ends, however it ends.
struct TraceFile(PathBuf);

impl Drop for TraceFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// One child process's output, or why it failed.
fn spawn(binary: &Path, mode: Option<&str>, args: &ChildArgs) -> Result<Fields, String> {
    let mut cmd = Command::new(binary);
    // A child's diagnostics (a failed identity, an error) reach our own
    // standard error; its standard output is the text we parse.
    cmd.args(mode).args(args.to_args()).stderr(Stdio::inherit());
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
    if !out.status.success() {
        return Err(format!(
            "{} {mode:?} exited with {}",
            binary.display(),
            out.status
        ));
    }
    Ok(Fields::parse(&String::from_utf8_lossy(&out.stdout)))
}

/// A traced or untraced pipeline child's result.
struct PipelineRun {
    summary: Summary,
    layers: Layers,
    parse: (u64, f64),
    identity_failures: u64,
}

fn pipeline_child(
    binary: &Path,
    mode: Option<&str>,
    args: &ChildArgs,
) -> Result<PipelineRun, String> {
    let f = spawn(binary, mode, args)?;
    Ok(PipelineRun {
        summary: Summary::from_fields(&f)?,
        layers: layers_from(&f)?,
        parse: (f.num("parse_lines")?, f.num("parse_s")?),
        identity_failures: f.num("identity_failures")?,
    })
}

/// Runs `op` back to back until the next run would overrun `budget`
/// (always at least once); returns how many ran.
fn measure(budget: Duration, mut op: impl FnMut()) -> u64 {
    let start = Instant::now();
    let mut runs = 0u64;
    loop {
        op();
        runs += 1;
        let spent = start.elapsed();
        if spent + spent / runs as u32 > budget {
            return runs;
        }
    }
}

/// Runs the benchmark; prints progress lines and then the JSON result.
pub fn run(args: &RunArgs) -> Result<(), String> {
    let w = args.workload;
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let jobs = w.jobs(host);
    let dir = data_dir()?;
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let trace = TraceFile(dir.join(format!(
        "{}-{}-{}.spc",
        w.name(),
        args.seed,
        std::process::id()
    )));

    let t = Instant::now();
    let stats = File::create(&trace.0)
        .and_then(|file| render(w.records(args.seed), file))
        .map_err(|e| format!("rendering {}: {e}", trace.0.display()))?;
    let FileStats {
        lines,
        bytes,
        reads,
        span_s,
    } = stats;
    println!("workload {} seed {}: {lines} lines, {bytes} bytes, {reads} reads over {span_s:.0} s, rendered in {:.2} s", w.name(), args.seed, t.elapsed().as_secs_f64());
    let warmed = warm_page_cache(&trace.0).map_err(|e| e.to_string())?;
    println!("page cache: warm, the file ({warmed} bytes) was read once before any timed run");
    println!("host available_parallelism {host}; spindown-cli --jobs {jobs}");

    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let traced_exe = exe.with_file_name("e2ebench-traced");
    let child = ChildArgs {
        workload: w,
        file: trace.0.clone(),
        jobs,
        reads,
    };
    let budget = Duration::from_secs(args.seconds);
    let mut failed = 0u64;
    let mut note = |ok: bool, what: &str| {
        if !ok {
            failed += 1;
            println!("FAILED: {what}");
        }
    };

    let (attempted, metrics) = if args.trace {
        // The CLI's own report is the reference every traced run is checked against.
        let reference = spawn(&exe, Some("cli-run"), &child)?.report.join("\n");
        let mut traced_runs = Vec::new();
        let mut plain_replay = Vec::new();
        let attempted = measure(budget, || {
            let run = pipeline_child(&traced_exe, None, &child);
            let plain = pipeline_child(&exe, Some("pipeline"), &child);
            match (run, plain) {
                (Ok(run), Ok(plain)) => {
                    let report = report_mismatches(&reference, &run.summary, reads);
                    for m in &report {
                        println!("report mismatch: {m}");
                    }
                    let same = run.summary.digest == plain.summary.digest;
                    note(
                        report.is_empty()
                            && same
                            && run.identity_failures == 0
                            && plain.identity_failures == 0,
                        "traced run: report, digest or identity check",
                    );
                    plain_replay.push(plain.layers.replay_s);
                    traced_runs.push(run);
                }
                (a, b) => {
                    let why = a.err().or(b.err()).unwrap_or_default();
                    note(false, &why);
                }
            }
        });
        if traced_runs.is_empty() {
            return Err("no traced run completed".into());
        }
        print_layer_table(w, &traced_runs, &plain_replay);
        (attempted, per_layer(w, &traced_runs, &plain_replay))
    } else {
        // A traced run gives the reference metrics and the model outputs.
        let reference = pipeline_child(&traced_exe, None, &child)?;
        let ref_ok = reference.identity_failures == 0;
        let (mut wall, mut setup, mut rss) = (Vec::new(), Vec::new(), Vec::new());
        // Each run is a set-up-only process, then the CLI command in a
        // process of its own, so its peak RSS and wall time are the CLI's.
        let attempted = measure(budget, || {
            let setup_s = spawn(&exe, Some("setup"), &child)
                .and_then(|f| layers_from(&f))
                .map(|l| l.setup_s(w.is_streamed()));
            let cli = spawn(&exe, Some("cli-run"), &child).and_then(|f| {
                let report = report_mismatches(&f.report.join("\n"), &reference.summary, reads);
                Ok((
                    f.num::<f64>("wall_s")?,
                    f.num::<f64>("peak_rss_kib")?,
                    report,
                ))
            });
            match (setup_s, cli) {
                (Ok(setup_s), Ok((wall_s, rss_kib, report))) => {
                    for m in &report {
                        println!("report mismatch: {m}");
                    }
                    note(
                        ref_ok && report.is_empty(),
                        "CLI report or reference identity check",
                    );
                    wall.push(wall_s);
                    setup.push(setup_s);
                    rss.push(rss_kib / 1024.0);
                }
                (a, b) => note(false, &a.err().or(b.err()).unwrap_or_default()),
            }
        });
        if wall.is_empty() {
            return Err("no untraced run completed".into());
        }
        let runs = wall.len();
        let s = &reference.summary;
        println!("timed runs: {runs} (fresh processes each); host timings are medians over them");
        println!("wall_s per run: {}", list(&wall));
        println!("setup_s per run: {}", list(&setup));
        let values = [
            lines as f64 / median(&wall),
            median(&setup),
            median(&rss),
            s.normalized * 100.0,
            s.response_mean_s * 1000.0,
            s.response_p99_s * 1000.0,
            s.spin_cycles as f64,
        ];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, unit, value })
            .collect();
        (attempted, metrics)
    };
    for m in &metrics {
        println!("{:<32} {:>18} {}", m.name, m.value, m.unit);
    }
    let all_finite = metrics.iter().all(|m| m.value.is_finite());
    println!(
        "{}",
        result_json(failed == 0 && all_finite, attempted, failed, &metrics)
    );
    Ok(())
}

fn list(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{v:.4}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Per-layer metrics: medians over the traced runs.
fn per_layer(w: Workload, runs: &[PipelineRun], plain_replay: &[f64]) -> Vec<Metric> {
    let streamed = w.is_streamed();
    let med = |f: &dyn Fn(&PipelineRun) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let values = [
        med(&|r| r.parse.1),
        med(&|r| r.parse.0 as f64 / r.parse.1),
        med(&|r| r.layers.scan_s),
        med(&|r| r.layers.source_busy_s),
        med(&|r| r.layers.placement_build_s),
        med(&|r| r.layers.sched_busy_s),
        med(&|r| r.layers.sched_calls as f64),
        med(&|r| r.layers.sched_requests as f64 / r.layers.sched_calls.max(1) as f64),
        med(&|r| r.layers.sched_allocs as f64 / r.layers.sched_calls.max(1) as f64),
        med(&|r| r.layers.graph_nodes as f64),
        med(&|r| r.layers.graph_edges as f64),
        med(&|r| r.layers.selected as f64),
        med(&|r| r.layers.replay_s),
        med(&|r| r.layers.replay_cpu_s),
        med(&|r| r.layers.self_cpu_s(streamed)),
        med(&|r| r.summary.peak_events as f64),
        med(&|r| r.summary.peak_in_flight as f64),
        med(&|r| r.summary.splitter_high_water as f64),
        100.0 * (med(&|r| r.layers.replay_s) / median(plain_replay) - 1.0),
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect()
}

/// What the JSON leaves out: the placement's island count, and the
/// offline stage times in seconds, with `-` for a stage the workload does
/// not run (a time that is never measured would read a constant zero).
fn print_layer_table(w: Workload, runs: &[PipelineRun], plain_replay: &[f64]) {
    let offline = !w.is_streamed();
    let med =
        |f: fn(&Layers) -> f64| median(&runs.iter().map(|r| f(&r.layers)).collect::<Vec<_>>());
    let on_path = |v: f64| {
        if offline {
            format!("{v:.4}")
        } else {
            "-".into()
        }
    };
    println!(
        "traced runs: {} and untraced pipeline runs: {} (fresh process each); medians",
        runs.len(),
        plain_replay.len()
    );
    println!(
        "{:<32} {:>12} count",
        "core.placement.islands",
        med(|l| l.islands as f64)
    );
    let rows = [
        (
            "core.experiment.materialize_s",
            on_path(med(|l| l.scan_s + l.source_busy_s)),
        ),
        ("core.sched.mwis.build_s", on_path(med(|l| l.mwis_build_s))),
        ("graph.mwis.solve_s", on_path(med(|l| l.mwis_solve_s))),
        (
            "core.sched.mwis.derive_s",
            on_path(med(|l| l.mwis_derive_s)),
        ),
        ("core.offline.eval_s", on_path(med(|l| l.replay_s))),
        ("untraced replay_s", format!("{:.4}", median(plain_replay))),
    ];
    for (name, value) in rows {
        println!("{name:<32} {value:>12} s");
    }
}

/// The runner's last line.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A JSON number with every digit Rust prints for `v` (non-finite values,
/// which JSON cannot carry, become 0; the run is then not correct).
fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    let s = format!("{v}");
    if s.contains(['.', 'e']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = RunArgs::parse(&argv(
            "--workload offline-mwis --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            RunArgs {
                workload: Workload::OfflineMwis,
                seed: 3,
                seconds: 10,
                trace: true
            }
        );
        for bad in [
            "--workload nope --seed 3 --seconds 10 --trace 0",
            "--workload offline-mwis --seed 3 --seconds 0 --trace 0",
            "--workload offline-mwis --seed 3 --seconds 10 --trace 2",
            "--workload offline-mwis --seed 3 --seconds 10",
            "--workload offline-mwis --seed 3 --seed 4 --seconds 10 --trace 0",
            "--workload offline-mwis --seed 3 --seconds 10 --trace",
        ] {
            assert!(RunArgs::parse(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let m = [Metric {
            name: "setup_s",
            unit: "s",
            value: 2.0,
        }];
        assert_eq!(
            result_json(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
    }

    /// `BENCHMARK.json` lists exactly the metrics the runner prints, and
    /// workloads the runner knows (`online-serial` runs but is not listed).
    #[test]
    fn benchmark_json_matches_the_runner() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).unwrap();
        let workloads = Workload::ALL
            .iter()
            .filter(|w| json.contains(&format!("\"name\": \"{}\"", w.name())))
            .count();
        assert_eq!(workloads, 2);
        let listed = json.matches("\"name\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + workloads);
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{entry}");
        }
    }
}
