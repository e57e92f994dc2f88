//! Command execution: load/generate the workload, run, render the report.
//!
//! Trace files are never slurped into memory: every pass re-opens the
//! file and streams records line by line ([`SpcStream`]/[`SrtStream`]),
//! so ingestion stays constant-memory regardless of trace size. The
//! first pass of a replay reads a file as `--jobs` line-aligned byte
//! ranges on as many threads (`Workload::scan`).
//! Commands that only need one pass (stats) or two passes (simulate
//! with an event-loop scheduler) never materialize a trace; only the
//! offline MWIS plan, `compare` and `replan` do, and they free it once
//! its requests are extracted.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufReader, Take};
use std::path::PathBuf;

use spindown_core::cost::CostFunction;
use spindown_core::experiment::{
    build_scheduler, data_space, requests_from_trace, run_always_on_baseline, run_experiment,
    scan_stream, ExperimentSpec, SchedulerKind, StreamScan,
};
use spindown_core::metrics::RunMetrics;
use spindown_core::model::Request;
use spindown_core::placement::{PlacementConfig, PlacementMap};
use spindown_core::sched::{MwisPlanner, WindowedPlanner};
use spindown_core::system::{run_system_streamed_with_jobs, PolicyKind, SystemConfig};
use spindown_disk::power::PowerParams;
use spindown_sim::pool;
use spindown_sim::time::SimDuration;
use spindown_trace::ranges::{join_passes, line_starts, range_reader, RangePass};
use spindown_trace::record::TraceRecord;
use spindown_trace::spc::SpcStream;
use spindown_trace::srt::SrtStream;
use spindown_trace::stats::TraceStats;
use spindown_trace::stream::{collect_trace, EnsureSorted, SkipCount};
use spindown_trace::synth::arrivals::OnOffProcess;
use spindown_trace::synth::{CelloLike, DiurnalLike, FinancialLike, FlashCrowdLike};
use spindown_trace::{ParsePolicy, StreamError};

use crate::args::{Cli, Command, SchedulerArg, SourceArg};

/// Command failures (I/O, parsing, bench regressions).
#[derive(Debug)]
pub enum CommandError {
    /// The trace file could not be read.
    Io(std::path::PathBuf, std::io::Error),
    /// The trace file could not be parsed.
    Parse(String),
    /// The file extension is not recognized.
    UnknownFormat(std::path::PathBuf),
    /// The bench regression gate failed (carries the full gate report).
    BenchRegression(String),
}

impl std::fmt::Display for CommandError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommandError::Io(p, e) => write!(f, "cannot read {}: {e}", p.display()),
            CommandError::Parse(e) => write!(f, "cannot parse trace: {e}"),
            CommandError::UnknownFormat(p) => write!(
                f,
                "unrecognized trace extension on {} (expected .spc/.csv or .srt/.txt)",
                p.display()
            ),
            CommandError::BenchRegression(text) => write!(f, "{text}"),
        }
    }
}

impl std::error::Error for CommandError {}

/// Runs the parsed invocation and returns the textual report.
pub fn execute(cli: &Cli) -> Result<String, CommandError> {
    if cli.command == Command::Bench {
        return bench_report(cli);
    }
    let workload = Workload::from_cli(cli)?;
    match cli.command {
        Command::Stats => stats_report(&workload),
        Command::Simulate => simulate_command(cli, &workload),
        Command::Compare => compare_command(cli, &workload),
        Command::Replan => replan_command(cli, &workload),
        Command::Bench => unreachable!("handled above"),
    }
}

/// Trace file format, sniffed from the extension.
#[derive(Debug, Clone, Copy)]
enum FileFormat {
    Spc,
    Srt,
}

/// A replayable workload: each [`Workload::open`] starts a fresh
/// streaming pass over the same records (re-opens the file, re-seeds
/// the generator).
enum Workload {
    File {
        path: PathBuf,
        format: FileFormat,
        policy: ParsePolicy,
    },
    Cello(CelloLike, u64),
    Financial(FinancialLike, u64),
    Diurnal(DiurnalLike, u64),
    FlashCrowd(FlashCrowdLike, u64),
}

/// One streaming pass over a workload's records (of one byte range of a
/// trace file, or of all of it).
enum RecordPass {
    Spc(SpcStream<BufReader<Take<File>>>),
    Srt(SrtStream<BufReader<Take<File>>>),
    Synth(Box<dyn Iterator<Item = TraceRecord> + Send>),
}

impl Iterator for RecordPass {
    type Item = Result<TraceRecord, StreamError>;

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            RecordPass::Spc(s) => s.next().map(|r| r.map_err(StreamError::from)),
            RecordPass::Srt(s) => s.next().map(|r| r.map_err(StreamError::from)),
            RecordPass::Synth(s) => s.next().map(Ok),
        }
    }
}

impl SkipCount for RecordPass {
    fn skipped_lines(&self) -> usize {
        match self {
            RecordPass::Spc(s) => s.skipped_lines(),
            RecordPass::Srt(s) => s.skipped_lines(),
            RecordPass::Synth(_) => 0,
        }
    }
}

impl RecordPass {
    /// Malformed lines skipped so far (lenient parsing only).
    fn skipped(&self) -> usize {
        self.skipped_lines()
    }

    /// Trace-file lines read so far (0 for a synthetic workload).
    fn lines_read(&self) -> usize {
        match self {
            RecordPass::Spc(s) => s.lines_read(),
            RecordPass::Srt(s) => s.lines_read(),
            RecordPass::Synth(_) => 0,
        }
    }
}

impl Workload {
    fn from_cli(cli: &Cli) -> Result<Workload, CommandError> {
        let policy = if cli.lenient {
            ParsePolicy::Lenient
        } else {
            ParsePolicy::Strict
        };
        match &cli.source {
            SourceArg::TraceFile(path) => {
                let ext = path
                    .extension()
                    .and_then(|e| e.to_str())
                    .unwrap_or("")
                    .to_ascii_lowercase();
                let format = match ext.as_str() {
                    "spc" | "csv" => FileFormat::Spc,
                    "srt" | "txt" => FileFormat::Srt,
                    _ => return Err(CommandError::UnknownFormat(path.clone())),
                };
                Ok(Workload::File {
                    path: path.clone(),
                    format,
                    policy,
                })
            }
            SourceArg::SyntheticCello => {
                let sources = 24;
                let on_frac = {
                    let e_on = 1.5 * 2.0 / 0.5;
                    let e_off = 1.3 * 30.0 / 0.3;
                    e_on / (e_on + e_off)
                };
                Ok(Workload::Cello(
                    CelloLike {
                        requests: cli.requests,
                        data_items: cli.data_items,
                        arrivals: OnOffProcess {
                            sources,
                            on_shape: 1.5,
                            on_scale_s: 2.0,
                            off_shape: 1.3,
                            off_scale_s: 30.0,
                            burst_rate: cli.rate / (sources as f64 * on_frac),
                        },
                        ..CelloLike::default()
                    },
                    cli.seed,
                ))
            }
            SourceArg::SyntheticFinancial => Ok(Workload::Financial(
                FinancialLike {
                    requests: cli.requests,
                    data_items: cli.data_items,
                    rate: cli.rate,
                    ..FinancialLike::default()
                },
                cli.seed,
            )),
            SourceArg::SyntheticDiurnal => {
                // The sinusoid averages out over whole periods, so the
                // base rate IS the mean rate.
                let mut like = DiurnalLike {
                    requests: cli.requests,
                    data_items: cli.data_items,
                    ..DiurnalLike::default()
                };
                like.arrivals.base_rate = cli.rate;
                Ok(Workload::Diurnal(like, cli.seed))
            }
            SourceArg::SyntheticFlashCrowd => {
                // Scale background and burst intensity together so the
                // quiet/burst contrast (the scenario's point) survives
                // any --rate while the mean matches it.
                let mut like = FlashCrowdLike {
                    requests: cli.requests,
                    data_items: cli.data_items,
                    ..FlashCrowdLike::default()
                };
                let scale = cli.rate / like.arrivals.mean_rate();
                like.arrivals.base_rate *= scale;
                like.arrivals.burst_rate *= scale;
                Ok(Workload::FlashCrowd(like, cli.seed))
            }
        }
    }

    fn open(&self) -> Result<RecordPass, CommandError> {
        self.open_range(0, None)
    }

    /// A pass over the bytes of a trace file from `start` up to `end`,
    /// or to its end without one ([`line_starts`]); a synthetic
    /// workload's pass is always whole.
    fn open_range(&self, start: u64, end: Option<u64>) -> Result<RecordPass, CommandError> {
        match self {
            Workload::File {
                path,
                format,
                policy,
            } => {
                let io = |e| CommandError::Io(path.clone(), e);
                let file = File::open(path).map_err(io)?;
                let reader = range_reader(file, start, end).map_err(io)?;
                Ok(match format {
                    FileFormat::Spc => RecordPass::Spc(SpcStream::new(reader, *policy)),
                    FileFormat::Srt => RecordPass::Srt(SrtStream::new(reader, *policy)),
                })
            }
            Workload::Cello(gen, seed) => Ok(RecordPass::Synth(Box::new(gen.stream(*seed)))),
            Workload::Financial(gen, seed) => Ok(RecordPass::Synth(Box::new(gen.stream(*seed)))),
            Workload::Diurnal(gen, seed) => Ok(RecordPass::Synth(Box::new(gen.stream(*seed)))),
            Workload::FlashCrowd(gen, seed) => Ok(RecordPass::Synth(Box::new(gen.stream(*seed)))),
        }
    }

    /// Pass one of a replay: the scan summary and the malformed lines
    /// skipped. A regular trace file is cut into `jobs` line-aligned
    /// byte ranges, scanned on `jobs` workers and merged exactly
    /// ([`StreamScan::merge`], [`join_passes`]); any other file, such as
    /// a pipe, is one range. A synthetic workload is scanned whole.
    fn scan(&self, jobs: usize) -> Result<(StreamScan, usize), CommandError> {
        let Workload::File { path, .. } = self else {
            let mut pass = self.open()?;
            let scan = scan_stream(&mut pass).map_err(|e| CommandError::Parse(e.to_string()))?;
            return Ok((scan, pass.skipped()));
        };
        let io = |e| CommandError::Io(path.clone(), e);
        let starts = if std::fs::metadata(path).map_err(io)?.is_file() {
            line_starts(&mut File::open(path).map_err(io)?, jobs).map_err(io)?
        } else {
            vec![0]
        };
        let passes = pool::map_indexed(jobs, starts.len(), |k| {
            let mut pass = self.open_range(starts[k], starts.get(k + 1).copied())?;
            let outcome = scan_stream(&mut pass);
            Ok(RangePass {
                outcome,
                lines: pass.lines_read(),
                skipped: pass.skipped(),
            })
        });
        let passes = passes
            .into_iter()
            .collect::<Result<Vec<_>, CommandError>>()?;
        let (scans, skipped) =
            join_passes(passes).map_err(|e| CommandError::Parse(e.to_string()))?;
        Ok((StreamScan::merge(scans), skipped))
    }
}

/// Drains a full pass into the engine's time-sorted read requests — only
/// for commands that genuinely need the whole workload at once (offline
/// MWIS plans, `compare`, `replan`). Returns the skipped-line count
/// alongside. The intermediate trace is freed here, before any planning
/// starts.
fn materialize(workload: &Workload) -> Result<(Vec<Request>, usize), CommandError> {
    let mut pass = workload.open()?;
    let trace =
        collect_trace(&mut pass).map_err(|e: StreamError| CommandError::Parse(e.to_string()))?;
    Ok((requests_from_trace(&trace), pass.skipped()))
}

fn simulate_command(cli: &Cli, workload: &Workload) -> Result<String, CommandError> {
    let spec = spec(cli, cli.scheduler);
    match build_scheduler(&spec.scheduler, spec.seed) {
        Some(_) => {
            // Constant-memory path: pass one folds the stream to its
            // scan summary, pass two feeds the event loop(s) directly —
            // one per placement island when --jobs allows.
            let (scan, skipped_scan) = workload.scan(cli.effective_jobs())?;
            let reads = scan.reads();
            let span_s = scan.span_s();
            let placement = PlacementMap::build(scan.data_space(), &spec.placement, spec.seed);
            let config = SystemConfig {
                disks: spec.placement.disks,
                seed: spec.seed,
                ..spec.system.clone()
            };
            let mut pass2 = workload.open()?;
            let mut source = scan.requests(&mut pass2);
            let m = run_system_streamed_with_jobs(
                &mut source,
                &placement,
                &|| {
                    build_scheduler(&spec.scheduler, spec.seed)
                        .expect("checked above: event-loop scheduler")
                },
                &config,
                cli.effective_jobs(),
            )
            .map_err(|e| CommandError::Parse(e.0))?;
            drop(source);
            let skipped = skipped_scan.max(pass2.skipped());
            Ok(simulate_report(cli, reads, span_s, skipped, &m))
        }
        None => {
            // Offline MWIS plans over the whole stream: materialize. The
            // per-disk evaluation fans out across --jobs workers
            // (bit-identical to serial for any count).
            let (requests, skipped) = materialize(workload)?;
            let m = run_experiment(&requests, &spec, cli.effective_jobs());
            let span_s = requests.last().map(|r| r.at.as_secs_f64()).unwrap_or(0.0);
            Ok(simulate_report(cli, requests.len(), span_s, skipped, &m))
        }
    }
}

fn compare_command(cli: &Cli, workload: &Workload) -> Result<String, CommandError> {
    let (requests, skipped) = materialize(workload)?;
    let mut s = compare_report(cli, &requests);
    if skipped > 0 {
        let _ = write!(s, "\n(skipped {skipped} malformed trace lines)");
    }
    Ok(s)
}

/// Streams the workload through the rolling-horizon incremental
/// re-planner: every `--step-s` seconds of trace time the horizon
/// advances, retiring expired requests and admitting the new arrivals,
/// and the delta-maintained window is re-planned. The report carries a
/// FNV-1a digest over every per-window assignment and claimed-saving
/// bit pattern, so two runs are byte-comparable end to end — the CI
/// determinism job diffs `--jobs 1` against `--jobs 8` outputs.
fn replan_command(cli: &Cli, workload: &Workload) -> Result<String, CommandError> {
    let (requests, skipped) = materialize(workload)?;
    let spec = spec(cli, SchedulerArg::Mwis);
    let placement = PlacementMap::build(data_space(&requests), &spec.placement, spec.seed);
    let SchedulerKind::Mwis {
        solver,
        max_successors,
    } = spec.scheduler
    else {
        unreachable!("replan always builds the MWIS kind");
    };
    let planner = MwisPlanner {
        params: spec.system.power.clone(),
        solver,
        max_successors,
    };
    let mut w = WindowedPlanner::new(planner, cli.disks);

    // FNV-1a over (window, position, disk) triples and the claimed
    // saving's bit pattern: any divergence in any window's plan flips
    // the digest.
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut digest = FNV_OFFSET;
    let fold = |digest: &mut u64, v: u64| {
        for byte in v.to_le_bytes() {
            *digest ^= u64::from(byte);
            *digest = digest.wrapping_mul(FNV_PRIME);
        }
    };

    let t0 = requests.first().map(|r| r.at).unwrap_or_default();
    let end = requests.last().map(|r| r.at).unwrap_or_default();
    let span_s = requests.last().map(|r| r.at.as_secs_f64()).unwrap_or(0.0);
    let mut fed = 0usize;
    let mut total_saving = 0.0f64;
    let mut peak_window = 0usize;
    let mut i = 0u64;
    // Slide until every request has been fed AND the horizon has
    // drained the final window.
    while !requests.is_empty() {
        i += 1;
        let elapsed = i * cli.step_s;
        let frontier = t0 + SimDuration::from_secs(elapsed);
        let horizon = t0 + SimDuration::from_secs(elapsed.saturating_sub(cli.window_s));
        let feed_to = requests.partition_point(|r| r.at < frontier);
        let (assignment, saving) = w.advance(&requests[fed..feed_to], horizon, &placement);
        fed = feed_to;
        total_saving += saving;
        peak_window = peak_window.max(w.window().len());
        fold(&mut digest, i);
        fold(&mut digest, saving.to_bits());
        for (pos, d) in assignment.disks.iter().enumerate() {
            fold(&mut digest, (pos as u64) << 32 | u64::from(d.0));
        }
        if fed >= requests.len() && horizon > end {
            break;
        }
    }
    let stats = *w.stats();

    let mut s = String::new();
    let _ = writeln!(s, "rolling-horizon replan report");
    let _ = writeln!(s, "=============================");
    let _ = writeln!(s, "workload : {} reads over {span_s:.0} s", requests.len());
    if skipped > 0 {
        let _ = writeln!(s, "skipped  : {skipped} malformed trace lines");
    }
    let _ = writeln!(
        s,
        "system   : {} disks, replication {}, zipf {}",
        cli.disks, cli.replication, cli.zipf
    );
    let _ = writeln!(
        s,
        "horizon  : {} s window, {} s step",
        cli.window_s, cli.step_s
    );
    let _ = writeln!(s);
    let _ = writeln!(
        s,
        "windows planned     : {} ({} changed the node set)",
        stats.windows, stats.compactions
    );
    let _ = writeln!(
        s,
        "requests retired    : {} ({} arrived)",
        stats.retired_requests_total, stats.arrived_requests_total
    );
    let _ = writeln!(
        s,
        "graph delta totals  : {} nodes retired, {} appended, {} edges with a new endpoint",
        stats.retired_nodes_total, stats.appended_nodes_total, stats.staged_edges_total
    );
    let _ = writeln!(s, "peak window         : {peak_window} requests");
    let _ = writeln!(
        s,
        "claimed saving      : {total_saving:.3} J summed over windows"
    );
    let _ = write!(s, "plan digest         : {digest:016x}");
    Ok(s)
}

/// Runs the zero-dependency micro-benchmarks, writes the JSON report to
/// `cli.bench_out`, and returns the human-readable table. With
/// `--bench-baseline`, additionally gates the run against the committed
/// report and fails (nonzero exit) on any >25% median regression.
fn bench_report(cli: &Cli) -> Result<String, CommandError> {
    let config = spindown_bench::BenchConfig {
        warmup: cli.warmup,
        iters: cli.iters,
        jobs: cli.effective_jobs(),
        seed: cli.seed,
        filter: cli.filter.clone(),
    };
    let report = spindown_bench::run_benches(&config);
    std::fs::write(&cli.bench_out, report.to_json())
        .map_err(|e| CommandError::Io(cli.bench_out.clone(), e))?;
    let mut out = format!("{}\nwrote {}", report.to_table(), cli.bench_out.display());
    if let Some(baseline_path) = &cli.bench_baseline {
        let text = std::fs::read_to_string(baseline_path)
            .map_err(|e| CommandError::Io(baseline_path.clone(), e))?;
        let baseline = spindown_bench::parse_baseline(&text).map_err(CommandError::Parse)?;
        let gate = spindown_bench::check(
            &report,
            &baseline,
            spindown_bench::regression::DEFAULT_TOLERANCE,
        );
        if !gate.passed() {
            return Err(CommandError::BenchRegression(gate.to_text()));
        }
        let _ = write!(out, "\n{}", gate.to_text().trim_end());
    }
    Ok(out)
}

fn spec(cli: &Cli, scheduler: SchedulerArg) -> ExperimentSpec {
    let cost = CostFunction {
        alpha: cli.alpha,
        beta: cli.beta,
    };
    ExperimentSpec {
        placement: PlacementConfig {
            disks: cli.disks,
            replication: cli.replication,
            zipf_z: cli.zipf,
        },
        scheduler: scheduler.to_kind(cost, cli.interval_ms),
        system: SystemConfig {
            disks: cli.disks,
            policy: match cli.policy.as_str() {
                "always-on" => PolicyKind::AlwaysOn,
                "adaptive" => PolicyKind::Adaptive,
                "quantile" => PolicyKind::Quantile,
                _ => PolicyKind::Breakeven,
            },
            power_overrides: if cli.fleet == "mixed" {
                // Mixed fleet: odd disks run the Ultrastar preset, evens
                // stay on the baseline Barracuda.
                (0..cli.disks)
                    .filter(|d| d % 2 == 1)
                    .map(|d| (d, PowerParams::ultrastar()))
                    .collect()
            } else {
                Vec::new()
            },
            discipline: cli.discipline,
            ..SystemConfig::default()
        },
        seed: cli.seed,
    }
}

/// One-pass streaming statistics; the trace is never materialized.
/// Requires the file to be time-sorted (the batch parsers historically
/// re-sorted; the streaming path reports out-of-order input instead).
fn stats_report(workload: &Workload) -> Result<String, CommandError> {
    let mut pass = workload.open()?;
    let stats = TraceStats::from_stream(EnsureSorted::new(&mut pass))
        .map_err(|e| CommandError::Parse(e.to_string()))?;
    let mut s = format!("trace statistics\n================\n{stats}");
    if pass.skipped() > 0 {
        let _ = write!(s, "\nskipped lines       : {}", pass.skipped());
    }
    Ok(s)
}

fn simulate_report(cli: &Cli, reads: usize, span_s: f64, skipped: usize, m: &RunMetrics) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "spindown simulation report");
    let _ = writeln!(s, "==========================");
    let _ = writeln!(s, "workload : {reads} reads over {span_s:.0} s");
    if skipped > 0 {
        let _ = writeln!(s, "skipped  : {skipped} malformed trace lines");
    }
    let _ = writeln!(
        s,
        "system   : {} disks, replication {}, zipf {}, policy {}, {} queue",
        cli.disks,
        cli.replication,
        cli.zipf,
        cli.policy,
        match cli.discipline {
            spindown_disk::queue::QueueDiscipline::Fcfs => "fcfs",
            spindown_disk::queue::QueueDiscipline::Sstf => "sstf",
            spindown_disk::queue::QueueDiscipline::Elevator => "elevator",
        }
    );
    let _ = writeln!(s, "scheduler: {}", cli.scheduler.label());
    let _ = writeln!(s);
    let _ = writeln!(s, "energy          : {:.1} kJ", m.energy_j / 1000.0);
    let _ = writeln!(s, "vs always-on    : {:.1}%", m.normalized_energy() * 100.0);
    let _ = writeln!(s, "spin-up/downs   : {}", m.spin_cycles());
    let _ = writeln!(
        s,
        "response mean   : {:.1} ms",
        m.response_mean_s() * 1000.0
    );
    let _ = writeln!(s, "response p90    : {:.1} ms", m.response_p90_s() * 1000.0);
    let _ = writeln!(s, "response max    : {:.1} s", m.response.max());
    let _ = write!(
        s,
        "standby share   : {:.1}% (mean across disks)",
        m.mean_standby_fraction() * 100.0
    );
    s
}

fn compare_report(cli: &Cli, requests: &[Request]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<10} {:>12} {:>12} {:>12} {:>12}",
        "scheduler", "vs always-on", "spin cycles", "resp mean", "resp p90"
    );
    let baseline = run_always_on_baseline(
        requests,
        &spec(cli, SchedulerArg::Static),
        cli.effective_jobs(),
    );
    let _ = writeln!(
        s,
        "{:<10} {:>11.1}% {:>12} {:>9.0} ms {:>9.0} ms",
        "always-on",
        baseline.normalized_energy() * 100.0,
        baseline.spin_cycles(),
        baseline.response_mean_s() * 1000.0,
        baseline.response_p90_s() * 1000.0
    );
    for sched in SchedulerArg::ALL {
        let m = run_experiment(requests, &spec(cli, sched), cli.effective_jobs());
        let _ = writeln!(
            s,
            "{:<10} {:>11.1}% {:>12} {:>9.0} ms {:>9.0} ms",
            sched.label(),
            m.normalized_energy() * 100.0,
            m.spin_cycles(),
            m.response_mean_s() * 1000.0,
            m.response_p90_s() * 1000.0
        );
    }
    let _ = write!(
        s,
        "(mwis/mwis-r run under the offline model: no spin-up or queueing delay)"
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Cli;

    fn small_cli(extra: &str) -> Cli {
        let argv: Vec<String> =
            format!("simulate --requests 600 --data-items 250 --disks 12 --rate 4 {extra}")
                .split_whitespace()
                .map(String::from)
                .collect();
        Cli::parse(&argv).unwrap()
    }

    #[test]
    fn simulate_synthetic_cello() {
        let report = execute(&small_cli("")).unwrap();
        assert!(report.contains("spindown simulation report"));
        assert!(report.contains("vs always-on"));
        assert!(report.contains("scheduler: heuristic"));
    }

    #[test]
    fn simulate_each_scheduler() {
        for sched in ["random", "static", "heuristic", "wsc", "mwis", "mwis-r"] {
            let report = execute(&small_cli(&format!("--scheduler {sched}"))).unwrap();
            assert!(report.contains(&format!("scheduler: {sched}")), "{sched}");
        }
    }

    #[test]
    fn simulate_scenario_policy_matrix() {
        for scenario in ["diurnal", "flash-crowd"] {
            for policy in ["2cpm", "adaptive", "quantile"] {
                let report = execute(&small_cli(&format!(
                    "--synthetic {scenario} --policy {policy} --fleet mixed"
                )))
                .unwrap();
                assert!(
                    report.contains(&format!("policy {policy}")),
                    "{scenario}/{policy}: {report}"
                );
            }
        }
    }

    #[test]
    fn stats_command() {
        let mut cli = small_cli("");
        cli.command = Command::Stats;
        let report = execute(&cli).unwrap();
        assert!(report.contains("requests"));
        assert!(report.contains("Zipf"));
    }

    #[test]
    fn compare_command() {
        let mut cli = small_cli("");
        cli.command = Command::Compare;
        let report = execute(&cli).unwrap();
        for label in [
            "always-on",
            "random",
            "static",
            "heuristic",
            "wsc",
            "mwis-r",
        ] {
            assert!(report.contains(label), "missing {label}");
        }
    }

    #[test]
    fn replan_synthetic_and_trace_file() {
        let mut cli = small_cli("--window-s 30 --step-s 10");
        cli.command = Command::Replan;
        let report = execute(&cli).unwrap();
        assert!(report.contains("rolling-horizon replan report"), "{report}");
        assert!(report.contains("windows planned"), "{report}");
        assert!(report.contains("plan digest"), "{report}");
        // Deterministic: the digest line is identical across runs.
        assert_eq!(report, execute(&cli).unwrap());

        let dir = std::env::temp_dir().join("spindown-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("replan.spc");
        std::fs::write(&path, "0,1024,4096,r,0.5\n0,2048,4096,r,30.0\n").unwrap();
        cli.source = SourceArg::TraceFile(path.clone());
        let report = execute(&cli).unwrap();
        assert!(report.contains("workload : 2 reads"), "{report}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn trace_file_roundtrip() {
        let dir = std::env::temp_dir().join("spindown-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mini.spc");
        std::fs::write(&path, "0,1024,4096,r,0.5\n0,2048,4096,r,30.0\n").unwrap();
        let mut cli = small_cli("--disks 4 --replication 2");
        cli.source = SourceArg::TraceFile(path.clone());
        let report = execute(&cli).unwrap();
        assert!(report.contains("workload : 2 reads"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn lenient_skips_malformed_lines_and_reports_count() {
        let dir = std::env::temp_dir().join("spindown-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dirty.spc");
        std::fs::write(
            &path,
            "# header comment\n0,1024,4096,r,0.5\ngarbage line\n0,2048,4096,r,30.0\n0,bad,4096,r,31.0\n",
        )
        .unwrap();

        // Strict (default): the malformed line fails the run.
        let mut cli = small_cli("--disks 4 --replication 2");
        cli.source = SourceArg::TraceFile(path.clone());
        assert!(matches!(execute(&cli).unwrap_err(), CommandError::Parse(_)));

        // Lenient: both bad lines are skipped and counted; blank/comment
        // lines are not counted as skipped.
        cli.lenient = true;
        let report = execute(&cli).unwrap();
        assert!(report.contains("workload : 2 reads"), "{report}");
        assert!(
            report.contains("skipped  : 2 malformed trace lines"),
            "{report}"
        );

        // Stats streams one-pass and reports the same count.
        cli.command = Command::Stats;
        let report = execute(&cli).unwrap();
        assert!(report.contains("skipped lines       : 2"), "{report}");

        // Compare materializes the trace and must carry the count into
        // its report rather than dropping it at the adapter boundary.
        cli.command = Command::Compare;
        let report = execute(&cli).unwrap();
        assert!(
            report.contains("(skipped 2 malformed trace lines)"),
            "{report}"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn mwis_still_runs_from_trace_file() {
        let dir = std::env::temp_dir().join("spindown-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mini-mwis.spc");
        std::fs::write(&path, "0,1024,4096,r,0.5\n0,2048,4096,r,30.0\n").unwrap();
        let mut cli = small_cli("--disks 4 --replication 2 --scheduler mwis");
        cli.source = SourceArg::TraceFile(path.clone());
        let report = execute(&cli).unwrap();
        assert!(report.contains("workload : 2 reads"), "{report}");
        assert!(report.contains("scheduler: mwis"), "{report}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn unknown_extension_is_reported() {
        let mut cli = small_cli("");
        cli.source = SourceArg::TraceFile(std::path::PathBuf::from("/tmp/x.weird"));
        // File doesn't exist — Io error comes first; create it.
        let dir = std::env::temp_dir().join("spindown-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.weird");
        std::fs::write(&path, "junk").unwrap();
        cli.source = SourceArg::TraceFile(path.clone());
        let err = execute(&cli).unwrap_err();
        assert!(matches!(err, CommandError::UnknownFormat(_)));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_file_is_reported() {
        let mut cli = small_cli("");
        cli.source = SourceArg::TraceFile(std::path::PathBuf::from("/definitely/not/here.spc"));
        let err = execute(&cli).unwrap_err();
        assert!(matches!(err, CommandError::Io(_, _)));
    }

    /// A trace-file workload over `text`, written to a file named `name`
    /// in the tests' scratch directory.
    fn spc_file(name: &str, text: &[u8], policy: ParsePolicy) -> Workload {
        let dir = std::env::temp_dir().join("spindown-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        Workload::File {
            path,
            format: FileFormat::Spc,
            policy,
        }
    }

    /// `scan_stream` over the whole pass, as pass one returned it before
    /// it read ranges: the scan and skip count, or the error's text.
    fn whole_scan(workload: &Workload) -> Result<(StreamScan, usize), String> {
        let mut pass = workload.open().unwrap();
        match scan_stream(&mut pass) {
            Ok(scan) => Ok((scan, pass.skipped())),
            Err(e) => Err(CommandError::Parse(e.to_string()).to_string()),
        }
    }

    /// Pass one over `text` by 1–8 ranges equals the whole-file scan in
    /// every field, under both policies.
    fn assert_range_scans_match(name: &str, text: &[u8]) {
        for policy in [ParsePolicy::Strict, ParsePolicy::Lenient] {
            let workload = spc_file(name, text, policy);
            let whole = whole_scan(&workload);
            for parts in 1..=8 {
                let got = workload.scan(parts).map_err(|e| e.to_string());
                assert_eq!(got, whole, "{name}, {policy:?}, {parts} parts");
            }
            if let Workload::File { path, .. } = workload {
                std::fs::remove_file(path).ok();
            }
        }
    }

    /// Twenty-four 20-byte SPC lines, half of them reads.
    fn even_lines() -> Vec<String> {
        (0..24)
            .map(|i| {
                let op = if i % 2 == 0 { 'r' } else { 'w' };
                format!("0,{:04},8192,{op},{i:03}.5\n", (i * 37) % 11)
            })
            .collect()
    }

    #[test]
    fn range_scans_equal_the_whole_file_scan() {
        let lines = even_lines();
        assert!(lines.iter().all(|l| l.len() == 20));
        let text = lines.concat();
        // 480 bytes: every even share of 2, 3, 4, 6 and 8 parts is a
        // line start, and of 5 and 7 parts is not.
        assert_range_scans_match("ranges-even.spc", text.as_bytes());
        assert_range_scans_match(
            "ranges-comments.spc",
            b"# header\n\n0,1,8192,r,0.5\n  \n# mid\n0,2,8192,w,0.6\n\n0,3,8192,r,0.7\n#\n",
        );
        assert_range_scans_match(
            "ranges-crlf.spc",
            b"0,1,8192,r,0.5\r\n0,2,8192,r,0.6\r\n\r\n0,1,8192,r,0.9\r\n0,7,8192,r,1.5\r\n",
        );
        assert_range_scans_match(
            "ranges-no-newline.spc",
            b"0,5,8192,r,0.5\n0,2,8192,r,0.6\n0,9,8192,r,0.75",
        );
        assert_range_scans_match("ranges-empty.spc", b"");
        assert_range_scans_match("ranges-one-line.spc", b"0,42,8192,r,3.25\n");
        assert_range_scans_match(
            "ranges-three-lines.spc",
            b"0,1,8192,w,0.5\n0,2,8192,r,0.6\n0,2,8192,r,0.7\n",
        );
        assert_range_scans_match(
            "ranges-writes-only.spc",
            b"0,1,8192,w,0.5\n0,2,8192,w,0.6\n",
        );
    }

    #[test]
    fn range_scans_report_the_first_bad_line_of_the_file() {
        // A bad line at every position lands in every range of every cut:
        // Strict names it by its line in the file, Lenient counts it.
        let lines = even_lines();
        for bad in 0..lines.len() {
            let mut text = lines.clone();
            text[bad] = "0,1,8192,x,1.0\n".to_string();
            text[(bad + 7) % lines.len()] = "garbage\n".to_string();
            assert_range_scans_match("ranges-bad.spc", text.concat().as_bytes());
        }
        let strict = spc_file(
            "ranges-bad-line.spc",
            lines.concat().replace("r,020.5", "r,-1").as_bytes(),
            ParsePolicy::Strict,
        );
        let err = strict.scan(8).unwrap_err().to_string();
        assert_eq!(
            err,
            "cannot parse trace: line 21: invalid number in field timestamp"
        );
        if let Workload::File { path, .. } = strict {
            std::fs::remove_file(path).ok();
        }
    }

    #[cfg(unix)]
    #[test]
    fn a_pipe_is_scanned_as_one_range() {
        let text = even_lines().concat();
        let regular = spc_file("pipe-reference.spc", text.as_bytes(), ParsePolicy::Strict);
        let want = whole_scan(&regular).unwrap();
        let dir = std::env::temp_dir().join("spindown-cli-test");
        let path = dir.join("ranges-pipe.spc");
        std::fs::remove_file(&path).ok();
        let made = std::process::Command::new("mkfifo")
            .arg(&path)
            .status()
            .expect("mkfifo runs");
        assert!(made.success());
        let writer = {
            let path = path.clone();
            std::thread::spawn(move || std::fs::write(path, text))
        };
        let pipe = Workload::File {
            path: path.clone(),
            format: FileFormat::Spc,
            policy: ParsePolicy::Strict,
        };
        let got = pipe.scan(4).map_err(|e| e.to_string());
        writer.join().unwrap().unwrap();
        assert_eq!(got, Ok(want));
        std::fs::remove_file(path).ok();
        if let Workload::File { path, .. } = regular {
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn sstf_discipline_runs() {
        let report = execute(&small_cli("--discipline sstf")).unwrap();
        assert!(report.contains("sstf queue"));
    }

    fn bench_cli(extra: &str) -> Cli {
        let argv: Vec<String> = format!("bench --iters 1 --warmup 0 {extra}")
            .split_whitespace()
            .map(String::from)
            .collect();
        Cli::parse(&argv).unwrap()
    }

    fn fake_baseline(median_ns: u64) -> String {
        format!(
            "{{\n  \"schema\": \"spindown-bench-v1\",\n  \"benches\": {{\n    \
             \"mwis_exact_small\": {{\"median_ns\": {median_ns}, \"p10_ns\": {median_ns}, \
             \"p90_ns\": {median_ns}}}\n  }}\n}}\n"
        )
    }

    #[test]
    fn bench_filter_and_regression_gate() {
        let dir = std::env::temp_dir().join("spindown-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("bench_gate_out.json");
        let base = dir.join("bench_gate_base.json");

        // Generous baseline: the gate must pass and report the ratio.
        std::fs::write(&base, fake_baseline(u64::MAX / 2)).unwrap();
        let mut cli = bench_cli("--filter mwis_exact_small");
        cli.bench_out = out.clone();
        cli.bench_baseline = Some(base.clone());
        let report = execute(&cli).unwrap();
        assert!(report.contains("mwis_exact_small"));
        assert!(!report.contains("grid_eval"), "filter leaked other benches");
        assert!(report.contains("bench regression gate: PASS"));

        // Impossible baseline (1 ns): the gate must fail with details.
        std::fs::write(&base, fake_baseline(1)).unwrap();
        let err = execute(&cli).unwrap_err();
        match err {
            CommandError::BenchRegression(text) => {
                assert!(text.contains("REGRESSED"));
                assert!(text.contains("mwis_exact_small"));
            }
            other => panic!("expected BenchRegression, got {other:?}"),
        }

        // Corrupt baseline: reported as a parse error, not a pass.
        std::fs::write(&base, "{}").unwrap();
        assert!(matches!(execute(&cli).unwrap_err(), CommandError::Parse(_)));
        std::fs::remove_file(out).ok();
        std::fs::remove_file(base).ok();
    }
}
