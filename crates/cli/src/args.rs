//! Argument parsing for the `spindown-cli` binary (dependency-free).

use std::fmt;
use std::path::PathBuf;

use spindown_core::cost::CostFunction;
use spindown_core::sched::MwisSolver;
use spindown_disk::queue::QueueDiscipline;

/// Usage text printed for `--help` and on parse errors.
pub const USAGE: &str = "\
spindown-cli — energy-aware disk scheduling simulator

USAGE:
    spindown-cli <simulate|compare|stats|replan|bench> [options]

SOURCE (choose one):
    --trace <path>           SPC (.spc/.csv) or SRT (.srt/.txt) trace file,
                             streamed line by line (constant memory)
    --lenient                skip malformed trace lines instead of failing;
                             the report shows the skipped-line count
    --synthetic <cello|financial|diurnal|flash-crowd>
                             generate a workload (default: cello);
                             diurnal = sinusoid-modulated arrivals,
                             flash-crowd = sparse background + bursts

WORKLOAD (synthetic only):
    --requests <n>           number of requests      [default: 8000]
    --data-items <n>         distinct blocks         [default: 3500]
    --rate <req/s>           aggregate arrival rate  [default: 15]

SYSTEM:
    --disks <n>              number of disks         [default: 60]
    --replication <n>        copies per block (1-..) [default: 3]
    --zipf <z>               placement skew 0..1     [default: 1.0]
    --policy <always-on|2cpm|adaptive|quantile>      [default: 2cpm]
    --fleet <uniform|mixed>  power presets: uniform = all Barracuda,
                             mixed = odd disks Ultrastar [default: uniform]
    --discipline <fcfs|sstf|elevator>                [default: fcfs]

SCHEDULER (simulate):
    --scheduler <random|static|heuristic|wsc|mwis|mwis-r>  [default: heuristic]
    --alpha <a>              Eq. 6 energy weight     [default: 0.2]
    --beta <b>               Eq. 6 unit factor       [default: 100]
    --interval-ms <ms>       WSC batch interval      [default: 100]

REPLAN (rolling-horizon incremental re-planning):
    --window-s <s>           planning-window length in seconds   [default: 60]
    --step-s <s>             horizon advance per window, seconds [default: 10]

BENCH:
    --iters <n>              timed iterations        [default: 5]
    --warmup <n>             untimed warmup rounds   [default: 1]
    --filter <substr>        run only benchmarks whose name contains this
    --bench-out <path>       JSON output file        [default: BENCH_core.json]
    --bench-baseline <path>  gate against a committed report; exit nonzero
                             if any median regresses >25%

MISC:
    --jobs, -j <n>           worker threads for parallel work: grid cells,
                             the first pass over a trace file (read as
                             <n> line-aligned byte ranges),
                             island-parallel event replay (one event
                             loop per replica-sharing island) and
                             per-disk offline evaluation. The MWIS plan
                             itself and replan are serial.
                             Results are bit-identical for any value.
                             Precedence: this flag > SPINDOWN_JOBS env
                             var > 1
    --seed <n>               master seed             [default: 42]
    --help                   show this text";

/// Which scheduler to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedulerArg {
    /// Uniform over replicas.
    Random,
    /// Original location only.
    Static,
    /// Online Eq. 6 heuristic.
    Heuristic,
    /// Batch weighted set cover.
    Wsc,
    /// Offline MWIS (GMIN).
    Mwis,
    /// Offline MWIS + assignment refinement.
    MwisRefined,
}

impl SchedulerArg {
    /// All variants, for `compare`.
    pub const ALL: [SchedulerArg; 6] = [
        SchedulerArg::Random,
        SchedulerArg::Static,
        SchedulerArg::Heuristic,
        SchedulerArg::Wsc,
        SchedulerArg::Mwis,
        SchedulerArg::MwisRefined,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            SchedulerArg::Random => "random",
            SchedulerArg::Static => "static",
            SchedulerArg::Heuristic => "heuristic",
            SchedulerArg::Wsc => "wsc",
            SchedulerArg::Mwis => "mwis",
            SchedulerArg::MwisRefined => "mwis-r",
        }
    }

    /// Converts to the experiment layer's scheduler kind.
    pub fn to_kind(
        self,
        cost: CostFunction,
        interval_ms: u64,
    ) -> spindown_core::experiment::SchedulerKind {
        use spindown_core::experiment::SchedulerKind as K;
        match self {
            SchedulerArg::Random => K::Random,
            SchedulerArg::Static => K::Static,
            SchedulerArg::Heuristic => K::Heuristic(cost),
            SchedulerArg::Wsc => K::Wsc {
                cost,
                interval: spindown_sim::time::SimDuration::from_millis(interval_ms),
            },
            SchedulerArg::Mwis => K::Mwis {
                solver: MwisSolver::GwMin,
                max_successors: 3,
            },
            SchedulerArg::MwisRefined => K::Mwis {
                solver: MwisSolver::GwMinRefined { passes: 4 },
                max_successors: 3,
            },
        }
    }
}

/// Where the workload comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceArg {
    /// Parse a trace file (format from extension).
    TraceFile(PathBuf),
    /// Cello-like synthetic workload.
    SyntheticCello,
    /// Financial1-like synthetic workload.
    SyntheticFinancial,
    /// Diurnal (sinusoid-modulated) synthetic workload.
    SyntheticDiurnal,
    /// Flash-crowd (background + bursts) synthetic workload.
    SyntheticFlashCrowd,
}

/// Subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Run one scheduler and report.
    Simulate,
    /// Run every scheduler and tabulate.
    Compare,
    /// Print trace statistics only.
    Stats,
    /// Stream the workload through the rolling-horizon incremental
    /// re-planner and report per-window plan aggregates.
    Replan,
    /// Run the zero-dependency micro-benchmarks and write JSON.
    Bench,
}

/// Fully parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// Subcommand.
    pub command: Command,
    /// Workload source.
    pub source: SourceArg,
    /// Skip malformed trace lines instead of failing the run.
    pub lenient: bool,
    /// Synthetic request count.
    pub requests: usize,
    /// Synthetic distinct blocks.
    pub data_items: usize,
    /// Synthetic aggregate rate, req/s.
    pub rate: f64,
    /// Disks in the system.
    pub disks: u32,
    /// Replication factor.
    pub replication: u32,
    /// Placement skew.
    pub zipf: f64,
    /// Power policy name.
    pub policy: String,
    /// Fleet power-preset mix (`uniform` or `mixed`).
    pub fleet: String,
    /// Queue discipline.
    pub discipline: QueueDiscipline,
    /// Scheduler for `simulate`.
    pub scheduler: SchedulerArg,
    /// Eq. 6 α.
    pub alpha: f64,
    /// Eq. 6 β.
    pub beta: f64,
    /// WSC interval, ms.
    pub interval_ms: u64,
    /// Master seed.
    pub seed: u64,
    /// `replan` planning-window length, seconds.
    pub window_s: u64,
    /// `replan` horizon advance per window, seconds.
    pub step_s: u64,
    /// Worker threads for parallel work (grids, benches, the intra-run
    /// MWIS/offline substrates, and island-parallel event replay).
    /// `None` defers to the `SPINDOWN_JOBS` environment variable (see
    /// [`Cli::effective_jobs`]).
    pub jobs: Option<usize>,
    /// Timed iterations for `bench`.
    pub iters: usize,
    /// Warmup rounds for `bench`.
    pub warmup: usize,
    /// Substring filter for `bench`: run only matching benchmarks.
    pub filter: Option<String>,
    /// Output path for the `bench` JSON report.
    pub bench_out: PathBuf,
    /// Baseline report to gate `bench` against (exit nonzero on
    /// regression); `None` skips the gate.
    pub bench_baseline: Option<PathBuf>,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            command: Command::Simulate,
            source: SourceArg::SyntheticCello,
            lenient: false,
            requests: 8_000,
            data_items: 3_500,
            rate: 15.0,
            disks: 60,
            replication: 3,
            zipf: 1.0,
            policy: "2cpm".into(),
            fleet: "uniform".into(),
            discipline: QueueDiscipline::Fcfs,
            scheduler: SchedulerArg::Heuristic,
            alpha: 0.2,
            beta: 100.0,
            interval_ms: 100,
            seed: 42,
            window_s: 60,
            step_s: 10,
            jobs: None,
            iters: 5,
            warmup: 1,
            filter: None,
            bench_out: PathBuf::from("BENCH_core.json"),
            bench_baseline: None,
        }
    }
}

/// Parse failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// `--help` was requested.
    HelpRequested,
    /// No subcommand given.
    MissingCommand,
    /// Unknown subcommand.
    UnknownCommand(String),
    /// Unknown flag.
    UnknownFlag(String),
    /// A flag's value is missing or invalid.
    BadValue(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::HelpRequested => write!(f, "help requested"),
            ParseError::MissingCommand => write!(f, "missing subcommand"),
            ParseError::UnknownCommand(c) => write!(f, "unknown subcommand {c:?}"),
            ParseError::UnknownFlag(x) => write!(f, "unknown flag {x:?}"),
            ParseError::BadValue(x) => write!(f, "missing or invalid value for {x}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl Cli {
    /// Parses an argument list (without the program name).
    pub fn parse(argv: &[String]) -> Result<Cli, ParseError> {
        if argv.iter().any(|a| a == "--help" || a == "-h") {
            return Err(ParseError::HelpRequested);
        }
        let mut cli = Cli::default();
        let mut it = argv.iter();
        cli.command = match it.next().map(String::as_str) {
            Some("simulate") => Command::Simulate,
            Some("compare") => Command::Compare,
            Some("stats") => Command::Stats,
            Some("replan") => Command::Replan,
            Some("bench") => Command::Bench,
            Some(other) => return Err(ParseError::UnknownCommand(other.into())),
            None => return Err(ParseError::MissingCommand),
        };

        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| ParseError::BadValue(name.into()))
            };
            match flag.as_str() {
                "--trace" => cli.source = SourceArg::TraceFile(PathBuf::from(value("--trace")?)),
                "--lenient" => cli.lenient = true,
                "--synthetic" => {
                    cli.source = match value("--synthetic")?.as_str() {
                        "cello" => SourceArg::SyntheticCello,
                        "financial" => SourceArg::SyntheticFinancial,
                        "diurnal" => SourceArg::SyntheticDiurnal,
                        "flash-crowd" => SourceArg::SyntheticFlashCrowd,
                        _ => return Err(ParseError::BadValue("--synthetic".into())),
                    }
                }
                "--requests" => cli.requests = parse_num(&value("--requests")?, "--requests")?,
                "--data-items" => {
                    cli.data_items = parse_positive(&value("--data-items")?, "--data-items")?
                }
                "--rate" => {
                    cli.rate = parse_float(&value("--rate")?, "--rate")?;
                    if cli.rate <= 0.0 {
                        return Err(ParseError::BadValue("--rate".into()));
                    }
                }
                "--disks" => cli.disks = parse_positive(&value("--disks")?, "--disks")?,
                "--replication" => {
                    cli.replication = parse_positive(&value("--replication")?, "--replication")?
                }
                "--zipf" => {
                    cli.zipf = parse_float(&value("--zipf")?, "--zipf")?;
                    if cli.zipf < 0.0 {
                        return Err(ParseError::BadValue("--zipf".into()));
                    }
                }
                "--policy" => {
                    let v = value("--policy")?;
                    if !matches!(v.as_str(), "always-on" | "2cpm" | "adaptive" | "quantile") {
                        return Err(ParseError::BadValue("--policy".into()));
                    }
                    cli.policy = v;
                }
                "--fleet" => {
                    let v = value("--fleet")?;
                    if !matches!(v.as_str(), "uniform" | "mixed") {
                        return Err(ParseError::BadValue("--fleet".into()));
                    }
                    cli.fleet = v;
                }
                "--discipline" => {
                    cli.discipline = match value("--discipline")?.as_str() {
                        "fcfs" => QueueDiscipline::Fcfs,
                        "sstf" => QueueDiscipline::Sstf,
                        "elevator" => QueueDiscipline::Elevator,
                        _ => return Err(ParseError::BadValue("--discipline".into())),
                    }
                }
                "--scheduler" => {
                    cli.scheduler = match value("--scheduler")?.as_str() {
                        "random" => SchedulerArg::Random,
                        "static" => SchedulerArg::Static,
                        "heuristic" => SchedulerArg::Heuristic,
                        "wsc" => SchedulerArg::Wsc,
                        "mwis" => SchedulerArg::Mwis,
                        "mwis-r" => SchedulerArg::MwisRefined,
                        _ => return Err(ParseError::BadValue("--scheduler".into())),
                    }
                }
                // Each half of the cost function is checked against the
                // paper's default for the other half, so a failure names
                // the flag that caused it.
                "--alpha" => {
                    cli.alpha = parse_float(&value("--alpha")?, "--alpha")?;
                    CostFunction {
                        alpha: cli.alpha,
                        ..CostFunction::default()
                    }
                    .validate()
                    .map_err(|_| ParseError::BadValue("--alpha".into()))?;
                }
                "--beta" => {
                    cli.beta = parse_float(&value("--beta")?, "--beta")?;
                    CostFunction {
                        beta: cli.beta,
                        ..CostFunction::default()
                    }
                    .validate()
                    .map_err(|_| ParseError::BadValue("--beta".into()))?;
                }
                "--interval-ms" => {
                    cli.interval_ms = parse_positive(&value("--interval-ms")?, "--interval-ms")?
                }
                "--seed" => cli.seed = parse_num(&value("--seed")?, "--seed")?,
                "--window-s" => cli.window_s = parse_positive(&value("--window-s")?, "--window-s")?,
                "--step-s" => cli.step_s = parse_positive(&value("--step-s")?, "--step-s")?,
                "--jobs" | "-j" => cli.jobs = Some(parse_positive(&value("--jobs")?, "--jobs")?),
                "--iters" => cli.iters = parse_positive(&value("--iters")?, "--iters")?,
                "--warmup" => cli.warmup = parse_num(&value("--warmup")?, "--warmup")?,
                "--filter" => cli.filter = Some(value("--filter")?),
                "--bench-out" => cli.bench_out = PathBuf::from(value("--bench-out")?),
                "--bench-baseline" => {
                    cli.bench_baseline = Some(PathBuf::from(value("--bench-baseline")?))
                }
                other => return Err(ParseError::UnknownFlag(other.into())),
            }
        }
        Ok(cli)
    }

    /// Resolves the worker count with the documented precedence:
    /// `--jobs`/`-j` flag > `SPINDOWN_JOBS` environment variable > 1.
    pub fn effective_jobs(&self) -> usize {
        spindown_sim::Parallelism::resolve(self.jobs).get()
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, ParseError> {
    s.parse().map_err(|_| ParseError::BadValue(flag.into()))
}

/// [`parse_num`] for counts that must be at least 1.
fn parse_positive<T: std::str::FromStr + PartialEq + From<u8>>(
    s: &str,
    flag: &str,
) -> Result<T, ParseError> {
    let v: T = parse_num(s, flag)?;
    if v == T::from(0) {
        Err(ParseError::BadValue(flag.into()))
    } else {
        Ok(v)
    }
}

fn parse_float(s: &str, flag: &str) -> Result<f64, ParseError> {
    let v: f64 = s.parse().map_err(|_| ParseError::BadValue(flag.into()))?;
    if v.is_finite() {
        Ok(v)
    } else {
        Err(ParseError::BadValue(flag.into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_defaults() {
        let cli = Cli::parse(&argv("simulate")).unwrap();
        assert_eq!(cli.command, Command::Simulate);
        assert_eq!(cli.scheduler, SchedulerArg::Heuristic);
        assert_eq!(cli.disks, 60);
    }

    #[test]
    fn parses_full_invocation() {
        let cli = Cli::parse(&argv(
            "simulate --synthetic financial --requests 1000 --data-items 400 \
             --rate 7.5 --disks 24 --replication 4 --zipf 0.5 --policy adaptive \
             --discipline sstf --scheduler wsc --alpha 0.3 --beta 10 \
             --interval-ms 250 --seed 9",
        ))
        .unwrap();
        assert_eq!(cli.source, SourceArg::SyntheticFinancial);
        assert_eq!(cli.requests, 1000);
        assert_eq!(cli.data_items, 400);
        assert_eq!(cli.rate, 7.5);
        assert_eq!(cli.disks, 24);
        assert_eq!(cli.replication, 4);
        assert_eq!(cli.zipf, 0.5);
        assert_eq!(cli.policy, "adaptive");
        assert_eq!(cli.discipline, QueueDiscipline::Sstf);
        assert_eq!(cli.scheduler, SchedulerArg::Wsc);
        assert_eq!(cli.alpha, 0.3);
        assert_eq!(cli.interval_ms, 250);
        assert_eq!(cli.seed, 9);
    }

    #[test]
    fn trace_file_source() {
        let cli = Cli::parse(&argv("stats --trace /tmp/foo.spc")).unwrap();
        assert_eq!(cli.command, Command::Stats);
        assert_eq!(
            cli.source,
            SourceArg::TraceFile(PathBuf::from("/tmp/foo.spc"))
        );
        assert!(!cli.lenient);
        let cli = Cli::parse(&argv("stats --trace /tmp/foo.spc --lenient")).unwrap();
        assert!(cli.lenient);
    }

    #[test]
    fn errors() {
        assert_eq!(Cli::parse(&argv("")), Err(ParseError::MissingCommand));
        assert_eq!(
            Cli::parse(&argv("explode")),
            Err(ParseError::UnknownCommand("explode".into()))
        );
        assert_eq!(
            Cli::parse(&argv("simulate --what")),
            Err(ParseError::UnknownFlag("--what".into()))
        );
        assert_eq!(
            Cli::parse(&argv("simulate --disks")),
            Err(ParseError::BadValue("--disks".into()))
        );
        assert_eq!(
            Cli::parse(&argv("simulate --disks banana")),
            Err(ParseError::BadValue("--disks".into()))
        );
        assert_eq!(
            Cli::parse(&argv("simulate --scheduler quantum")),
            Err(ParseError::BadValue("--scheduler".into()))
        );
        assert_eq!(Cli::parse(&argv("--help")), Err(ParseError::HelpRequested));
        assert_eq!(
            Cli::parse(&argv("simulate --zipf inf")),
            Err(ParseError::BadValue("--zipf".into()))
        );
        // Degenerate values the simulator cannot run are parse errors,
        // not panics further down.
        for (args, flag) in [
            ("simulate --disks 0", "--disks"),
            ("simulate --replication 0", "--replication"),
            ("simulate --zipf -0.5", "--zipf"),
            ("simulate --rate 0", "--rate"),
            ("simulate --rate -3", "--rate"),
            ("simulate --data-items 0", "--data-items"),
            ("simulate --scheduler wsc --interval-ms 0", "--interval-ms"),
            ("simulate --alpha -0.1", "--alpha"),
            ("simulate --alpha 1.5", "--alpha"),
            ("simulate --beta 0", "--beta"),
        ] {
            assert_eq!(
                Cli::parse(&argv(args)),
                Err(ParseError::BadValue(flag.into())),
                "{args}"
            );
        }
        // The bounds themselves are legal.
        let cli = Cli::parse(&argv("simulate --zipf 0 --alpha 0 --beta 0.5")).unwrap();
        assert_eq!((cli.zipf, cli.alpha, cli.beta), (0.0, 0.0, 0.5));
        assert_eq!(Cli::parse(&argv("simulate --alpha 1")).unwrap().alpha, 1.0);
    }

    #[test]
    fn parses_bench_flags() {
        let cli = Cli::parse(&argv(
            "bench --iters 9 --warmup 2 -j 4 --filter mwis_gwmin \
             --bench-out /tmp/b.json --bench-baseline BENCH_core.json",
        ))
        .unwrap();
        assert_eq!(cli.command, Command::Bench);
        assert_eq!(cli.iters, 9);
        assert_eq!(cli.warmup, 2);
        assert_eq!(cli.jobs, Some(4));
        assert_eq!(cli.effective_jobs(), 4, "explicit flag wins");
        assert_eq!(cli.filter.as_deref(), Some("mwis_gwmin"));
        assert_eq!(cli.bench_out, PathBuf::from("/tmp/b.json"));
        assert_eq!(cli.bench_baseline, Some(PathBuf::from("BENCH_core.json")));
        let defaults = Cli::parse(&argv("bench")).unwrap();
        assert_eq!(defaults.iters, 5);
        assert_eq!(defaults.warmup, 1);
        assert_eq!(defaults.jobs, None);
        assert_eq!(defaults.filter, None);
        assert_eq!(defaults.bench_out, PathBuf::from("BENCH_core.json"));
        assert_eq!(defaults.bench_baseline, None);
        assert_eq!(
            Cli::parse(&argv("bench --filter")),
            Err(ParseError::BadValue("--filter".into()))
        );
        assert_eq!(
            Cli::parse(&argv("bench --jobs 0")),
            Err(ParseError::BadValue("--jobs".into()))
        );
        assert_eq!(
            Cli::parse(&argv("bench --iters 0")),
            Err(ParseError::BadValue("--iters".into()))
        );
    }

    #[test]
    fn parses_scenario_and_fleet_flags() {
        let cli = Cli::parse(&argv(
            "simulate --synthetic flash-crowd --policy quantile --fleet mixed",
        ))
        .unwrap();
        assert_eq!(cli.source, SourceArg::SyntheticFlashCrowd);
        assert_eq!(cli.policy, "quantile");
        assert_eq!(cli.fleet, "mixed");
        let cli = Cli::parse(&argv("simulate --synthetic diurnal")).unwrap();
        assert_eq!(cli.source, SourceArg::SyntheticDiurnal);
        assert_eq!(cli.fleet, "uniform", "default fleet is uniform");
        assert_eq!(
            Cli::parse(&argv("simulate --fleet exotic")),
            Err(ParseError::BadValue("--fleet".into()))
        );
        assert_eq!(
            Cli::parse(&argv("simulate --synthetic tsunami")),
            Err(ParseError::BadValue("--synthetic".into()))
        );
    }

    #[test]
    fn parses_replan_flags() {
        let cli = Cli::parse(&argv("replan --window-s 120 --step-s 15 -j 4")).unwrap();
        assert_eq!(cli.command, Command::Replan);
        assert_eq!(cli.window_s, 120);
        assert_eq!(cli.step_s, 15);
        assert_eq!(cli.jobs, Some(4));
        let defaults = Cli::parse(&argv("replan")).unwrap();
        assert_eq!(defaults.window_s, 60);
        assert_eq!(defaults.step_s, 10);
        assert_eq!(
            Cli::parse(&argv("replan --window-s 0")),
            Err(ParseError::BadValue("--window-s".into()))
        );
        assert_eq!(
            Cli::parse(&argv("replan --step-s 0")),
            Err(ParseError::BadValue("--step-s".into()))
        );
    }

    #[test]
    fn jobs_flag_on_other_commands() {
        let cli = Cli::parse(&argv("simulate --jobs 3")).unwrap();
        assert_eq!(cli.jobs, Some(3));
        assert_eq!(cli.effective_jobs(), 3);
    }

    #[test]
    fn scheduler_kinds_map() {
        let cost = CostFunction::default();
        for s in SchedulerArg::ALL {
            let k = s.to_kind(cost, 100);
            assert_eq!(
                k.label(),
                if s == SchedulerArg::MwisRefined {
                    "mwis"
                } else {
                    s.label()
                }
            );
        }
    }
}
