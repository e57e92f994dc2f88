//! The three benchmark workloads: how each trace is generated from the
//! seed, and the `spindown-cli simulate` invocation that replays it.

use std::path::Path;

use spindown_trace::record::TraceRecord;
use spindown_trace::spc::data_id;
use spindown_trace::stream::MergeStream;
use spindown_trace::synth::arrivals::OnOffProcess;
use spindown_trace::synth::{CelloLike, FinancialLike};
use spindown_trace::StreamError;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cello-like reads, one replica-sharing island, heuristic + 2CPM,
    /// serial engine.
    OnlineSerial,
    /// Financial1-like reads and writes, replication 1 (180 single-disk
    /// islands), WSC batches, island-parallel engine.
    BatchIslands,
    /// Cello-like and Financial1-like reads on one array, planned offline
    /// by MWIS; no event loop.
    OfflineMwis,
}

/// Arrival rate the workloads are scaled from, trace lines per second.
const RATE: f64 = 45.0;
/// Disks in every workload (the paper's system size).
pub const DISKS: u32 = 180;

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [
        Workload::OnlineSerial,
        Workload::BatchIslands,
        Workload::OfflineMwis,
    ];

    /// The name the `--workload` flag takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OnlineSerial => "online-serial",
            Workload::BatchIslands => "batch-islands",
            Workload::OfflineMwis => "offline-mwis",
        }
    }

    /// Looks a workload up by its `--workload` name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the CLI streams the file twice into the event loop (as
    /// opposed to materializing it for the offline planner).
    pub fn is_streamed(self) -> bool {
        self != Workload::OfflineMwis
    }

    /// Worker threads the CLI gets: never more than the host has.
    pub fn jobs(self, host_parallelism: usize) -> usize {
        match self {
            Workload::OnlineSerial => 1,
            Workload::BatchIslands | Workload::OfflineMwis => host_parallelism.clamp(1, 2),
        }
    }

    /// The trace lines this workload renders for `seed`, time-sorted.
    pub fn records(self, seed: u64) -> Box<dyn Iterator<Item = TraceRecord>> {
        self.records_scaled(seed, 1)
    }

    /// [`Workload::records`] with the line count divided by `shrink`:
    /// the same shape at a size small enough for unit tests.
    pub fn records_scaled(self, seed: u64, shrink: usize) -> Box<dyn Iterator<Item = TraceRecord>> {
        match self {
            // Ten times the CLI's 24 sources. With 24, about one is ON at a
            // time, and the heavy-tailed OFF periods made the span of 2M
            // reads range from 33,900 to 46,400 s over ten seeds; spin
            // cycles and the mean response followed the span, and the mean
            // response spread over its bound. With 240 each source still
            // bursts, and in fifteen seeds the span stayed within 3% of its
            // median.
            Workload::OnlineSerial => {
                Box::new(cello(2_000_000 / shrink, 300_000 / shrink, RATE, 240).stream(seed))
            }
            Workload::BatchIslands => {
                Box::new(poisson(600_000 / shrink, 90_000 / shrink, 0.5).stream(seed))
            }
            Workload::OfflineMwis => two_tenants(210_000 / shrink, 15_000 / shrink, seed),
        }
    }

    /// Arguments of the `spindown-cli` invocation that replays `trace`.
    pub fn cli_args(self, trace: &Path, jobs: usize) -> Vec<String> {
        let (replication, scheduler) = match self {
            Workload::OnlineSerial => ("3", "heuristic"),
            Workload::BatchIslands => ("1", "wsc"),
            Workload::OfflineMwis => ("3", "mwis"),
        };
        let disks = DISKS.to_string();
        let jobs = jobs.to_string();
        let mut argv = vec!["simulate", "--trace"];
        let trace = trace.to_string_lossy();
        argv.push(&trace);
        argv.extend([
            "--disks",
            &disks,
            "--replication",
            replication,
            "--zipf",
            "1.0",
            "--policy",
            "2cpm",
            "--scheduler",
            scheduler,
            "--interval-ms",
            "100",
            "--jobs",
            &jobs,
        ]);
        argv.into_iter().map(String::from).collect()
    }
}

/// Cello-like reads: the ON/OFF source shape of the CLI's
/// `--synthetic cello` with `sources` sources, scaled to a mean of `rate`
/// requests per second.
fn cello(requests: usize, data_items: usize, rate: f64, sources: usize) -> CelloLike {
    let mut arrivals = OnOffProcess {
        sources,
        on_shape: 1.5,
        on_scale_s: 2.0,
        off_shape: 1.3,
        off_scale_s: 30.0,
        burst_rate: 1.0,
    };
    arrivals.burst_rate = rate / (arrivals.sources as f64 * arrivals.on_fraction());
    CelloLike {
        requests,
        data_items,
        arrivals,
        ..CelloLike::default()
    }
}

/// Financial1-like lines: Poisson arrivals at [`RATE`], Zipf popularity,
/// 8 KiB requests, a `write_fraction` share of them writes.
fn poisson(requests: usize, data_items: usize, write_fraction: f64) -> FinancialLike {
    FinancialLike {
        requests,
        data_items,
        rate: RATE,
        write_fraction,
        ..FinancialLike::default()
    }
}

/// Two tenants on one array, merged in time order: a Cello-like tenant
/// (`lines / 2` reads of 512 KiB blocks, SPC ASU 0) and a Financial1-like
/// tenant (`lines` lines, half of them writes, 8 KiB pages, ASU 1), each
/// reading at half of [`RATE`] over `data_items` blocks of its own.
///
/// The offline model charges each request the expected service time of
/// its size, so with one generator's single block size every request of
/// the plan would have the same response time, on every seed. Here the
/// mean and p99 follow the share of large requests, which moves with the
/// number of OLTP lines the seed makes writes.
fn two_tenants(
    lines: usize,
    data_items: usize,
    seed: u64,
) -> Box<dyn Iterator<Item = TraceRecord>> {
    let ok = |r: TraceRecord| Ok::<_, StreamError>(r);
    let on_asu_1 = |r: TraceRecord| TraceRecord {
        data: data_id(1, r.data.0),
        ..r
    };
    let tenants: Vec<Box<dyn Iterator<Item = Result<TraceRecord, StreamError>>>> = vec![
        // The CLI's own 24 sources: with the tenants' counts fixed, this
        // workload's model outputs spread at most 3.2% between seeds, in
        // five sets of ten.
        Box::new(
            cello(lines / 2, data_items, RATE / 2.0, 24)
                .stream(seed)
                .map(ok),
        ),
        // Another seed, so the tenants' draws are not the same numbers.
        Box::new(
            poisson(lines, data_items, 0.5)
                .stream(seed ^ 0x9e37_79b9_7f4a_7c15)
                .map(on_asu_1)
                .map(ok),
        ),
    ];
    Box::new(MergeStream::new(tenants).map(|r| r.expect("generated records cannot fail")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn jobs_never_exceed_the_host() {
        for w in Workload::ALL {
            assert_eq!(w.jobs(1), 1);
            assert!(w.jobs(64) <= 2);
        }
    }

    /// The offline plan's responses depend on request size alone: its
    /// trace must mix sizes, in a share the seed moves.
    #[test]
    fn offline_trace_mixes_sizes_in_a_seeded_share() {
        use spindown_trace::record::OpKind;
        let large_share = |seed| {
            let sizes: Vec<u64> = Workload::OfflineMwis
                .records_scaled(seed, 100)
                .filter(|r| r.op == OpKind::Read)
                .map(|r| r.size)
                .collect();
            assert!(sizes.iter().all(|&s| s == 512 * 1024 || s == 8 * 1024));
            sizes.iter().filter(|&&s| s > 8 * 1024).count() as f64 / sizes.len() as f64
        };
        let (a, b) = (large_share(1), large_share(2));
        assert!(a > 0.4 && a < 0.6 && b > 0.4 && b < 0.6, "{a} {b}");
        assert_ne!(a, b);
    }

    #[test]
    fn cli_args_parse() {
        for w in Workload::ALL {
            let argv = w.cli_args(Path::new("t.spc"), 2);
            let cli = spindown_cli::Cli::parse(&argv).expect("valid invocation");
            assert_eq!(cli.disks, DISKS);
        }
    }
}
