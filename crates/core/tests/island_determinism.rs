//! Differential suite for island-parallel event replay.
//!
//! [`run_system_streamed_with_jobs`] shards the event loop by
//! replica-sharing islands (inline on the calling thread at one worker,
//! behind the stream splitter at more) and merges per-island metrics; its
//! contract is that `--jobs` changes wall-clock, never bytes. This suite
//! pins that contract the same way the MWIS/offline suites do: the serial
//! reference ([`run_system_streamed`], one engine over every disk) is the
//! oracle, and every parallel run is compared
//! with exact `RunMetrics` equality — energies, spin counts, per-disk
//! summaries, the response histogram bucket by bucket, and the power
//! timeline — after zeroing the documented operational exceptions
//! (`peak_events` / `peak_in_flight` are per-island maxima under
//! sharding, `splitter_high_water` is timing-dependent). Parallel runs
//! must additionally agree with each other *including* those fields for
//! equal worker counts, and the degenerate placements (everything one
//! island; every disk its own island) exercise the fallback and the
//! maximal-sharding extremes.

mod common;

use common::digest;
use spindown_core::cost::CostFunction;
use spindown_core::experiment::{build_scheduler, data_space, requests_from_trace, SchedulerKind};
use spindown_core::model::{DiskId, Request};
use spindown_core::placement::{IslandPartition, PlacementConfig, PlacementMap};
use spindown_core::sched::{ExplicitPlacement, LocationProvider, Scheduler};
use spindown_core::system::{
    run_system_streamed, run_system_streamed_with_jobs, slice_source, DiskFailure, PolicyKind,
    SystemConfig,
};
use spindown_core::RunMetrics;
use spindown_disk::power::PowerParams;
use spindown_sim::time::{SimDuration, SimTime};
use spindown_trace::synth::arrivals::OnOffProcess;
use spindown_trace::synth::{CelloLike, FlashCrowdLike, FlashCrowdProcess, TraceGenerator};

const JOBS: [usize; 3] = [1, 2, 8];

fn workload(requests: usize, data_items: usize, burst_rate: f64, seed: u64) -> Vec<Request> {
    let trace = CelloLike {
        requests,
        data_items,
        arrivals: OnOffProcess {
            sources: 8,
            on_shape: 1.5,
            on_scale_s: 2.0,
            off_shape: 1.3,
            off_scale_s: 30.0,
            burst_rate,
        },
        ..CelloLike::default()
    }
    .generate(seed);
    requests_from_trace(&trace)
}

/// Grouped replica placement: `islands` groups of `group_size` disks;
/// data item `d` lives on `replicas` distinct disks of group
/// `d % islands`. Every group is one island by construction.
fn grouped_placement(
    data_space: usize,
    islands: usize,
    group_size: usize,
    replicas: usize,
) -> ExplicitPlacement {
    assert!(replicas <= group_size);
    let locations: Vec<Vec<DiskId>> = (0..data_space)
        .map(|d| {
            let g = d % islands;
            (0..replicas)
                .map(|r| DiskId((g * group_size + (d / islands + r) % group_size) as u32))
                .collect()
        })
        .collect();
    ExplicitPlacement::new(locations, (islands * group_size) as u32)
}

/// Chain placement: data `i` on disks `{i mod n, (i+1) mod n}` — the
/// replica graph is one cycle, so ALL disks form a single island.
fn chain_placement(data_space: usize, disks: u32) -> ExplicitPlacement {
    let locations: Vec<Vec<DiskId>> = (0..data_space)
        .map(|d| {
            let a = (d % disks as usize) as u32;
            let b = ((d + 1) % disks as usize) as u32;
            if a == b {
                vec![DiskId(a)]
            } else {
                vec![DiskId(a), DiskId(b)]
            }
        })
        .collect();
    ExplicitPlacement::new(locations, disks)
}

fn scheduler_kinds() -> Vec<SchedulerKind> {
    vec![
        SchedulerKind::Random,
        SchedulerKind::Static,
        SchedulerKind::Heuristic(CostFunction::default()),
        SchedulerKind::Wsc {
            cost: CostFunction::default(),
            interval: SimDuration::from_millis(100),
        },
    ]
}

/// The serial reference over an in-memory slice.
fn replay_serial(
    requests: &[Request],
    placement: &dyn LocationProvider,
    scheduler: &mut dyn Scheduler,
    config: &SystemConfig,
) -> RunMetrics {
    run_system_streamed(&mut slice_source(requests), placement, scheduler, config)
        .expect("sorted slice")
}

/// The production replay over an in-memory slice at `jobs` workers.
fn replay_jobs(
    requests: &[Request],
    placement: &(dyn LocationProvider + Sync),
    factory: &(dyn Fn() -> Box<dyn Scheduler> + Sync),
    config: &SystemConfig,
    jobs: usize,
) -> RunMetrics {
    run_system_streamed_with_jobs(
        &mut slice_source(requests),
        placement,
        factory,
        config,
        jobs,
    )
    .expect("sorted slice")
}

/// Zeroes the documented jobs-variant operational fields.
fn normalized(m: &RunMetrics) -> RunMetrics {
    let mut m = m.clone();
    m.peak_events = 0;
    m.peak_in_flight = 0;
    m.splitter_high_water = 0;
    m
}

fn config(disks: u32, seed: u64, sample: bool) -> SystemConfig {
    SystemConfig {
        disks,
        seed,
        power_sample: sample.then(|| SimDuration::from_secs(5)),
        ..SystemConfig::default()
    }
}

/// Runs the full scheduler × jobs matrix on one placement and pins every
/// parallel result to the serial oracle.
fn assert_matrix(
    name: &str,
    requests: &[Request],
    placement: &(dyn LocationProvider + Sync),
    config: &SystemConfig,
    seed: u64,
) {
    for kind in scheduler_kinds() {
        let factory =
            || build_scheduler(&kind, seed).expect("event-loop scheduler") as Box<dyn Scheduler>;
        let mut oracle = factory();
        let serial = replay_serial(requests, placement, oracle.as_mut(), config);
        let mut first_parallel: Option<RunMetrics> = None;
        for jobs in JOBS {
            let par = replay_jobs(requests, placement, &factory, config, jobs);
            assert_eq!(
                normalized(&par),
                normalized(&serial),
                "{name} {} jobs {jobs}: parallel differs from serial oracle",
                kind.label()
            );
            // Jobs variants must agree with each other on everything
            // except the timing-dependent splitter diagnostic.
            let mut stable = par;
            stable.splitter_high_water = 0;
            match &first_parallel {
                None => first_parallel = Some(stable),
                Some(first) => assert_eq!(
                    &stable,
                    first,
                    "{name} {} jobs {jobs}: jobs variants disagree",
                    kind.label()
                ),
            }
        }
    }
}

/// Two multi-island grouped placements (online + batch schedulers, power
/// sampling on the first) replay bit-identically for jobs ∈ {1, 2, 8}.
#[test]
fn grouped_islands_match_serial_oracle() {
    // 8 islands × 3 disks, 2 replicas inside the group, sampled.
    let requests = workload(1_000, 320, 6.0, 17);
    let placement = grouped_placement(data_space(&requests), 8, 3, 2);
    let partition = IslandPartition::from_provider(&placement);
    assert_eq!(partition.n_islands(), 8, "placement must shard");
    assert_matrix(
        "grouped-8x3",
        &requests,
        &placement,
        &config(24, 17, true),
        17,
    );

    // 5 islands × 4 disks, 3 replicas, denser load, no sampling.
    let requests = workload(1_400, 200, 12.0, 29);
    let placement = grouped_placement(data_space(&requests), 5, 4, 3);
    let partition = IslandPartition::from_provider(&placement);
    assert_eq!(partition.n_islands(), 5, "placement must shard");
    assert_matrix(
        "grouped-5x4",
        &requests,
        &placement,
        &config(20, 29, false),
        29,
    );
}

/// Replication ≥ 2 over a random placement usually connects every disk:
/// the partition must degenerate to one island and the parallel entry
/// point must equal the serial engine exactly — operational fields
/// included, because it *is* the serial engine then.
#[test]
fn replicated_placement_falls_back_to_single_island() {
    let requests = workload(900, 300, 6.0, 41);
    let placement = PlacementMap::build(
        data_space(&requests),
        &PlacementConfig {
            disks: 16,
            replication: 3,
            zipf_z: 1.0,
        },
        41,
    );
    let partition = IslandPartition::from_provider(&placement);
    assert!(
        partition.is_single(),
        "rf3 random placement should connect all disks"
    );
    let cfg = config(16, 41, true);
    for kind in scheduler_kinds() {
        let factory =
            || build_scheduler(&kind, 41).expect("event-loop scheduler") as Box<dyn Scheduler>;
        let mut oracle = factory();
        let serial = replay_serial(&requests, &placement, oracle.as_mut(), &cfg);
        for jobs in JOBS {
            let par = replay_jobs(&requests, &placement, &factory, &cfg, jobs);
            assert_eq!(par, serial, "{} jobs {jobs}", kind.label());
        }
    }
}

/// Replication 1 makes every disk its own island — maximal sharding (64
/// islands over 8 workers) must still replay bit-identically.
#[test]
fn unreplicated_placement_shards_per_disk() {
    let requests = workload(1_200, 500, 8.0, 53);
    let placement = PlacementMap::build(
        data_space(&requests),
        &PlacementConfig {
            disks: 64,
            replication: 1,
            zipf_z: 1.0,
        },
        53,
    );
    let partition = IslandPartition::from_provider(&placement);
    assert_eq!(
        partition.n_islands(),
        64,
        "rf1 must leave every disk isolated"
    );
    assert_matrix("rf1-64", &requests, &placement, &config(64, 53, false), 53);
}

/// A replica chain linking every disk into ONE island: the partition is
/// connected despite explicit placement, so the fallback serial path
/// must engage and match exactly.
#[test]
fn chain_placement_is_one_island() {
    let requests = workload(600, 240, 6.0, 67);
    let placement = chain_placement(data_space(&requests), 12);
    let partition = IslandPartition::from_provider(&placement);
    assert!(partition.is_single(), "chain must connect all disks");
    let cfg = config(12, 67, false);
    let factory = || {
        build_scheduler(&SchedulerKind::Heuristic(CostFunction::default()), 67)
            .expect("event-loop scheduler") as Box<dyn Scheduler>
    };
    let mut oracle = factory();
    let serial = replay_serial(&requests, &placement, oracle.as_mut(), &cfg);
    for jobs in JOBS {
        let par = replay_jobs(&requests, &placement, &factory, &cfg, jobs);
        assert_eq!(par, serial, "jobs {jobs}");
    }
}

/// A full multi-scheduler replay through the per-disk in-flight slab
/// reproduces digests recorded while a `HashMap` keyed by request index
/// still ran beside it and matched it exactly (the two stamped different
/// wire ids on disk requests; simulation, latencies, energies and peaks
/// did not differ).
#[test]
fn in_flight_runs_match_recorded_digests() {
    let requests = workload(1_000, 320, 8.0, 71);
    let placement = grouped_placement(data_space(&requests), 8, 3, 2);
    let cfg = config(24, 71, true);
    let recorded: [(&str, u64); 4] = [
        ("random", 0xb5e9_46bf_0177_4b6d),
        ("static", 0x0217_dd5c_7bef_3cd6),
        ("heuristic", 0x894e_9992_3ac6_4d9e),
        ("wsc", 0x1000_2894_d95c_20ab),
    ];
    for (kind, (label, want)) in scheduler_kinds().iter().zip(recorded) {
        assert_eq!(kind.label(), label);
        let mut sched = build_scheduler(kind, 71).expect("event-loop scheduler");
        let got = digest(&replay_serial(&requests, &placement, sched.as_mut(), &cfg));
        assert_eq!(
            got, want,
            "{label}: 0x{got:016x} drifted from the recorded run"
        );
    }
}

/// Zero requests: every island stays inert, and the merged metrics are
/// identical to the serial engine's empty run for any worker count.
#[test]
fn empty_stream_is_jobs_invariant() {
    let placement = grouped_placement(64, 4, 2, 2);
    let cfg = config(8, 5, true);
    let factory = || {
        build_scheduler(&SchedulerKind::Static, 5).expect("event-loop scheduler")
            as Box<dyn Scheduler>
    };
    let mut oracle = factory();
    let serial = replay_serial(&[], &placement, oracle.as_mut(), &cfg);
    assert_eq!(serial.requests, 0);
    for jobs in JOBS {
        let par = replay_jobs(&[], &placement, &factory, &cfg, jobs);
        assert_eq!(normalized(&par), normalized(&serial), "jobs {jobs}");
    }
}

/// The full adversarial stack at once: a heterogeneous fleet (every odd
/// disk on the Ultrastar preset), the quantile policy with per-disk
/// learned state and storm damping, mid-run disk failures, and a
/// flash-crowd workload — replayed through the whole scheduler × jobs
/// matrix against the serial oracle. Per-disk policy state, per-disk
/// effective power, and config-driven failure rerouting are all pure
/// functions of a disk's own history, so `--jobs` must still change
/// wall-clock, never bytes.
#[test]
fn heterogeneous_quantile_fleet_with_failures_is_jobs_invariant() {
    let trace = FlashCrowdLike {
        requests: 1_200,
        data_items: 320,
        arrivals: FlashCrowdProcess {
            base_rate: 1.0,
            burst_rate: 60.0,
            burst_every_s: 90.0,
            burst_duration_s: 8.0,
        },
        ..FlashCrowdLike::default()
    }
    .generate(97);
    let requests = requests_from_trace(&trace);
    // 8 islands × 3 disks, 2 replicas inside each group: failing one
    // replica reroutes island-locally, never across islands.
    let placement = grouped_placement(data_space(&requests), 8, 3, 2);
    let partition = IslandPartition::from_provider(&placement);
    assert_eq!(partition.n_islands(), 8, "placement must shard");
    let mut cfg = config(24, 97, true);
    cfg.policy = PolicyKind::Quantile;
    cfg.power_overrides = (0..24)
        .filter(|d| d % 2 == 1)
        .map(|d| (d, PowerParams::ultrastar()))
        .collect();
    cfg.failures = vec![
        DiskFailure {
            disk: 2,
            at: SimTime::from_secs(60),
        },
        DiskFailure {
            disk: 11,
            at: SimTime::from_secs(150),
        },
        DiskFailure {
            disk: 19,
            at: SimTime::from_secs(300),
        },
    ];
    assert_matrix("hetero-quantile-failures", &requests, &placement, &cfg, 97);
}

/// AlwaysOn policy (the normalization baseline) also replays
/// island-parallel bit-identically — the merge handles the no-spindown
/// power profile and its flat timeline.
#[test]
fn always_on_policy_is_jobs_invariant() {
    let requests = workload(700, 280, 6.0, 83);
    let placement = grouped_placement(data_space(&requests), 7, 2, 2);
    let mut cfg = config(14, 83, true);
    cfg.policy = PolicyKind::AlwaysOn;
    let factory = || {
        build_scheduler(&SchedulerKind::Static, 83).expect("event-loop scheduler")
            as Box<dyn Scheduler>
    };
    let mut oracle = factory();
    let serial = replay_serial(&requests, &placement, oracle.as_mut(), &cfg);
    for jobs in JOBS {
        let par = replay_jobs(&requests, &placement, &factory, &cfg, jobs);
        assert_eq!(normalized(&par), normalized(&serial), "jobs {jobs}");
    }
}

/// Degenerate configurations through the event loop, under every event
/// scheduler and the breakeven, always-on and quantile policies: zero
/// requests, one disk, every disk failed at t = 0 (replication 1 and 2),
/// and one failure after the last arrival. Each run must finish without
/// a panic, count every arrival in `requests`, and give the same digest
/// for every worker count.
#[test]
fn degenerate_configs_finish_with_jobs_invariant_digests() {
    let requests = workload(400, 120, 6.0, 113);
    let last = requests.last().expect("non-empty workload").at;
    let placement = |disks: u32, replication: u32| {
        PlacementMap::build(
            data_space(&requests),
            &PlacementConfig {
                disks,
                replication,
                zipf_z: 1.0,
            },
            113,
        )
    };
    let all_failed = |disks: u32| {
        (0..disks)
            .map(|disk| DiskFailure {
                disk,
                at: SimTime::ZERO,
            })
            .collect::<Vec<_>>()
    };
    let cases: [(&str, &[Request], PlacementMap, Vec<DiskFailure>); 5] = [
        ("zero requests", &[], placement(8, 2), Vec::new()),
        ("one disk", &requests, placement(1, 1), Vec::new()),
        (
            "all failed at 0, rf1",
            &requests,
            placement(8, 1),
            all_failed(8),
        ),
        (
            "all failed at 0, rf2",
            &requests,
            placement(8, 2),
            all_failed(8),
        ),
        (
            "failure after the last arrival",
            &requests,
            placement(8, 2),
            vec![DiskFailure {
                disk: 3,
                at: last + SimDuration::from_secs(1),
            }],
        ),
    ];
    for (name, reqs, placement, failures) in &cases {
        for policy in [
            PolicyKind::Breakeven,
            PolicyKind::AlwaysOn,
            PolicyKind::Quantile,
        ] {
            let mut cfg = config(placement.disks(), 113, true);
            cfg.policy = policy;
            cfg.failures = failures.clone();
            for kind in scheduler_kinds() {
                let factory = || {
                    build_scheduler(&kind, 113).expect("event-loop scheduler") as Box<dyn Scheduler>
                };
                let digests: Vec<u64> = JOBS
                    .iter()
                    .map(|&jobs| {
                        let m = replay_jobs(reqs, placement, &factory, &cfg, jobs);
                        assert_eq!(
                            m.requests,
                            reqs.len(),
                            "{name} {:?} {} jobs {jobs}: arrivals not counted",
                            cfg.policy,
                            kind.label()
                        );
                        digest(&m)
                    })
                    .collect();
                assert!(
                    digests.iter().all(|&d| d == digests[0]),
                    "{name} {:?} {}: digests differ across jobs {JOBS:?}: {digests:x?}",
                    cfg.policy,
                    kind.label()
                );
            }
        }
    }
}
