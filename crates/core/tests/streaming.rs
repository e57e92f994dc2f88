//! Differential tests: the streaming ingestion path (two-pass
//! `scan_stream` + `StreamRequests` + `run_system_streamed`) must be
//! bit-identical to the materialized oracle (`requests_from_trace` +
//! `slice_source` through the same serial replay) for every event-loop
//! scheduler, and its buffering must stay bounded by in-flight work
//! rather than trace length.

use spindown_core::cost::CostFunction;
use spindown_core::experiment::{
    build_scheduler, data_space, requests_from_trace, scan_stream, SchedulerKind,
};
use spindown_core::model::{DataId, Request};
use spindown_core::placement::{PlacementConfig, PlacementMap};
use spindown_core::sched::ExplicitPlacement;
use spindown_core::system::{
    run_system_streamed, slice_source, PolicyKind, SourceError, SystemConfig,
};
use spindown_sim::time::{SimDuration, SimTime};
use spindown_trace::record::{Trace, TraceRecord};
use spindown_trace::stream::StreamError;
use spindown_trace::synth::arrivals::OnOffProcess;
use spindown_trace::synth::{CelloLike, FinancialLike, TraceGenerator};

fn event_loop_schedulers() -> Vec<SchedulerKind> {
    vec![
        SchedulerKind::Random,
        SchedulerKind::Static,
        SchedulerKind::Heuristic(CostFunction::energy_only()),
        SchedulerKind::Wsc {
            cost: CostFunction::energy_only(),
            interval: SimDuration::from_millis(100),
        },
    ]
}

fn test_config(disks: u32) -> SystemConfig {
    SystemConfig {
        disks,
        policy: PolicyKind::Breakeven,
        power_sample: Some(SimDuration::from_secs(5)),
        seed: 11,
        ..SystemConfig::default()
    }
}

/// Runs every scheduler over `trace` via both paths and asserts the
/// full `RunMetrics` are identical. `make_stream` must replay the same
/// records on every call (re-seeded generator = re-opened file).
fn assert_stream_matches_oracle<S>(trace: &Trace, make_stream: impl Fn() -> S)
where
    S: Iterator<Item = TraceRecord>,
{
    const DISKS: u32 = 24;
    const SEED: u64 = 17;
    let pcfg = PlacementConfig {
        disks: DISKS,
        replication: 3,
        zipf_z: 1.0,
    };
    let config = test_config(DISKS);

    let reqs = requests_from_trace(trace);
    let scan = scan_stream(make_stream().map(Ok::<_, StreamError>)).expect("in-memory scan");
    assert_eq!(scan.reads(), reqs.len(), "pass one must count the reads");
    assert_eq!(
        scan.data_space(),
        data_space(&reqs),
        "pass one must recover the dense id space"
    );
    assert_eq!(
        scan.span_s(),
        reqs.last().map(|r| r.at.as_secs_f64()).unwrap_or(0.0),
        "pass one must recover the rebased span"
    );

    for kind in event_loop_schedulers() {
        let label = kind.label();

        let placement = PlacementMap::build(data_space(&reqs), &pcfg, SEED);
        let mut sched = build_scheduler(&kind, SEED).expect("event-loop scheduler");
        let oracle = run_system_streamed(
            &mut slice_source(&reqs),
            &placement,
            sched.as_mut(),
            &config,
        )
        .expect("sorted slice");

        let placement = PlacementMap::build(scan.data_space(), &pcfg, SEED);
        let mut sched = build_scheduler(&kind, SEED).expect("event-loop scheduler");
        let mut source = scan
            .clone()
            .requests(make_stream().map(Ok::<_, StreamError>));
        let streamed = run_system_streamed(&mut source, &placement, sched.as_mut(), &config)
            .expect("streamed replay of an in-memory trace");

        assert_eq!(streamed, oracle, "{label}: streamed != materialized");
    }
}

#[test]
fn cello_stream_matches_materialized_oracle() {
    let gen = CelloLike {
        requests: 3_000,
        data_items: 800,
        ..CelloLike::default()
    };
    let trace = gen.generate(5);
    assert_stream_matches_oracle(&trace, || gen.stream(5));
}

#[test]
fn financial_stream_with_writes_matches_materialized_oracle() {
    // write_fraction > 0 exercises the reads-only filter in both passes.
    let gen = FinancialLike {
        requests: 2_500,
        data_items: 600,
        write_fraction: 0.2,
        ..FinancialLike::default()
    };
    let trace = gen.generate(9);
    assert_stream_matches_oracle(&trace, || gen.stream(9));
}

#[test]
fn streamed_event_queue_peak_is_independent_of_trace_length() {
    // Residual queue occupancy comes from stale idle-timer tokens, which
    // are bounded by arrival rate × idle threshold (stationary), never by
    // trace length. Doubling the trace must leave the peak essentially
    // flat — the constant-memory property of streamed ingestion.
    const DISKS: u32 = 24;
    let run = |n: usize| {
        let gen = CelloLike {
            requests: n,
            data_items: 1_000,
            arrivals: OnOffProcess {
                burst_rate: 50.0,
                ..CelloLike::default().arrivals
            },
            ..CelloLike::default()
        };
        let pcfg = PlacementConfig {
            disks: DISKS,
            replication: 3,
            zipf_z: 1.0,
        };
        let scan = scan_stream(gen.stream(2).map(Ok::<_, StreamError>)).unwrap();
        let placement = PlacementMap::build(scan.data_space(), &pcfg, 1);
        let mut sched = build_scheduler(&SchedulerKind::Heuristic(CostFunction::energy_only()), 1)
            .expect("event-loop scheduler");
        let mut source = scan.requests(gen.stream(2).map(Ok::<_, StreamError>));
        let m = run_system_streamed(&mut source, &placement, sched.as_mut(), &test_config(DISKS))
            .unwrap();
        assert_eq!(m.requests, n);
        assert!(
            m.peak_in_flight < n,
            "in-flight never holds the whole trace"
        );
        m.peak_events
    };
    let peak_5k = run(5_000);
    let peak_10k = run(10_000);
    assert!(
        peak_10k < peak_5k * 3 / 2,
        "peak grew with trace length: {peak_5k} @5k vs {peak_10k} @10k"
    );
}

fn req(index: u32, at_s: f64) -> Request {
    Request {
        index,
        at: SimTime::from_secs_f64(at_s),
        data: DataId(0),
        size: 512 * 1024,
    }
}

fn tiny_placement() -> ExplicitPlacement {
    ExplicitPlacement::new(vec![vec![spindown_core::model::DiskId(0)]], 1)
}

#[test]
fn out_of_order_source_fails_fast() {
    let placement = tiny_placement();
    let mut sched = build_scheduler(&SchedulerKind::Static, 1).unwrap();
    let config = SystemConfig {
        disks: 1,
        ..SystemConfig::default()
    };
    let mut source = vec![Ok(req(0, 1.0)), Ok(req(1, 0.5))].into_iter();
    let err = run_system_streamed(&mut source, &placement, sched.as_mut(), &config)
        .expect_err("time regression must fail");
    assert!(err.0.contains("sorted"), "unexpected message: {err}");
}

#[test]
fn source_error_propagates_verbatim() {
    let placement = tiny_placement();
    let mut sched = build_scheduler(&SchedulerKind::Static, 1).unwrap();
    let config = SystemConfig {
        disks: 1,
        ..SystemConfig::default()
    };
    let mut source = vec![
        Ok(req(0, 0.0)),
        Err(SourceError::new("mid-stream parse failure")),
    ]
    .into_iter();
    let err = run_system_streamed(&mut source, &placement, sched.as_mut(), &config)
        .expect_err("source error must surface");
    assert_eq!(err, SourceError::new("mid-stream parse failure"));
}

#[test]
fn empty_source_runs_clean() {
    let placement = tiny_placement();
    let mut sched = build_scheduler(&SchedulerKind::Static, 1).unwrap();
    let config = SystemConfig {
        disks: 1,
        ..SystemConfig::default()
    };
    let mut source = std::iter::empty::<Result<Request, SourceError>>();
    let m = run_system_streamed(&mut source, &placement, sched.as_mut(), &config).unwrap();
    assert_eq!(m.requests, 0);
    assert_eq!(m.peak_events, 0);
    assert_eq!(m.peak_in_flight, 0);
}
