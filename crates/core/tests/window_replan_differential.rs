//! Seeded differential suite for the rolling-horizon incremental
//! re-planner.
//!
//! `WindowedPlanner::advance` maintains the window's conflict graph by
//! delta: it re-runs Step 1 only over each disk's resume region, then
//! rewrites the CSR in one pass that renumbers every surviving row and
//! applies the Step 2 rule to the new nodes. Its contract is
//! **bit-identity**: after every advance, the maintained graph must
//! equal `MwisPlanner::build_graph_with_jobs` on the same window — same
//! node triples, weights, degrees and request buckets — and the returned plan
//! must equal `MwisPlanner::plan` exactly (assignment and the
//! claimed-saving `f64`, no tolerance).
//!
//! The suite slides 100+ windows across seeded traces spanning sparse
//! to dense conflict structure and checks windows against two
//! references:
//!
//! * the from-scratch production path (`build_graph_with_jobs` / `plan`) on every
//!   window, with exact `PartialEq` on the graph and the plan, and
//! * on sampled windows, an all-pairs brute force over the maintained
//!   node table that states the Step 2 conflict rule directly — no
//!   request buckets, no Step 1 helpers — compared edge for edge.
//!
//! Every advance's node and edge counters (`ReplanStats`, which the
//! `replan` report prints) are checked against the node sets of the
//! windows on either side of it.
//!
//! Special windows are exercised explicitly: empty deltas (no retire,
//! no arrivals — must keep the graph and count no compaction), full
//! turnover (every request retires while a fresh batch arrives), and
//! compaction boundaries (every advance that retires or appends a node
//! counts exactly one; the counter pins the policy).

mod common;

use std::collections::HashSet;

use common::{brute_force_conflicts, edge_list};
use spindown_core::experiment::{data_space, requests_from_trace};
use spindown_core::model::Request;
use spindown_core::placement::{PlacementConfig, PlacementMap};
use spindown_core::sched::{MwisPlanner, MwisSolver, ReplanStats, WindowedPlanner};
use spindown_disk::power::PowerParams;
use spindown_sim::time::{SimDuration, SimTime};
use spindown_trace::synth::arrivals::OnOffProcess;
use spindown_trace::synth::{CelloLike, TraceGenerator};

/// Same bursty workload shape as the parallel-determinism suite:
/// `rate` relative to `requests`/`data_items` controls how densely
/// requests pack into each disk's saving window.
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

struct Instance {
    name: &'static str,
    requests: usize,
    data_items: usize,
    rate: f64,
    disks: u32,
    replication: u32,
    max_successors: usize,
    solver: MwisSolver,
    seed: u64,
    /// Arrivals admitted per window.
    step: usize,
    /// Window size cap in requests (the horizon trails the feed
    /// frontier by this many positions).
    cap: usize,
}

const INSTANCES: [Instance; 3] = [
    Instance {
        name: "sparse-rf1",
        requests: 900,
        data_items: 600,
        rate: 3.0,
        disks: 16,
        replication: 1,
        max_successors: 3,
        solver: MwisSolver::GwMin,
        seed: 11,
        step: 20,
        cap: 160,
    },
    Instance {
        name: "moderate-rf3",
        requests: 1_000,
        data_items: 300,
        rate: 6.0,
        disks: 20,
        replication: 3,
        max_successors: 8,
        solver: MwisSolver::GwMin2,
        seed: 23,
        step: 25,
        cap: 200,
    },
    Instance {
        name: "dense-rf5",
        requests: 600,
        data_items: 100,
        rate: 12.0,
        disks: 12,
        replication: 5,
        max_successors: 16,
        solver: MwisSolver::GwMin,
        seed: 37,
        step: 20,
        cap: 120,
    },
];

impl Instance {
    fn workload(&self) -> (Vec<Request>, PlacementMap) {
        let requests = workload(self.requests, self.data_items, self.rate, self.seed);
        let placement = PlacementMap::build(
            data_space(&requests),
            &PlacementConfig {
                disks: self.disks,
                replication: self.replication,
                zipf_z: 1.0,
            },
            self.seed,
        );
        (requests, placement)
    }

    fn planner(&self) -> MwisPlanner {
        MwisPlanner {
            params: PowerParams::barracuda(),
            solver: self.solver,
            max_successors: self.max_successors,
        }
    }
}

/// Rebases a window slice so `index == position` — the shape both
/// `MwisPlanner::plan` and `WindowedPlanner` windows use.
fn rebase(window: &[Request]) -> Vec<Request> {
    window
        .iter()
        .enumerate()
        .map(|(p, r)| Request {
            index: p as u32,
            ..*r
        })
        .collect()
}

/// Checks one settled window against the from-scratch CSR oracle and
/// (when `check_pairs`) the all-pairs Step 2 brute force. The CSR graph
/// is built once and reused for the plan derivation — the same pipeline
/// `MwisPlanner::plan` runs internally.
#[allow(clippy::too_many_arguments)]
fn check_window(
    inst: &Instance,
    planner: &MwisPlanner,
    placement: &PlacementMap,
    w: &WindowedPlanner,
    window: &[Request],
    got: &(spindown_core::model::Assignment, f64),
    check_pairs: bool,
    label: &str,
) {
    let ctx = format!("{} {label}", inst.name);
    assert_eq!(w.window(), window, "{ctx}: window contents");

    // CSR backend: graph and plan, exact equality.
    let oracle = planner.build_graph_with_jobs(window, placement, 1);
    assert_eq!(w.graph().nodes, oracle.nodes, "{ctx}: node table");
    assert_eq!(w.graph().graph, oracle.graph, "{ctx}: CSR graph");
    let sel = planner.solve(&oracle);
    let (want_a, want_s) =
        planner.derive_plan(window, placement, &oracle.graph, &oracle.nodes, &sel);
    assert_eq!(got.0.disks, want_a.disks, "{ctx}: assignment");
    assert_eq!(got.1, want_s, "{ctx}: claimed saving (bitwise)");

    if !check_pairs {
        return;
    }
    // Step 2 by brute force over every node pair, O(n²), so sampled
    // rather than run on every window.
    assert_eq!(
        edge_list(w.graph()),
        brute_force_conflicts(&w.graph().nodes),
        "{ctx}: conflict edges vs all-pairs brute force"
    );
}

/// A node triple keyed by absolute request positions, so triples of
/// consecutive windows compare.
type Triple = (usize, usize, u32);

/// Checks one advance's node and edge counters against the node sets of
/// the windows on either side of it (`first` is the new window's first
/// absolute position): a node is appended iff its triple was not in the
/// previous window, retired iff it left, and an edge is staged iff it
/// has an appended endpoint. Returns the new window's triples.
fn check_counters(
    inst: &Instance,
    w: &WindowedPlanner,
    before: &ReplanStats,
    prev: &HashSet<Triple>,
    first: usize,
) -> HashSet<Triple> {
    let cg = w.graph();
    let triples: Vec<Triple> = cg
        .nodes
        .iter()
        .map(|&(i, j, k)| (first + i as usize, first + j as usize, k.0))
        .collect();
    let appended: Vec<bool> = triples.iter().map(|t| !prev.contains(t)).collect();
    let new_nodes = appended.iter().filter(|&&a| a).count();
    let staged = edge_list(cg)
        .iter()
        .filter(|&&(u, v)| appended[u as usize] || appended[v as usize])
        .count();
    let now = w.stats();
    let name = inst.name;
    assert_eq!(
        now.appended_nodes_total - before.appended_nodes_total,
        new_nodes as u64,
        "{name}: appended nodes"
    );
    assert_eq!(
        now.retired_nodes_total - before.retired_nodes_total,
        (prev.len() + new_nodes - triples.len()) as u64,
        "{name}: retired nodes"
    );
    assert_eq!(
        now.staged_edges_total - before.staged_edges_total,
        staged as u64,
        "{name}: staged edges"
    );
    triples.into_iter().collect()
}

/// Slides the full schedule over one instance, checking every window.
/// Returns the number of windows driven.
fn drive(inst: &Instance) -> u64 {
    let (reqs, placement) = inst.workload();
    let planner = inst.planner();
    let mut w = WindowedPlanner::new(planner.clone(), inst.disks, 1);
    let mut fed = 0usize;
    let mut dirty_advances = 0u64;
    let mut prev = HashSet::new();
    while fed < reqs.len() {
        let feed_to = (fed + inst.step).min(reqs.len());
        let arrivals = rebase(&reqs[fed..feed_to]);
        fed = feed_to;
        let horizon = reqs[fed.saturating_sub(inst.cap)].at;
        let before = *w.stats();
        let got = w.advance(&arrivals, horizon, &placement);
        dirty_advances += 1;

        // Oracle window: the fed prefix minus the retired time-prefix.
        let start = reqs.partition_point(|r| r.at < horizon);
        let window = rebase(&reqs[start..fed]);
        prev = check_counters(inst, &w, &before, &prev, start);
        check_window(
            inst,
            &planner,
            &placement,
            &w,
            &window,
            &got,
            dirty_advances % 8 == 1,
            &format!("window@{fed}"),
        );

        // Compaction boundary: every dirty advance compacts exactly
        // once (each one here retires or appends a node).
        assert_eq!(
            w.stats().compactions,
            dirty_advances,
            "{}: compaction per dirty advance",
            inst.name
        );

        // Every 10th window: an empty delta — same horizon, no
        // arrivals. Must skip compaction and reproduce the same plan.
        if w.stats().windows.is_multiple_of(10) {
            let again = w.advance(&[], horizon, &placement);
            assert_eq!(got, again, "{}: empty delta re-plan", inst.name);
            assert_eq!(
                w.stats().compactions,
                dirty_advances,
                "{}: empty delta must not compact",
                inst.name
            );
        }
    }

    // Full turnover: retire the entire surviving window while a
    // shifted copy of the opening chunk arrives.
    let last = reqs.last().unwrap().at;
    let turnover: Vec<Request> = reqs[..inst.cap.min(reqs.len())]
        .iter()
        .map(|r| Request {
            at: last + SimDuration::from_secs(3600) + (r.at - SimTime::from_secs(0)),
            ..*r
        })
        .collect();
    let horizon = last + SimDuration::from_secs(1);
    let before = *w.stats();
    let got = w.advance(&turnover, horizon, &placement);
    let window = rebase(&turnover);
    // The shifted copy sits past every fed position.
    check_counters(inst, &w, &before, &prev, reqs.len());
    check_window(
        inst, &planner, &placement, &w, &window, &got, true, "turnover",
    );
    assert_eq!(
        w.stats().retired_requests_total + w.stats().window_requests as u64,
        w.stats().arrived_requests_total,
        "{}: every arrival is eventually retired or still windowed",
        inst.name
    );

    w.stats().windows
}

// Per-instance floors sum past the suite's advertised 100-window
// coverage floor (48 + 44 + 33 = 125); each test pins its own count so
// a workload change can't silently shrink coverage.

#[test]
fn sparse_rf1_windows_are_bit_identical() {
    assert!(drive(&INSTANCES[0]) >= 48);
}

#[test]
fn moderate_rf3_windows_are_bit_identical() {
    assert!(drive(&INSTANCES[1]) >= 44);
}

#[test]
fn dense_rf5_windows_are_bit_identical() {
    assert!(drive(&INSTANCES[2]) >= 33);
}
