//! The offline MWIS graph build makes a constant number of heap
//! allocations whatever the stream length: the per-disk request lists
//! and the per-request node buckets are flat counting-sort tables, and
//! the CSR offsets and neighbors are each allocated once at their exact
//! size. Only the two node-table vectors grow by doubling. The
//! rolling-horizon planner's cold start runs that build, so it keeps the
//! same bound. Measured with the counting allocator, which this test
//! binary installs as its global allocator.

use spindown_alloctrack::{reset_thread_allocs, thread_allocs, CountingAlloc};
use spindown_core::experiment::{data_space, requests_from_trace};
use spindown_core::model::Request;
use spindown_core::placement::{PlacementConfig, PlacementMap};
use spindown_core::sched::{MwisPlanner, MwisSolver, WindowedPlanner};
use spindown_disk::power::PowerParams;
use spindown_sim::time::SimTime;
use spindown_trace::synth::arrivals::OnOffProcess;
use spindown_trace::synth::{CelloLike, TraceGenerator};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `requests` bursty requests on 20 disks at replication 3, with the
/// planner both tests run on them.
fn fixture(requests: usize) -> (Vec<Request>, PlacementMap, MwisPlanner) {
    let trace = CelloLike {
        requests,
        data_items: 400,
        arrivals: OnOffProcess {
            sources: 8,
            on_shape: 1.5,
            on_scale_s: 2.0,
            off_shape: 1.3,
            off_scale_s: 30.0,
            burst_rate: 6.0,
        },
        ..CelloLike::default()
    }
    .generate(23);
    let requests = requests_from_trace(&trace);
    let placement = PlacementMap::build(
        data_space(&requests),
        &PlacementConfig {
            disks: 20,
            replication: 3,
            zipf_z: 1.0,
        },
        23,
    );
    let planner = MwisPlanner {
        params: PowerParams::barracuda(),
        solver: MwisSolver::GwMin,
        max_successors: 8,
    };
    (requests, placement, planner)
}

/// Allocations of one `jobs = 1` build over the `requests` fixture, with
/// its node and edge counts.
fn build_allocs(requests: usize) -> (u64, usize, usize) {
    let (requests, placement, planner) = fixture(requests);
    reset_thread_allocs();
    let cg = planner.build_graph_with_jobs(&requests, &placement, 1);
    let allocs = thread_allocs();
    (allocs, cg.nodes.len(), cg.graph.edge_count())
}

/// Allocations of a `WindowedPlanner`'s first advance, which loads the
/// whole `requests` fixture as its window, with the window's node count.
fn cold_start_allocs(requests: usize) -> (u64, usize) {
    let (requests, placement, planner) = fixture(requests);
    let mut w = WindowedPlanner::new(planner, 20, 1);
    reset_thread_allocs();
    w.advance_window(&requests, SimTime::ZERO, &placement);
    let allocs = thread_allocs();
    (allocs, w.graph().nodes.len())
}

#[test]
fn build_allocations_do_not_grow_with_the_stream() {
    let (small, small_nodes, small_edges) = build_allocs(1_000);
    let (large, large_nodes, large_edges) = build_allocs(4_000);
    assert!(small > 0, "counting allocator not installed");
    assert!(
        large_nodes >= 3 * small_nodes && large_edges >= 3 * small_edges,
        "the large build must be substantively larger: \
         {small_nodes} -> {large_nodes} nodes, {small_edges} -> {large_edges} edges"
    );
    // Four times the nodes is two more doublings of each node-table
    // vector, three if the node count grows a little past 4x; anything
    // that allocates per request or per node blows far past this.
    assert!(
        large <= small + 8,
        "{small} allocations for {small_nodes} nodes, {large} for {large_nodes}"
    );
}

#[test]
fn windowed_cold_start_allocations_do_not_grow_with_the_stream() {
    let (small, small_nodes) = cold_start_allocs(1_000);
    let (large, large_nodes) = cold_start_allocs(4_000);
    assert!(small > 0, "counting allocator not installed");
    assert!(
        large_nodes >= 3 * small_nodes,
        "{small_nodes} -> {large_nodes} nodes"
    );
    // The cold start is the build above plus a rebased copy of the
    // window, so it has the same budget.
    assert!(
        large <= small + 8,
        "{small} allocations for {small_nodes} nodes, {large} for {large_nodes}"
    );
}
