//! The greedy engine keeps one hot record per node and word-sized state
//! per 64-node block, and no per-node priority: a cold solve asks the
//! allocator for at most 12 bytes per node under GWMIN (an 8-byte hot
//! record) and 20 under GWMIN2 (a 16-byte one). A per-node tournament
//! tree alone would add 32. Measured with the counting allocator, which
//! this test binary installs as its global allocator.

mod common;

use common::csr_from_edges;
use spindown_alloctrack::{reset_thread_allocs, thread_bytes, CountingAlloc};
use spindown_graph::mwis::{self, GreedyScratch};
use spindown_graph::{CsrGraph, NodeId};
use spindown_sim::rng::SimRng;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A sparse instance: a ring of `n` nodes plus `n` random chords,
/// continuous positive weights.
fn sparse_graph(n: usize) -> CsrGraph {
    let mut rng = SimRng::seed_from_u64(0x9a11e5);
    let weights: Vec<f64> = (0..n).map(|_| 0.01 + rng.next_f64() * 9.99).collect();
    let mut edges: Vec<(NodeId, NodeId)> = (0..n)
        .map(|v| (v as NodeId, ((v + 1) % n) as NodeId))
        .collect();
    edges.extend((0..n).map(|_| (rng.index(n) as NodeId, rng.index(n) as NodeId)));
    csr_from_edges(weights, &edges)
}

/// Bytes per node one cold solve requests, with `out` reserved first.
fn cold_bytes_per_node(
    g: &CsrGraph,
    solve: fn(&CsrGraph, &mut GreedyScratch, &mut Vec<NodeId>),
) -> f64 {
    let mut out = Vec::with_capacity(g.len());
    let mut scratch = GreedyScratch::new();
    reset_thread_allocs();
    solve(g, &mut scratch, &mut out);
    let bytes = thread_bytes();
    assert!(!out.is_empty(), "empty selection");
    bytes as f64 / g.len() as f64
}

#[test]
fn cold_greedy_solves_request_a_hot_record_per_node() {
    let g = sparse_graph(60_000);
    let gwmin = cold_bytes_per_node(&g, mwis::gwmin_into);
    let gwmin2 = cold_bytes_per_node(&g, mwis::gwmin2_into);
    assert!(gwmin > 0.0, "counting allocator not installed");
    assert!(gwmin <= 12.0, "gwmin requested {gwmin:.2} bytes per node");
    assert!(
        gwmin2 <= 20.0,
        "gwmin2 requested {gwmin2:.2} bytes per node"
    );
}
