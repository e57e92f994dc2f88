//! The neighbor interface the MWIS solvers read.
//!
//! [`Adjacency`] is everything [`crate::mwis`] asks of a graph: the node
//! count, node weights and degrees, three neighbor walks and an edge
//! test.
//! [`CsrGraph`](crate::CsrGraph) implements it from stored, sorted
//! neighbor slices and is the reference for arbitrary graphs. A graph
//! whose edges follow from a rule over its nodes can implement it with
//! no stored edges at all: the offline planner's conflict graph
//! (`spindown_core::sched::mwis::ConflictGraph`) derives each
//! neighborhood from its node table and per-request node buckets on
//! every walk.
//!
//! The ascending and the unordered walk differ only in order. The
//! ascending walk fixes the order where a result depends on it (a
//! floating-point sum over the neighborhood, a scan of candidates); the
//! unordered walk serves every caller that only counts, marks or
//! visits. It defaults to the ascending walk, and a graph that derives
//! its neighborhoods may override it with a cheaper one. The live walk
//! is the unordered walk restricted to the neighbors whose bit is set in
//! a word-packed alive set ([`crate::bitset`]), the greedy solvers'
//! remaining graph. It defaults to filtering the unordered walk; a graph
//! that derives its neighborhoods may override it to test the bit before
//! it derives the edge, so a dead candidate costs no edge test.

use crate::bitset;
use crate::NodeId;

/// A node-weighted undirected graph over the dense ids `0..len()`, read
/// through neighbor walks. Every walk visits each neighbor of `v` exactly
/// once and never `v` itself.
pub trait Adjacency {
    /// Number of nodes.
    fn len(&self) -> usize;

    /// `true` if the graph has no nodes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Weight of node `v`.
    fn weight(&self, v: NodeId) -> f64;

    /// Number of neighbors of `v`.
    fn degree(&self, v: NodeId) -> usize;

    /// Calls `f` on every neighbor of `v`, in ascending id order.
    fn for_each_neighbor(&self, v: NodeId, f: impl FnMut(NodeId));

    /// Calls `f` on every neighbor of `v`, in an order the implementation
    /// chooses; by default, the ascending walk.
    fn for_each_neighbor_unordered(&self, v: NodeId, f: impl FnMut(NodeId)) {
        self.for_each_neighbor(v, f);
    }

    /// Calls `f` on every neighbor `u` of `v` whose bit is set in
    /// `alive` (the [`bitset`] layout over `0..len()`), in an order the
    /// implementation chooses; by default, the unordered walk filtered
    /// by the alive bit.
    fn for_each_live_neighbor(&self, v: NodeId, alive: &[u64], mut f: impl FnMut(NodeId)) {
        self.for_each_neighbor_unordered(v, |u| {
            if bitset::test(alive, u as usize) {
                f(u);
            }
        });
    }

    /// `true` if the edge `{u, v}` exists.
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool;

    /// `true` if `nodes` is an independent set: in range, no duplicates,
    /// pairwise non-adjacent.
    fn is_independent_set(&self, nodes: &[NodeId]) -> bool {
        let mut mark = vec![false; self.len()];
        for &v in nodes {
            if (v as usize) >= self.len() || mark[v as usize] {
                return false;
            }
            mark[v as usize] = true;
        }
        let mut independent = true;
        for &v in nodes {
            self.for_each_neighbor_unordered(v, |u| independent &= !mark[u as usize]);
        }
        independent
    }
}
