//! Compressed-sparse-row (CSR) graph storage.
//!
//! [`CsrGraph`] is the crate's graph type: the whole adjacency lives in
//! two flat arrays (`offsets` + `neighbors`) instead of one
//! heap-allocated `Vec` per node. That buys the MWIS solvers' deletion
//! cascades contiguous, prefetch-friendly neighbor scans — the dominant
//! cost at conflict-graph scale — and, because each node's neighbor slice
//! is sorted ascending, an `O(log d)` binary-search
//! [`has_edge`](CsrGraph::has_edge).
//!
//! The layout is immutable by design. A producer that can write sorted
//! neighbor slices directly — the MWIS conflict-graph build, which fills
//! them node by node, and the rolling-horizon re-planner, which writes
//! each window's graph row by row — hands the finished arrays to
//! [`CsrGraph::from_sorted_parts`]; tests and small callers build from a
//! list of unique edges with [`CsrGraph::from_unique_edges`]. A graph
//! that changes between solves is rebuilt as a fresh `CsrGraph`, reusing
//! the previous one's arenas through [`CsrGraph::into_parts`].

use crate::NodeId;

/// An immutable node-weighted undirected graph in CSR layout.
///
/// Node `v`'s neighbors occupy
/// `neighbors[offsets[v] .. offsets[v + 1]]`, sorted ascending and
/// deduplicated. Weights are indexed by node id.
///
/// # Examples
///
/// ```
/// use spindown_graph::CsrGraph;
///
/// let g = CsrGraph::from_unique_edges(vec![1.0, 2.0, 3.0], &[(2, 0), (0, 1)]);
/// assert_eq!(g.neighbors(0), &[1, 2], "adjacency is sorted");
/// assert!(g.has_edge(0, 2));
/// assert_eq!(g.degree(0), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrGraph {
    weights: Vec<f64>,
    /// `n + 1` running half-edge counts; node `v` owns
    /// `neighbors[offsets[v] as usize .. offsets[v + 1] as usize]`.
    offsets: Vec<u32>,
    /// Concatenated adjacency, sorted ascending within each node's slice.
    neighbors: Vec<NodeId>,
    edges: usize,
}

/// The empty graph, laid out exactly as every built empty graph is
/// (`offsets == [0]`), so it compares equal to
/// `CsrGraph::from_unique_edges(vec![], &[])`.
impl Default for CsrGraph {
    fn default() -> Self {
        CsrGraph {
            weights: Vec::new(),
            offsets: vec![0],
            neighbors: Vec::new(),
            edges: 0,
        }
    }
}

impl CsrGraph {
    /// Builds the CSR layout from a list of **unique** undirected edge
    /// records in one counting pass plus one ordered scatter: degrees are
    /// counted, offsets prefix-summed, and every half-edge written
    /// straight into its final slot of a single exactly-sized neighbor
    /// allocation. Each node's slice is then sorted ascending. `O(E + n)`
    /// plus the per-slice sorts.
    ///
    /// The caller guarantees no duplicate records (each undirected edge
    /// appears exactly once, in either orientation). Debug builds verify
    /// the guarantee after sorting and panic on a duplicate; release
    /// builds trust the caller. Self-loops are skipped.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or the half-edge count
    /// overflows the `u32` offset space.
    pub fn from_unique_edges(weights: Vec<f64>, edges: &[(NodeId, NodeId)]) -> CsrGraph {
        let n = weights.len();
        // Counting pass: exact per-node half-edge counts.
        let mut deg = vec![0u32; n];
        let mut count = 0usize;
        for &(u, v) in edges {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge endpoint out of range"
            );
            if u != v {
                deg[u as usize] += 1;
                deg[v as usize] += 1;
                count += 1;
            }
        }
        let half = 2 * count;
        assert!(
            half <= u32::MAX as usize,
            "CSR offsets are u32: {half} half-edges exceed u32::MAX"
        );
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut acc = 0u32;
        for &d in &deg {
            acc += d;
            offsets.push(acc);
        }
        // Ordered scatter into one exactly-sized allocation; `deg` is
        // reused as each node's write cursor.
        let mut neighbors = vec![0 as NodeId; half];
        deg.copy_from_slice(&offsets[..n]);
        let cursor = &mut deg;
        for &(u, v) in edges {
            if u != v {
                neighbors[cursor[u as usize] as usize] = v;
                cursor[u as usize] += 1;
                neighbors[cursor[v as usize] as usize] = u;
                cursor[v as usize] += 1;
            }
        }
        for v in 0..n {
            let slice = &mut neighbors[offsets[v] as usize..offsets[v + 1] as usize];
            slice.sort_unstable();
            debug_assert!(
                slice.windows(2).all(|w| w[0] < w[1]),
                "from_unique_edges: duplicate edge at node {v}"
            );
        }
        CsrGraph::from_sorted_parts(weights, offsets, neighbors, count)
    }

    /// Assembles a CSR graph from its flat arrays: node `v`'s neighbors
    /// are `neighbors[offsets[v]..offsets[v + 1]]`. The caller
    /// guarantees the invariants: `offsets` has `weights.len() + 1`
    /// non-decreasing entries from 0 to `neighbors.len() == 2 * edges`,
    /// each slice is strictly ascending with in-range, non-self entries,
    /// and the adjacency is symmetric. Producers that write sorted slices
    /// directly (the conflict-graph build, the windowed re-planner) use this
    /// to skip any re-sort or per-node allocation.
    ///
    /// Debug builds check every invariant, symmetry by a binary search
    /// for each half-edge's twin in the partner's slice, and panic on a
    /// violation; release builds trust the caller.
    pub fn from_sorted_parts(
        weights: Vec<f64>,
        offsets: Vec<u32>,
        neighbors: Vec<NodeId>,
        edges: usize,
    ) -> CsrGraph {
        let graph = CsrGraph {
            weights,
            offsets,
            neighbors,
            edges,
        };
        #[cfg(debug_assertions)]
        graph.debug_check_parts();
        graph
    }

    /// The invariants [`from_sorted_parts`](CsrGraph::from_sorted_parts)
    /// trusts its caller for.
    #[cfg(debug_assertions)]
    fn debug_check_parts(&self) {
        let n = self.weights.len();
        assert_eq!(
            self.offsets.len(),
            n + 1,
            "from_sorted_parts: offsets length"
        );
        assert_eq!(self.offsets[0], 0, "from_sorted_parts: offsets start at 0");
        assert!(
            self.offsets.windows(2).all(|w| w[0] <= w[1]),
            "from_sorted_parts: offsets decrease"
        );
        assert_eq!(self.offsets[n] as usize, self.neighbors.len());
        assert_eq!(self.neighbors.len(), 2 * self.edges);
        for v in 0..n as NodeId {
            let slice = self.neighbors(v);
            assert!(
                slice.windows(2).all(|w| w[0] < w[1]),
                "from_sorted_parts: slice {v} not strictly ascending"
            );
            for &u in slice {
                assert!(
                    (u as usize) < n && u != v,
                    "from_sorted_parts: slice {v} has an out-of-range or self-loop entry"
                );
                assert!(
                    self.neighbors(u).binary_search(&v).is_ok(),
                    "from_sorted_parts: half-edge {v}-{u} has no twin"
                );
            }
        }
    }

    /// Disassembles the graph into its `(weights, offsets, neighbors)`
    /// arenas so a caller that cycles through graph generations (the
    /// rolling-horizon planner) can write the next generation into their
    /// capacity instead of re-faulting fresh pages every window.
    pub fn into_parts(self) -> (Vec<f64>, Vec<u32>, Vec<NodeId>) {
        (self.weights, self.offsets, self.neighbors)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Number of (undirected) edges.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Weight of node `v`.
    pub fn weight(&self, v: NodeId) -> f64 {
        self.weights[v as usize]
    }

    /// All node weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Neighbors of `v`, sorted ascending.
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.neighbors[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// `true` if the edge `{u, v}` exists — binary search in the smaller
    /// endpoint's sorted slice, `O(log min-degree)`.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Sum of all node weights.
    pub fn total_weight(&self) -> f64 {
        self.weights.iter().sum()
    }

    /// Sum of weights over `nodes`.
    pub fn set_weight_sum(&self, nodes: &[NodeId]) -> f64 {
        nodes.iter().map(|&v| self.weight(v)).sum()
    }

    /// `true` if `nodes` is an independent set (pairwise non-adjacent,
    /// no duplicates).
    pub fn is_independent_set(&self, nodes: &[NodeId]) -> bool {
        let mut mark = vec![false; self.len()];
        for &v in nodes {
            if (v as usize) >= self.len() || mark[v as usize] {
                return false;
            }
            mark[v as usize] = true;
        }
        for &v in nodes {
            if self.neighbors(v).iter().any(|&u| mark[u as usize]) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_unique_edges_sorts_and_skips_self_loops() {
        let g = CsrGraph::from_unique_edges(
            vec![1.0, 2.0, 3.0, 4.0],
            &[(3, 0), (1, 0), (2, 2), (2, 0)],
        );
        assert_eq!(g.len(), 4);
        assert_eq!(g.edge_count(), 3, "self-loop skipped");
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.neighbors(2), &[0]);
        assert_eq!(g.neighbors(3), &[0]);
        assert_eq!(g.degree(0), 3);
        assert!(g.has_edge(0, 3) && g.has_edge(3, 0));
        assert!(!g.has_edge(1, 2));
        assert_eq!(g.weight(3), 4.0);
        assert_eq!(g.total_weight(), 10.0);
        assert_eq!(g.set_weight_sum(&[1, 3]), 6.0);
        let (weights, offsets, neighbors) = g.into_parts();
        assert_eq!(weights, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(offsets, vec![0, 3, 4, 5, 6]);
        assert_eq!(neighbors, vec![1, 2, 3, 0, 0, 0]);
    }

    #[test]
    fn empty_and_isolated() {
        let empty = CsrGraph::from_unique_edges(Vec::new(), &[]);
        assert!(empty.is_empty());
        assert_eq!(empty.edge_count(), 0);
        assert!(empty.is_independent_set(&[]));

        let iso = CsrGraph::from_unique_edges(vec![1.0; 3], &[]);
        assert_eq!(iso.len(), 3);
        assert_eq!(iso.degree(1), 0);
        assert!(iso.neighbors(1).is_empty());
        assert!(iso.is_independent_set(&[0, 1, 2]));
    }

    #[test]
    fn default_is_the_built_empty_graph() {
        assert_eq!(
            CsrGraph::default(),
            CsrGraph::from_unique_edges(vec![], &[])
        );
        assert_eq!(CsrGraph::default().into_parts().1, vec![0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_unique_edges_bounds_checked() {
        CsrGraph::from_unique_edges(vec![1.0; 2], &[(0, 7)]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "duplicate edge")]
    fn from_unique_edges_catches_duplicates_in_debug() {
        CsrGraph::from_unique_edges(vec![1.0; 3], &[(0, 1), (1, 0)]);
    }

    #[test]
    fn from_sorted_parts_assembles_the_parts() {
        // Path 0 - 1 - 2 plus an isolated node 3.
        let g = CsrGraph::from_sorted_parts(vec![1.0; 4], vec![0, 1, 3, 4, 4], vec![1, 0, 2, 1], 2);
        assert_eq!(
            g,
            CsrGraph::from_unique_edges(vec![1.0; 4], &[(0, 1), (1, 2)])
        );
        assert_eq!(g.neighbors(3), &[] as &[NodeId]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "has no twin")]
    fn from_sorted_parts_catches_asymmetry_in_debug() {
        // 0 lists 1 and 2, 1 lists 0, 2 lists 1: every slice is sorted
        // and the half-edges add up to two edges, yet 0 - 2 and 2 - 1
        // have no twins.
        CsrGraph::from_sorted_parts(vec![1.0; 3], vec![0, 2, 3, 4], vec![1, 2, 0, 1], 2);
    }

    #[test]
    fn independent_set_checks() {
        let g = CsrGraph::from_unique_edges(vec![1.0; 4], &[(0, 1), (2, 3)]);
        assert!(g.is_independent_set(&[0, 2]));
        assert!(!g.is_independent_set(&[0, 1]));
        assert!(!g.is_independent_set(&[0, 0]), "duplicates rejected");
        assert!(!g.is_independent_set(&[9]), "out of range rejected");
    }
}
