//! Compressed-sparse-row (CSR) graph storage.
//!
//! [`CsrGraph`] stores a graph's whole adjacency in two flat arrays
//! (`offsets` + `neighbors`) instead of one heap-allocated `Vec` per
//! node, each node's neighbor slice sorted ascending, so
//! [`has_edge`](CsrGraph::has_edge) is an `O(log d)` binary search. It
//! is the [`Adjacency`] reference for arbitrary graphs: tests, the
//! random-graph suites and small callers build one from a list of unique
//! edges with [`CsrGraph::from_unique_edges`] and hand it to any solver
//! in [`crate::mwis`]. The offline planner's conflict graph implements
//! [`Adjacency`] itself, deriving its neighborhoods instead of storing
//! them.

use crate::{Adjacency, NodeId};

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
        CsrGraph {
            weights,
            offsets,
            neighbors,
            edges: count,
        }
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
}

impl Adjacency for CsrGraph {
    fn len(&self) -> usize {
        self.len()
    }

    fn weight(&self, v: NodeId) -> f64 {
        self.weight(v)
    }

    fn degree(&self, v: NodeId) -> usize {
        self.degree(v)
    }

    fn for_each_neighbor(&self, v: NodeId, f: impl FnMut(NodeId)) {
        self.neighbors(v).iter().copied().for_each(f);
    }

    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.has_edge(u, v)
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
        assert_eq!(g.weights, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(g.offsets, vec![0, 3, 4, 5, 6]);
        assert_eq!(g.neighbors, vec![1, 2, 3, 0, 0, 0]);
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
        assert_eq!(CsrGraph::default().offsets, vec![0]);
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
    fn live_walk_is_the_unordered_walk_filtered_by_the_alive_bit() {
        // Node 69 sits in the second alive word.
        let edges = [(0, 1), (0, 2), (0, 69), (3, 69), (2, 3)];
        let g = CsrGraph::from_unique_edges(vec![1.0; 70], &edges);
        let mut alive = vec![0u64; crate::bitset::words_for(70)];
        for v in [1, 3, 69] {
            crate::bitset::set(&mut alive, v);
        }
        let live = |v| {
            let mut got = Vec::new();
            g.for_each_live_neighbor(v, &alive, |u| got.push(u));
            got
        };
        assert_eq!(live(0), [1, 69], "dead 2 skipped, dead 0 may walk");
        assert_eq!(live(69), [3], "dead 0 skipped");
        assert_eq!(live(2), [3]);
        assert_eq!(live(3), [69], "dead 2 skipped");
        assert!(live(1).is_empty(), "its one neighbor is dead");
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
