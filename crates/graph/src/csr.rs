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
//! The layout is immutable by design: build it in one shot from a list
//! of unique edges with [`CsrGraph::from_unique_edges`] (or its sharded
//! form, the parallel conflict-graph path). A graph that changes between
//! solves goes through the [`DeltaGraph`](crate::delta::DeltaGraph)
//! overlay, which stages the change and compacts back to a fresh
//! `CsrGraph`.

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
    /// Builds the CSR layout from a flat arena of **unique** undirected
    /// edge records in one counting pass plus one ordered scatter:
    /// degrees are counted, offsets prefix-summed, and every half-edge
    /// written straight into its final slot of a single exactly-sized
    /// neighbor allocation — no per-node `Vec`s, no doubling growth, no
    /// replay through an intermediate builder. Each node's slice is then
    /// sorted ascending. `O(E + n)` plus the per-slice sorts.
    ///
    /// The caller guarantees no duplicate records (each undirected edge
    /// appears exactly once, in either orientation) — the conflict-graph
    /// build emits every pair exactly once by construction. Debug builds
    /// verify the guarantee after sorting and panic on a duplicate;
    /// release builds trust the caller. Self-loops are skipped.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or the half-edge count
    /// overflows the `u32` offset space.
    pub fn from_unique_edges(weights: Vec<f64>, edges: &[(NodeId, NodeId)]) -> CsrGraph {
        CsrGraph::from_unique_edge_shards(weights, std::slice::from_ref(&edges))
    }

    /// [`from_unique_edges`](CsrGraph::from_unique_edges) over shard-local
    /// edge arenas produced by a parallel enumeration: the counting pass
    /// walks the shards in index order and the scatter lands every record
    /// directly in its endpoint slices, so the result is bit-identical to
    /// feeding the concatenated shards through the serial constructor —
    /// without ever materializing the concatenation.
    pub fn from_unique_edge_shards<S: AsRef<[(NodeId, NodeId)]>>(
        weights: Vec<f64>,
        shards: &[S],
    ) -> CsrGraph {
        let n = weights.len();
        // Counting pass: exact per-node half-edge counts.
        let mut deg = vec![0u32; n];
        let mut edges = 0usize;
        for shard in shards {
            for &(u, v) in shard.as_ref() {
                assert!(
                    (u as usize) < n && (v as usize) < n,
                    "edge endpoint out of range"
                );
                if u != v {
                    deg[u as usize] += 1;
                    deg[v as usize] += 1;
                    edges += 1;
                }
            }
        }
        let half = 2 * edges;
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
        for shard in shards {
            for &(u, v) in shard.as_ref() {
                if u != v {
                    neighbors[cursor[u as usize] as usize] = v;
                    cursor[u as usize] += 1;
                    neighbors[cursor[v as usize] as usize] = u;
                    cursor[v as usize] += 1;
                }
            }
        }
        debug_assert!(
            cursor
                .iter()
                .zip(&offsets[1..])
                .all(|(&c, &end)| c == end),
            "scatter cursors must land exactly on the slice ends"
        );
        for v in 0..n {
            let slice = &mut neighbors[offsets[v] as usize..offsets[v + 1] as usize];
            slice.sort_unstable();
            debug_assert!(
                slice.windows(2).all(|w| w[0] < w[1]),
                "from_unique_edge_shards: duplicate edge at node {v}"
            );
        }
        debug_assert_eq!(
            neighbors.capacity(),
            neighbors.len(),
            "neighbor arena must be exactly reserved"
        );
        CsrGraph {
            weights,
            offsets,
            neighbors,
            edges,
        }
    }

    /// Assembles a CSR graph from pre-built flat arrays whose invariants
    /// the caller has already established: `offsets` has `weights.len() +
    /// 1` entries, each slice of `neighbors` is sorted ascending and
    /// duplicate-free, and the adjacency is symmetric. Used by the
    /// delta-overlay compaction ([`DeltaGraph::compact`]), which produces
    /// the arrays directly and must not pay a re-sort or a per-node
    /// re-allocation. Debug builds verify every invariant.
    ///
    /// [`DeltaGraph::compact`]: crate::delta::DeltaGraph::compact
    pub(crate) fn from_sorted_parts(
        weights: Vec<f64>,
        offsets: Vec<u32>,
        neighbors: Vec<NodeId>,
        edges: usize,
    ) -> CsrGraph {
        debug_assert_eq!(offsets.len(), weights.len() + 1);
        debug_assert_eq!(*offsets.last().unwrap_or(&0) as usize, neighbors.len());
        debug_assert_eq!(neighbors.len(), 2 * edges);
        #[cfg(debug_assertions)]
        for v in 0..weights.len() {
            let slice = &neighbors[offsets[v] as usize..offsets[v + 1] as usize];
            debug_assert!(
                slice.windows(2).all(|w| w[0] < w[1]),
                "from_sorted_parts: slice {v} not strictly ascending"
            );
            debug_assert!(
                slice.iter().all(|&u| (u as usize) < weights.len() && u != v as NodeId),
                "from_sorted_parts: slice {v} has an out-of-range or self-loop entry"
            );
        }
        CsrGraph {
            weights,
            offsets,
            neighbors,
            edges,
        }
    }

    /// Disassembles the graph into its `(weights, offsets, neighbors)`
    /// arenas so a caller that cycles through graph generations (the
    /// rolling-horizon planner) can hand the capacity back to the next
    /// [`DeltaGraph::compact_into`](crate::delta::DeltaGraph::compact_into)
    /// instead of re-faulting fresh pages every window.
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
    fn from_unique_edge_shards_matches_serial_for_any_split() {
        let weights = vec![1.0, 2.0, 3.0, 4.0];
        let edges = [(0u32, 1u32), (2, 3), (1, 2), (0, 3), (3, 1), (2, 0)];
        let serial = CsrGraph::from_unique_edges(weights.clone(), &edges);
        for split in 0..=edges.len() {
            let shards = vec![edges[..split].to_vec(), edges[split..].to_vec()];
            let sharded = CsrGraph::from_unique_edge_shards(weights.clone(), &shards);
            assert_eq!(sharded, serial, "split {split}");
        }
        let empty = CsrGraph::from_unique_edges(Vec::new(), &[]);
        assert!(empty.is_empty());
        assert_eq!(empty.edge_count(), 0);
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
    fn independent_set_checks() {
        let g = CsrGraph::from_unique_edges(vec![1.0; 4], &[(0, 1), (2, 3)]);
        assert!(g.is_independent_set(&[0, 2]));
        assert!(!g.is_independent_set(&[0, 1]));
        assert!(!g.is_independent_set(&[0, 0]), "duplicates rejected");
        assert!(!g.is_independent_set(&[9]), "out of range rejected");
    }
}
