//! Delta overlay over a frozen [`CsrGraph`]: deferred tombstones +
//! appends.
//!
//! The rolling-horizon planner (ROADMAP) advances a sliding window every
//! few seconds; between two consecutive windows only a small fraction of
//! conflict-graph nodes retire and arrive, yet [`CsrGraph`] is immutable
//! by design. [`DeltaGraph`] stages that delta on top of a base CSR
//! graph and flattens it back:
//!
//! * **tombstones** ([`tombstone_batch_deferred`]) mark retired nodes
//!   dead and fix the live edge count by walking only the victims' own
//!   adjacency; their entries linger in surviving slices until
//!   compaction filters them;
//! * **appends** stage arriving nodes ([`append_node`]) and their edges
//!   ([`add_edge_deferred`]) past the base id space, each edge recorded
//!   on its appended endpoint only — compaction synthesizes the partner
//!   half, so staging never copies a survivor's slice;
//! * **compaction** ([`compact`]) flattens the overlay into a plain
//!   [`CsrGraph`] under a caller-chosen live-node ordering, writing the
//!   final offset/neighbor arenas in one exactly-reserved pass.
//!
//! The overlay answers no adjacency queries, so nothing observes the
//! lingering dead entries or the missing partner halves before
//! compaction. Within one overlay generation every tombstone precedes
//! every staged edge (asserted). The compaction policy (when to flatten)
//! belongs to the caller; the windowed planner compacts whenever the
//! overlay [`is_dirty`] before a solve.
//!
//! [`tombstone_batch_deferred`]: DeltaGraph::tombstone_batch_deferred
//! [`append_node`]: DeltaGraph::append_node
//! [`add_edge_deferred`]: DeltaGraph::add_edge_deferred
//! [`compact`]: DeltaGraph::compact
//! [`is_dirty`]: DeltaGraph::is_dirty

use crate::csr::CsrGraph;
use crate::NodeId;

/// A [`CsrGraph`] plus a staged delta: tombstoned nodes, appended nodes,
/// and edges incident to the appends, flattened back to CSR by
/// [`compact`](DeltaGraph::compact).
///
/// Node ids: `0..base.len()` address base nodes, `base.len()..len()`
/// address appended nodes, in append order. Ids are stable for the
/// overlay's lifetime; compaction assigns fresh dense ids.
///
/// # Examples
///
/// ```
/// use spindown_graph::{CsrGraph, DeltaGraph};
///
/// // Base: 0 — 1 (weights 1, 2).
/// let base = CsrGraph::from_unique_edges(vec![1.0, 2.0], &[(0, 1)]);
/// let mut d = DeltaGraph::new(base);
/// d.tombstone_batch_deferred(&[0]);
/// let v = d.append_node(5.0);
/// d.add_edge_deferred(v, 1);
/// assert_eq!(d.live_len(), 2);
/// assert_eq!(d.edge_count(), 1, "0-1 died with 0; 1-2 is staged");
/// let (csr, map) = d.compact(&[1, v]);
/// assert_eq!(csr.len(), 2);
/// assert!(csr.has_edge(0, 1));
/// assert_eq!(map[1], 0, "old node 1 became compact node 0");
/// ```
#[derive(Debug, Clone)]
pub struct DeltaGraph {
    base: CsrGraph,
    /// Liveness per id (base + appended).
    dead: Vec<bool>,
    dead_count: usize,
    appended_weights: Vec<f64>,
    /// Staged edges per appended node, stored on the appended endpoint
    /// only; compaction synthesizes the symmetric entries.
    appended_adj: Vec<Vec<NodeId>>,
    /// Live undirected edge count across base + overlay.
    edges: usize,
    /// Edges staged through the overlay.
    staged_edges: usize,
}

impl DeltaGraph {
    /// Wraps a base CSR graph with an empty overlay.
    pub fn new(base: CsrGraph) -> Self {
        let n = base.len();
        let edges = base.edge_count();
        DeltaGraph {
            base,
            dead: vec![false; n],
            dead_count: 0,
            appended_weights: Vec::new(),
            appended_adj: Vec::new(),
            edges,
            staged_edges: 0,
        }
    }

    /// The wrapped base graph, untouched by the overlay.
    pub fn base(&self) -> &CsrGraph {
        &self.base
    }

    /// Consumes the overlay and returns the wrapped base graph — the
    /// recycling path: a retired generation's arenas flow through
    /// [`CsrGraph::into_parts`] into the next
    /// [`compact_into`](DeltaGraph::compact_into).
    pub fn into_base(self) -> CsrGraph {
        self.base
    }

    /// Total id space: base nodes plus appended nodes, dead included.
    pub fn len(&self) -> usize {
        self.base.len() + self.appended_weights.len()
    }

    /// `true` if the id space is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Live (non-tombstoned) node count.
    pub fn live_len(&self) -> usize {
        self.len() - self.dead_count
    }

    /// Tombstoned node count.
    pub fn dead_count(&self) -> usize {
        self.dead_count
    }

    /// Nodes appended on top of the base id space.
    pub fn appended_count(&self) -> usize {
        self.appended_weights.len()
    }

    /// Edges staged through the overlay (excluding base edges).
    pub fn staged_edge_count(&self) -> usize {
        self.staged_edges
    }

    /// Live undirected edge count (base edges minus edges lost to
    /// tombstones, plus staged edges).
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// `true` once any delta has been applied — the signal the windowed
    /// planner uses to decide whether a solve needs a fresh compaction
    /// or can reuse the base graph as-is (the empty-delta window). A
    /// staged edge always has an appended endpoint, so tombstones and
    /// appends cover every delta.
    pub fn is_dirty(&self) -> bool {
        self.dead_count > 0 || !self.appended_weights.is_empty()
    }

    /// `true` if `v` is tombstoned.
    pub fn is_dead(&self, v: NodeId) -> bool {
        self.dead[v as usize]
    }

    /// `v`'s stored adjacency regardless of liveness: the base slice
    /// (which may still name nodes tombstoned since the base was built)
    /// or, for an appended node, its staged edges.
    fn adj(&self, v: NodeId) -> &[NodeId] {
        let vi = v as usize;
        let n = self.base.len();
        if vi >= n {
            &self.appended_adj[vi - n]
        } else {
            self.base.neighbors(v)
        }
    }

    /// Tombstones every node in `victims` *without* purging them from
    /// surviving neighbors' slices — the dead entries linger until the
    /// next [`compact`](DeltaGraph::compact), which filters them while
    /// remapping. Costs `O(Σ deg(v))` over the victims, spent keeping
    /// the edge count exact; surviving slices are never touched.
    ///
    /// # Panics
    ///
    /// Panics if any victim is out of range, already dead, or repeated,
    /// or if an edge was already staged in this overlay generation (its
    /// endpoints must outlive the next compaction).
    pub fn tombstone_batch_deferred(&mut self, victims: &[NodeId]) {
        assert_eq!(
            self.staged_edges, 0,
            "tombstone before staging deferred edges: a deferred edge is \
             invisible from its unlisted endpoint"
        );
        for &v in victims {
            assert!((v as usize) < self.len(), "tombstone: node out of range");
            assert!(!self.dead[v as usize], "tombstone: node already dead");
            self.dead[v as usize] = true;
        }
        self.dead_count += victims.len();
        // Fix the live edge count: every victim edge dies exactly once.
        // An edge to a co-victim is seen from both ends — the larger id
        // owns the decrement; an edge to a node dead *before* this batch
        // was already decremented when that node died (its entry still
        // sits in the victim's slice).
        let mut in_batch = vec![false; self.len()];
        for &v in victims {
            in_batch[v as usize] = true;
        }
        let mut killed = 0usize;
        for &v in victims {
            for &u in self.adj(v) {
                if in_batch[u as usize] {
                    if v > u {
                        killed += 1;
                    }
                } else if !self.dead[u as usize] {
                    killed += 1;
                }
            }
        }
        self.edges -= killed;
    }

    /// Appends a new node with the given weight, returning its overlay
    /// id (`len() - 1`).
    pub fn append_node(&mut self, weight: f64) -> NodeId {
        let id = self.len() as NodeId;
        self.appended_weights.push(weight);
        self.appended_adj.push(Vec::new());
        self.dead.push(false);
        id
    }

    /// Stages the undirected edge `{x, v}` where `x` is an *appended*
    /// node, recording it on `x`'s list only — the symmetric entry on
    /// `v` (often a base node with a large adjacency) is synthesized
    /// during [`compact`](DeltaGraph::compact), so staging is `O(1)`.
    /// The caller guarantees the edge is new — the conflict-graph delta
    /// emits every conflict pair exactly once by construction; debug
    /// builds verify and panic on a duplicate.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not a live appended node, `v` is dead or out of
    /// range, or `x == v`; debug builds also panic on a duplicate.
    pub fn add_edge_deferred(&mut self, x: NodeId, v: NodeId) {
        let n = self.base.len();
        let xi = x as usize;
        assert!(
            xi >= n && xi < self.len(),
            "add_edge_deferred: {x} is not an appended node"
        );
        assert!(
            (v as usize) < self.len(),
            "add_edge_deferred: endpoint out of range"
        );
        assert!(x != v, "add_edge_deferred: self-loop");
        assert!(
            !self.dead[xi] && !self.dead[v as usize],
            "add_edge_deferred: dead endpoint"
        );
        debug_assert!(
            !self.adj(x).contains(&v) && !self.adj(v).contains(&x),
            "add_edge_deferred: duplicate edge ({x}, {v})"
        );
        self.appended_adj[xi - n].push(v);
        self.edges += 1;
        self.staged_edges += 1;
    }

    /// Weight of `v`: its base or appended weight while live, `0.0` once
    /// tombstoned (a retired node carries no saving).
    pub fn weight(&self, v: NodeId) -> f64 {
        let vi = v as usize;
        if self.dead[vi] {
            return 0.0;
        }
        let n = self.base.len();
        if vi >= n {
            self.appended_weights[vi - n]
        } else {
            self.base.weight(v)
        }
    }

    /// Flattens the overlay into a plain [`CsrGraph`] whose node `p` is
    /// the overlay node `order[p]`. `order` must list every live node
    /// exactly once; the choice of order is the caller's — the windowed
    /// planner passes the canonical disk-major emission order so the
    /// result is bit-identical to a from-scratch build.
    ///
    /// Returns the compacted graph and the id map: `map[old] = new` for
    /// live nodes, [`TOMBSTONED`] for dead ones.
    ///
    /// One counting pass sizes the offset/neighbor arenas; each node's
    /// live adjacency is remapped, merged with its synthesized partner
    /// halves and written straight into its final slot, and only slices
    /// that come out non-ascending (a remap that reordered ids, or an
    /// appended node whose edges were staged out of id order) pay a
    /// sort — untouched survivor slices are a pure remap-and-copy.
    /// `O(n + E)` plus the disturbed-slice sorts.
    ///
    /// # Panics
    ///
    /// Panics if `order` skips or repeats a live node, or names a dead
    /// one.
    pub fn compact(&self, order: &[NodeId]) -> (CsrGraph, Vec<NodeId>) {
        self.compact_into(order, (Vec::new(), Vec::new(), Vec::new()))
    }

    /// [`compact`](DeltaGraph::compact) writing into recycled arenas —
    /// pass the previous generation's [`CsrGraph::into_parts`] so a
    /// rolling compaction reuses capacity instead of re-faulting tens of
    /// megabytes of fresh pages per window. The buffers are cleared
    /// before use; their contents are irrelevant.
    ///
    /// # Panics
    ///
    /// As [`compact`](DeltaGraph::compact).
    pub fn compact_into(
        &self,
        order: &[NodeId],
        buffers: (Vec<f64>, Vec<u32>, Vec<NodeId>),
    ) -> (CsrGraph, Vec<NodeId>) {
        assert_eq!(
            order.len(),
            self.live_len(),
            "compact: order must cover every live node exactly once"
        );
        let mut map: Vec<NodeId> = vec![TOMBSTONED; self.len()];
        for (pos, &v) in order.iter().enumerate() {
            assert!(
                (v as usize) < self.len() && !self.dead[v as usize],
                "compact: order names a dead or out-of-range node"
            );
            assert!(
                map[v as usize] == TOMBSTONED,
                "compact: order repeats node {v}"
            );
            map[v as usize] = pos as NodeId;
        }

        // Synthesize the symmetric halves of staged edges: a staged edge
        // sits only on its appended endpoint `x`, so the partner `u`
        // owes one extra entry `map[x]`. One counting pass sizes a
        // per-node extras arena; the fill pass walks appended nodes in
        // id order, which is ascending under any monotone `order` the
        // planner passes — each node's extras run then merges into its
        // remapped slice without a sort.
        let n_base = self.base.len();
        let mut extra_off: Vec<u32> = Vec::new();
        let mut extra_vals: Vec<NodeId> = Vec::new();
        if self.staged_edges > 0 {
            extra_off = vec![0u32; order.len() + 1];
            for (ai, list) in self.appended_adj.iter().enumerate() {
                debug_assert!(
                    list.is_empty() || !self.dead[n_base + ai],
                    "staged-edge endpoints must outlive compaction"
                );
                for &u in list {
                    let cu = map[u as usize];
                    debug_assert!(
                        cu != TOMBSTONED,
                        "staged edge endpoint died before compaction"
                    );
                    extra_off[cu as usize + 1] += 1;
                }
            }
            for i in 1..extra_off.len() {
                extra_off[i] += extra_off[i - 1];
            }
            extra_vals = vec![0 as NodeId; self.staged_edges];
            let mut cursor: Vec<u32> = extra_off[..order.len()].to_vec();
            for (ai, list) in self.appended_adj.iter().enumerate() {
                let cx = map[n_base + ai];
                for &u in list {
                    let cu = map[u as usize] as usize;
                    extra_vals[cursor[cu] as usize] = cx;
                    cursor[cu] += 1;
                }
            }
        }

        // Monotonicity prechecks, O(n) each. When the remap preserves id
        // order on surviving base nodes, every base slice — already
        // ascending in the CSR — stays ascending after the remap, so the
        // hot loop below can skip per-entry ascent tracking. The
        // planner's canonical disk-major order always qualifies:
        // survivors keep their relative order within and across disk
        // runs.
        let base_monotone = {
            let mut prev = None;
            map[..n_base].iter().all(|&m| {
                if m == TOMBSTONED {
                    return true;
                }
                let ok = prev.is_none_or(|p| p < m);
                prev = Some(m);
                ok
            })
        };
        // Likewise for appended nodes: the extras arena is filled in
        // appended-id order, so a monotone remap of appended ids makes
        // every per-node extras run ascending — no per-run check needed.
        let extras_ascending = self.staged_edges == 0 || {
            let mut prev = None;
            map[n_base..].iter().all(|&m| {
                if m == TOMBSTONED {
                    return true;
                }
                let ok = prev.is_none_or(|p| p < m);
                prev = Some(m);
                ok
            })
        };

        let (mut weights, mut offsets, mut neighbors) = buffers;
        weights.clear();
        weights.reserve(order.len());
        // Capacity bound: the stored half-edges plus synthesized ones —
        // over only by lingering entries that point at tombstoned nodes
        // (filtered while writing).
        let bound: usize =
            order.iter().map(|&v| self.adj(v).len()).sum::<usize>() + self.staged_edges;
        offsets.clear();
        offsets.reserve(order.len() + 1);
        offsets.push(0);
        neighbors.clear();
        neighbors.reserve(bound);
        for (p, &v) in order.iter().enumerate() {
            weights.push(self.weight(v));
            let start = neighbors.len();
            let (lo, hi) = if extra_off.is_empty() {
                (0, 0)
            } else {
                (extra_off[p] as usize, extra_off[p + 1] as usize)
            };
            // A non-monotone `order` can break the extras run's ascent;
            // the check is O(|run|), far below the sort it dodges.
            let extras_sorted =
                extras_ascending || hi == lo || extra_vals[lo..hi].windows(2).all(|w| w[0] < w[1]);
            let mut e_i = lo;
            if extras_sorted && base_monotone && (v as usize) < n_base {
                // Fast path: a base slice under a monotone remap is
                // ascending by construction, so remap, filter
                // tombstones, and stream-merge the extras in one pass
                // with no ascent bookkeeping. Slices with no pending
                // extras — the common case — skip the merge compares too.
                if lo == hi {
                    for &u in self.base.neighbors(v) {
                        let nu = map[u as usize];
                        if nu != TOMBSTONED {
                            neighbors.push(nu);
                        }
                    }
                } else {
                    for &u in self.base.neighbors(v) {
                        let nu = map[u as usize];
                        if nu == TOMBSTONED {
                            continue;
                        }
                        while e_i < hi && extra_vals[e_i] < nu {
                            neighbors.push(extra_vals[e_i]);
                            e_i += 1;
                        }
                        neighbors.push(nu);
                    }
                    while e_i < hi {
                        neighbors.push(extra_vals[e_i]);
                        e_i += 1;
                    }
                }
            } else {
                let mut merging = extras_sorted;
                let mut prev: Option<NodeId> = None;
                for &u in self.adj(v) {
                    let nu = map[u as usize];
                    if nu == TOMBSTONED {
                        continue;
                    }
                    if merging {
                        if prev.is_none_or(|q| q < nu) {
                            // Still ascending: stream pending extras that
                            // sort below this entry, then the entry itself —
                            // the merged slice comes out sorted in one pass.
                            while e_i < hi && extra_vals[e_i] < nu {
                                neighbors.push(extra_vals[e_i]);
                                e_i += 1;
                            }
                            prev = Some(nu);
                        } else {
                            // The remapped run broke ascent: collect the
                            // rest raw and sort below.
                            merging = false;
                        }
                    }
                    neighbors.push(nu);
                }
                while e_i < hi {
                    neighbors.push(extra_vals[e_i]);
                    e_i += 1;
                }
                if !merging {
                    neighbors[start..].sort_unstable();
                }
            }
            debug_assert!(
                neighbors[start..].windows(2).all(|w| w[0] < w[1]),
                "compacted slice must be strictly ascending"
            );
            assert!(
                neighbors.len() <= u32::MAX as usize,
                "CSR offsets are u32: half-edges exceed u32::MAX"
            );
            offsets.push(neighbors.len() as u32);
        }
        let half = neighbors.len();
        debug_assert_eq!(half % 2, 0, "adjacency must be symmetric");
        debug_assert_eq!(half / 2, self.edges, "live edge accounting diverged");
        let csr = CsrGraph::from_sorted_parts(weights, offsets, neighbors, half / 2);
        (csr, map)
    }
}

/// The id-map marker [`DeltaGraph::compact`] assigns to tombstoned
/// nodes.
pub const TOMBSTONED: NodeId = NodeId::MAX;

#[cfg(test)]
mod tests {
    use super::*;

    /// Weights of the base nodes 0..=3 and of the first two appended
    /// ids 4 and 5 the tests use.
    const WEIGHTS: [f64; 6] = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];

    /// A small base graph: path 0-1-2-3 plus chord 0-2, weights 1..=4.
    fn base() -> CsrGraph {
        CsrGraph::from_unique_edges(WEIGHTS[..4].to_vec(), &[(0, 1), (1, 2), (2, 3), (0, 2)])
    }

    /// The reference compaction: the expected live edge set (overlay
    /// ids) built directly by `from_unique_edges`, relabelled so that
    /// overlay node `order[p]` becomes node `p`.
    fn relabelled(order: &[NodeId], live_edges: &[(NodeId, NodeId)]) -> CsrGraph {
        let pos = |v: NodeId| order.iter().position(|&o| o == v).expect("live node") as NodeId;
        let edges: Vec<(NodeId, NodeId)> =
            live_edges.iter().map(|&(u, v)| (pos(u), pos(v))).collect();
        CsrGraph::from_unique_edges(order.iter().map(|&v| WEIGHTS[v as usize]).collect(), &edges)
    }

    /// Compacts `d` under `order` and checks the graph against the
    /// reference and the id map against `order`.
    fn assert_compacts_to(d: &DeltaGraph, order: &[NodeId], live_edges: &[(NodeId, NodeId)]) {
        let (csr, map) = d.compact(order);
        assert_eq!(csr, relabelled(order, live_edges), "order {order:?}");
        assert_eq!(csr.edge_count(), d.edge_count(), "order {order:?}");
        for v in 0..d.len() as NodeId {
            let want = order
                .iter()
                .position(|&o| o == v)
                .map_or(TOMBSTONED, |p| p as NodeId);
            assert_eq!(map[v as usize], want, "order {order:?}: map[{v}]");
        }
    }

    #[test]
    fn clean_overlay_mirrors_base() {
        let d = DeltaGraph::new(base());
        assert!(!d.is_dirty());
        assert_eq!(d.len(), 4);
        assert_eq!(d.live_len(), 4);
        assert_eq!(d.edge_count(), 4);
        for v in 0..4u32 {
            assert_eq!(d.weight(v), d.base().weight(v));
        }
        let (csr, map) = d.compact(&[0, 1, 2, 3]);
        assert_eq!(&csr, d.base(), "identity compaction reproduces the base");
        assert_eq!(map, vec![0, 1, 2, 3]);
    }

    #[test]
    fn tombstone_drops_node_and_edges() {
        let mut d = DeltaGraph::new(base());
        d.tombstone_batch_deferred(&[2]);
        assert!(d.is_dirty());
        assert_eq!(d.live_len(), 3);
        assert_eq!(d.dead_count(), 1);
        assert_eq!(d.edge_count(), 1, "edges 1-2, 2-3, 0-2 gone");
        assert!(d.is_dead(2));
        assert_eq!(d.weight(2), 0.0);
        assert_compacts_to(&d, &[0, 1, 3], &[(0, 1)]);
    }

    #[test]
    fn append_and_connect() {
        let mut d = DeltaGraph::new(base());
        let v = d.append_node(5.0);
        assert_eq!(v, 4);
        assert_eq!(d.live_len(), 5);
        d.add_edge_deferred(v, 3);
        d.add_edge_deferred(v, 1);
        assert_eq!(d.edge_count(), 6);
        assert_eq!(d.staged_edge_count(), 2);
        assert_eq!(d.weight(v), 5.0);
        let (csr, _) = d.compact(&[0, 1, 2, 3, v]);
        assert_eq!(
            csr.neighbors(1),
            &[0, 2, 4],
            "synthesized half merged in order"
        );
        assert_eq!(csr.neighbors(4), &[1, 3], "out-of-order staging sorted");
        assert_compacts_to(
            &d,
            &[0, 1, 2, 3, v],
            &[(0, 1), (1, 2), (2, 3), (0, 2), (v, 3), (v, 1)],
        );
    }

    #[test]
    fn compact_under_permuted_order_sorts_disturbed_slices() {
        let mut d = DeltaGraph::new(base());
        let v = d.append_node(5.0);
        d.add_edge_deferred(v, 0);
        // Interleave the append into the middle of the id space.
        let order = [3, v, 2, 1, 0];
        assert_compacts_to(&d, &order, &[(0, 1), (1, 2), (2, 3), (0, 2), (v, 0)]);
        let (csr, _) = d.compact(&order);
        for p in 0..csr.len() as NodeId {
            assert!(
                csr.neighbors(p).windows(2).all(|w| w[0] < w[1]),
                "slice {p} must be sorted"
            );
        }
    }

    #[test]
    fn tombstoned_append_leaves_no_trace() {
        // An appended node retired before any staging, then a second
        // append connected to the survivors.
        let mut d = DeltaGraph::new(base());
        let dead = d.append_node(5.0);
        d.tombstone_batch_deferred(&[dead]);
        assert_eq!(d.live_len(), 4);
        let (csr, _) = d.compact(&[0, 1, 2, 3]);
        assert_eq!(&csr, d.base());
        let v = d.append_node(6.0);
        d.add_edge_deferred(v, 1);
        assert_compacts_to(
            &d,
            &[0, 1, 2, 3, v],
            &[(0, 1), (1, 2), (2, 3), (0, 2), (v, 1)],
        );
    }

    #[test]
    #[should_panic(expected = "already dead")]
    fn double_tombstone_panics() {
        let mut d = DeltaGraph::new(base());
        d.tombstone_batch_deferred(&[1]);
        d.tombstone_batch_deferred(&[1]);
    }

    #[test]
    #[should_panic(expected = "dead endpoint")]
    fn edge_to_dead_panics() {
        let mut d = DeltaGraph::new(base());
        d.tombstone_batch_deferred(&[1]);
        let v = d.append_node(1.0);
        d.add_edge_deferred(v, 1);
    }

    #[test]
    #[should_panic(expected = "cover every live node")]
    fn compact_order_must_cover_live_nodes() {
        let d = DeltaGraph::new(base());
        let _ = d.compact(&[0, 1, 2]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "duplicate edge")]
    fn duplicate_staged_edge_panics_in_debug() {
        let mut d = DeltaGraph::new(base());
        let a = d.append_node(1.0);
        let b = d.append_node(1.0);
        d.add_edge_deferred(a, b);
        d.add_edge_deferred(b, a);
    }

    #[test]
    fn empty_base_grows_from_nothing() {
        let mut d = DeltaGraph::new(CsrGraph::default());
        assert!(d.is_empty());
        let a = d.append_node(1.5);
        let b = d.append_node(2.5);
        d.add_edge_deferred(b, a);
        let (csr, _) = d.compact(&[a, b]);
        assert_eq!(csr, CsrGraph::from_unique_edges(vec![1.5, 2.5], &[(0, 1)]));
    }

    #[test]
    fn deferred_tombstone_compacts_like_reference() {
        // Retire a connected pair, append a node and connect it to both
        // survivors: the dead entries still sit in the survivors' base
        // slices until compaction filters them.
        let mut d = DeltaGraph::new(base());
        d.tombstone_batch_deferred(&[0, 1]);
        assert_eq!(d.edge_count(), 1, "only 2-3 survives");
        let v = d.append_node(5.0);
        d.add_edge_deferred(v, 2);
        d.add_edge_deferred(v, 3);
        assert_eq!(d.edge_count(), 3);
        let live = [(2, 3), (v, 2), (v, 3)];
        for order in [[2, 3, v], [v, 3, 2]] {
            assert_compacts_to(&d, &order, &live);
        }
    }

    #[test]
    fn deferred_edges_compact_like_reference() {
        // Retire, append two nodes, connect them to survivors and each
        // other (one edge between two appends), then compact under an
        // interleaved monotone order and a fully permuted one.
        let mut d = DeltaGraph::new(base());
        d.tombstone_batch_deferred(&[0]);
        let a = d.append_node(5.0);
        let b = d.append_node(6.0);
        d.add_edge_deferred(a, 1);
        d.add_edge_deferred(a, 3);
        d.add_edge_deferred(b, 2);
        d.add_edge_deferred(b, a);
        assert_eq!(d.edge_count(), 6);
        assert_eq!(d.staged_edge_count(), 4);
        let live = [(1, 2), (2, 3), (a, 1), (a, 3), (b, 2), (b, a)];
        for order in [[1, 2, a, 3, b], [b, 3, a, 2, 1]] {
            assert_compacts_to(&d, &order, &live);
        }
    }

    #[test]
    #[should_panic(expected = "tombstone before staging deferred edges")]
    fn tombstone_after_deferred_staging_panics() {
        let mut d = DeltaGraph::new(base());
        let a = d.append_node(5.0);
        d.add_edge_deferred(a, 2);
        d.tombstone_batch_deferred(&[3]);
    }

    #[test]
    fn deferred_tombstone_counts_prior_deferred_deaths_once() {
        // 2's edges: {1, 2}, {2, 3}, {0, 2}. Killing 2 (deferred) and
        // then 0 and 3 in a second deferred batch must not re-count the
        // {0, 2} or {2, 3} edges that died with 2, even though 2's id
        // still sits in 0's and 3's stored lists.
        let mut d = DeltaGraph::new(base());
        d.tombstone_batch_deferred(&[2]);
        assert_eq!(d.edge_count(), 1, "only {{0, 1}} survives");
        d.tombstone_batch_deferred(&[0, 3]);
        assert_eq!(d.edge_count(), 0);
        let (csr, _) = d.compact(&[1]);
        assert_eq!(csr.len(), 1);
        assert_eq!(csr.edge_count(), 0);
    }
}
