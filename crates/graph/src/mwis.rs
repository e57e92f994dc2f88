//! Maximum-weight-independent-set solvers.
//!
//! The paper's offline scheduler (§3.1) reduces energy-aware scheduling to
//! MWIS on the `X(i,j,k)` conflict graph and solves it with the **GMIN**
//! greedy of Sakai, Togasaki & Yamazaki \[22\]. This module provides:
//!
//! * [`gwmin`] — the degree-ratio greedy the paper uses
//!   (pick `argmax w(v) / (deg(v)+1)`), with the
//!   `Σ w(IS) ≥ Σ_v w(v)/(deg(v)+1)` guarantee of \[22\];
//! * [`gwmin2`] — the weight-ratio variant
//!   (pick `argmax w(v) / w(N(v) ∪ {v})`), often stronger on weighted
//!   instances;
//! * [`local_search`] — add-moves plus (1,2)-swap improvement on top of any
//!   starting set;
//! * [`exact`] — branch-and-bound, the optimality oracle for tests and for
//!   the paper's toy instances (Fig. 4).
//!
//! Every solver reads an [`Adjacency`]: [`CsrGraph`](crate::CsrGraph)
//! for arbitrary graphs, or a graph that derives its neighborhoods, like
//! the planner's conflict graph. Walks that feed a floating-point sum
//! are ascending, the greedy's cascades subtract dead weights in
//! ascending kill order, and [`local_search`] sorts its swap candidates,
//! so the results do not depend on how the graph stores its edges. Every
//! other walk is unordered, and the greedy's cascades walk only live
//! neighbors.
//!
//! The greedy engine is a **word-blocked tournament tree**: a block is
//! the 64 nodes of one word of the alive bitset (from [`crate::bitset`]),
//! and the tree holds only the block maxima, each a `u128` packing an
//! order-preserving integer score key over the complemented node id. The
//! current maximum is a single root read; an update walks up only while
//! winners change. No per-node priority is stored: a block whose maximum
//! may have gone stale is rescanned once at the end of the cascade (see
//! `greedy_tree`), so the tree takes half a byte per node where a
//! per-node tree takes 32, and unlike a lazy heap it never pops a stale
//! entry. Per node there is one hot record holding only the statistic
//! the score family reads (GWMIN a 4-byte degree, GWMIN2 an 8-byte
//! neighbor-weight sum). A cascade kills the selected node's whole
//! neighborhood before it walks any dead node, so every walk meets only
//! survivors, and each survivor is re-scored at its decrement. The
//! records, the tree and the alive set live in a caller-owned
//! [`GreedyScratch`], so a warm repeated solve performs zero
//! allocations. The engine selects exactly the sets of the eager-heap
//! cascade; `tests/kernel_differential.rs` pins the two against each
//! other, over one block and many, with that engine kept as a test-only
//! //! reference.
//!
//! All solvers return node lists sorted ascending, so results are
//! deterministic and directly comparable.

use crate::bitset;
use crate::{Adjacency, NodeId};

/// Default node budget for [`exact`] when callers have no tighter
/// requirement — offline ablations and NPC harnesses fall back to GWMIN
/// above this. The iterative bitset solver raised this from the historical
/// 64 (where the recursive solver's per-branch `Vec<bool>` clones and `n`
/// stack frames became prohibitive) to 128.
pub const DEFAULT_NODE_LIMIT: usize = 128;

/// GWMIN greedy of Sakai et al.: repeatedly select the alive vertex
/// maximizing `w(v) / (deg(v)+1)` (degree in the *remaining* graph), add it
/// to the independent set, and delete it and its neighbors.
///
/// Runs in `O((n + m) log n)` using a tournament tree over 64-node
/// blocks keyed by the ratio. Ties break toward the smaller node id,
/// making the result deterministic.
///
/// # Examples
///
/// ```
/// use spindown_graph::mwis::gwmin;
/// use spindown_graph::CsrGraph;
///
/// // Path 0-1-2 with a heavy middle: greedy takes the middle alone.
/// let g = CsrGraph::from_unique_edges(vec![1.0, 10.0, 1.0], &[(0, 1), (1, 2)]);
/// assert_eq!(gwmin(&g), vec![1]);
/// ```
pub fn gwmin(g: &impl Adjacency) -> Vec<NodeId> {
    let mut scratch = GreedyScratch::new();
    let mut out = Vec::new();
    gwmin_into(g, &mut scratch, &mut out);
    out
}

/// GWMIN2 greedy of Sakai et al.: select the alive vertex maximizing
/// `w(v) / Σ_{u ∈ N(v) ∪ {v}} w(u)`. Carries the guarantee
/// `Σ w(IS) ≥ Σ_v w(v)² / w(N(v) ∪ {v})`.
pub fn gwmin2(g: &impl Adjacency) -> Vec<NodeId> {
    let mut scratch = GreedyScratch::new();
    let mut out = Vec::new();
    gwmin2_into(g, &mut scratch, &mut out);
    out
}

/// [`gwmin`] with caller-owned buffers: the selection lands in `out`
/// (cleared first, sorted ascending) and every working set lives in
/// `scratch`. A warm pair — reused across solves of similar size —
/// makes the whole solve allocation-free, which is what the
/// rolling-window planner and the bench harness's `allocs_per_solve`
/// gauge rely on.
pub fn gwmin_into(g: &impl Adjacency, scratch: &mut GreedyScratch, out: &mut Vec<NodeId>) {
    greedy_tree::<DegStat>(g, scratch, out);
}

/// [`gwmin2`] with caller-owned buffers (see [`gwmin_into`]).
pub fn gwmin2_into(g: &impl Adjacency, scratch: &mut GreedyScratch, out: &mut Vec<NodeId>) {
    greedy_tree::<NbrWStat>(g, scratch, out);
}

fn gwmin2_score(w: f64, _deg: usize, nbr_w: f64) -> f64 {
    let denom = w + nbr_w;
    if denom <= 0.0 {
        f64::INFINITY
    } else {
        w / denom
    }
}

/// Reusable working memory of the blocked tournament greedy engine: the
/// word-packed alive set, the cascade's ascending kill list, the block
/// tournament tree with its per-block dirty stamps and dirty list, and
/// one hot-record lane per score family (only the lane the solver uses
/// is ever populated; the other stays empty).
///
/// Buffers are grown on first use and retained across solves, so a
/// scratch that has been warmed on an instance performs **zero
/// allocations** on every subsequent solve of instances no larger than
/// the warm one. The scratch carries no results — consecutive solves
/// through one scratch return exactly what fresh scratches would.
#[derive(Default)]
pub struct GreedyScratch {
    bufs: EngineBufs,
    deg_lane: Vec<DegStat>,
    nbr_lane: Vec<NbrWStat>,
}

impl GreedyScratch {
    /// An empty scratch; buffers are sized lazily by the first solve.
    pub fn new() -> Self {
        GreedyScratch::default()
    }
}

/// The buffers both score families share. A block is the 64 nodes of one
/// `alive` word; `tree` holds `2 × blocks` slots, and a block whose
/// stored maximum may be stale carries the current cascade number in
/// `block_stamp` and sits once in `dirty` until its rescan. `killed`
/// holds the selected node's neighbors that die in the current cascade.
#[derive(Default)]
struct EngineBufs {
    alive: Vec<u64>,
    killed: Vec<NodeId>,
    tree: Vec<u128>,
    block_stamp: Vec<u32>,
    dirty: Vec<u32>,
}

/// The per-node statistic a greedy score family maintains, which is the
/// engine's whole per-node hot record: 4 bytes under GWMIN (a degree), 8
/// under GWMIN2 (a neighbor-weight sum), so a survivor's re-score touches
/// one small record. No per-node priority is stored anywhere: a node's
/// score is recomputed from this record and its weight whenever it is
/// needed. Specializing the engine over this trait halves the cascade's
/// memory traffic: GWMIN updates only degrees and never gathers the
/// dying neighbor's weight, GWMIN2 only the neighbor-weight sum.
trait GreedyStat: Copy {
    /// Whether the kill loop must gather the dying neighbor's weight.
    const NEEDS_DEAD_WEIGHT: bool;

    fn init(g: &impl Adjacency, v: NodeId) -> Self;

    fn on_neighbor_death(&mut self, dead_w: f64);

    fn score(&self, w: f64) -> f64;

    /// Selects this stat's hot-record lane out of the shared scratch,
    /// handing back the shared buffers in the same borrow.
    fn lanes(scratch: &mut GreedyScratch) -> (&mut Vec<Self>, &mut EngineBufs)
    where
        Self: Sized;
}

/// GWMIN's statistic: the remaining-graph degree (`w / (deg + 1)`).
#[derive(Copy, Clone)]
struct DegStat {
    deg: u32,
}

impl GreedyStat for DegStat {
    const NEEDS_DEAD_WEIGHT: bool = false;

    fn init(g: &impl Adjacency, v: NodeId) -> Self {
        DegStat {
            deg: g.degree(v) as u32,
        }
    }

    fn on_neighbor_death(&mut self, _dead_w: f64) {
        self.deg -= 1;
    }

    fn score(&self, w: f64) -> f64 {
        w / (self.deg as f64 + 1.0)
    }

    fn lanes(scratch: &mut GreedyScratch) -> (&mut Vec<Self>, &mut EngineBufs) {
        (&mut scratch.deg_lane, &mut scratch.bufs)
    }
}

/// GWMIN2's statistic: the alive neighbor-weight sum
/// (`w / (w + nbr_w)`, `+∞` when the denominator is non-positive).
#[derive(Copy, Clone)]
struct NbrWStat {
    nbr_w: f64,
}

impl GreedyStat for NbrWStat {
    const NEEDS_DEAD_WEIGHT: bool = true;

    /// The sum runs in ascending neighbor order, so its rounding is the
    /// same on every [`Adjacency`].
    fn init(g: &impl Adjacency, v: NodeId) -> Self {
        let mut nbr_w = 0.0;
        g.for_each_neighbor(v, |u| nbr_w += g.weight(u));
        NbrWStat { nbr_w }
    }

    fn on_neighbor_death(&mut self, dead_w: f64) {
        self.nbr_w -= dead_w;
    }

    fn score(&self, w: f64) -> f64 {
        gwmin2_score(w, 0, self.nbr_w)
    }

    fn lanes(scratch: &mut GreedyScratch) -> (&mut Vec<Self>, &mut EngineBufs) {
        (&mut scratch.nbr_lane, &mut scratch.bufs)
    }
}

/// Maps an `f64` score to a `u64` that compares like IEEE-754 totalOrder:
/// flip all bits of negatives, just the sign bit of non-negatives. For
/// any two non-NaN scores this agrees with `partial_cmp`, except that it
/// distinguishes `-0.0 < +0.0` (which `partial_cmp` ties) — a divergence
/// only reachable when node scores mix the two zero signs. Tournament
/// matches become integer compares, free of `f64` ordering branches.
#[inline]
fn ord_key(score: f64) -> u64 {
    let bits = score.to_bits();
    bits ^ (((bits as i64 >> 63) as u64) | (1u64 << 63))
}

/// The tournament slot of a block with no alive node: `0`, strictly
/// below every live priority — a live pack carries `!node` in its low
/// word, nonzero for every node id a real graph can hold, and a nonzero
/// key for every non-NaN score.
const DEAD: u128 = 0;

/// Packs a score key and node id into one tournament priority: the key
/// in the high word so the larger score wins, the complemented node id
/// in the low word so equal scores resolve toward the **smaller** node
/// id — the historical heap engines' tie-break — all in a single `u128`
/// compare. The low word also names a block maximum's holder.
#[inline]
fn pack(key: u64, node: u32) -> u128 {
    ((key as u128) << 64) | (!node) as u128
}

/// Whether the priority `slot` is held by node `v`.
#[inline]
fn holds(slot: u128, v: u32) -> bool {
    slot as u32 == !v
}

/// Point update of the block tournament tree with change-propagation
/// early exit: write block `b`'s leaf slot, then recompute each
/// ancestor's winner bottom-up, stopping at the first ancestor whose
/// stored winner is unchanged (nothing above it can change either). A
/// refreshed block maximum that loses its first match stops after O(1)
/// levels; only the reigning maximum pays the full `log(n / 64)` walk.
///
/// The tree is the standard implicit layout over `blocks` leaves: leaves
/// at `blocks + b`, parent of `i` at `i >> 1`, winners in `1..blocks`,
/// the overall maximum at the root `tree[1]` (slot 0 is unused).
#[inline]
fn tree_update(tree: &mut [u128], blocks: usize, b: usize, val: u128) {
    let mut i = blocks + b;
    if tree[i] == val {
        return;
    }
    tree[i] = val;
    i >>= 1;
    while i >= 1 {
        let winner = tree[2 * i].max(tree[2 * i + 1]);
        if tree[i] == winner {
            break;
        }
        tree[i] = winner;
        i >>= 1;
    }
}

/// The maximum priority among block `b`'s alive nodes (`word` is the
/// block's alive word), or [`DEAD`] when none is alive — each score
/// recomputed from the node's hot record and weight.
#[inline]
fn block_max<S: GreedyStat>(g: &impl Adjacency, hot: &[S], b: usize, mut word: u64) -> u128 {
    let mut best = DEAD;
    while word != 0 {
        let v = b * 64 + word.trailing_zeros() as usize;
        word &= word - 1;
        let key = ord_key(hot[v].score(g.weight(v as NodeId)));
        best = best.max(pack(key, v as u32));
    }
    best
}

/// Marks block `b` for a rescan at the end of cascade `cascade`, once.
#[inline]
fn mark_dirty(block_stamp: &mut [u32], dirty: &mut Vec<u32>, b: usize, cascade: u32) {
    if block_stamp[b] != cascade {
        block_stamp[b] = cascade;
        dirty.push(b as u32);
    }
}

/// The greedy engine, monomorphized per score family. Same cascade
/// semantics as the heap engines it replaced — select the
/// maximum-priority node, kill its neighborhood, decrement each survivor
/// once per dead neighbor — over a tournament tree whose leaves are the
/// maxima of 64-node blocks (one `alive` word each). Selection is one
/// root read. A cascade runs in three phases:
///
/// 1. **Kill.** Every alive neighbor of the selected node dies before
///    any survivor is touched, and the kill list is sorted ascending.
///    The selected node held its block's maximum, and a kill that
///    removes its block's stored maximum (the slot's low word names the
///    holder) marks that block dirty.
/// 2. **Decrement.** Each killed node, in ascending order, walks its
///    live neighbors ([`Adjacency::for_each_live_neighbor`]), which are
///    all survivors, since the whole kill set is already dead. Each
///    survivor is re-scored at every decrement: a score above its
///    block's maximum updates the tree at once; a fall of the node that
///    held the maximum (only a non-positive or NaN weight makes a score
///    fall) marks its block dirty; survivors of dirty blocks are only
///    decremented.
/// 3. **Rescan.** Every dirty block is rescanned once, from its alive
///    bits, hot records and weights.
///
/// No survivor dies during phase 2, so each clean leaf stays the
/// maximum over its block's alive nodes of `key << 64 | !node` through
/// every re-score, and the rescans restore the dirty ones. The root is
/// then the maximum of the same total order a per-node tree holds, and
/// the selections are identical.
///
/// A survivor next to several dead nodes has their weights subtracted
/// in ascending kill order (GWMIN2), the order of the eager cascade, so
/// the kill order fixes the rounding. Each walk itself runs unordered.
fn greedy_tree<S: GreedyStat>(
    g: &impl Adjacency,
    scratch: &mut GreedyScratch,
    out: &mut Vec<NodeId>,
) {
    let n = g.len();
    out.clear();
    if n == 0 {
        return;
    }
    let (hot, bufs) = S::lanes(scratch);
    let EngineBufs {
        alive,
        killed,
        tree,
        block_stamp,
        dirty,
    } = bufs;

    hot.clear();
    hot.extend((0..n).map(|v| S::init(g, v as NodeId)));
    let blocks = bitset::words_for(n);
    alive.clear();
    alive.resize(blocks, u64::MAX);
    // A rescan walks alive bits, so the last word's bits past `n` must
    // be clear.
    alive[blocks - 1] = u64::MAX >> (blocks * 64 - n);
    block_stamp.clear();
    block_stamp.resize(blocks, 0);

    // Initial tree: every block's maximum, winners filled bottom-up.
    tree.clear();
    tree.resize(2 * blocks, DEAD);
    for b in 0..blocks {
        tree[blocks + b] = block_max(g, hot, b, alive[b]);
    }
    for i in (1..blocks).rev() {
        tree[i] = tree[2 * i].max(tree[2 * i + 1]);
    }

    let mut cascade: u32 = 0;
    loop {
        let top = tree[1];
        if top == DEAD {
            break;
        }
        let v = !(top as u32) as usize;
        out.push(v as NodeId);
        bitset::clear(alive, v);
        cascade += 1;
        dirty.clear();
        mark_dirty(block_stamp, dirty, v / 64, cascade);
        // Kill the whole neighborhood first.
        killed.clear();
        g.for_each_live_neighbor(v as NodeId, alive, |u| killed.push(u));
        killed.sort_unstable();
        for &u in killed.iter() {
            bitset::clear(alive, u as usize);
            let ub = u as usize / 64;
            if holds(tree[blocks + ub], u) {
                mark_dirty(block_stamp, dirty, ub, cascade);
            }
        }
        // Decrement each survivor once per dead neighbor, in ascending
        // kill order, and re-score it at once.
        for &u in killed.iter() {
            let uw = if S::NEEDS_DEAD_WEIGHT {
                g.weight(u)
            } else {
                0.0
            };
            g.for_each_live_neighbor(u, alive, |t| {
                let ti = t as usize;
                hot[ti].on_neighbor_death(uw);
                let tb = ti / 64;
                if block_stamp[tb] == cascade {
                    return;
                }
                let key = pack(ord_key(hot[ti].score(g.weight(t))), t);
                let leaf = tree[blocks + tb];
                if key > leaf {
                    tree_update(tree, blocks, tb, key);
                } else if key < leaf && holds(leaf, t) {
                    mark_dirty(block_stamp, dirty, tb, cascade);
                }
            });
        }
        for &b in dirty.iter() {
            let b = b as usize;
            tree_update(tree, blocks, b, block_max(g, hot, b, alive[b]));
        }
    }
    out.sort_unstable();
}

/// Improves `initial` with two move types until a local optimum:
///
/// 1. **add** — insert any vertex with no neighbor in the set;
/// 2. **(1,2)-swap** — remove one vertex and insert two non-adjacent
///    vertices from its neighborhood whose combined weight is larger.
///
/// Returns a set at least as heavy as `initial`.
///
/// Each pass tries the add moves, then a swap at every member in
/// ascending order. Swap candidates are scanned in ascending node order
/// (filtered from an unordered neighbor walk, then sorted), and the
/// pairwise non-adjacency test is [`Adjacency::has_edge`]. A member with
/// fewer than two candidates admits no swap and is skipped without a
/// walk: `LocalState` keeps every member's candidate count exact.
///
/// # Panics
///
/// Panics if `initial` is not an independent set of `g`.
pub fn local_search(g: &impl Adjacency, initial: &[NodeId]) -> Vec<NodeId> {
    assert!(
        g.is_independent_set(initial),
        "local_search requires an independent starting set"
    );
    let n = g.len();
    let mut st = LocalState::new(g, initial);

    let mut cands: Vec<NodeId> = Vec::new();
    let mut improved = true;
    while improved {
        improved = false;
        // Add moves.
        for v in 0..n {
            if !st.in_set[v] && st.conflicts[v] == 0 && g.weight(v as NodeId) > 0.0 {
                st.flip(g, v, true);
                improved = true;
            }
        }
        // (1,2)-swaps.
        for v in 0..n {
            if !st.in_set[v] || st.candidates[v] < 2 {
                continue;
            }
            // Candidates: non-members whose only set-conflict is v, in
            // ascending order.
            cands.clear();
            g.for_each_neighbor_unordered(v as NodeId, |u| {
                if st.owner(u as usize) == Some(v) {
                    cands.push(u);
                }
            });
            cands.sort_unstable();
            let mut done = false;
            for (i, &a) in cands.iter().enumerate() {
                for &b in &cands[i + 1..] {
                    if !g.has_edge(a, b) && g.weight(a) + g.weight(b) > g.weight(v as NodeId) {
                        st.flip(g, v, false);
                        st.flip(g, a as usize, true);
                        st.flip(g, b as usize, true);
                        improved = true;
                        done = true;
                        break;
                    }
                }
                if done {
                    break;
                }
            }
        }
    }
    let mut out: Vec<NodeId> = (0..n as u32).filter(|&v| st.in_set[v as usize]).collect();
    out.sort_unstable();
    out
}

/// The set [`local_search`] grows, with the counts its moves test.
struct LocalState {
    in_set: Vec<bool>,
    /// Per node: the set members adjacent to it.
    conflicts: Vec<u32>,
    /// Per node: the sum of the ids of those members, which is the one
    /// member itself when `conflicts` is 1.
    member_sum: Vec<u64>,
    /// Per member: the non-members whose only adjacent member it is —
    /// the candidates of a (1,2)-swap at that member.
    candidates: Vec<u32>,
}

impl LocalState {
    /// The counts of the set `initial`: one walk per member, then one
    /// pass over the nodes for the candidate counts.
    fn new(g: &impl Adjacency, initial: &[NodeId]) -> Self {
        let n = g.len();
        let mut st = LocalState {
            in_set: vec![false; n],
            conflicts: vec![0; n],
            member_sum: vec![0; n],
            candidates: vec![0; n],
        };
        for &v in initial {
            st.in_set[v as usize] = true;
            g.for_each_neighbor_unordered(v, |u| {
                st.conflicts[u as usize] += 1;
                st.member_sum[u as usize] += u64::from(v);
            });
        }
        for u in 0..n {
            if let Some(o) = st.owner(u) {
                st.candidates[o] += 1;
            }
        }
        st
    }

    /// The member `u` is a swap candidate of, if any.
    fn owner(&self, u: usize) -> Option<usize> {
        (!self.in_set[u] && self.conflicts[u] == 1).then_some(self.member_sum[u] as usize)
    }

    /// Re-counts `u` under its owner after `change` updates it.
    fn recount(&mut self, u: usize, change: impl FnOnce(&mut Self)) {
        if let Some(o) = self.owner(u) {
            self.candidates[o] -= 1;
        }
        change(self);
        if let Some(o) = self.owner(u) {
            self.candidates[o] += 1;
        }
    }

    /// Adds `v` to the set (`member`) or removes it, keeping every count
    /// exact.
    fn flip(&mut self, g: &impl Adjacency, v: usize, member: bool) {
        self.recount(v, |st| st.in_set[v] = member);
        g.for_each_neighbor_unordered(v as NodeId, |u| {
            self.recount(u as usize, |st| {
                let u = u as usize;
                if member {
                    st.conflicts[u] += 1;
                    st.member_sum[u] += v as u64;
                } else {
                    st.conflicts[u] -= 1;
                    st.member_sum[u] -= v as u64;
                }
            });
        });
    }
}

/// Relative slack applied to the branch-and-bound pruning tests so a
/// mathematically admissible bound can never discard the true optimum over
/// a last-ulp summation-order difference: the MWIS upper bound is inflated
/// by `(cur_w + ub) * EPS` before comparing against the incumbent (and the
/// set-cover lower bound deflated likewise). The cost is exploring a
/// measure-zero shell of extra nodes around the incumbent weight.
pub(crate) const BOUND_SLACK: f64 = 1e-12;

/// A suspended branching decision on the iterative solver's explicit
/// stack. `stage` walks Include(0) → Exclude(1) → Done(2); the vertices
/// removed by the currently applied stage live in the undo arena slot at
/// this frame's depth, so backtracking is `alive |= slot` — no per-branch
/// clone.
struct ExactFrame {
    v: u32,
    saved_w: f64,
    stage: u8,
}

/// What [`exact_eval_node`] decided about the current subproblem.
enum NodeStep {
    /// Subtree exhausted or pruned; backtrack.
    Backtrack,
    /// Branch on this vertex (its alive degree is ≥ 1).
    Branch(u32),
}

/// Exact MWIS by iterative branch-and-bound over word-packed `u64`
/// bitsets. The optimality oracle for tests, the paper's Fig. 4 instance
/// and the optimality-gap ablations; returns `None` if `g` has more than
/// `node_limit` nodes (callers fall back to the greedy —
/// [`DEFAULT_NODE_LIMIT`] is the stock budget).
///
/// Layout: one `words = ⌈n/64⌉`-word alive set, a flat `n × words` table
/// of closed neighborhoods `{v} ∪ N(v)`, and an undo arena with one
/// `words`-word slot per search depth. Including the branch vertex stores
/// `alive ∩ closed(v)` in the depth's slot and masks it out of `alive`;
/// backtracking ORs the slot back — no clone, no recursion, bounded
/// `O(n·words)` memory regardless of branching depth.
///
/// Bounds: the incumbent is seeded with the positive-weight part of the
/// [`gwmin2`] solution instead of starting empty, and each node is pruned
/// against a greedy clique-cover bound — partition the alive vertices into
/// cliques by intersecting closed neighborhoods and sum each clique's
/// maximum weight (an independent set takes at most one vertex per
/// clique). Both strictly dominate the sum-of-positive-weights bound of
/// the recursive solver this replaced, which `tests/exact_differential.rs`
/// keeps as a test-only reference.
pub fn exact(g: &impl Adjacency, node_limit: usize) -> Option<Vec<NodeId>> {
    if g.len() > node_limit {
        return None;
    }
    let n = g.len();
    let words = bitset::words_for(n);

    // Flat closed-neighborhood table: row v = {v} ∪ N(v).
    let mut closed = vec![0u64; n * words];
    let mut weights = vec![0.0f64; n];
    for v in 0..n {
        weights[v] = g.weight(v as NodeId);
        let row = &mut closed[v * words..(v + 1) * words];
        bitset::set(row, v);
        g.for_each_neighbor_unordered(v as NodeId, |u| bitset::set(row, u as usize));
    }

    // Only strictly positive vertices can improve an independent set, so
    // the search space is the positive-weight induced subgraph.
    let mut alive = vec![0u64; words];
    for (v, &w) in weights.iter().enumerate() {
        if w > 0.0 {
            bitset::set(&mut alive, v);
        }
    }

    // Seed the incumbent with the GWMIN2 solution (restricted to positive
    // vertices) so early subtrees prune against a real set instead of -∞.
    let mut best: Vec<NodeId> = gwmin2(g)
        .into_iter()
        .filter(|&v| weights[v as usize] > 0.0)
        .collect();
    let mut best_w: f64 = best.iter().map(|&v| weights[v as usize]).sum();

    let mut stack: Vec<ExactFrame> = Vec::with_capacity(n);
    let mut arena = vec![0u64; n * words]; // one undo slot per depth
    let mut current: Vec<NodeId> = Vec::with_capacity(n);
    let mut cur_w = 0.0f64;
    let mut scratch_unassigned = vec![0u64; words];
    let mut scratch_cand = vec![0u64; words];

    let root = exact_eval_node(
        &alive,
        &closed,
        &weights,
        words,
        cur_w,
        &current,
        &mut best,
        &mut best_w,
        &mut scratch_unassigned,
        &mut scratch_cand,
    );
    if let NodeStep::Branch(v) = root {
        stack.push(ExactFrame {
            v,
            saved_w: cur_w,
            stage: 0,
        });
    }

    while let Some(top) = stack.last() {
        let depth = stack.len() - 1;
        let (v, saved_w, stage) = (top.v as usize, top.saved_w, top.stage);
        let slot_at = depth * words;
        if stage > 0 {
            // Undo the previously applied branch: everything it removed is
            // recorded in this depth's slot.
            bitset::or_assign(&mut alive, &arena[slot_at..slot_at + words]);
            if stage == 1 {
                current.pop();
            }
            // cur_w is rebuilt from saved_w by whichever branch applies
            // next, so the undo leaves it alone.
        }
        if stage == 2 {
            stack.pop();
            continue;
        }
        if stage == 0 {
            // Include v: drop its closed neighborhood from the alive set,
            // recording the removed vertices in this depth's undo slot —
            // one fused word pass instead of an and-into plus an
            // and-not-assign.
            bitset::extract_and_clear(
                &mut alive,
                &closed[v * words..(v + 1) * words],
                &mut arena[slot_at..slot_at + words],
            );
            current.push(v as NodeId);
            cur_w = saved_w + weights[v];
        } else {
            // Exclude v: drop just v.
            arena[slot_at..slot_at + words].fill(0);
            bitset::set(&mut arena[slot_at..slot_at + words], v);
            bitset::clear(&mut alive, v);
            cur_w = saved_w;
        }
        stack.last_mut().expect("frame just inspected").stage = stage + 1;
        let step = exact_eval_node(
            &alive,
            &closed,
            &weights,
            words,
            cur_w,
            &current,
            &mut best,
            &mut best_w,
            &mut scratch_unassigned,
            &mut scratch_cand,
        );
        if let NodeStep::Branch(v2) = step {
            stack.push(ExactFrame {
                v: v2,
                saved_w: cur_w,
                stage: 0,
            });
        }
    }

    best.sort_unstable();
    Some(best)
}

/// One node of the MWIS search: prune against the clique-cover bound,
/// harvest leaf candidates (empty or edgeless remainders), or name the
/// branch vertex (maximum alive degree, ties to the larger id — the rule
/// of the recursive solver this replaced).
#[allow(clippy::too_many_arguments)]
fn exact_eval_node(
    alive: &[u64],
    closed: &[u64],
    weights: &[f64],
    words: usize,
    cur_w: f64,
    current: &[NodeId],
    best: &mut Vec<NodeId>,
    best_w: &mut f64,
    scratch_unassigned: &mut [u64],
    scratch_cand: &mut [u64],
) -> NodeStep {
    let ub = clique_cover_bound(
        alive,
        closed,
        weights,
        words,
        scratch_unassigned,
        scratch_cand,
    );
    // Inflate by the relative slack so summation-order rounding can never
    // prune the float-achievable optimum (cur_w and ub are both ≥ 0 here).
    if cur_w + ub + (cur_w + ub) * BOUND_SLACK <= *best_w {
        return NodeStep::Backtrack;
    }
    let mut pick: Option<(usize, usize)> = None;
    for v in bitset::ones(alive) {
        let deg = bitset::intersection_count(alive, &closed[v * words..(v + 1) * words]) - 1;
        if pick.is_none_or(|p| (deg, v) > p) {
            pick = Some((deg, v));
        }
    }
    let Some((deg, pick_v)) = pick else {
        if cur_w > *best_w {
            *best_w = cur_w;
            best.clear();
            best.extend_from_slice(current);
        }
        return NodeStep::Backtrack;
    };
    if deg == 0 {
        // Edgeless remainder: take every alive vertex (all positive) —
        // the weight gather walks each word's set bits directly.
        let w = cur_w + bitset::weight_sum(alive, weights);
        if w > *best_w {
            *best_w = w;
            best.clear();
            best.extend_from_slice(current);
            best.extend(bitset::ones(alive).map(|u| u as NodeId));
        }
        return NodeStep::Backtrack;
    }
    NodeStep::Branch(pick_v as u32)
}

/// Greedy clique-cover upper bound on the weight any independent set can
/// collect from `alive`: partition the alive vertices into cliques (grow
/// each from its lowest unassigned vertex, keeping candidates that are
/// adjacent to every member via closed-neighborhood intersections) and sum
/// the maximum weight per clique. Admissible because an independent set
/// contains at most one vertex of each clique; equals the plain
/// positive-weight sum only when every clique is a singleton.
fn clique_cover_bound(
    alive: &[u64],
    closed: &[u64],
    weights: &[f64],
    words: usize,
    unassigned: &mut [u64],
    cand: &mut [u64],
) -> f64 {
    unassigned.copy_from_slice(alive);
    let mut bound = 0.0f64;
    while let Some(v) = bitset::first_set(unassigned) {
        bitset::clear(unassigned, v);
        let mut clique_max = weights[v];
        bitset::and_into(cand, unassigned, &closed[v * words..(v + 1) * words]);
        while let Some(u) = bitset::first_set(cand) {
            bitset::clear(unassigned, u);
            bitset::clear(cand, u);
            if weights[u] > clique_max {
                clique_max = weights[u];
            }
            bitset::and_assign(cand, &closed[u * words..(u + 1) * words]);
        }
        bound += clique_max;
    }
    bound
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrGraph;

    fn graph(weights: &[f64], edges: &[(NodeId, NodeId)]) -> CsrGraph {
        CsrGraph::from_unique_edges(weights.to_vec(), edges)
    }

    fn path(weights: &[f64]) -> CsrGraph {
        let edges: Vec<(NodeId, NodeId)> = (1..weights.len())
            .map(|i| ((i - 1) as NodeId, i as NodeId))
            .collect();
        graph(weights, &edges)
    }

    fn clique(weights: &[f64]) -> CsrGraph {
        let n = weights.len() as NodeId;
        let edges: Vec<(NodeId, NodeId)> = (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
            .collect();
        graph(weights, &edges)
    }

    #[test]
    fn gwmin_on_empty_graph() {
        assert!(gwmin(&graph(&[], &[])).is_empty());
        assert_eq!(gwmin(&graph(&[1.0; 3], &[])), vec![0, 1, 2]);
    }

    #[test]
    fn clique_yields_heaviest_node() {
        let g = clique(&[1.0, 5.0, 2.0, 4.0]);
        assert_eq!(gwmin(&g), vec![1]);
        assert_eq!(gwmin2(&g), vec![1]);
        assert_eq!(exact(&g, 64).unwrap(), vec![1]);
    }

    #[test]
    fn path_alternation() {
        // Uniform path of 5: optimum is the 3 even vertices.
        let g = path(&[1.0; 5]);
        let ex = exact(&g, 64).unwrap();
        assert_eq!(ex, vec![0, 2, 4]);
        let gr = gwmin(&g);
        assert!(g.is_independent_set(&gr));
        assert_eq!(g.set_weight_sum(&gr), 3.0, "greedy is optimal on paths");
    }

    #[test]
    fn exact_beats_or_ties_greedy_on_crafted_instance() {
        // Star where the center is moderately heavy: greedy w/(d+1) picks
        // leaves; exact confirms leaves win.
        let g = graph(&[3.0, 2.0, 2.0, 2.0], &[(0, 1), (0, 2), (0, 3)]);
        let ex = exact(&g, 64).unwrap();
        assert_eq!(ex, vec![1, 2, 3]);
        let gr = gwmin(&g);
        assert!(g.set_weight_sum(&gr) <= g.set_weight_sum(&ex) + 1e-12);
    }

    #[test]
    fn gwmin_guarantee_holds() {
        // Sakai et al.: weight(IS) >= sum_v w(v)/(deg(v)+1).
        let g = graph(
            &[4.0, 1.0, 3.0, 2.0, 5.0, 1.0],
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)],
        );
        let is = gwmin(&g);
        assert!(g.is_independent_set(&is));
        let bound: f64 = (0..g.len())
            .map(|v| g.weight(v as NodeId) / (g.degree(v as NodeId) as f64 + 1.0))
            .sum();
        assert!(g.set_weight_sum(&is) >= bound - 1e-9);
    }

    #[test]
    fn local_search_adds_free_vertices() {
        let g = path(&[1.0; 5]);
        let improved = local_search(&g, &[]);
        assert!(g.is_independent_set(&improved));
        assert_eq!(g.set_weight_sum(&improved), 3.0);
    }

    #[test]
    fn local_search_swaps_one_for_two() {
        // Star: start from {center}, swap should reach the three leaves.
        let g = graph(&[3.0, 2.0, 2.0, 2.0], &[(0, 1), (0, 2), (0, 3)]);
        let improved = local_search(&g, &[0]);
        assert_eq!(improved, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "independent starting set")]
    fn local_search_rejects_dependent_input() {
        let g = path(&[1.0; 3]);
        local_search(&g, &[0, 1]);
    }

    #[test]
    fn exact_respects_node_limit() {
        let g = graph(&[1.0; 100], &[]);
        assert!(exact(&g, 50).is_none());
        assert!(exact(&g, 100).is_some());
    }

    #[test]
    fn exact_skips_nonpositive_weights() {
        let g = graph(&[5.0, -2.0, 0.0], &[(0, 1)]);
        let ex = exact(&g, 64).unwrap();
        assert_eq!(ex, vec![0], "zero/negative-weight isolated nodes skipped");
    }

    #[test]
    fn gwmin2_handles_zero_weights() {
        let g = graph(&[0.0, 0.0, 1.0], &[(0, 1)]);
        let is = gwmin2(&g);
        assert!(g.is_independent_set(&is));
        assert!(g.set_weight_sum(&is) >= 1.0);
    }

    #[test]
    fn nan_weight_no_longer_wedges_staleness() {
        // With the old `f64`-equality staleness test, a NaN neighbor
        // weight marked every entry of its neighbors stale forever and
        // the greedy silently dropped them. The engine keeps no stale
        // entries to test — a NaN score orders by its integer key like
        // any other — so the result must still be a maximal independent
        // set.
        let g = graph(&[1.0, f64::NAN, 1.0, 1.0], &[(0, 1), (1, 2), (2, 3)]);
        let is = gwmin(&g);
        assert!(g.is_independent_set(&is));
        for v in 0..g.len() as NodeId {
            assert!(
                is.contains(&v) || g.neighbors(v).iter().any(|u| is.contains(u)),
                "node {v} neither selected nor dominated"
            );
        }
    }

    #[test]
    fn solvers_agree_on_paper_fig4_instance() {
        // The Fig. 4 conflict graph: nodes X(1,2,1)=4, X(1,3,1)=2,
        // X(2,3,1)=3, X(2,3,2)=3, X(4,6,4)... — see spindown-core's
        // paper_example tests for the full construction; here we encode
        // just the conflict structure from the figure:
        //   X(1,3,1) -- X(2,3,1)   (energy-constraint on r3)
        //   X(1,3,1) -- X(2,3,2)   (energy-constraint on r3)
        //   X(2,3,1) -- X(2,3,2)   (energy-constraint on r3 / r2)
        //   X(1,2,1) -- X(2,3,2)   (schedule-constraint on r2)
        // Weights per Eq. 3 with TB=5, PI=1:
        //   X(1,2,1)=5-(2-1)=4, X(1,3,1)=5-(3-1)=3... (paper's weights)
        let g = graph(
            &[
                4.0, // 0: X(1,2,1)
                2.0, // 1: X(1,3,1)
                3.0, // 2: X(2,3,1)
                3.0, // 3: X(2,3,2)
                4.0, // 4: X(4,6,4) — isolated in the figure
            ],
            &[(1, 2), (1, 3), (2, 3), (0, 3)],
        );
        let ex = exact(&g, 64).unwrap();
        // Paper's Step 3 selects {X(2,3,1), X(1,2,1), X(4,6,4)} = {2,0,4}.
        assert_eq!(ex, vec![0, 2, 4]);
        assert_eq!(g.set_weight_sum(&ex), 11.0);
        let gr = gwmin(&g);
        assert_eq!(gr, vec![0, 2, 4], "greedy finds the optimum here too");
    }
}
