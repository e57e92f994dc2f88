//! Test-only instance builders and reference solvers.
//!
//! * [`csr_from_edges`] — a [`CsrGraph`] from an arbitrary edge list
//!   (self-loops dropped, duplicates in either orientation collapsed by
//!   a sort and dedup), and [`random_graph`] / [`random_edges`], the
//!   seeded generator every suite draws its random instances from.
//!
//! The reference solvers are the engines the production solvers in
//! `spindown_graph::mwis` and `spindown_graph::setcover` replaced, kept
//! as they were (renamed, and reading instances through their public
//! accessors) so the differential suites can pin the production engines
//! to them.
//!
//! * [`eager_gwmin`] / [`eager_gwmin2`] — the eager-heap greedy cascade.
//!   The coalesced lazy heap that sat between it and the tournament tree
//!   selects the same sets by construction and is not kept.
//! * [`recursive_mwis_exact`] — the recursive clone-per-branch MWIS
//!   branch-and-bound.
//! * [`walking_local_search`] — the local search that walked every
//!   member's neighborhood on every swap pass.
//! * [`recursive_cover_exact`] — the recursive set-cover
//!   branch-and-bound.

// Each test binary uses a subset of the references.
#![allow(dead_code)]

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use spindown_graph::setcover::{Cover, SetCoverInstance};
use spindown_graph::{CsrGraph, NodeId};
use spindown_sim::rng::SimRng;

/// Builds a [`CsrGraph`] from any edge list: each edge is oriented
/// `(min, max)`, self-loops are dropped, and a sort plus dedup collapses
/// repeats, so the list handed to `from_unique_edges` is unique.
pub fn csr_from_edges(weights: Vec<f64>, edges: &[(NodeId, NodeId)]) -> CsrGraph {
    let mut unique: Vec<(NodeId, NodeId)> = edges
        .iter()
        .filter(|&&(u, v)| u != v)
        .map(|&(u, v)| (u.min(v), u.max(v)))
        .collect();
    unique.sort_unstable();
    unique.dedup();
    CsrGraph::from_unique_edges(weights, &unique)
}

/// A random instance with tunable density: `2..=max_n` nodes,
/// continuous weights in (0, 10], and up to `n * edge_factor` edge draws
/// (self-loop draws skipped; repeats kept, in draw order and
/// orientation). `edge_factor` sweeps sparse (1) to near-complete (12 at
/// `max_n` ≈ 40).
pub fn random_edges(
    rng: &mut SimRng,
    max_n: usize,
    edge_factor: usize,
) -> (Vec<f64>, Vec<(NodeId, NodeId)>) {
    let n = 2 + rng.index(max_n - 1);
    let weights: Vec<f64> = (0..n).map(|_| 0.01 + rng.next_f64() * 9.99).collect();
    let mut edges = Vec::new();
    for _ in 0..rng.index(n * edge_factor) {
        let u = rng.index(n) as NodeId;
        let v = rng.index(n) as NodeId;
        if u != v {
            edges.push((u, v));
        }
    }
    (weights, edges)
}

/// [`random_edges`] built into a graph by [`csr_from_edges`].
pub fn random_graph(rng: &mut SimRng, max_n: usize, edge_factor: usize) -> CsrGraph {
    let (weights, edges) = random_edges(rng, max_n, edge_factor);
    csr_from_edges(weights, &edges)
}

/// `mwis::gwmin` driven by the eager cascade — one heap push per
/// neighbor-of-neighbor decrement, the pre-CSR implementation.
pub fn eager_gwmin(g: &CsrGraph) -> Vec<NodeId> {
    greedy_by_eager(g, |w, deg, _nbr_w| w / (deg as f64 + 1.0))
}

/// `mwis::gwmin2` driven by the eager cascade.
pub fn eager_gwmin2(g: &CsrGraph) -> Vec<NodeId> {
    greedy_by_eager(g, gwmin2_score)
}

fn gwmin2_score(w: f64, _deg: usize, nbr_w: f64) -> f64 {
    let denom = w + nbr_w;
    if denom <= 0.0 {
        f64::INFINITY
    } else {
        w / denom
    }
}

/// Max-heap entry of the reference engine: a node's score at the
/// epoch it was (re)computed. An entry is valid only while `epoch`
/// matches the node's current epoch — any cascade that touches the
/// node bumps the epoch, so staleness is an integer comparison,
/// immune to `f64` drift (and to `NaN` weights, which made the old
/// `nbr_w` equality test reject *every* entry).
#[derive(PartialEq)]
struct Entry {
    score: f64,
    node: NodeId,
    epoch: u32,
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on score; tie-break toward smaller node id.
        self.score
            .partial_cmp(&other.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// State of the reference engine: the remaining-graph degree
/// and neighbor-weight per node, plus the epoch counters backing
/// staleness. (The production engine replaced this parallel-`Vec`s
/// layout with one hot record per node carrying only the statistic
/// its score family reads, and dropped the epochs entirely — its
/// tournament tree holds block maxima, rescanned when they may be
/// stale, never per-node entries.)
struct GreedyState {
    alive: Vec<bool>,
    deg: Vec<u32>,
    nbr_w: Vec<f64>,
    epoch: Vec<u32>,
}

impl GreedyState {
    fn init(g: &CsrGraph) -> GreedyState {
        let n = g.len();
        GreedyState {
            alive: vec![true; n],
            deg: (0..n).map(|v| g.degree(v as NodeId) as u32).collect(),
            nbr_w: (0..n)
                .map(|v| {
                    g.neighbors(v as NodeId)
                        .iter()
                        .map(|&u| g.weight(u))
                        .sum::<f64>()
                })
                .collect(),
            epoch: vec![0u32; n],
        }
    }

    fn initial_heap(
        &self,
        g: &CsrGraph,
        score: &impl Fn(f64, usize, f64) -> f64,
    ) -> BinaryHeap<Entry> {
        let mut heap = BinaryHeap::with_capacity(self.alive.len());
        for v in 0..self.alive.len() {
            heap.push(Entry {
                score: score(g.weight(v as NodeId), self.deg[v] as usize, self.nbr_w[v]),
                node: v as NodeId,
                epoch: 0,
            });
        }
        heap
    }
}

/// The original cascade: every degree decrement immediately pushes a
/// refreshed entry. Each intermediate push is invalidated by the next
/// decrement's epoch bump, so per alive node only the latest entry is
/// ever acted on — the same selection the production engine makes with
/// a tree of block maxima and no per-node heap entries. (Staleness here
/// also uses the epoch
/// counter: the historical `f64` equality test on the accumulated
/// neighbor weight was exact-by-accident and fell apart on `NaN`.)
fn greedy_by_eager(g: &CsrGraph, score: impl Fn(f64, usize, f64) -> f64) -> Vec<NodeId> {
    let mut st = GreedyState::init(g);
    let mut heap = st.initial_heap(g, &score);

    let mut result = Vec::new();
    while let Some(e) = heap.pop() {
        let v = e.node as usize;
        if !st.alive[v] || e.epoch != st.epoch[v] {
            continue;
        }
        result.push(e.node);
        st.alive[v] = false;
        for &u in g.neighbors(e.node) {
            let ui = u as usize;
            if !st.alive[ui] {
                continue;
            }
            st.alive[ui] = false;
            let uw = g.weight(u);
            for &w2 in g.neighbors(u) {
                let wi = w2 as usize;
                if !st.alive[wi] {
                    continue;
                }
                st.deg[wi] -= 1;
                st.nbr_w[wi] -= uw;
                st.epoch[wi] += 1;
                heap.push(Entry {
                    score: score(g.weight(w2), st.deg[wi] as usize, st.nbr_w[wi]),
                    node: w2,
                    epoch: st.epoch[wi],
                });
            }
        }
    }
    result.sort_unstable();
    result
}

/// The pre-bitset exact solver: recursive branch-and-bound that clones
/// a `Vec<bool>` alive bitmap per branch and bounds with the plain
/// positive-weight sum. The reference for `mwis::exact` — it recurses
/// one stack frame per branch vertex, so keep it away from instances
/// anywhere near `mwis::DEFAULT_NODE_LIMIT`.
pub fn recursive_mwis_exact(g: &CsrGraph, node_limit: usize) -> Option<Vec<NodeId>> {
    if g.len() > node_limit {
        return None;
    }
    let n = g.len();
    let mut best: Vec<NodeId> = Vec::new();
    let mut best_w = f64::NEG_INFINITY;
    let mut current: Vec<NodeId> = Vec::new();
    let alive: Vec<bool> = vec![true; n];

    fn recurse(
        g: &CsrGraph,
        alive: Vec<bool>,
        current: &mut Vec<NodeId>,
        cur_w: f64,
        best: &mut Vec<NodeId>,
        best_w: &mut f64,
    ) {
        // Remaining positive weight as an (admissible) upper bound.
        let rem: f64 = alive
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a)
            .map(|(v, _)| g.weight(v as NodeId).max(0.0))
            .sum();
        if cur_w + rem <= *best_w {
            return;
        }
        // Pick the alive vertex of maximum alive-degree.
        let pick = alive
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a)
            .map(|(v, _)| {
                let d = g
                    .neighbors(v as NodeId)
                    .iter()
                    .filter(|&&u| alive[u as usize])
                    .count();
                (d, v)
            })
            .max();
        let Some((deg, v)) = pick else {
            if cur_w > *best_w {
                *best_w = cur_w;
                *best = current.clone();
            }
            return;
        };
        if deg == 0 {
            // All remaining vertices are isolated: take every positive one.
            let mut w = cur_w;
            let mut taken = Vec::new();
            for (u, &a) in alive.iter().enumerate() {
                if a && g.weight(u as NodeId) > 0.0 {
                    w += g.weight(u as NodeId);
                    taken.push(u as NodeId);
                }
            }
            if w > *best_w {
                *best_w = w;
                let mut sol = current.clone();
                sol.extend(taken);
                *best = sol;
            }
            return;
        }
        // Branch 1: include v.
        let mut incl = alive.clone();
        incl[v] = false;
        for &u in g.neighbors(v as NodeId) {
            incl[u as usize] = false;
        }
        current.push(v as NodeId);
        recurse(
            g,
            incl,
            current,
            cur_w + g.weight(v as NodeId),
            best,
            best_w,
        );
        current.pop();
        // Branch 2: exclude v.
        let mut excl = alive;
        excl[v] = false;
        recurse(g, excl, current, cur_w, best, best_w);
    }

    recurse(g, alive, &mut current, 0.0, &mut best, &mut best_w);
    best.sort_unstable();
    Some(best)
}

/// `mwis::local_search` as it was before it counted swap candidates:
/// every pass walks each member's sorted neighbor slice for the
/// candidates of a (1,2)-swap, however few there are.
pub fn walking_local_search(g: &CsrGraph, initial: &[NodeId]) -> Vec<NodeId> {
    let n = g.len();
    let mut in_set = vec![false; n];
    for &v in initial {
        in_set[v as usize] = true;
    }
    // conflicts[v] = number of set members adjacent to v.
    let mut conflicts = vec![0u32; n];
    for &v in initial {
        for &u in g.neighbors(v) {
            conflicts[u as usize] += 1;
        }
    }

    let add = |v: usize, in_set: &mut Vec<bool>, conflicts: &mut Vec<u32>| {
        in_set[v] = true;
        for &u in g.neighbors(v as NodeId) {
            conflicts[u as usize] += 1;
        }
    };
    let remove = |v: usize, in_set: &mut Vec<bool>, conflicts: &mut Vec<u32>| {
        in_set[v] = false;
        for &u in g.neighbors(v as NodeId) {
            conflicts[u as usize] -= 1;
        }
    };

    let mut improved = true;
    while improved {
        improved = false;
        // Add moves.
        for v in 0..n {
            if !in_set[v] && conflicts[v] == 0 && g.weight(v as NodeId) > 0.0 {
                add(v, &mut in_set, &mut conflicts);
                improved = true;
            }
        }
        // (1,2)-swaps.
        for v in 0..n {
            if !in_set[v] {
                continue;
            }
            // Candidates: non-members whose only set-conflict is v, in
            // ascending order (a filtered sorted slice).
            let cands: Vec<NodeId> = g
                .neighbors(v as NodeId)
                .iter()
                .copied()
                .filter(|&u| !in_set[u as usize] && conflicts[u as usize] == 1)
                .collect();
            let mut done = false;
            for (i, &a) in cands.iter().enumerate() {
                for &b in &cands[i + 1..] {
                    if !g.has_edge(a, b) && g.weight(a) + g.weight(b) > g.weight(v as NodeId) {
                        remove(v, &mut in_set, &mut conflicts);
                        add(a as usize, &mut in_set, &mut conflicts);
                        add(b as usize, &mut in_set, &mut conflicts);
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
    let mut out: Vec<NodeId> = (0..n as u32).filter(|&v| in_set[v as usize]).collect();
    out.sort_unstable();
    out
}

/// The pre-bitset exact set-cover solver: recursive branch-and-bound
/// with a `Vec<bool>` covered bitmap and no lower bound beyond the
/// incumbent. The reference for `SetCoverInstance::solve_exact` — it
/// recurses one stack frame per chosen set, so keep it away from
/// universes anywhere near `setcover::DEFAULT_ELEMENT_LIMIT`.
pub fn recursive_cover_exact(inst: &SetCoverInstance, element_limit: usize) -> Option<Cover> {
    if inst.universe() > element_limit {
        return None;
    }
    // Pre-index: which sets cover each element?
    let mut covering: Vec<Vec<usize>> = vec![Vec::new(); inst.universe()];
    for (i, s) in inst.sets().iter().enumerate() {
        for &e in &s.elements {
            covering[e as usize].push(i);
        }
    }
    if covering.iter().any(|c| c.is_empty()) && inst.universe() > 0 {
        return None;
    }

    struct Ctx<'a> {
        inst: &'a SetCoverInstance,
        covering: Vec<Vec<usize>>,
        best_w: f64,
        best: Option<Vec<usize>>,
    }

    fn recurse(ctx: &mut Ctx<'_>, covered: &mut [bool], chosen: &mut Vec<usize>, w: f64) {
        if w >= ctx.best_w {
            return;
        }
        let Some(e) = covered.iter().position(|&c| !c) else {
            ctx.best_w = w;
            ctx.best = Some(chosen.clone());
            return;
        };
        // Try each set that covers e (clone-undo covered bitmap).
        for i in 0..ctx.covering[e].len() {
            let s = ctx.covering[e][i];
            if chosen.contains(&s) {
                continue;
            }
            let newly: Vec<usize> = ctx.inst.sets()[s]
                .elements
                .iter()
                .map(|&x| x as usize)
                .filter(|&x| !covered[x])
                .collect();
            for &x in &newly {
                covered[x] = true;
            }
            chosen.push(s);
            recurse(ctx, covered, chosen, w + ctx.inst.sets()[s].weight);
            chosen.pop();
            for &x in &newly {
                covered[x] = false;
            }
        }
    }

    let mut ctx = Ctx {
        inst,
        covering,
        best_w: f64::INFINITY,
        best: None,
    };
    let mut covered = vec![false; inst.universe()];
    let mut chosen = Vec::new();
    recurse(&mut ctx, &mut covered, &mut chosen, 0.0);
    let mut sets = ctx.best?;
    sets.sort_unstable();
    Some(Cover {
        weight: sets.iter().map(|&s| inst.sets()[s].weight).sum(),
        sets,
    })
}
