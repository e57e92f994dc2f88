//! Energy-aware `MWIS` offline planner (paper §3.1, Fig. 4).
//!
//! Given the entire request stream up front, scheduling is reduced to
//! maximum-weight independent set:
//!
//! * **Step 1** — one graph node per candidate saving `X(i,j,k) > 0`: a
//!   pair of requests `r_i`, `r_j` (`t_i < t_j`, gap inside the saving
//!   window) whose data both live on disk `d_k`, weighted by Eq. 3.
//! * **Step 2** — an edge for every violated constraint pair:
//!   *energy-constraint* (two nodes claim the same `r_i`) and
//!   *schedule-constraint* (two nodes share a request but name different
//!   disks).
//! * **Step 3** — solve MWIS (the paper uses the GMIN greedy \[22\]).
//! * **Step 4** — derive the assignment: each selected `X(i,j,k)` pins
//!   `r_i` and `r_j` to `d_k`; leftover requests go to any location
//!   (cheapest by recent-use, ties to lower disk id).
//!
//! ### Node pruning
//!
//! The formulation admits a node for *every* in-window pair on a disk,
//! which is quadratic in per-disk request density. Since `X` shrinks as
//! the gap grows, far successors are dominated by near ones; the planner
//! keeps the nearest [`MwisPlanner::max_successors`] successors per
//! `(request, disk)` (default 3, configurable; tests use exhaustive
//! settings on small instances).
//!
//! ### Conflict-graph storage
//!
//! Step 1 emits the node table; Step 2 fills a frozen [`CsrGraph`]
//! ([`ConflictGraph`]) node by node, straight from flat per-request
//! buckets of node ids, with no edge list in between: a count pass sizes
//! every neighbor slice and a fill pass writes it, already sorted, into
//! one exactly-sized array. Steps 3–4 read that graph and nothing else.
//! The rolling-horizon [`WindowedPlanner`] keeps the same canonical
//! graph per window: it re-runs Step 1 only where arrivals can add
//! nodes, and rebuilds the rows in one serial pass that copies the
//! surviving rows and applies the same Step 2 rule
//! (`MwisPlanner::step2_conflicts`) to the new nodes.

use spindown_disk::power::PowerParams;
use spindown_sim::pool;
use spindown_sim::time::SimTime;

use spindown_graph::mwis as solvers;
use spindown_graph::{CsrGraph, NodeId};

use crate::model::{Assignment, DiskId, Request};
use crate::saving::SavingModel;
use crate::sched::LocationProvider;

/// Which MWIS algorithm Step 3 runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MwisSolver {
    /// The paper's GMIN greedy (Sakai et al. \[22\]).
    GwMin,
    /// Weight-ratio greedy variant — the "more sophisticated independent
    /// set algorithm" the paper suggests would save more (§5.1).
    GwMin2,
    /// GWMIN followed by (1,2)-swap local search.
    GwMinLocalSearch,
    /// Exact branch-and-bound — only feasible on small instances; falls
    /// back to GWMIN above the given node budget.
    Exact {
        /// Maximum node count before falling back to GWMIN.
        node_limit: usize,
    },
    /// GWMIN followed by assignment-level hill climbing
    /// ([`crate::refine::refine_assignment`]) — an extension beyond the
    /// paper that directly improves the derived schedule.
    GwMinRefined {
        /// Maximum hill-climbing passes over the request stream.
        passes: usize,
    },
}

impl MwisSolver {
    /// Exact branch-and-bound at the solver library's default node budget
    /// ([`solvers::DEFAULT_NODE_LIMIT`]) — raised from the old hardcoded
    /// 64 now that the iterative bitset solver carries larger instances.
    pub fn exact_default() -> Self {
        MwisSolver::Exact {
            node_limit: solvers::DEFAULT_NODE_LIMIT,
        }
    }
}

/// A constructed Step 1/2 graph plus the metadata to interpret its nodes.
///
/// The graph is frozen CSR, built once and solved many times — sorted
/// flat adjacency gives the MWIS cascades contiguous neighbor scans and
/// `has_edge` a binary search.
#[derive(Debug)]
pub struct ConflictGraph {
    /// The node-weighted conflict graph.
    pub graph: CsrGraph,
    /// Per node: the `(i, j, k)` triple it encodes.
    pub nodes: Vec<(u32, u32, DiskId)>,
}

/// Reusable working memory for repeated planner solves: the greedy
/// engine's [`GreedyScratch`](solvers::GreedyScratch) plus the selection
/// vector the solve writes into. A scratch warmed on one window performs
/// zero allocations on every later greedy solve of windows no larger
/// than the warm one — the property the rolling-horizon re-planning
/// loop (ROADMAP) and the bench harness's `allocs_per_solve` gauge
/// depend on. Carries no results between solves.
#[derive(Default)]
pub struct PlanScratch {
    greedy: solvers::GreedyScratch,
    /// Selection of the most recent [`MwisPlanner::solve_into`] call,
    /// sorted ascending.
    pub selected: Vec<NodeId>,
}

impl PlanScratch {
    /// An empty scratch; buffers are sized lazily by the first solve.
    pub fn new() -> Self {
        PlanScratch::default()
    }
}

/// Minimum build size — candidate-pair units, `requests ×
/// max_successors` — below which [`MwisPlanner::build_graph_with_jobs`]
/// stays serial regardless of the requested worker count.
///
/// Sharding a build costs three pool spawns (Step 1 over disk ranges,
/// then the Step 2 count and fill passes over node ranges) plus the
/// Step 1 concatenation; on builds enumerating fewer than ~2 k candidate
/// pairs the whole serial build finishes in tens of microseconds, below
/// the spawn overhead alone, which is how
/// `graph_build_parallel_speedup` regressed under 1.0 on few-core hosts.
/// This mirrors the offline evaluator's
/// [`MIN_PARALLEL_WORK`](crate::offline::MIN_PARALLEL_WORK) guard; the
/// value is recorded in DESIGN.md §12. The parallel-determinism suite's
/// instances all enumerate ≥ 2 400 candidate pairs, so the sharded path
/// stays genuinely exercised.
pub const MIN_PARALLEL_BUILD_WORK: usize = 1 << 11;

/// Shards per build pass over `len` tasks: one when serial, so `jobs = 1`
/// makes no per-shard allocations, else the pool's default.
fn build_shards(jobs: usize, len: usize) -> usize {
    if jobs == 1 {
        1
    } else {
        pool::default_shards(jobs, len)
    }
}

/// Counting sort into a flat bucket table: `entries` yields every
/// `(bucket, value)` pair and is walked twice, to count and to fill.
/// Bucket `b` comes out as `values[start[b]..start[b + 1]]`, in the
/// order `entries` yields it. Two allocations, whatever the input size.
fn counting_sort<I>(buckets: usize, entries: impl Fn() -> I) -> (Vec<usize>, Vec<u32>)
where
    I: Iterator<Item = (usize, u32)>,
{
    let mut start = vec![0usize; buckets + 1];
    for (b, _) in entries() {
        start[b + 1] += 1;
    }
    for b in 0..buckets {
        start[b + 1] += start[b];
    }
    // `start[b]` is bucket b's write cursor during the fill, which
    // leaves it at the bucket's end; shifting one slot right restores
    // the starts.
    let mut values = vec![0u32; start[buckets]];
    for (b, value) in entries() {
        values[start[b]] = value;
        start[b] += 1;
    }
    start.copy_within(0..buckets, 1);
    start[0] = 0;
    (start, values)
}

/// Per-disk time-ordered request lists of `requests` under `placement`:
/// disk `k`'s run is `list[start[k]..start[k + 1]]`.
fn disk_lists(requests: &[Request], placement: &dyn LocationProvider) -> (Vec<usize>, Vec<u32>) {
    counting_sort(placement.disks() as usize, || {
        requests.iter().flat_map(|r| {
            let locations = placement.locations(r.data);
            locations.iter().map(move |d| (d.index(), r.index))
        })
    })
}

/// Per-request buckets of every node touching the request, ascending by
/// id: request `r`'s bucket is `bucket[start[r]..start[r + 1]]`.
fn request_buckets(requests: usize, nodes: &[(u32, u32, DiskId)]) -> (Vec<usize>, Vec<NodeId>) {
    counting_sort(requests, || {
        nodes
            .iter()
            .enumerate()
            .flat_map(|(v, &(i, j, _))| [(i as usize, v as NodeId), (j as usize, v as NodeId)])
    })
}

/// The offline scheduler.
#[derive(Debug, Clone)]
pub struct MwisPlanner {
    /// Power model (for Eq. 3 weights and the saving window).
    pub params: PowerParams,
    /// Step 3 algorithm.
    pub solver: MwisSolver,
    /// Per-(request, disk) successor fan-out kept in Step 1.
    pub max_successors: usize,
}

impl MwisPlanner {
    /// Planner with the paper's configuration: GMIN greedy, pruned
    /// successor fan-out.
    pub fn new(params: PowerParams) -> Self {
        MwisPlanner {
            params,
            solver: MwisSolver::GwMin,
            max_successors: 3,
        }
    }

    /// Step 1 inner loop for one disk: emits every candidate saving
    /// `X(i,j,k) > 0` among successor pairs on `list` (the disk's
    /// time-ordered request ids), appending to `weights`/`nodes`. Shared
    /// verbatim by the from-scratch build and the rolling-horizon delta
    /// walk so the two cannot diverge.
    fn step1_disk(
        model: &SavingModel,
        requests: &[Request],
        max_successors: usize,
        k: usize,
        list: &[u32],
        weights: &mut Vec<f64>,
        nodes: &mut Vec<(u32, u32, DiskId)>,
    ) {
        for (pos, &i) in list.iter().enumerate() {
            let ti = requests[i as usize].at;
            for &j in list[pos + 1..].iter().take(max_successors) {
                let tj = requests[j as usize].at;
                // Strict ordering per Eq. 4 (t_i < t_j). Same-instant
                // pairs are ordered by stream index, which is the
                // paper's batch situation — allow them with gap 0.
                let x = model.pair_saving_j(ti, tj);
                if x <= 0.0 {
                    // Later successors only have larger gaps on this
                    // disk, so stop early.
                    break;
                }
                weights.push(x);
                nodes.push((i, j, DiskId(k as u32)));
            }
        }
    }

    /// Step 1: one node per candidate saving `X(i,j,k) > 0`, returned as
    /// node weights and `(i, j, k)` triples in canonical disk-major
    /// order. Contiguous disk ranges fan out over the pool;
    /// concatenating their outputs in shard order is the serial emission
    /// sequence, so node ids are the same for any `jobs`.
    fn step1_nodes(
        &self,
        requests: &[Request],
        placement: &dyn LocationProvider,
        jobs: usize,
    ) -> (Vec<f64>, Vec<(u32, u32, DiskId)>) {
        debug_assert!(
            requests.windows(2).all(|w| w[0].at <= w[1].at),
            "requests must be sorted by time"
        );
        let model = SavingModel::new(&self.params);
        let (start, list) = disk_lists(requests, placement);
        let disks = start.len() - 1;
        let ranges = pool::shard_ranges(disks, build_shards(jobs, disks));
        let ms = self.max_successors;
        let parts = pool::map_indexed(jobs, ranges.len(), |s| {
            let (mut weights, mut nodes) = (Vec::new(), Vec::new());
            for k in ranges[s].clone() {
                let run = &list[start[k]..start[k + 1]];
                Self::step1_disk(&model, requests, ms, k, run, &mut weights, &mut nodes);
            }
            (weights, nodes)
        });
        let mut parts = parts.into_iter();
        let (mut weights, mut nodes) = parts.next().unwrap_or_default();
        for (w, n) in parts {
            weights.extend(w);
            nodes.extend(n);
        }
        (weights, nodes)
    }

    /// Step 2's conflict rule for node `v`: reports, in ascending id
    /// order, every node in `bucket` that conflicts with `v` (every node
    /// when the buckets hold them all). Walks the buckets of `v`'s two
    /// requests (`bucket[start[r]..start[r + 1]]`, ascending node ids)
    /// as one sorted merge, so a node that shares both requests
    /// (the same `(i, j)` on another disk) is met once and `v` itself is
    /// skipped. Two nodes sharing a request conflict unless they chain on
    /// the same disk (`j == i'`): same primary request (both claim
    /// `r_i`'s saving), same successor (`r_j` can immediately succeed
    /// only one request per disk — the Fig. 4 edge set, where X(1,3,1)
    /// and X(2,3,1) conflict "because of the energy-constraint of
    /// request r3"), or a shared request pinned to different disks (the
    /// schedule-constraint).
    #[inline]
    fn step2_conflicts(
        nodes: &[(u32, u32, DiskId)],
        start: &[usize],
        bucket: &[NodeId],
        v: usize,
        mut emit: impl FnMut(NodeId),
    ) {
        let (iv, jv, kv) = nodes[v];
        let a = &bucket[start[iv as usize]..start[iv as usize + 1]];
        let b = &bucket[start[jv as usize]..start[jv as usize + 1]];
        let mut check = |u: NodeId| {
            let (iu, ju, ku) = nodes[u as usize];
            if u as usize != v && (iu == iv || ju == jv || ku != kv) {
                emit(u);
            }
        };
        // Merge while both buckets have entries, taking the smaller id
        // (both cursors advance on a shared id), then drain the tails.
        let (mut x, mut y) = (0, 0);
        while x < a.len() && y < b.len() {
            let (p, q) = (a[x], b[y]);
            x += usize::from(p <= q);
            y += usize::from(q <= p);
            check(p.min(q));
        }
        a[x..].iter().chain(&b[y..]).for_each(|&u| check(u));
    }

    /// Builds the Step 1/2 conflict graph for `requests` (sorted by
    /// time) under `placement`; the same as
    /// [`build_graph_with_jobs`](MwisPlanner::build_graph_with_jobs) at
    /// `jobs = 1`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `requests` is not time-sorted.
    pub fn build_graph(
        &self,
        requests: &[Request],
        placement: &dyn LocationProvider,
    ) -> ConflictGraph {
        self.build_graph_with_jobs(requests, placement, 1)
    }

    /// Builds the Step 1/2 conflict graph for `requests` (sorted by
    /// time) under `placement`, straight into CSR with no edge list.
    ///
    /// Step 1 emits the nodes only. One counting sort over the node
    /// table gives flat per-request buckets of ascending node ids, and
    /// Step 2 walks each node's two buckets as one sorted merge twice: a
    /// count pass writes every degree, the prefix-summed degrees become
    /// the CSR offsets, and a fill pass writes every neighbor slice,
    /// already sorted, into one exactly-sized neighbor array. Each pass
    /// is `O(Σ_r |bucket_r|²)`, every node walking the buckets of its
    /// two requests, and the build makes a constant number of
    /// allocations whatever the stream length.
    ///
    /// Step 1 shards over contiguous disk ranges and both Step 2 passes
    /// over contiguous node ranges, each shard writing only its own
    /// disjoint chunk of the offsets or the neighbors
    /// ([`pool::map_chunks_mut`]), so the graph is **bit-identical** for
    /// any worker count. `jobs <= 1` spawns nothing, and neither do
    /// builds smaller than [`MIN_PARALLEL_BUILD_WORK`] candidate pairs —
    /// too little work to amortize the pool spawns.
    ///
    /// # Panics
    ///
    /// Panics if the half-edge count overflows the `u32` CSR offsets
    /// (before the neighbor array is allocated), and in debug builds if
    /// `requests` is not time-sorted.
    pub fn build_graph_with_jobs(
        &self,
        requests: &[Request],
        placement: &dyn LocationProvider,
        jobs: usize,
    ) -> ConflictGraph {
        let work = requests.len().saturating_mul(self.max_successors);
        let jobs = if work < MIN_PARALLEL_BUILD_WORK {
            1
        } else {
            jobs.max(1)
        };
        let (weights, nodes) = self.step1_nodes(requests, placement, jobs);

        let (start, bucket) = request_buckets(requests.len(), &nodes);

        // Step 2 count pass: node v's degree into `offsets[v + 1]`.
        let n = nodes.len();
        let ranges = pool::shard_ranges(n, build_shards(jobs, n));
        let node_bounds: Vec<usize> = std::iter::once(0)
            .chain(ranges.iter().map(|r| r.end))
            .collect();
        let mut offsets = vec![0u32; n + 1];
        let half: usize =
            pool::map_chunks_mut(jobs, &mut offsets[1..], &node_bounds, |s, degrees| {
                let mut sum = 0;
                for (degree, v) in degrees.iter_mut().zip(ranges[s].clone()) {
                    Self::step2_conflicts(&nodes, &start, &bucket, v, |_| *degree += 1);
                    sum += *degree as usize;
                }
                sum
            })
            .into_iter()
            .sum();
        assert!(
            half <= u32::MAX as usize,
            "CSR offsets are u32: {half} half-edges exceed u32::MAX"
        );
        let mut acc = 0;
        for offset in &mut offsets[1..] {
            acc += *offset;
            *offset = acc;
        }

        // Step 2 fill pass: each shard writes its nodes' slices, in node
        // order, into its own chunk of the neighbor array.
        let mut neighbors = vec![0 as NodeId; half];
        let slice_bounds: Vec<usize> = node_bounds.iter().map(|&v| offsets[v] as usize).collect();
        pool::map_chunks_mut(jobs, &mut neighbors, &slice_bounds, |s, chunk| {
            let mut at = 0;
            for v in ranges[s].clone() {
                Self::step2_conflicts(&nodes, &start, &bucket, v, |u| {
                    chunk[at] = u;
                    at += 1;
                });
            }
            debug_assert_eq!(at, chunk.len(), "fill pass diverged from the count pass");
        });

        ConflictGraph {
            graph: CsrGraph::from_sorted_parts(weights, offsets, neighbors, half / 2),
            nodes,
        }
    }

    /// Runs Step 3 on a built graph, returning the selected node ids.
    pub fn solve(&self, cg: &ConflictGraph) -> Vec<NodeId> {
        let mut scratch = PlanScratch::new();
        self.solve_into(cg, &mut scratch);
        scratch.selected
    }

    /// [`solve`](MwisPlanner::solve) with caller-owned working memory:
    /// the selection lands in `scratch.selected` and the greedy engine
    /// runs out of `scratch`'s warm buffers, so repeated windows through
    /// one scratch allocate nothing for the greedy solvers. The scratch
    /// carries no state between solves — results are identical to a
    /// fresh [`solve`](MwisPlanner::solve) call.
    pub fn solve_into(&self, cg: &ConflictGraph, scratch: &mut PlanScratch) {
        let graph = &cg.graph;
        let PlanScratch { greedy, selected } = scratch;
        match self.solver {
            MwisSolver::GwMin => solvers::gwmin_into(graph, greedy, selected),
            MwisSolver::GwMin2 => solvers::gwmin2_into(graph, greedy, selected),
            MwisSolver::GwMinLocalSearch => {
                solvers::gwmin_into(graph, greedy, selected);
                *selected = solvers::local_search(graph, selected);
            }
            MwisSolver::Exact { node_limit } => match solvers::exact(graph, node_limit) {
                Some(sel) => *selected = sel,
                None => solvers::gwmin_into(graph, greedy, selected),
            },
            MwisSolver::GwMinRefined { .. } => solvers::gwmin_into(graph, greedy, selected),
        }
    }

    /// Full pipeline: build, solve, derive (Step 4). Returns the
    /// assignment and the solver's total claimed saving (joules).
    pub fn plan(
        &self,
        requests: &[Request],
        placement: &dyn LocationProvider,
    ) -> (Assignment, f64) {
        self.plan_with_jobs(requests, placement, 1)
    }

    /// [`plan`](MwisPlanner::plan) with the graph build fanned across
    /// `jobs` workers ([`build_graph_with_jobs`]). Steps 3–4 are
    /// unchanged, so the plan is bit-identical for any `jobs` value.
    ///
    /// [`build_graph_with_jobs`]: MwisPlanner::build_graph_with_jobs
    pub fn plan_with_jobs(
        &self,
        requests: &[Request],
        placement: &dyn LocationProvider,
        jobs: usize,
    ) -> (Assignment, f64) {
        let cg = self.build_graph_with_jobs(requests, placement, jobs);
        let selected = self.solve(&cg);
        self.derive_plan(requests, placement, &cg.graph, &cg.nodes, &selected)
    }

    /// Step 4 plus the claimed-saving sum, shared verbatim by
    /// [`plan_with_jobs`](MwisPlanner::plan_with_jobs) and the
    /// rolling-horizon [`WindowedPlanner`]: walks `selected` in id order
    /// (fixing the float-accumulation order of the claimed saving), pins
    /// each selected node's request pair, and routes leftovers to their
    /// most-recently-used replica — so any two callers handing in the
    /// same graph, node table, and selection derive bit-identical plans.
    pub fn derive_plan(
        &self,
        requests: &[Request],
        placement: &dyn LocationProvider,
        graph: &CsrGraph,
        nodes: &[(u32, u32, DiskId)],
        selected: &[NodeId],
    ) -> (Assignment, f64) {
        let claimed: f64 = selected.iter().map(|&v| graph.weight(v)).sum();

        // Step 4: pin requests named by selected nodes.
        let mut assignment = Assignment::with_len(requests.len());
        let mut pinned = vec![false; requests.len()];
        for &v in selected {
            let (i, j, k) = nodes[v as usize];
            for r in [i, j] {
                let r = r as usize;
                debug_assert!(
                    !pinned[r] || assignment.disks[r] == k,
                    "constraint violation: request pinned to two disks"
                );
                assignment.disks[r] = k;
                pinned[r] = true;
            }
        }

        // Leftovers: any location is energetically equivalent (no saving
        // was available); choose the location that most recently received
        // a pinned/earlier request, falling back to the original copy.
        // This mirrors the paper's Fig. 4 Step 4 note about r4.
        let mut last_use: Vec<Option<u32>> = vec![None; placement.disks() as usize];
        for (r, req) in requests.iter().enumerate() {
            if pinned[r] {
                last_use[assignment.disks[r].index()] = Some(req.index);
                continue;
            }
            let locs = placement.locations(req.data);
            let choice = locs
                .iter()
                .max_by_key(|d| {
                    (
                        last_use[d.index()].map(|t| t as i64).unwrap_or(-1),
                        std::cmp::Reverse(d.0),
                    )
                })
                .copied()
                .expect("non-empty locations");
            assignment.disks[r] = choice;
            last_use[choice.index()] = Some(req.index);
        }
        if let MwisSolver::GwMinRefined { passes } = self.solver {
            crate::refine::refine_assignment(
                requests,
                &mut assignment,
                placement,
                &self.params,
                None,
                passes,
            );
        }
        (assignment, claimed)
    }
}

/// Counters kept by [`WindowedPlanner`]: cumulative delta sizes across
/// every advance plus gauges describing the most recent window. The
/// ratio of `appended_nodes_total` to `graph_nodes × windows` is the
/// turnover the incremental path paid for, versus the full rebuild a
/// from-scratch planner would have run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReplanStats {
    /// Windows planned so far (every advance call).
    pub windows: u64,
    /// Advances that rebuilt the graph because a node retired or was
    /// appended (the cold start always counts one); any other advance
    /// keeps the graph as it is.
    pub compactions: u64,
    /// Requests retired across all advances.
    pub retired_requests_total: u64,
    /// Requests arrived across all advances.
    pub arrived_requests_total: u64,
    /// Conflict-graph nodes retired across all advances.
    pub retired_nodes_total: u64,
    /// Conflict-graph nodes appended across all advances.
    pub appended_nodes_total: u64,
    /// Conflict edges with at least one appended endpoint, each counted
    /// once, across all advances.
    pub staged_edges_total: u64,
    /// Requests in the current window.
    pub window_requests: usize,
    /// Nodes in the current window's conflict graph.
    pub graph_nodes: usize,
    /// Edges in the current window's conflict graph.
    pub graph_edges: usize,
}

/// Rolling-horizon incremental re-planner (ROADMAP; the paper's offline
/// planner run as a sliding window).
///
/// Holds one planning window of requests and its [`ConflictGraph`], and
/// [`advance`](WindowedPlanner::advance)s the window by retiring
/// everything before a new horizon and admitting a batch of arrivals.
/// The first advance into an empty window is a from-scratch
/// [`MwisPlanner::build_graph_with_jobs`]; every later one computes the
/// **delta**:
///
/// * **Step 1.** A node retires iff its earlier request does. Arrivals
///   extend the per-disk lists, and only each disk's *resume region* —
///   its last `max_successors` surviving positions, the only ones whose
///   successor enumeration can grow — is re-run through the shared
///   Step 1 helper (`MwisPlanner::step1_disk`), which yields the new
///   nodes. A walk merging each disk's surviving nodes with that
///   re-emission gives the next node table in the canonical disk-major
///   order of a from-scratch build, plus an old→new id map.
/// * **Step 2.** One serial pass writes the next CSR graph into the
///   previous generation's arenas. A new node's row is the one Step 2
///   rule (`MwisPlanner::step2_conflicts`) over the request buckets of
///   every node. A surviving node's row is its previous row, renumbered
///   with retired nodes dropped (still ascending: survivors keep their
///   relative order), merged with the same rule over buckets holding
///   only the new nodes.
///
/// The graph is therefore **bit-identical** to
/// [`MwisPlanner::build_graph`] over the new window, and the
/// warm-scratch solve plus the shared Step 4 derivation
/// ([`MwisPlanner::derive_plan`]) yield the bit-identical plan. The
/// from-scratch path is retained as the per-window oracle, pinned by
/// `core/tests/window_replan_differential.rs`.
///
/// Solves run out of one [`PlanScratch`] warmed on the first window:
/// later windows of no greater size allocate nothing in the greedy
/// engine (the `window_replan_allocs_per_solve` gauge in the bench
/// harness pins zero).
pub struct WindowedPlanner {
    planner: MwisPlanner,
    disks: u32,
    /// Workers for the cold-start build.
    jobs: usize,
    /// Current window, time-sorted, `index == position`.
    requests: Vec<Request>,
    /// The current window's canonical conflict graph.
    graph: ConflictGraph,
    scratch: PlanScratch,
    /// The previous graph's CSR arenas, recycled into the next one.
    spare: (Vec<f64>, Vec<u32>, Vec<NodeId>),
    stats: ReplanStats,
}

impl WindowedPlanner {
    /// An empty window over a fleet of `disks` disks. The first
    /// [`advance`](WindowedPlanner::advance) loads the first window with
    /// a build over `jobs` workers, bit-identical for any count; later
    /// advances are delta-sized and serial.
    pub fn new(planner: MwisPlanner, disks: u32, jobs: usize) -> Self {
        WindowedPlanner {
            planner,
            disks,
            jobs,
            requests: Vec::new(),
            graph: ConflictGraph {
                graph: CsrGraph::default(),
                nodes: Vec::new(),
            },
            scratch: PlanScratch::new(),
            spare: (Vec::new(), Vec::new(), Vec::new()),
            stats: ReplanStats::default(),
        }
    }

    /// The inner planner (power model, solver, pruning fan-out).
    pub fn planner(&self) -> &MwisPlanner {
        &self.planner
    }

    /// The current window's requests (window-relative ids).
    pub fn window(&self) -> &[Request] {
        &self.requests
    }

    /// The current window's conflict graph and node table, as
    /// [`MwisPlanner::build_graph`] over [`window`](WindowedPlanner::window)
    /// would build them.
    pub fn graph(&self) -> &ConflictGraph {
        &self.graph
    }

    /// Counters across all advances plus current-window gauges.
    pub fn stats(&self) -> &ReplanStats {
        &self.stats
    }

    /// Slides the window ([`advance_window`](WindowedPlanner::advance_window))
    /// and plans it ([`plan_current`](WindowedPlanner::plan_current)).
    /// Returns the plan — assignment indexed by the new window's request
    /// positions ([`window`](WindowedPlanner::window)) plus the claimed
    /// saving — bit-identical to `MwisPlanner::plan` over the same window.
    ///
    /// # Panics
    ///
    /// As [`advance_window`](WindowedPlanner::advance_window).
    pub fn advance(
        &mut self,
        arrivals: &[Request],
        expired_horizon: SimTime,
        placement: &dyn LocationProvider,
    ) -> (Assignment, f64) {
        self.advance_window(arrivals, expired_horizon, placement);
        self.plan_current(placement)
    }

    /// Retires every request with `at < expired_horizon`, admits
    /// `arrivals` at the tail and maintains the conflict graph by delta,
    /// without solving it. Callers that only need the graph (or time
    /// maintenance apart from the solve) pair this with
    /// [`plan_current`](WindowedPlanner::plan_current).
    ///
    /// `placement` must be the same provider on every call (placements
    /// are keyed by data id, so it is window-independent).
    ///
    /// # Panics
    ///
    /// Panics if `arrivals` are not time-sorted, start before the
    /// surviving window tail, or `placement` disagrees with the
    /// configured disk count, and if the window graph's half-edge count
    /// overflows the `u32` CSR offsets.
    pub fn advance_window(
        &mut self,
        arrivals: &[Request],
        expired_horizon: SimTime,
        placement: &dyn LocationProvider,
    ) {
        assert_eq!(
            placement.disks(),
            self.disks,
            "placement disk count changed between advances"
        );
        assert!(
            arrivals.windows(2).all(|w| w[0].at <= w[1].at),
            "arrivals must be time-sorted"
        );
        let retired = self.requests.partition_point(|r| r.at < expired_horizon);
        if let (Some(last), Some(first)) = (self.requests.last(), arrivals.first()) {
            assert!(
                first.at >= last.at,
                "arrivals must not precede the window tail"
            );
        }
        let survivors = self.requests.len() - retired;

        self.stats.windows += 1;
        self.stats.retired_requests_total += retired as u64;
        self.stats.arrived_requests_total += arrivals.len() as u64;

        if retired == 0 && arrivals.is_empty() {
            // Empty delta: the window and its graph are unchanged.
            return;
        }

        // Rebase the survivors and admit the arrivals.
        let reqs: Vec<Request> = self.requests[retired..]
            .iter()
            .chain(arrivals)
            .enumerate()
            .map(|(p, r)| Request {
                index: p as u32,
                ..*r
            })
            .collect();

        if self.requests.is_empty() {
            // Cold start: the delta is the whole window, so run the
            // sharded from-scratch build. Every node counts as
            // appended and every edge as staged.
            self.graph = self
                .planner
                .build_graph_with_jobs(&reqs, placement, self.jobs);
            self.stats.appended_nodes_total += self.graph.nodes.len() as u64;
            self.stats.staged_edges_total += self.graph.graph.edge_count() as u64;
            self.stats.compactions += 1;
            self.requests = reqs;
            self.refresh_gauges();
            return;
        }

        // ---- Step 1 delta: re-enumerate each disk's resume region ----
        // Only the last `max_successors` surviving positions can gain
        // successors (anything earlier already had a full fan-out or
        // broke on the saving window), plus every arrival position.
        // Re-running the shared Step 1 helper over that suffix
        // reproduces the from-scratch emission for those positions:
        // pairs among survivors are nodes we already hold, pairs with an
        // arrival are new.
        let (dstart, dlist) = disk_lists(&reqs, placement);
        let disks = dstart.len() - 1;
        let model = SavingModel::new(&self.planner.params);
        let ms = self.planner.max_successors;
        let (mut tmp_weights, mut tmp_nodes) = (Vec::new(), Vec::new());
        let mut tmp_bounds = Vec::with_capacity(disks + 1);
        tmp_bounds.push(0);
        // Per disk: the first request id of the resume region.
        let mut resume_req = Vec::with_capacity(disks);
        for k in 0..disks {
            let run = &dlist[dstart[k]..dstart[k + 1]];
            let kept = run.partition_point(|&i| (i as usize) < survivors);
            let resume = kept.saturating_sub(ms);
            MwisPlanner::step1_disk(
                &model,
                &reqs,
                ms,
                k,
                &run[resume..],
                &mut tmp_weights,
                &mut tmp_nodes,
            );
            tmp_bounds.push(tmp_nodes.len());
            resume_req.push(run.get(resume).copied().unwrap_or(u32::MAX));
        }

        // ---- Canonical walk: the next node table and id map ----
        // From-scratch ids follow disk-major emission: per disk, nodes
        // grouped by the position of `i`, arrivals extending a survivor
        // group right after its surviving pairs. Surviving nodes keep
        // their relative order, so one pass merging each disk's
        // surviving run with its resume re-emission numbers them all.
        let old = &self.graph;
        let (mut weights, mut offsets, mut neighbors) = std::mem::take(&mut self.spare);
        weights.clear();
        let mut nodes = Vec::with_capacity(old.nodes.len() + tmp_nodes.len());
        // Old id → new id; `NodeId::MAX` marks a retired node.
        let mut remap = vec![NodeId::MAX; old.nodes.len()];
        let mut fresh: Vec<NodeId> = Vec::new();
        let rebased = |(i, j, k): (u32, u32, DiskId)| (i - retired as u32, j - retired as u32, k);
        let mut op = 0usize; // cursor over the old node table
        for k in 0..disks {
            let dk = DiskId(k as u32);
            // Skip this disk's retired prefix.
            while op < old.nodes.len() && old.nodes[op].2 == dk && old.nodes[op].0 < retired as u32
            {
                op += 1;
            }
            // (a) Surviving nodes whose `i` precedes the resume region.
            while op < old.nodes.len()
                && old.nodes[op].2 == dk
                && old.nodes[op].0 - (retired as u32) < resume_req[k]
            {
                remap[op] = nodes.len() as NodeId;
                nodes.push(rebased(old.nodes[op]));
                weights.push(old.graph.weight(op as NodeId));
                op += 1;
            }
            // (b) The resume region, replayed from the re-emission:
            // survivor pairs consume their existing node, arrival pairs
            // are new.
            for t in tmp_bounds[k]..tmp_bounds[k + 1] {
                if (tmp_nodes[t].1 as usize) < survivors {
                    debug_assert!(
                        op < old.nodes.len() && rebased(old.nodes[op]) == tmp_nodes[t],
                        "resume re-emission diverged from the stored node run"
                    );
                    debug_assert_eq!(old.graph.weight(op as NodeId), tmp_weights[t]);
                    remap[op] = nodes.len() as NodeId;
                    op += 1;
                } else {
                    fresh.push(nodes.len() as NodeId);
                }
                nodes.push(tmp_nodes[t]);
                weights.push(tmp_weights[t]);
            }
            debug_assert!(
                op >= old.nodes.len() || old.nodes[op].2 != dk,
                "disk {k} left surviving nodes unconsumed"
            );
        }
        debug_assert_eq!(op, old.nodes.len());
        let retired_nodes = old.nodes.len() + fresh.len() - nodes.len();
        self.stats.retired_nodes_total += retired_nodes as u64;
        self.stats.appended_nodes_total += fresh.len() as u64;

        if retired_nodes == 0 && fresh.is_empty() {
            // Only request ids moved: the graph itself is unchanged.
            self.spare = (weights, offsets, neighbors);
            self.graph.nodes = nodes;
            self.requests = reqs;
            self.refresh_gauges();
            return;
        }

        // ---- Step 2: one pass writes every row of the next graph ----
        let (start, bucket) = request_buckets(reqs.len(), &nodes);
        let (fresh_start, fresh_bucket) = counting_sort(reqs.len(), || {
            fresh.iter().flat_map(|&v| {
                let (i, j, _) = nodes[v as usize];
                [(i as usize, v), (j as usize, v)]
            })
        });
        offsets.clear();
        offsets.push(0);
        neighbors.clear();
        // Half-edges copied from surviving rows: twice the edges between
        // two survivors, the only edges not staged by this advance.
        let mut kept_half = 0usize;
        let mut fresh_row: Vec<NodeId> = Vec::new();
        let mut op = 0usize; // next surviving old id
        for v in 0..nodes.len() {
            while op < remap.len() && remap[op] == NodeId::MAX {
                op += 1;
            }
            if op < remap.len() && remap[op] as usize == v {
                // A survivor: its renumbered old row merged with its
                // conflicts among the new nodes (usually none).
                fresh_row.clear();
                MwisPlanner::step2_conflicts(&nodes, &fresh_start, &fresh_bucket, v, |u| {
                    fresh_row.push(u)
                });
                let row = neighbors.len();
                let mut f = 0;
                for &u in old.graph.neighbors(op as NodeId) {
                    let m = remap[u as usize];
                    if m == NodeId::MAX {
                        continue;
                    }
                    while f < fresh_row.len() && fresh_row[f] < m {
                        neighbors.push(fresh_row[f]);
                        f += 1;
                    }
                    neighbors.push(m);
                }
                neighbors.extend_from_slice(&fresh_row[f..]);
                kept_half += neighbors.len() - row - fresh_row.len();
                op += 1;
            } else {
                MwisPlanner::step2_conflicts(&nodes, &start, &bucket, v, |u| neighbors.push(u));
            }
            offsets.push(u32::try_from(neighbors.len()).expect("CSR offsets are u32"));
        }
        let half = neighbors.len();
        self.stats.staged_edges_total += ((half - kept_half) / 2) as u64;
        self.stats.compactions += 1;
        let next = ConflictGraph {
            graph: CsrGraph::from_sorted_parts(weights, offsets, neighbors, half / 2),
            nodes,
        };
        self.spare = std::mem::replace(&mut self.graph, next).graph.into_parts();
        self.requests = reqs;
        self.refresh_gauges();
    }

    fn refresh_gauges(&mut self) {
        self.stats.window_requests = self.requests.len();
        self.stats.graph_nodes = self.graph.graph.len();
        self.stats.graph_edges = self.graph.graph.edge_count();
    }

    /// Warm-scratch solve + shared Step 4 derivation over the current
    /// window's canonical graph. [`advance`](WindowedPlanner::advance)
    /// is [`advance_window`](WindowedPlanner::advance_window) followed
    /// by this.
    pub fn plan_current(&mut self, placement: &dyn LocationProvider) -> (Assignment, f64) {
        let cg = &self.graph;
        self.planner.solve_into(cg, &mut self.scratch);
        self.planner.derive_plan(
            &self.requests,
            placement,
            &cg.graph,
            &cg.nodes,
            &self.scratch.selected,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DataId;
    use crate::sched::ExplicitPlacement;
    use spindown_sim::time::SimTime;

    /// The paper's running example (Figs. 3–4): 6 requests at
    /// t = 0,1,3,5,12,13; placement as in Fig. 2.
    fn paper_instance() -> (Vec<Request>, ExplicitPlacement) {
        let placement = ExplicitPlacement::new(
            vec![
                vec![DiskId(0)],                       // b1: d1
                vec![DiskId(0), DiskId(1)],            // b2: d1,d2
                vec![DiskId(0), DiskId(1), DiskId(3)], // b3: d1,d2,d4
                vec![DiskId(2), DiskId(3)],            // b4: d3,d4
                vec![DiskId(0), DiskId(3)],            // b5: d1,d4
                vec![DiskId(2), DiskId(3)],            // b6: d3,d4
            ],
            4,
        );
        let times = [0u64, 1, 3, 5, 12, 13];
        let requests: Vec<Request> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| Request {
                index: i as u32,
                at: SimTime::from_secs(t),
                data: DataId(i as u64),
                size: 4096,
            })
            .collect();
        (requests, placement)
    }

    fn planner(solver: MwisSolver) -> MwisPlanner {
        MwisPlanner {
            params: PowerParams::paper_example(),
            solver,
            max_successors: 8,
        }
    }

    #[test]
    fn fig4_step1_nodes() {
        let (reqs, placement) = paper_instance();
        let cg = planner(MwisSolver::GwMin).build_graph(&reqs, &placement);
        // Expected non-zero X(i,j,k) with TB=5 (window 5):
        //  d1: (r1,r2)=4, (r1,r3)=2, (r2,r3)=3, (r3,r5)? gap 9 -> 0.
        //  d2: (r2,r3)=3.
        //  d3: (r4,r6)? gap 8 -> 0.
        //  d4: (r3,r4)=3, (r4,r5)? gap 7 -> 0, (r5,r6)=4.
        let mut triples: Vec<(u32, u32, u32, f64)> = cg
            .nodes
            .iter()
            .enumerate()
            .map(|(n, &(i, j, k))| (i, j, k.0, cg.graph.weight(n as NodeId)))
            .collect();
        triples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(
            triples,
            vec![
                (0, 1, 0, 4.0),
                (0, 2, 0, 2.0),
                (1, 2, 0, 3.0),
                (1, 2, 1, 3.0),
                (2, 3, 3, 3.0),
                (4, 5, 3, 4.0),
            ]
        );
    }

    #[test]
    fn fig4_step3_selection_and_saving() {
        let (reqs, placement) = paper_instance();
        let p = planner(MwisSolver::exact_default());
        let cg = p.build_graph(&reqs, &placement);
        let sel = p.solve(&cg);
        let weight: f64 = sel.iter().map(|&v| cg.graph.weight(v)).sum();
        // Fig. 4 selects X(1,2,1), X(2,3,1), X(4,6,4) — total saving
        // 4+3+4 = 11. The instance has several optima of weight 11 (e.g.
        // pinning r3,r4 to d4 instead of r3 to d1); any of them yields the
        // optimal schedule energy of 19, so we assert the weight and
        // independence rather than one particular node set.
        assert_eq!(weight, 11.0);
        assert!(cg.graph.is_independent_set(&sel));
        assert_eq!(sel.len(), 3);
    }

    #[test]
    fn fig4_step4_assignment_matches_schedule_c() {
        let (reqs, placement) = paper_instance();
        let p = planner(MwisSolver::exact_default());
        let (assignment, claimed) = p.plan(&reqs, &placement);
        assert_eq!(claimed, 11.0);
        // Any optimum attains schedule C's energy of 19 under the offline
        // model (Fig. 3(b) — the paper's §2.3.2 arithmetic).
        let m = crate::offline::evaluate_offline(
            &reqs,
            &assignment,
            4,
            &PowerParams::paper_example(),
            None,
            None,
        );
        assert!((m.energy_j - 19.0).abs() < 1e-9, "energy {}", m.energy_j);
        // Every request sits on one of its replica locations.
        for (r, req) in reqs.iter().enumerate() {
            assert!(placement
                .locations(req.data)
                .contains(&assignment.disk_of(r)));
        }
    }

    #[test]
    fn greedy_matches_exact_on_paper_instance() {
        let (reqs, placement) = paper_instance();
        for solver in [
            MwisSolver::GwMin,
            MwisSolver::GwMin2,
            MwisSolver::GwMinLocalSearch,
        ] {
            let p = planner(solver);
            let (_, claimed) = p.plan(&reqs, &placement);
            assert_eq!(claimed, 11.0, "{solver:?} missed the optimum");
        }
    }

    #[test]
    fn assignments_respect_placement() {
        let (reqs, placement) = paper_instance();
        let (assignment, _) = planner(MwisSolver::GwMin).plan(&reqs, &placement);
        for (r, req) in reqs.iter().enumerate() {
            assert!(
                placement
                    .locations(req.data)
                    .contains(&assignment.disk_of(r)),
                "request {r} scheduled off-placement"
            );
        }
    }

    #[test]
    fn selected_set_is_independent() {
        let (reqs, placement) = paper_instance();
        let p = planner(MwisSolver::GwMin);
        let cg = p.build_graph(&reqs, &placement);
        let sel = p.solve(&cg);
        assert!(cg.graph.is_independent_set(&sel));
    }

    #[test]
    fn pruning_reduces_nodes_monotonically() {
        let (reqs, placement) = paper_instance();
        let mut sizes = Vec::new();
        for max_succ in [1usize, 2, 8] {
            let p = MwisPlanner {
                params: PowerParams::paper_example(),
                solver: MwisSolver::GwMin,
                max_successors: max_succ,
            };
            sizes.push(p.build_graph(&reqs, &placement).graph.len());
        }
        assert!(sizes[0] <= sizes[1] && sizes[1] <= sizes[2]);
        assert_eq!(sizes[2], 6);
    }

    #[test]
    fn fig4_step2_conflict_edges() {
        // Canonical (disk-major) node ids of the paper instance, in the
        // paper's 1-based names: 0 = X(1,2,1), 1 = X(1,3,1),
        // 2 = X(2,3,1), 3 = X(2,3,2), 4 = X(3,4,4), 5 = X(5,6,4).
        // Energy constraint: 0-1 both claim r1's saving; 1-2 and 1-3 both
        // end at r3; 2-3 claim the same pair on two disks. Schedule
        // constraint: 0-3 (r2), 1-4, 2-4 and 3-4 (r3) pin a shared
        // request to two disks. 0-2 chain on d1 (r2 ends one, starts
        // the other) and X(5,6,4) shares no request.
        let (reqs, placement) = paper_instance();
        let cg = planner(MwisSolver::GwMin).build_graph(&reqs, &placement);
        let d = DiskId;
        let nodes = vec![
            (0, 1, d(0)),
            (0, 2, d(0)),
            (1, 2, d(0)),
            (1, 2, d(1)),
            (2, 3, d(3)),
            (4, 5, d(3)),
        ];
        assert_eq!(cg.nodes, nodes);
        let edges = [
            (0, 1),
            (0, 3),
            (1, 2),
            (1, 3),
            (1, 4),
            (2, 3),
            (2, 4),
            (3, 4),
        ];
        let mut got = Vec::new();
        for v in 0..cg.graph.len() as NodeId {
            let later = cg.graph.neighbors(v).iter().filter(|&&u| v < u);
            got.extend(later.map(|&u| (v, u)));
        }
        assert_eq!(got, edges);
        assert_eq!(
            cg.graph,
            CsrGraph::from_unique_edges(vec![4.0, 2.0, 3.0, 3.0, 3.0, 4.0], &edges)
        );
    }

    #[test]
    fn parallel_build_matches_serial_on_paper_instance() {
        let (reqs, placement) = paper_instance();
        let p = planner(MwisSolver::GwMin);
        let serial = p.build_graph(&reqs, &placement);
        for jobs in [1usize, 2, 3, 8] {
            let par = p.build_graph_with_jobs(&reqs, &placement, jobs);
            assert_eq!(par.nodes, serial.nodes, "jobs {jobs}");
            assert_eq!(par.graph, serial.graph, "jobs {jobs}");
            let (a_par, s_par) = p.plan_with_jobs(&reqs, &placement, jobs);
            let (a_ser, s_ser) = p.plan(&reqs, &placement);
            assert_eq!(a_par.disks, a_ser.disks, "jobs {jobs}");
            assert_eq!(s_par, s_ser, "jobs {jobs}");
        }
    }

    /// One [`PlanScratch`] threaded through consecutive solves of
    /// *different* instances (the paper window, a shifted copy, the
    /// empty stream, then the paper window again) must reproduce what
    /// fresh planners with fresh scratches produce — the rolling-horizon
    /// reuse contract.
    #[test]
    fn plan_scratch_reuse_matches_fresh_planners() {
        let (reqs, placement) = paper_instance();
        let shifted: Vec<Request> = reqs
            .iter()
            .map(|r| Request {
                at: r.at + spindown_sim::time::SimDuration::from_secs(2),
                ..*r
            })
            .collect();
        for solver in [MwisSolver::GwMin, MwisSolver::GwMin2] {
            let p = planner(solver);
            let mut scratch = PlanScratch::new();
            let windows: [&[Request]; 4] = [&reqs, &shifted, &[], &reqs];
            for (w, window) in windows.iter().enumerate() {
                let cg = p.build_graph(window, &placement);
                p.solve_into(&cg, &mut scratch);
                let warm =
                    p.derive_plan(window, &placement, &cg.graph, &cg.nodes, &scratch.selected);
                let fresh = p.plan(window, &placement);
                assert_eq!(warm.0.disks, fresh.0.disks, "window {w}");
                assert_eq!(warm.1, fresh.1, "window {w}");
            }
        }
    }

    #[test]
    fn parallel_build_handles_empty_stream() {
        let placement = ExplicitPlacement::new(vec![vec![DiskId(0)]], 1);
        let p = planner(MwisSolver::GwMin);
        let cg = p.build_graph_with_jobs(&[], &placement, 8);
        assert_eq!(cg.graph.len(), 0);
        assert!(cg.nodes.is_empty());
    }

    #[test]
    fn empty_stream_plans_trivially() {
        let placement = ExplicitPlacement::new(vec![vec![DiskId(0)]], 1);
        let p = planner(MwisSolver::GwMin);
        let (a, saving) = p.plan(&[], &placement);
        assert!(a.is_empty());
        assert_eq!(saving, 0.0);
    }

    /// Rebases a window slice so `index == position`, the shape both
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

    #[test]
    fn windowed_advance_matches_from_scratch_on_paper_instance() {
        let (reqs, placement) = paper_instance();
        for solver in [MwisSolver::GwMin, MwisSolver::GwMin2] {
            let p = planner(solver);
            let mut w = WindowedPlanner::new(p.clone(), 4, 1);
            // Load the full instance, then slide the horizon forward one
            // request at a time with no arrivals.
            let horizons: Vec<(usize, u64)> =
                vec![(6, 0), (6, 1), (6, 2), (6, 4), (6, 6), (6, 13), (6, 14)];
            let mut fed = 0usize;
            for (feed_to, h) in horizons {
                let arrivals = rebase(&reqs[fed..feed_to]);
                fed = feed_to;
                let (got_a, got_s) = w.advance(&arrivals, SimTime::from_secs(h), &placement);
                let window =
                    rebase(&reqs[reqs.iter().filter(|r| r.at < SimTime::from_secs(h)).count()..]);
                let (want_a, want_s) = p.plan(&window, &placement);
                assert_eq!(got_a.disks, want_a.disks, "{solver:?} horizon {h}");
                assert_eq!(got_s, want_s, "{solver:?} horizon {h}");
                assert_eq!(w.window(), &window[..], "{solver:?} horizon {h}");
                // The maintained graph is the canonical from-scratch one.
                let oracle = p.build_graph(&window, &placement);
                assert_eq!(w.graph().graph, oracle.graph, "{solver:?} horizon {h}");
                assert_eq!(w.graph().nodes, oracle.nodes, "{solver:?} horizon {h}");
            }
            assert_eq!(w.stats().windows, 7);
            assert!(w.stats().retired_requests_total == 6);
            // The slides to 6 s and 14 s retire only r4 and r6, which
            // start no node, so they keep the graph and count no
            // compaction.
            assert_eq!(w.stats().compactions, 5);
        }
    }

    #[test]
    fn windowed_empty_delta_skips_compaction() {
        let (reqs, placement) = paper_instance();
        let p = planner(MwisSolver::GwMin);
        let mut w = WindowedPlanner::new(p.clone(), 4, 1);
        let first = w.advance(&reqs, SimTime::from_secs(0), &placement);
        let compactions = w.stats().compactions;
        let again = w.advance(&[], SimTime::from_secs(0), &placement);
        assert_eq!(first, again, "empty delta re-solves the same window");
        assert_eq!(w.stats().compactions, compactions, "no compaction paid");
        assert_eq!(w.stats().windows, 2);
    }

    #[test]
    fn fresh_planner_empty_advance_reports_the_built_empty_graph() {
        let (_, placement) = paper_instance();
        let p = planner(MwisSolver::GwMin);
        let mut w = WindowedPlanner::new(p.clone(), 4, 1);
        let (a, saving) = w.advance(&[], SimTime::from_secs(0), &placement);
        assert!(a.is_empty());
        assert_eq!(saving, 0.0);
        assert_eq!(w.graph().graph, p.build_graph(w.window(), &placement).graph);
    }

    #[test]
    fn windowed_full_turnover_matches_fresh_window() {
        let (reqs, placement) = paper_instance();
        let p = planner(MwisSolver::GwMin);
        let mut w = WindowedPlanner::new(p.clone(), 4, 1);
        w.advance(&reqs, SimTime::from_secs(0), &placement);
        // Retire everything, admit a shifted copy of the whole instance.
        let shifted: Vec<Request> = reqs
            .iter()
            .map(|r| Request {
                at: r.at + spindown_sim::time::SimDuration::from_secs(100),
                ..*r
            })
            .collect();
        let (got_a, got_s) = w.advance(&shifted, SimTime::from_secs(50), &placement);
        let (want_a, want_s) = p.plan(&rebase(&shifted), &placement);
        assert_eq!(got_a.disks, want_a.disks);
        assert_eq!(got_s, want_s);
        assert_eq!(w.window().len(), 6);
    }

    #[test]
    fn windowed_cold_start_is_jobs_invariant() {
        let (reqs, placement) = paper_instance();
        let p = planner(MwisSolver::GwMin);
        let mut w1 = WindowedPlanner::new(p.clone(), 4, 1);
        let a1 = w1.advance(&reqs, SimTime::from_secs(0), &placement);
        let mut w8 = WindowedPlanner::new(p, 4, 8);
        let a8 = w8.advance(&reqs, SimTime::from_secs(0), &placement);
        assert_eq!(a1, a8);
        assert_eq!(w1.graph().graph, w8.graph().graph);
        assert_eq!(w1.stats(), w8.stats(), "counters must be jobs-invariant");
    }

    #[test]
    #[should_panic(expected = "must not precede the window tail")]
    fn windowed_rejects_out_of_order_arrivals() {
        let (reqs, placement) = paper_instance();
        let p = planner(MwisSolver::GwMin);
        let mut w = WindowedPlanner::new(p, 4, 1);
        w.advance(&reqs, SimTime::from_secs(0), &placement);
        let early = rebase(&reqs[..1]); // t = 0, before the tail at t = 13
        w.advance(&early, SimTime::from_secs(0), &placement);
    }

    #[test]
    fn small_builds_stay_serial_under_threshold() {
        // The paper instance is far below MIN_PARALLEL_BUILD_WORK, so
        // the jobs > 1 path must produce the serial build (it *is* the
        // serial build); a fabricated planner with a huge fan-out
        // crosses the threshold and still matches bit-for-bit.
        let (reqs, placement) = paper_instance();
        let p = planner(MwisSolver::GwMin);
        assert!(reqs.len() * p.max_successors < MIN_PARALLEL_BUILD_WORK);
        let serial = p.build_graph(&reqs, &placement);
        let gated = p.build_graph_with_jobs(&reqs, &placement, 8);
        assert_eq!(serial.graph, gated.graph);
        let wide = MwisPlanner {
            max_successors: MIN_PARALLEL_BUILD_WORK, // 6 × this ≥ threshold
            ..p.clone()
        };
        let serial = wide.build_graph(&reqs, &placement);
        let sharded = wide.build_graph_with_jobs(&reqs, &placement, 8);
        assert_eq!(serial.graph, sharded.graph);
        assert_eq!(serial.nodes, sharded.nodes);
    }

    #[test]
    fn simultaneous_requests_can_pair() {
        // Two requests at the same instant on a shared disk: the batch
        // situation. Gap 0 gives the maximum saving.
        let placement =
            ExplicitPlacement::new(vec![vec![DiskId(0)], vec![DiskId(0), DiskId(1)]], 2);
        let reqs: Vec<Request> = (0..2)
            .map(|i| Request {
                index: i,
                at: SimTime::from_secs(1),
                data: DataId(i as u64),
                size: 4096,
            })
            .collect();
        let p = planner(MwisSolver::GwMin);
        let (a, saving) = p.plan(&reqs, &placement);
        assert_eq!(saving, 5.0, "gap-0 pair saves E_max");
        assert_eq!(a.disk_of(0), DiskId(0));
        assert_eq!(a.disk_of(1), DiskId(0));
    }
}
