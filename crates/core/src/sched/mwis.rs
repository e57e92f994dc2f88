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
//! No conflict edge is stored. Step 1 emits the node table, one counting
//! sort files every node under its two requests (flat per-request
//! buckets of node ids), and a [`ConflictGraph`] keeps the node table,
//! the weights, the buckets and one degree per node. Step 2 is a rule
//! over two node triples, so the graph derives a node's neighborhood on
//! every walk from the buckets of its two requests, and answers
//! `has_edge` from the two triples alone; the build's one Step 2 pass
//! only counts the degrees, one request bucket at a time. Steps 3–4
//! read that graph through [`Adjacency`] and nothing else. The
//! rolling-horizon [`WindowedPlanner`] runs the same build over every
//! window it plans.

use spindown_disk::power::PowerParams;
use spindown_sim::time::SimTime;

use spindown_graph::mwis as solvers;
use spindown_graph::{bitset, Adjacency, NodeId};

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

/// A constructed Step 1/2 graph: the node table and the
/// [`ImplicitGraph`] that derives every conflict from it.
///
/// The solvers read the whole `ConflictGraph` through [`Adjacency`]. A
/// neighbor walk applies the Step 2 rule to the nodes in the buckets of
/// the node's two requests, and `has_edge` applies it to two node
/// triples, so no edge is ever stored.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConflictGraph {
    /// Weights, degrees and per-request node buckets.
    pub graph: ImplicitGraph,
    /// Per node: the `(i, j, k)` triple it encodes.
    pub nodes: Vec<(u32, u32, DiskId)>,
}

/// What a [`ConflictGraph`] stores besides its node table: each node's
/// Eq. 3 weight and degree, and, per request, the ascending ids of the
/// nodes that name it. Memory is linear in nodes and requests; Step 2
/// derives the edges from these buckets on demand.
#[derive(Debug, Clone, PartialEq)]
pub struct ImplicitGraph {
    weights: Vec<f64>,
    degrees: Vec<u32>,
    /// Request `r`'s bucket is `bucket[start[r]..start[r + 1]]`.
    start: Vec<usize>,
    bucket: Vec<NodeId>,
    edges: usize,
}

/// The graph of the empty window, equal to the one a build over no
/// requests returns.
impl Default for ImplicitGraph {
    fn default() -> Self {
        ImplicitGraph {
            weights: Vec::new(),
            degrees: Vec::new(),
            start: vec![0],
            bucket: Vec::new(),
            edges: 0,
        }
    }
}

impl ImplicitGraph {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Number of (undirected) conflict edges.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Weight of node `v`: its Eq. 3 saving.
    pub fn weight(&self, v: NodeId) -> f64 {
        self.weights[v as usize]
    }

    /// Number of conflicts of node `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        self.degrees[v as usize] as usize
    }
}

/// Step 2's rule for two distinct nodes that share a request: they
/// conflict unless they chain on the same disk (`j == i'`). Same primary
/// request (both claim `r_i`'s saving), same successor (`r_j` can
/// immediately succeed only one request per disk — the Fig. 4 edge set,
/// where X(1,3,1) and X(2,3,1) conflict "because of the
/// energy-constraint of request r3"), or a shared request pinned to
/// different disks (the schedule-constraint).
#[inline]
fn conflict((iu, ju, ku): (u32, u32, DiskId), (iv, jv, kv): (u32, u32, DiskId)) -> bool {
    iu == iv || ju == jv || ku != kv
}

impl ConflictGraph {
    /// Request `r`'s bucket: every node naming `r`, ascending.
    #[inline]
    fn bucket(&self, r: u32) -> &[NodeId] {
        let start = &self.graph.start;
        &self.graph.bucket[start[r as usize]..start[r as usize + 1]]
    }
}

impl Adjacency for ConflictGraph {
    fn len(&self) -> usize {
        self.nodes.len()
    }

    fn weight(&self, v: NodeId) -> f64 {
        self.graph.weight(v)
    }

    fn degree(&self, v: NodeId) -> usize {
        self.graph.degree(v)
    }

    /// Walks the buckets of `v`'s two requests as one sorted merge, so a
    /// node that shares both requests (the same `(i, j)` on another
    /// disk) is met once and `v` itself is skipped, and reports every
    /// node the Step 2 rule joins to `v`.
    #[inline]
    fn for_each_neighbor(&self, v: NodeId, mut f: impl FnMut(NodeId)) {
        let node = self.nodes[v as usize];
        let (a, b) = (self.bucket(node.0), self.bucket(node.1));
        let mut check = |u: NodeId| {
            if u != v && conflict(self.nodes[u as usize], node) {
                f(u);
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

    /// Walks the bucket of `v`'s earlier request, then that of its later
    /// one. A node in both buckets names both requests: `v` itself or the
    /// same `(i, j)` on another disk, already met in the first bucket, so
    /// the second skips every node whose earlier request is `v`'s.
    #[inline]
    fn for_each_neighbor_unordered(&self, v: NodeId, mut f: impl FnMut(NodeId)) {
        let node = self.nodes[v as usize];
        for &u in self.bucket(node.0) {
            if u != v && conflict(self.nodes[u as usize], node) {
                f(u);
            }
        }
        for &u in self.bucket(node.1) {
            let other = self.nodes[u as usize];
            if other.0 != node.0 && conflict(other, node) {
                f(u);
            }
        }
    }

    /// The unordered walk, testing each bucket entry's alive bit before
    /// it reads the entry's triple: a dead entry costs one bit test.
    #[inline]
    fn for_each_live_neighbor(&self, v: NodeId, alive: &[u64], mut f: impl FnMut(NodeId)) {
        let node = self.nodes[v as usize];
        for &u in self.bucket(node.0) {
            if bitset::test(alive, u as usize) && u != v && conflict(self.nodes[u as usize], node) {
                f(u);
            }
        }
        for &u in self.bucket(node.1) {
            if !bitset::test(alive, u as usize) {
                continue;
            }
            let other = self.nodes[u as usize];
            if other.0 != node.0 && conflict(other, node) {
                f(u);
            }
        }
    }

    /// The Step 2 rule on the two node triples: `O(1)`.
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let (a, b) = (self.nodes[u as usize], self.nodes[v as usize]);
        let share = a.0 == b.0 || a.0 == b.1 || a.1 == b.0 || a.1 == b.1;
        u != v && share && conflict(a, b)
    }
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

/// Step 2's degree count over the request buckets `start`/`bucket` of
/// `nodes` (as [`request_buckets`] lays them out), one bucket at a time.
///
/// Every entry of request `r`'s bucket names `r` in one of two roles:
/// as its earlier request (`i == r`) or as its later one (`j == r`). Two
/// entries in the same role always conflict (they claim the same
/// saving, or the same successor); entries in different roles conflict
/// only on different disks, since on one disk they chain. So an entry
/// conflicts with `|B(r)| − 1` bucket-mates less the other-role entries
/// on its own disk. A node also meets its twins, the same `(i, j)` on
/// other disks, in both of its buckets, so its earlier-request bucket
/// subtracts them once.
///
/// Each bucket's triples are read once, and the count stays linear in
/// the bucket: node ids are disk-major and each disk emits its nodes in
/// the order of their earlier request, so one disk's entries sit
/// together in a bucket, the later-request role first. `twins` counts,
/// per later request, the current bucket's earlier-role entries naming
/// it, and is all zero between buckets.
fn step2_degrees(start: &[usize], bucket: &[NodeId], nodes: &[(u32, u32, DiskId)]) -> Vec<u32> {
    let requests = start.len() - 1;
    let mut degrees = vec![0u32; nodes.len()];
    let mut twins = vec![0u32; requests];
    let widest = start.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
    let mut triples: Vec<(u32, u32, DiskId)> = Vec::with_capacity(widest);
    for r in 0..requests {
        let ids = &bucket[start[r]..start[r + 1]];
        let others = ids.len().saturating_sub(1) as u32;
        let r = r as u32;
        triples.clear();
        triples.extend(ids.iter().map(|&u| nodes[u as usize]));
        for &(i, j, _) in &triples {
            if i == r {
                twins[j as usize] += 1;
            }
        }
        let mut x = 0;
        while x < ids.len() {
            let disk = triples[x].2;
            let end = x + triples[x..].iter().take_while(|t| t.2 == disk).count();
            let split = x + triples[x..end].iter().take_while(|t| t.1 == r).count();
            debug_assert!(
                triples[split..end].iter().all(|t| t.0 == r),
                "request {r}, disk {}: a later-role entry follows an earlier-role one",
                disk.0
            );
            let (later, earlier) = ((split - x) as u32, (end - split) as u32);
            for &u in &ids[x..split] {
                degrees[u as usize] += others - earlier;
            }
            for (&u, t) in ids[split..end].iter().zip(&triples[split..end]) {
                degrees[u as usize] += others - later - (twins[t.1 as usize] - 1);
            }
            x = end;
        }
        for &(i, j, _) in &triples {
            if i == r {
                twins[j as usize] = 0;
            }
        }
    }
    degrees
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

    /// Step 1: one node per candidate saving `X(i,j,k) > 0` among the
    /// nearest successor pairs on each disk's time-ordered request list,
    /// returned as node weights and `(i, j, k)` triples in canonical
    /// disk-major order.
    fn step1_nodes(
        &self,
        requests: &[Request],
        placement: &dyn LocationProvider,
    ) -> (Vec<f64>, Vec<(u32, u32, DiskId)>) {
        debug_assert!(
            requests.windows(2).all(|w| w[0].at <= w[1].at),
            "requests must be sorted by time"
        );
        let model = SavingModel::new(&self.params);
        let (start, list) = disk_lists(requests, placement);
        let (mut weights, mut nodes) = (Vec::new(), Vec::new());
        for (k, run) in start.windows(2).map(|w| &list[w[0]..w[1]]).enumerate() {
            for (pos, &i) in run.iter().enumerate() {
                let ti = requests[i as usize].at;
                for &j in run[pos + 1..].iter().take(self.max_successors) {
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
        (weights, nodes)
    }

    /// Builds the Step 1/2 conflict graph for `requests` (sorted by
    /// time) under `placement`, storing no edges.
    ///
    /// Step 1 emits the nodes. One counting sort over the node table
    /// gives flat per-request buckets of ascending node ids, which the
    /// [`ConflictGraph`] keeps: its Step 2 walks read them on every
    /// visit. The one Step 2 pass here counts each node's conflicts into
    /// its degree, one bucket at a time and linear in each bucket, so it
    /// reads each node triple twice in all. The build makes a constant
    /// number of allocations whatever the stream length, and nothing it
    /// allocates grows with the edge count.
    ///
    /// The build is serial: `jobs` is accepted and ignored, so the graph
    /// is the same for any value. The end-to-end benchmark
    /// (`e2ebench/`) calls this signature.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `requests` is not time-sorted.
    pub fn build_graph_with_jobs(
        &self,
        requests: &[Request],
        placement: &dyn LocationProvider,
        _jobs: usize,
    ) -> ConflictGraph {
        let (weights, nodes) = self.step1_nodes(requests, placement);
        let (start, bucket) = request_buckets(requests.len(), &nodes);
        let degrees = step2_degrees(&start, &bucket, &nodes);
        let edges = degrees.iter().map(|&d| d as usize).sum::<usize>() / 2;
        ConflictGraph {
            graph: ImplicitGraph {
                weights,
                degrees,
                start,
                bucket,
                edges,
            },
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
        let PlanScratch { greedy, selected } = scratch;
        match self.solver {
            MwisSolver::GwMin => solvers::gwmin_into(cg, greedy, selected),
            MwisSolver::GwMin2 => solvers::gwmin2_into(cg, greedy, selected),
            MwisSolver::GwMinLocalSearch => {
                solvers::gwmin_into(cg, greedy, selected);
                *selected = solvers::local_search(cg, selected);
            }
            MwisSolver::Exact { node_limit } => match solvers::exact(cg, node_limit) {
                Some(sel) => *selected = sel,
                None => solvers::gwmin_into(cg, greedy, selected),
            },
            MwisSolver::GwMinRefined { .. } => solvers::gwmin_into(cg, greedy, selected),
        }
    }

    /// Full pipeline: build, solve, derive (Step 4), all serial. Returns
    /// the assignment and the solver's total claimed saving (joules),
    /// with the conflict graph already dropped.
    pub fn plan(
        &self,
        requests: &[Request],
        placement: &dyn LocationProvider,
    ) -> (Assignment, f64) {
        let cg = self.build_graph_with_jobs(requests, placement, 1);
        let selected = self.solve(&cg);
        self.derive_plan(requests, placement, &cg.graph, &cg.nodes, &selected)
    }

    /// Step 4 plus the claimed-saving sum, shared verbatim by
    /// [`plan`](MwisPlanner::plan) and the
    /// rolling-horizon [`WindowedPlanner`]: walks `selected` in id order
    /// (fixing the float-accumulation order of the claimed saving), pins
    /// each selected node's request pair, and routes leftovers to their
    /// most-recently-used replica — so any two callers handing in the
    /// same graph, node table, and selection derive bit-identical plans.
    pub fn derive_plan(
        &self,
        requests: &[Request],
        placement: &dyn LocationProvider,
        graph: &ImplicitGraph,
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
/// every advance plus gauges describing the most recent window, as the
/// `replan` report prints them. Each advance rebuilds its window's graph,
/// and the delta counters compare that graph's node table with the
/// previous window's.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReplanStats {
    /// Windows planned so far (every advance call).
    pub windows: u64,
    /// Advances that changed the node set: the previous window was
    /// empty, or at least one node retired or was appended.
    pub compactions: u64,
    /// Requests retired across all advances.
    pub retired_requests_total: u64,
    /// Requests arrived across all advances.
    pub arrived_requests_total: u64,
    /// Conflict-graph nodes retired across all advances: nodes whose
    /// earlier request left the window.
    pub retired_nodes_total: u64,
    /// Conflict-graph nodes appended across all advances: nodes whose
    /// later request arrived in that advance.
    pub appended_nodes_total: u64,
    /// Conflict edges with a new endpoint (at least one appended node),
    /// each counted once, across all advances.
    pub staged_edges_total: u64,
    /// Requests in the current window.
    pub window_requests: usize,
    /// Nodes in the current window's conflict graph.
    pub graph_nodes: usize,
    /// Edges in the current window's conflict graph.
    pub graph_edges: usize,
}

/// Rolling-horizon re-planner (ROADMAP; the paper's offline planner run
/// as a sliding window).
///
/// Holds one planning window of requests and its [`ConflictGraph`], and
/// [`advance`](WindowedPlanner::advance)s the window by retiring
/// everything before a new horizon and admitting a batch of arrivals.
/// Each advance that changes the window runs
/// [`MwisPlanner::build_graph_with_jobs`] over it, so every window's
/// graph, and with the shared Step 4 derivation
/// ([`MwisPlanner::derive_plan`]) every plan, is the one-shot planner's.
/// `core/tests/window_replan_differential.rs` pins both per window.
///
/// The delta counters of [`ReplanStats`] are read off the node tables.
/// Retirement is a time prefix and arrivals join at the tail, so a
/// surviving request keeps its successors on every disk: a node of the
/// new window is new iff its later request arrived in this advance, and
/// every other node was in the previous window.
///
/// Solves run out of one [`PlanScratch`] warmed on the first window:
/// later windows of no greater size allocate nothing in the greedy
/// engine (the `window_replan_allocs_per_solve` gauge in the bench
/// harness pins zero).
pub struct WindowedPlanner {
    planner: MwisPlanner,
    disks: u32,
    /// Current window, time-sorted, `index == position`.
    requests: Vec<Request>,
    /// The current window's conflict graph.
    graph: ConflictGraph,
    scratch: PlanScratch,
    stats: ReplanStats,
}

impl WindowedPlanner {
    /// An empty window over a fleet of `disks` disks.
    pub fn new(planner: MwisPlanner, disks: u32) -> Self {
        WindowedPlanner {
            planner,
            disks,
            requests: Vec::new(),
            graph: ConflictGraph::default(),
            scratch: PlanScratch::new(),
            stats: ReplanStats::default(),
        }
    }

    /// The current window's requests (window-relative ids).
    pub fn window(&self) -> &[Request] {
        &self.requests
    }

    /// The current window's conflict graph and node table, as
    /// [`MwisPlanner::build_graph_with_jobs`] over
    /// [`window`](WindowedPlanner::window) builds them.
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
    /// `arrivals` at the tail and builds the new window's conflict
    /// graph, without solving it. Callers that only need the graph (or
    /// time the build apart from the solve) pair this with
    /// [`plan_current`](WindowedPlanner::plan_current).
    ///
    /// `placement` must be the same provider on every call (placements
    /// are keyed by data id, so it is window-independent).
    ///
    /// # Panics
    ///
    /// Panics if `arrivals` are not time-sorted, start before the
    /// surviving window tail, or `placement` disagrees with the
    /// configured disk count.
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
        let was_empty = self.requests.is_empty();
        let previous_nodes = self.graph.nodes.len();
        self.graph = self.planner.build_graph_with_jobs(&reqs, placement, 1);
        self.requests = reqs;

        // A node is new iff its later request arrived; the rest are the
        // previous window's survivors.
        let cg = &self.graph;
        let is_new = |&(_, j, _): &(u32, u32, DiskId)| j as usize >= survivors;
        let appended = cg.nodes.iter().filter(|n| is_new(n)).count();
        let retired_nodes = previous_nodes - (cg.nodes.len() - appended);
        // Edges with a new endpoint: the new nodes' degrees less the
        // edges among them, which the build's per-bucket count gives
        // over the new nodes alone. That subset keeps the canonical
        // order, so the bucket layout the count relies on holds, and a
        // node's twins share its later request, so they are new with it.
        let mut fresh = Vec::with_capacity(appended);
        let mut ends = 0usize;
        for (v, n) in cg.nodes.iter().enumerate().filter(|(_, n)| is_new(n)) {
            fresh.push(*n);
            ends += cg.graph.degree(v as NodeId);
        }
        let (start, bucket) = request_buckets(self.requests.len(), &fresh);
        let among = step2_degrees(&start, &bucket, &fresh)
            .iter()
            .map(|&d| d as usize)
            .sum::<usize>()
            / 2;

        self.stats.retired_nodes_total += retired_nodes as u64;
        self.stats.appended_nodes_total += appended as u64;
        self.stats.staged_edges_total += (ends - among) as u64;
        if was_empty || retired_nodes > 0 || appended > 0 {
            self.stats.compactions += 1;
        }
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
    use spindown_graph::CsrGraph;
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
        let cg = planner(MwisSolver::GwMin).build_graph_with_jobs(&reqs, &placement, 1);
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
        let cg = p.build_graph_with_jobs(&reqs, &placement, 1);
        let sel = p.solve(&cg);
        let weight: f64 = sel.iter().map(|&v| cg.graph.weight(v)).sum();
        // Fig. 4 selects X(1,2,1), X(2,3,1), X(4,6,4) — total saving
        // 4+3+4 = 11. The instance has several optima of weight 11 (e.g.
        // pinning r3,r4 to d4 instead of r3 to d1); any of them yields the
        // optimal schedule energy of 19, so we assert the weight and
        // independence rather than one particular node set.
        assert_eq!(weight, 11.0);
        assert!(cg.is_independent_set(&sel));
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
        let cg = p.build_graph_with_jobs(&reqs, &placement, 1);
        let sel = p.solve(&cg);
        assert!(cg.is_independent_set(&sel));
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
            sizes.push(p.build_graph_with_jobs(&reqs, &placement, 1).graph.len());
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
        let cg = planner(MwisSolver::GwMin).build_graph_with_jobs(&reqs, &placement, 1);
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
        for v in 0..cg.len() as NodeId {
            cg.for_each_neighbor(v, |u| {
                if v < u {
                    got.push((v, u));
                }
            });
        }
        assert_eq!(got, edges);
        assert_eq!(cg.graph.edge_count(), edges.len());
        let csr = CsrGraph::from_unique_edges(vec![4.0, 2.0, 3.0, 3.0, 3.0, 4.0], &edges);
        for v in 0..cg.len() as NodeId {
            assert_eq!(cg.weight(v), csr.weight(v), "weight {v}");
            assert_eq!(cg.degree(v), csr.degree(v), "degree {v}");
            for u in 0..cg.len() as NodeId {
                assert_eq!(cg.has_edge(u, v), csr.has_edge(u, v), "edge {u}-{v}");
            }
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
                let cg = p.build_graph_with_jobs(window, &placement, 1);
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
    fn build_handles_empty_stream() {
        let placement = ExplicitPlacement::new(vec![vec![DiskId(0)]], 1);
        let p = planner(MwisSolver::GwMin);
        let cg = p.build_graph_with_jobs(&[], &placement, 1);
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
            let mut w = WindowedPlanner::new(p.clone(), 4);
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
                let oracle = p.build_graph_with_jobs(&window, &placement, 1);
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
        let mut w = WindowedPlanner::new(p.clone(), 4);
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
        let mut w = WindowedPlanner::new(p.clone(), 4);
        let (a, saving) = w.advance(&[], SimTime::from_secs(0), &placement);
        assert!(a.is_empty());
        assert_eq!(saving, 0.0);
        assert_eq!(
            w.graph().graph,
            p.build_graph_with_jobs(w.window(), &placement, 1).graph
        );
    }

    /// The first window changes the node set even when it has no node;
    /// a later advance that neither retires nor appends a node does not.
    #[test]
    fn windowed_first_window_counts_as_a_change_without_nodes() {
        let (reqs, placement) = paper_instance();
        let mut w = WindowedPlanner::new(planner(MwisSolver::GwMin), 4);
        // r1 (d1 only), then r4 (d3, d4): no disk holds both.
        w.advance(&reqs[..1], SimTime::ZERO, &placement);
        assert!(w.graph().nodes.is_empty());
        assert_eq!(w.stats().compactions, 1);
        w.advance(&reqs[3..4], SimTime::ZERO, &placement);
        assert!(w.graph().nodes.is_empty());
        assert_eq!(w.stats().compactions, 1);
        assert_eq!(w.stats().appended_nodes_total, 0);
        assert_eq!(w.stats().staged_edges_total, 0);
    }

    #[test]
    fn windowed_full_turnover_matches_fresh_window() {
        let (reqs, placement) = paper_instance();
        let p = planner(MwisSolver::GwMin);
        let mut w = WindowedPlanner::new(p.clone(), 4);
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
    #[should_panic(expected = "must not precede the window tail")]
    fn windowed_rejects_out_of_order_arrivals() {
        let (reqs, placement) = paper_instance();
        let p = planner(MwisSolver::GwMin);
        let mut w = WindowedPlanner::new(p, 4);
        w.advance(&reqs, SimTime::from_secs(0), &placement);
        let early = rebase(&reqs[..1]); // t = 0, before the tail at t = 13
        w.advance(&early, SimTime::from_secs(0), &placement);
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
