//! Seeded determinism suite for the offline MWIS plan and its parallel
//! evaluation.
//!
//! The worker pool's contract is that parallelism changes wall-clock,
//! never bytes: the fanned per-disk offline evaluation must return
//! **bit-identical** results for any worker count. This suite pins that
//! contract across `jobs ∈ {1, 2, 8}` on seeded instances spanning
//! sparse to dense conflict structure, mirroring the solver
//! differential suites: the serial path is the oracle and every parallel
//! output is compared with exact equality (full `RunMetrics` including
//! the response histogram). The conflict graphs, which the serial build
//! makes, are pinned to FNV digests recorded on an earlier build (node
//! tables, weights, degrees and every neighbor walk) and to an all-pairs
//! brute force of the Step 2 conflict rule. The conflict graph stores no
//! edges, so its three neighbor walks and `has_edge` are checked against
//! each other, against that brute force, and through the greedy and
//! local-search solvers against a `CsrGraph` of the same edges, on
//! instances where one `(i, j)` pair has nodes on several disks.

mod common;

use std::sync::OnceLock;

use common::{brute_force_conflicts, edge_list, graph_digest};
use spindown_core::experiment::{
    data_space, requests_from_trace, run_experiment, ExperimentSpec, SchedulerKind,
};
use spindown_core::model::Request;
use spindown_core::offline::evaluate_offline_with_jobs;
use spindown_core::paper_example as paper;
use spindown_core::placement::{PlacementConfig, PlacementMap};
use spindown_core::sched::mwis::ConflictGraph;
use spindown_core::sched::{ExplicitPlacement, MwisPlanner, MwisSolver};
use spindown_core::system::SystemConfig;
use spindown_disk::power::PowerParams;
use spindown_graph::{bitset, mwis, Adjacency, CsrGraph, NodeId};
use spindown_sim::rng::SimRng;
use spindown_trace::synth::arrivals::OnOffProcess;
use spindown_trace::synth::{CelloLike, TraceGenerator};

/// Bursty multi-source arrivals at `burst_rate` req/s per source —
/// higher rates pack more requests into each disk's saving window,
/// densifying the conflict graph.
fn workload(requests: usize, data_items: usize, burst_rate: f64, seed: u64) -> Vec<Request> {
    let trace = CelloLike {
        requests,
        data_items,
        arrivals: OnOffProcess {
            sources: 8,
            on_shape: 1.5,
            on_scale_s: 2.0,
            off_shape: 1.3,
            off_scale_s: 30.0,
            burst_rate,
        },
        ..CelloLike::default()
    }
    .generate(seed);
    requests_from_trace(&trace)
}

const JOBS: [usize; 3] = [1, 2, 8];

/// One seeded instance: workload shape plus placement and pruning knobs.
/// `rate` (the per-source burst rate) relative to `requests`/`data_items`
/// controls conflict density — the sweep below runs from sparse graphs
/// (few pairs share a window) to dense ones (hot blocks, deep successor
/// horizon).
struct Instance {
    name: &'static str,
    requests: usize,
    data_items: usize,
    rate: f64,
    disks: u32,
    replication: u32,
    max_successors: usize,
    seed: u64,
}

const INSTANCES: [Instance; 4] = [
    Instance {
        name: "sparse-rf1",
        requests: 800,
        data_items: 600,
        rate: 3.0,
        disks: 16,
        replication: 1,
        max_successors: 3,
        seed: 11,
    },
    Instance {
        name: "moderate-rf3",
        requests: 1_200,
        data_items: 400,
        rate: 6.0,
        disks: 20,
        replication: 3,
        max_successors: 8,
        seed: 23,
    },
    Instance {
        name: "dense-rf5",
        requests: 1_000,
        data_items: 120,
        rate: 12.0,
        disks: 12,
        replication: 5,
        max_successors: 16,
        seed: 37,
    },
    Instance {
        name: "many-disks",
        requests: 1_500,
        data_items: 700,
        rate: 8.0,
        disks: 90,
        replication: 3,
        max_successors: 4,
        seed: 51,
    },
];

impl Instance {
    fn workload(&self) -> (Vec<Request>, PlacementMap) {
        let requests = workload(self.requests, self.data_items, self.rate, self.seed);
        let placement = PlacementMap::build(
            data_space(&requests),
            &PlacementConfig {
                disks: self.disks,
                replication: self.replication,
                zipf_z: 1.0,
            },
            self.seed,
        );
        (requests, placement)
    }

    fn planner(&self) -> MwisPlanner {
        MwisPlanner {
            params: PowerParams::barracuda(),
            solver: MwisSolver::GwMin,
            max_successors: self.max_successors,
        }
    }
}

/// [`graph_digest`] of each instance's conflict graph, in `INSTANCES`
/// order, then of the paper's Fig. 4 instance. Recorded on the build
/// that scattered a flat Step 2 edge arena into CSR, so they pin node
/// order, weight bits and every neighbor slice across rewrites of the
/// build.
const GRAPH_DIGESTS: [(&str, u64); 5] = [
    ("sparse-rf1", 0xe542_7f83_41b7_9690),
    ("moderate-rf3", 0xeb2f_b57b_74be_f51c),
    ("dense-rf5", 0x77d5_f05d_6723_a71c),
    ("many-disks", 0xfef7_ab31_e9ce_dae1),
    ("fig4", 0x9cc9_76a7_ce29_1e7d),
];

/// Node count above which [`brute_force_conflicts`] is skipped: all
/// pairs of dense-rf5's 78 340 nodes are 3.1e9 checks, too slow for an
/// unoptimized test build. Its graph is pinned by digest instead.
const BRUTE_FORCE_MAX_NODES: usize = 30_000;

/// The paper's Fig. 4 instance (six requests, four disks) with an
/// exhaustive successor fan-out.
fn fig4() -> (Vec<Request>, ExplicitPlacement, MwisPlanner) {
    let planner = MwisPlanner {
        params: paper::params(),
        solver: MwisSolver::GwMin,
        max_successors: 8,
    };
    (paper::offline_requests(), paper::placement(), planner)
}

/// Every instance's conflict graph, then the Fig. 4 one, matches its
/// recorded [`GRAPH_DIGESTS`] entry: node order, weight bits, stored
/// degrees and ascending walks.
#[test]
fn conflict_graphs_match_recorded_digests() {
    for ((name, cg), &(want_name, digest)) in built_graphs().iter().zip(&GRAPH_DIGESTS) {
        assert_eq!(name, &want_name);
        assert!(
            !cg.graph.is_empty(),
            "{name}: degenerate instance (no nodes) proves nothing"
        );
        assert_eq!(graph_digest(cg), digest, "{name}");
    }
}

/// Every pair `(a, b)`, `a < b`, for which `has_edge` holds, ascending:
/// the edge test asked of all node pairs.
fn has_edge_pairs(cg: &ConflictGraph) -> Vec<(NodeId, NodeId)> {
    let n = cg.len() as NodeId;
    let mut pairs = Vec::new();
    for a in 0..n {
        assert!(!cg.has_edge(a, a), "self-loop at {a}");
        pairs.extend((a + 1..n).filter(|&b| cg.has_edge(a, b)).map(|b| (a, b)));
    }
    pairs
}

/// Every instance's conflict graph has exactly the edges the all-pairs
/// Step 2 brute force derives from its node table, both along its
/// neighbor walks and by `has_edge` over all node pairs. Instances above
/// [`BRUTE_FORCE_MAX_NODES`] are skipped.
#[test]
fn conflict_graph_matches_all_pairs_brute_force() {
    let mut checked = Vec::new();
    for (name, cg) in built_graphs() {
        if cg.nodes.len() > BRUTE_FORCE_MAX_NODES {
            continue;
        }
        let want = brute_force_conflicts(&cg.nodes);
        assert_eq!(has_edge_pairs(cg), want, "{name}: has_edge");
        assert_eq!(edge_list(cg), want, "{name}: conflict edges");
        checked.push(*name);
    }
    assert_eq!(
        checked,
        ["sparse-rf1", "moderate-rf3", "many-disks", "fig4"]
    );
}

/// Each instance's conflict graph, then the Fig. 4 one, built once for
/// the tests that share them.
fn built_graphs() -> &'static [(&'static str, ConflictGraph)] {
    static GRAPHS: OnceLock<Vec<(&str, ConflictGraph)>> = OnceLock::new();
    GRAPHS.get_or_init(|| {
        let mut graphs: Vec<(&str, ConflictGraph)> = INSTANCES
            .iter()
            .map(|inst| {
                let (requests, placement) = inst.workload();
                (
                    inst.name,
                    inst.planner()
                        .build_graph_with_jobs(&requests, &placement, 1),
                )
            })
            .collect();
        let (requests, placement, planner) = fig4();
        graphs.push((
            "fig4",
            planner.build_graph_with_jobs(&requests, &placement, 1),
        ));
        graphs
    })
}

/// Whether two nodes encode the same `(i, j)` on different disks: the
/// pairs the unordered walk meets in both request buckets.
fn has_twins(cg: &ConflictGraph) -> bool {
    let mut pairs: Vec<(u32, u32)> = cg.nodes.iter().map(|&(i, j, _)| (i, j)).collect();
    pairs.sort_unstable();
    pairs.windows(2).any(|w| w[0] == w[1])
}

/// The unordered walk visits exactly the nodes of the ascending walk,
/// each once, and both agree with the stored degree, on every node of
/// every instance. Every replicated instance has same-`(i, j)` twins.
#[test]
fn unordered_walk_visits_the_ascending_neighbors_once() {
    let mut with_twins = Vec::new();
    let (mut ascending, mut unordered) = (Vec::new(), Vec::new());
    for (name, cg) in built_graphs() {
        if has_twins(cg) {
            with_twins.push(*name);
        }
        for v in 0..cg.len() as NodeId {
            ascending.clear();
            unordered.clear();
            cg.for_each_neighbor(v, |u| ascending.push(u));
            cg.for_each_neighbor_unordered(v, |u| unordered.push(u));
            assert!(
                ascending.windows(2).all(|w| w[0] < w[1]),
                "{name} node {v}: ascending walk out of order or repeated"
            );
            unordered.sort_unstable();
            assert_eq!(unordered, ascending, "{name} node {v}");
            assert_eq!(cg.degree(v), ascending.len(), "{name} node {v}: degree");
        }
    }
    assert_eq!(
        with_twins,
        ["moderate-rf3", "dense-rf5", "many-disks", "fig4"]
    );
}

/// The live walk visits exactly the unordered walk's neighbors whose
/// alive bit is set, each once, on every node of every instance (twins
/// included, the walking node itself alive or dead), under seeded
/// random alive masks.
#[test]
fn live_walk_visits_the_live_unordered_neighbors_once() {
    let mut rng = SimRng::seed_from_u64(0x11fe_3a1c);
    let (mut want, mut live) = (Vec::new(), Vec::new());
    for (name, cg) in built_graphs() {
        let n = cg.len();
        for density in [0.2, 0.8] {
            let mut alive = vec![0u64; bitset::words_for(n)];
            for v in 0..n {
                if rng.next_f64() < density {
                    bitset::set(&mut alive, v);
                }
            }
            for v in 0..n as NodeId {
                want.clear();
                live.clear();
                cg.for_each_neighbor_unordered(v, |u| {
                    if bitset::test(&alive, u as usize) {
                        want.push(u);
                    }
                });
                cg.for_each_live_neighbor(v, &alive, |u| live.push(u));
                want.sort_unstable();
                live.sort_unstable();
                assert_eq!(live, want, "{name} node {v} density {density}");
            }
        }
    }
}

/// GWMIN, GWMIN2 and local search from the GWMIN set select the same
/// nodes on the conflict graph as on a `CsrGraph` built from its edge
/// list and weights, on every instance.
#[test]
fn solvers_select_the_same_nodes_as_on_csr() {
    for (name, cg) in built_graphs() {
        let weights = (0..cg.len() as NodeId).map(|v| cg.weight(v)).collect();
        let csr = CsrGraph::from_unique_edges(weights, &edge_list(cg));
        assert_eq!(csr.edge_count(), cg.graph.edge_count(), "{name}: edges");
        let greedy = mwis::gwmin(cg);
        assert_eq!(greedy, mwis::gwmin(&csr), "{name}: gwmin");
        assert_eq!(mwis::gwmin2(cg), mwis::gwmin2(&csr), "{name}: gwmin2");
        assert_eq!(
            mwis::local_search(cg, &greedy),
            mwis::local_search(&csr, &greedy),
            "{name}: local search"
        );
    }
}

/// Fanned per-disk offline evaluation returns the identical
/// `RunMetrics` — energies, spin counts, per-disk summaries, and the
/// merged response histogram — for every worker count.
#[test]
fn offline_report_is_bit_identical_across_jobs() {
    for inst in &INSTANCES {
        let (requests, placement) = inst.workload();
        let planner = inst.planner();
        let (assignment, _) = planner.plan(&requests, &placement);
        let params = PowerParams::barracuda();
        let mechanics = spindown_disk::mechanics::Mechanics::new(
            spindown_disk::mechanics::DiskGeometry::cheetah_15k5(),
            SimRng::seed_from_u64(inst.seed),
        );
        for mech in [None, Some(&mechanics)] {
            let serial = evaluate_offline_with_jobs(
                &requests,
                &assignment,
                inst.disks,
                &params,
                None,
                mech,
                1,
            );
            for jobs in JOBS {
                let par = evaluate_offline_with_jobs(
                    &requests,
                    &assignment,
                    inst.disks,
                    &params,
                    None,
                    mech,
                    jobs,
                );
                assert_eq!(
                    par,
                    serial,
                    "{} jobs {jobs} mech {}",
                    inst.name,
                    mech.is_some()
                );
            }
        }
    }
}

/// End to end through the experiment layer: a full MWIS experiment run
/// (placement, graph build, solve, fanned offline evaluation) is
/// invariant in `jobs`.
#[test]
fn mwis_experiment_is_bit_identical_across_jobs() {
    let inst = &INSTANCES[1];
    let requests = workload(inst.requests, inst.data_items, inst.rate, inst.seed);
    let spec = ExperimentSpec {
        placement: PlacementConfig {
            disks: inst.disks,
            replication: inst.replication,
            zipf_z: 1.0,
        },
        scheduler: SchedulerKind::Mwis {
            solver: MwisSolver::GwMin,
            max_successors: inst.max_successors,
        },
        system: SystemConfig {
            disks: inst.disks,
            ..SystemConfig::default()
        },
        seed: inst.seed,
    };
    let serial = run_experiment(&requests, &spec, 1);
    for jobs in JOBS {
        let par = run_experiment(&requests, &spec, jobs);
        assert_eq!(par, serial, "jobs {jobs}");
    }
}
