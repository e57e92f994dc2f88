//! Deterministic property checks for the MWIS and set-cover solvers: on
//! pseudo-randomly generated instances (seeded `spindown_sim` RNG, so every
//! run exercises the identical cases), every solver's output must be
//! feasible, and the exact solvers must dominate the heuristics.

mod common;

use common::{eager_gwmin, eager_gwmin2};
use spindown_graph::csr::CsrGraph;
use spindown_graph::graph::{Graph, NodeId};
use spindown_graph::mwis;
use spindown_graph::setcover::{harmonic, SetCoverInstance};
use spindown_sim::rng::SimRng;

/// A random graph: `2..=max_n` nodes, weights in (0, 10], random edges.
fn random_graph(rng: &mut SimRng, max_n: usize) -> Graph {
    random_graph_with_density(rng, max_n, 2)
}

/// A random graph with tunable density: up to `n * edge_factor` edge
/// draws, so `edge_factor` sweeps sparse (1) to near-complete (12 at
/// `max_n` ≈ 40).
fn random_graph_with_density(rng: &mut SimRng, max_n: usize, edge_factor: usize) -> Graph {
    let n = 2 + rng.index(max_n - 1);
    let weights: Vec<f64> = (0..n).map(|_| 0.01 + rng.next_f64() * 9.99).collect();
    let mut g = Graph::with_weights(weights);
    for _ in 0..rng.index(n * edge_factor) {
        let u = rng.index(n) as NodeId;
        let v = rng.index(n) as NodeId;
        if u != v {
            g.add_edge(u, v);
        }
    }
    g
}

#[test]
fn gwmin_output_is_independent_and_maximal() {
    let mut rng = SimRng::seed_from_u64(0x6717a1);
    for _ in 0..64 {
        let g = random_graph(&mut rng, 40);
        let is = mwis::gwmin(&g);
        assert!(g.is_independent_set(&is));
        // Maximality: no vertex outside the set is addable.
        let mut inset = vec![false; g.len()];
        for &v in &is {
            inset[v as usize] = true;
        }
        for v in 0..g.len() {
            if inset[v] {
                continue;
            }
            let addable = g
                .neighbors(v as NodeId)
                .iter()
                .all(|&u| !inset[u as usize]);
            assert!(!addable, "vertex {v} was addable");
        }
    }
}

#[test]
fn gwmin2_output_is_independent() {
    let mut rng = SimRng::seed_from_u64(0x6717a2);
    for _ in 0..64 {
        let g = random_graph(&mut rng, 40);
        assert!(g.is_independent_set(&mwis::gwmin2(&g)));
    }
}

#[test]
fn gwmin_satisfies_sakai_bound() {
    let mut rng = SimRng::seed_from_u64(0x6717a3);
    for _ in 0..64 {
        let g = random_graph(&mut rng, 30);
        let is = mwis::gwmin(&g);
        let bound: f64 = (0..g.len())
            .map(|v| g.weight(v as NodeId) / (g.degree(v as NodeId) as f64 + 1.0))
            .sum();
        assert!(g.set_weight_sum(&is) >= bound - 1e-9);
    }
}

#[test]
fn exact_dominates_heuristics() {
    let mut rng = SimRng::seed_from_u64(0x6717a4);
    for _ in 0..64 {
        let g = random_graph(&mut rng, 16);
        let ex = mwis::exact(&g, 16).expect("within limit");
        assert!(g.is_independent_set(&ex));
        let exw = g.set_weight_sum(&ex);
        for is in [mwis::gwmin(&g), mwis::gwmin2(&g)] {
            assert!(
                g.set_weight_sum(&is) <= exw + 1e-9,
                "heuristic beat exact: {} > {}",
                g.set_weight_sum(&is),
                exw
            );
        }
        let ls = mwis::local_search(&g, &mwis::gwmin(&g));
        assert!(g.is_independent_set(&ls));
        assert!(g.set_weight_sum(&ls) <= exw + 1e-9);
    }
}

#[test]
fn local_search_never_worsens() {
    let mut rng = SimRng::seed_from_u64(0x6717a5);
    for _ in 0..64 {
        let g = random_graph(&mut rng, 30);
        let start = mwis::gwmin(&g);
        let improved = mwis::local_search(&g, &start);
        assert!(g.is_independent_set(&improved));
        assert!(g.set_weight_sum(&improved) >= g.set_weight_sum(&start) - 1e-9);
    }
}

#[test]
fn greedy_cover_is_valid_and_bounded() {
    let mut rng = SimRng::seed_from_u64(0x6717a6);
    for _ in 0..64 {
        let universe = 1 + rng.index(11);
        let mut inst = SetCoverInstance::new(universe);
        // Guarantee coverability with singletons.
        for e in 0..universe {
            inst.add_set(1.0, [e as u32]);
        }
        for _ in 0..1 + rng.index(9) {
            let w = rng.next_f64() * 5.0;
            let elems: Vec<u32> = (0..1 + rng.index(5))
                .map(|_| rng.index(12) as u32)
                .collect();
            inst.add_set(w, elems);
        }
        let g = inst.solve_greedy().expect("coverable");
        assert!(inst.is_cover(&g.sets));
        let e = inst.solve_exact(12).expect("coverable");
        assert!(inst.is_cover(&e.sets));
        assert!(
            e.weight <= g.weight + 1e-9,
            "exact {} > greedy {}",
            e.weight,
            g.weight
        );
        assert!(
            g.weight <= harmonic(universe) * e.weight + 1e-9,
            "greedy {} exceeded Hn bound on exact {}",
            g.weight,
            e.weight
        );
    }
}

#[test]
fn uncoverable_instances_return_none() {
    let mut rng = SimRng::seed_from_u64(0x6717a7);
    for _ in 0..64 {
        let universe = 2 + rng.index(8);
        let missing = rng.index(universe);
        let mut inst = SetCoverInstance::new(universe);
        for e in 0..universe {
            if e != missing {
                inst.add_set(1.0, [e as u32]);
            }
        }
        assert!(inst.solve_greedy().is_none());
        assert!(inst.solve_exact(16).is_none());
    }
}

/// The bulk [`GraphBuilder`] must be observationally identical to feeding
/// the same edge sequence — duplicates, reversed duplicates, and
/// self-loops included — through [`Graph::add_edge`]. Neighbor *order*
/// matters, not just the neighbor sets: `gwmin2` and `local_search` are
/// sensitive to adjacency-list order, so the builder guarantees
/// first-occurrence insertion order.
#[test]
fn builder_equivalent_to_incremental_on_random_sequences() {
    use spindown_graph::graph::GraphBuilder;

    let mut rng = SimRng::seed_from_u64(0x6717a8);
    for case in 0..128 {
        let n = 2 + rng.index(40);
        let weights: Vec<f64> = (0..n).map(|_| 0.01 + rng.next_f64() * 9.99).collect();

        // One shared edge sequence with deliberate duplicates (~1/4 of
        // draws repeat an earlier edge, possibly flipped) and self-loops.
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        for _ in 0..rng.index(n * 4) + 1 {
            let (u, v) = if !edges.is_empty() && rng.index(4) == 0 {
                let (a, b) = edges[rng.index(edges.len())];
                if rng.index(2) == 0 {
                    (a, b)
                } else {
                    (b, a)
                }
            } else {
                (rng.index(n) as NodeId, rng.index(n) as NodeId)
            };
            edges.push((u, v));
        }

        let mut incremental = Graph::with_weights(weights.clone());
        let mut builder = GraphBuilder::with_weights(weights);
        for &(u, v) in &edges {
            incremental.add_edge(u, v);
            builder.add_edge(u, v);
        }
        let bulk = builder.finalize();

        assert_eq!(bulk.len(), incremental.len(), "case {case}: node count");
        assert_eq!(
            bulk.edge_count(),
            incremental.edge_count(),
            "case {case}: edge count"
        );
        for v in 0..n as NodeId {
            assert_eq!(
                bulk.neighbors(v),
                incremental.neighbors(v),
                "case {case}: adjacency order of node {v} diverged"
            );
            assert_eq!(bulk.weight(v), incremental.weight(v));
        }
    }
}

/// The CSR backend must be structurally indistinguishable from the
/// adjacency-list graph it was built from — same node count, edge count,
/// degrees, (sorted) neighbor sets, weights, and `has_edge` answers —
/// across sparse, moderate, and dense instances, and regardless of
/// whether the CSR came from a snapshot or from the builder.
#[test]
fn csr_structure_matches_adjacency_list() {
    use spindown_graph::graph::GraphBuilder;

    let mut rng = SimRng::seed_from_u64(0x6717a9);
    for case in 0..60 {
        let g = random_graph_with_density(&mut rng, 40, [1, 4, 12][case % 3]);
        let n = g.len();
        // Snapshot path and builder path must agree with each other too.
        let snap = CsrGraph::from_graph(&g);
        let mut b = GraphBuilder::with_weights(g.weights().to_vec());
        for v in 0..n as NodeId {
            for &u in g.neighbors(v) {
                if v < u {
                    b.add_edge(v, u);
                }
            }
        }
        let built = b.finalize_csr();
        assert_eq!(snap, built, "case {case}: snapshot vs builder CSR");

        assert_eq!(snap.len(), g.len(), "case {case}: node count");
        assert_eq!(snap.edge_count(), g.edge_count(), "case {case}: edges");
        for v in 0..n as NodeId {
            assert_eq!(snap.weight(v), g.weight(v));
            assert_eq!(snap.degree(v), g.degree(v), "case {case}: degree {v}");
            let mut adj = g.neighbors(v).to_vec();
            adj.sort_unstable();
            assert_eq!(snap.neighbors(v), &adj[..], "case {case}: adjacency {v}");
            for u in 0..n as NodeId {
                assert_eq!(
                    snap.has_edge(v, u),
                    g.has_edge(v, u),
                    "case {case}: has_edge({v}, {u})"
                );
            }
        }
    }
}

/// Every MWIS solver must return the *identical* node set on both
/// storage backends, and the production greedy engine must be
/// bit-identical to the eager reference engine on each backend — across
/// sparse-to-dense seeded instances.
#[test]
fn solvers_identical_across_backends_and_engines() {
    let mut rng = SimRng::seed_from_u64(0x6717aa);
    for case in 0..60 {
        let g = random_graph_with_density(&mut rng, 40, [1, 4, 12][case % 3]);
        let c = CsrGraph::from_graph(&g);

        let gw = mwis::gwmin(&g);
        assert_eq!(gw, mwis::gwmin(&c), "case {case}: gwmin backends");
        assert_eq!(gw, eager_gwmin(&g), "case {case}: gwmin engines");
        assert_eq!(gw, eager_gwmin(&c), "case {case}: gwmin cross");

        let gw2 = mwis::gwmin2(&g);
        assert_eq!(gw2, mwis::gwmin2(&c), "case {case}: gwmin2 backends");
        assert_eq!(gw2, eager_gwmin2(&g), "case {case}: gwmin2 engines");
        assert_eq!(gw2, eager_gwmin2(&c), "case {case}: gwmin2 cross");

        assert_eq!(
            mwis::local_search(&g, &gw),
            mwis::local_search(&c, &gw),
            "case {case}: local_search backends"
        );
    }
}

/// Exact branch-and-bound is backend-independent as well (kept to small
/// instances; the solver is exponential).
#[test]
fn exact_identical_across_backends() {
    let mut rng = SimRng::seed_from_u64(0x6717ab);
    for case in 0..50 {
        let g = random_graph_with_density(&mut rng, 14, [1, 4, 12][case % 3]);
        let c = CsrGraph::from_graph(&g);
        assert_eq!(
            mwis::exact(&g, 16),
            mwis::exact(&c, 16),
            "case {case}: exact backends"
        );
    }
}
