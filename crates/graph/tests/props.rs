//! Deterministic property checks for the MWIS and set-cover solvers: on
//! pseudo-randomly generated instances (seeded `spindown_sim` RNG, so every
//! run exercises the identical cases), every solver's output must be
//! feasible, and the exact solvers must dominate the heuristics. The CSR
//! constructor itself is checked against an ordered edge set.

mod common;

use std::collections::BTreeSet;

use common::{random_edges, random_graph};
use spindown_graph::setcover::{harmonic, SetCoverInstance};
use spindown_graph::{mwis, CsrGraph, NodeId};
use spindown_sim::rng::SimRng;

#[test]
fn gwmin_output_is_independent_and_maximal() {
    let mut rng = SimRng::seed_from_u64(0x6717a1);
    for _ in 0..64 {
        let g = random_graph(&mut rng, 40, 2);
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
            let addable = g.neighbors(v as NodeId).iter().all(|&u| !inset[u as usize]);
            assert!(!addable, "vertex {v} was addable");
        }
    }
}

#[test]
fn gwmin2_output_is_independent() {
    let mut rng = SimRng::seed_from_u64(0x6717a2);
    for _ in 0..64 {
        let g = random_graph(&mut rng, 40, 2);
        assert!(g.is_independent_set(&mwis::gwmin2(&g)));
    }
}

#[test]
fn gwmin_satisfies_sakai_bound() {
    let mut rng = SimRng::seed_from_u64(0x6717a3);
    for _ in 0..64 {
        let g = random_graph(&mut rng, 30, 2);
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
        let g = random_graph(&mut rng, 16, 2);
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
        let g = random_graph(&mut rng, 30, 2);
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

/// `CsrGraph::from_unique_edges` against an ordered edge set, across
/// sparse, moderate, and dense instances: the unique edges go in in
/// first-draw order and orientation, and the graph must report the
/// set's edge count, each node's degree and sorted neighbors, the
/// weights, and a `has_edge` answer for every ordered pair.
#[test]
fn csr_structure_matches_edge_set() {
    let mut rng = SimRng::seed_from_u64(0x6717a9);
    for case in 0..60 {
        let (weights, draws) = random_edges(&mut rng, 40, [1, 4, 12][case % 3]);
        let n = weights.len();
        let mut set: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
        let mut unique = Vec::new();
        for &(u, v) in &draws {
            if set.insert((u.min(v), u.max(v))) {
                unique.push((u, v));
            }
        }
        let g = CsrGraph::from_unique_edges(weights.clone(), &unique);

        assert_eq!(g.len(), n, "case {case}: node count");
        assert_eq!(g.edge_count(), set.len(), "case {case}: edges");
        for v in 0..n as NodeId {
            let want: Vec<NodeId> = (0..n as NodeId)
                .filter(|&u| set.contains(&(u.min(v), u.max(v))))
                .collect();
            assert_eq!(g.weight(v), weights[v as usize]);
            assert_eq!(g.degree(v), want.len(), "case {case}: degree {v}");
            assert_eq!(g.neighbors(v), &want[..], "case {case}: adjacency {v}");
            for u in 0..n as NodeId {
                assert_eq!(
                    g.has_edge(v, u),
                    set.contains(&(u.min(v), u.max(v))),
                    "case {case}: has_edge({v}, {u})"
                );
            }
        }
    }
}
