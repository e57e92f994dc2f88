//! Differential pinning of the iterative bitset exact solvers against the
//! recursive solvers they replaced (kept in `common/mod.rs` as test-only
//! references), plus deep-branching instances at the old production
//! limits that the recursive solvers' clone-per-branch / frame-per-branch
//! design made hazardous.
//!
//! Instance weights are continuous draws from the seeded `spindown_sim`
//! RNG, so optima are unique (almost surely, and deterministically for
//! these fixed seeds): the new solvers must return **bit-identical** sets,
//! not merely equal weights. Runs with `-C overflow-checks=on` in the CI
//! differential job to exercise the bitset word arithmetic.

mod common;

use common::{
    csr_from_edges, random_edges, random_graph, recursive_cover_exact, recursive_mwis_exact,
};
use spindown_graph::mwis;
use spindown_graph::setcover::SetCoverInstance;
use spindown_graph::{Adjacency, NodeId};
use spindown_sim::rng::SimRng;

/// A random coverable instance: one continuous-weight singleton per
/// element (coverability and unique-optimum tie-breaking), plus a batch of
/// random multi-element sets.
fn random_cover(rng: &mut SimRng, max_universe: usize) -> SetCoverInstance {
    let universe = 1 + rng.index(max_universe);
    let mut inst = SetCoverInstance::new(universe);
    for e in 0..universe {
        inst.add_set(0.5 + rng.next_f64() * 2.0, [e as u32]);
    }
    for _ in 0..1 + rng.index(2 * universe) {
        let w = 0.1 + rng.next_f64() * 8.0;
        let elems: Vec<u32> = (0..1 + rng.index(universe))
            .map(|_| rng.index(universe) as u32)
            .collect();
        inst.add_set(w, elems);
    }
    inst
}

/// 125 seeded graphs, sparse to near-complete: the iterative solver must
/// return the recursive reference's exact node set.
#[test]
fn mwis_exact_bit_identical_to_recursive_reference() {
    let mut rng = SimRng::seed_from_u64(0x6717b0);
    for case in 0..125 {
        let g = random_graph(&mut rng, 24, [1, 2, 4, 8, 12][case % 5]);
        let old = recursive_mwis_exact(&g, 24).expect("within limit");
        let new = mwis::exact(&g, 24).expect("within limit");
        assert_eq!(new, old, "case {case}: iterative vs recursive");
        assert!(g.is_independent_set(&new), "case {case}: infeasible");
    }
}

/// Zero- and negative-weight vertices never help an optimum; both solvers
/// must agree on instances that contain them (weights here are continuous
/// apart from the sign flip, so optima stay unique).
#[test]
fn mwis_exact_agrees_with_reference_under_nonpositive_weights() {
    let mut rng = SimRng::seed_from_u64(0x6717b1);
    for case in 0..40 {
        let (mut weights, edges) = random_edges(&mut rng, 16, 3);
        // Flip roughly a third of the weights negative.
        for w in &mut weights {
            if rng.index(3) == 0 {
                *w = -*w;
            }
        }
        let g = csr_from_edges(weights, &edges);
        let old = recursive_mwis_exact(&g, 16).expect("within limit");
        let new = mwis::exact(&g, 16).expect("within limit");
        // The reference may pad its set with zero-weight vertices it
        // happened to branch through; with continuous weights there are
        // none, so the unique positive-weight optimum must match exactly.
        assert_eq!(new, old, "case {case}");
        assert!(g.is_independent_set(&new));
    }
}

/// 125 seeded cover instances: full `Cover` equality (sets and recomputed
/// weight) between the iterative solver and the recursive reference.
#[test]
fn setcover_exact_bit_identical_to_recursive_reference() {
    let mut rng = SimRng::seed_from_u64(0x6717b2);
    for case in 0..125 {
        let inst = random_cover(&mut rng, [4, 7, 10, 13, 16][case % 5]);
        let old = recursive_cover_exact(&inst, 16).expect("coverable");
        let new = inst.solve_exact(16).expect("coverable");
        assert_eq!(new, old, "case {case}: iterative vs recursive");
        assert!(inst.is_cover(&new.sets), "case {case}: not a cover");
    }
}

/// Two hand-built instances, one with a cheap split beating a single
/// covering set and one with all weights equal: the iterative and
/// recursive solvers return the same cover.
#[test]
fn setcover_exact_matches_recursive_reference_on_small_instances() {
    for inst in [
        {
            let mut i = SetCoverInstance::new(4);
            i.add_set(3.1, [0, 1, 2, 3]);
            i.add_set(1.0, [0, 1]);
            i.add_set(1.0, [2, 3]);
            i
        },
        {
            let mut i = SetCoverInstance::new(6);
            i.add_set(5.0, [0, 1, 2, 4]);
            i.add_set(5.0, [1, 2]);
            i.add_set(5.0, [3, 5]);
            i.add_set(5.0, [2, 3, 4, 5]);
            i
        },
    ] {
        let new = inst.solve_exact(64).unwrap();
        let old = recursive_cover_exact(&inst, 64).unwrap();
        assert_eq!(new, old);
    }
}

/// Uncoverable universes: both solvers return `None`.
#[test]
fn setcover_exact_none_matches_reference_on_uncoverable() {
    let mut rng = SimRng::seed_from_u64(0x6717b3);
    for _ in 0..32 {
        let universe = 2 + rng.index(10);
        let missing = rng.index(universe);
        let mut inst = SetCoverInstance::new(universe);
        for e in 0..universe {
            if e != missing {
                inst.add_set(0.5 + rng.next_f64(), [e as u32]);
            }
        }
        assert!(inst.solve_exact(16).is_none());
        assert!(recursive_cover_exact(&inst, 16).is_none());
    }
}

/// Eight disjoint 8-cliques at the *old* production node limit of 64 — the
/// shape that drove the recursive solver through deep include/exclude
/// chains with a full bitmap clone per branch. The optimum is each
/// clique's heaviest vertex; the iterative solver must find it with its
/// heap-allocated stack (no thread-stack growth) in one pass.
#[test]
fn mwis_deep_branching_disjoint_cliques_at_old_limit() {
    let mut rng = SimRng::seed_from_u64(0x6717b4);
    let weights: Vec<f64> = (0..64).map(|_| 0.01 + rng.next_f64() * 9.99).collect();
    let mut edges = Vec::new();
    for clique in 0..8u32 {
        for a in 0..8u32 {
            for b in (a + 1)..8u32 {
                edges.push((clique * 8 + a, clique * 8 + b));
            }
        }
    }
    let g = csr_from_edges(weights.clone(), &edges);
    let expected: Vec<NodeId> = (0..8usize)
        .map(|q| {
            (0..8usize)
                .map(|i| (q * 8 + i) as NodeId)
                .max_by(|&a, &b| {
                    weights[a as usize]
                        .partial_cmp(&weights[b as usize])
                        .unwrap()
                })
                .unwrap()
        })
        .collect();
    let got = mwis::exact(&g, 64).expect("within limit");
    assert_eq!(got, expected, "per-clique argmax optimum");
}

/// A 64-node random-weight path at the old node limit, pinned against an
/// independent `O(n)` dynamic-programming oracle (take/skip recurrence
/// with reconstruction). Paths force the longest exclude chains — the
/// recursion-depth worst case of the old solver.
#[test]
fn mwis_deep_branching_path_matches_dp_oracle() {
    let mut rng = SimRng::seed_from_u64(0x6717b5);
    let n = 64usize;
    let weights: Vec<f64> = (0..n).map(|_| 0.01 + rng.next_f64() * 9.99).collect();
    let edges: Vec<(NodeId, NodeId)> = (1..n).map(|i| ((i - 1) as NodeId, i as NodeId)).collect();
    let g = csr_from_edges(weights.clone(), &edges);
    // dp[i] = best IS weight on suffix i..; take w[i] + dp[i+2] or skip.
    let mut dp = vec![0.0f64; n + 2];
    for i in (0..n).rev() {
        dp[i] = dp[i + 1].max(weights[i] + dp[i + 2]);
    }
    let mut expected: Vec<NodeId> = Vec::new();
    let mut i = 0usize;
    while i < n {
        if dp[i] == weights[i] + dp[i + 2] {
            expected.push(i as NodeId);
            i += 2;
        } else {
            i += 1;
        }
    }
    let got = mwis::exact(&g, 64).expect("within limit");
    assert_eq!(got, expected, "DP oracle optimum");
    assert!((g.set_weight_sum(&got) - dp[0]).abs() < 1e-9);
}

/// A universe-64 cover whose optimum takes all 64 singletons (the lone
/// alternative is a decoy costing more than every singleton combined):
/// 64 chosen sets means the old solver recursed 64 frames deep with a
/// fresh `newly`-covered Vec per frame; the iterative solver walks it with
/// its explicit stack and undo arena.
#[test]
fn setcover_deep_branching_singletons_at_old_limit() {
    let mut rng = SimRng::seed_from_u64(0x6717b6);
    let universe = 64usize;
    let mut inst = SetCoverInstance::new(universe);
    let mut total = 0.0f64;
    for e in 0..universe {
        let w = 1.0 + rng.next_f64();
        total += w;
        inst.add_set(w, [e as u32]);
    }
    inst.add_set(total + 1.0, 0..universe as u32); // decoy: always worse
    let got = inst.solve_exact(64).expect("coverable");
    assert_eq!(got.sets, (0..universe).collect::<Vec<_>>());
    assert!((got.weight - total).abs() < 1e-9);
    assert!(inst.is_cover(&got.sets));
}

/// Feasibility and greedy domination on instances past the recursive
/// solver's comfort zone — up to 40 nodes, solved by the new solver only.
#[test]
fn mwis_exact_dominates_greedy_on_midsize_instances() {
    let mut rng = SimRng::seed_from_u64(0x6717b7);
    for case in 0..16 {
        let g = random_graph(&mut rng, 40, 2);
        let ex = mwis::exact(&g, mwis::DEFAULT_NODE_LIMIT).expect("within limit");
        assert!(g.is_independent_set(&ex), "case {case}");
        let exw = g.set_weight_sum(&ex);
        for is in [mwis::gwmin(&g), mwis::gwmin2(&g)] {
            assert!(
                g.set_weight_sum(&is) <= exw + 1e-9,
                "case {case}: greedy beat exact"
            );
        }
    }
}
