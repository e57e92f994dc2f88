//! Differential pinning of the tournament-tree greedy engine and the
//! word-at-a-time bitset kernels against their predecessors.
//!
//! The production greedy engine (`gwmin`/`gwmin2`) is a tournament tree
//! over 64-node blocks; its reference is the eager-heap cascade kept in
//! `common/mod.rs`. Weights are continuous draws from the seeded
//! `spindown_sim` RNG, so score ties are absent (almost surely,
//! deterministically for these fixed seeds) apart from the engineered tie
//! cases — the engines must return **bit-identical** selections, not
//! merely equal weights. Graphs of at most 64 nodes are one block; the
//! multi-block cases reach the engine's dirty-block rescans.

mod common;

use common::{
    csr_from_edges, eager_gwmin, eager_gwmin2, random_edges, random_graph, recursive_mwis_exact,
    walking_local_search,
};
use spindown_graph::bitset;
use spindown_graph::mwis::{self, GreedyScratch};
use spindown_graph::{Adjacency, CsrGraph};
use spindown_sim::rng::SimRng;

/// 150 seeded graphs, sparse to near-complete: the tournament engine
/// must reproduce the eager cascade exactly.
#[test]
fn greedy_tree_bit_identical_to_eager_sparse_to_dense() {
    let mut rng = SimRng::seed_from_u64(0x9a11e0);
    for case in 0..150 {
        let g = random_graph(&mut rng, 48, [1, 2, 4, 8, 16, 32][case % 6]);

        let tree = mwis::gwmin(&g);
        assert_eq!(tree, eager_gwmin(&g), "case {case}: gwmin vs eager");
        assert!(g.is_independent_set(&tree), "case {case}: infeasible");

        let tree2 = mwis::gwmin2(&g);
        assert_eq!(tree2, eager_gwmin2(&g), "case {case}: gwmin2 vs eager");
        assert!(g.is_independent_set(&tree2), "case {case}: infeasible");
    }
}

/// Uniform weights force a score tie at every step; the engines must
/// agree on the smallest-node-id tie-break rather than merely matching
/// total weight.
#[test]
fn greedy_tree_matches_eager_under_total_ties() {
    let mut rng = SimRng::seed_from_u64(0x9a11e1);
    for case in 0..40 {
        let n = 2 + rng.index(31);
        let mut edges = Vec::new();
        for _ in 0..rng.index(n * 4) {
            edges.push((rng.index(n) as u32, rng.index(n) as u32));
        }
        let g = csr_from_edges(vec![1.0; n], &edges);
        for (tree, eager) in [
            (mwis::gwmin(&g), eager_gwmin(&g)),
            (mwis::gwmin2(&g), eager_gwmin2(&g)),
        ] {
            assert_eq!(tree, eager, "case {case}: tie-break vs eager");
        }
    }
}

/// Instances of many 64-node blocks: sizes at the block boundaries
/// (63–65, 127–129, 191–193) plus random sizes up to ~1,000, each under
/// three weight modes — continuous positive; a mix of zero, negative and
/// positive (the only way a re-scored survivor's score falls); and
/// all-equal, so ties cross block boundaries. One warm scratch runs the
/// whole sequence.
#[test]
fn greedy_tree_matches_eager_across_blocks() {
    let mut rng = SimRng::seed_from_u64(0x9a11e4);
    let mut sizes = vec![63, 64, 65, 127, 128, 129, 191, 192, 193];
    sizes.extend((0..12).map(|_| 2 + rng.index(1_000)));
    let mut warm = GreedyScratch::new();
    let mut out = Vec::new();
    for (case, &n) in sizes.iter().enumerate() {
        for mode in 0..3 {
            let weights: Vec<f64> = (0..n)
                .map(|_| {
                    let positive = 0.01 + rng.next_f64() * 9.99;
                    match mode {
                        0 => positive,
                        1 => [0.0, -positive, positive][rng.index(3)],
                        _ => 1.0,
                    }
                })
                .collect();
            let draws = n * [1, 2, 4, 8][(case + mode) % 4];
            let edges: Vec<(u32, u32)> = (0..draws)
                .map(|_| (rng.index(n) as u32, rng.index(n) as u32))
                .collect();
            let g = csr_from_edges(weights, &edges);
            mwis::gwmin_into(&g, &mut warm, &mut out);
            assert_eq!(out, eager_gwmin(&g), "n {n} mode {mode}: gwmin vs eager");
            mwis::gwmin2_into(&g, &mut warm, &mut out);
            assert_eq!(out, eager_gwmin2(&g), "n {n} mode {mode}: gwmin2 vs eager");
        }
    }
}

/// One small instance through every solver and its reference: greedy
/// against the eager cascade, exact against the recursive solver, and
/// local search from the greedy start.
#[test]
fn solvers_run_identically_on_csr() {
    let c = CsrGraph::from_unique_edges(
        vec![4.0, 1.0, 3.0, 2.0, 5.0, 1.0],
        &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)],
    );
    assert_eq!(mwis::gwmin(&c), eager_gwmin(&c));
    assert_eq!(mwis::gwmin2(&c), eager_gwmin2(&c));
    let ex = mwis::exact(&c, 64).expect("within limit");
    assert_eq!(Some(ex.clone()), recursive_mwis_exact(&c, 64));
    let start = mwis::gwmin(&c);
    let improved = mwis::local_search(&c, &start);
    assert!(c.is_independent_set(&improved));
    assert!(c.set_weight_sum(&improved) >= c.set_weight_sum(&start));
    assert!(c.set_weight_sum(&improved) <= c.set_weight_sum(&ex));
}

/// 120 seeded graphs, sparse to near-complete and up to a few blocks
/// wide, some with uniform weights: local search from the empty set,
/// from every other node of the GWMIN set and from both greedy sets must
/// reproduce the reference that walked every member's neighborhood on
/// every pass.
#[test]
fn local_search_matches_the_walking_reference() {
    let mut rng = SimRng::seed_from_u64(0x9a11e3);
    for case in 0..120 {
        let (mut weights, edges) =
            random_edges(&mut rng, [12, 48, 200][case % 3], [1, 2, 4, 8][case % 4]);
        if case % 5 == 0 {
            weights.fill(1.0);
        }
        let g = csr_from_edges(weights, &edges);
        let greedy = mwis::gwmin(&g);
        let halved: Vec<_> = greedy.iter().copied().step_by(2).collect();
        for start in [Vec::new(), halved, greedy, mwis::gwmin2(&g)] {
            assert_eq!(
                mwis::local_search(&g, &start),
                walking_local_search(&g, &start),
                "case {case}: from {start:?}"
            );
        }
    }
}

/// One scratch threaded through an interleaved gwmin/gwmin2 sequence of
/// shrinking and growing instances returns exactly what fresh scratches
/// return — the zero-residue guarantee `PlanScratch` reuse depends on.
#[test]
fn scratch_reuse_matches_fresh_across_instances() {
    let mut rng = SimRng::seed_from_u64(0x9a11e2);
    let graphs: Vec<CsrGraph> = (0..12)
        .map(|i| random_graph(&mut rng, [64, 6, 40, 3][i % 4], 6))
        .collect();
    let mut warm = GreedyScratch::new();
    let mut out = Vec::new();
    for (i, g) in graphs.iter().enumerate() {
        if i % 2 == 0 {
            mwis::gwmin_into(g, &mut warm, &mut out);
            assert_eq!(out, mwis::gwmin(g), "graph {i}: warm gwmin diverged");
        } else {
            mwis::gwmin2_into(g, &mut warm, &mut out);
            assert_eq!(out, mwis::gwmin2(g), "graph {i}: warm gwmin2 diverged");
        }
    }
}

/// Scalar reference for the fused word kernels, built from single-bit
/// primitives only.
fn bits_of(words: &[u64]) -> Vec<bool> {
    (0..words.len() * 64)
        .map(|i| bitset::test(words, i))
        .collect()
}

fn random_words(rng: &mut SimRng, len: usize, density_num: u64) -> Vec<u64> {
    let mut w = vec![0u64; len];
    for i in 0..len * 64 {
        if rng.next_u64() % 8 < density_num {
            bitset::set(&mut w, i);
        }
    }
    w
}

/// The fused word-at-a-time kernels against bit-by-bit recomputation,
/// across empty, sparse, dense, and full operands.
#[test]
fn bitset_kernels_match_bitwise_reference() {
    let mut rng = SimRng::seed_from_u64(0x9a11e3);
    for case in 0..60 {
        let len = 1 + rng.index(6);
        let density = [0, 1, 4, 7, 8][case % 5] as u64;
        let a = random_words(&mut rng, len, density);
        let b = random_words(&mut rng, len, 4);
        let weights: Vec<f64> = (0..len * 64).map(|_| rng.next_f64() * 5.0).collect();
        let (abits, bbits) = (bits_of(&a), bits_of(&b));

        // and_not_assign: dst &= !mask.
        let mut dst = a.clone();
        bitset::and_not_assign(&mut dst, &b);
        for i in 0..len * 64 {
            assert_eq!(
                bitset::test(&dst, i),
                abits[i] && !bbits[i],
                "case {case} andnot {i}"
            );
        }

        // or_assign / and_assign / and_into.
        let mut dst = a.clone();
        bitset::or_assign(&mut dst, &b);
        for i in 0..len * 64 {
            assert_eq!(
                bitset::test(&dst, i),
                abits[i] || bbits[i],
                "case {case} or {i}"
            );
        }
        let mut dst = a.clone();
        bitset::and_assign(&mut dst, &b);
        let mut into = vec![0u64; len];
        bitset::and_into(&mut into, &a, &b);
        assert_eq!(dst, into, "case {case}: and_assign vs and_into");
        for i in 0..len * 64 {
            assert_eq!(
                bitset::test(&dst, i),
                abits[i] && bbits[i],
                "case {case} and {i}"
            );
        }

        // extract_and_clear: slot = set & mask, set &= !mask.
        let mut set = a.clone();
        let mut slot = vec![0u64; len];
        bitset::extract_and_clear(&mut set, &b, &mut slot);
        for i in 0..len * 64 {
            assert_eq!(
                bitset::test(&slot, i),
                abits[i] && bbits[i],
                "case {case} slot {i}"
            );
            assert_eq!(
                bitset::test(&set, i),
                abits[i] && !bbits[i],
                "case {case} set {i}"
            );
        }

        // Popcount-accumulate reductions.
        let expect_count = (0..len * 64).filter(|&i| abits[i] && bbits[i]).count();
        assert_eq!(
            bitset::intersection_count(&a, &b),
            expect_count,
            "case {case}"
        );
        let expect_wsum: f64 = (0..len * 64)
            .filter(|&i| abits[i])
            .map(|i| weights[i])
            .sum();
        assert!(
            (bitset::weight_sum(&a, &weights) - expect_wsum).abs() < 1e-9,
            "case {case}"
        );
        let expect_iw: f64 = (0..len * 64)
            .filter(|&i| abits[i] && bbits[i])
            .map(|i| weights[i])
            .sum();
        assert!(
            (bitset::intersection_weight(&a, &b, &weights) - expect_iw).abs() < 1e-9,
            "case {case}"
        );

        // Masked first-set and masked iteration.
        let expect_first = (0..len * 64).find(|&i| abits[i] && bbits[i]);
        assert_eq!(
            bitset::first_set_masked(&a, &b),
            expect_first,
            "case {case}"
        );
        let got: Vec<usize> = bitset::ones_masked(&a, &b).collect();
        let expect: Vec<usize> = (0..len * 64).filter(|&i| abits[i] && bbits[i]).collect();
        assert_eq!(got, expect, "case {case}: ones_masked order");
    }
}
