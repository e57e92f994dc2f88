//! Differential pinning of the tournament-tree greedy engine and the
//! word-at-a-time bitset kernels against their predecessors.
//!
//! The production greedy engine (`gwmin`/`gwmin2`) is a monotone
//! tournament tree; its reference is the eager-heap cascade kept in
//! `common/mod.rs`. Weights are continuous draws from the seeded
//! `spindown_sim` RNG, so score ties are absent (almost surely,
//! deterministically for these fixed seeds) apart from the engineered tie
//! cases — the engines must return **bit-identical** selections on both
//! storage backends, not merely equal weights.

mod common;

use common::{eager_gwmin, eager_gwmin2};
use spindown_graph::bitset;
use spindown_graph::csr::CsrGraph;
use spindown_graph::graph::{Graph, GraphBuilder, NodeId};
use spindown_graph::mwis::{self, GreedyScratch};
use spindown_sim::rng::SimRng;

/// A random graph with tunable density: `2..=max_n` nodes, continuous
/// weights in (0, 10], up to `n * edge_factor` edge draws.
fn random_graph(rng: &mut SimRng, max_n: usize, edge_factor: usize) -> Graph {
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

/// 150 seeded graphs, sparse to near-complete: the tournament engine
/// must reproduce the eager cascade exactly, on the adjacency-list and
/// the CSR backend.
#[test]
fn greedy_tree_bit_identical_to_eager_sparse_to_dense() {
    let mut rng = SimRng::seed_from_u64(0x9a11e0);
    for case in 0..150 {
        let g = random_graph(&mut rng, 48, [1, 2, 4, 8, 16, 32][case % 6]);
        let c = CsrGraph::from_graph(&g);

        let tree = mwis::gwmin(&g);
        assert_eq!(tree, eager_gwmin(&g), "case {case}: gwmin vs eager");
        assert_eq!(tree, mwis::gwmin(&c), "case {case}: gwmin CSR diverged");
        assert!(g.is_independent_set(&tree), "case {case}: infeasible");

        let tree2 = mwis::gwmin2(&g);
        assert_eq!(tree2, eager_gwmin2(&g), "case {case}: gwmin2 vs eager");
        assert_eq!(tree2, mwis::gwmin2(&c), "case {case}: gwmin2 CSR diverged");
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
        let mut g = Graph::with_weights(vec![1.0; n]);
        for _ in 0..rng.index(n * 4) {
            let u = rng.index(n) as NodeId;
            let v = rng.index(n) as NodeId;
            if u != v {
                g.add_edge(u, v);
            }
        }
        let c = CsrGraph::from_graph(&g);
        for (tree, eager) in [
            (mwis::gwmin(&c), eager_gwmin(&g)),
            (mwis::gwmin2(&c), eager_gwmin2(&g)),
        ] {
            assert_eq!(tree, eager, "case {case}: tie-break vs eager");
        }
    }
}

/// One small instance through both backends, the bulk builder and the
/// eager reference: greedy, exact and local search all agree.
#[test]
fn solvers_run_identically_on_csr() {
    let weights = vec![4.0, 1.0, 3.0, 2.0, 5.0, 1.0];
    let edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)];
    let mut g = Graph::with_weights(weights.clone());
    let mut b = GraphBuilder::with_weights(weights);
    for &(u, v) in &edges {
        g.add_edge(u, v);
        b.add_edge(u, v);
    }
    let c = b.finalize_csr();
    assert_eq!(mwis::gwmin(&g), mwis::gwmin(&c));
    assert_eq!(mwis::gwmin2(&g), mwis::gwmin2(&c));
    assert_eq!(mwis::gwmin(&g), eager_gwmin(&g));
    assert_eq!(mwis::gwmin2(&c), eager_gwmin2(&c));
    assert_eq!(mwis::exact(&g, 64), mwis::exact(&c, 64));
    let start = mwis::gwmin(&g);
    assert_eq!(
        mwis::local_search(&g, &start),
        mwis::local_search(&c, &start)
    );
}

/// One scratch threaded through an interleaved gwmin/gwmin2 sequence of
/// shrinking and growing instances returns exactly what fresh scratches
/// return — the zero-residue guarantee `PlanScratch` reuse depends on.
#[test]
fn scratch_reuse_matches_fresh_across_instances() {
    let mut rng = SimRng::seed_from_u64(0x9a11e2);
    let graphs: Vec<CsrGraph> = (0..12)
        .map(|i| CsrGraph::from_graph(&random_graph(&mut rng, [64, 6, 40, 3][i % 4], 6)))
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
    (0..words.len() * 64).map(|i| bitset::test(words, i)).collect()
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
            assert_eq!(bitset::test(&dst, i), abits[i] && !bbits[i], "case {case} andnot {i}");
        }

        // or_assign / and_assign / and_into.
        let mut dst = a.clone();
        bitset::or_assign(&mut dst, &b);
        for i in 0..len * 64 {
            assert_eq!(bitset::test(&dst, i), abits[i] || bbits[i], "case {case} or {i}");
        }
        let mut dst = a.clone();
        bitset::and_assign(&mut dst, &b);
        let mut into = vec![0u64; len];
        bitset::and_into(&mut into, &a, &b);
        assert_eq!(dst, into, "case {case}: and_assign vs and_into");
        for i in 0..len * 64 {
            assert_eq!(bitset::test(&dst, i), abits[i] && bbits[i], "case {case} and {i}");
        }

        // extract_and_clear: slot = set & mask, set &= !mask.
        let mut set = a.clone();
        let mut slot = vec![0u64; len];
        bitset::extract_and_clear(&mut set, &b, &mut slot);
        for i in 0..len * 64 {
            assert_eq!(bitset::test(&slot, i), abits[i] && bbits[i], "case {case} slot {i}");
            assert_eq!(bitset::test(&set, i), abits[i] && !bbits[i], "case {case} set {i}");
        }

        // Popcount-accumulate reductions.
        let expect_count = (0..len * 64).filter(|&i| abits[i] && bbits[i]).count();
        assert_eq!(bitset::intersection_count(&a, &b), expect_count, "case {case}");
        let expect_wsum: f64 = (0..len * 64).filter(|&i| abits[i]).map(|i| weights[i]).sum();
        assert!((bitset::weight_sum(&a, &weights) - expect_wsum).abs() < 1e-9, "case {case}");
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
        assert_eq!(bitset::first_set_masked(&a, &b), expect_first, "case {case}");
        let got: Vec<usize> = bitset::ones_masked(&a, &b).collect();
        let expect: Vec<usize> = (0..len * 64).filter(|&i| abits[i] && bbits[i]).collect();
        assert_eq!(got, expect, "case {case}: ones_masked order");
    }
}
