//! Word-packed `u64` bitset primitives shared by the exact solvers and
//! the greedy engine's neighbor marking.
//!
//! Both branch-and-bound oracles ([`crate::mwis::exact`] and
//! [`crate::setcover::SetCoverInstance::solve_exact`]) keep their search
//! state as flat `&[u64]` word slices: an alive/covered set of `words_for(n)`
//! words, a row-major `n × words_for(n)` mask table (closed neighborhoods,
//! set element masks), and an undo arena with one `words_for(n)`-word slot
//! per search depth. Everything here operates on plain slices so the solvers
//! can carve rows and slots out of single allocations without lifetimes or
//! wrapper types getting in the way.
//!
//! Beyond the single-bit primitives, the module carries **fused
//! word-at-a-time kernels** — [`extract_and_clear`], [`and_not_assign`],
//! [`or_assign`], [`and_into`], [`and_assign`], [`weight_sum`],
//! [`intersection_weight`], [`first_set_masked`] and [`ones_masked`] —
//! so a hot loop touches each word once instead of composing two or
//! three single-purpose passes. Each fused kernel is
//! definitionally equivalent to a composition of the simple primitives
//! above it; the differential tests in this module and in
//! `tests/kernel_differential.rs` pin that equivalence on random words, so
//! the simple forms double as the retained oracles.

/// Number of `u64` words needed to hold `bits` bits.
#[inline]
pub fn words_for(bits: usize) -> usize {
    bits.div_ceil(64)
}

/// Sets bit `i`.
#[inline]
pub fn set(words: &mut [u64], i: usize) {
    words[i / 64] |= 1u64 << (i % 64);
}

/// Clears bit `i`.
#[inline]
pub fn clear(words: &mut [u64], i: usize) {
    words[i / 64] &= !(1u64 << (i % 64));
}

/// Tests bit `i`.
#[inline]
pub fn test(words: &[u64], i: usize) -> bool {
    (words[i / 64] >> (i % 64)) & 1 == 1
}

/// Number of set bits.
#[inline]
pub fn count(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// Number of set bits in `a & b` without materializing the intersection.
#[inline]
pub fn intersection_count(a: &[u64], b: &[u64]) -> usize {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x & y).count_ones() as usize)
        .sum()
}

/// Index of the lowest set bit, if any.
#[inline]
pub fn first_set(words: &[u64]) -> Option<usize> {
    words
        .iter()
        .position(|&w| w != 0)
        .map(|i| i * 64 + words[i].trailing_zeros() as usize)
}

/// Index of the lowest set bit of `a & b` without materializing the
/// intersection — the masked form of [`first_set`].
#[inline]
pub fn first_set_masked(a: &[u64], b: &[u64]) -> Option<usize> {
    a.iter()
        .zip(b)
        .position(|(&x, &y)| x & y != 0)
        .map(|i| i * 64 + (a[i] & b[i]).trailing_zeros() as usize)
}

/// `dst &= !mask`, word at a time.
#[inline]
pub fn and_not_assign(dst: &mut [u64], mask: &[u64]) {
    for (d, &m) in dst.iter_mut().zip(mask) {
        *d &= !m;
    }
}

/// `dst |= src`, word at a time — the backtracking restore of the
/// branch-and-bound undo arena.
#[inline]
pub fn or_assign(dst: &mut [u64], src: &[u64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

/// `dst = a & b`, word at a time.
#[inline]
pub fn and_into(dst: &mut [u64], a: &[u64], b: &[u64]) {
    for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *d = x & y;
    }
}

/// `dst &= mask`, word at a time.
#[inline]
pub fn and_assign(dst: &mut [u64], mask: &[u64]) {
    for (d, &m) in dst.iter_mut().zip(mask) {
        *d &= m;
    }
}

/// Fused include-branch kernel: stores `set ∩ mask` into `slot` and
/// removes it from `set` in the same pass — equivalent to
/// [`and_into`]`(slot, set, mask)` followed by
/// [`and_not_assign`]`(set, slot)`, at one word traversal instead of two.
#[inline]
pub fn extract_and_clear(set: &mut [u64], mask: &[u64], slot: &mut [u64]) {
    for ((s, &m), out) in set.iter_mut().zip(mask).zip(slot.iter_mut()) {
        let removed = *s & m;
        *out = removed;
        *s &= !removed;
    }
}

/// Sum of `weights[i]` over the set bits of `words` — popcount-style
/// accumulation that walks each word's set bits with `trailing_zeros`
/// instead of testing every index.
#[inline]
pub fn weight_sum(words: &[u64], weights: &[f64]) -> f64 {
    let mut sum = 0.0;
    for (wi, &w) in words.iter().enumerate() {
        let mut bits = w;
        let base = wi * 64;
        while bits != 0 {
            sum += weights[base + bits.trailing_zeros() as usize];
            bits &= bits - 1;
        }
    }
    sum
}

/// Sum of `weights[i]` over the set bits of `a & b` without materializing
/// the intersection — the masked form of [`weight_sum`].
#[inline]
pub fn intersection_weight(a: &[u64], b: &[u64], weights: &[f64]) -> f64 {
    let mut sum = 0.0;
    for (wi, (&x, &y)) in a.iter().zip(b).enumerate() {
        let mut bits = x & y;
        let base = wi * 64;
        while bits != 0 {
            sum += weights[base + bits.trailing_zeros() as usize];
            bits &= bits - 1;
        }
    }
    sum
}

/// Iterates the set bits of `a & b` in ascending order without
/// materializing the intersection — the masked form of [`ones`].
pub fn ones_masked<'a>(a: &'a [u64], b: &'a [u64]) -> OnesMasked<'a> {
    OnesMasked {
        a,
        b,
        idx: 0,
        cur: match (a.first(), b.first()) {
            (Some(&x), Some(&y)) => x & y,
            _ => 0,
        },
    }
}

/// Iterator over the set-bit indices of an un-materialized intersection
/// (see [`ones_masked`]).
pub struct OnesMasked<'a> {
    a: &'a [u64],
    b: &'a [u64],
    idx: usize,
    cur: u64,
}

impl Iterator for OnesMasked<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.cur == 0 {
            self.idx += 1;
            if self.idx >= self.a.len().min(self.b.len()) {
                return None;
            }
            self.cur = self.a[self.idx] & self.b[self.idx];
        }
        let bit = self.cur.trailing_zeros() as usize;
        self.cur &= self.cur - 1;
        Some(self.idx * 64 + bit)
    }
}

/// Iterates the indices of set bits in ascending order.
pub fn ones(words: &[u64]) -> Ones<'_> {
    Ones {
        words,
        idx: 0,
        cur: words.first().copied().unwrap_or(0),
    }
}

/// Iterator over set-bit indices, lowest first (see [`ones`]).
pub struct Ones<'a> {
    words: &'a [u64],
    idx: usize,
    cur: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.cur == 0 {
            self.idx += 1;
            if self.idx >= self.words.len() {
                return None;
            }
            self.cur = self.words[self.idx];
        }
        let bit = self.cur.trailing_zeros() as usize;
        self.cur &= self.cur - 1; // drop the lowest set bit
        Some(self.idx * 64 + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_for_boundaries() {
        assert_eq!(words_for(0), 0);
        assert_eq!(words_for(1), 1);
        assert_eq!(words_for(64), 1);
        assert_eq!(words_for(65), 2);
        assert_eq!(words_for(128), 2);
        assert_eq!(words_for(129), 3);
    }

    #[test]
    fn set_clear_test_roundtrip() {
        let mut ws = vec![0u64; 2];
        for i in [0usize, 1, 63, 64, 90, 127] {
            assert!(!test(&ws, i));
            set(&mut ws, i);
            assert!(test(&ws, i));
        }
        assert_eq!(count(&ws), 6);
        clear(&mut ws, 64);
        assert!(!test(&ws, 64));
        assert_eq!(count(&ws), 5);
    }

    #[test]
    fn ones_crosses_word_boundaries() {
        let mut ws = vec![0u64; 3];
        let bits = [3usize, 63, 64, 100, 128, 191];
        for &b in &bits {
            set(&mut ws, b);
        }
        assert_eq!(ones(&ws).collect::<Vec<_>>(), bits);
        assert_eq!(first_set(&ws), Some(3));
    }

    #[test]
    fn empty_and_zero_sets() {
        assert_eq!(ones(&[]).next(), None);
        assert_eq!(first_set(&[]), None);
        assert_eq!(first_set(&[0, 0]), None);
        assert_eq!(count(&[]), 0);
    }

    #[test]
    fn intersection_count_matches_manual() {
        let a = [0b1011u64, u64::MAX];
        let b = [0b0110u64, 1u64 << 63];
        assert_eq!(intersection_count(&a, &b), 1 + 1);
    }

    /// Deterministic xorshift word generator for the kernel tests.
    fn words(seed: u64, len: usize) -> Vec<u64> {
        let mut s = seed.max(1);
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            })
            .collect()
    }

    #[test]
    fn fused_kernels_match_primitive_compositions() {
        for seed in 1..20u64 {
            let a = words(seed, 4);
            let b = words(seed.wrapping_mul(0x9e3779b97f4a7c15), 4);

            let mut d = a.clone();
            and_not_assign(&mut d, &b);
            let manual: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| x & !y).collect();
            assert_eq!(d, manual);

            let mut d = a.clone();
            or_assign(&mut d, &b);
            let manual: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| x | y).collect();
            assert_eq!(d, manual);

            let mut d = vec![0u64; 4];
            and_into(&mut d, &a, &b);
            let manual: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| x & y).collect();
            assert_eq!(d, manual);

            let mut d = a.clone();
            and_assign(&mut d, &b);
            assert_eq!(d, manual);

            // extract_and_clear == and_into + and_not_assign.
            let mut set = a.clone();
            let mut slot = vec![0u64; 4];
            extract_and_clear(&mut set, &b, &mut slot);
            let mut oracle_set = a.clone();
            let mut oracle_slot = vec![0u64; 4];
            and_into(&mut oracle_slot, &a, &b);
            and_not_assign(&mut oracle_set, &oracle_slot);
            assert_eq!(slot, oracle_slot);
            assert_eq!(set, oracle_set);
        }
    }

    #[test]
    fn weight_kernels_match_ones_iteration() {
        for seed in 1..20u64 {
            let a = words(seed, 3);
            let b = words(seed + 100, 3);
            let weights: Vec<f64> = (0..192).map(|i| (i as f64) * 0.5 + 1.0).collect();
            let oracle: f64 = ones(&a).map(|i| weights[i]).sum();
            assert_eq!(weight_sum(&a, &weights), oracle);
            let inter: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| x & y).collect();
            let oracle: f64 = ones(&inter).map(|i| weights[i]).sum();
            assert_eq!(intersection_weight(&a, &b, &weights), oracle);
        }
    }

    #[test]
    fn masked_iteration_matches_materialized() {
        for seed in 1..20u64 {
            let a = words(seed, 3);
            let b = words(seed + 7, 3);
            let inter: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| x & y).collect();
            assert_eq!(
                ones_masked(&a, &b).collect::<Vec<_>>(),
                ones(&inter).collect::<Vec<_>>()
            );
            assert_eq!(first_set_masked(&a, &b), first_set(&inter));
        }
        assert_eq!(first_set_masked(&[0, 0], &[u64::MAX, u64::MAX]), None);
        assert_eq!(ones_masked(&[], &[]).next(), None);
    }
}
