//! Weighted-set-cover solvers.
//!
//! The paper's batch scheduler (§3.2, Theorem 2) maps each scheduling
//! interval to a weighted set cover: elements are the queued requests, sets
//! are disks (weighted by the marginal energy of using them, Eq. 5), and
//! the chosen cover is where the requests go. The greedy
//! most-cost-effective-set rule used here is the classical `H_n`-factor
//! approximation the paper cites (§6); [`SetCoverInstance::solve_exact`]
//! is the optimality oracle for tests and ablations.

use crate::bitset;

/// Relative tolerance under which two greedy cost-effectiveness ratios
/// count as tied (see [`SetCoverInstance::solve_greedy`]).
const RATIO_TIE_TOL: f64 = 1e-12;

/// Default element budget for [`SetCoverInstance::solve_exact`] when
/// callers have no tighter requirement. The iterative bitset solver raised
/// this from the historical 64 (where the recursive solver's per-branch
/// bookkeeping and `universe`-deep recursion became prohibitive) to 128.
pub const DEFAULT_ELEMENT_LIMIT: usize = 128;

/// One candidate set: a weight and the elements it covers.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedSet {
    /// Cost of selecting this set (for the batch scheduler: Eq. 5 / Eq. 6
    /// marginal cost of the disk).
    pub weight: f64,
    /// Elements covered, as indices into `0..universe`.
    pub elements: Vec<u32>,
}

/// A weighted-set-cover instance over the universe `0..universe`.
#[derive(Debug, Clone, Default)]
pub struct SetCoverInstance {
    universe: usize,
    sets: Vec<WeightedSet>,
    clamped: usize,
    /// Element buffers of sets dropped by [`reset`](Self::reset), handed
    /// back out by [`add_set`](Self::add_set) in their old order.
    spare: Vec<Vec<u32>>,
}

/// Reusable buffers for [`SetCoverInstance::solve_greedy_into`]. Once a
/// solve has seen an instance at least as large, a solve allocates
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct CoverScratch {
    covered: Vec<bool>,
    chosen: Vec<usize>,
}

impl CoverScratch {
    /// The sets selected by the last successful solve, ascending.
    pub fn sets(&self) -> &[usize] {
        &self.chosen
    }
}

/// A solution: which sets were selected and their combined weight.
#[derive(Debug, Clone, PartialEq)]
pub struct Cover {
    /// Indices of selected sets, ascending.
    pub sets: Vec<usize>,
    /// Sum of the selected sets' weights.
    pub weight: f64,
}

impl SetCoverInstance {
    /// Creates an instance over `universe` elements.
    pub fn new(universe: usize) -> Self {
        SetCoverInstance {
            universe,
            ..SetCoverInstance::default()
        }
    }

    /// Empties the instance and sets a new universe size, keeping the set
    /// storage: later [`add_set`](Self::add_set) calls refill the old
    /// sets' element buffers, so rebuilding an instance of the same shape
    /// allocates nothing. Otherwise a reset instance behaves exactly like
    /// [`SetCoverInstance::new`]`(universe)`.
    pub fn reset(&mut self, universe: usize) {
        self.universe = universe;
        self.clamped = 0;
        // Reversed, so `add_set` pops the first set's buffer first.
        self.spare
            .extend(self.sets.drain(..).rev().map(|s| s.elements));
    }

    /// Adds a candidate set; returns its index. Out-of-range elements and
    /// duplicates within a set are dropped. A negative or non-finite
    /// weight is a cost-function bug upstream — Eq. 5 marginal costs are
    /// finite and non-negative by construction — so debug builds assert on
    /// it; release builds clamp the weight to zero and count the event in
    /// [`clamped_weights`](Self::clamped_weights).
    pub fn add_set(&mut self, weight: f64, elements: impl IntoIterator<Item = u32>) -> usize {
        let mut elems = self.spare.pop().unwrap_or_default();
        elems.clear();
        let universe = self.universe;
        elems.extend(elements.into_iter().filter(|&e| (e as usize) < universe));
        elems.sort_unstable();
        elems.dedup();
        let valid = weight.is_finite() && weight >= 0.0;
        debug_assert!(
            valid,
            "add_set: invalid weight {weight} (Eq. 5 marginal costs are finite and non-negative)"
        );
        if !valid {
            self.clamped += 1;
        }
        self.sets.push(WeightedSet {
            weight: if valid { weight } else { 0.0 },
            elements: elems,
        });
        self.sets.len() - 1
    }

    /// How many [`add_set`](Self::add_set) calls supplied a negative or
    /// non-finite weight and had it clamped to zero. Always zero in a
    /// healthy pipeline; a non-zero count in release builds flags the
    /// upstream cost-function bug that `debug_assert!` would have caught
    /// in a debug build.
    pub fn clamped_weights(&self) -> usize {
        self.clamped
    }

    /// Universe size.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Candidate sets.
    pub fn sets(&self) -> &[WeightedSet] {
        &self.sets
    }

    /// `true` if `cover` covers every element of the universe.
    pub fn is_cover(&self, cover: &[usize]) -> bool {
        let mut covered = vec![false; self.universe];
        for &s in cover {
            let Some(set) = self.sets.get(s) else {
                return false;
            };
            for &e in &set.elements {
                covered[e as usize] = true;
            }
        }
        covered.into_iter().all(|c| c)
    }

    fn weight_of(&self, cover: &[usize]) -> f64 {
        cover.iter().map(|&s| self.sets[s].weight).sum()
    }

    /// Greedy weighted set cover: repeatedly select the set minimizing
    /// `weight / newly covered` until everything is covered. Returns `None`
    /// if the universe is not coverable. `H_n`-approximate.
    ///
    /// Zero-weight sets have cost-effectiveness 0 and are always taken
    /// first — exactly the paper's behaviour where already-spinning disks
    /// (Eq. 5 weight 0) absorb requests before any standby disk is woken.
    ///
    /// # Examples
    ///
    /// ```
    /// use spindown_graph::setcover::SetCoverInstance;
    ///
    /// let mut inst = SetCoverInstance::new(3);
    /// inst.add_set(1.0, [0, 1]);
    /// inst.add_set(1.0, [2]);
    /// inst.add_set(10.0, [0, 1, 2]);
    /// let cover = inst.solve_greedy().unwrap();
    /// assert_eq!(cover.sets, vec![0, 1]);
    /// assert_eq!(cover.weight, 2.0);
    /// ```
    pub fn solve_greedy(&self) -> Option<Cover> {
        let mut scratch = CoverScratch::default();
        if !self.solve_greedy_into(&mut scratch) {
            return None;
        }
        let sets = scratch.chosen;
        Some(Cover {
            weight: self.weight_of(&sets),
            sets,
        })
    }

    /// [`solve_greedy`](Self::solve_greedy) into caller-owned buffers:
    /// returns whether a cover exists and leaves its sets, ascending, in
    /// [`CoverScratch::sets`]. Same selection rule and tie tolerance.
    pub fn solve_greedy_into(&self, scratch: &mut CoverScratch) -> bool {
        let CoverScratch { covered, chosen } = scratch;
        covered.clear();
        covered.resize(self.universe, false);
        chosen.clear();
        let mut remaining = self.universe;

        while remaining > 0 {
            let mut best: Option<(f64, usize, usize)> = None; // (ratio, new, idx)
            for (i, s) in self.sets.iter().enumerate() {
                // A chosen set covers nothing new, so this also skips it.
                let new = s.elements.iter().filter(|&&e| !covered[e as usize]).count();
                if new == 0 {
                    continue;
                }
                let ratio = s.weight / new as f64;
                let better = match best {
                    None => true,
                    Some((br, bn, bi)) => {
                        // Relative tie tolerance: with Eq. 5 weights in the
                        // joules range the cost-effectiveness ratios sit at
                        // ~1e8, where one ulp is ~1e-8 — an absolute 1e-15
                        // band never recognizes a tie there, so the
                        // covers-more / lower-index preferences silently
                        // stopped applying at scale.
                        let tol = RATIO_TIE_TOL * ratio.abs().max(br.abs());
                        ratio < br - tol
                            || ((ratio - br).abs() <= tol && (new > bn || (new == bn && i < bi)))
                    }
                };
                if better {
                    best = Some((ratio, new, i));
                }
            }
            let Some((_, _, idx)) = best else {
                return false;
            };
            chosen.push(idx);
            for &e in &self.sets[idx].elements {
                if !covered[e as usize] {
                    covered[e as usize] = true;
                    remaining -= 1;
                }
            }
        }
        chosen.sort_unstable();
        true
    }

    /// Exact minimum-weight cover by iterative branch-and-bound on the
    /// lowest-index uncovered element, over word-packed `u64` bitsets with
    /// an explicit undo stack — no recursion, no per-branch clone.
    /// Exponential in the worst case — intended for tests and small
    /// batches; returns `None` if the universe is not coverable or exceeds
    /// `element_limit` ([`DEFAULT_ELEMENT_LIMIT`] is the stock budget).
    ///
    /// Layout: one `words = ⌈universe/64⌉`-word covered set, a flat
    /// `sets × words` table of element masks, and an undo arena with one
    /// `words`-word slot per search depth holding the elements the applied
    /// set newly covered; backtracking is `covered &= !slot`.
    ///
    /// Bounds: the incumbent is seeded with the greedy `H_n`-approximate
    /// cover, and each node prunes against `w + max_e min_cover_w(e)` over
    /// its uncovered elements — any completion must pay for a set covering
    /// the most expensive-to-cover element. Both strictly dominate the bare
    /// `w >= best_w` test of the recursive solver this replaced, which
    /// `tests/exact_differential.rs` keeps as a test-only reference.
    pub fn solve_exact(&self, element_limit: usize) -> Option<Cover> {
        if self.universe > element_limit {
            return None;
        }
        let words = bitset::words_for(self.universe);
        // Element mask per set; per element, the sets covering it and the
        // cheapest such set's weight.
        let mut masks = vec![0u64; self.sets.len() * words];
        let mut covering: Vec<Vec<u32>> = vec![Vec::new(); self.universe];
        let mut min_cover_w = vec![f64::INFINITY; self.universe];
        for (i, s) in self.sets.iter().enumerate() {
            let row = &mut masks[i * words..(i + 1) * words];
            for &e in &s.elements {
                bitset::set(row, e as usize);
                covering[e as usize].push(i as u32);
                if s.weight < min_cover_w[e as usize] {
                    min_cover_w[e as usize] = s.weight;
                }
            }
        }
        if covering.iter().any(|c| c.is_empty()) && self.universe > 0 {
            return None;
        }
        // Seed the incumbent with the greedy cover so the search prunes
        // against a real cover from the first node instead of +∞.
        let seed = self.solve_greedy()?;
        let mut best = seed.sets;
        let mut best_w = seed.weight;

        let mut full = vec![0u64; words];
        for e in 0..self.universe {
            bitset::set(&mut full, e);
        }
        // Evaluate the current node: record a new incumbent if everything
        // is covered, prune against the lower bound, or return the next
        // element to branch on.
        let eval = |covered: &[u64],
                    w: f64,
                    chosen: &[usize],
                    best: &mut Vec<usize>,
                    best_w: &mut f64|
         -> Option<u32> {
            let mut elem: Option<u32> = None;
            let mut lb = 0.0f64;
            for i in 0..words {
                let mut rem = full[i] & !covered[i];
                if rem != 0 && elem.is_none() {
                    elem = Some((i * 64 + rem.trailing_zeros() as usize) as u32);
                }
                while rem != 0 {
                    let e = i * 64 + rem.trailing_zeros() as usize;
                    rem &= rem - 1;
                    if min_cover_w[e] > lb {
                        lb = min_cover_w[e];
                    }
                }
            }
            let Some(e) = elem else {
                if w < *best_w {
                    *best_w = w;
                    *best = chosen.to_vec();
                }
                return None;
            };
            // Deflate the admissible bound by the relative slack so
            // summation-order rounding can never prune the optimum.
            if w + lb - (w + lb) * crate::mwis::BOUND_SLACK >= *best_w {
                return None;
            }
            Some(e)
        };

        let mut covered = vec![0u64; words];
        let mut chosen: Vec<usize> = Vec::with_capacity(self.universe);
        let mut stack: Vec<CoverFrame> = Vec::with_capacity(self.universe);
        let mut arena = vec![0u64; self.universe * words];
        let mut w = 0.0f64;

        if let Some(e) = eval(&covered, w, &chosen, &mut best, &mut best_w) {
            stack.push(CoverFrame {
                elem: e,
                cand_pos: 0,
                saved_w: w,
            });
        }
        while let Some(top) = stack.last() {
            let depth = stack.len() - 1;
            let (elem, cand_pos, saved_w) = (top.elem as usize, top.cand_pos, top.saved_w);
            let slot_at = depth * words;
            if cand_pos > 0 {
                // Undo the previously applied candidate: exactly the
                // elements it newly covered live in this depth's slot.
                for i in 0..words {
                    covered[i] &= !arena[slot_at + i];
                }
                chosen.pop();
                // w is rebuilt from saved_w when the next candidate is
                // applied, so the undo leaves it alone.
            }
            if cand_pos == covering[elem].len() {
                stack.pop();
                continue;
            }
            let s = covering[elem][cand_pos] as usize;
            stack.last_mut().expect("frame just inspected").cand_pos = cand_pos + 1;
            for i in 0..words {
                let newly = masks[s * words + i] & !covered[i];
                arena[slot_at + i] = newly;
                covered[i] |= newly;
            }
            chosen.push(s);
            w = saved_w + self.sets[s].weight;
            if let Some(e2) = eval(&covered, w, &chosen, &mut best, &mut best_w) {
                stack.push(CoverFrame {
                    elem: e2,
                    cand_pos: 0,
                    saved_w: w,
                });
            }
        }
        best.sort_unstable();
        Some(Cover {
            weight: self.weight_of(&best),
            sets: best,
        })
    }
}

/// A suspended branching decision on [`SetCoverInstance::solve_exact`]'s
/// explicit stack: which element is being covered, the next candidate set
/// index into its covering list, and the weight on entry. The elements the
/// currently applied candidate newly covered live in the undo arena slot
/// at this frame's depth.
struct CoverFrame {
    elem: u32,
    cand_pos: usize,
    saved_w: f64,
}

/// The `n`-th harmonic number `H_n = 1 + 1/2 + … + 1/n` — the greedy
/// algorithm's approximation factor (paper §6).
pub fn harmonic(n: usize) -> f64 {
    (1..=n).map(|k| 1.0 / k as f64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greedy_prefers_free_sets() {
        let mut inst = SetCoverInstance::new(2);
        inst.add_set(0.0, [0]);
        inst.add_set(5.0, [0, 1]);
        inst.add_set(0.0, [1]);
        let c = inst.solve_greedy().unwrap();
        assert_eq!(c.sets, vec![0, 2]);
        assert_eq!(c.weight, 0.0);
    }

    #[test]
    fn greedy_none_when_uncoverable() {
        let mut inst = SetCoverInstance::new(3);
        inst.add_set(1.0, [0, 1]);
        assert!(inst.solve_greedy().is_none());
        assert!(inst.solve_exact(64).is_none());
    }

    #[test]
    fn empty_universe_is_trivially_covered() {
        let inst = SetCoverInstance::new(0);
        let c = inst.solve_greedy().unwrap();
        assert!(c.sets.is_empty());
        assert_eq!(c.weight, 0.0);
        let e = inst.solve_exact(64).unwrap();
        assert!(e.sets.is_empty());
    }

    #[test]
    fn exact_finds_cheaper_cover_than_greedy_trap() {
        // Classic greedy trap: one big set slightly cheaper per element at
        // first, but two small sets are cheaper overall.
        let mut inst = SetCoverInstance::new(4);
        inst.add_set(3.1, [0, 1, 2, 3]); // ratio 0.775
        inst.add_set(1.0, [0, 1]); // ratio 0.5
        inst.add_set(1.0, [2, 3]); // ratio 0.5
        let g = inst.solve_greedy().unwrap();
        let e = inst.solve_exact(64).unwrap();
        assert_eq!(e.sets, vec![1, 2]);
        assert!((e.weight - 2.0).abs() < 1e-12);
        assert!(g.weight >= e.weight);
        assert!(inst.is_cover(&g.sets));
        assert!(inst.is_cover(&e.sets));
    }

    #[test]
    fn greedy_within_harmonic_factor() {
        // On any instance greedy must be within H_n of optimal.
        let mut inst = SetCoverInstance::new(6);
        inst.add_set(2.0, [0, 1, 2]);
        inst.add_set(2.0, [3, 4, 5]);
        inst.add_set(1.0, [0, 3]);
        inst.add_set(1.0, [1, 4]);
        inst.add_set(1.0, [2, 5]);
        let g = inst.solve_greedy().unwrap();
        let e = inst.solve_exact(64).unwrap();
        assert!(g.weight <= harmonic(6) * e.weight + 1e-9);
    }

    #[test]
    fn add_set_sanitizes_elements() {
        let mut inst = SetCoverInstance::new(3);
        let idx = inst.add_set(5.0, [0, 0, 1, 99]);
        assert_eq!(inst.sets()[idx].weight, 5.0);
        assert_eq!(inst.sets()[idx].elements, vec![0, 1]);
        assert_eq!(inst.clamped_weights(), 0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "invalid weight")]
    fn add_set_asserts_on_negative_weight_in_debug() {
        let mut inst = SetCoverInstance::new(3);
        inst.add_set(-5.0, [0]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "invalid weight")]
    fn add_set_asserts_on_nan_weight_in_debug() {
        let mut inst = SetCoverInstance::new(3);
        inst.add_set(f64::NAN, [0]);
    }

    // With debug assertions off (release builds — the CI differential job
    // runs the graph tests both ways), invalid weights are clamped to zero
    // and counted instead of panicking.
    #[cfg(not(debug_assertions))]
    #[test]
    fn add_set_clamps_and_counts_in_release() {
        let mut inst = SetCoverInstance::new(3);
        let idx = inst.add_set(-5.0, [0, 0, 1, 99]);
        assert_eq!(inst.sets()[idx].weight, 0.0);
        assert_eq!(inst.sets()[idx].elements, vec![0, 1]);
        let idx2 = inst.add_set(f64::NAN, [2]);
        assert_eq!(inst.sets()[idx2].weight, 0.0);
        let idx3 = inst.add_set(f64::INFINITY, [2]);
        assert_eq!(inst.sets()[idx3].weight, 0.0);
        inst.add_set(1.0, [1]);
        assert_eq!(inst.clamped_weights(), 3);
    }

    #[test]
    fn greedy_tie_break_is_relative_for_joule_scale_weights() {
        // Two sets whose cost-effectiveness ties at ~3.3e8 J/element: the
        // ratios differ by one ulp (~6e-8), far beyond the historical
        // absolute 1e-15 band, so the old comparison declared the
        // one-ulp-cheaper singleton strictly better and the covers-more
        // tie-break never fired — greedy paid for both sets. The relative
        // tolerance recognizes the tie and takes the bigger set alone.
        let r = 1.0e9_f64 / 3.0;
        let r_down = f64::from_bits(r.to_bits() - 1);
        let mut inst = SetCoverInstance::new(2);
        inst.add_set(r_down, [0]); // ratio one ulp below r
        inst.add_set(2.0 * r, [0, 1]); // ratio exactly r
        let c = inst.solve_greedy().unwrap();
        assert_eq!(c.sets, vec![1], "joule-scale tie: bigger set wins");
        assert_eq!(c.weight, 2.0 * r);
    }

    #[test]
    fn is_cover_rejects_bad_indices() {
        let mut inst = SetCoverInstance::new(1);
        inst.add_set(1.0, [0]);
        assert!(!inst.is_cover(&[7]));
        assert!(inst.is_cover(&[0]));
        assert!(!inst.is_cover(&[]));
    }

    #[test]
    fn greedy_tie_breaks_deterministically() {
        let mut inst = SetCoverInstance::new(2);
        inst.add_set(1.0, [0, 1]);
        inst.add_set(1.0, [0, 1]);
        let c = inst.solve_greedy().unwrap();
        assert_eq!(c.sets, vec![0], "equal sets: lower index wins");
    }

    #[test]
    fn greedy_prefers_bigger_set_on_equal_ratio() {
        let mut inst = SetCoverInstance::new(3);
        inst.add_set(1.0, [0]); // ratio 1.0
        inst.add_set(2.0, [0, 1]); // ratio 1.0, but covers more
        inst.add_set(0.5, [2]);
        let c = inst.solve_greedy().unwrap();
        assert!(c.sets.contains(&1));
    }

    #[test]
    fn reset_instance_matches_a_fresh_one() {
        let build = |inst: &mut SetCoverInstance| {
            inst.add_set(2.0, [0, 1, 2]);
            inst.add_set(1.0, [2, 3, 3, 9]);
            inst.add_set(1.5, [1, 3]);
        };
        let mut fresh = SetCoverInstance::new(4);
        build(&mut fresh);
        let mut reused = SetCoverInstance::new(7);
        reused.add_set(5.0, [0, 1, 2, 3, 4, 5, 6]);
        reused.add_set(0.5, [6]);
        reused.reset(4);
        build(&mut reused);
        assert_eq!(reused.universe(), 4);
        assert_eq!(reused.sets(), fresh.sets());
        assert_eq!(reused.solve_greedy(), fresh.solve_greedy());
    }

    #[test]
    fn greedy_into_matches_greedy_across_scratch_reuse() {
        let mut scratch = CoverScratch::default();
        let mut big = SetCoverInstance::new(6);
        big.add_set(2.0, [0, 1, 2]);
        big.add_set(2.0, [3, 4, 5]);
        big.add_set(1.0, [0, 3]);
        big.add_set(1.0, [1, 4]);
        big.add_set(1.0, [2, 5]);
        let mut small = SetCoverInstance::new(3);
        small.add_set(1.0, [0]);
        small.add_set(2.0, [0, 1]);
        small.add_set(0.5, [2]);
        let mut uncoverable = SetCoverInstance::new(3);
        uncoverable.add_set(1.0, [0, 1]);
        for inst in [&big, &small, &uncoverable, &big] {
            let found = inst.solve_greedy_into(&mut scratch);
            match inst.solve_greedy() {
                Some(cover) => {
                    assert!(found);
                    assert_eq!(scratch.sets(), cover.sets.as_slice());
                }
                None => assert!(!found),
            }
        }
    }

    #[test]
    fn harmonic_values() {
        assert_eq!(harmonic(0), 0.0);
        assert_eq!(harmonic(1), 1.0);
        assert!((harmonic(2) - 1.5).abs() < 1e-12);
        assert!((harmonic(4) - (1.0 + 0.5 + 1.0 / 3.0 + 0.25)).abs() < 1e-12);
    }

    #[test]
    fn exact_respects_element_limit() {
        let mut inst = SetCoverInstance::new(100);
        for e in 0..100 {
            inst.add_set(1.0, [e]);
        }
        assert!(inst.solve_exact(10).is_none());
    }

    #[test]
    fn paper_fig2_batch_instance() {
        // Fig. 2: requests r1..r6 for data b1..b6; d1={b1,b2,b3,b5},
        // d2={b2,b3}, d3={b4,b6}, d4={b3,b4,b5,b6}. All disks standby, so
        // all weights are equal (E_up/down + TB*PI = 5 in the toy model).
        // Minimum cover: {d1, d3} (weight 10) — the paper's schedule B.
        let mut inst = SetCoverInstance::new(6);
        inst.add_set(5.0, [0, 1, 2, 4]); // d1 covers r1,r2,r3,r5
        inst.add_set(5.0, [1, 2]); // d2 covers r2,r3
        inst.add_set(5.0, [3, 5]); // d3 covers r4,r6
        inst.add_set(5.0, [2, 3, 4, 5]); // d4 covers r3,r4,r5,r6
        let e = inst.solve_exact(64).unwrap();
        assert_eq!(e.weight, 10.0, "schedule B uses two disks, energy 10");
        assert_eq!(e.sets, vec![0, 2]);
        let g = inst.solve_greedy().unwrap();
        assert_eq!(g.weight, 10.0, "greedy also finds a two-disk cover");
    }
}
