//! Hash-function groups: the `l × k` amplification of §4.
//!
//! A *group* `g = {h₁ … h_k}` of functions drawn uniformly from the family
//! hashes a range set to the XOR of its `k` min-hashes (the paper's
//! pseudocode accumulates with `identifier[l] ^= h[i](Q)`). Two sets agree
//! on a group only if (up to a 2⁻³² accident) they agree on all `k`
//! functions — probability `pᵏ` — and agree on *at least one* of `l` groups
//! with probability `1 − (1 − pᵏ)ˡ`. With the paper's `k = 20`, `l = 5`
//! that curve approximates a step at similarity ≈ 0.9.

use crate::family::{LshFamilyKind, LshFunction};
use crate::fused::CompiledGroup;
use crate::range::RangeSet;
use ars_common::DetRng;

/// `l` groups of `k` hash functions over one family.
#[derive(Debug, Clone)]
pub struct HashGroups {
    groups: Vec<Vec<LshFunction>>,
    /// Fused structure-of-arrays evaluators, used by
    /// [`HashGroups::identifiers`]; value-identical to `groups`.
    fused: Vec<CompiledGroup>,
}

impl HashGroups {
    /// Draw `l` groups × `k` functions uniformly at random from `kind`.
    ///
    /// The paper's experiments use `k = 20`, `l = 5`.
    ///
    /// # Panics
    /// Panics if `k == 0` or `l == 0`.
    pub fn generate(kind: LshFamilyKind, k: usize, l: usize, rng: &mut DetRng) -> HashGroups {
        assert!(k > 0 && l > 0, "k and l must be positive");
        let (groups, fused) = (0..l).map(|_| CompiledGroup::draw(kind, k, rng)).unzip();
        HashGroups { groups, fused }
    }

    /// Functions per group (`k`).
    pub fn k(&self) -> usize {
        self.groups[0].len()
    }

    /// Number of groups (`l`).
    pub(crate) fn l(&self) -> usize {
        self.groups.len()
    }

    /// Compute the `l` group identifiers for a range set: each is the XOR
    /// of the group's `k` min-hashes. This is the paper's querying-peer
    /// procedure (§4). Evaluated through the fused group kernels (values
    /// identical to [`HashGroups::identifiers_reference`]).
    pub fn identifiers(&self, q: &RangeSet) -> Vec<u32> {
        let mut out = vec![0u32; self.l()];
        self.identifiers_into(q, &mut out);
        out
    }

    /// Like [`HashGroups::identifiers`] but writing into a caller-provided
    /// buffer of length `l` — the steady-state query path allocates
    /// nothing on the heap (for groups up to
    /// `FUSED_MAX_K` functions).
    ///
    /// # Panics
    /// Panics if `out.len() != l` or `q` is empty.
    pub fn identifiers_into(&self, q: &RangeSet, out: &mut [u32]) {
        assert_eq!(out.len(), self.l(), "output buffer must have length l");
        for (o, g) in out.iter_mut().zip(&self.fused) {
            *o = g.identifier(q);
        }
    }

    /// The `l × k` min-hashes of `q`, group `g`'s `k` at `mins[g * k..][..k]`:
    /// each group's identifier is the XOR of its `k`, and the multi-probe
    /// ladder ([`Self::probe_candidates_from`]) starts from them.
    ///
    /// # Panics
    /// Panics if `mins.len() != l * k` or `q` is empty.
    pub fn mins_into(&self, q: &RangeSet, mins: &mut [u32]) {
        let k = self.k();
        assert_eq!(
            mins.len(),
            self.l() * k,
            "output buffer must have length l × k"
        );
        for (m, g) in mins.chunks_mut(k).zip(&self.fused) {
            g.mins_into(q, m);
        }
    }

    /// Reference identifier computation by full enumeration — the
    /// evaluation the paper's Fig. 5 times, and the oracle the fused path
    /// is tested against.
    pub fn identifiers_reference(&self, q: &RangeSet) -> Vec<u32> {
        self.groups
            .iter()
            .map(|g| g.iter().fold(0u32, |acc, h| acc ^ h.min_hash_enumerate(q)))
            .collect()
    }

    /// Access the raw functions.
    pub fn groups(&self) -> &[Vec<LshFunction>] {
        &self.groups
    }

    /// Access the fused group evaluators.
    pub fn fused_groups(&self) -> &[CompiledGroup] {
        &self.fused
    }
}

/// `Pr[Q and R share at least one group identifier]` given per-function
/// collision probability `p` (the Jaccard similarity): `1 − (1 − pᵏ)ˡ`.
pub fn match_probability(p: f64, k: usize, l: usize) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    1.0 - (1.0 - p.powi(k as i32)).powi(l as i32)
}

/// The similarity at which the amplified curve crosses 0.5 — a "step
/// location" diagnostic. Solved analytically: `p* = (1 − 2^(−1/l))^(1/k)`.
pub fn step_location(k: usize, l: usize) -> f64 {
    (1.0 - 0.5f64.powf(1.0 / l as f64)).powf(1.0 / k as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes() {
        let mut rng = DetRng::new(1);
        let g = HashGroups::generate(LshFamilyKind::ApproxMinWise, 20, 5, &mut rng);
        assert_eq!(g.k(), 20);
        assert_eq!(g.l(), 5);
        let ids = g.identifiers(&RangeSet::interval(0, 10));
        assert_eq!(ids.len(), 5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_k_rejected() {
        let mut rng = DetRng::new(1);
        HashGroups::generate(LshFamilyKind::Linear, 0, 5, &mut rng);
    }

    #[test]
    fn compiled_identifiers_equal_reference() {
        let mut rng = DetRng::new(77);
        for kind in LshFamilyKind::PAPER_FAMILIES {
            let g = HashGroups::generate(kind, 6, 3, &mut rng);
            for (lo, hi) in [(0u32, 10u32), (30, 50), (100, 400), (999, 1000)] {
                let q = RangeSet::interval(lo, hi);
                assert_eq!(
                    g.identifiers(&q),
                    g.identifiers_reference(&q),
                    "kind {kind} range [{lo},{hi}]"
                );
            }
        }
    }

    #[test]
    fn identifiers_deterministic() {
        let mut rng = DetRng::new(2);
        let g = HashGroups::generate(LshFamilyKind::Linear, 4, 3, &mut rng);
        let q = RangeSet::interval(30, 50);
        assert_eq!(g.identifiers(&q), g.identifiers(&q));
    }

    #[test]
    fn identical_ranges_share_all_identifiers() {
        let mut rng = DetRng::new(3);
        let g = HashGroups::generate(LshFamilyKind::MinWise, 5, 4, &mut rng);
        let q = RangeSet::interval(100, 200);
        let r = RangeSet::interval(100, 200);
        assert_eq!(g.identifiers(&q), g.identifiers(&r));
    }

    #[test]
    fn fused_identifiers_match_per_function_loop() {
        let mut rng = DetRng::new(8);
        for kind in LshFamilyKind::PAPER_FAMILIES {
            let g = HashGroups::generate(kind, 6, 3, &mut rng);
            for q in [
                RangeSet::interval(30, 50),
                RangeSet::interval(200, 300),
                RangeSet::interval(0, 100_000), // wide: kernel fallback
                RangeSet::from_intervals([(0, 90), (250, 270), (5_000, 9_000)]),
            ] {
                let per_function: Vec<u32> = g
                    .groups()
                    .iter()
                    .map(|fns| fns.iter().fold(0, |acc, f| acc ^ f.min_hash(&q)))
                    .collect();
                assert_eq!(g.identifiers(&q), per_function, "kind {kind} query {q}");
            }
        }
    }

    #[test]
    fn identifiers_into_writes_caller_buffer() {
        let mut rng = DetRng::new(10);
        let g = HashGroups::generate(LshFamilyKind::MinWise, 4, 5, &mut rng);
        let q = RangeSet::interval(30, 50);
        let mut buf = [0u32; 5];
        g.identifiers_into(&q, &mut buf);
        assert_eq!(buf.to_vec(), g.identifiers(&q));
    }

    #[test]
    #[should_panic(expected = "length l")]
    fn identifiers_into_rejects_wrong_length() {
        let mut rng = DetRng::new(10);
        let g = HashGroups::generate(LshFamilyKind::Linear, 4, 5, &mut rng);
        let mut buf = [0u32; 4];
        g.identifiers_into(&RangeSet::interval(0, 10), &mut buf);
    }

    #[test]
    fn dissimilar_ranges_rarely_collide() {
        let mut rng = DetRng::new(5);
        let g = HashGroups::generate(LshFamilyKind::ApproxMinWise, 20, 5, &mut rng);
        let q = RangeSet::interval(0, 100);
        let r = RangeSet::interval(500, 600); // similarity 0
        let ids_q = g.identifiers(&q);
        let ids_r = g.identifiers(&r);
        let shared = ids_q.iter().zip(&ids_r).filter(|(a, b)| a == b).count();
        assert_eq!(shared, 0);
    }

    #[test]
    fn very_similar_ranges_usually_collide() {
        // J = 100/101 ≈ 0.99; p^20 ≈ 0.82; 1-(1-p^20)^5 ≈ 0.9998.
        let mut rng = DetRng::new(6);
        let mut hits = 0;
        let trials = 40;
        for _ in 0..trials {
            let g = HashGroups::generate(LshFamilyKind::MinWise, 20, 5, &mut rng);
            let q = RangeSet::interval(0, 100);
            let r = RangeSet::interval(0, 99);
            let ids_q = g.identifiers(&q);
            let ids_r = g.identifiers(&r);
            if ids_q.iter().zip(&ids_r).any(|(a, b)| a == b) {
                hits += 1;
            }
        }
        assert!(hits >= trials * 8 / 10, "only {hits}/{trials} collided");
    }

    #[test]
    fn match_probability_curve() {
        // k=20, l=5 approximates a step at ~0.9 (the paper's §5.1 choice).
        assert!(match_probability(0.5, 20, 5) < 0.001);
        assert!(match_probability(0.8, 20, 5) < 0.06);
        assert!(match_probability(0.95, 20, 5) > 0.85);
        assert!(match_probability(1.0, 20, 5) == 1.0);
        assert!(match_probability(0.0, 20, 5) == 0.0);
    }

    #[test]
    fn step_location_near_point_nine() {
        let s = step_location(20, 5);
        assert!(
            (0.85..0.93).contains(&s),
            "step at {s:.3}, expected ≈ 0.9 for k=20, l=5"
        );
        // Sanity: the match probability at the step is 0.5 by construction.
        assert!((match_probability(s, 20, 5) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn match_probability_monotone_in_p() {
        let mut last = 0.0;
        for i in 0..=100 {
            let p = i as f64 / 100.0;
            let mp = match_probability(p, 20, 5);
            assert!(mp >= last);
            last = mp;
        }
    }
}
