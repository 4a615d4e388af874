//! Multi-probe candidate generation: extra group identifiers from the
//! least-stable min-hash coordinates.
//!
//! A query whose range differs slightly from a stored partition's range
//! usually disagrees on only a few of a group's `k` min-hashes — the
//! coordinates whose minimum sits close to a range boundary. Re-hashing
//! the query on a ladder of *perturbed* boundaries (each interval shrunk
//! or expanded by a small fraction) reveals exactly those coordinates:
//! whenever a perturbed evaluation flips coordinate `f` of group `g` from
//! `m` to `m'`, the identifier `base_g ^ m ^ m'` is the identifier the
//! query *would* have had if that one min had landed the other way — a
//! high-probability candidate bucket for near-identical stored ranges.
//!
//! Candidates are ranked by the perturbation rung that first produced
//! them (smaller perturbation → less-stable coordinate → higher collision
//! probability, the multi-probe LSH ranking principle), with whole-group
//! perturbed identifiers (several coordinates flipped at once) ranked
//! after single-coordinate flips at the same rung. Generation is
//! deterministic and budget-independent: `probe_candidates(q, b)` is
//! always the first `b` entries of the full ranked sequence, so candidate
//! sets at increasing budgets are nested (asserted by proptests).
//!
//! The fused SoA kernels ([`crate::fused::CompiledGroup`]) make each
//! perturbed re-hash a single decomposition walk into one reused buffer,
//! and a rung is climbed only while the budget is unmet (later rungs rank
//! strictly after earlier ones, so they could not enter the result), so a
//! ladder costs a small constant factor over the base evaluation — cheap
//! against the Chord lookups it saves.

use crate::group::HashGroups;
use crate::range::RangeSet;

/// The perturbation ladder: each interval edge is moved by this fraction
/// of the interval width, both inward ([`RangeSet::shrink`]) and outward
/// ([`RangeSet::pad`]). Rungs are ordered by increasing perturbation, so
/// rung index doubles as the instability rank of the coordinates it
/// flips.
pub const PROBE_DELTAS: [f64; 4] = [0.015625, 0.0625, 0.25, 0.5];

/// One extra candidate bucket identifier, ranked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeCandidate {
    /// The group whose identifier was perturbed.
    pub group: usize,
    /// The candidate bucket identifier.
    pub identifier: u32,
    /// Rank key: lower = higher estimated collision probability. Encodes
    /// `(ladder rung, coordinates flipped)` lexicographically.
    pub rank: u32,
}

impl HashGroups {
    /// The ranked multi-probe candidates of `q`, at most `budget` of
    /// them, excluding the base identifiers themselves.
    ///
    /// The returned sequence is a prefix of the full deterministic
    /// ranking: for budgets `a ≤ b`, `probe_candidates(q, a)` is exactly
    /// the first `a` entries of `probe_candidates(q, b)` (the superset
    /// property multi-probe recall monotonicity rests on).
    ///
    /// # Panics
    /// Panics if `q` is empty.
    pub fn probe_candidates(&self, q: &RangeSet, budget: usize) -> Vec<ProbeCandidate> {
        assert!(!q.is_empty(), "cannot probe an empty range");
        if budget == 0 {
            return Vec::new();
        }
        let fused = self.fused_groups();
        let k = self.k();
        // One buffer for the whole call: group g's base min-hashes at
        // `base_mins[g * k..][..k]`, then `k` slots every perturbed
        // evaluation reuses.
        let mut buf = vec![0u32; (fused.len() + 1) * k];
        let (base_mins, mins) = buf.split_at_mut(fused.len() * k);
        for (g, m) in fused.iter().zip(base_mins.chunks_mut(k)) {
            g.mins_into(q, m);
        }
        let base_ids: Vec<u32> = base_mins
            .chunks(k)
            .map(|m| m.iter().fold(0u32, |acc, &x| acc ^ x))
            .collect();

        // Ranked candidate accumulation: first rung that produces an
        // identifier wins; insertion order breaks rank ties, so the
        // sequence is budget-independent.
        let mut out: Vec<ProbeCandidate> = Vec::new();
        let push = |out: &mut Vec<ProbeCandidate>, group: usize, identifier: u32, rank: u32| {
            if base_ids.contains(&identifier) {
                return;
            }
            if out
                .iter()
                .any(|c| c.identifier == identifier && c.group == group)
            {
                return;
            }
            out.push(ProbeCandidate {
                group,
                identifier,
                rank,
            });
        };

        for (rung, &delta) in PROBE_DELTAS.iter().enumerate() {
            // Every rank of a later rung is above every rank so far, so
            // once the budget is met no later rung can enter the result.
            if out.len() >= budget {
                break;
            }
            let perturbed = [q.shrink(delta), q.pad(delta)];
            for p in perturbed.iter().filter(|p| !p.is_empty()) {
                for (g, group) in fused.iter().enumerate() {
                    group.mins_into(p, mins);
                    let mut flipped = 0usize;
                    let mut perturbed_id = base_ids[g];
                    for (&m, &m0) in mins.iter().zip(&base_mins[g * k..][..k]) {
                        if m != m0 {
                            flipped += 1;
                            perturbed_id ^= m0 ^ m;
                            // Single-coordinate flip: the strongest
                            // candidate this rung offers.
                            push(&mut out, g, base_ids[g] ^ m0 ^ m, (rung as u32) << 8);
                        }
                    }
                    if flipped > 1 {
                        // The fully perturbed identifier: all flipped
                        // coordinates at once, ranked below the singles
                        // of the same rung.
                        push(
                            &mut out,
                            g,
                            perturbed_id,
                            ((rung as u32) << 8) | (flipped.min(255) as u32),
                        );
                    }
                }
            }
        }
        // Stable sort: rank, then insertion order (preserved by
        // `sort_by_key`'s stability) — deterministic and prefix-closed.
        out.sort_by_key(|c| c.rank);
        out.truncate(budget);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::LshFamilyKind;
    use ars_common::DetRng;

    fn groups(seed: u64) -> HashGroups {
        let mut rng = DetRng::new(seed);
        HashGroups::generate(LshFamilyKind::ApproxMinWise, 20, 5, &mut rng)
    }

    #[test]
    fn candidates_exclude_base_identifiers() {
        let g = groups(1);
        let q = RangeSet::interval(1_000, 2_000);
        let base = g.identifiers(&q);
        for c in g.probe_candidates(&q, 64) {
            assert!(!base.contains(&c.identifier));
            assert!(c.group < g.l());
        }
    }

    #[test]
    fn candidates_are_prefix_closed_across_budgets() {
        let g = groups(2);
        for q in [
            RangeSet::interval(30, 50),
            RangeSet::interval(0, 100_000),
            RangeSet::from_intervals([(10, 90), (5_000, 9_000)]),
        ] {
            let full = g.probe_candidates(&q, 1_000);
            for budget in [0usize, 1, 3, 8, 17, 64] {
                let some = g.probe_candidates(&q, budget);
                assert_eq!(
                    some,
                    full[..budget.min(full.len())].to_vec(),
                    "budget {budget} is not a prefix of the full ranking"
                );
            }
        }
    }

    #[test]
    fn ranks_are_non_decreasing() {
        let g = groups(3);
        let q = RangeSet::interval(500, 900);
        let cands = g.probe_candidates(&q, 128);
        assert!(cands.windows(2).all(|w| w[0].rank <= w[1].rank));
    }

    #[test]
    fn probes_recover_jittered_neighbor_identifiers() {
        // The whole point: a stored range's identifier that a slightly
        // jittered query *misses* on the base evaluation is frequently
        // among the query's probe candidates.
        let mut direct = 0usize;
        let mut with_probes = 0usize;
        let trials = 40;
        for seed in 0..trials {
            let g = groups(100 + seed);
            let stored = RangeSet::interval(10_000, 20_000);
            let query = RangeSet::interval(10_050, 19_930); // J ≈ 0.987
            let stored_ids = g.identifiers(&stored);
            let query_ids = g.identifiers(&query);
            let hit_direct = query_ids.iter().any(|id| stored_ids.contains(id));
            let probed = g.probe_candidates(&query, 32);
            let hit_probed =
                hit_direct || probed.iter().any(|c| stored_ids.contains(&c.identifier));
            direct += hit_direct as usize;
            with_probes += hit_probed as usize;
        }
        assert!(
            with_probes >= direct,
            "probing lost matches: {with_probes} < {direct}"
        );
        assert!(
            with_probes > direct,
            "probing never recovered a missed neighbor in {trials} trials \
             (direct {direct}, probed {with_probes})"
        );
    }

    #[test]
    fn zero_budget_is_empty() {
        let g = groups(4);
        assert!(g.probe_candidates(&RangeSet::interval(0, 10), 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_rejected() {
        groups(5).probe_candidates(&RangeSet::empty(), 4);
    }

    #[test]
    fn shrink_is_inverse_leaning_of_pad() {
        let q = RangeSet::interval(1_000, 2_000);
        let s = q.shrink(0.25);
        assert!(s.is_subset_of(&q));
        assert!(!s.is_empty());
        let tiny = RangeSet::interval(5, 6);
        assert!(tiny.shrink(0.5).len() <= tiny.len());
        assert!(RangeSet::interval(5, 5).shrink(0.9).is_empty());
        assert_eq!(q.shrink(0.0), q);
    }
}
