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
//! **The ladder does only the work that can reach the first `b` entries.**
//! A rank is `(rung, 0)` for a single flip and `(rung, flips ≥ 2)` for a
//! whole-group identifier, ties in insertion order, and whether a candidate
//! is accepted depends only on what was offered before it. So whatever
//! earlier rungs accepted precedes whatever the current rung can accept,
//! its singles follow in the order they are accepted, and its whole-group
//! identifiers come after all of them. Once (accepted by earlier rungs) +
//! (singles accepted in this rung) reaches `b`, those *are* the first `b`
//! entries of the full ranking — all that is evaluated later sorts behind
//! them — and the ladder stops there, mid-rung. A perturbed range equal to
//! `q` (δ·width rounded to 0) is not hashed: no coordinate can flip.
//!
//! Measured on the §5.1 trace (k = 20, l = 5; EXPERIMENTS.md "PR 24"): at
//! budget 16 a call evaluates 5.0 groups after the base five and costs
//! 1.8 µs (10.8 and 5.1 µs while every rung entered was evaluated whole),
//! against 0.49 µs for the base identifiers alone; the whole ladder — 34
//! evaluations, 450 flips offered, 223 candidates kept — costs 10.3 µs
//! (31.5 µs while each offer was compared with every candidate so far).

use crate::group::HashGroups;
use crate::range::RangeSet;
use ars_common::FxHashSet;

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
        let (k, l) = (self.k(), fused.len());
        // One buffer for the whole call: group g's base min-hashes at
        // `base_mins[g * k..][..k]`, `k` slots every perturbed evaluation
        // reuses, `k` for the coordinates it flipped, the `l` base identifiers.
        let mut buf = vec![0u32; (l + 2) * k + l];
        let (base_mins, rest) = buf.split_at_mut(l * k);
        let (mins, rest) = rest.split_at_mut(k);
        let (flips, base_ids) = rest.split_at_mut(k);
        for ((g, m), id) in (fused.iter().zip(base_mins.chunks_mut(k))).zip(base_ids.iter_mut()) {
            g.mins_into(q, m);
            *id = m.iter().fold(0u32, |acc, &x| acc ^ x);
        }

        // `out` is the ranking's head, in order (module docs): singles as
        // they are accepted, a rung's whole-group identifiers (`wholes`, at
        // most `2 * l`) once it is complete. Reaching `budget` ends the ladder.
        let most = (budget.saturating_add(2 * l)).min(2 * PROBE_DELTAS.len() * l * (k + 1));
        let mut out: Vec<ProbeCandidate> = Vec::with_capacity(most);
        let mut wholes: Vec<ProbeCandidate> = Vec::with_capacity(2 * l);
        // The first rung to produce an identifier for a group keeps it; the
        // base identifiers count as produced already, for every group.
        let mut seen = FxHashSet::with_capacity_and_hasher(most + l * l, Default::default());
        seen.extend((0..l).flat_map(|g| base_ids.iter().map(move |&id| (g, id))));
        let mut fresh = |group: usize, identifier: u32, rank: u32| {
            seen.insert((group, identifier)).then_some(ProbeCandidate {
                group,
                identifier,
                rank,
            })
        };
        'ladder: for (rung, &delta) in PROBE_DELTAS.iter().enumerate() {
            let rank = (rung as u32) << 8;
            for p in [q.shrink(delta), q.pad(delta)] {
                // δ·width rounded to 0: the same range, no coordinate flips.
                if p.is_empty() || p == *q {
                    continue;
                }
                for (g, group) in fused.iter().enumerate() {
                    group.mins_into(&p, mins);
                    let base = &base_mins[g * k..][..k];
                    // Which coordinates flipped, gathered without a branch:
                    // on the narrow rungs that test is a coin toss.
                    let mut flipped = 0usize;
                    let mut perturbed_id = base_ids[g];
                    for (f, (&m, &m0)) in mins.iter().zip(base).enumerate() {
                        flips[flipped] = f as u32;
                        flipped += (m != m0) as usize;
                        perturbed_id ^= m0 ^ m;
                    }
                    for &f in &flips[..flipped] {
                        // Single-coordinate flip: the strongest candidate
                        // this rung offers.
                        let single = base_ids[g] ^ base[f as usize] ^ mins[f as usize];
                        out.extend(fresh(g, single, rank));
                        if out.len() >= budget {
                            break 'ladder;
                        }
                    }
                    if flipped > 1 {
                        // The fully perturbed identifier: all flipped
                        // coordinates at once.
                        wholes.extend(fresh(g, perturbed_id, rank | flipped.min(255) as u32));
                    }
                }
            }
            // Fewest coordinates flipped first, then insertion order (the
            // sort is stable) — deterministic and prefix-closed.
            wholes.sort_by_key(|c| c.rank);
            out.append(&mut wholes);
            if out.len() >= budget {
                break;
            }
        }
        out.truncate(budget);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::LshFamilyKind;
    use ars_common::DetRng;
    use proptest::prelude::*;

    fn groups(seed: u64) -> HashGroups {
        let mut rng = DetRng::new(seed);
        HashGroups::generate(LshFamilyKind::ApproxMinWise, 20, 5, &mut rng)
    }

    /// The oracle: the ladder as it stood before it learned to stop inside
    /// a rung — every rung it enters evaluated whole, both perturbed ranges
    /// hashed whatever they are, every push de-duplicated by two linear
    /// scans, then ranked and cut to `budget`.
    fn exhaustive_ladder(groups: &HashGroups, q: &RangeSet, budget: usize) -> Vec<ProbeCandidate> {
        if budget == 0 {
            return Vec::new();
        }
        let fused = groups.fused_groups();
        let k = groups.k();
        let base_mins: Vec<Vec<u32>> = fused.iter().map(|g| g.mins(q)).collect();
        let base_ids: Vec<u32> = base_mins
            .iter()
            .map(|m| m.iter().fold(0u32, |acc, &x| acc ^ x))
            .collect();
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
        let mut mins = vec![0u32; k];
        for (rung, &delta) in PROBE_DELTAS.iter().enumerate() {
            if out.len() >= budget {
                break;
            }
            let perturbed = [q.shrink(delta), q.pad(delta)];
            for p in perturbed.iter().filter(|p| !p.is_empty()) {
                for (g, group) in fused.iter().enumerate() {
                    group.mins_into(p, &mut mins);
                    let mut flipped = 0usize;
                    let mut perturbed_id = base_ids[g];
                    for (&m, &m0) in mins.iter().zip(&base_mins[g]) {
                        if m != m0 {
                            flipped += 1;
                            perturbed_id ^= m0 ^ m;
                            push(&mut out, g, base_ids[g] ^ m0 ^ m, (rung as u32) << 8);
                        }
                    }
                    if flipped > 1 {
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
        out.sort_by_key(|c| c.rank);
        out.truncate(budget);
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The stopped ladder returns the exhaustive one's sequence,
        /// element for element: every family, `k` from 1 to past
        /// `FUSED_MAX_K`, one group and five, one interval and several,
        /// widths of 1–3 values (δ·width rounds to nothing on most rungs),
        /// sets that touch 0 or `u32::MAX`, budgets on both sides of 16 and
        /// beyond anything the ladder can produce.
        #[test]
        fn stopped_ladder_equals_the_exhaustive_one(
            kind in prop::sample::select(vec![
                LshFamilyKind::MinWise,
                LshFamilyKind::ApproxMinWise,
                LshFamilyKind::Linear,
                LshFamilyKind::LinearDomain,
            ]),
            k in prop::sample::select(vec![1usize, 8, 20, 70]),
            l in prop::sample::select(vec![1usize, 5]),
            seed in any::<u64>(),
            spans in prop::collection::vec(
                (prop::sample::select(vec![1u64, 2, 3, 3, 37, 1_000, 30_000]), 2u64..5_000),
                1..4,
            ),
            edge in 0u32..3,
            start in any::<u32>(),
        ) {
            let extent: u64 = spans.iter().map(|&(width, gap)| width + gap).sum();
            let room = u32::MAX as u64 + 1 - extent;
            let mut cursor = match edge {
                0 => 0,
                1 => room + spans.last().unwrap().1, // the last interval ends at u32::MAX
                _ => start as u64 % room,
            };
            let q = RangeSet::from_intervals(spans.iter().map(|&(width, gap)| {
                let interval = (cursor as u32, (cursor + width - 1) as u32);
                cursor += width + gap;
                interval
            }));
            let groups = HashGroups::generate(kind, k, l, &mut DetRng::new(seed));
            for budget in [0usize, 1, 15, 16, 17, 64, 10_000] {
                prop_assert_eq!(
                    groups.probe_candidates(&q, budget),
                    exhaustive_ladder(&groups, &q, budget),
                    "{} k {} l {} budget {} on {}", kind, k, l, budget, q
                );
            }
        }
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
