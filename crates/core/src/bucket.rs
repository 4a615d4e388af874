//! Hash buckets: the per-identifier partition lists peers keep.
//!
//! "Each contacted peer checks the list of partitions that it has
//! associated with the identifier and finds the best match for the query
//! partition in the list" (§4). A [`Bucket`] is that list; best-match
//! search supports both measures of §5.2.

use crate::config::MatchMeasure;
use ars_lsh::RangeSet;

/// The stored partitions of one identifier, in insertion order: one
/// `(lo, hi)` pair a partition, scanned as a flat array. A set that is not
/// one interval (empty or several: wire and test inputs, never the
/// paper's workloads) holds its slot with `SPILLED` and is kept in
/// `spilled` under the slot's number, so store order and the
/// earliest-wins tie rule see it where it was stored.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bucket {
    pairs: Vec<(u32, u32)>,
    /// By ascending slot; boxed and `None` while empty, so the common
    /// bucket pays one word for it.
    #[allow(clippy::box_collection)]
    spilled: Option<Box<Vec<(usize, RangeSet)>>>,
}

/// A spilled slot's pair: `lo > hi`, so no interval equals it.
const SPILLED: (u32, u32) = (1, 0);

const _: () = assert!(std::mem::size_of::<Bucket>() <= 32);

/// A scan's running best across buckets: a bucket, a slot in it, and the
/// slot's score.
pub(crate) type Running<'a> = Option<(&'a Bucket, usize, f64)>;

/// A candidate match found in a bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct Match {
    /// The stored partition's range.
    pub range: RangeSet,
    /// Score under the configured measure (1.0 = perfect).
    pub score: f64,
}

/// A query's running winner across the buckets it reaches. Every query
/// body folds its candidates through this one accumulator, in identifier
/// order, so they all break ties the same way.
#[derive(Debug, Default)]
pub(crate) struct Best(Option<Match>);

impl Best {
    /// Offer one bucket's answer. Strictly better scores replace the
    /// winner, so the earliest offer wins ties.
    pub(crate) fn offer(&mut self, candidate: Option<Match>) {
        if let Some(m) = candidate {
            if self.0.as_ref().is_none_or(|b| m.score > b.score) {
                self.0 = Some(m);
            }
        }
    }

    /// True if the winner is exactly the (padded) range that was hashed.
    pub(crate) fn is_exactly(&self, hashed_range: &RangeSet) -> bool {
        self.0.as_ref().is_some_and(|m| m.range == *hashed_range)
    }

    /// Grade the winner against the *original* (unpadded) query:
    /// `(similarity, recall, best_match)` — Jaccard for Figs. 6–7,
    /// containment for Figs. 8–10. Consumes the winner, so its range moves
    /// into the outcome.
    pub(crate) fn grade(self, q: &RangeSet) -> (f64, f64, Option<RangeSet>) {
        match self.0 {
            Some(m) => (
                q.jaccard(&m.range),
                q.containment_in(&m.range),
                Some(m.range),
            ),
            None => (0.0, 0.0, None),
        }
    }
}

impl Bucket {
    /// An empty bucket.
    pub fn new() -> Bucket {
        Bucket::default()
    }

    /// Insert a partition range. Duplicate ranges are kept once.
    /// Returns true if the range was newly inserted.
    pub fn insert(&mut self, range: RangeSet) -> bool {
        if self.contains(&range) {
            return false;
        }
        let pair = match *range.intervals() {
            [pair] => pair,
            _ => {
                (self.spilled.get_or_insert_default()).push((self.pairs.len(), range));
                SPILLED
            }
        };
        self.pairs.push(pair);
        true
    }

    /// Stored ranges, in insertion order.
    pub fn ranges(&self) -> impl Iterator<Item = RangeSet> + '_ {
        (0..self.pairs.len()).map(|slot| self.range(slot))
    }

    /// The range in `slot`.
    fn range(&self, slot: usize) -> RangeSet {
        match (self.pairs[slot], &self.spilled) {
            (SPILLED, Some(spilled)) => spilled[spilled.partition_point(|s| s.0 < slot)].1.clone(),
            ((lo, hi), _) => RangeSet::interval(lo, hi),
        }
    }

    /// Number of stored partitions.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True if the bucket holds nothing.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Best match for `query` under `measure`, or `None` when the bucket is
    /// empty. Ties keep the earliest-stored partition (deterministic).
    pub fn best_match(&self, query: &RangeSet, measure: MatchMeasure) -> Option<Match> {
        winner(self.scan(None, query, measure))
    }

    /// True if the bucket holds this exact range.
    pub fn contains(&self, range: &RangeSet) -> bool {
        match *range.intervals() {
            [pair] => self.pairs.contains(&pair),
            _ => (self.spilled.as_ref()).is_some_and(|s| s.iter().any(|(_, r)| r == range)),
        }
    }

    /// One leg of a scan across buckets: the running `best` carried
    /// through this bucket's slots in order. Strictly better scores
    /// replace it, so across buckets, too, the earliest wins ties.
    ///
    /// A stored interval against a one-interval query is scored in closed
    /// form — the same `u64` overlap and union and the same `u64 → f64`
    /// division [`score`] reaches through `RangeSet`'s merge scan, so the
    /// two agree to the bit; anything else goes through [`score`].
    pub(crate) fn scan<'a>(
        &'a self,
        best: Running<'a>,
        query: &RangeSet,
        measure: MatchMeasure,
    ) -> Running<'a> {
        // Scores are never negative, so -1 loses to any first candidate.
        let (mut won, mut top) = (None, best.map_or(-1.0, |(_, _, s)| s));
        let single = match *query.intervals() {
            [(lo, hi)] => Some((lo, hi, (hi - lo) as u64 + 1)),
            _ => None,
        };
        for (slot, &pair) in self.pairs.iter().enumerate() {
            let s = match (single, pair) {
                (Some((qlo, qhi, q_len)), (lo, hi)) if pair != SPILLED => {
                    let inter = (qhi.min(hi) as u64 + 1).saturating_sub(qlo.max(lo) as u64);
                    let denom = match measure {
                        MatchMeasure::Jaccard => q_len + ((hi - lo) as u64 + 1) - inter,
                        MatchMeasure::Containment => q_len,
                    };
                    inter as f64 / denom as f64
                }
                _ => score(query, &self.range(slot), measure),
            };
            if s > top {
                (won, top) = (Some(slot), s);
            }
        }
        won.map_or(best, |slot| Some((self, slot, top)))
    }
}

/// Score one candidate under a measure.
pub fn score(query: &RangeSet, candidate: &RangeSet, measure: MatchMeasure) -> f64 {
    match measure {
        MatchMeasure::Jaccard => query.jaccard(candidate),
        MatchMeasure::Containment => query.containment_in(candidate),
    }
}

/// Best-scoring candidate from an iterator (first wins ties). The running
/// best is tracked by reference; only the winner is cloned.
pub fn best_of<'a, I: Iterator<Item = &'a RangeSet>>(
    candidates: I,
    query: &RangeSet,
    measure: MatchMeasure,
) -> Option<Match> {
    let mut best: Option<(&RangeSet, f64)> = None;
    for r in candidates {
        let s = score(query, r, measure);
        if best.is_none_or(|(_, b)| s > b) {
            best = Some((r, s));
        }
    }
    best.map(|(range, score)| Match {
        range: range.clone(),
        score,
    })
}

/// The running best of a finished scan as a [`Match`]: the one place the
/// winner's `RangeSet` is built.
pub(crate) fn winner(best: Running<'_>) -> Option<Match> {
    best.map(|(bucket, slot, score)| Match {
        range: bucket.range(slot),
        score,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(lo: u32, hi: u32) -> RangeSet {
        RangeSet::interval(lo, hi)
    }

    #[test]
    fn insert_dedups() {
        let mut b = Bucket::new();
        assert!(b.insert(r(0, 10)));
        assert!(!b.insert(r(0, 10)));
        assert!(b.insert(r(0, 11)));
        assert_eq!(b.len(), 2);
        assert!(b.contains(&r(0, 10)));
        assert!(!b.contains(&r(0, 12)));
    }

    #[test]
    fn empty_bucket_no_match() {
        let b = Bucket::new();
        assert!(b.best_match(&r(0, 5), MatchMeasure::Jaccard).is_none());
        assert!(b.is_empty());
    }

    #[test]
    fn best_match_jaccard_picks_highest_overlap() {
        let mut b = Bucket::new();
        b.insert(r(0, 100)); // J with [40,60] = 21/101
        b.insert(r(35, 65)); // J = 21/31
        b.insert(r(200, 300)); // J = 0
        let m = b.best_match(&r(40, 60), MatchMeasure::Jaccard).unwrap();
        assert_eq!(m.range, r(35, 65));
        assert!((m.score - 21.0 / 31.0).abs() < 1e-12);
    }

    #[test]
    fn measures_can_disagree() {
        // Containment prefers the broad superset; Jaccard the tight overlap.
        let q = r(40, 60);
        let broad = r(0, 1000); // containment 1.0, jaccard 21/1001
        let tight = r(45, 60); // containment 16/21, jaccard 16/21
        let mut b = Bucket::new();
        b.insert(broad.clone());
        b.insert(tight.clone());
        assert_eq!(
            b.best_match(&q, MatchMeasure::Containment).unwrap().range,
            broad
        );
        assert_eq!(
            b.best_match(&q, MatchMeasure::Jaccard).unwrap().range,
            tight
        );
    }

    #[test]
    fn exact_match_scores_one() {
        let mut b = Bucket::new();
        b.insert(r(30, 50));
        for m in [MatchMeasure::Jaccard, MatchMeasure::Containment] {
            let got = b.best_match(&r(30, 50), m).unwrap();
            assert_eq!(got.score, 1.0);
            assert_eq!(got.range, r(30, 50));
        }
    }

    #[test]
    fn ties_keep_first_inserted() {
        let q = r(10, 19);
        let left = r(0, 14); // overlap 5, union 20 → J = 0.25
        let right = r(15, 29); // overlap 5, union 20 → J = 0.25
        let mut b = Bucket::new();
        b.insert(left.clone());
        b.insert(right);
        assert_eq!(b.best_match(&q, MatchMeasure::Jaccard).unwrap().range, left);
    }

    #[test]
    fn score_function_direct() {
        assert_eq!(score(&r(0, 9), &r(0, 9), MatchMeasure::Jaccard), 1.0);
        assert_eq!(score(&r(0, 9), &r(100, 109), MatchMeasure::Jaccard), 0.0);
        assert_eq!(score(&r(0, 9), &r(0, 99), MatchMeasure::Containment), 1.0);
    }

    #[test]
    fn best_keeps_the_earliest_of_equal_offers() {
        let offer = |lo, hi, score| {
            Some(Match {
                range: r(lo, hi),
                score,
            })
        };
        let mut best = Best::default();
        best.offer(None);
        assert!(!best.is_exactly(&r(0, 9)));
        best.offer(offer(0, 9, 0.5));
        best.offer(offer(10, 19, 0.5)); // tie: the earlier offer stays
        best.offer(None);
        assert!(best.is_exactly(&r(0, 9)));
        best.offer(offer(0, 4, 0.75));
        assert!(best.is_exactly(&r(0, 4)));
        let (similarity, recall, winner) = best.grade(&r(0, 9));
        assert_eq!((similarity, recall), (0.5, 0.5));
        assert_eq!(winner, Some(r(0, 4)));
        assert_eq!(Best::default().grade(&r(0, 9)), (0.0, 0.0, None));
    }
}
