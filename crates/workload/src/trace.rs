//! Query traces: an ordered list of range queries plus summary utilities.

use ars_common::FxHashMap;
use ars_lsh::RangeSet;

/// An ordered sequence of range queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    queries: Vec<RangeSet>,
}

impl Trace {
    /// Wrap a query list.
    pub(crate) fn new(queries: Vec<RangeSet>) -> Trace {
        Trace { queries }
    }

    /// The queries, in arrival order.
    pub fn queries(&self) -> &[RangeSet] {
        &self.queries
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Fraction of queries that exactly repeat an earlier query — the
    /// paper reports ≈0.2% for its uniform workload.
    pub fn repetition_rate(&self) -> f64 {
        if self.queries.is_empty() {
            return 0.0;
        }
        let mut seen: FxHashMap<&RangeSet, ()> = FxHashMap::default();
        let mut repeats = 0usize;
        for q in &self.queries {
            if seen.insert(q, ()).is_some() {
                repeats += 1;
            }
        }
        repeats as f64 / self.queries.len() as f64
    }

    /// Number of distinct queries.
    pub fn distinct(&self) -> usize {
        let mut seen: FxHashMap<&RangeSet, ()> = FxHashMap::default();
        for q in &self.queries {
            seen.insert(q, ());
        }
        seen.len()
    }

    /// Split off the paper's warm-up prefix: returns
    /// `(warmup, measured)` where `warmup` is the first `frac` of queries
    /// (the paper drops the first 20% from its quality figures).
    pub fn split_warmup(&self, frac: f64) -> (&[RangeSet], &[RangeSet]) {
        assert!((0.0..=1.0).contains(&frac), "warm-up fraction out of range");
        let cut = (self.queries.len() as f64 * frac).round() as usize;
        self.queries.split_at(cut.min(self.queries.len()))
    }

    /// Mean query cardinality (number of values per range).
    pub fn mean_size(&self) -> f64 {
        if self.queries.is_empty() {
            return 0.0;
        }
        self.queries.iter().map(|q| q.len() as f64).sum::<f64>() / self.queries.len() as f64
    }
}

impl FromIterator<RangeSet> for Trace {
    fn from_iter<I: IntoIterator<Item = RangeSet>>(iter: I) -> Trace {
        Trace::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(lo: u32, hi: u32) -> RangeSet {
        RangeSet::interval(lo, hi)
    }

    #[test]
    fn repetition_rate_counts_repeats() {
        let t = Trace::new(vec![r(0, 1), r(0, 1), r(2, 3), r(0, 1)]);
        assert!((t.repetition_rate() - 0.5).abs() < 1e-12);
        assert_eq!(t.distinct(), 2);
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new(vec![]);
        assert_eq!(t.repetition_rate(), 0.0);
        assert_eq!(t.distinct(), 0);
        assert!(t.is_empty());
        assert_eq!(t.mean_size(), 0.0);
    }

    #[test]
    fn split_warmup_fraction() {
        let t: Trace = (0..10).map(|i| r(i, i + 1)).collect();
        let (warm, rest) = t.split_warmup(0.2);
        assert_eq!(warm.len(), 2);
        assert_eq!(rest.len(), 8);
        assert_eq!(warm[0], r(0, 1));
        assert_eq!(rest[0], r(2, 3));
    }

    #[test]
    fn split_warmup_extremes() {
        let t: Trace = (0..4).map(|i| r(i, i)).collect();
        assert_eq!(t.split_warmup(0.0).0.len(), 0);
        assert_eq!(t.split_warmup(1.0).1.len(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn split_warmup_validates() {
        Trace::new(vec![]).split_warmup(1.5);
    }

    #[test]
    fn mean_size() {
        let t = Trace::new(vec![r(0, 9), r(0, 19)]); // sizes 10 and 20
        assert!((t.mean_size() - 15.0).abs() < 1e-12);
    }
}
