//! The metric registry: counters, gauges, and log₂-bucketed histograms.
//!
//! All storage is `BTreeMap`-keyed by the metric's static name, so every
//! snapshot and export lists metrics in a stable (lexicographic) order —
//! part of the seed-stability contract of the recording sink.

use std::collections::BTreeMap;

/// Number of log₂ buckets in a [`Hist`]: bucket `i` counts values whose
/// bit length is `i` (bucket 0 holds the value 0), so `u64::MAX` lands in
/// bucket 64.
pub const HIST_BUCKETS: usize = 65;

/// A histogram over `u64` samples with log₂ buckets plus exact
/// count/sum/min/max.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hist {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (`u64::MAX` when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    buckets: [u64; HIST_BUCKETS],
}

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

/// Bucket index of a value: its bit length (0 for the value 0).
pub fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

impl Hist {
    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_index(v)] += 1;
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile `q ∈ [0, 1]` reconstructed from the log₂
    /// buckets: the bucket holding the rank-`⌈q·count⌉` sample is located
    /// exactly, then the value is linearly interpolated across the
    /// bucket's span `[2^(i−1), 2^i − 1]` by rank position and clamped to
    /// the exact observed `[min, max]`. The result is within one bucket
    /// (a factor of 2) of the true quantile — tight enough for hedge-delay
    /// derivation and tail reporting, at 65 words of state.
    ///
    /// Returns 0 when the histogram is empty.
    ///
    /// # Panics
    /// Panics unless `0 ≤ q ≤ 1`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen >= rank {
                if i == 0 {
                    return 0; // bucket 0 holds only the value 0
                }
                let lo = 1u64 << (i - 1);
                let hi = if i >= 64 { u64::MAX } else { (1u64 << i) - 1 };
                let into = (rank - (seen - c)) as f64 / c as f64;
                let est = lo as f64 + into * (hi - lo) as f64;
                return (est as u64).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Approximate median (see [`Self::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// Approximate 90th percentile (see [`Self::quantile`]).
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// Approximate 99th percentile (see [`Self::quantile`]).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Non-empty buckets as `(bucket_index, count)`, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }
}

/// The mutable metric store inside a recording sink.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Registry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Hist>,
}

impl Registry {
    /// Add `delta` to the monotonic counter `name` (created at 0).
    pub fn counter_add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Set the gauge `name` to `value` (last write wins).
    pub fn gauge_set(&mut self, name: &'static str, value: u64) {
        self.gauges.insert(name, value);
    }

    /// Record `value` into the histogram `name` (created empty).
    pub fn record(&mut self, name: &'static str, value: u64) {
        self.hists.entry(name).or_default().record(value);
    }

    /// Freeze the registry into an immutable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
            hists: self
                .hists
                .iter()
                .map(|(&k, v)| (k.to_string(), v.clone()))
                .collect(),
        }
    }

    /// Reset all metrics (the recording sink's `reset`).
    pub fn clear(&mut self) {
        self.counters.clear();
        self.gauges.clear();
        self.hists.clear();
    }
}

/// An immutable, stably-ordered view of every metric at one instant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    hists: BTreeMap<String, Hist>,
}

impl MetricsSnapshot {
    /// Counter value (0 when the counter never moved).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, if ever set.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// Histogram, if any sample was recorded.
    pub fn hist(&self, name: &str) -> Option<&Hist> {
        self.hists.get(name)
    }

    /// All counters, lexicographic by name.
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// All gauges, lexicographic by name.
    pub fn gauges(&self) -> &BTreeMap<String, u64> {
        &self.gauges
    }

    /// All histograms, lexicographic by name.
    pub fn hists(&self) -> &BTreeMap<String, Hist> {
        &self.hists
    }

    /// True when no metric of any kind was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Total overlay messages the recorded workload spent, derived from
    /// the standard core/resilient instrumentation: routed lookup hops
    /// (`core.lookup.hops` histogram sum on the static paths,
    /// `resilient.lookup.hops` counter under churn), layered-placement
    /// successor-walk steps (`core.walk.steps`), backup-route hops spent
    /// hedging or short-circuiting slow peers (`resilient.hedge_hops`),
    /// and fault-detection probe pings (`resilient.probes`). Multi-probe
    /// bucket checks are *not* messages — they happen locally at peers a
    /// query already visited — and are deliberately absent.
    ///
    /// Tests and harnesses should use this (or
    /// [`Self::messages_per_query`]) instead of re-deriving the sum by hand
    /// from raw counters.
    pub fn total_messages(&self) -> u64 {
        self.hist("core.lookup.hops").map(|h| h.sum).unwrap_or(0)
            + self.counter("core.walk.steps")
            + self.counter("resilient.lookup.hops")
            + self.counter("resilient.hedge_hops")
            + self.counter("resilient.probes")
    }

    /// Overlay messages per executed query: [`Self::total_messages`] over
    /// the queries recorded on either query path (`core.queries`,
    /// `resilient.queries`). `0.0` before any query ran.
    pub fn messages_per_query(&self) -> f64 {
        let queries = self.counter("core.queries") + self.counter("resilient.queries");
        if queries == 0 {
            0.0
        } else {
            self.total_messages() as f64 / queries as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_per_query_derives_from_standard_instrumentation() {
        let mut r = Registry::default();
        r.record("core.lookup.hops", 3);
        r.record("core.lookup.hops", 4);
        r.counter_add("core.walk.steps", 5);
        r.counter_add("resilient.lookup.hops", 2);
        r.counter_add("resilient.hedge_hops", 1);
        r.counter_add("resilient.probes", 6);
        r.counter_add("core.queries", 2);
        r.counter_add("resilient.queries", 1);
        // Local probe checks are not messages and must not count.
        r.counter_add("core.probe.checks", 100);
        let s = r.snapshot();
        assert_eq!(s.total_messages(), 3 + 4 + 5 + 2 + 1 + 6);
        assert!((s.messages_per_query() - 21.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn messages_per_query_zero_without_queries() {
        let s = Registry::default().snapshot();
        assert_eq!(s.total_messages(), 0);
        assert_eq!(s.messages_per_query(), 0.0);
    }

    #[test]
    fn counter_accumulates() {
        let mut r = Registry::default();
        r.counter_add("a", 2);
        r.counter_add("a", 3);
        r.counter_add("b", 1);
        let s = r.snapshot();
        assert_eq!(s.counter("a"), 5);
        assert_eq!(s.counter("b"), 1);
        assert_eq!(s.counter("missing"), 0);
    }

    #[test]
    fn gauge_last_write_wins() {
        let mut r = Registry::default();
        r.gauge_set("g", 10);
        r.gauge_set("g", 7);
        assert_eq!(r.snapshot().gauge("g"), Some(7));
        assert_eq!(r.snapshot().gauge("missing"), None);
    }

    #[test]
    fn hist_tracks_shape() {
        let mut r = Registry::default();
        for v in [0u64, 1, 2, 3, 1000] {
            r.record("h", v);
        }
        let s = r.snapshot();
        let h = s.hist("h").unwrap();
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1006);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1000);
        assert!((h.mean() - 201.2).abs() < 1e-9);
        // 0 → bucket 0, 1 → 1, 2..3 → 2, 1000 → 10.
        assert_eq!(h.nonzero_buckets(), vec![(0, 1), (1, 1), (2, 2), (10, 1)]);
    }

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn empty_hist_mean_is_zero() {
        assert_eq!(Hist::default().mean(), 0.0);
    }

    #[test]
    fn empty_hist_quantiles_are_zero() {
        let h = Hist::default();
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
    }

    #[test]
    fn single_sample_quantiles_are_exact() {
        // min/max clamping makes a one-sample histogram exact at every q.
        let mut h = Hist::default();
        h.record(137);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 137, "q={q}");
        }
    }

    #[test]
    fn quantiles_are_monotone_and_bucket_accurate() {
        // 100 samples 1..=100: true p50 = 50, p90 = 90, p99 = 99. The
        // log₂ reconstruction must land within the true value's bucket
        // (a factor-of-2 band) and be monotone in q.
        let mut h = Hist::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        let (p50, p90, p99) = (h.p50(), h.p90(), h.p99());
        assert!(p50 <= p90 && p90 <= p99, "quantiles must be monotone");
        assert!((32..=63).contains(&p50), "p50 {p50} outside bucket of 50");
        assert!((64..=100).contains(&p90), "p90 {p90} outside bucket of 90");
        assert!((64..=100).contains(&p99), "p99 {p99} outside bucket of 99");
        assert_eq!(h.quantile(1.0), 100, "q=1 clamps to the exact max");
        assert_eq!(h.quantile(0.0), 1, "q=0 clamps to the exact min");
    }

    #[test]
    fn bimodal_hist_separates_modes() {
        // 90 fast samples at 100 and 10 slow ones at 10_000: p50 must
        // report the fast mode, p99 the slow one — the property hedge
        // delays rely on.
        let mut h = Hist::default();
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(10_000);
        }
        assert!(h.p50() < 256, "p50 {} must sit in the fast mode", h.p50());
        assert!(
            h.p99() >= 8_192,
            "p99 {} must sit in the slow mode",
            h.p99()
        );
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn quantile_validates_q() {
        let _ = Hist::default().quantile(1.5);
    }

    #[test]
    fn clear_empties_everything() {
        let mut r = Registry::default();
        r.counter_add("a", 1);
        r.gauge_set("g", 1);
        r.record("h", 1);
        assert!(!r.snapshot().is_empty());
        r.clear();
        assert!(r.snapshot().is_empty());
    }

    #[test]
    fn snapshot_order_is_lexicographic() {
        let mut r = Registry::default();
        r.counter_add("z", 1);
        r.counter_add("a", 1);
        r.counter_add("m", 1);
        let snap = r.snapshot();
        let names: Vec<&String> = snap.counters().keys().collect();
        assert_eq!(names, ["a", "m", "z"]);
    }
}
