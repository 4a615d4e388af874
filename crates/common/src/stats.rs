//! Summary statistics used by the experiment harness.
//!
//! The paper reports means, 1st/99th percentiles (Figs. 11–12), histograms of
//! match similarity (Figs. 6–7), and cumulative "percentage of queries with
//! recall ≥ x" curves (Figs. 8–10). These small building blocks compute all
//! of those from raw samples.

/// Mean / percentile summary of a sample set.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
    /// 1st percentile.
    pub p01: f64,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Population standard deviation.
    pub stddev: f64,
}

impl Summary {
    /// Compute a summary from samples. Panics on an empty slice.
    pub(crate) fn from_samples(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "Summary of empty sample set");
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        let count = sorted.len();
        let sum: f64 = sorted.iter().sum();
        let mean = sum / count as f64;
        let var = sorted.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / count as f64;
        Summary {
            count,
            mean,
            min: sorted[0],
            max: sorted[count - 1],
            p01: percentile_sorted(&sorted, 0.01),
            p50: percentile_sorted(&sorted, 0.50),
            p99: percentile_sorted(&sorted, 0.99),
            stddev: var.sqrt(),
        }
    }

    /// Convenience: summarize integer samples.
    pub fn from_counts<I: IntoIterator<Item = usize>>(counts: I) -> Summary {
        let samples: Vec<f64> = counts.into_iter().map(|c| c as f64).collect();
        Summary::from_samples(&samples)
    }
}

/// Percentile (nearest-rank with linear interpolation) of a pre-sorted slice.
/// `q` in `[0, 1]`.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Percentile of an unsorted slice.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    percentile_sorted(&sorted, q)
}

/// A fixed-width histogram over `[lo, hi]`.
///
/// Used for the similarity histograms of Figs. 6–7 (10 bins over `[0, 1]`).
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    /// Samples below `lo` or above `hi`.
    pub out_of_range: u64,
    total: u64,
}

impl Histogram {
    /// Create a histogram with `nbins` equal bins spanning `[lo, hi]`.
    pub fn new(lo: f64, hi: f64, nbins: usize) -> Histogram {
        assert!(nbins > 0 && hi > lo);
        Histogram {
            lo,
            hi,
            bins: vec![0; nbins],
            out_of_range: 0,
            total: 0,
        }
    }

    /// Record one sample. Samples exactly at `hi` land in the last bin.
    pub fn record(&mut self, x: f64) {
        if x < self.lo || x > self.hi || x.is_nan() {
            self.out_of_range += 1;
            return;
        }
        let n = self.bins.len();
        let frac = (x - self.lo) / (self.hi - self.lo);
        let idx = ((frac * n as f64) as usize).min(n - 1);
        self.bins[idx] += 1;
        self.total += 1;
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.bins
    }

    /// Total in-range samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Bin counts as percentages of total in-range samples (the y-axis of the
    /// paper's Figs. 6–7).
    pub fn percentages(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.bins.len()];
        }
        self.bins
            .iter()
            .map(|&c| 100.0 * c as f64 / self.total as f64)
            .collect()
    }

    /// `(bin_low_edge, bin_high_edge)` for bin `i`.
    pub fn bin_edges(&self, i: usize) -> (f64, f64) {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        (self.lo + i as f64 * w, self.lo + (i + 1) as f64 * w)
    }
}

/// Build the complementary-cumulative curve used by the paper's recall plots
/// (Figs. 8–10): for each threshold `t` in `thresholds`, the *percentage* of
/// samples with value `>= t`.
pub fn pct_at_least(samples: &[f64], thresholds: &[f64]) -> Vec<f64> {
    if samples.is_empty() {
        return vec![0.0; thresholds.len()];
    }
    thresholds
        .iter()
        .map(|&t| {
            let n = samples.iter().filter(|&&s| s >= t).count();
            100.0 * n as f64 / samples.len() as f64
        })
        .collect()
}

/// A discrete probability-distribution function over integer outcomes,
/// used for Fig. 12(b) (PDF of path length).
pub fn discrete_pdf(samples: &[usize]) -> Vec<(usize, f64)> {
    if samples.is_empty() {
        return Vec::new();
    }
    let max = *samples.iter().max().unwrap();
    let mut counts = vec![0u64; max + 1];
    for &s in samples {
        counts[s] += 1;
    }
    counts
        .into_iter()
        .enumerate()
        .map(|(v, c)| (v, c as f64 / samples.len() as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic() {
        let s = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.count, 5);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!((s.p50 - 3.0).abs() < 1e-12);
    }

    #[test]
    fn summary_single_sample() {
        let s = Summary::from_samples(&[7.0]);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.p01, 7.0);
        assert_eq!(s.p99, 7.0);
        assert_eq!(s.stddev, 0.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn summary_empty_panics() {
        Summary::from_samples(&[]);
    }

    #[test]
    fn percentile_interpolates() {
        let sorted = [0.0, 10.0];
        assert!((percentile_sorted(&sorted, 0.5) - 5.0).abs() < 1e-12);
        assert_eq!(percentile_sorted(&sorted, 0.0), 0.0);
        assert_eq!(percentile_sorted(&sorted, 1.0), 10.0);
    }

    #[test]
    fn percentile_of_uniform_ramp() {
        let samples: Vec<f64> = (0..=100).map(|i| i as f64).collect();
        assert!((percentile(&samples, 0.99) - 99.0).abs() < 1e-9);
        assert!((percentile(&samples, 0.01) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_bins_and_percentages() {
        let mut h = Histogram::new(0.0, 1.0, 10);
        for x in [0.05, 0.15, 0.15, 0.95, 1.0] {
            h.record(x);
        }
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[1], 2);
        assert_eq!(h.counts()[9], 2); // 0.95 and 1.0 both in last bin
        assert_eq!(h.total(), 5);
        let p = h.percentages();
        assert!((p[1] - 40.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_out_of_range() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(-0.1);
        h.record(1.1);
        h.record(f64::NAN);
        assert_eq!(h.out_of_range, 3);
        assert_eq!(h.total(), 0);
        assert_eq!(h.percentages(), vec![0.0; 4]);
    }

    #[test]
    fn histogram_bin_edges() {
        let h = Histogram::new(0.0, 1.0, 10);
        let (lo, hi) = h.bin_edges(3);
        assert!((lo - 0.3).abs() < 1e-12);
        assert!((hi - 0.4).abs() < 1e-12);
    }

    #[test]
    fn pct_at_least_curve() {
        let samples = [1.0, 0.5, 0.5, 0.0];
        let curve = pct_at_least(&samples, &[0.0, 0.5, 1.0]);
        assert_eq!(curve, vec![100.0, 75.0, 25.0]);
    }

    #[test]
    fn pct_at_least_empty() {
        assert_eq!(pct_at_least(&[], &[0.5]), vec![0.0]);
    }

    #[test]
    fn discrete_pdf_sums_to_one() {
        let samples = [2usize, 2, 3, 5];
        let pdf = discrete_pdf(&samples);
        let total: f64 = pdf.iter().map(|&(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(pdf[2].1, 0.5);
        assert_eq!(pdf[4].1, 0.0);
        assert_eq!(pdf[5].1, 0.25);
    }
}
