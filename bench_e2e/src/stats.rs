//! Order statistics and the outcome digest.

/// Nearest-rank percentile of an ascending slice. Refuses a percentile
/// with fewer than ten samples beyond it: such a value is one or two
/// outliers, not a property of the distribution.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> Result<T, String> {
    assert!((0.0..1.0).contains(&p), "percentile {p} outside [0, 1)");
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).max(1);
    if n < rank + 10 {
        return Err(format!(
            "p{} of {n} samples has fewer than 10 samples beyond it",
            p * 100.0
        ));
    }
    Ok(sorted[rank - 1])
}

/// Min / quartiles / max of one metric across repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Quartiles follow Python's `statistics.quantiles(values, n=4)`
    /// (exclusive method), the rule the acceptance driver applies to its
    /// own runs; a single value is its own quartiles.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of nothing");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let quartile = |i: usize| {
            if n == 1 {
                return v[0];
            }
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Summary {
            n,
            min: v[0],
            q1: quartile(1),
            median: ars_common::stats::percentile_sorted(&v, 0.5),
            q3: quartile(3),
            max: v[n - 1],
        }
    }
}

/// FNV-1a, 64 bit: the digest of a repetition's outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_on_known_vectors() {
        let v: Vec<u32> = (1..=10_000).collect();
        assert_eq!(percentile(&v, 0.5), Ok(5_000));
        assert_eq!(percentile(&v, 0.99), Ok(9_900));
        assert_eq!(percentile(&v, 0.999), Ok(9_990));
    }

    #[test]
    fn percentile_refuses_thin_tails() {
        let v: Vec<u32> = (1..=1_000).collect();
        // p99.9 of 1000 samples leaves one sample beyond it.
        assert!(percentile(&v, 0.999).is_err());
        assert_eq!(percentile(&v, 0.99), Ok(990));
        // Exactly ten beyond is enough, nine is not.
        assert_eq!(percentile(&v[..20], 0.5), Ok(10));
        assert!(percentile(&v[..19], 0.5).is_err());
    }

    #[test]
    fn summary_matches_python_quantiles() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (1.0, 1.5, 3.0, 4.5, 5.0)
        );
        // statistics.quantiles([10, 20, 40, 80], n=4) == [12.5, 30.0, 70.0]
        let s = Summary::of(&[10.0, 20.0, 40.0, 80.0]);
        assert_eq!((s.q1, s.median, s.q3), (12.5, 30.0, 70.0));
        let one = Summary::of(&[2.0]);
        assert_eq!((one.q1, one.q3), (2.0, 2.0));
    }

    #[test]
    fn fnv_known_values() {
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
        let mut a = Fnv::default();
        let mut b = Fnv::default();
        a.u64(1);
        a.u64(2);
        b.u64(2);
        b.u64(1);
        assert_ne!(a, b, "digest is order-sensitive");
    }
}
