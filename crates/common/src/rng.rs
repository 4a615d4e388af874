//! Deterministic pseudo-random number generation.
//!
//! Experiments in the paper are defined by their workload distribution, not a
//! particular random stream, but for *reproducibility* every run in this
//! repository is driven by an explicitly seeded generator. We implement
//! xoshiro256++ (public-domain algorithm by Blackman & Vigna) seeded through
//! splitmix64, rather than depending on `rand`'s version-dependent stream, so
//! a seed written in EXPERIMENTS.md regenerates the same numbers forever.

/// splitmix64 step: used for seeding and as a cheap stateless mixer.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed a test run was asked for: the unsigned integer in environment
/// variable `name`, or 0 when it is unset or does not parse. Seed-dependent
/// suites read `ARS_FAULT_SEED` / `ARS_GOLDEN_SEED` through this so CI can
/// sweep seeds over the same assertions.
///
/// Writes `name=seed` to stderr: the test harness attaches a failing
/// test's captured output to its report, so every failure of a suite that
/// read its seed here names the seed to rerun under, whatever the
/// assertion's own message says.
pub fn env_seed(name: &str) -> u64 {
    let seed = std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    eprintln!("{name}={seed}");
    seed
}

/// A deterministic xoshiro256++ generator.
///
/// Not cryptographically secure; used only to drive simulations and
/// synthetic workloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Create a generator from a 64-bit seed (expanded via splitmix64).
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // xoshiro must not be seeded with all zeros; splitmix64 output of any
        // seed cannot be all-zero across four draws, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 1;
        }
        DetRng { s }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Next 32-bit output (upper half of a 64-bit draw).
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform value in `[0, bound)` using Lemire's multiply-shift rejection
    /// method (unbiased).
    #[inline]
    pub fn gen_range_u64(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range_u64 bound must be positive");
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let lo = m as u64;
            if lo >= bound {
                return (m >> 64) as u64;
            }
            // Rejection zone: only reject when low part falls in the biased
            // region. threshold = (2^64 - bound) mod bound = wrapping_neg % bound
            let threshold = bound.wrapping_neg() % bound;
            if lo >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `u32` in `[lo, hi]` (inclusive).
    #[inline]
    pub fn gen_inclusive_u32(&mut self, lo: u32, hi: u32) -> u32 {
        assert!(lo <= hi, "empty range");
        let span = (hi - lo) as u64 + 1;
        lo + self.gen_range_u64(span) as u32
    }

    /// Uniform `usize` in `[0, bound)`.
    #[inline]
    pub fn gen_index(&mut self, bound: usize) -> usize {
        self.gen_range_u64(bound as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns true with probability `p`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, data: &mut [T]) {
        for i in (1..data.len()).rev() {
            let j = self.gen_index(i + 1);
            data.swap(i, j);
        }
    }

    /// Choose `m` distinct indices from `[0, n)` (partial Fisher–Yates).
    pub fn sample_indices(&mut self, n: usize, m: usize) -> Vec<usize> {
        assert!(m <= n, "cannot sample {m} from {n}");
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..m {
            let j = i + self.gen_index(n - i);
            idx.swap(i, j);
        }
        idx.truncate(m);
        idx
    }

    /// Fork a derived, independently-seeded generator. Useful to hand each
    /// simulated peer or hash function its own stream without correlation.
    pub fn fork(&mut self) -> DetRng {
        DetRng::new(self.next_u64())
    }

    /// Split `n` parallel streams off this generator **without advancing
    /// it**.
    ///
    /// Stream 0 is an exact continuation of `self`: its draws are the very
    /// numbers `self` would produce next. Streams `1..n` are independently
    /// seeded from a splitmix64 fold of the current state plus the stream
    /// index, so stream `i` is the same generator regardless of `n` — a
    /// consumer that splits 4 streams and one that splits 7 agree on
    /// streams 0–3. This is what lets a sharded batch draw each query's
    /// origin from its own deterministic stream while stream 0 (and
    /// therefore a one-shard batch) reproduces the unsplit sequence bit for
    /// bit.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn split_streams(&self, n: usize) -> Vec<DetRng> {
        assert!(n > 0, "must split at least one stream");
        let mut streams = Vec::with_capacity(n);
        streams.push(self.clone());
        // Fold the four state words into one seed base; each extra stream
        // re-mixes the base with its index. Seeding through `DetRng::new`
        // adds a second splitmix expansion, decorrelating the streams from
        // each other and from stream 0's raw xoshiro outputs.
        let mut base = 0x243F_6A88_85A3_08D3u64; // arbitrary fixed tag
        for &w in &self.s {
            base ^= w;
            splitmix64(&mut base);
        }
        for i in 1..n as u64 {
            let mut s = base ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            streams.push(DetRng::new(splitmix64(&mut s)));
        }
        streams
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn gen_range_within_bounds() {
        let mut r = DetRng::new(7);
        for bound in [1u64, 2, 3, 10, 1000, u32::MAX as u64] {
            for _ in 0..200 {
                assert!(r.gen_range_u64(bound) < bound);
            }
        }
    }

    #[test]
    fn gen_inclusive_hits_endpoints() {
        let mut r = DetRng::new(9);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..1000 {
            let v = r.gen_inclusive_u32(5, 8);
            assert!((5..=8).contains(&v));
            saw_lo |= v == 5;
            saw_hi |= v == 8;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn gen_range_roughly_uniform() {
        let mut r = DetRng::new(11);
        let mut counts = [0usize; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[r.gen_index(10)] += 1;
        }
        for &c in &counts {
            // expectation 10_000; allow 10% slack
            assert!((9_000..=11_000).contains(&c), "count {c} out of range");
        }
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut r = DetRng::new(3);
        for _ in 0..1000 {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = DetRng::new(5);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<_>>(),
            "shuffle left input unchanged"
        );
    }

    #[test]
    fn sample_indices_distinct() {
        let mut r = DetRng::new(13);
        let s = r.sample_indices(50, 20);
        assert_eq!(s.len(), 20);
        let mut uniq = s.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 20);
        assert!(s.iter().all(|&i| i < 50));
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut root = DetRng::new(1234);
        let mut c1 = root.fork();
        let mut c2 = root.fork();
        let same = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_stream_zero_continues_parent_exactly() {
        let parent = DetRng::new(2024);
        let mut streams = parent.clone().split_streams(4);
        let mut unsplit = parent;
        for _ in 0..256 {
            assert_eq!(streams[0].next_u64(), unsplit.next_u64());
        }
    }

    #[test]
    fn split_does_not_advance_parent() {
        let mut parent = DetRng::new(7);
        let before = parent.clone();
        let _ = parent.split_streams(8);
        assert_eq!(parent, before);
        assert_eq!(parent.next_u64(), before.clone().next_u64());
    }

    #[test]
    fn split_streams_pairwise_independent() {
        let parent = DetRng::new(99);
        let streams = parent.split_streams(5);
        for i in 0..streams.len() {
            for j in (i + 1)..streams.len() {
                let mut a = streams[i].clone();
                let mut b = streams[j].clone();
                let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
                assert_eq!(same, 0, "streams {i} and {j} correlate");
            }
        }
    }

    #[test]
    fn split_stream_i_independent_of_count() {
        let parent = DetRng::new(314);
        let four = parent.split_streams(4);
        let seven = parent.split_streams(7);
        for i in 0..4 {
            assert_eq!(four[i], seven[i], "stream {i} depends on split count");
        }
    }

    #[test]
    #[should_panic(expected = "at least one stream")]
    fn split_zero_streams_rejected() {
        DetRng::new(1).split_streams(0);
    }

    #[test]
    fn gen_bool_probability() {
        let mut r = DetRng::new(77);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((24_000..=26_000).contains(&hits), "hits {hits}");
    }
}
