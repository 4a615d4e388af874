//! A simulated disk with a crash-fault surface.
//!
//! [`SimDisk`] models one append-only file written through: every
//! append is durable when it returns, so a crash finds nothing un-synced
//! to lose or tear. What a crash can still do is corrupt the platter:
//! with probability `bit_flip_p` ([`StorageFaults`]), one bit within the
//! final sectors of the image flips, modelling a silently corrupted
//! sector that only a checksum can catch. The flip is drawn from a
//! seeded deterministic RNG, so a crash replayed under the same
//! `ARS_FAULT_SEED` is bit-identical.

/// splitmix64 — the crate's only RNG, kept local so `ars-store` stays
/// zero-dependency. Same generator the workspace's `DetRng` builds on.
#[derive(Debug, Clone)]
struct StoreRng(u64);

impl StoreRng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Bernoulli with probability `p`.
    fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }
}

/// How many trailing bytes a crash-time bit flip can land in — the
/// "last sector" of the image.
const FLIP_WINDOW: usize = 64;

/// Probability of the crash-time storage fault (see module docs).
/// `default()` is a perfect disk: every appended byte survives a crash
/// uncorrupted.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StorageFaults {
    /// Probability that a crash flips one bit in the tail of the image
    /// (a corrupted sector).
    pub bit_flip_p: f64,
}

impl StorageFaults {
    /// A perfect disk (the default).
    pub fn none() -> StorageFaults {
        StorageFaults::default()
    }

    /// Builder-style: set the crash-time bit-flip probability.
    ///
    /// # Panics
    /// Panics unless `0 ≤ p ≤ 1`.
    pub fn with_bit_flip(mut self, p: f64) -> StorageFaults {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.bit_flip_p = p;
        self
    }
}

/// Cumulative fault/traffic counters for one simulated disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Bytes appended.
    pub appended_bytes: u64,
    /// Bytes made durable: every appended byte, since appends write
    /// through.
    pub synced_bytes: u64,
    /// Bits flipped in the image by crashes.
    pub bit_flips: u64,
    /// Crashes survived.
    pub crashes: u64,
}

/// One simulated append-only file (see module docs).
#[derive(Debug, Clone)]
pub(crate) struct SimDisk {
    image: Vec<u8>,
    faults: StorageFaults,
    rng: StoreRng,
    stats: DiskStats,
}

impl SimDisk {
    /// An empty disk with the given fault surface, deterministic per
    /// `seed`.
    pub(crate) fn new(faults: StorageFaults, seed: u64) -> SimDisk {
        SimDisk {
            image: Vec::new(),
            faults,
            rng: StoreRng(seed),
            stats: DiskStats::default(),
        }
    }

    /// Append whatever `write` adds to the image, durably.
    pub(crate) fn append_with(&mut self, write: impl FnOnce(&mut Vec<u8>)) {
        let before = self.image.len();
        write(&mut self.image);
        let appended = (self.image.len() - before) as u64;
        self.stats.appended_bytes += appended;
        self.stats.synced_bytes += appended;
    }

    /// Append bytes, durably.
    #[cfg(test)]
    pub(crate) fn append(&mut self, bytes: &[u8]) {
        self.append_with(|image| image.extend_from_slice(bytes));
    }

    /// The image — what a restart reads.
    pub(crate) fn contents(&self) -> &[u8] {
        &self.image
    }

    /// Cut the image to its first `len` bytes (a restart discarding a
    /// corrupt tail before it appends again).
    pub(crate) fn truncate(&mut self, len: usize) {
        self.image.truncate(len);
    }

    /// Fault/traffic counters.
    pub(crate) fn stats(&self) -> &DiskStats {
        &self.stats
    }

    /// Crash the process holding this disk: possibly flip one bit in the
    /// tail of the image. The disk afterwards shows the post-restart view.
    pub(crate) fn crash(&mut self) {
        self.stats.crashes += 1;
        if !self.image.is_empty() && self.rng.chance(self.faults.bit_flip_p) {
            let window = self.image.len().min(FLIP_WINDOW);
            let start = self.image.len() - window;
            let byte = start + self.rng.below(window as u64) as usize;
            let bit = self.rng.below(8) as u8;
            self.image[byte] ^= 1 << bit;
            self.stats.bit_flips += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn appends_survive_a_crash_on_a_perfect_disk() {
        let mut d = SimDisk::new(StorageFaults::none(), 1);
        d.append(b"hello");
        d.append(b"world");
        d.crash();
        assert_eq!(d.contents(), b"helloworld");
        assert_eq!(d.stats().synced_bytes, d.stats().appended_bytes);
        assert_eq!(d.stats().crashes, 1);
        assert_eq!(d.stats().bit_flips, 0);
    }

    #[test]
    fn bit_flip_corrupts_exactly_one_bit_in_the_tail() {
        let faults = StorageFaults::none().with_bit_flip(1.0);
        let mut d = SimDisk::new(faults, 7);
        let image: Vec<u8> = (0..200u8).cycle().take(500).collect();
        d.append(&image);
        d.crash();
        let diff: Vec<usize> = (0..500).filter(|&i| d.contents()[i] != image[i]).collect();
        assert_eq!(diff.len(), 1, "exactly one corrupted byte");
        assert!(diff[0] >= 500 - FLIP_WINDOW, "flip lands in the tail");
        let delta = d.contents()[diff[0]] ^ image[diff[0]];
        assert_eq!(delta.count_ones(), 1, "exactly one flipped bit");
        assert_eq!(d.stats().bit_flips, 1);
    }

    #[test]
    fn crashes_are_deterministic_per_seed() {
        let faults = StorageFaults::none().with_bit_flip(0.5);
        let run = |seed| {
            let mut d = SimDisk::new(faults, seed);
            for i in 0..20u8 {
                d.append(&[i; 33]);
                if i % 5 == 4 {
                    d.crash();
                }
            }
            d.crash();
            d.contents().to_vec()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10), "different seeds flip differently");
    }

    #[test]
    fn truncate_keeps_a_prefix_and_appends_after_it() {
        let mut d = SimDisk::new(StorageFaults::none(), 2);
        d.append(b"keep-junk");
        d.truncate(4);
        d.append(b"-more");
        assert_eq!(d.contents(), b"keep-more");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_probability_rejected() {
        let _ = StorageFaults::none().with_bit_flip(2.0);
    }
}
