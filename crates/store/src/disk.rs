//! A simulated disk with a crash-fault surface.
//!
//! [`SimDisk`] models one append-only file the way a real OS page cache
//! does: [`SimDisk::append`] lands in a volatile write buffer, and only
//! [`SimDisk::sync`] (fsync) moves bytes to the durable image. A
//! [`SimDisk::crash`] then exercises the three storage faults the
//! recovery path must survive, all drawn from a seeded deterministic RNG
//! ([`StorageFaults`] holds the probabilities):
//!
//! * **lost un-synced suffix** — everything appended since the last sync
//!   vanishes (always; that is what "volatile" means);
//! * **torn tail write** — with probability `torn_write_p`, a *prefix* of
//!   the un-synced bytes does survive, modelling a write that was
//!   half-way to the platter when power failed (the dangerous case: the
//!   durable image now ends mid-record);
//! * **tail bit flip** — with probability `bit_flip_p`, one bit within
//!   the final sectors of the durable image flips, modelling a torn or
//!   silently corrupted sector that only a checksum can catch.
//!
//! Every fault is a pure function of `(faults, seed, operation sequence)`
//! so a crash replayed under the same `ARS_FAULT_SEED` is bit-identical.

/// splitmix64 — the crate's only RNG, kept local so `ars-store` stays
/// zero-dependency. Same generator the workspace's `DetRng` builds on.
#[derive(Debug, Clone)]
pub(crate) struct StoreRng(u64);

impl StoreRng {
    pub(crate) fn new(seed: u64) -> StoreRng {
        StoreRng(seed)
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Bernoulli with probability `p`.
    pub(crate) fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }
}

/// How many trailing durable bytes a crash-time bit flip can land in —
/// the "last sector" of the image.
const FLIP_WINDOW: usize = 64;

/// Probabilities of the crash-time storage faults (see module docs).
/// `default()` is a perfect disk: un-synced data is still lost on crash,
/// but synced bytes survive uncorrupted.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StorageFaults {
    /// Probability that a crash leaves a *partial prefix* of the
    /// un-synced bytes on the durable image (a torn tail write) rather
    /// than discarding them cleanly.
    pub torn_write_p: f64,
    /// Probability that a crash flips one bit in the tail of the durable
    /// image (a corrupted sector).
    pub bit_flip_p: f64,
}

fn check_p(p: f64) {
    assert!((0.0..=1.0).contains(&p), "probability out of range");
}

impl StorageFaults {
    /// A perfect disk (the default).
    pub fn none() -> StorageFaults {
        StorageFaults::default()
    }

    /// Builder-style: set the torn-tail-write probability.
    ///
    /// # Panics
    /// Panics unless `0 ≤ p ≤ 1`.
    pub fn with_torn_write(mut self, p: f64) -> StorageFaults {
        check_p(p);
        self.torn_write_p = p;
        self
    }

    /// Builder-style: set the crash-time bit-flip probability.
    ///
    /// # Panics
    /// Panics unless `0 ≤ p ≤ 1`.
    pub fn with_bit_flip(mut self, p: f64) -> StorageFaults {
        check_p(p);
        self.bit_flip_p = p;
        self
    }
}

/// Cumulative fault/traffic counters for one [`SimDisk`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Bytes appended to the write buffer.
    pub appended_bytes: u64,
    /// Bytes made durable by `sync` (or surviving a torn crash).
    pub synced_bytes: u64,
    /// Un-synced bytes destroyed by crashes.
    pub lost_bytes: u64,
    /// Crashes that left a torn (partial) tail.
    pub torn_crashes: u64,
    /// Bits flipped in the durable image by crashes.
    pub bit_flips: u64,
    /// Crashes survived.
    pub crashes: u64,
}

/// One simulated append-only file (see module docs).
#[derive(Debug, Clone)]
pub struct SimDisk {
    durable: Vec<u8>,
    pending: Vec<u8>,
    faults: StorageFaults,
    rng: StoreRng,
    stats: DiskStats,
}

impl SimDisk {
    /// An empty disk with the given fault surface, deterministic per
    /// `seed`.
    pub(crate) fn new(faults: StorageFaults, seed: u64) -> SimDisk {
        SimDisk {
            durable: Vec::new(),
            pending: Vec::new(),
            faults,
            rng: StoreRng::new(seed),
            stats: DiskStats::default(),
        }
    }

    /// Append bytes to the volatile write buffer.
    pub(crate) fn append(&mut self, bytes: &[u8]) {
        self.stats.appended_bytes += bytes.len() as u64;
        self.pending.extend_from_slice(bytes);
    }

    /// Flush the write buffer to the durable image (fsync).
    pub(crate) fn sync(&mut self) {
        self.stats.synced_bytes += self.pending.len() as u64;
        self.durable.append(&mut self.pending);
    }

    /// Total logical length (durable + pending) — what a reader sees
    /// while the process is up.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.durable.len() + self.pending.len()
    }

    /// The durable image — what a restart reads.
    pub(crate) fn durable_contents(&self) -> &[u8] {
        &self.durable
    }

    /// Atomically replace the file's contents (the simulated equivalent
    /// of write-to-temp + rename, used by compaction). The new contents
    /// are durable immediately.
    pub(crate) fn replace(&mut self, contents: Vec<u8>) {
        self.stats.synced_bytes += contents.len() as u64;
        self.pending.clear();
        self.durable = contents;
    }

    /// Fault/traffic counters.
    pub(crate) fn stats(&self) -> &DiskStats {
        &self.stats
    }

    /// Crash the process holding this disk: apply the fault surface to
    /// the un-synced suffix and (possibly) the durable tail, then drop
    /// the write buffer. The disk afterwards shows the post-restart view.
    pub(crate) fn crash(&mut self) {
        self.stats.crashes += 1;
        if !self.pending.is_empty() {
            if self.rng.chance(self.faults.torn_write_p) {
                // A torn tail write: a strict prefix of the pending bytes
                // made it to the platter.
                let kept = self.rng.below(self.pending.len() as u64) as usize;
                self.stats.torn_crashes += 1;
                self.stats.synced_bytes += kept as u64;
                self.stats.lost_bytes += (self.pending.len() - kept) as u64;
                self.durable.extend_from_slice(&self.pending[..kept]);
            } else {
                self.stats.lost_bytes += self.pending.len() as u64;
            }
            self.pending.clear();
        }
        if !self.durable.is_empty() && self.rng.chance(self.faults.bit_flip_p) {
            let window = self.durable.len().min(FLIP_WINDOW);
            let start = self.durable.len() - window;
            let byte = start + self.rng.below(window as u64) as usize;
            let bit = self.rng.below(8) as u8;
            self.durable[byte] ^= 1 << bit;
            self.stats.bit_flips += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_makes_bytes_durable() {
        let mut d = SimDisk::new(StorageFaults::none(), 1);
        d.append(b"hello");
        assert!(d.durable.is_empty());
        assert_eq!(d.pending.len(), 5);
        d.sync();
        assert_eq!(d.durable_contents(), b"hello");
        assert!(d.pending.is_empty());
    }

    #[test]
    fn crash_loses_unsynced_suffix_on_perfect_disk() {
        let mut d = SimDisk::new(StorageFaults::none(), 1);
        d.append(b"synced");
        d.sync();
        d.append(b"doomed");
        d.crash();
        assert_eq!(d.durable_contents(), b"synced");
        assert_eq!(d.stats().lost_bytes, 6);
        assert_eq!(d.stats().crashes, 1);
    }

    #[test]
    fn torn_write_keeps_a_strict_prefix() {
        let faults = StorageFaults::none().with_torn_write(1.0);
        let mut d = SimDisk::new(faults, 3);
        d.append(b"base");
        d.sync();
        d.append(b"0123456789");
        d.crash();
        let tail = &d.durable_contents()[4..];
        assert!(tail.len() < 10, "torn write must not keep everything");
        assert_eq!(tail, &b"0123456789"[..tail.len()], "prefix, in order");
        assert_eq!(d.stats().torn_crashes, 1);
    }

    #[test]
    fn bit_flip_corrupts_exactly_one_bit_in_the_tail() {
        let faults = StorageFaults::none().with_bit_flip(1.0);
        let mut d = SimDisk::new(faults, 7);
        let image: Vec<u8> = (0..200u8).cycle().take(500).collect();
        d.append(&image);
        d.sync();
        d.crash();
        let diff: Vec<usize> = (0..500)
            .filter(|&i| d.durable_contents()[i] != image[i])
            .collect();
        assert_eq!(diff.len(), 1, "exactly one corrupted byte");
        assert!(diff[0] >= 500 - FLIP_WINDOW, "flip lands in the tail");
        let delta = d.durable_contents()[diff[0]] ^ image[diff[0]];
        assert_eq!(delta.count_ones(), 1, "exactly one flipped bit");
        assert_eq!(d.stats().bit_flips, 1);
    }

    #[test]
    fn crashes_are_deterministic_per_seed() {
        let faults = StorageFaults::none()
            .with_torn_write(0.7)
            .with_bit_flip(0.5);
        let run = |seed| {
            let mut d = SimDisk::new(faults, seed);
            for i in 0..20u8 {
                d.append(&[i; 33]);
                if i % 3 == 0 {
                    d.sync();
                }
                if i % 5 == 4 {
                    d.crash();
                }
            }
            d.crash();
            d.durable_contents().to_vec()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10), "different seeds tear differently");
    }

    #[test]
    fn replace_is_atomic_and_durable() {
        let mut d = SimDisk::new(StorageFaults::none().with_torn_write(1.0), 2);
        d.append(b"old-old-old");
        d.sync();
        d.append(b"pending-junk");
        d.replace(b"fresh".to_vec());
        d.crash();
        assert_eq!(d.durable_contents(), b"fresh");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_probability_rejected() {
        let _ = StorageFaults::none().with_torn_write(2.0);
    }
}
