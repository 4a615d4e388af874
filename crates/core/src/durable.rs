//! Durable bucket storage wiring: configuration and the on-disk codec.
//!
//! [`crate::ChurnNetwork`] can persist every peer's cached partitions to an
//! [`ars_store::BucketStore`] — a write-through, CRC-framed op log over a
//! simulated disk. This module holds the glue that keeps `ars-store`
//! payload-agnostic:
//!
//! * [`DurabilityConfig`] — the disks' fault surface plus the per-peer
//!   seed derivation, configured via
//!   [`crate::SystemConfig::with_durability`];
//! * [`encode_range`] / `decode_range` — the byte codec for
//!   [`RangeSet`] payloads (interval list, little-endian u32 pairs),
//!   decoded defensively so a corrupt payload that slipped past the log
//!   CRC degrades to a dropped entry, never a panic;
//! * `digest_bytes` — the FNV-1a hash under the anti-entropy digests
//!   (hand-rolled so digests are stable across platforms and reruns).

use ars_lsh::RangeSet;
use ars_store::StorageFaults;

/// Durability knobs for a [`crate::ChurnNetwork`].
///
/// `None` in [`crate::SystemConfig::durability`] (the default) keeps the
/// paper's purely soft-state behavior: crashes lose everything and queries
/// rebuild the cache. `Some` gives every peer a [`ars_store::BucketStore`]
/// whose disk flips a tail bit on a crash per the configured fault surface
/// (`default()`: a perfect disk).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DurabilityConfig {
    /// Crash-fault surface of every peer's simulated disk.
    pub faults: StorageFaults,
}

impl DurabilityConfig {
    /// Builder-style: set the storage fault surface.
    pub fn with_faults(mut self, faults: StorageFaults) -> DurabilityConfig {
        self.faults = faults;
        self
    }

    /// What [`ars_store::BucketStore::new`] takes for one peer's store:
    /// the disk's fault surface.
    pub fn store_config(&self) -> StorageFaults {
        self.faults
    }

    /// Per-peer disk seed: splitmix-style spread of the peer id over the
    /// system seed, so every peer flips different bits while the whole
    /// fleet stays a pure function of `(system seed, peer id)`.
    pub(crate) fn seed_for(&self, system_seed: u64, peer: u32) -> u64 {
        system_seed ^ (peer as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD757_AB1E
    }
}

/// Encode a [`RangeSet`] as a durable payload: `n` (u32 LE) followed by
/// `n` `(lo, hi)` u32 LE pairs, in the set's normalized interval order.
/// Deterministic — equal sets encode to equal bytes, which is what the
/// anti-entropy digests rely on.
pub fn encode_range(range: &RangeSet) -> Vec<u8> {
    let intervals = range.intervals();
    let mut out = Vec::with_capacity(4 + intervals.len() * 8);
    out.extend_from_slice(&(intervals.len() as u32).to_le_bytes());
    for &(lo, hi) in intervals {
        out.extend_from_slice(&lo.to_le_bytes());
        out.extend_from_slice(&hi.to_le_bytes());
    }
    out
}

/// Hand [`encode_range`]'s bytes of `range` to `f`, built on the stack for
/// a range of one interval — every range the paper's workloads cache — so
/// a store writes each copy without a buffer of its own.
pub(crate) fn with_encoded<R>(range: &RangeSet, f: impl FnOnce(&[u8]) -> R) -> R {
    let &[(lo, hi)] = range.intervals() else {
        return f(&encode_range(range));
    };
    let mut bytes = [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
    bytes[4..8].copy_from_slice(&lo.to_le_bytes());
    bytes[8..].copy_from_slice(&hi.to_le_bytes());
    f(&bytes)
}

/// Decode a payload written by [`encode_range`]. Returns `None` for any
/// malformed input — wrong length, inverted interval, trailing bytes —
/// so recovery can drop a damaged entry instead of panicking.
pub(crate) fn decode_range(bytes: &[u8]) -> Option<RangeSet> {
    if bytes.len() < 4 {
        return None;
    }
    let n = u32::from_le_bytes(bytes[..4].try_into().ok()?) as usize;
    if bytes.len() != 4 + n.checked_mul(8)? {
        return None;
    }
    let mut intervals = Vec::with_capacity(n);
    for i in 0..n {
        let at = 4 + i * 8;
        let lo = u32::from_le_bytes(bytes[at..at + 4].try_into().ok()?);
        let hi = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().ok()?);
        if lo > hi {
            return None;
        }
        intervals.push((lo, hi));
    }
    Some(RangeSet::from_intervals(intervals))
}

/// FNV-1a over a byte string — the hash under the per-bucket anti-entropy
/// digests. Hand-rolled (not `std`'s hasher) so digest values are stable
/// across platforms, toolchains, and reruns: repair traces must be
/// byte-identical per seed.
pub(crate) fn digest_bytes(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(lo: u32, hi: u32) -> RangeSet {
        RangeSet::interval(lo, hi)
    }

    #[test]
    fn range_round_trips_through_the_codec() {
        for set in [
            r(0, 0),
            r(30, 50),
            RangeSet::from_intervals([(1, 5), (10, 20), (100, u32::MAX)]),
        ] {
            assert_eq!(decode_range(&encode_range(&set)), Some(set));
        }
    }

    #[test]
    fn stack_encoding_equals_encode_range() {
        for set in [
            r(0, 0),
            r(30, 50),
            r(u32::MAX - 3, u32::MAX),
            RangeSet::from_intervals([(1, 5), (10, 20)]),
            RangeSet::empty(),
        ] {
            assert_eq!(with_encoded(&set, <[u8]>::to_vec), encode_range(&set));
        }
    }

    #[test]
    fn malformed_payloads_decode_to_none() {
        assert_eq!(decode_range(&[]), None);
        assert_eq!(decode_range(&[1, 0, 0]), None, "short header");
        assert_eq!(decode_range(&1u32.to_le_bytes()), None, "missing body");
        // Inverted interval.
        let mut bad = encode_range(&r(10, 20));
        bad[4..8].copy_from_slice(&30u32.to_le_bytes());
        assert_eq!(decode_range(&bad), None);
        // Trailing garbage.
        let mut long = encode_range(&r(10, 20));
        long.push(0);
        assert_eq!(decode_range(&long), None);
        // Length field claiming more than the buffer holds.
        assert_eq!(decode_range(&u32::MAX.to_le_bytes()), None);
    }

    #[test]
    fn equal_sets_encode_identically() {
        let a = RangeSet::from_intervals([(5, 10), (12, 20)]);
        let b = RangeSet::from_intervals([(12, 20), (5, 10)]);
        assert_eq!(encode_range(&a), encode_range(&b));
        assert_eq!(
            digest_bytes(&encode_range(&a)),
            digest_bytes(&encode_range(&b))
        );
    }

    #[test]
    fn digest_is_the_reference_fnv1a() {
        // FNV-1a test vectors.
        assert_eq!(digest_bytes(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn per_peer_seeds_differ() {
        let d = DurabilityConfig::default();
        assert_ne!(d.seed_for(7, 1), d.seed_for(7, 2));
        assert_eq!(d.seed_for(7, 1), d.seed_for(7, 1));
    }
}
