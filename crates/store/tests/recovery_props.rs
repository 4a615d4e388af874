//! Property tests for log recovery.
//!
//! * Truncating a valid log image at **every** byte offset recovers a
//!   valid checksummed prefix of the original records — deterministically
//!   exhaustive, then re-randomized by proptest over record shapes.
//! * Any single-bit flip anywhere in the image never yields a phantom
//!   record: recovery still returns a (possibly shorter) prefix.
//! * Re-appending after recovery yields a log that recovers to the
//!   recovered state plus the new records.
//! * The full [`BucketStore`] round-trips through arbitrary
//!   crash/recover schedules without panicking, and recovered states are
//!   reproducible bit-for-bit per seed.
//! * On a perfect disk, every recovery returns exactly the entries a
//!   plain set driven by the same ops holds.
//!
//! The seed honors `ARS_FAULT_SEED` (default 0), same as the workspace's
//! fault-injection suite, so CI sweeps seeds 0–3 over these properties.

use ars_common::env_seed;
use ars_store::{recover, BucketStore, StorageFaults};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Build a log image from payloads.
fn image(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    for p in payloads {
        ars_store::append_record(&mut out, p);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Truncation at every byte offset of a random log image always
    /// recovers a valid prefix of the original record sequence.
    #[test]
    fn truncation_at_every_offset_recovers_a_prefix(
        payloads in prop::collection::vec(
            prop::collection::vec(any::<u8>(), 0..40), 1..8),
    ) {
        let img = image(&payloads);
        let full = recover(&img);
        prop_assert!(full.is_clean());
        prop_assert_eq!(&full.records, &payloads);
        for cut in 0..=img.len() {
            let rec = recover(&img[..cut]);
            prop_assert!(rec.records.len() <= payloads.len());
            prop_assert_eq!(
                &rec.records[..], &payloads[..rec.records.len()],
                "cut at {} broke the prefix property", cut
            );
            prop_assert_eq!(rec.valid_bytes + rec.discarded_bytes, cut);
        }
    }

    /// Random single-bit flips: recovery never panics, never invents a
    /// record, and always returns a prefix of the original sequence.
    #[test]
    fn single_bit_flips_never_yield_phantom_records(
        payloads in prop::collection::vec(
            prop::collection::vec(any::<u8>(), 0..32), 1..6),
        flip_pos in any::<u64>(),
        flip_bit in 0u8..8,
    ) {
        let img = image(&payloads);
        let mut bad = img.clone();
        let byte = (flip_pos ^ env_seed("ARS_FAULT_SEED")) as usize % bad.len();
        bad[byte] ^= 1 << flip_bit;
        let strict = recover(&bad);
        prop_assert!(strict.records.len() <= payloads.len());
        prop_assert_eq!(&strict.records[..], &payloads[..strict.records.len()]);
    }

    /// Re-appending after recovery: the surviving prefix plus the new
    /// records is exactly what a second recovery returns.
    #[test]
    fn reappend_after_recovery_recovers_to_the_same_state(
        payloads in prop::collection::vec(
            prop::collection::vec(any::<u8>(), 0..32), 1..6),
        cut_frac in 0.0f64..1.0,
        extra in prop::collection::vec(
            prop::collection::vec(any::<u8>(), 0..32), 1..4),
    ) {
        let img = image(&payloads);
        let cut = (img.len() as f64 * cut_frac) as usize;
        let first = recover(&img[..cut]);
        // A real restart would truncate to the valid prefix and keep
        // appending from there.
        let mut resumed = img[..first.valid_bytes].to_vec();
        for p in &extra {
            ars_store::append_record(&mut resumed, p);
        }
        let second = recover(&resumed);
        prop_assert!(second.is_clean());
        let mut expected = first.records.clone();
        expected.extend(extra.iter().cloned());
        prop_assert_eq!(second.records, expected);
    }

    /// BucketStore under arbitrary place/crash schedules with tail
    /// bit flips: recovery never panics, always yields a subset-consistent
    /// state, and replays bit-identically per seed. On a perfect disk it
    /// recovers exactly what a plain set holds after the same ops.
    #[test]
    fn bucket_store_survives_arbitrary_crash_schedules(
        ops in prop::collection::vec((0u8..3, 0u32..16, any::<u8>()), 1..40),
        bit_flip_p in 0.0f64..0.6,
        seed in 0u64..1_000,
    ) {
        let run = |faults| {
            let mut store = BucketStore::new(faults, seed ^ (env_seed("ARS_FAULT_SEED") << 32));
            let mut set = BTreeSet::new();
            let mut reports = Vec::new();
            let mut sets = Vec::new();
            for &(op, ident, byte) in &ops {
                match op {
                    0 | 1 => {
                        store.place(ident, &[byte, op]);
                        set.insert((ident, vec![byte, op]));
                    }
                    _ => {
                        store.crash();
                        reports.push(store.recover());
                        sets.push(set.iter().cloned().collect::<Vec<_>>());
                    }
                }
            }
            store.crash();
            reports.push(store.recover());
            sets.push(set.into_iter().collect());
            (reports, sets)
        };
        let faults = StorageFaults::none().with_bit_flip(bit_flip_p);
        let (a, _) = run(faults);
        let (b, _) = run(faults);
        prop_assert_eq!(&a, &b, "crash-recovery must replay bit-identically");
        let (perfect, sets) = run(StorageFaults::none());
        for (report, set) in perfect.iter().zip(&sets) {
            prop_assert_eq!(&report.entries, set);
            prop_assert_eq!(report.discarded_bytes, 0);
        }
        // Each recovered state only ever contains entries we placed.
        for report in &a {
            for (ident, payload) in &report.entries {
                prop_assert!(*ident < 16);
                prop_assert_eq!(payload.len(), 2);
            }
        }
    }
}
