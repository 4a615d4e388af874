//! A peer's durable bucket store: one write-through op log.
//!
//! [`BucketStore`] persists a set of `(identifier, payload)` entries —
//! the payload is opaque bytes, so this crate needs no knowledge of the
//! range types layered above it — as one CRC-framed record per
//! [`BucketStore::place`] on one [`SimDisk`]. Every record is durable
//! when the call returns. The store keeps no copy of the entries in
//! memory: the peer that owns it already holds them, and only places what
//! it did not hold. Entries leave only with the disk: cached partitions
//! are soft state, so nothing is ever evicted.
//!
//! Recovery ([`BucketStore::recover`]) replays the longest valid prefix
//! of the log into the entry set, truncates the image to that prefix and
//! keeps appending after it, so ops written after a restart stay
//! reachable by the next one. The result is always a *valid* state —
//! possibly stale (that is what anti-entropy repair is for), never a
//! panic.

use crate::disk::{DiskStats, SimDisk, StorageFaults};
use crate::log::{append_record, recover};
use std::collections::BTreeSet;

/// The op-record tag of a placement, the only op.
const TAG_PLACE: u8 = 1;

/// One durable entry: an identifier plus an opaque payload.
pub type Entry = (u32, Vec<u8>);

/// What [`BucketStore::recover`] reconstructed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoverReport {
    /// Entries in the recovered state, in deterministic (sorted) order.
    pub entries: Vec<Entry>,
    /// Bytes discarded past the log's valid prefix (corruption).
    pub discarded_bytes: usize,
}

fn get_u32(bytes: &[u8], at: &mut usize) -> Option<u32> {
    let v = u32::from_le_bytes(bytes.get(*at..*at + 4)?.try_into().ok()?);
    *at += 4;
    Some(v)
}

/// A placement record: `[tag u8][reserved u32 = 0][ident u32][len u32]
/// [payload]`. The tag (always `TAG_PLACE`) and the reserved word hold
/// each record at its length, and with it which record a crash-time bit
/// flip lands in: the `crash_recovery` headline's traces and recovered
/// counts are pinned to this layout.
fn encode_op(ident: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(13 + payload.len());
    out.push(TAG_PLACE);
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(&ident.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn decode_op(bytes: &[u8]) -> Option<Entry> {
    let tag = *bytes.first()?;
    let mut at = 5;
    let ident = get_u32(bytes, &mut at)?;
    let len = get_u32(bytes, &mut at)? as usize;
    let payload = bytes.get(at..)?;
    (tag == TAG_PLACE && payload.len() == len).then(|| (ident, payload.to_vec()))
}

/// A peer's durable bucket store (see module docs).
#[derive(Debug, Clone)]
pub struct BucketStore {
    log: SimDisk,
    /// Op records appended over the store's lifetime.
    records_appended: u64,
    crashed: bool,
}

impl BucketStore {
    /// An empty store on a disk with the `faults` crash surface; `seed`
    /// drives the disk's fault randomness deterministically.
    pub fn new(faults: StorageFaults, seed: u64) -> BucketStore {
        BucketStore {
            log: SimDisk::new(faults, seed ^ 0x109),
            records_appended: 0,
            crashed: false,
        }
    }

    /// Record the placement of `(ident, payload)`, durably.
    ///
    /// # Panics
    /// Panics, changing nothing, if the store crashed and has not been
    /// [recovered](Self::recover) since.
    pub fn place(&mut self, ident: u32, payload: &[u8]) {
        assert!(!self.crashed, "store used after crash without recover()");
        let mut framed = Vec::new();
        append_record(&mut framed, &encode_op(ident, payload));
        self.log.append(&framed);
        self.records_appended += 1;
    }

    /// Crash the owning peer: the disk takes its crash fault (a possible
    /// tail bit flip). Only [`BucketStore::recover`] may be called next.
    pub fn crash(&mut self) {
        self.log.crash();
        self.crashed = true;
    }

    /// Recover from the durable image: replay the longest valid log
    /// prefix, truncate the image to it and leave the store ready for new
    /// ops. Never panics, whatever the disk contains.
    pub fn recover(&mut self) -> RecoverReport {
        let scan = recover(self.log.contents());
        let state: BTreeSet<Entry> = scan.records.iter().filter_map(|r| decode_op(r)).collect();
        self.log.truncate(scan.valid_bytes);
        self.crashed = false;
        RecoverReport {
            entries: state.into_iter().collect(),
            discarded_bytes: scan.discarded_bytes,
        }
    }

    /// Op records appended over the store's lifetime.
    pub fn records_appended(&self) -> u64 {
        self.records_appended
    }

    /// The log disk's counters.
    pub fn disk_stats(&self) -> DiskStats {
        *self.log.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn places_recover_sorted_after_a_clean_crash() {
        let mut s = BucketStore::new(StorageFaults::none(), 1);
        s.place(7, b"b");
        s.place(7, b"a");
        s.place(9, b"c");
        s.crash();
        let report = s.recover();
        assert_eq!(
            report.entries,
            vec![(7, b"a".to_vec()), (7, b"b".to_vec()), (9, b"c".to_vec())]
        );
        assert_eq!(report.discarded_bytes, 0);
    }

    #[test]
    fn flipped_tail_op_is_lost_but_prefix_survives() {
        let mut s = BucketStore::new(StorageFaults::none().with_bit_flip(1.0), 2);
        s.place(1, b"durable");
        // Wider than the flip window, so the flip lands in this record.
        s.place(2, &[0x55; 100]);
        s.crash();
        let report = s.recover();
        assert_eq!(report.entries, vec![(1, b"durable".to_vec())]);
        assert_eq!(
            report.discarded_bytes,
            8 + 13 + 100,
            "the whole last record"
        );
    }

    #[test]
    fn recovery_after_recovery_is_stable() {
        // Every crash flips a bit in the log tail; a wide last record
        // takes the flip, so recovery keeps everything before it.
        let faults = StorageFaults::none().with_bit_flip(1.0);
        let mut s = BucketStore::new(faults, 4);
        for i in 0..20u32 {
            s.place(i % 5, format!("p{i}").as_bytes());
        }
        s.place(50, &[0x55; 100]);
        s.crash();
        let first = s.recover();
        assert!(first.discarded_bytes > 0, "the flipped tail is discarded");
        assert_eq!(first.entries.len(), 20, "everything before it survives");
        // Append after recovery: without truncating the corrupt tail,
        // these records would sit behind it, out of the scan's reach.
        s.place(99, b"post-recovery");
        s.place(51, &[0x77; 100]);
        s.crash();
        let second = s.recover();
        let mut expected = first.entries.clone();
        expected.push((99, b"post-recovery".to_vec()));
        expected.sort();
        assert_eq!(second.entries, expected);
    }

    #[test]
    fn crash_restart_is_deterministic_per_seed() {
        let faults = StorageFaults::none().with_bit_flip(0.3);
        let run = |seed| {
            let mut s = BucketStore::new(faults, seed);
            let mut history = Vec::new();
            for round in 0..6u32 {
                for i in 0..15u32 {
                    s.place(i, &(round * 100 + i).to_le_bytes());
                }
                s.crash();
                history.push(s.recover());
            }
            history
        };
        assert_eq!(run(11), run(11));
    }

    #[test]
    #[should_panic(expected = "after crash")]
    fn use_after_crash_without_recover_is_rejected() {
        let mut s = BucketStore::new(StorageFaults::none(), 7);
        s.crash();
        s.place(1, b"x");
    }

    #[test]
    fn an_op_rejected_after_a_crash_changes_nothing() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut s = BucketStore::new(StorageFaults::none(), 8);
        s.place(1, b"kept");
        s.crash();
        let place = catch_unwind(AssertUnwindSafe(|| s.place(2, b"x")));
        assert!(place.is_err(), "rejected");
        assert_eq!(s.records_appended(), 1, "the log untouched");
        assert_eq!(s.recover().entries, vec![(1, b"kept".to_vec())]);
    }
}
