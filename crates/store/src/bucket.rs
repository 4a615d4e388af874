//! A peer's durable bucket store: an op log plus snapshot/compaction.
//!
//! [`BucketStore`] persists a set of `(identifier, payload)` entries —
//! the payload is opaque bytes, so this crate needs no knowledge of the
//! range types layered above it — across two [`SimDisk`] files:
//!
//! * the **op log**: one CRC-framed record per [`BucketStore::place`] /
//!   [`BucketStore::evict`], tagged with the store's current snapshot
//!   *generation*;
//! * the **snapshot file**: full-state checkpoints appended by
//!   [`BucketStore::compact`], each carrying the generation it starts.
//!
//! Recovery ([`BucketStore::recover`]) reads the snapshot file with the
//! lenient scan (a corrupt newest checkpoint falls back to the last
//! older valid one — or to the empty state), then replays the strict
//! longest-valid-prefix of the op log, applying only ops whose
//! generation matches the checkpoint actually used; ops written after a
//! checkpoint that could not be read are ignored rather than misapplied
//! to an older base. The result is always a *valid* state — possibly
//! stale (that is what anti-entropy repair is for), never a panic.
//!
//! Durability window: ops reach the volatile write buffer immediately
//! and the durable image every `sync_every` ops (1 = write-through), so
//! a crash loses at most `sync_every - 1` tail ops — fewer if the crash
//! tears, more if it flips a bit inside the last synced record.

use crate::disk::{DiskStats, SimDisk, StorageFaults};
use crate::log::{append_record, recover, recover_lenient};
use std::collections::BTreeSet;

/// Op-record tags.
const TAG_PLACE: u8 = 1;
const TAG_EVICT: u8 = 2;

/// Tuning for a [`BucketStore`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreConfig {
    /// Crash-fault surface of both backing disks.
    pub faults: StorageFaults,
    /// Sync the op log every this many ops (≥ 1; 1 = write-through).
    pub sync_every: usize,
    /// Compact (checkpoint + truncate the log) every this many ops;
    /// 0 disables automatic compaction.
    pub compact_every: usize,
}

impl Default for StoreConfig {
    /// Write-through on a perfect disk, no automatic compaction.
    fn default() -> StoreConfig {
        StoreConfig {
            faults: StorageFaults::none(),
            sync_every: 1,
            compact_every: 0,
        }
    }
}

impl StoreConfig {
    /// Builder-style: set the fault surface.
    pub fn with_faults(mut self, faults: StorageFaults) -> StoreConfig {
        self.faults = faults;
        self
    }

    /// Builder-style: set the sync interval.
    ///
    /// # Panics
    /// Panics if `n` is zero.
    pub fn with_sync_every(mut self, n: usize) -> StoreConfig {
        assert!(n >= 1, "sync interval must be at least 1");
        self.sync_every = n;
        self
    }

    /// Builder-style: set the auto-compaction interval (0 = never).
    pub fn with_compact_every(mut self, n: usize) -> StoreConfig {
        self.compact_every = n;
        self
    }
}

/// One durable entry: an identifier plus an opaque payload.
pub type Entry = (u32, Vec<u8>);

/// What [`BucketStore::recover`] reconstructed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoverReport {
    /// Entries in the recovered state, in deterministic (sorted) order.
    pub entries: Vec<Entry>,
    /// Generation of the checkpoint the recovery was based on.
    pub snapshot_gen: u32,
    /// Checkpoints skipped because their checksum failed.
    pub snapshots_skipped: usize,
    /// Log ops applied on top of the checkpoint.
    pub ops_applied: usize,
    /// Log ops skipped for belonging to an unreadable newer generation.
    pub ops_skipped: usize,
    /// Bytes discarded past the valid prefixes of both files (torn
    /// tails, corruption).
    pub discarded_bytes: usize,
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u32(bytes: &[u8], at: &mut usize) -> Option<u32> {
    let v = u32::from_le_bytes(bytes.get(*at..*at + 4)?.try_into().ok()?);
    *at += 4;
    Some(v)
}

fn get_slice<'a>(bytes: &'a [u8], at: &mut usize, len: usize) -> Option<&'a [u8]> {
    let s = bytes.get(*at..*at + len)?;
    *at += len;
    Some(s)
}

fn encode_op(tag: u8, gen: u32, ident: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(13 + payload.len());
    out.push(tag);
    put_u32(&mut out, gen);
    put_u32(&mut out, ident);
    put_u32(&mut out, payload.len() as u32);
    out.extend_from_slice(payload);
    out
}

fn decode_op(bytes: &[u8]) -> Option<(u8, u32, u32, Vec<u8>)> {
    let mut at = 0;
    let tag = *bytes.first()?;
    at += 1;
    let gen = get_u32(bytes, &mut at)?;
    let ident = get_u32(bytes, &mut at)?;
    let len = get_u32(bytes, &mut at)? as usize;
    let payload = get_slice(bytes, &mut at, len)?;
    (at == bytes.len()).then(|| (tag, gen, ident, payload.to_vec()))
}

fn encode_snapshot(gen: u32, entries: &BTreeSet<Entry>) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, gen);
    put_u32(&mut out, entries.len() as u32);
    for (ident, payload) in entries {
        put_u32(&mut out, *ident);
        put_u32(&mut out, payload.len() as u32);
        out.extend_from_slice(payload);
    }
    out
}

fn decode_snapshot(bytes: &[u8]) -> Option<(u32, BTreeSet<Entry>)> {
    let mut at = 0;
    let gen = get_u32(bytes, &mut at)?;
    let n = get_u32(bytes, &mut at)? as usize;
    let mut entries = BTreeSet::new();
    for _ in 0..n {
        let ident = get_u32(bytes, &mut at)?;
        let len = get_u32(bytes, &mut at)? as usize;
        let payload = get_slice(bytes, &mut at, len)?;
        entries.insert((ident, payload.to_vec()));
    }
    (at == bytes.len()).then_some((gen, entries))
}

/// A peer's durable bucket store (see module docs).
#[derive(Debug, Clone)]
pub struct BucketStore {
    config: StoreConfig,
    log: SimDisk,
    snapshots: SimDisk,
    /// In-memory mirror of the durable state (what a snapshot captures).
    state: BTreeSet<Entry>,
    gen: u32,
    ops_since_sync: usize,
    ops_since_compact: usize,
    /// Op records appended over the store's lifetime.
    records_appended: u64,
    crashed: bool,
}

impl BucketStore {
    /// An empty store; `seed` drives both disks' fault randomness
    /// deterministically (the two disks fork distinct streams).
    pub fn new(config: StoreConfig, seed: u64) -> BucketStore {
        BucketStore {
            log: SimDisk::new(config.faults, seed ^ 0x109),
            snapshots: SimDisk::new(config.faults, seed ^ 0x54a9),
            config,
            state: BTreeSet::new(),
            gen: 0,
            ops_since_sync: 0,
            ops_since_compact: 0,
            records_appended: 0,
            crashed: false,
        }
    }

    /// # Panics
    /// Panics if the store crashed and has not been recovered since.
    fn assert_live(&self) {
        assert!(!self.crashed, "store used after crash without recover()");
    }

    fn log_op(&mut self, tag: u8, ident: u32, payload: &[u8]) {
        let op = encode_op(tag, self.gen, ident, payload);
        let mut framed = Vec::new();
        append_record(&mut framed, &op);
        self.log.append(&framed);
        self.records_appended += 1;
        self.ops_since_sync += 1;
        if self.ops_since_sync >= self.config.sync_every {
            self.log.sync();
            self.ops_since_sync = 0;
        }
        self.ops_since_compact += 1;
        if self.config.compact_every > 0 && self.ops_since_compact >= self.config.compact_every {
            self.compact();
        }
    }

    /// Record the placement of `(ident, payload)`. Returns false (and
    /// writes nothing) if the entry is already present.
    ///
    /// # Panics
    /// Panics, changing nothing, if the store crashed and has not been
    /// [recovered](Self::recover) since.
    pub fn place(&mut self, ident: u32, payload: &[u8]) -> bool {
        self.assert_live();
        if !self.state.insert((ident, payload.to_vec())) {
            return false;
        }
        self.log_op(TAG_PLACE, ident, payload);
        true
    }

    /// Record the eviction of `(ident, payload)`. Returns false (and
    /// writes nothing) if the entry was not present.
    ///
    /// # Panics
    /// Panics, changing nothing, if the store crashed and has not been
    /// [recovered](Self::recover) since.
    pub fn evict(&mut self, ident: u32, payload: &[u8]) -> bool {
        self.assert_live();
        if !self.state.remove(&(ident, payload.to_vec())) {
            return false;
        }
        self.log_op(TAG_EVICT, ident, payload);
        true
    }

    /// Force-sync the op log (fsync).
    pub fn sync(&mut self) {
        self.log.sync();
        self.ops_since_sync = 0;
    }

    /// Checkpoint the full state into the snapshot file and truncate the
    /// op log. Subsequent ops are tagged with the new generation, so a
    /// recovery that cannot read this checkpoint will not misapply them
    /// to an older base.
    ///
    /// # Panics
    /// Panics if the store crashed and has not been
    /// [recovered](Self::recover) since.
    pub fn compact(&mut self) {
        self.assert_live();
        self.gen += 1;
        let mut framed = Vec::new();
        append_record(&mut framed, &encode_snapshot(self.gen, &self.state));
        self.snapshots.append(&framed);
        self.snapshots.sync();
        self.log.replace(Vec::new());
        self.ops_since_sync = 0;
        self.ops_since_compact = 0;
    }

    /// Crash the owning peer: both disks take their crash faults (lost
    /// un-synced suffixes, torn tails, bit flips) and the in-memory state
    /// is gone. Only [`BucketStore::recover`] may be called next.
    pub fn crash(&mut self) {
        self.log.crash();
        self.snapshots.crash();
        self.state.clear();
        self.crashed = true;
    }

    /// Recover from the durable images: latest readable checkpoint plus
    /// the longest valid log prefix (see module docs). Leaves the store
    /// compacted to the recovered state and ready for new ops. Never
    /// panics, whatever the disks contain.
    pub fn recover(&mut self) -> RecoverReport {
        let snap_scan = recover_lenient(self.snapshots.durable_contents());
        let mut snapshots_skipped = snap_scan.corrupt_skipped;
        let mut base_gen = 0u32;
        let mut state = BTreeSet::new();
        // Walk checkpoints newest-first; a checksum-valid record can
        // still be semantically short (e.g. torn mid-entry would fail
        // CRC, but be defensive), so fall back until one decodes.
        for snap in snap_scan.records.iter().rev() {
            match decode_snapshot(snap) {
                Some((gen, entries)) => {
                    base_gen = gen;
                    state = entries;
                    break;
                }
                None => snapshots_skipped += 1,
            }
        }
        let log_scan = recover(self.log.durable_contents());
        let mut ops_applied = 0;
        let mut ops_skipped = 0;
        for record in &log_scan.records {
            match decode_op(record) {
                Some((tag, gen, ident, payload)) if gen == base_gen => {
                    ops_applied += 1;
                    match tag {
                        TAG_PLACE => {
                            state.insert((ident, payload));
                        }
                        TAG_EVICT => {
                            state.remove(&(ident, payload));
                        }
                        _ => ops_skipped += 1,
                    }
                }
                _ => ops_skipped += 1,
            }
        }
        let report = RecoverReport {
            entries: state.iter().cloned().collect(),
            snapshot_gen: base_gen,
            snapshots_skipped,
            ops_applied,
            ops_skipped,
            discarded_bytes: log_scan.discarded_bytes + snap_scan.discarded_bytes,
        };
        // Reset to a clean, compacted image of the recovered state so
        // the store can serve (and crash) again.
        self.state = state;
        self.gen = base_gen + 1;
        let mut framed = Vec::new();
        append_record(&mut framed, &encode_snapshot(self.gen, &self.state));
        self.snapshots.replace(framed);
        self.log.replace(Vec::new());
        self.ops_since_sync = 0;
        self.ops_since_compact = 0;
        self.crashed = false;
        report
    }

    /// Current in-memory entries, in deterministic (sorted) order.
    pub fn entries(&self) -> impl Iterator<Item = &Entry> + '_ {
        self.state.iter()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.state.len()
    }

    /// True if the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.state.is_empty()
    }

    /// Op records appended over the store's lifetime.
    pub fn records_appended(&self) -> u64 {
        self.records_appended
    }

    /// Current snapshot generation.
    pub fn generation(&self) -> u32 {
        self.gen
    }

    /// Bytes in the op log (durable + pending).
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// Combined disk counters (log + snapshot file).
    pub fn disk_stats(&self) -> DiskStats {
        let (a, b) = (self.log.stats(), self.snapshots.stats());
        DiskStats {
            appended_bytes: a.appended_bytes + b.appended_bytes,
            synced_bytes: a.synced_bytes + b.synced_bytes,
            lost_bytes: a.lost_bytes + b.lost_bytes,
            torn_crashes: a.torn_crashes + b.torn_crashes,
            bit_flips: a.bit_flips + b.bit_flips,
            crashes: a.crashes + b.crashes,
        }
    }

    /// The store's tuning.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(store: &BucketStore) -> Vec<Entry> {
        store.entries().cloned().collect()
    }

    #[test]
    fn place_evict_round_trip_through_crash() {
        let mut s = BucketStore::new(StoreConfig::default(), 1);
        assert!(s.place(7, b"a"));
        assert!(!s.place(7, b"a"), "duplicate place is a no-op");
        assert!(s.place(7, b"b"));
        assert!(s.place(9, b"c"));
        assert!(s.evict(7, b"b"));
        assert!(!s.evict(7, b"zzz"), "evicting a stranger is a no-op");
        let before = entries(&s);
        s.crash();
        let report = s.recover();
        assert_eq!(report.entries, before);
        assert_eq!(entries(&s), before);
        assert_eq!(report.ops_applied, 4, "3 places + 1 evict replayed");
        assert_eq!(report.discarded_bytes, 0);
    }

    #[test]
    fn unsynced_tail_ops_are_lost_but_prefix_survives() {
        let config = StoreConfig::default().with_sync_every(100); // never auto-sync
        let mut s = BucketStore::new(config, 2);
        s.place(1, b"durable");
        s.sync();
        s.place(2, b"doomed-1");
        s.place(3, b"doomed-2");
        s.crash();
        let report = s.recover();
        assert_eq!(report.entries, vec![(1, b"durable".to_vec())]);
    }

    #[test]
    fn compaction_checkpoint_survives_crash() {
        let config = StoreConfig::default().with_compact_every(3);
        let mut s = BucketStore::new(config, 3);
        let mut append_only = BucketStore::new(StoreConfig::default(), 3);
        for i in 0..10u32 {
            s.place(i, &i.to_le_bytes());
            append_only.place(i, &i.to_le_bytes());
        }
        assert!(s.generation() > 0, "auto-compaction ran");
        assert!(
            s.log_len() < append_only.log_len(),
            "compaction must bound the op log ({} vs {} bytes append-only)",
            s.log_len(),
            append_only.log_len()
        );
        let before = entries(&s);
        s.crash();
        assert_eq!(s.recover().entries, before);
    }

    #[test]
    fn recovery_after_recovery_is_stable() {
        let mut s = BucketStore::new(StoreConfig::default(), 4);
        for i in 0..20u32 {
            s.place(i % 5, format!("p{i}").as_bytes());
        }
        s.crash();
        let first = s.recover();
        // Append more after recovery; the log must keep working.
        assert!(s.place(99, b"post-recovery"));
        s.crash();
        let second = s.recover();
        let mut expected = first.entries.clone();
        expected.push((99, b"post-recovery".to_vec()));
        expected.sort();
        assert_eq!(second.entries, expected);
    }

    #[test]
    fn corrupt_newest_checkpoint_falls_back_to_older_one() {
        // Force a bit flip at crash time: the newest checkpoint is the
        // disk tail, so with two checkpoints on file the flip hits the
        // newest and recovery must fall back.
        let faults = StorageFaults::none().with_bit_flip(1.0);
        let config = StoreConfig::default().with_faults(faults);
        let mut s = BucketStore::new(config, 5);
        s.place(1, b"old");
        s.compact(); // checkpoint gen 1: {(1, old)}
        s.place(2, b"new");
        s.compact(); // checkpoint gen 2: {(1, old), (2, new)}
        s.crash(); // flips a bit in the tail = inside checkpoint 2
        let report = s.recover();
        assert_eq!(report.snapshots_skipped, 1, "newest checkpoint corrupt");
        assert_eq!(report.snapshot_gen, 1, "fell back one generation");
        assert_eq!(report.entries, vec![(1, b"old".to_vec())]);
    }

    #[test]
    fn ops_after_unreadable_checkpoint_are_not_misapplied() {
        let faults = StorageFaults::none().with_bit_flip(1.0);
        let config = StoreConfig::default().with_faults(faults);
        let mut s = BucketStore::new(config, 6);
        s.place(1, b"base");
        s.compact(); // gen 1
                     // A payload wider than the crash-time flip window guarantees the
                     // flip lands inside checkpoint 2, not checkpoint 1.
        s.place(2, &[0x55; 100]);
        s.compact(); // gen 2: {(1, base), (2, big)}
        s.place(3, b"gen2-op"); // logged under gen 2
                                // Another wide record so the log disk's own tail flip corrupts
                                // this one, leaving the gen-2 op intact for the scanner.
        s.place(4, &[0x77; 100]);
        s.sync();
        s.crash(); // corrupts checkpoint 2 (disk tail)
        let report = s.recover();
        assert_eq!(report.snapshot_gen, 1);
        assert_eq!(report.ops_skipped, 1, "gen-2 op must not touch gen-1 base");
        assert_eq!(report.entries, vec![(1, b"base".to_vec())]);
    }

    #[test]
    fn crash_restart_is_deterministic_per_seed() {
        let faults = StorageFaults::none()
            .with_torn_write(0.5)
            .with_bit_flip(0.3);
        let config = StoreConfig::default()
            .with_faults(faults)
            .with_sync_every(4);
        let run = |seed| {
            let mut s = BucketStore::new(config, seed);
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
        let mut s = BucketStore::new(StoreConfig::default(), 7);
        s.crash();
        s.place(1, b"x");
    }

    #[test]
    fn an_op_rejected_after_a_crash_changes_nothing() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut s = BucketStore::new(StoreConfig::default(), 8);
        s.place(1, b"kept");
        s.crash();
        let place = catch_unwind(AssertUnwindSafe(|| s.place(2, b"x")));
        let evict = catch_unwind(AssertUnwindSafe(|| s.evict(1, b"kept")));
        assert!(place.is_err() && evict.is_err(), "both rejected");
        assert!(s.is_empty(), "memory untouched by the rejected ops");
        assert_eq!(s.records_appended(), 1, "the log too");
        assert_eq!(s.recover().entries, vec![(1, b"kept".to_vec())]);
    }
}
