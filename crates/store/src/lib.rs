//! Durable bucket storage for the `ars` workspace.
//!
//! Zero-dependency crate supplying the persistence layer under
//! `ars_core::ChurnNetwork`'s crash/restart transitions:
//!
//! * [`SimDisk`] — a simulated append-only file with an fsync boundary
//!   and a deterministic crash-fault surface ([`StorageFaults`]): lost
//!   un-synced suffixes, torn tail writes, tail bit flips;
//! * [`append_record`] / [`recover`] / [`recover_lenient`] — CRC-32-framed
//!   records with longest-valid-prefix recovery (strict) and skip-corrupt
//!   scanning (lenient, for snapshot files);
//! * [`BucketStore`] — a peer's `(identifier, payload)` entries persisted
//!   as an op log plus generation-tagged checkpoints, with compaction and
//!   a never-panicking [`BucketStore::recover`].
//!
//! Everything is a pure function of the seed: the same crash schedule
//! under the same `ARS_FAULT_SEED` tears the same bytes, so recovery
//! behavior is replayable bit-for-bit.
//!
//! ```
//! use ars_store::{BucketStore, StoreConfig};
//!
//! let mut store = BucketStore::new(StoreConfig::default(), 42);
//! store.place(7, b"partition-bytes");
//! store.crash();
//! let recovered = store.recover();
//! assert_eq!(recovered.entries, vec![(7, b"partition-bytes".to_vec())]);
//! ```

#![warn(missing_docs)]

mod bucket;
mod crc;
mod disk;
mod log;

pub use bucket::{BucketStore, Entry, RecoverReport, StoreConfig};
pub use crc::crc32;
pub use disk::{DiskStats, SimDisk, StorageFaults};
pub use log::{append_record, encode_record, recover, recover_lenient, Recovery};
