//! Durable bucket storage for the `ars` workspace.
//!
//! Zero-dependency crate supplying the persistence layer under
//! `ars_core::ChurnNetwork`'s crash/restart transitions:
//!
//! * [`append_record`] / [`recover`] — CRC-32-framed records with
//!   longest-valid-prefix recovery;
//! * [`BucketStore`] — a peer's `(identifier, payload)` placements as one
//!   write-through op log on a simulated disk whose crash fault is a tail
//!   bit flip ([`StorageFaults`]), with a never-panicking
//!   [`BucketStore::recover`] that keeps the log's valid prefix
//!   and appends after it.
//!
//! Everything is a pure function of the seed: the same crash schedule
//! under the same `ARS_FAULT_SEED` flips the same bits, so recovery
//! behavior is replayable bit-for-bit.
//!
//! ```
//! use ars_store::{BucketStore, StorageFaults};
//!
//! let mut store = BucketStore::new(StorageFaults::none(), 42);
//! store.place(9, b"placed-first");
//! store.place(7, b"placed-second");
//! store.crash();
//! let recovered = store.recover();
//! assert_eq!(
//!     recovered.entries,
//!     vec![(7, b"placed-second".to_vec()), (9, b"placed-first".to_vec())]
//! );
//! ```

#![warn(missing_docs)]

mod bucket;
mod crc;
mod disk;
mod log;

pub use bucket::{BucketStore, Entry, RecoverReport};
pub use crc::crc32;
pub use disk::{DiskStats, StorageFaults};
pub use log::{append_record, recover, Recovery};
