//! Shared utilities for the `ars` workspace.
//!
//! This crate deliberately has **no external dependencies**: everything the
//! rest of the system needs for deterministic pseudo-randomness, fast
//! non-cryptographic hashing, summary statistics, and CSV result output is
//! implemented here so that experiments are reproducible bit-for-bit across
//! machines and crate-version bumps.

#![warn(missing_docs)]

pub mod csv;
mod fxhash;
mod rng;
pub mod stats;

pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use rng::{env_seed, DetRng};
pub use stats::{Histogram, Summary};
