//! Synthetic query workloads.
//!
//! The paper's quality experiments (§5.1–5.2) use "a set of 10,000 integer
//! ranges with integers in 0 and 1000 … generated uniformly at random"
//! with ≈0.2% exact repetitions. [`uniform_trace`] regenerates that
//! workload from a seed; Zipf-skewed and clustered variants model the
//! popularity skew real P2P query streams exhibit (they make caching far
//! more effective — an extension experiment in `ars-bench`).

#![warn(missing_docs)]

mod generators;
mod trace;

pub use generators::{clustered_trace, uniform_trace, zipf_trace, SizeSweep};
pub use trace::Trace;
