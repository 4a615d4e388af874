//! Approximate range selection queries in peer-to-peer systems.
//!
//! This crate assembles the paper's system (§4) from the substrates:
//! query ranges are hashed by `l` groups of `k` LSH functions
//! ([`ars_lsh`]) into a 32-bit identifier space organised as a Chord ring
//! ([`ars_chord`]); the peers owning the `l` identifiers search their
//! buckets for the best-matching cached partition; and on an inexact match
//! the query's own partition is cached at those peers for future queries.
//!
//! Two renditions of the protocol are provided:
//!
//! * [`network::RangeSelectNetwork`] — the direct-call simulation used by
//!   all experiments (deterministic, fast, full hop accounting);
//! * [`proto`] — the same protocol as explicit messages over
//!   [`ars_simnet`], including a binary wire codec; an integration test
//!   checks the two renditions agree query-for-query.
//!
//! ```
//! use ars_core::{RangeSelectNetwork, SystemConfig};
//! use ars_lsh::RangeSet;
//!
//! let mut net = RangeSelectNetwork::new(50, SystemConfig::default());
//! // First query misses and is cached...
//! let miss = net.query(&RangeSet::interval(30, 50));
//! assert!(miss.best_match.is_none());
//! // ...an identical re-query finds it.
//! let hit = net.query(&RangeSet::interval(30, 50));
//! assert_eq!(hit.recall, 1.0);
//! ```

#![warn(missing_docs)]

pub mod bucket;
mod churn;
pub mod config;
pub mod data;
pub mod durable;
mod engine;
mod exact;
mod index;
pub mod network;
mod peer;
mod plan;
pub mod proto;
pub mod recall;
pub mod resilient;

pub use bucket::Bucket;
pub use churn::{ChurnNetwork, InventoryEntry, RepairRound};
pub use config::{MatchMeasure, PlacementMode, SystemConfig};
pub use data::DataNetwork;
pub use durable::DurabilityConfig;
pub use engine::EngineOptions;
pub use exact::ExactMatchNetwork;
pub use network::{BatchTimings, NetworkStats, QueryOutcome, RangeSelectNetwork};
pub use peer::Peer;
pub use proto::ProtoNetwork;
pub use recall::{recall_curve, similarity_histogram, RECALL_THRESHOLDS};
pub use resilient::{
    BreakerConfig, BreakerState, CircuitBreaker, FailureDetector, HedgePolicy, ResilienceStats,
    RetryPolicy,
};
