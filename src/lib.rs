//! # ars — Approximate Range Selection queries in peer-to-peer systems
//!
//! A from-scratch Rust implementation of *Approximate Range Selection
//! Queries in Peer-to-Peer Systems* (Gupta, Agrawal, El Abbadi — CIDR
//! 2003), including every substrate the paper relies on: the three
//! locality-sensitive hash families, a Chord DHT simulator (with SHA-1,
//! churn, and stabilization), a relational mini-engine that executes
//! select / join / project plans, and a deterministic message-passing
//! network simulator.
//!
//! The individual crates are re-exported as modules:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`lsh`] | `ars-lsh` | range sets, min-wise / approx / linear permutations, `l × k` hash groups |
//! | [`chord`] | `ars-chord` | identifier circle, static ring + lookup, dynamic join/leave/stabilize, SHA-1 |
//! | [`relation`] | `ars-relation` | values, schemas, predicates, partitions, logical plans, executor |
//! | [`simnet`] | `ars-simnet` | discrete-event simulator, seeded fault injection, wire codec |
//! | [`store`] | `ars-store` | durable bucket stores: CRC-framed op logs, checkpoints, crash-faulted simulated disks |
//! | [`core`] | `ars-core` | the paper's system: buckets, peers, query protocol, padding, recall |
//! | [`workload`] | `ars-workload` | §5.1 uniform trace, Zipf/clustered variants, size sweeps |
//! | [`common`] | `ars-common` | deterministic RNG, fast hashing, statistics, CSV |
//! | [`telemetry`] | `ars-telemetry` | deterministic counters/histograms/spans, JSON trace export |
//!
//! ## Quickstart
//!
//! ```
//! use ars::prelude::*;
//!
//! // A 100-peer system with the paper's parameters (k = 20, l = 5,
//! // approximate min-wise permutations).
//! let mut net = RangeSelectNetwork::new(100, SystemConfig::default());
//!
//! // A peer asks for patients aged 30–50. Nothing is cached yet, so the
//! // query misses — and its partition is cached at the identifier owners.
//! let miss = net.query(&RangeSet::interval(30, 50));
//! assert!(miss.best_match.is_none());
//!
//! // A *similar* query (30–49, Jaccard ≈ 0.95) now finds that partition
//! // with high probability; an identical one always does.
//! let hit = net.query(&RangeSet::interval(30, 50));
//! assert_eq!(hit.recall, 1.0);
//! ```
//!
//! See `examples/` for end-to-end scenarios, including the paper's
//! medical-records join executed over the P2P cache.

#![warn(missing_docs)]

pub use ars_chord as chord;
pub use ars_common as common;
pub use ars_core as core;
pub use ars_lsh as lsh;
pub use ars_relation as relation;
pub use ars_simnet as simnet;
pub use ars_store as store;
pub use ars_telemetry as telemetry;
pub use ars_workload as workload;

/// The commonly-used types in one import.
pub mod prelude {
    pub use ars_chord::{DynamicNetwork, Id, Ring};
    pub use ars_common::{DetRng, Histogram, Summary};
    pub use ars_core::{
        BatchTimings, BreakerConfig, BreakerState, ChurnNetwork, CircuitBreaker, DataNetwork,
        DurabilityConfig, EngineOptions, FailureDetector, HedgePolicy, MatchMeasure, PlacementMode,
        ProtoNetwork, QueryOutcome, RangeSelectNetwork, RepairRound, ResilienceStats, RetryPolicy,
        SystemConfig,
    };
    pub use ars_lsh::{HashGroups, LshFamilyKind, RangeSet};
    pub use ars_relation::{
        execute, HorizontalPartition, LogicalPlan, Predicate, Relation, Schema, Value,
    };
    pub use ars_simnet::{FaultPlan, SimNet};
    pub use ars_store::{BucketStore, SimDisk, StorageFaults, StoreConfig};
    pub use ars_telemetry::{MetricsSnapshot, SpanId, Telemetry, TelemetryEvent};
    pub use ars_workload::{clustered_trace, uniform_trace, zipf_trace, Trace};
}
