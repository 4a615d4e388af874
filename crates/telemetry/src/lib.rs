//! Deterministic, zero-dependency instrumentation for the `ars` workspace.
//!
//! The system-wide observability layer: counters, gauges, log₂-bucketed
//! histograms, and a structured span/event log, behind a single cheap
//! [`Telemetry`] handle. Two sinks:
//!
//! * **no-op** ([`Telemetry::noop`], the default) — every call is a branch
//!   on an `Option`, so instrumented hot paths cost nothing measurable
//!   (every untraced `bench_e2e` run is measured through it);
//! * **recording** ([`Telemetry::recording`]) — a shared sink whose event
//!   log is ordered by sequence number only (no wall clock, no randomness),
//!   so a seeded simulation exports a byte-identical JSON trace every run.
//!
//! # Metric vocabulary
//!
//! Names are dot-separated, `<subsystem>.<metric>`, established here and
//! reused by every later layer:
//!
//! | name | kind | meaning |
//! |---|---|---|
//! | `chord.lookups` | counter | greedy lookups started |
//! | `chord.lookup_failures` | counter | greedy lookups that gave up |
//! | `chord.hops` | counter | total hops across greedy lookups |
//! | `chord.finger_touches` | counter | finger/successor candidates examined |
//! | `chord.lookup.hops` | hist | hops per greedy lookup |
//! | `chord.resilient.lookups` | counter | DFS lookups started |
//! | `chord.resilient.failures` | counter | DFS lookups that exhausted budget |
//! | `chord.resilient.hops` | counter | total DFS hops |
//! | `chord.resilient.backtracks` | counter | DFS dead-end pops |
//! | `chord.resilient.lookup.hops` | hist | hops per DFS lookup |
//! | `core.queries` | counter | range queries through `RangeSelectNetwork` |
//! | `core.ident_cache.hits` | counter | identifier-cache hits |
//! | `core.ident_cache.misses` | counter | identifier-cache misses (a range's first two sightings) |
//! | `core.ident_cache.size` | gauge | ranges admitted to the identifier cache |
//! | `core.bucket.scan_len` | hist | partitions scanned per bucket probe |
//! | `core.query.jaccard` | hist | scaled (×1000) Jaccard of best match |
//! | `resilient.queries` | counter | queries via `ChurnNetwork::query_resilient` |
//! | `resilient.attempts` | counter | lookup attempts (first tries + retries) |
//! | `resilient.successes` | counter | lookups that found a live owner |
//! | `resilient.failures` | counter | lookups that exhausted the retry budget |
//! | `resilient.retries` | counter | retry attempts after a failed first try |
//! | `resilient.backoff_spent` | counter | total backoff ticks consumed |
//! | `resilient.source_fallbacks` | counter | replica fallbacks to non-primary sources |
//! | `replica.stores` | counter | replica copies written by re-replication |
//! | `buckets.placed` | counter | partition copies stored by any path |
//! | `buckets.lost` | counter | live copies destroyed (fail/crash/leave drain) |
//! | `buckets.recovered` | counter | copies replayed from durable logs at restart |
//! | `buckets.live` | gauge | live copies, published by `publish_ledger` — the ledger is `placed == live + lost − recovered` |
//! | `store.appended` | counter | op records written to durable bucket logs |
//! | `store.recovered` | counter | entries recovered from disk at restart |
//! | `store.torn_discarded` | counter | bytes discarded past the log's valid prefix during recovery |
//! | `repair.rounds` | counter | anti-entropy repair rounds run |
//! | `repair.entries_sent` | counter | entries pushed to replica owners by repair |
//! | `simnet.sent` / `.delivered` / `.dropped` / `.queued` | gauge | message ledger |
//! | `simnet.bytes` / `.end_time` | gauge | traffic volume / sim clock |
//!
//! Span/event taxonomy: spans `core.query` (one user-visible range query);
//! events `chord.lookup_resilient` (per DFS lookup: `hops`, `backtracks`,
//! `ok`), `resilient.retry` (per retry: `attempt`, `backoff`),
//! `replica.store` (per copy written: `key`, `node`), `core.query`
//! (per query summary: `path`, `matches`), `churn.crash` (per crash:
//! `node`, `buckets_lost`), `churn.restart` (per restart: `node`,
//! `recovered`, `torn_bytes`).
//!
//! # Capturing a trace
//!
//! ```
//! use ars_telemetry::Telemetry;
//!
//! let tel = Telemetry::recording();
//! tel.counter_add("core.queries", 1);
//! let span = tel.span("core.query", &[("range", 42u64.into())]);
//! tel.event("chord.lookup_resilient", &[("hops", 3u64.into()), ("ok", true.into())]);
//! tel.span_end(span, &[("matches", 5u64.into())]);
//!
//! let json = tel.to_json(); // deterministic: same seed, same bytes
//! assert!(json.contains("\"chord.lookup_resilient\""));
//! assert_eq!(tel.snapshot().counter("core.queries"), 1);
//! ```

#![warn(missing_docs)]

mod event;
pub mod json;
mod metrics;
mod sink;

pub use event::{EventKind, FieldValue, SpanId, TelemetryEvent};
pub use metrics::{bucket_index, Hist, MetricsSnapshot, Registry, HIST_BUCKETS};
pub use sink::{Recorder, Telemetry};
