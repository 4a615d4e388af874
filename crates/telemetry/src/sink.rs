//! The [`Telemetry`] handle and its two sinks.
//!
//! `Telemetry` is the object the instrumented crates hold. It is either
//!
//! * the **no-op sink** ([`Telemetry::noop`], also `Default`) — the handle
//!   carries `None` and every instrumentation call is a single branch on
//!   that option, so the hot paths pay nothing measurable (every
//!   untraced `bench_e2e` run is measured through this sink); or
//! * the **recording sink** ([`Telemetry::recording`]) — a shared,
//!   mutex-guarded [`Recorder`] accumulating a metric [`Registry`] and an
//!   ordered event log. Cloning the handle shares the sink, which is how
//!   one recorder observes a whole system (core network + chord ring).
//!
//! Determinism: the recording sink has no clock and no randomness — the
//! event log is ordered by a sequence number incremented per record — so
//! two runs of the same seeded simulation produce byte-identical
//! [`Telemetry::to_json`] exports (asserted in `tests/telemetry_traces.rs`).

use crate::event::{EventKind, FieldValue, SpanId, TelemetryEvent};
use crate::metrics::{MetricsSnapshot, Registry};
use std::sync::{Arc, Mutex};

/// The recording sink's state: metrics + event log + open-span stack.
#[derive(Debug, Default)]
pub struct Recorder {
    registry: Registry,
    events: Vec<TelemetryEvent>,
    seq: u64,
    /// Stack of open spans with their names; events record the top as
    /// their parent, and closing a span reads its name here instead of
    /// searching the event log.
    open_spans: Vec<(SpanId, &'static str)>,
}

impl Recorder {
    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    fn current_span(&self) -> SpanId {
        self.open_spans.last().map_or(SpanId::NONE, |&(id, _)| id)
    }

    fn push(
        &mut self,
        kind: EventKind,
        name: &'static str,
        span: SpanId,
        fields: &[(&'static str, FieldValue)],
    ) -> u64 {
        let seq = self.next_seq();
        self.events.push(TelemetryEvent {
            seq,
            kind,
            name,
            span,
            fields: fields.to_vec(),
        });
        seq
    }
}

/// A cheap, cloneable instrumentation handle (see module docs).
#[derive(Clone, Default)]
pub struct Telemetry {
    sink: Option<Arc<Mutex<Recorder>>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("recording", &self.is_recording())
            .finish()
    }
}

impl Telemetry {
    /// The no-op sink: every call is a branch-and-return.
    pub fn noop() -> Telemetry {
        Telemetry { sink: None }
    }

    /// A fresh recording sink.
    pub fn recording() -> Telemetry {
        Telemetry {
            sink: Some(Arc::new(Mutex::new(Recorder::default()))),
        }
    }

    /// True when this handle records (false for the no-op sink).
    pub fn is_recording(&self) -> bool {
        self.sink.is_some()
    }

    fn with<R: Default>(&self, f: impl FnOnce(&mut Recorder) -> R) -> R {
        match &self.sink {
            None => R::default(),
            Some(sink) => f(&mut sink.lock().expect("telemetry sink poisoned")),
        }
    }

    /// Add `delta` to the monotonic counter `name`.
    #[inline]
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        if self.sink.is_none() {
            return;
        }
        self.with(|r| r.registry.counter_add(name, delta));
    }

    /// Set the gauge `name` (last write wins).
    #[inline]
    pub fn gauge_set(&self, name: &'static str, value: u64) {
        if self.sink.is_none() {
            return;
        }
        self.with(|r| r.registry.gauge_set(name, value));
    }

    /// Record `value` into the histogram `name`.
    #[inline]
    pub fn record(&self, name: &'static str, value: u64) {
        if self.sink.is_none() {
            return;
        }
        self.with(|r| r.registry.record(name, value));
    }

    /// Append a point event. Fields are copied only when recording.
    #[inline]
    pub fn event(&self, name: &'static str, fields: &[(&'static str, FieldValue)]) {
        if self.sink.is_none() {
            return;
        }
        self.with(|r| {
            let span = r.current_span();
            r.push(EventKind::Event, name, span, fields);
        });
    }

    /// Open a span; subsequent events (from any clone of this handle) nest
    /// under it until it is closed. Returns [`SpanId::NONE`] on the no-op
    /// sink.
    #[inline]
    pub fn span(&self, name: &'static str, fields: &[(&'static str, FieldValue)]) -> SpanId {
        if self.sink.is_none() {
            return SpanId::NONE;
        }
        self.with(|r| {
            let parent = r.current_span();
            let seq = r.push(EventKind::SpanStart, name, parent, fields);
            let id = SpanId(seq);
            r.open_spans.push((id, name));
            id
        })
    }

    /// Close a span opened by [`Telemetry::span`], attaching summary
    /// fields to the end event. Closing out of order pops every span
    /// opened after `id` (defensive; instrumentation closes in LIFO
    /// order), and a span that is no longer open ends as `"unknown"`.
    /// Cost is the depth of the span stack, not the length of the log.
    /// No-op for [`SpanId::NONE`].
    #[inline]
    pub fn span_end(&self, id: SpanId, fields: &[(&'static str, FieldValue)]) {
        if self.sink.is_none() || id.is_none() {
            return;
        }
        self.with(|r| {
            let name = match r.open_spans.iter().rposition(|&(s, _)| s == id) {
                Some(pos) => {
                    let name = r.open_spans[pos].1;
                    r.open_spans.truncate(pos);
                    name
                }
                None => "unknown",
            };
            let parent = r.current_span();
            let mut all = vec![("span", FieldValue::U64(id.0))];
            all.extend(fields.iter().cloned());
            r.push(EventKind::SpanEnd, name, parent, &all);
        });
    }

    /// Snapshot of every metric (empty on the no-op sink).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.with(|r| r.registry.snapshot())
    }

    /// Copy of the event log (empty on the no-op sink).
    pub fn events(&self) -> Vec<TelemetryEvent> {
        self.with(|r| r.events.clone())
    }

    /// Events with the given name, in log order.
    pub fn events_named(&self, name: &str) -> Vec<TelemetryEvent> {
        self.with(|r| {
            r.events
                .iter()
                .filter(|e| e.name == name)
                .cloned()
                .collect()
        })
    }

    /// Clear the event log and all metrics (the sink stays installed).
    /// Useful between a warm-up phase and a measured phase.
    pub fn reset(&self) {
        self.with(|r| {
            r.registry.clear();
            r.events.clear();
            r.seq = 0;
            r.open_spans.clear();
        });
    }

    /// Number of events recorded so far.
    pub fn event_count(&self) -> usize {
        self.with(|r| r.events.len())
    }

    /// Export the full trace (metric snapshot + event log) as one JSON
    /// document. Deterministic: same seeded run, same bytes. The no-op
    /// sink exports an empty trace.
    pub fn to_json(&self) -> String {
        match &self.sink {
            None => crate::json::trace_json(&MetricsSnapshot::default(), &[]),
            Some(sink) => {
                let r = sink.lock().expect("telemetry sink poisoned");
                crate::json::trace_json(&r.registry.snapshot(), &r.events)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_sink_records_nothing() {
        let t = Telemetry::noop();
        assert!(!t.is_recording());
        t.counter_add("c", 1);
        t.record("h", 5);
        t.gauge_set("g", 2);
        t.event("e", &[("k", 1u64.into())]);
        let s = t.span("s", &[]);
        assert!(s.is_none());
        t.span_end(s, &[]);
        assert!(t.snapshot().is_empty());
        assert!(t.events().is_empty());
        assert_eq!(t.event_count(), 0);
    }

    #[test]
    fn default_is_noop() {
        assert!(!Telemetry::default().is_recording());
    }

    #[test]
    fn recording_sink_accumulates() {
        let t = Telemetry::recording();
        assert!(t.is_recording());
        t.counter_add("c", 2);
        t.counter_add("c", 3);
        t.record("h", 7);
        t.gauge_set("g", 9);
        t.event("e", &[("k", 1u64.into())]);
        let s = t.snapshot();
        assert_eq!(s.counter("c"), 5);
        assert_eq!(s.gauge("g"), Some(9));
        assert_eq!(s.hist("h").unwrap().count, 1);
        assert_eq!(t.events_named("e").len(), 1);
    }

    #[test]
    fn clones_share_the_sink() {
        let t = Telemetry::recording();
        let u = t.clone();
        t.counter_add("c", 1);
        u.counter_add("c", 1);
        assert_eq!(t.snapshot().counter("c"), 2);
        assert_eq!(u.snapshot().counter("c"), 2);
    }

    #[test]
    fn spans_nest_events() {
        let t = Telemetry::recording();
        let outer = t.span("outer", &[]);
        t.event("inside", &[]);
        let inner = t.span("inner", &[]);
        t.event("deep", &[]);
        t.span_end(inner, &[("n", 1u64.into())]);
        t.span_end(outer, &[]);
        t.event("after", &[]);

        let events = t.events();
        assert_eq!(events.len(), 7); // 2 starts + 2 events + 2 ends + 1 after
        let by_name = |n: &str| events.iter().find(|e| e.name == n).unwrap();
        assert_eq!(by_name("inside").span, outer);
        assert_eq!(by_name("deep").span, inner);
        assert_eq!(by_name("after").span, SpanId::NONE);
        // The inner span's start is parented by the outer span.
        let inner_start = events
            .iter()
            .find(|e| e.kind == EventKind::SpanStart && e.name == "inner")
            .unwrap();
        assert_eq!(inner_start.span, outer);
        // End events carry the span id and the caller's summary fields.
        let inner_end = events
            .iter()
            .find(|e| e.kind == EventKind::SpanEnd && e.name == "inner")
            .unwrap();
        assert_eq!(inner_end.field_u64("span"), Some(inner.0));
        assert_eq!(inner_end.field_u64("n"), Some(1));
    }

    #[test]
    fn out_of_order_span_end_pops_children() {
        let t = Telemetry::recording();
        let outer = t.span("outer", &[]);
        let _inner = t.span("inner", &[]);
        // Closing the outer span abandons the inner one.
        t.span_end(outer, &[]);
        t.event("after", &[]);
        assert_eq!(t.events_named("after")[0].span, SpanId::NONE);
    }

    #[test]
    fn closing_a_span_that_is_not_open_ends_as_unknown() {
        let t = Telemetry::recording();
        let outer = t.span("outer", &[]);
        let inner = t.span("inner", &[]);
        t.span_end(outer, &[]); // abandons `inner`
        t.span_end(inner, &[]);
        let ends: Vec<&str> = t
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::SpanEnd)
            .map(|e| e.name)
            .collect();
        assert_eq!(ends, ["outer", "unknown"]);
    }

    #[test]
    fn span_end_cost_does_not_grow_with_the_log() {
        // Seconds to record `pairs` begin/end pairs, two levels deep, on a
        // sink nobody drains; best of three to shed scheduler noise.
        fn seconds(pairs: usize) -> f64 {
            (0..3)
                .map(|_| {
                    let t = Telemetry::recording();
                    let start = std::time::Instant::now();
                    for i in 0..pairs / 2 {
                        let outer = t.span("outer", &[]);
                        let inner = t.span("inner", &[]);
                        t.span_end(inner, &[("i", (i as u64).into())]);
                        t.span_end(outer, &[]);
                    }
                    let took = start.elapsed().as_secs_f64();
                    let events = t.events();
                    assert_eq!(events.len(), 2 * pairs);
                    for quad in events.chunks(4) {
                        let names: Vec<&str> = quad.iter().map(|e| e.name).collect();
                        assert_eq!(names, ["outer", "inner", "inner", "outer"]);
                        assert_eq!(quad[2].field_u64("span"), Some(quad[1].seq));
                        assert_eq!(quad[3].field_u64("span"), Some(quad[0].seq));
                    }
                    took
                })
                .fold(f64::MAX, f64::min)
        }
        // Four times the pairs: 4x the time when closing is O(depth), 16x
        // when it scans the log (what it did before).
        let (small, large) = (seconds(25_000), seconds(100_000));
        assert!(
            large < 10.0 * small,
            "100k pairs took {large:.3}s against {small:.3}s for 25k: closing a span is not O(depth)"
        );
    }

    #[test]
    fn reset_clears_everything() {
        let t = Telemetry::recording();
        t.counter_add("c", 1);
        t.event("e", &[]);
        t.reset();
        assert!(t.snapshot().is_empty());
        assert_eq!(t.event_count(), 0);
        // Sequence numbers restart, keeping post-reset logs deterministic.
        t.event("e2", &[]);
        assert_eq!(t.events()[0].seq, 1);
    }

    #[test]
    fn noop_json_is_valid_empty_trace() {
        assert_eq!(
            Telemetry::noop().to_json(),
            "{\"metrics\":{\"counters\":{},\"gauges\":{},\"hists\":{}},\"events\":[]}"
        );
    }

    #[test]
    fn json_export_is_deterministic() {
        let run = || {
            let t = Telemetry::recording();
            t.counter_add("b", 2);
            t.counter_add("a", 1);
            t.record("h", 9);
            let s = t.span("q", &[("key", 7u64.into())]);
            t.event("hop", &[("node", 3u64.into())]);
            t.span_end(s, &[("ok", true.into())]);
            t.to_json()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.contains("\"name\":\"hop\""));
    }

    #[test]
    fn seq_is_monotonic_from_one() {
        let t = Telemetry::recording();
        t.event("a", &[]);
        t.event("b", &[]);
        let s = t.span("c", &[]);
        t.span_end(s, &[]);
        let seqs: Vec<u64> = t.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4]);
    }
}
