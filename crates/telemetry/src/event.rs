//! Structured events and spans.
//!
//! A [`TelemetryEvent`] is one record in the recording sink's log: a
//! static name, a monotonically increasing sequence number (the only
//! notion of "time" — there is no wall clock anywhere in this crate, so a
//! seeded run produces a bit-identical log), the enclosing span (if any),
//! and a small list of typed fields. Span start/end are ordinary events
//! distinguished by [`EventKind`]; a span's identity is the sequence
//! number of its start event.

/// A typed field value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer (counters, hop counts, identifiers).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (similarities, recall).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Free-form text (kept rare: names should be static, values small).
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> FieldValue {
        FieldValue::U64(v)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> FieldValue {
        FieldValue::U64(v as u64)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> FieldValue {
        FieldValue::U64(v as u64)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> FieldValue {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> FieldValue {
        FieldValue::F64(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> FieldValue {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Str(v)
    }
}

/// What kind of record an event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A point event.
    Event,
    /// Opens a span; its `seq` is the span's id.
    SpanStart,
    /// Closes the span named by its `span` field.
    SpanEnd,
}

impl EventKind {
    /// Stable lowercase name used in the JSON export.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            EventKind::Event => "event",
            EventKind::SpanStart => "span_start",
            EventKind::SpanEnd => "span_end",
        }
    }
}

/// Identity of an open span (the sequence number of its start event).
/// `SpanId(0)` is the null span handed out by the no-op sink (also the
/// `Default`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null span (no-op sink, or "no enclosing span").
    pub const NONE: SpanId = SpanId(0);

    /// True for the null span.
    pub(crate) fn is_none(&self) -> bool {
        self.0 == 0
    }
}

/// One record in the recording sink's log.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryEvent {
    /// Monotonic sequence number (1-based); the log's deterministic clock.
    pub seq: u64,
    /// Event kind (point event, span start, span end).
    pub kind: EventKind,
    /// Static event name, e.g. `"chord.lookup_resilient"`.
    pub name: &'static str,
    /// Enclosing span (0 when the event is outside any span).
    pub span: SpanId,
    /// Typed fields, in the order the instrumentation supplied them.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl TelemetryEvent {
    /// The raw field value for `key`, if present.
    pub(crate) fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Unsigned-integer field accessor (also accepts `I64` ≥ 0).
    pub fn field_u64(&self, key: &str) -> Option<u64> {
        match self.field(key)? {
            FieldValue::U64(v) => Some(*v),
            FieldValue::I64(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// Boolean field accessor.
    pub fn field_bool(&self, key: &str) -> Option<bool> {
        match self.field(key)? {
            FieldValue::Bool(v) => Some(*v),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev() -> TelemetryEvent {
        TelemetryEvent {
            seq: 3,
            kind: EventKind::Event,
            name: "test",
            span: SpanId::NONE,
            fields: vec![
                ("hops", FieldValue::U64(4)),
                ("recall", FieldValue::F64(0.5)),
                ("ok", FieldValue::Bool(true)),
                ("delta", FieldValue::I64(-2)),
            ],
        }
    }

    #[test]
    fn typed_accessors() {
        let e = ev();
        assert_eq!(e.field_u64("hops"), Some(4));
        assert_eq!(e.field_bool("ok"), Some(true));
        assert_eq!(e.field_u64("delta"), None, "negative i64 is not a u64");
        assert_eq!(e.field_u64("missing"), None);
    }

    #[test]
    fn from_impls_cover_common_types() {
        assert_eq!(FieldValue::from(3u32), FieldValue::U64(3));
        assert_eq!(FieldValue::from(3usize), FieldValue::U64(3));
        assert_eq!(FieldValue::from(-3i64), FieldValue::I64(-3));
        assert_eq!(FieldValue::from("x"), FieldValue::Str("x".into()));
    }

    #[test]
    fn kind_names_stable() {
        assert_eq!(EventKind::Event.name(), "event");
        assert_eq!(EventKind::SpanStart.name(), "span_start");
        assert_eq!(EventKind::SpanEnd.name(), "span_end");
    }

    #[test]
    fn null_span() {
        assert!(SpanId::NONE.is_none());
        assert!(!SpanId(7).is_none());
    }
}
