//! Hand-rolled, deterministic JSON export for the recording sink.
//!
//! The workspace is vendor-free, so no serde: this module serialises the
//! metric snapshot and event log with plain string building. Determinism
//! guarantees: metric maps iterate in `BTreeMap` (lexicographic) order,
//! events in sequence order, fields in instrumentation order, and floats
//! print via `format!("{}")` (shortest round-trip) with non-finite values
//! mapped to `null` — so the same seeded run always yields the same bytes.

use crate::event::{FieldValue, TelemetryEvent};
use crate::metrics::{Hist, MetricsSnapshot};

/// Escape a string per JSON (quotes, backslash, control characters).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // Bare integers like "3" are valid JSON numbers; keep as-is.
        s
    } else {
        "null".to_string()
    }
}

fn field_value(v: &FieldValue) -> String {
    match v {
        FieldValue::U64(v) => format!("{v}"),
        FieldValue::I64(v) => format!("{v}"),
        FieldValue::F64(v) => fmt_f64(*v),
        FieldValue::Bool(v) => format!("{v}"),
        FieldValue::Str(v) => format!("\"{}\"", escape(v)),
    }
}

fn hist_json(h: &Hist) -> String {
    let buckets: Vec<String> = h
        .nonzero_buckets()
        .iter()
        .map(|(i, c)| format!("[{i},{c}]"))
        .collect();
    let min = if h.count == 0 { 0 } else { h.min };
    format!(
        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\"log2_buckets\":[{}]}}",
        h.count,
        h.sum,
        min,
        h.max,
        fmt_f64(h.mean()),
        buckets.join(",")
    )
}

/// Serialise one event as a JSON object.
pub(crate) fn event_json(e: &TelemetryEvent) -> String {
    let fields: Vec<String> = e
        .fields
        .iter()
        .map(|(k, v)| format!("\"{}\":{}", escape(k), field_value(v)))
        .collect();
    format!(
        "{{\"seq\":{},\"kind\":\"{}\",\"name\":\"{}\",\"span\":{},\"fields\":{{{}}}}}",
        e.seq,
        e.kind.name(),
        escape(e.name),
        e.span.0,
        fields.join(",")
    )
}

/// Serialise a metrics snapshot as a JSON object with `counters`,
/// `gauges`, and `hists` sub-objects (all lexicographically ordered).
pub(crate) fn snapshot_json(s: &MetricsSnapshot) -> String {
    let counters: Vec<String> = s
        .counters()
        .iter()
        .map(|(k, v)| format!("\"{}\":{}", escape(k), v))
        .collect();
    let gauges: Vec<String> = s
        .gauges()
        .iter()
        .map(|(k, v)| format!("\"{}\":{}", escape(k), v))
        .collect();
    let hists: Vec<String> = s
        .hists()
        .iter()
        .map(|(k, h)| format!("\"{}\":{}", escape(k), hist_json(h)))
        .collect();
    format!(
        "{{\"counters\":{{{}}},\"gauges\":{{{}}},\"hists\":{{{}}}}}",
        counters.join(","),
        gauges.join(","),
        hists.join(",")
    )
}

/// Serialise a full trace (metrics + event log) as one JSON document.
pub(crate) fn trace_json(s: &MetricsSnapshot, events: &[TelemetryEvent]) -> String {
    let evs: Vec<String> = events.iter().map(event_json).collect();
    format!(
        "{{\"metrics\":{},\"events\":[{}]}}",
        snapshot_json(s),
        evs.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, SpanId};
    use crate::metrics::Registry;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
        assert_eq!(fmt_f64(1.5), "1.5");
    }

    #[test]
    fn event_shape() {
        let e = TelemetryEvent {
            seq: 1,
            kind: EventKind::Event,
            name: "q",
            span: SpanId(0),
            fields: vec![
                ("hops", FieldValue::U64(3)),
                ("ok", FieldValue::Bool(true)),
                ("sim", FieldValue::F64(0.25)),
            ],
        };
        assert_eq!(
            event_json(&e),
            "{\"seq\":1,\"kind\":\"event\",\"name\":\"q\",\"span\":0,\
             \"fields\":{\"hops\":3,\"ok\":true,\"sim\":0.25}}"
        );
    }

    #[test]
    fn snapshot_shape_and_order() {
        let mut r = Registry::default();
        r.counter_add("z.c", 1);
        r.counter_add("a.c", 2);
        r.gauge_set("g", 5);
        r.record("h", 4);
        let json = snapshot_json(&r.snapshot());
        assert!(json.starts_with("{\"counters\":{\"a.c\":2,\"z.c\":1}"));
        assert!(json.contains("\"gauges\":{\"g\":5}"));
        assert!(json.contains(
            "\"h\":{\"count\":1,\"sum\":4,\"min\":4,\"max\":4,\"mean\":4,\"log2_buckets\":[[3,1]]}"
        ));
    }

    #[test]
    fn empty_hist_min_prints_zero() {
        // An empty hist can't appear via Registry::record, but guard the
        // u64::MAX sentinel anyway.
        assert!(hist_json(&Hist::default()).contains("\"min\":0"));
    }
}
