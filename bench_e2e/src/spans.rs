//! The harness's own spans: recorded around the calls into each layer,
//! kept in memory, written out when the run ends.

use crate::json::Json;
use std::time::Instant;

/// Span names, as recorded. The harness opens one `harness.query` per
/// query; under it the shadow calls into single layers and then the real
/// query (`core.query`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    HarnessQuery,
    LshIdentifiers,
    /// A hashing shadow whose query then hit the identifier cache: the
    /// harness did the work, the query did not, so no layer is charged.
    LshCached,
    ChordLookup,
    BucketMatch,
    CoreQuery,
    DirectQuery,
    ChordMaintenance,
}

impl Name {
    pub fn as_str(self) -> &'static str {
        match self {
            Name::HarnessQuery => "harness.query",
            Name::LshIdentifiers => "lsh.identifiers",
            Name::LshCached => "lsh.identifiers.cached",
            Name::ChordLookup => "chord.lookup",
            Name::BucketMatch => "bucket.match",
            Name::CoreQuery => "core.query",
            Name::DirectQuery => "direct.query",
            Name::ChordMaintenance => "chord.maintenance",
        }
    }
}

/// Index into the log; `NONE` marks a root span's parent.
pub type SpanId = u32;
pub const NONE: SpanId = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: Name,
    pub parent: SpanId,
    /// Index of the timed query the span belongs to.
    pub query: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl SpanLog {
    pub fn with_capacity(spans: usize) -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::with_capacity(spans),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: Name, query: u32) -> SpanId {
        let id = self.spans.len() as SpanId;
        let parent = self.open.last().copied().unwrap_or(NONE);
        self.open.push(id);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            parent,
            query,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn close(&mut self, id: SpanId) {
        let end_ns = self.now();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Run `f` inside a span.
    pub fn within<R>(&mut self, name: Name, query: u32, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, query);
        let out = f();
        self.close(id);
        out
    }
}

/// Each span's self time: its duration minus the part its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration).collect();
    for child in spans {
        if child.parent != NONE {
            let parent = &spans[child.parent as usize];
            let covered = child
                .end_ns
                .min(parent.end_ns)
                .saturating_sub(child.start_ns.max(parent.start_ns));
            let slot = &mut own[child.parent as usize];
            *slot = slot.saturating_sub(covered);
        }
    }
    own
}

/// Per query, the nanoseconds spent in each shadowed layer and in the
/// real query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryLayers {
    pub lsh: u64,
    pub chord: u64,
    pub bucket: u64,
    pub core: u64,
    pub direct: u64,
}

pub fn per_query_layers(spans: &[Span], queries: usize) -> Vec<QueryLayers> {
    let mut out = vec![QueryLayers::default(); queries];
    for s in spans {
        let q = &mut out[s.query as usize];
        let slot = match s.name {
            Name::LshIdentifiers => &mut q.lsh,
            Name::ChordLookup => &mut q.chord,
            Name::BucketMatch => &mut q.bucket,
            Name::CoreQuery => &mut q.core,
            Name::DirectQuery => &mut q.direct,
            Name::HarnessQuery | Name::LshCached | Name::ChordMaintenance => continue,
        };
        *slot += s.duration();
    }
    out
}

/// The spans file: every span of the first `max_queries` queries (a whole
/// run is tens of MB of JSON and adds nothing a prefix does not show),
/// plus the harness's own self time per query over the whole log.
pub fn spans_json(workload: &str, spans: &[Span], max_queries: u32) -> Json {
    let own = self_times(spans);
    let (mut harness_self, mut roots) = (0u64, 0u64);
    for (s, own) in spans.iter().zip(&own) {
        if s.name == Name::HarnessQuery {
            harness_self += own;
            roots += 1;
        }
    }
    let rows = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.query < max_queries)
        .map(|(id, s)| {
            Json::obj([
                ("id", Json::Num(id as f64)),
                (
                    "parent",
                    if s.parent == NONE {
                        Json::Null
                    } else {
                        Json::Num(f64::from(s.parent))
                    },
                ),
                ("query", Json::Num(f64::from(s.query))),
                ("name", Json::str(s.name.as_str())),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("self_ns", Json::Num(own[id] as f64)),
            ])
        })
        .collect();
    Json::obj([
        ("workload", Json::str(workload)),
        ("spans_recorded", Json::Num(spans.len() as f64)),
        ("queries_written", Json::Num(f64::from(max_queries))),
        (
            "harness_self_ns_per_query",
            Json::Num(harness_self as f64 / roots.max(1) as f64),
        ),
        ("spans", Json::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: Name, parent: SpanId, query: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            query,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = [
            span(Name::HarnessQuery, NONE, 0, 0, 100),
            span(Name::LshIdentifiers, 0, 0, 10, 30),
            span(Name::CoreQuery, 0, 0, 40, 90),
            // A grandchild shortens its parent, not its grandparent.
            span(Name::BucketMatch, 2, 0, 50, 60),
            // A child running past its parent counts only the overlap.
            span(Name::ChordLookup, 2, 0, 85, 95),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 35, 10, 10]);
    }

    #[test]
    fn log_nests_by_open_order() {
        let mut log = SpanLog::with_capacity(4);
        let root = log.open(Name::HarnessQuery, 7);
        let got = log.within(Name::LshIdentifiers, 7, || 42);
        log.within(Name::CoreQuery, 7, || ());
        log.close(root);
        assert_eq!(got, 42);
        let parents: Vec<SpanId> = log.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![NONE, 0, 0]);
        assert!(log
            .spans
            .iter()
            .all(|s| s.end_ns >= s.start_ns && s.query == 7));
        assert!(log.spans[0].end_ns >= log.spans[2].end_ns);
    }

    #[test]
    fn layers_sum_per_query() {
        let spans = [
            span(Name::ChordLookup, NONE, 0, 0, 5),
            span(Name::ChordLookup, NONE, 0, 5, 12),
            span(Name::CoreQuery, NONE, 0, 12, 40),
            span(Name::LshIdentifiers, NONE, 1, 40, 43),
            span(Name::BucketMatch, NONE, 1, 43, 44),
            span(Name::ChordMaintenance, NONE, 1, 44, 99),
        ];
        let layers = per_query_layers(&spans, 2);
        assert_eq!(layers[0].chord, 12);
        assert_eq!(layers[0].core, 28);
        assert_eq!((layers[1].lsh, layers[1].bucket), (3, 1));
        assert_eq!(layers[1].core, 0);
    }

    #[test]
    fn spans_file_keeps_a_prefix_and_parses_back() {
        let spans = [
            span(Name::HarnessQuery, NONE, 0, 0, 10),
            span(Name::CoreQuery, 0, 0, 2, 8),
            span(Name::HarnessQuery, NONE, 1, 10, 30),
        ];
        let doc = spans_json("w", &spans, 1);
        let back = Json::parse(&doc.to_string()).unwrap();
        assert_eq!(back, doc);
        match back.get("spans") {
            Some(Json::Arr(rows)) => assert_eq!(rows.len(), 2),
            other => panic!("{other:?}"),
        }
        // Self time 4 on the first root, 20 on the second.
        assert_eq!(
            back.get("harness_self_ns_per_query").unwrap().as_f64(),
            Some(12.0)
        );
    }
}
