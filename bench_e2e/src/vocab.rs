//! The ledger's vocabulary: every metric by name, with unit, direction and
//! regression bound (workloads name themselves in `workloads.rs`).
//! `BENCHMARK.json` at the repo root lists the same tables; a unit test
//! holds the two equal.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// it is a regression. Per-layer metrics explain, they do not gate:
    /// their bound is 0 and unused.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    e2e(name, unit, better, 0.0)
}

use Better::{Higher, Lower};

/// What a user of the system sees; every workload reports every one.
///
/// The bounds are what the reference box supports, not what one would
/// wish: ten runs of one commit on ten seeds spread (interquartile range
/// over median) by 0.005-0.04 on the four timings in a quiet hour and by up
/// to 0.20 in a noisy one, even after yardstick scaling; by at most 0.008
/// on the two counts and 0.015 on peak memory (README: baseline). A bound
/// has to hold three of the usual spreads and one of the worst.
pub const END_TO_END: &[Metric] = &[
    e2e("qps", "1/s", Higher, 0.25),
    e2e("query_p50_us", "us", Lower, 0.25),
    e2e("query_p99_us", "us", Lower, 0.25),
    e2e("cpu_us_per_query", "us", Lower, 0.25),
    e2e("messages_per_query", "count", Lower, 0.02),
    e2e("recall_mean", "ratio", Higher, 0.03),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.05),
];

/// Single layers, from the traced run. A metric a workload has no layer
/// for reads 0 there (e.g. every `store.*` outside `churn_durable`).
pub const PER_LAYER: &[Metric] = &[
    layer("failed_share", "ratio", Lower),
    layer("wire_bytes_per_query", "bytes", Lower),
    layer("virtual_latency_p99_ticks", "ticks", Lower),
    layer("workload.gen_s", "s", Lower),
    layer("workload.repetition_rate", "ratio", Higher),
    layer("workload.mean_width", "count", Lower),
    layer("lsh.identifiers_ns", "ns", Lower),
    layer("lsh.share", "ratio", Lower),
    layer("identcache.hit_rate", "ratio", Higher),
    layer("identcache.entries", "count", Lower),
    layer("chord.lookup_ns", "ns", Lower),
    layer("chord.share", "ratio", Lower),
    layer("chord.lookups_per_query", "count", Lower),
    layer("chord.hops_per_lookup", "count", Lower),
    layer("chord.walk_steps_per_query", "count", Lower),
    layer("chord.dedup_saved_per_query", "count", Higher),
    layer("chord.dyn_lookup_ns", "ns", Lower),
    layer("chord.routecache_hit_rate", "ratio", Higher),
    layer("chord.stabilize_s", "s", Lower),
    layer("bucket.match_ns", "ns", Lower),
    layer("bucket.share", "ratio", Lower),
    layer("bucket.scan_len_mean", "count", Lower),
    layer("bucket.scan_len_p99", "count", Lower),
    layer("bucket.partitions_total", "count", Lower),
    layer("bucket.max_peer_load", "count", Lower),
    layer("bucket.probe_checks_per_query", "count", Lower),
    layer("core.query_ns", "ns", Lower),
    layer("core.commit_ns", "ns", Lower),
    layer("core.commit_share", "ratio", Lower),
    layer("core.query_p999_us", "us", Lower),
    layer("core.exact_share", "ratio", Higher),
    layer("core.stored_share", "ratio", Lower),
    layer("core.matched_share", "ratio", Higher),
    layer("engine.speedup_vs_seq", "ratio", Higher),
    layer("engine.cpu_per_wall", "ratio", Lower),
    layer("engine.batch_hash_s", "s", Lower),
    layer("engine.batch_route_s", "s", Lower),
    layer("engine.batch_commit_s", "s", Lower),
    layer("resilient.attempts_per_query", "count", Lower),
    layer("resilient.retries_per_query", "count", Lower),
    layer("resilient.fallback_share", "ratio", Lower),
    layer("resilient.hedges_fired", "count", Lower),
    layer("resilient.replica_writes_per_query", "count", Lower),
    layer("store.records_per_query", "count", Lower),
    layer("store.bytes_per_query", "bytes", Lower),
    layer("store.synced_share", "ratio", Higher),
    layer("store.place_ns", "ns", Lower),
    layer("simnet.messages_per_query", "count", Lower),
    layer("simnet.bytes_per_message", "bytes", Lower),
    layer("proto.slowdown_vs_direct", "ratio", Lower),
    layer("telemetry.recording_overhead_share", "ratio", Lower),
    layer("trace.overhead_share", "ratio", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::Workload;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// `BENCHMARK.json` is what the acceptance driver reads; this table is
    /// what the program prints and compares with. They must not drift.
    #[test]
    fn benchmark_json_lists_exactly_this_vocabulary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at repo root"))
            .expect("BENCHMARK.json parses");
        let rows = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{key}: expected an array, found {other:?}"),
        };
        let field = |row: &Json, key: &str| match row.get(key) {
            Some(Json::Str(s)) => Some(s.clone()),
            _ => None,
        };
        let direction = |b: Better| match b {
            Higher => "higher",
            Lower => "lower",
        };

        let listed: Vec<(String, String)> = rows("workloads")
            .iter()
            .map(|w| (field(w, "name").unwrap(), field(w, "why").unwrap()))
            .collect();
        let ours: Vec<(String, String)> = Workload::ALL
            .iter()
            .map(|w| (w.name().to_string(), w.why().to_string()))
            .collect();
        assert_eq!(listed, ours);

        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = rows(key);
            assert_eq!(listed.len(), table.len(), "{key}: row count");
            for (row, m) in listed.iter().zip(table) {
                assert_eq!(field(row, "name").as_deref(), Some(m.name), "{key}");
                assert_eq!(field(row, "unit").as_deref(), Some(m.unit), "{}", m.name);
                assert_eq!(
                    field(row, "better").as_deref(),
                    Some(direction(m.better)),
                    "{}",
                    m.name
                );
                let bound = row.get("bound").and_then(Json::as_f64);
                if key == "end_to_end" {
                    assert_eq!(bound, Some(m.bound), "{}", m.name);
                } else {
                    assert_eq!(bound, None, "{}: per-layer metrics carry no bound", m.name);
                }
            }
        }
    }

    #[test]
    fn vocabulary_respects_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        for name in &names {
            assert!(valid_name(name), "bad name {name}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!((2..=8).contains(&Workload::ALL.len()));
        assert!(Workload::ALL
            .iter()
            .all(|w| w.why().len() <= 200 && !w.why().contains('\n')));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
    }
}
