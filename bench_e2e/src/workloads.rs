//! The seven workloads: how each builds its inputs and system from the
//! seed, runs its timed phase, and reads its layers from outside.
//!
//! One repetition = trace generation + construction + warm-up (all charged
//! to set-up) followed by the timed phase. The load generator is one
//! thread in a closed loop with one client; `engine_w2` hands its timed
//! queries to the engine's two workers in one batch.

use crate::calib::Yardstick;
use crate::procfs::cpu_seconds;
use crate::spans::{per_query_layers, Name, SpanLog};
use crate::stats::{percentile, Fnv};
use ars_chord::{arc_base, Id};
use ars_common::stats::percentile as quantile;
use ars_common::DetRng;
use ars_core::durable::encode_range;
use ars_core::{
    ChurnNetwork, DurabilityConfig, EngineOptions, PlacementMode, ProtoNetwork, QueryOutcome,
    RangeSelectNetwork, SystemConfig,
};
use ars_lsh::{HashGroups, RangeSet};
use ars_store::BucketStore;
use ars_telemetry::Telemetry;
use ars_workload::{clustered_trace, uniform_trace, zipf_trace, Trace};
use std::hint::black_box;
use std::time::Instant;

/// The first fifth of every trace warms the system up (the paper drops it
/// too) and is charged to set-up, not to the timed phase.
pub const WARMUP_SHARE: f64 = 0.2;

const SYSTEM_SEED: u64 = 2003;
const STATIC_PEERS: usize = 1000;
const CHURN_PEERS: usize = 200;
/// `churn_durable` fails one peer and joins one every this many queries.
const CHURN_EVERY: usize = 500;
const ENGINE: EngineOptions = EngineOptions {
    shards: 16,
    workers: 2,
    queue: 1024,
};
/// Queries the two renditions under test must answer exactly as their
/// reference does, before anything is timed.
const EQUIVALENCE_PREFIX: usize = 2_000;
/// The recording sink closes a span by scanning its whole event log, so an
/// undrained sink costs time quadratic in the queries run. The harness
/// folds the sink's totals and resets it every this many queries.
const SINK_DRAIN_EVERY: usize = 1024;

/// Total queries per repetition, warm-up included. Sized once for ~1.5 s
/// timed per repetition on the 2-core reference box and frozen; README.md
/// lists them against the issue's original counts.
const UNIFORM_QUERIES: usize = 50_000;
const ZIPF_QUERIES: usize = 150_000;
const WIDE_QUERIES: usize = 10_000;
const LAYERED_QUERIES: usize = 25_000;
const CHURN_QUERIES: usize = 20_000;
const PROTO_QUERIES: usize = 30_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    UniformStatic,
    ZipfHot,
    WideHash,
    LayeredProbe,
    ChurnDurable,
    ProtoWire,
    EngineW2,
}

impl Workload {
    /// In the order of `vocab::WORKLOADS`.
    pub const ALL: [Workload; 7] = [
        Workload::UniformStatic,
        Workload::ZipfHot,
        Workload::WideHash,
        Workload::LayeredProbe,
        Workload::ChurnDurable,
        Workload::ProtoWire,
        Workload::EngineW2,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::UniformStatic => "uniform_static",
            Workload::ZipfHot => "zipf_hot",
            Workload::WideHash => "wide_hash",
            Workload::LayeredProbe => "layered_probe",
            Workload::ChurnDurable => "churn_durable",
            Workload::ProtoWire => "proto_wire",
            Workload::EngineW2 => "engine_w2",
        }
    }

    /// Why the ledger runs this workload: which layer it loads, and which
    /// optimisation it exercises or bypasses.
    pub fn why(self) -> &'static str {
        match self {
            Workload::UniformStatic => "paper 5.1 uniform ranges on 1000 peers: ~94% identifier-cache misses and filling buckets, so scan + match + store carry the query",
            Workload::ZipfHot => "64 Zipf hotspots: identifier-cache hits and short buckets leave Chord routing the largest share; a hashing or scan gain must not show here",
            Workload::WideHash => "clustered ranges ~3e4 wide push every min-hash past the fused-segment limit, so ars-lsh does nearly all the work",
            Workload::LayeredProbe => "uniform_static's trace under layered placement with 16 probes: one lookup + walk + local checks, fewer messages for more CPU",
            Workload::ChurnDurable => "200 churning peers, replication 2, route cache, durable op log: the only path where dynamic lookups, retries and ars-store carry the query",
            Workload::ProtoWire => "uniform_static's trace through the message-passing rendition: simnet events and the wire codec, checked against the direct path",
            Workload::EngineW2 => "uniform_static's trace through the concurrent engine, 16 shards and 2 workers, one batch: its qps over uniform_static's is the engine's verdict",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn total_queries(self) -> usize {
        match self {
            Workload::UniformStatic | Workload::EngineW2 => UNIFORM_QUERIES,
            Workload::ZipfHot => ZIPF_QUERIES,
            Workload::WideHash => WIDE_QUERIES,
            Workload::LayeredProbe => LAYERED_QUERIES,
            Workload::ChurnDurable => CHURN_QUERIES,
            Workload::ProtoWire => PROTO_QUERIES,
        }
    }

    /// The seed reaches the program only here, as the trace it generates.
    /// `layered_probe` and `proto_wire` run a prefix of `uniform_static`'s
    /// trace (the generator draws queries in order, so a shorter trace is
    /// a prefix of a longer one).
    fn trace(self, seed: u64) -> Trace {
        let n = self.total_queries();
        match self {
            Workload::UniformStatic
            | Workload::LayeredProbe
            | Workload::ProtoWire
            | Workload::EngineW2 => uniform_trace(n, 0, 1000, seed),
            Workload::ZipfHot => zipf_trace(n, 0, 40_000, 64, 1.1, 300, seed),
            Workload::WideHash => clustered_trace(n, 0, 100_000, 2_000, 40, seed),
            Workload::ChurnDurable => zipf_trace(n, 0, 40_000, 32, 1.1, 64, seed),
        }
    }

    /// Default system (approximate min-wise, k = 20, l = 5, Jaccard
    /// matching, cache on miss) unless the workload says otherwise.
    ///
    /// The system's own seed (ring positions, hash functions, origin
    /// draws) is fixed: it is configuration, not input, and redrawing the
    /// ring and the hash groups per run moves recall and messages per
    /// query by several percent, which would drown the bounds on them.
    fn config(self) -> SystemConfig {
        let base = SystemConfig::default().with_seed(SYSTEM_SEED);
        match self {
            Workload::LayeredProbe => base
                .with_placement_mode(PlacementMode::Layered)
                .with_probes(16)
                .with_layers(1)
                .with_walk_window(4),
            Workload::ChurnDurable => base
                .with_replication(2)
                .with_route_cache(4096)
                .with_durability(DurabilityConfig::default()),
            _ => base,
        }
    }
}

/// What a repetition records besides running the queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Nothing: the only mode end-to-end metrics come from.
    Plain,
    /// A recording telemetry sink attached to the system.
    Sink,
    /// The sink plus the harness's spans and shadow calls.
    Traced,
}

/// The timed phase is cut into this many contiguous slices, timed one by
/// one (`engine_w2`: handed to the engine as this many batches). Every
/// repetition runs the same queries in the same order, so slice `k` of
/// one repetition is the same work as slice `k` of another.
pub const SLICES: usize = 32;
const ENGINE_BATCHES: usize = 8;

/// Raw measurements of one repetition.
#[derive(Debug, Default)]
pub struct Rep {
    pub setup_s: f64,
    /// How much slower than the quiet reference box the machine ran
    /// during set-up (see `calib`).
    pub setup_slow: f64,
    /// Wall seconds of each slice of the timed phase.
    pub slice_s: Vec<f64>,
    /// The machine's slowdown during each slice.
    pub slice_slow: Vec<f64>,
    pub cpu_s: f64,
    pub queries: u64,
    pub failed: u64,
    /// Per-query wall latency, in query order; empty where results arrive
    /// per batch (`engine_w2`).
    pub lat_ns: Vec<u32>,
    pub messages: u64,
    pub recall_sum: f64,
    pub digest: u64,
    /// Peak resident set of the process when the repetition ended, MiB.
    pub peak_rss_mib: f64,
    /// Messages and queries the telemetry sink counted (Sink and Traced).
    pub sink: Option<(u64, u64)>,
    /// Per-layer values this repetition could measure.
    pub layer: Vec<(&'static str, f64)>,
    /// A broken invariant; fails the run.
    pub broken: Vec<String>,
}

impl Rep {
    pub fn timed_s(&self) -> f64 {
        self.slice_s.iter().sum()
    }

    /// This repetition's own throughput, machine noise included.
    pub fn qps(&self) -> f64 {
        self.queries as f64 / self.timed_s()
    }
}

/// Times the slices of a timed phase and reads the yardstick at every
/// cut, outside the slices' own time.
struct SliceClock<'a> {
    yardstick: &'a Yardstick,
    last_reading: f64,
    slice_start: Instant,
    slice_s: Vec<f64>,
    slice_slow: Vec<f64>,
    /// Seconds spent reading the yardstick: pure CPU, taken off the
    /// timed phase's CPU time.
    reading_s: f64,
}

impl<'a> SliceClock<'a> {
    fn start(yardstick: &'a Yardstick, first_reading: f64, slices: usize) -> SliceClock<'a> {
        SliceClock {
            yardstick,
            last_reading: first_reading,
            slice_start: Instant::now(),
            slice_s: Vec::with_capacity(slices),
            slice_slow: Vec::with_capacity(slices),
            reading_s: 0.0,
        }
    }

    fn cut(&mut self) {
        let end = Instant::now();
        self.slice_s.push((end - self.slice_start).as_secs_f64());
        let reading = self.yardstick.slowdown();
        self.slice_slow.push((self.last_reading + reading) / 2.0);
        self.last_reading = reading;
        self.slice_start = Instant::now();
        self.reading_s += (self.slice_start - end).as_secs_f64();
    }
}

/// The end-to-end metrics of a set of repetitions of identical work.
///
/// Every time is first divided by the machine's slowdown while it was
/// taken (see `calib`), then the median over the repetitions is kept: per
/// slice for throughput, per query for the latency percentiles, per
/// repetition for CPU time and set-up. That estimates what the program
/// needs on the quiet reference box, which is the only thing a later
/// commit can be compared on. With `scaled` off the slowdowns read as 1:
/// a repetition's own, raw readings, kept in the results file beside the
/// estimate.
pub fn end_to_end(reps: &[&Rep], scaled: bool) -> Vec<(&'static str, f64)> {
    let first = reps[0];
    let slice_slow = |r: &Rep, k: usize| if scaled { r.slice_slow[k] } else { 1.0 };
    let setup_slow = |r: &Rep| if scaled { r.setup_slow } else { 1.0 };
    let q = first.queries as f64;
    let slices = first.slice_s.len();
    let over_reps = |value: &dyn Fn(&Rep) -> f64| {
        quantile(&reps.iter().map(|r| value(r)).collect::<Vec<_>>(), 0.5)
    };
    let timed_s: f64 = (0..slices)
        .map(|k| over_reps(&|r| r.slice_s[k] / slice_slow(r, k)))
        .sum();
    let slice_len = first.lat_ns.len().div_ceil(slices);
    let mut lat_ns: Vec<f64> = (0..first.lat_ns.len())
        .map(|j| over_reps(&|r| f64::from(r.lat_ns[j]) / slice_slow(r, j / slice_len)))
        .collect();
    lat_ns.sort_by(f64::total_cmp);
    let lat_us = |p: f64| match percentile(&lat_ns, p) {
        Ok(ns) => ns / 1e3,
        // Batch results arrive together: the only per-query time a caller
        // can observe is the timed phase's wall time over its size, and
        // both percentiles read that.
        Err(_) if lat_ns.is_empty() => timed_s * 1e6 / q,
        Err(why) => panic!("workload sized too small: {why}"),
    };
    // CPU time accrues slice by slice: scale it by the time-weighted mean
    // slowdown of the timed phase.
    let cpu_scaled = |r: &Rep| {
        let weighted: f64 = (0..slices).map(|k| r.slice_s[k] * slice_slow(r, k)).sum();
        r.cpu_s / (weighted / r.timed_s())
    };
    vec![
        ("qps", q / timed_s),
        ("query_p50_us", lat_us(0.5)),
        ("query_p99_us", lat_us(0.99)),
        ("cpu_us_per_query", over_reps(&cpu_scaled) * 1e6 / q),
        ("messages_per_query", first.messages as f64 / q),
        ("recall_mean", first.recall_sum / q),
        ("setup_s", over_reps(&|r| r.setup_s / setup_slow(r))),
        // Memory only grows: the first repetition's peak is the workload's,
        // later ones add what the allocator kept.
        (
            "peak_rss_mb",
            reps.iter()
                .map(|r| r.peak_rss_mib)
                .fold(f64::INFINITY, f64::min),
        ),
    ]
}

/// Folds outcomes into the digest, the recall sum and the failure count
/// as they arrive, so a repetition holds no outcome beyond its query.
#[derive(Default)]
struct Fold {
    digest: Fnv,
    recall_sum: f64,
    failed: u64,
    hops: u64,
}

impl Fold {
    fn outcome(&mut self, o: &QueryOutcome, l: usize) {
        let d = &mut self.digest;
        match &o.best_match {
            None => d.u64(u64::MAX),
            Some(m) => {
                d.u64(m.intervals().len() as u64);
                for &(lo, hi) in m.intervals() {
                    d.u64(u64::from(lo) << 32 | u64::from(hi));
                }
            }
        }
        d.u64(o.recall.to_bits());
        d.u64(u64::from(o.exact) << 1 | u64::from(o.stored));
        d.u64(o.hops.len() as u64);
        for &h in &o.hops {
            d.u64(h as u64);
            self.hops += h as u64;
        }
        for &id in &o.identifiers {
            d.u64(u64::from(id));
        }
        self.recall_sum += o.recall;

        // The reported recall must be what the reported match gives (no
        // workload pads its queries), and an exact hit is the query itself.
        let recall = o
            .best_match
            .as_ref()
            .map_or(0.0, |m| o.query.containment_in(m));
        let sound = !o.fell_back_to_source
            && o.identifiers.len() == l
            && o.recall == recall
            && (!o.exact || o.best_match.as_ref() == Some(&o.query));
        self.failed += u64::from(!sound);
    }
}

/// Two renditions agree on a query when they agree on every field the
/// digest covers; bookkeeping such as `peers_contacted` is each one's own.
fn same_answer(a: &QueryOutcome, b: &QueryOutcome) -> bool {
    a.best_match == b.best_match
        && a.recall.to_bits() == b.recall.to_bits()
        && a.exact == b.exact
        && a.stored == b.stored
        && a.hops == b.hops
        && a.identifiers == b.identifiers
}

/// Totals folded out of a recording sink before each reset.
#[derive(Default)]
struct SinkTotals {
    messages: u64,
    queries: u64,
}

impl SinkTotals {
    fn drain(&mut self, sink: &Telemetry) {
        let snap = sink.snapshot();
        self.messages += snap.total_messages();
        self.queries += snap.counter("core.queries") + snap.counter("resilient.queries");
        sink.reset();
    }
}

/// A system under test, driven one query at a time.
trait Subject {
    /// The per-layer metric the mean `chord.lookup` span is reported as.
    const LOOKUP_METRIC: &'static str = "chord.lookup_ns";

    /// Snapshot cumulative counters: the timed phase starts here.
    fn start_timed(&mut self);
    fn query(&mut self, q: &RangeSet) -> QueryOutcome;
    /// Work the workload does between queries (churn), before query `i`.
    fn between(&mut self, _i: usize, _log: Option<&mut SpanLog>) {}
    /// The shadow calls into single layers for query `i`, each in a span.
    fn shadow(&mut self, _i: u32, _q: &RangeSet, _log: &mut SpanLog) {}
    /// After the real query of a traced repetition: cross-checks against
    /// the shadows. False counts the query as failed.
    fn after(&mut self, _i: u32, _q: &RangeSet, _out: &QueryOutcome, _log: &mut SpanLog) -> bool {
        true
    }
    /// Install the sink; false if the system takes none (`ProtoNetwork`).
    fn attach_sink(&mut self, _sink: Telemetry) -> bool {
        false
    }
    /// Overlay messages since `start_timed`, given the hops the outcomes
    /// reported.
    fn messages(&self, outcome_hops: u64) -> u64;
    /// Queries the system itself counted since `start_timed`, if it counts.
    fn counted_queries(&self) -> Option<u64> {
        None
    }
    /// Count metrics of the layers, per timed query where that applies.
    fn counts(&self, queries: f64, out: &mut Vec<(&'static str, f64)>);
    /// Traced-repetition extras read after the loop.
    fn traced_extras(&mut self, _out: &mut Vec<(&'static str, f64)>) {}
}

/// The closed loop: one client, next query only after the previous one
/// returned. Per-query latency is an `Instant` pair around the query
/// call alone; throughput is the loop's wall time.
fn drive<S: Subject>(
    subject: &mut S,
    queries: &[RangeSet],
    l: usize,
    mode: Mode,
    yardstick: &Yardstick,
    first_reading: f64,
) -> (Rep, Option<SpanLog>) {
    let sink = (mode != Mode::Plain)
        .then(Telemetry::recording)
        .filter(|sink| subject.attach_sink(sink.clone()));
    let mut log = (mode == Mode::Traced).then(|| SpanLog::with_capacity(queries.len() * 14));
    let mut lat_ns: Vec<u32> = Vec::with_capacity(queries.len());
    let mut fold = Fold::default();
    let mut totals = SinkTotals::default();
    subject.start_timed();

    let slice_len = queries.len().div_ceil(SLICES);
    let cpu0 = cpu_seconds();
    let mut clock = SliceClock::start(yardstick, first_reading, SLICES);
    for (i, q) in queries.iter().enumerate() {
        subject.between(i, log.as_mut());
        match log.as_mut() {
            None => {
                let t = Instant::now();
                let out = subject.query(q);
                lat_ns.push(t.elapsed().as_nanos() as u32);
                fold.outcome(&out, l);
            }
            Some(log) => {
                let qi = i as u32;
                let root = log.open(Name::HarnessQuery, qi);
                subject.shadow(qi, q, log);
                let core = log.open(Name::CoreQuery, qi);
                let t = Instant::now();
                let out = subject.query(q);
                lat_ns.push(t.elapsed().as_nanos() as u32);
                log.close(core);
                fold.outcome(&out, l);
                fold.failed += u64::from(!subject.after(qi, q, &out, log));
                log.close(root);
            }
        }
        if let Some(sink) = &sink {
            if i % SINK_DRAIN_EVERY == SINK_DRAIN_EVERY - 1 {
                totals.drain(sink);
            }
        }
        if (i + 1) % slice_len == 0 || i + 1 == queries.len() {
            clock.cut();
        }
    }
    let cpu_s = cpu_seconds() - cpu0 - clock.reading_s;
    if let Some(sink) = &sink {
        totals.drain(sink);
    }

    let n = queries.len() as u64;
    let mut rep = Rep {
        slice_s: clock.slice_s,
        slice_slow: clock.slice_slow,
        cpu_s,
        queries: n,
        failed: fold.failed,
        lat_ns,
        messages: subject.messages(fold.hops),
        recall_sum: fold.recall_sum,
        digest: fold.digest.0,
        sink: sink.map(|_| (totals.messages, totals.queries)),
        ..Rep::default()
    };
    if let Some(counted) = subject.counted_queries() {
        if counted != n {
            rep.broken.push(format!(
                "system counted {counted} queries, {n} were attempted"
            ));
        }
    }
    subject.counts(n as f64, &mut rep.layer);
    rep.layer
        .push(("failed_share", rep.failed as f64 / n as f64));
    if let Some(log) = &log {
        subject.traced_extras(&mut rep.layer);
        span_metrics(log, queries.len(), S::LOOKUP_METRIC, &mut rep);
    }
    (rep, log)
}

/// Layer times and shares from a traced repetition's spans. The shadows
/// repeat work the real query also does, so what the query spends beyond
/// them (`core.commit_*`) is routing bookkeeping, store-on-miss and
/// telemetry: everything no shadow covers.
fn span_metrics(log: &SpanLog, queries: usize, lookup_metric: &'static str, rep: &mut Rep) {
    let layers = per_query_layers(&log.spans, queries);
    let n = queries as f64;
    let sum = |f: fn(&crate::spans::QueryLayers) -> u64| layers.iter().map(f).sum::<u64>() as f64;
    let (lsh, chord, bucket, core) = (
        sum(|q| q.lsh),
        sum(|q| q.chord),
        sum(|q| q.bucket),
        sum(|q| q.core),
    );
    let direct = sum(|q| q.direct);
    // Where one layer is nearly the whole query (`wide_hash`), its shadow
    // outlasts the query on half the queries by timing noise alone, so the
    // check is on the totals: the parts may not exceed the whole by more
    // than a noisy moment on the machine explains.
    if lsh + chord + bucket > 1.05 * core {
        rep.broken.push(format!(
            "shadow calls sum to {:.3} of the real queries' time",
            (lsh + chord + bucket) / core
        ));
    }
    let commit = (core - lsh - chord - bucket).max(0.0);
    let calls = |name: Name| log.spans.iter().filter(|s| s.name == name).count().max(1) as f64;
    rep.layer.extend([
        ("lsh.identifiers_ns", lsh / calls(Name::LshIdentifiers)),
        ("lsh.share", lsh / core),
        (lookup_metric, chord / calls(Name::ChordLookup)),
        ("chord.share", chord / core),
        ("bucket.match_ns", bucket / calls(Name::BucketMatch)),
        ("bucket.share", bucket / core),
        ("core.query_ns", core / n),
        ("core.commit_ns", commit / n),
        ("core.commit_share", commit / core),
    ]);
    let mut lat_ns = rep.lat_ns.clone();
    lat_ns.sort_unstable();
    if let Ok(ns) = percentile(&lat_ns, 0.999) {
        rep.layer.push(("core.query_p999_us", f64::from(ns) / 1e3));
    }
    if direct > 0.0 {
        let mut proto: Vec<u64> = layers.iter().map(|q| q.core).collect();
        let mut plain: Vec<u64> = layers.iter().map(|q| q.direct).collect();
        proto.sort_unstable();
        plain.sort_unstable();
        let (p, d) = (proto[proto.len() / 2], plain[plain.len() / 2]);
        rep.layer
            .push(("proto.slowdown_vs_direct", p as f64 / d as f64));
    }
}

// ---------------------------------------------------------------- static

/// A second copy of the system that the shadow calls read and that then
/// answers the same query, so it stays in step. Shadowing the network
/// under test itself would pull its buckets and finger tables into the
/// CPU caches just before the real query: the shadows would pay the
/// misses, the query would not, and the layers would sum to more than
/// the whole. The twin's memory is its own, so both run cold.
struct Twin {
    net: RangeSelectNetwork,
    shadow: StaticShadow,
}

impl Twin {
    fn shadow(&mut self, i: u32, q: &RangeSet, log: &mut SpanLog) {
        self.shadow.run(&self.net, i, q, log);
    }

    /// The twin's own answer, after checking the shadow hashed what the
    /// query hashed (or it measured work the query does not do).
    fn answer(&mut self, q: &RangeSet) -> Option<QueryOutcome> {
        let out = self.net.query(q);
        (self.shadow.ids == out.identifiers).then_some(out)
    }

    /// [`Self::answer`] for a system that memoizes identifiers: when the
    /// query found them cached, its hashing shadow is charged to no layer.
    fn answer_cached(&mut self, q: &RangeSet, log: &mut SpanLog) -> Option<QueryOutcome> {
        let misses = self.net.identifier_cache().misses();
        let out = self.answer(q);
        if self.net.identifier_cache().misses() == misses {
            log.spans[self.shadow.ids_span as usize].name = Name::LshCached;
        }
        out
    }
}

/// The shadow calls against a static network: what the query will do at
/// each layer, repeated from outside with a harness-drawn origin.
struct StaticShadow {
    rng: DetRng,
    /// Layered placement keys an arc by one more hash group, drawn the way
    /// `ars-core` documents. Set-up checks the recipe against where the
    /// network really stored a partition, so drift fails loudly.
    anchors: Option<HashGroups>,
    ids: Vec<u32>,
    /// The span that hashed `ids` for the current query.
    ids_span: crate::spans::SpanId,
    scan_lens: Vec<u32>,
}

const ANCHOR_SALT: u64 = 0x6172_735F_6172_6373;

impl StaticShadow {
    fn new(config: &SystemConfig, seed: u64) -> StaticShadow {
        let anchors = (config.placement_mode == PlacementMode::Layered).then(|| {
            let mut rng = DetRng::new(config.seed ^ ANCHOR_SALT);
            HashGroups::generate(config.family, config.layers, 1, &mut rng)
        });
        StaticShadow {
            rng: DetRng::new(seed ^ 0x5AD0),
            anchors,
            ids: vec![0; config.l],
            ids_span: crate::spans::NONE,
            scan_lens: Vec::new(),
        }
    }

    fn run(&mut self, net: &RangeSelectNetwork, qi: u32, q: &RangeSet, log: &mut SpanLog) {
        let config = net.config();
        let ring = net.ring();
        let origin = {
            let ids = ring.node_ids();
            ids[self.rng.gen_index(ids.len())]
        };
        self.ids_span = log.open(Name::LshIdentifiers, qi);
        net.groups().identifiers_into(q, &mut self.ids);
        log.close(self.ids_span);
        match &self.anchors {
            None => {
                let mut distinct: Vec<u32> = Vec::with_capacity(self.ids.len());
                for &id in &self.ids {
                    if !distinct.contains(&id) {
                        distinct.push(id);
                    }
                }
                let mut owners: Vec<Id> = Vec::with_capacity(distinct.len());
                for &id in &distinct {
                    let owner = log.within(Name::ChordLookup, qi, || {
                        black_box(ring.lookup(origin, net.place(id))).0
                    });
                    owners.push(owner);
                }
                for (&id, &owner) in distinct.iter().zip(&owners) {
                    let peer = net.peer(owner).expect("ring owners hold storage");
                    log.within(Name::BucketMatch, qi, || {
                        black_box(peer.best_in_bucket(id, q, config.matching))
                    });
                    self.scan_lens
                        .push(peer.bucket(id).map_or(0, |b| b.len() as u32));
                }
            }
            Some(anchors) => {
                // The anchor sketch and the probe ladder are hashed on every
                // query, cached identifiers or not.
                let (anchor, candidates) = log.within(Name::LshIdentifiers, qi, || {
                    let anchor = anchors.identifiers(q)[0];
                    let mut candidates: Vec<u32> =
                        Vec::with_capacity(self.ids.len() + config.probes);
                    for &id in &self.ids {
                        if !candidates.contains(&id) {
                            candidates.push(id);
                        }
                    }
                    for c in net.groups().probe_candidates(q, config.probes) {
                        if !candidates.contains(&c.identifier) {
                            candidates.push(c.identifier);
                        }
                    }
                    (anchor, candidates)
                });
                let visited = log.within(Name::ChordLookup, qi, || {
                    let first = ring.lookup(origin, arc_base(anchor)).0;
                    ring.successors_window(first, config.walk_window)
                });
                for &owner in &visited {
                    let peer = net.peer(owner).expect("ring owners hold storage");
                    log.within(Name::BucketMatch, qi, || {
                        for &id in &candidates {
                            black_box(peer.best_in_bucket(id, q, config.matching));
                        }
                    });
                    let scanned: usize = candidates
                        .iter()
                        .map(|&id| peer.bucket(id).map_or(0, |b| b.len()))
                        .sum();
                    self.scan_lens.push(scanned as u32);
                }
            }
        }
    }

    /// True if `net` holds `q`'s partition where this shadow's anchor
    /// recipe says layered placement puts it.
    fn anchor_recipe_holds(&self, net: &RangeSelectNetwork, q: &RangeSet) -> bool {
        let Some(anchors) = &self.anchors else {
            return true;
        };
        let anchor = anchors.identifiers(q)[0];
        net.groups().identifiers(q).iter().all(|&id| {
            let owner = net
                .ring()
                .successor_of(ars_chord::layered_position(anchor, id));
            net.peer(owner)
                .and_then(|p| p.bucket(id))
                .is_some_and(|b| b.contains(q))
        })
    }

    fn extras(&mut self, out: &mut Vec<(&'static str, f64)>) {
        self.scan_lens.sort_unstable();
        if !self.scan_lens.is_empty() {
            let mean = self.scan_lens.iter().map(|&s| f64::from(s)).sum::<f64>()
                / self.scan_lens.len() as f64;
            out.push(("bucket.scan_len_mean", mean));
            if let Ok(p99) = percentile(&self.scan_lens, 0.99) {
                out.push(("bucket.scan_len_p99", f64::from(p99)));
            }
        }
    }
}

struct StaticSubject {
    net: RangeSelectNetwork,
    twin: Option<Twin>,
    base: ars_core::NetworkStats,
    base_cache: (u64, u64),
}

impl Subject for StaticSubject {
    fn start_timed(&mut self) {
        self.base = self.net.stats().clone();
        let cache = self.net.identifier_cache();
        self.base_cache = (cache.hits(), cache.misses());
    }

    fn query(&mut self, q: &RangeSet) -> QueryOutcome {
        self.net.query(q)
    }

    fn shadow(&mut self, i: u32, q: &RangeSet, log: &mut SpanLog) {
        if let Some(twin) = &mut self.twin {
            twin.shadow(i, q, log);
        }
    }

    fn after(&mut self, _i: u32, q: &RangeSet, out: &QueryOutcome, log: &mut SpanLog) -> bool {
        self.twin.as_mut().is_none_or(|twin| {
            twin.answer_cached(q, log)
                .is_some_and(|t| same_answer(&t, out))
        })
    }

    fn attach_sink(&mut self, sink: Telemetry) -> bool {
        self.net.set_telemetry(sink);
        true
    }

    fn messages(&self, _outcome_hops: u64) -> u64 {
        let s = self.net.stats();
        (s.total_hops - self.base.total_hops) + (s.walk_steps - self.base.walk_steps)
    }

    fn counted_queries(&self) -> Option<u64> {
        Some(self.net.stats().queries - self.base.queries)
    }

    fn counts(&self, queries: f64, out: &mut Vec<(&'static str, f64)>) {
        static_counts(&self.net, &self.base, self.base_cache, queries, out);
    }

    fn traced_extras(&mut self, out: &mut Vec<(&'static str, f64)>) {
        if let Some(twin) = &mut self.twin {
            twin.shadow.extras(out);
        }
    }
}

fn static_counts(
    net: &RangeSelectNetwork,
    base: &ars_core::NetworkStats,
    base_cache: (u64, u64),
    queries: f64,
    out: &mut Vec<(&'static str, f64)>,
) {
    let s = net.stats();
    let lookups = (s.lookups - base.lookups) as f64;
    let cache = net.identifier_cache();
    let (hits, misses) = (cache.hits() - base_cache.0, cache.misses() - base_cache.1);
    out.extend([
        (
            "identcache.hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
        ),
        ("identcache.entries", cache.len() as f64),
        ("chord.lookups_per_query", lookups / queries),
        (
            "chord.hops_per_lookup",
            (s.total_hops - base.total_hops) as f64 / lookups.max(1.0),
        ),
        (
            "chord.walk_steps_per_query",
            (s.walk_steps - base.walk_steps) as f64 / queries,
        ),
        (
            "chord.dedup_saved_per_query",
            (s.dedup_saved_lookups - base.dedup_saved_lookups) as f64 / queries,
        ),
        ("bucket.partitions_total", net.total_partitions() as f64),
        (
            "bucket.max_peer_load",
            net.load_distribution().into_iter().max().unwrap_or(0) as f64,
        ),
        (
            "bucket.probe_checks_per_query",
            (s.probe_checks - base.probe_checks) as f64 / queries,
        ),
        ("core.exact_share", (s.exact - base.exact) as f64 / queries),
        (
            "core.stored_share",
            (s.stored - base.stored) as f64 / queries,
        ),
        (
            "core.matched_share",
            (s.matched - base.matched) as f64 / queries,
        ),
    ]);
}

// ----------------------------------------------------------------- proto

struct ProtoSubject {
    net: ProtoNetwork,
    /// The direct-call rendition on the same seed: the reference every
    /// traced query is checked against, and what the shadows read.
    twin: Option<Twin>,
    base: (u64, u64),
}

impl Subject for ProtoSubject {
    fn start_timed(&mut self) {
        self.base = (self.net.messages_delivered(), self.net.bytes_sent());
    }

    fn query(&mut self, q: &RangeSet) -> QueryOutcome {
        self.net.query(q)
    }

    fn shadow(&mut self, i: u32, q: &RangeSet, log: &mut SpanLog) {
        if let Some(twin) = &mut self.twin {
            twin.shadow(i, q, log);
        }
    }

    fn after(&mut self, i: u32, q: &RangeSet, out: &QueryOutcome, log: &mut SpanLog) -> bool {
        self.twin.as_mut().is_none_or(|twin| {
            log.within(Name::DirectQuery, i, || twin.answer(q))
                .is_some_and(|t| same_answer(&t, out))
        })
    }

    fn messages(&self, _outcome_hops: u64) -> u64 {
        self.net.messages_delivered() - self.base.0
    }

    fn counts(&self, queries: f64, out: &mut Vec<(&'static str, f64)>) {
        let messages = (self.net.messages_delivered() - self.base.0) as f64;
        let bytes = (self.net.bytes_sent() - self.base.1) as f64;
        out.extend([
            ("wire_bytes_per_query", bytes / queries),
            ("simnet.messages_per_query", messages / queries),
            ("simnet.bytes_per_message", bytes / messages.max(1.0)),
        ]);
    }

    fn traced_extras(&mut self, out: &mut Vec<(&'static str, f64)>) {
        if let Some(twin) = &mut self.twin {
            twin.shadow.extras(out);
        }
    }
}

// ----------------------------------------------------------------- churn

struct ChurnSubject {
    net: ChurnNetwork,
    /// Queries run before this subject's timed phase, so churn events keep
    /// their place in the whole trace.
    offset: usize,
    ticks: Vec<u64>,
    maintenance_s: f64,
    unconverged: u64,
    /// Hash groups and placement, read off a frozen snapshot (the churn
    /// network exposes neither), and the harness's origin draws.
    shadow: Option<(RangeSelectNetwork, DetRng, Vec<u32>)>,
    /// `(identifier, range)` of every partition a traced query stored.
    placed: Vec<(u32, RangeSet)>,
    base: ars_core::ResilienceStats,
    base_cache: ars_chord::RouteCacheStats,
    base_store: StoreTotals,
}

#[derive(Debug, Clone, Copy, Default)]
struct StoreTotals {
    records: u64,
    appended: u64,
    synced: u64,
}

impl ChurnSubject {
    /// One peer fails, the ring repairs, one peer joins, the ring repairs.
    fn churn(&mut self) {
        self.net.fail_random(1);
        self.unconverged += u64::from(self.net.stabilize(64).is_none());
        self.unconverged += u64::from(self.net.join_random().is_err());
        self.unconverged += u64::from(self.net.stabilize(64).is_none());
    }

    /// Log totals over the peers alive now; a failed peer takes its log
    /// with it, so these are floors of what the run appended.
    fn store_totals(&self) -> StoreTotals {
        let mut t = StoreTotals::default();
        for id in self.net.chord().node_ids() {
            if let Some(log) = self.net.log_of(id) {
                let disk = log.disk_stats();
                t.records += log.records_appended();
                t.appended += disk.appended_bytes;
                t.synced += disk.synced_bytes;
            }
        }
        t
    }
}

impl Subject for ChurnSubject {
    const LOOKUP_METRIC: &'static str = "chord.dyn_lookup_ns";

    fn start_timed(&mut self) {
        self.base = self.net.resilience().clone();
        self.base_cache = self.net.route_cache_stats();
        self.base_store = self.store_totals();
    }

    fn query(&mut self, q: &RangeSet) -> QueryOutcome {
        let (out, ticks) = self.net.query_timed(q);
        self.ticks.push(ticks);
        out
    }

    fn between(&mut self, i: usize, log: Option<&mut SpanLog>) {
        if (self.offset + i) % CHURN_EVERY == CHURN_EVERY - 1 {
            let t = Instant::now();
            match log {
                Some(log) => log.within(Name::ChordMaintenance, i as u32, || self.churn()),
                None => self.churn(),
            }
            self.maintenance_s += t.elapsed().as_secs_f64();
        }
    }

    fn shadow(&mut self, i: u32, q: &RangeSet, log: &mut SpanLog) {
        let Some((frozen, rng, ids)) = &mut self.shadow else {
            return;
        };
        log.within(Name::LshIdentifiers, i, || {
            frozen.groups().identifiers_into(q, ids)
        });
        let origin = {
            let nodes = self.net.chord().node_ids();
            nodes[rng.gen_index(nodes.len())]
        };
        // The query routes every identifier, repeated or not. These
        // lookups share the live route cache, so a traced repetition's
        // hop counts are its own (README: traced churn is not bit-equal).
        for &id in ids.iter() {
            log.within(Name::ChordLookup, i, || {
                let _ = black_box(self.net.chord().lookup(origin, frozen.place(id)));
            });
        }
    }

    fn after(&mut self, _i: u32, q: &RangeSet, out: &QueryOutcome, _log: &mut SpanLog) -> bool {
        if out.stored {
            self.placed
                .extend(out.identifiers.iter().map(|&id| (id, q.clone())));
        }
        self.shadow
            .as_ref()
            .is_none_or(|(_, _, ids)| *ids == out.identifiers)
    }

    fn attach_sink(&mut self, sink: Telemetry) -> bool {
        self.net.set_telemetry(sink);
        true
    }

    fn messages(&self, outcome_hops: u64) -> u64 {
        let r = self.net.resilience();
        outcome_hops
            + (r.hedge_hops - self.base.hedge_hops)
            + (r.probes_sent - self.base.probes_sent)
    }

    fn counts(&self, queries: f64, out: &mut Vec<(&'static str, f64)>) {
        let r = self.net.resilience();
        let b = &self.base;
        let cache = self.net.route_cache_stats();
        let (hits, misses) = (
            cache.hits - self.base_cache.hits,
            cache.misses - self.base_cache.misses,
        );
        let store = self.store_totals();
        let appended = store.appended.saturating_sub(self.base_store.appended) as f64;
        let mut ticks = self.ticks.clone();
        ticks.sort_unstable();
        out.extend([
            (
                "virtual_latency_p99_ticks",
                percentile(&ticks, 0.99).expect("churn_durable sized for a p99") as f64,
            ),
            (
                "chord.routecache_hit_rate",
                hits as f64 / (hits + misses).max(1) as f64,
            ),
            ("chord.stabilize_s", self.maintenance_s),
            (
                "resilient.attempts_per_query",
                (r.lookups_attempted - b.lookups_attempted) as f64 / queries,
            ),
            (
                "resilient.retries_per_query",
                (r.retries - b.retries) as f64 / queries,
            ),
            (
                "resilient.fallback_share",
                (r.source_fallbacks - b.source_fallbacks) as f64 / queries,
            ),
            (
                "resilient.hedges_fired",
                (r.hedges_fired - b.hedges_fired) as f64,
            ),
            (
                "resilient.replica_writes_per_query",
                (r.buckets_placed - b.buckets_placed) as f64 / queries,
            ),
            (
                "store.records_per_query",
                store.records.saturating_sub(self.base_store.records) as f64 / queries,
            ),
            ("store.bytes_per_query", appended / queries),
            (
                "store.synced_share",
                store.synced.saturating_sub(self.base_store.synced) as f64 / appended.max(1.0),
            ),
            (
                "bucket.partitions_total",
                self.net.total_partitions() as f64,
            ),
        ]);
    }

    fn traced_extras(&mut self, out: &mut Vec<(&'static str, f64)>) {
        // The op log's own cost: the payloads this run placed, replayed
        // into one standalone store of the same configuration.
        if !self.placed.is_empty() {
            let mut store = BucketStore::new(DurabilityConfig::default().store_config(), 0);
            let payloads: Vec<(u32, Vec<u8>)> = self
                .placed
                .iter()
                .map(|(id, r)| (*id, encode_range(r)))
                .collect();
            let t = Instant::now();
            for (id, payload) in &payloads {
                black_box(store.place(*id, payload));
            }
            out.push((
                "store.place_ns",
                t.elapsed().as_nanos() as f64 / payloads.len() as f64,
            ));
        }
    }
}

// ------------------------------------------------------------ repetitions

/// One repetition of `workload`. Returns the measurements and, in traced
/// mode, the span log.
pub fn repetition(
    workload: Workload,
    seed: u64,
    mode: Mode,
    yardstick: &Yardstick,
) -> (Rep, Option<SpanLog>) {
    let before_setup = yardstick.slowdown();
    let setup = Instant::now();
    let trace = workload.trace(seed);
    let gen_s = setup.elapsed().as_secs_f64();
    let config = workload.config();
    let l = config.l;
    let (warm, timed) = trace.split_warmup(WARMUP_SHARE);
    let traced = mode == Mode::Traced;

    let (setup_s, after_setup);
    let (mut rep, log) = match workload {
        Workload::UniformStatic
        | Workload::ZipfHot
        | Workload::WideHash
        | Workload::LayeredProbe => {
            let mut net = RangeSelectNetwork::new(STATIC_PEERS, config.clone());
            let mut last_stored = None;
            for q in warm {
                if black_box(net.query(q)).stored {
                    last_stored = Some(q);
                }
            }
            setup_s = setup.elapsed().as_secs_f64();
            after_setup = yardstick.slowdown();
            let twin = traced.then(|| Twin {
                net: net.clone(),
                shadow: StaticShadow::new(&config, seed),
            });
            let recipe_ok = match (&twin, last_stored) {
                (Some(twin), Some(q)) => twin.shadow.anchor_recipe_holds(&net, q),
                _ => true,
            };
            let mut subject = StaticSubject {
                net,
                twin,
                base: Default::default(),
                base_cache: (0, 0),
            };
            let (mut rep, log) = drive(&mut subject, timed, l, mode, yardstick, after_setup);
            if !recipe_ok {
                rep.broken.push(
                    "layered anchor recipe no longer matches where ars-core stores partitions"
                        .into(),
                );
            }
            (rep, log)
        }
        Workload::ProtoWire => {
            let mut net = ProtoNetwork::new(STATIC_PEERS, config.clone());
            for q in warm {
                black_box(net.query(q));
            }
            setup_s = setup.elapsed().as_secs_f64();
            after_setup = yardstick.slowdown();
            let twin = traced.then(|| {
                let mut net = RangeSelectNetwork::new(STATIC_PEERS, config.clone());
                for q in warm {
                    black_box(net.query(q));
                }
                Twin {
                    net,
                    shadow: StaticShadow::new(&config, seed),
                }
            });
            let mut subject = ProtoSubject {
                net,
                twin,
                base: (0, 0),
            };
            drive(&mut subject, timed, l, mode, yardstick, after_setup)
        }
        Workload::ChurnDurable => {
            let net = ChurnNetwork::new(CHURN_PEERS, config.clone())
                .expect("ring growth converges with default stabilization");
            let shadow = traced.then(|| (net.freeze(), DetRng::new(seed ^ 0x5AD0), vec![0; l]));
            let mut subject = ChurnSubject {
                net,
                offset: 0,
                ticks: Vec::new(),
                maintenance_s: 0.0,
                unconverged: 0,
                shadow,
                placed: Vec::new(),
                base: Default::default(),
                base_cache: Default::default(),
                base_store: Default::default(),
            };
            for (i, q) in warm.iter().enumerate() {
                subject.between(i, None);
                black_box(subject.query(q));
            }
            setup_s = setup.elapsed().as_secs_f64();
            after_setup = yardstick.slowdown();
            subject.offset = warm.len();
            subject.ticks.clear();
            subject.maintenance_s = 0.0;
            let (mut rep, log) = drive(&mut subject, timed, l, mode, yardstick, after_setup);
            if subject.unconverged > 0 {
                rep.broken.push(format!(
                    "{} churn steps left the ring unconverged",
                    subject.unconverged
                ));
            }
            (rep, log)
        }
        Workload::EngineW2 => {
            let mut net = RangeSelectNetwork::new(STATIC_PEERS, config);
            for q in warm {
                black_box(net.query(q));
            }
            setup_s = setup.elapsed().as_secs_f64();
            after_setup = yardstick.slowdown();
            let sink = (mode != Mode::Plain).then(Telemetry::recording);
            if let Some(sink) = &sink {
                net.set_telemetry(sink.clone());
            }
            let base = net.stats().clone();
            let cache = net.identifier_cache();
            let base_cache = (cache.hits(), cache.misses());

            let mut fold = Fold::default();
            let mut answered = 0u64;
            let cpu0 = cpu_seconds();
            let mut clock = SliceClock::start(yardstick, after_setup, ENGINE_BATCHES);
            for batch in timed.chunks(timed.len().div_ceil(ENGINE_BATCHES)) {
                let outcomes = net.query_batch_concurrent_with(batch, ENGINE);
                answered += outcomes.len() as u64;
                for o in &outcomes {
                    fold.outcome(o, l);
                }
                clock.cut();
            }
            let cpu_s = cpu_seconds() - cpu0 - clock.reading_s;
            let timed_s: f64 = clock.slice_s.iter().sum();
            let n = timed.len() as u64;
            let s = net.stats();
            let mut rep = Rep {
                slice_s: clock.slice_s,
                slice_slow: clock.slice_slow,
                cpu_s,
                queries: n,
                failed: fold.failed + (n - answered),
                messages: (s.total_hops - base.total_hops) + (s.walk_steps - base.walk_steps),
                recall_sum: fold.recall_sum,
                digest: fold.digest.0,
                sink: sink.map(|sink| {
                    let mut totals = SinkTotals::default();
                    totals.drain(&sink);
                    (totals.messages, totals.queries)
                }),
                ..Rep::default()
            };
            if s.queries - base.queries != n {
                rep.broken.push(format!(
                    "system counted {} queries, {n} were attempted",
                    s.queries - base.queries
                ));
            }
            static_counts(&net, &base, base_cache, n as f64, &mut rep.layer);
            rep.layer.extend([
                ("failed_share", rep.failed as f64 / n as f64),
                ("engine.cpu_per_wall", cpu_s / timed_s),
            ]);
            (rep, None)
        }
    };
    rep.setup_s = setup_s;
    rep.setup_slow = (before_setup + after_setup) / 2.0;
    rep.peak_rss_mib = crate::procfs::peak_rss_mib();
    if mode != Mode::Plain {
        rep.layer.extend([
            ("workload.gen_s", gen_s),
            ("workload.repetition_rate", trace.repetition_rate()),
            ("workload.mean_width", trace.mean_size()),
        ]);
    }
    (rep, log)
}

/// `engine_w2`'s stage breakdown: the same set-up, then the timed queries
/// through one `query_batch_timed` call.
pub fn engine_batch_stages(seed: u64) -> Vec<(&'static str, f64)> {
    let workload = Workload::EngineW2;
    let trace = workload.trace(seed);
    let (warm, timed) = trace.split_warmup(WARMUP_SHARE);
    let mut net = RangeSelectNetwork::new(STATIC_PEERS, workload.config());
    for q in warm {
        black_box(net.query(q));
    }
    let (outcomes, t) = net.query_batch_timed(timed);
    black_box(outcomes);
    vec![
        ("engine.batch_hash_s", t.hash_secs),
        ("engine.batch_route_s", t.route_secs),
        ("engine.batch_commit_s", t.commit_secs),
    ]
}

/// The two renditions that promise to answer exactly as a reference does
/// are held to it on a prefix of their trace before anything is timed.
/// Returns `(queries checked, queries that differed)`.
pub fn check_equivalence(workload: Workload, seed: u64) -> (u64, u64) {
    if !matches!(workload, Workload::ProtoWire | Workload::EngineW2) {
        return (0, 0);
    }
    let config = workload.config();
    let trace = workload.trace(seed);
    let prefix = &trace.queries()[..EQUIVALENCE_PREFIX.min(trace.len())];
    let differing = |a: &[QueryOutcome], b: &[QueryOutcome]| {
        a.iter().zip(b).filter(|(x, y)| !same_answer(x, y)).count() as u64
            + a.len().abs_diff(b.len()) as u64
    };
    match workload {
        Workload::ProtoWire => {
            let mut proto = ProtoNetwork::new(STATIC_PEERS, config.clone());
            let mut direct = RangeSelectNetwork::new(STATIC_PEERS, config);
            let a: Vec<_> = prefix.iter().map(|q| proto.query(q)).collect();
            let b: Vec<_> = prefix.iter().map(|q| direct.query(q)).collect();
            (prefix.len() as u64, differing(&a, &b))
        }
        Workload::EngineW2 => {
            let mut concurrent = RangeSelectNetwork::new(STATIC_PEERS, config.clone());
            let mut reference = RangeSelectNetwork::new(STATIC_PEERS, config);
            let a = concurrent.query_batch_concurrent_with(prefix, ENGINE);
            let b = reference.query_trace_sharded(prefix, ENGINE.shards);
            (prefix.len() as u64, differing(&a, &b))
        }
        _ => unreachable!("returned above"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(slice_s: [f64; 2], slow: f64, lat_ns: u32, cpu_s: f64, setup_s: f64) -> Rep {
        Rep {
            setup_s,
            setup_slow: slow,
            slice_s: slice_s.to_vec(),
            slice_slow: vec![slow; 2],
            cpu_s,
            queries: 2_000,
            lat_ns: vec![lat_ns; 2_000],
            messages: 4_000,
            recall_sum: 1_500.0,
            peak_rss_mib: 10.0 + slow,
            ..Rep::default()
        }
    }

    fn value(metrics: &[(&'static str, f64)], name: &str) -> f64 {
        metrics.iter().find(|(n, _)| *n == name).expect(name).1
    }

    /// Three repetitions of the same work: one at reference speed, one on
    /// a machine twice as slow (every reading doubles with its slowdown),
    /// one with a burst the yardstick missed. The estimate is the scaled
    /// median, so neither the slow spell nor the burst moves it.
    #[test]
    fn estimate_is_the_median_of_scaled_repetitions() {
        let quiet = rep([1.0, 3.0], 1.0, 1_000, 4.0, 0.5);
        let slow = rep([2.0, 6.0], 2.0, 2_000, 8.0, 1.0);
        let burst = rep([1.0, 9.0], 1.0, 5_000, 4.5, 0.7);
        let e = end_to_end(&[&quiet, &slow, &burst], true);
        assert_eq!(value(&e, "qps"), 2_000.0 / 4.0);
        assert_eq!(value(&e, "query_p50_us"), 1.0);
        assert_eq!(value(&e, "query_p99_us"), 1.0);
        assert_eq!(value(&e, "cpu_us_per_query"), 4.0e6 / 2_000.0);
        assert_eq!(value(&e, "messages_per_query"), 2.0);
        assert_eq!(value(&e, "recall_mean"), 0.75);
        assert_eq!(value(&e, "setup_s"), 0.5);
        assert_eq!(value(&e, "peak_rss_mb"), 11.0);
        // A single repetition reads as itself, scaled.
        assert_eq!(value(&end_to_end(&[&slow], true), "qps"), 500.0);
        // Unscaled, it reads as the clock did.
        assert_eq!(value(&end_to_end(&[&slow], false), "qps"), 250.0);
        assert_eq!(value(&end_to_end(&[&slow], false), "setup_s"), 1.0);
    }

    /// Batch results arrive together: both percentiles read the amortised
    /// time per query.
    #[test]
    fn batch_workloads_report_amortised_latency() {
        let mut batch = rep([1.0, 3.0], 1.0, 0, 4.0, 0.5);
        batch.lat_ns.clear();
        let e = end_to_end(&[&batch], true);
        assert_eq!(value(&e, "query_p50_us"), 4.0e6 / 2_000.0);
        assert_eq!(value(&e, "query_p99_us"), value(&e, "query_p50_us"));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
