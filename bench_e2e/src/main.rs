//! `bench_e2e`: the repo's one perf ledger. See README.md beside this
//! package for the vocabulary, the prediction table and the baseline.
//!
//! ```text
//! bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload in this process; the last stdout line is the result
//! bench_e2e [--seed <n>] [--seconds <s>] [--trace <0|1>] [--out <file>]
//!     every workload, each in a child process; writes a results file
//! bench_e2e --compare <a.json> <b.json>
//!     per workload x end-to-end metric: medians, change, bound, verdict
//! ```

mod calib;
mod compare;
mod json;
mod procfs;
mod spans;
mod stats;
mod vocab;
mod workloads;

use ars_common::stats::percentile as quantile;
use compare::Estimate;
use json::Json;
use stats::Summary;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use vocab::{Metric, END_TO_END, PER_LAYER};
use workloads::{
    check_equivalence, end_to_end, engine_batch_stages, repetition, Mode, Rep, Workload,
};

/// Fewer repetitions than this and a median is one run's luck; the time
/// budget may be overrun to reach it.
const MIN_REPETITIONS: usize = 3;
const DEFAULT_SECONDS: f64 = 16.0;
/// Queries whose spans the spans file keeps (see `spans::spans_json`).
const SPANS_FILE_QUERIES: u32 = 2_000;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} outside (0, 3600]"));
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--compare" => args.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// `<target dir>/bench_e2e/`: where spans and default results files go.
/// The executable sits in `<target dir>/<profile>/`, wherever
/// `CARGO_TARGET_DIR` put that.
fn artifact_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let dir = exe
        .parent()
        .and_then(|profile| profile.parent())
        .expect("cargo places executables two levels below the target directory")
        .join("bench_e2e");
    std::fs::create_dir_all(&dir).expect("target directory is writable");
    dir
}

/// Repeats `cycle` until the next one would overrun the budget.
fn fill_budget(budget: Duration, started: Instant, mut cycle: impl FnMut()) {
    let mut done = 0;
    let mut longest = Duration::ZERO;
    loop {
        let t = Instant::now();
        cycle();
        longest = longest.max(t.elapsed());
        done += 1;
        if done >= MIN_REPETITIONS && started.elapsed() + longest > budget {
            return;
        }
    }
}

/// `proto_wire` and `engine_w2` against their reference rendition.
/// Returns the queries checked and, if any answer differed, why the run
/// is incorrect.
fn equivalence(workload: Workload, seed: u64) -> (u64, u64, Option<String>) {
    let (checked, differing) = check_equivalence(workload, seed);
    let why = (differing > 0).then(|| {
        format!("{differing} of the first {checked} outcomes differ from the reference rendition")
    });
    (checked, differing, why)
}

/// What one workload's process found, in the shape both output forms use.
struct Outcome {
    workload: Workload,
    metrics: Vec<(&'static Metric, Estimate)>,
    repetitions: usize,
    attempted: u64,
    failed: u64,
    digest: u64,
    broken: Vec<String>,
}

/// All repetitions of one seed answer identically, or something in the
/// program (or the harness) is not deterministic.
fn check_identical(reps: &[&Rep], what: &str, broken: &mut Vec<String>) {
    let Some(first) = reps.first() else {
        return;
    };
    for rep in reps {
        if rep.digest != first.digest
            || rep.messages != first.messages
            || rep.recall_sum.to_bits() != first.recall_sum.to_bits()
            || rep.failed != first.failed
        {
            broken.push(format!(
                "{what}: outcomes differ between repetitions (digest {:016x} vs {:016x}, \
                 messages {} vs {}, failed {} vs {})",
                rep.digest, first.digest, rep.messages, first.messages, rep.failed, first.failed
            ));
            return;
        }
    }
}

fn run_end_to_end(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let started = Instant::now();
    let (checked, differing, unequal) = equivalence(workload, seed);
    let yardstick = calib::Yardstick::new();
    let mut reps: Vec<Rep> = Vec::new();
    fill_budget(Duration::from_secs_f64(seconds), started, || {
        reps.push(repetition(workload, seed, Mode::Plain, &yardstick).0);
    });

    // The estimate over all repetitions; the same over each half of them,
    // so a results file can say how far the run disagrees with itself; and
    // each repetition's own raw reading, machine noise included.
    let all: Vec<&Rep> = reps.iter().collect();
    let half = |parity: usize| -> Vec<&Rep> { reps.iter().skip(parity).step_by(2).collect() };
    let (whole, even, odd) = (
        end_to_end(&all, true),
        end_to_end(&half(0), true),
        end_to_end(&half(1), true),
    );
    let singles: Vec<_> = reps.iter().map(|r| end_to_end(&[r], false)).collect();
    let metrics = END_TO_END
        .iter()
        .enumerate()
        .map(|(i, m)| {
            assert_eq!(
                m.name, whole[i].0,
                "estimator and vocabulary list metrics in one order"
            );
            let per_rep: Vec<f64> = singles.iter().map(|s| s[i].1).collect();
            let estimate = Estimate {
                value: whole[i].1,
                split: Some((even[i].1, odd[i].1)),
                reps: Summary::of(&per_rep),
            };
            (m, estimate)
        })
        .collect();

    let mut broken: Vec<String> = reps.iter().flat_map(|r| r.broken.clone()).collect();
    broken.extend(unequal);
    check_identical(&all, "untraced", &mut broken);
    Outcome {
        workload,
        metrics,
        repetitions: reps.len(),
        attempted: checked + reps.iter().map(|r| r.queries).sum::<u64>(),
        failed: differing + reps.iter().map(|r| r.failed).sum::<u64>(),
        digest: reps[0].digest,
        broken,
    }
}

/// The traced run: cycles of an untraced repetition, one with a recording
/// telemetry sink, and one with the sink plus the harness's spans and
/// shadow calls. Counts come from the untraced repetitions, layer times
/// from the traced ones, overheads from the throughput of each kind.
fn run_traced(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let started = Instant::now();
    let (checked, differing, unequal) = equivalence(workload, seed);
    let mut plain: Vec<Rep> = Vec::new();
    let mut sunk: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut sequential_qps: Vec<f64> = Vec::new();
    let mut stages: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut first_log = None;
    // A cycle is three repetitions: one always runs, more while the
    // budget lasts.
    let budget = Duration::from_secs_f64(seconds);
    let yardstick = calib::Yardstick::new();
    loop {
        plain.push(repetition(workload, seed, Mode::Plain, &yardstick).0);
        sunk.push(repetition(workload, seed, Mode::Sink, &yardstick).0);
        if workload == Workload::EngineW2 {
            // The engine answers per batch: no per-query spans. Its traced
            // view is the sequential loop it competes with and the batch
            // path's own stage timings.
            sequential_qps.push(
                repetition(Workload::UniformStatic, seed, Mode::Plain, &yardstick)
                    .0
                    .qps(),
            );
            stages.push(engine_batch_stages(seed));
        } else {
            let (rep, log) = repetition(workload, seed, Mode::Traced, &yardstick);
            traced.push(rep);
            first_log = first_log.or(log);
        }
        let elapsed = started.elapsed();
        if elapsed + elapsed / plain.len() as u32 > budget {
            break;
        }
    }

    let spans = first_log.map(|log| log.spans).unwrap_or_default();
    let path = artifact_dir().join(format!("{}.spans.json", workload.name()));
    let doc = spans::spans_json(workload.name(), &spans, SPANS_FILE_QUERIES);
    std::fs::write(&path, format!("{doc}\n")).expect("spans file is writable");
    eprintln!(
        "{}: {} spans recorded, prefix written to {}",
        workload.name(),
        spans.len(),
        path.display()
    );

    let mut broken: Vec<String> = plain
        .iter()
        .chain(&sunk)
        .chain(&traced)
        .flat_map(|r| r.broken.clone())
        .collect();
    broken.extend(unequal);
    // A sink, and shadow calls that only read, must not change an answer.
    // Under churn the shadow lookups share the live route cache, so a
    // traced repetition's hop counts are its own.
    let mut same: Vec<&Rep> = plain.iter().chain(&sunk).collect();
    if workload != Workload::ChurnDurable {
        same.extend(&traced);
    }
    check_identical(&same, "traced run", &mut broken);
    // The sink's own account of messages equals the harness's, exactly.
    for rep in sunk.iter().chain(&traced) {
        if let Some((messages, queries)) = rep.sink {
            if (messages, queries) != (rep.messages, rep.queries) {
                broken.push(format!(
                    "telemetry counted {messages} messages over {queries} queries, \
                     the harness {} over {}",
                    rep.messages, rep.queries
                ));
            }
        }
    }

    // Per metric: untraced repetitions where they measure it, else traced,
    // else sink-only.
    let mut values: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for group in [&plain, &traced, &sunk] {
        let mut found: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for rep in group.iter() {
            for &(name, v) in &rep.layer {
                found.entry(name).or_default().push(v);
            }
        }
        for (name, v) in found {
            values.entry(name).or_insert(v);
        }
    }
    for stage in stages.iter().flatten() {
        values.entry(stage.0).or_default().push(stage.1);
    }
    let qps = |reps: &[Rep]| quantile(&reps.iter().map(Rep::qps).collect::<Vec<_>>(), 0.5);
    let plain_qps = qps(&plain);
    let sink_overhead = 1.0 - qps(&sunk) / plain_qps;
    values.insert("telemetry.recording_overhead_share", vec![sink_overhead]);
    values.insert(
        "trace.overhead_share",
        vec![if traced.is_empty() {
            sink_overhead
        } else {
            1.0 - qps(&traced) / plain_qps
        }],
    );
    if !sequential_qps.is_empty() {
        values.insert(
            "engine.speedup_vs_seq",
            vec![plain_qps / quantile(&sequential_qps, 0.5)],
        );
    }

    let all = || plain.iter().chain(&sunk).chain(&traced);
    Outcome {
        workload,
        metrics: PER_LAYER
            .iter()
            .map(|m| {
                // A layer this workload does not have reads 0.
                let reps = Summary::of(values.get(m.name).map_or(&[0.0][..], Vec::as_slice));
                let estimate = Estimate {
                    value: reps.median,
                    split: None,
                    reps,
                };
                (m, estimate)
            })
            .collect(),
        repetitions: plain.len(),
        attempted: checked + all().map(|r| r.queries).sum::<u64>(),
        failed: differing + all().map(|r| r.failed).sum::<u64>(),
        digest: plain[0].digest,
        broken,
    }
}

impl Outcome {
    fn correct(&self) -> bool {
        self.broken.is_empty()
    }

    /// One line per metric, then the result object as the last line.
    fn print(&self) {
        for why in &self.broken {
            eprintln!("{}: INCORRECT: {why}", self.workload.name());
        }
        println!(
            "{} repetitions {} digest {:016x}",
            self.workload.name(),
            self.repetitions,
            self.digest
        );
        for (m, e) in &self.metrics {
            println!("{} {} {} {}", self.workload.name(), m.name, e.value, m.unit);
        }
        let metrics = self.metrics.iter().map(|(m, e)| {
            (
                m.name,
                Json::obj([("value", Json::Num(e.value)), ("unit", Json::str(m.unit))]),
            )
        });
        println!(
            "{}",
            Json::obj([
                ("correct", Json::Bool(self.correct())),
                ("attempted", Json::Num(self.attempted as f64)),
                ("failed", Json::Num(self.failed as f64)),
                ("metrics", Json::obj(metrics)),
            ])
        );
    }

    /// The workload's entry in a results file.
    fn to_json(&self) -> Json {
        let total = self.workload.total_queries();
        let timed = total - (total as f64 * workloads::WARMUP_SHARE).round() as usize;
        Json::obj([
            ("why", Json::str(self.workload.why())),
            ("correct", Json::Bool(self.correct())),
            ("repetitions", Json::Num(self.repetitions as f64)),
            ("queries_per_repetition", Json::Num(total as f64)),
            ("timed_queries_per_repetition", Json::Num(timed as f64)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("digest", Json::str(format!("{:016x}", self.digest))),
            (
                "metrics",
                Json::obj(
                    self.metrics
                        .iter()
                        .map(|(m, e)| (m.name, e.to_json(m.unit))),
                ),
            ),
        ])
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn fingerprint() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", Json::str(procfs::cpu_model())),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

/// Every workload, each in a child process of its own so that peak memory
/// and allocator state do not leak from one workload into the next.
fn run_ledger(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = artifact_dir();
    let trace = if args.trace { "1" } else { "0" };
    let mut entries = Vec::new();
    let mut all_correct = true;
    for workload in Workload::ALL {
        let part = dir.join(format!("{}.part.json", workload.name()));
        let status = Command::new(&exe)
            .args(["--workload", workload.name(), "--trace", trace])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .arg("--out")
            .arg(&part)
            .status()
            .map_err(|e| format!("cannot start {}: {e}", workload.name()))?;
        all_correct &= status.success();
        let text = std::fs::read_to_string(&part)
            .map_err(|e| format!("{} left no result: {e}", workload.name()))?;
        entries.push((workload.name(), Json::parse(&text)?));
        let _ = std::fs::remove_file(&part);
    }
    let doc = Json::obj([
        ("benchmark", Json::str("bench_e2e")),
        ("fingerprint", fingerprint()),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds_per_workload", Json::Num(args.seconds)),
        ("traced", Json::Bool(args.trace)),
        ("workloads", Json::obj(entries)),
    ]);
    let out = args.out.clone().unwrap_or_else(|| {
        dir.join(if args.trace {
            "results.traced.json"
        } else {
            "results.json"
        })
    });
    std::fs::write(&out, format!("{doc}\n")).map_err(|e| format!("{}: {e}", out.display()))?;
    eprintln!("wrote {}", out.display());
    Ok(all_correct)
}

fn read_results(path: &PathBuf) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(args: &Args) -> Result<bool, String> {
    if let Some((a, b)) = &args.compare {
        let worse = compare::compare(&read_results(a)?, &read_results(b)?)?;
        if worse > 0 {
            eprintln!("{worse} metric(s) worse beyond their bound");
        }
        return Ok(worse == 0);
    }
    let Some(workload) = args.workload else {
        return run_ledger(args);
    };
    let outcome = if args.trace {
        run_traced(workload, args.seed, args.seconds)
    } else {
        run_end_to_end(workload, args.seed, args.seconds)
    };
    if let Some(out) = &args.out {
        std::fs::write(out, format!("{}\n", outcome.to_json()))
            .map_err(|e| format!("{}: {e}", out.display()))?;
    }
    // Last, so the result object is the last line of standard output.
    outcome.print();
    Ok(outcome.correct())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv).and_then(|args| run(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("bench_e2e: {why}");
            ExitCode::from(2)
        }
    }
}
