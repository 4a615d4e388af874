//! `--compare a.json b.json`: the before/after table every performance
//! claim in this repo is read from.

use crate::json::Json;
use crate::stats::Summary;
use crate::vocab::{Better, Metric, END_TO_END};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// Run-to-run spread of either side is wider than the bound: the pair
    /// of runs cannot say whether the metric moved.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One metric of one workload, as a results file carries it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// The reported value: for end-to-end metrics the estimate over all
    /// repetitions, for per-layer metrics the median over them.
    pub value: f64,
    /// The same estimate over the even and over the odd repetitions alone.
    pub split: Option<(f64, f64)>,
    /// Each repetition's own reading.
    pub reps: Summary,
}

impl Estimate {
    /// How far the run disagrees with itself: the gap between the
    /// estimates of its two halves, as a share of the reported value.
    pub fn spread(&self) -> f64 {
        match self.split {
            Some((a, b)) if self.value != 0.0 => (a - b).abs() / self.value.abs(),
            _ => 0.0,
        }
    }

    pub fn to_json(self, unit: &str) -> Json {
        let r = &self.reps;
        let mut pairs = vec![("unit", Json::str(unit)), ("value", Json::Num(self.value))];
        if let Some((a, b)) = self.split {
            pairs.push(("split", Json::Arr(vec![Json::Num(a), Json::Num(b)])));
        }
        pairs.extend([
            ("repetitions", Json::Num(r.n as f64)),
            ("min", Json::Num(r.min)),
            ("q1", Json::Num(r.q1)),
            ("median", Json::Num(r.median)),
            ("q3", Json::Num(r.q3)),
            ("max", Json::Num(r.max)),
        ]);
        Json::obj(pairs)
    }

    fn from_json(json: &Json) -> Option<Estimate> {
        let num = |key: &str| json.get(key).and_then(Json::as_f64);
        let split = match json.get("split") {
            Some(Json::Arr(halves)) => match halves.as_slice() {
                [a, b] => Some((a.as_f64()?, b.as_f64()?)),
                _ => return None,
            },
            _ => None,
        };
        Some(Estimate {
            value: num("value")?,
            split,
            reps: Summary {
                n: num("repetitions")? as usize,
                min: num("min")?,
                q1: num("q1")?,
                median: num("median")?,
                q3: num("q3")?,
                max: num("max")?,
            },
        })
    }
}

/// By how much of `a` the value `b` is worse (negative: better).
pub fn worsening(metric: &Metric, a: f64, b: f64) -> f64 {
    let change = (b - a) / a.abs();
    match metric.better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// A change beyond both the bound and either side's own spread is a
/// regression; within the bound it is none; in between, when the spread
/// itself exceeds the bound, the runs do not resolve it.
pub fn verdict(metric: &Metric, a: &Estimate, b: &Estimate) -> Verdict {
    let spread = a.spread().max(b.spread());
    let worse_by = worsening(metric, a.value, b.value);
    if worse_by > metric.bound && worse_by > spread {
        Verdict::Worse
    } else if spread > metric.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// Prints one row per workload × end-to-end metric present in both files.
/// Returns how many rows read `worse`.
pub fn compare(a: &Json, b: &Json) -> Result<usize, String> {
    let workloads = |doc: &Json| {
        doc.get("workloads")
            .map(|w| w.entries().to_vec())
            .ok_or("not a bench_e2e results file: no \"workloads\"".to_string())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    println!(
        "{:<15} {:<19} {:>13} {:>13} {:>8} {:>6}  verdict",
        "workload", "metric", "a", "b", "change", "bound"
    );
    let mut worse = 0;
    let mut rows = 0;
    for (name, in_a) in &wa {
        let Some((_, in_b)) = wb.iter().find(|(n, _)| n == name) else {
            continue;
        };
        for metric in END_TO_END {
            let side = |w: &Json| {
                w.get("metrics")?
                    .get(metric.name)
                    .and_then(Estimate::from_json)
            };
            let (Some(sa), Some(sb)) = (side(in_a), side(in_b)) else {
                continue;
            };
            let v = verdict(metric, &sa, &sb);
            worse += usize::from(v == Verdict::Worse);
            rows += 1;
            println!(
                "{name:<15} {:<19} {:>13.4} {:>13.4} {:>+7.1}% {:>5.0}%  {}",
                metric.name,
                sa.value,
                sb.value,
                (sb.value - sa.value) / sa.value.abs() * 100.0,
                metric.bound * 100.0,
                v.as_str()
            );
        }
    }
    if rows == 0 {
        return Err("the two files share no workload with end-to-end metrics".to_string());
    }
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The verdict logic is tested at a bound of its own, whatever the
    // ledger's vocabulary currently sets.
    const QPS: Metric = Metric {
        name: "qps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
    };
    const P50: Metric = Metric {
        name: "query_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.10,
    };

    /// A run whose two halves sit `gap` (as a share) apart around `value`.
    fn run(value: f64, gap: f64) -> Estimate {
        Estimate {
            value,
            split: Some((value * (1.0 - gap / 2.0), value * (1.0 + gap / 2.0))),
            reps: Summary::of(&[value]),
        }
    }

    fn steady(value: f64) -> Estimate {
        run(value, 0.02)
    }

    fn noisy(value: f64) -> Estimate {
        run(value, 0.6)
    }

    #[test]
    fn direction_follows_the_metric() {
        assert!((worsening(&QPS, 100.0, 80.0) - 0.2).abs() < 1e-12);
        assert!((worsening(&QPS, 100.0, 120.0) + 0.2).abs() < 1e-12);
        assert!((worsening(&P50, 10.0, 12.0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn verdicts() {
        // Within the bound either way.
        assert_eq!(verdict(&QPS, &steady(100.0), &steady(95.0)), Verdict::Ok);
        assert_eq!(verdict(&QPS, &steady(100.0), &steady(150.0)), Verdict::Ok);
        // Beyond the bound, in the bad direction only.
        assert_eq!(verdict(&QPS, &steady(100.0), &steady(80.0)), Verdict::Worse);
        assert_eq!(verdict(&P50, &steady(10.0), &steady(12.0)), Verdict::Worse);
        assert_eq!(verdict(&P50, &steady(10.0), &steady(8.0)), Verdict::Ok);
        // A spread wider than the bound resolves nothing, on either side...
        assert_eq!(
            verdict(&QPS, &noisy(100.0), &steady(98.0)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&QPS, &steady(100.0), &noisy(80.0)),
            Verdict::Unresolved
        );
        // ...unless the change is larger than the spread too.
        assert_eq!(verdict(&QPS, &noisy(100.0), &noisy(20.0)), Verdict::Worse);
    }

    #[test]
    fn estimates_survive_the_results_file() {
        let e = Estimate {
            value: 2.5,
            split: Some((2.25, 2.75)),
            reps: Summary::of(&[1.5, 2.25, 9.0, 4.0, 3.0]),
        };
        assert!((e.spread() - 0.2).abs() < 1e-12);
        let back = Estimate::from_json(&Json::parse(&e.to_json("us").to_string()).unwrap());
        assert_eq!(back, Some(e));
        let layer = Estimate { split: None, ..e };
        assert_eq!(layer.spread(), 0.0);
        let back = Estimate::from_json(&Json::parse(&layer.to_json("ns").to_string()).unwrap());
        assert_eq!(back, Some(layer));
        assert_eq!(
            Estimate::from_json(&Json::obj([("value", Json::Num(1.0))])),
            None
        );
    }

    #[test]
    fn compare_counts_regressions() {
        let file = |qps: f64| {
            Json::obj([(
                "workloads",
                Json::obj([(
                    "zipf_hot",
                    Json::obj([("metrics", Json::obj([("qps", steady(qps).to_json("1/s"))]))]),
                )]),
            )])
        };
        assert_eq!(compare(&file(100.0), &file(99.0)), Ok(0));
        assert_eq!(compare(&file(100.0), &file(50.0)), Ok(1));
        assert!(compare(&file(100.0), &Json::obj([("workloads", Json::Obj(vec![]))])).is_err());
        assert!(compare(&Json::Null, &file(1.0)).is_err());
    }
}
