//! Figure 5: average time to hash a query range through the `l·k = 100`
//! hash functions, as a function of range size, for the three families.
//!
//! The paper's absolute numbers come from a 900 MHz Pentium; ours from a
//! modern CPU — the claim being reproduced is the *ordering and growth*:
//! linear permutations orders of magnitude faster than min-wise, approx
//! min-wise in between, all growing linearly in range size (enumerating
//! evaluation). Two extension columns report our optimized evaluators
//! (range-aware bit-permutation kernel; closed-form linear interval minimum).
//!
//! Usage: `cargo run --release -p ars-bench --bin fig5`

use ars_bench::experiments::results_path;
use ars_common::csv::{fmt_f64, CsvTable};
use ars_common::DetRng;
use ars_lsh::{LshFamilyKind, LshFunction, RangeAwareBitPerm, RangeSet};
use ars_workload::SizeSweep;
use std::time::Instant;

const K: usize = 20;
const L: usize = 5;
const SIZES: [u32; 12] = [10, 25, 50, 100, 200, 300, 500, 700, 900, 1100, 1300, 1500];
const RANGES_PER_SIZE: usize = 10;

/// Mean milliseconds to hash one range through 100 functions by
/// enumerating every value — the evaluation the paper's Fig. 5 measures.
fn time_family(functions: &[LshFunction], ranges: &[RangeSet]) -> f64 {
    let start = Instant::now();
    let mut sink = 0u32;
    for r in ranges {
        for f in functions {
            sink ^= f.min_hash_enumerate(r);
        }
    }
    let elapsed = start.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(sink);
    elapsed / ranges.len() as f64
}

/// Mean milliseconds through the default (fast) `min_hash` dispatch —
/// used for the closed-form linear extension column.
fn time_fast(functions: &[LshFunction], ranges: &[RangeSet]) -> f64 {
    let start = Instant::now();
    let mut sink = 0u32;
    for r in ranges {
        for f in functions {
            sink ^= f.min_hash(r);
        }
    }
    let elapsed = start.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(sink);
    elapsed / ranges.len() as f64
}

/// Same, through range-aware kernels built once before timing — for the
/// bit-permutation families (min-wise, approx), whose `min_hash` builds
/// the kernel on every call.
fn time_compiled(functions: &[LshFunction], ranges: &[RangeSet]) -> f64 {
    let compiled: Vec<RangeAwareBitPerm> = (functions.iter())
        .map(|f| match f {
            LshFunction::MinWise(p) => RangeAwareBitPerm::compile(|x| p.permute(x)),
            LshFunction::Approx(p) => RangeAwareBitPerm::compile(|x| p.permute(x)),
            _ => unreachable!("only the bit-permutation families are compiled"),
        })
        .collect();
    let start = Instant::now();
    let mut sink = 0u32;
    for r in ranges {
        for f in &compiled {
            let mut min = [u32::MAX];
            for &(lo, hi) in r.intervals() {
                f.min_interval_into(lo, hi, &mut min);
            }
            sink ^= min[0];
        }
    }
    let elapsed = start.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(sink);
    elapsed / ranges.len() as f64
}

fn main() {
    let mut rng = DetRng::new(5);
    let sweep = SizeSweep::new(&SIZES, RANGES_PER_SIZE, 100_000, 55);

    let families = [
        LshFamilyKind::MinWise,
        LshFamilyKind::ApproxMinWise,
        LshFamilyKind::Linear,
    ];
    let fns: Vec<Vec<LshFunction>> = families
        .iter()
        .map(|&kind| {
            (0..K * L)
                .map(|_| LshFunction::random(kind, &mut rng))
                .collect()
        })
        .collect();

    let mut csv = CsvTable::new([
        "range_size",
        "minwise_ms",
        "approx_ms",
        "linear_ms",
        "linear_closed_form_ms",
        "minwise_compiled_ms",
        "approx_compiled_ms",
    ]);
    println!("# Figure 5 — avg time (ms) to hash a range through 100 hash functions");
    println!(
        "{:>10} {:>14} {:>14} {:>14} {:>18} {:>18} {:>18}",
        "size", "min-wise", "approx", "linear", "linear-closed", "min-wise-tbl", "approx-tbl"
    );
    for (size, ranges) in &sweep.points {
        let t_mw = time_family(&fns[0], ranges);
        let t_ap = time_family(&fns[1], ranges);
        let t_li = time_family(&fns[2], ranges);
        let t_cf = time_fast(&fns[2], ranges);
        let t_mw_c = time_compiled(&fns[0], ranges);
        let t_ap_c = time_compiled(&fns[1], ranges);
        println!(
            "{size:>10} {t_mw:>14.4} {t_ap:>14.4} {t_li:>14.4} {t_cf:>18.6} {t_mw_c:>18.6} {t_ap_c:>18.6}"
        );
        csv.push_row([
            size.to_string(),
            fmt_f64(t_mw),
            fmt_f64(t_ap),
            fmt_f64(t_li),
            fmt_f64(t_cf),
            fmt_f64(t_mw_c),
            fmt_f64(t_ap_c),
        ]);
    }
    let path = results_path("fig5_hash_times.csv");
    csv.write_to(&path).expect("write CSV");
    println!("\nwrote {}", path.display());
}
