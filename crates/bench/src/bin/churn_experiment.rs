//! Extension experiment: cache quality under churn.
//!
//! The paper evaluates a static network; here the same workload runs while
//! peers crash in waves. Cached partitions on crashed peers are lost
//! (soft state) and repopulate through cache-on-miss, so the complete-
//! answer rate dips at each wave and recovers — quantifying how quickly
//! the paper's caching heals.
//!
//! Usage: `cargo run --release -p ars-bench --bin churn_experiment`

use ars_bench::experiments::results_path;
use ars_common::csv::{fmt_f64, CsvTable};
use ars_core::{ChurnNetwork, MatchMeasure, SystemConfig};
use ars_workload::clustered_trace;

const N_PEERS: usize = 60;
const N_QUERIES: usize = 4_000;
const WINDOW: usize = 200;
const FAIL_EVERY: usize = 1_000;
const FAIL_COUNT: usize = 10;

fn main() {
    let config = SystemConfig::default()
        .with_matching(MatchMeasure::Containment)
        .with_seed(606);
    let mut net = ChurnNetwork::new(N_PEERS, config).expect("growth converges");
    // Clustered queries: high cache value, so damage is visible.
    let trace = clustered_trace(N_QUERIES, 0, 1000, 40, 6, 11);

    println!("# Complete-answer rate per {WINDOW}-query window; {FAIL_COUNT} peers crash every {FAIL_EVERY} queries");
    println!(
        "{:>10} {:>18} {:>12} {:>12}",
        "query#", "complete rate (%)", "peers", "partitions"
    );
    let mut csv = CsvTable::new(["window_end", "pct_complete", "peers", "partitions"]);
    let mut window_hits = 0usize;
    for (i, q) in trace.queries().iter().enumerate() {
        if i > 0 && i % FAIL_EVERY == 0 {
            net.fail_random(FAIL_COUNT);
            net.stabilize(128).expect("ring recovers");
            // Replace the crashed peers so capacity stays constant.
            for _ in 0..FAIL_COUNT {
                net.join_random().expect("rejoin");
            }
            net.stabilize(128).expect("ring converges");
            println!("  -- crash wave at query {i} --");
        }
        let out = net.query_resilient(q);
        if out.recall >= 1.0 {
            window_hits += 1;
        }
        if (i + 1) % WINDOW == 0 {
            let pct = 100.0 * window_hits as f64 / WINDOW as f64;
            println!(
                "{:>10} {:>18.1} {:>12} {:>12}",
                i + 1,
                pct,
                net.len(),
                net.total_partitions()
            );
            csv.push_row([
                (i + 1).to_string(),
                fmt_f64(pct),
                net.len().to_string(),
                net.total_partitions().to_string(),
            ]);
            window_hits = 0;
        }
    }
    let path = results_path("churn_quality.csv");
    csv.write_to(&path).expect("write CSV");
    println!("\nwrote {}", path.display());
}
