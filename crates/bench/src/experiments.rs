//! Shared experiment plumbing for the figure binaries.
//!
//! Every figure binary follows the same pattern: build the paper's §5
//! workload, run it through a configured system, aggregate with
//! `ars-core::recall`, print the series, and write a CSV under
//! `results/`. The common pieces live here so the binaries stay small and
//! the parameters stay in one place.

use ars_core::network::QueryOutcome;
use ars_core::{RangeSelectNetwork, SystemConfig};
use ars_workload::{uniform_trace, Trace};

/// The paper's §5.1 quality-workload parameters.
pub mod paper {
    /// Queries in the trace.
    pub const N_QUERIES: usize = 10_000;
    /// Attribute domain lower bound.
    pub const DOMAIN_LO: u32 = 0;
    /// Attribute domain upper bound.
    pub const DOMAIN_HI: u32 = 1000;
    /// Warm-up fraction dropped from quality figures.
    pub const WARMUP: f64 = 0.2;
    /// Peers in the quality experiments (the paper does not pin this for
    /// §5.1–5.2; quality is peer-count-independent, scalability uses its
    /// own sweep).
    pub const N_PEERS: usize = 1000;
    /// Workload seed used across all quality figures.
    pub const TRACE_SEED: u64 = 20030107; // CIDR 2003 started Jan 7, 2003
}

/// Build the §5.1 query trace.
pub fn paper_trace() -> Trace {
    uniform_trace(
        paper::N_QUERIES,
        paper::DOMAIN_LO,
        paper::DOMAIN_HI,
        paper::TRACE_SEED,
    )
}

/// Run the full §5.1 protocol over the paper trace: start empty, query
/// everything (caching on miss), and return only the post-warm-up
/// outcomes.
pub fn run_quality_experiment(config: SystemConfig) -> Vec<QueryOutcome> {
    let trace = paper_trace();
    let mut net = RangeSelectNetwork::new(paper::N_PEERS, config);
    let all = net.run_trace(trace.queries());
    let cut = (all.len() as f64 * paper::WARMUP).round() as usize;
    all[cut..].to_vec()
}

/// Resolve the workspace root (the ancestor of the crate dir holding both
/// `Cargo.toml` and `crates/`).
pub(crate) fn repo_root() -> std::path::PathBuf {
    let base = std::env::var("CARGO_MANIFEST_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| std::path::PathBuf::from("."));
    base.ancestors()
        .find(|p| p.join("Cargo.toml").exists() && p.join("crates").exists())
        .map(std::path::Path::to_path_buf)
        .unwrap_or(base)
}

/// Resolve the output path for a results CSV (repo-root `results/`).
pub fn results_path(name: &str) -> std::path::PathBuf {
    repo_root().join("results").join(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_trace_is_stable() {
        let t1 = paper_trace();
        let t2 = paper_trace();
        assert_eq!(t1, t2);
        assert_eq!(t1.len(), paper::N_QUERIES);
    }

    #[test]
    fn results_path_lands_in_results_dir() {
        let p = results_path("x.csv");
        assert!(p.to_string_lossy().contains("results"));
        assert!(p.to_string_lossy().ends_with("x.csv"));
    }

    #[test]
    fn quality_experiment_smoke() {
        // Tiny configuration so the test stays fast: fewer queries via a
        // custom run rather than the full 10k trace.
        use ars_core::SystemConfig;
        use ars_workload::uniform_trace;
        let mut net = RangeSelectNetwork::new(50, SystemConfig::default().with_seed(1));
        let trace = uniform_trace(200, 0, 1000, 7);
        let outs = net.run_trace(trace.queries());
        assert_eq!(outs.len(), 200);
        // Something should have matched after warm-up.
        let matched = outs.iter().filter(|o| o.best_match.is_some()).count();
        assert!(matched > 0);
    }
}
