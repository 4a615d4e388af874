//! Shared by the fault suites that take [`PlacementMode`] as an input
//! (`fault_injection`, `partition_tolerance`, `tail_tolerance`,
//! `crash_recovery`), and the simulator nodes those suites and
//! `telemetry_traces` drive.
#![allow(dead_code)] // each suite uses its own subset

use ars::prelude::*;
use ars::simnet::{Node, NodeCtx};

/// Both placement modes, independent first.
pub const MODES: [PlacementMode; 2] = [PlacementMode::Independent, PlacementMode::Layered];

/// `config` under `mode`. Layered placement runs as the small rings of
/// these suites size it: a 16-candidate probe budget, and a walk of two
/// peers — an arc spans 2⁻¹² of the circle, so on a ring of tens of peers
/// it lies inside one peer's interval and the second peer is its replica
/// holder.
///
/// The window is what the suites' "≤ ½ the messages of independent
/// placement" bound rests on where `l` is small. At the default
/// `walk_window` of 4 (seeds 0–3) the bound still holds against five
/// lookups — 10 % failures 0.40–0.42× (0.26–0.28× here), the partition
/// window 0.45–0.47× (0.28–0.30×) — but not against four hedged ones:
/// `tail_tolerance`'s headline reads 0.53–0.56× (0.38–0.39× here).
/// EXPERIMENTS.md, PR 23.
pub fn placed(config: SystemConfig, mode: PlacementMode) -> SystemConfig {
    match mode {
        PlacementMode::Independent => config,
        PlacementMode::Layered => config
            .with_placement_mode(mode)
            .with_probes(16)
            .with_walk_window(2),
    }
}

/// A node that forwards a decrementing counter to the next node around
/// the ring until it reaches 0.
pub struct Relay {
    n_nodes: usize,
}

impl Node<u32> for Relay {
    fn on_message(&mut self, ctx: &mut NodeCtx<'_, u32>, _from: usize, msg: u32) {
        if msg > 0 {
            ctx.send((ctx.me + 1) % self.n_nodes, msg - 1);
        }
    }
}

/// `n` relays, as simulator nodes.
pub fn relays(n: usize) -> Vec<Relay> {
    (0..n).map(|_| Relay { n_nodes: n }).collect()
}
