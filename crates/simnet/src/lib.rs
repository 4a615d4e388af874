//! Network substrate for the P2P system.
//!
//! The paper's peers are "connected to each other via connections over a
//! TCP/IP network" (§2) but its evaluation runs in simulation, and so does
//! this crate:
//!
//! * [`sim::SimNet`] — a deterministic discrete-event simulator: messages
//!   carry a latency drawn from a pluggable [`event::LatencyModel`], and a
//!   single-threaded run loop dispatches them in virtual-time order. Every
//!   run with the same seed is bit-identical, which the experiment harness
//!   relies on.
//! * [`codec`] — a small binary wire format (length-prefixed frames over
//!   plain `Vec<u8>` / `&[u8]`) so protocol messages have a concrete
//!   encoding, exercised by round-trip tests; the same encoder counts a
//!   frame's bytes without building it, which is what the simulator
//!   meters.
//! * [`fault`] — deterministic fault injection: a seeded [`FaultPlan`]
//!   (drop, duplication, extra delay, node crash/pause windows, scheduled
//!   network partitions, and gray-failure slow windows) executed by the
//!   simulator, driving the `SimStats` accounting invariant
//!   `sent == delivered + dropped + partitioned + queued` (slowed copies
//!   are delivered, tracked in their own column).

#![warn(missing_docs)]

pub mod codec;
pub mod event;
pub mod fault;
pub mod sim;

pub use event::{ConstantLatency, LatencyModel, UniformLatency};
pub use fault::{FaultAction, FaultInjector, FaultPlan, PartitionWindow, SlowWindow};
pub use sim::{Node, NodeCtx, SimNet, SimStats};
