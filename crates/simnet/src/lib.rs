//! Network substrate for the P2P system.
//!
//! The paper's peers are "connected to each other via connections over a
//! TCP/IP network" (§2) but its evaluation runs in simulation, and so does
//! this crate:
//!
//! * [`SimNet`] — a deterministic discrete-event simulator over one node
//!   type: every message takes one fixed latency, and a single-threaded
//!   run loop dispatches them in virtual-time order. A handler's send is
//!   scheduled the moment it is made. Without a fault plan each arrival
//!   is at or after every one already scheduled, so the event queue is a
//!   FIFO and a hop costs no heap sift; only what a plan's delay, pause
//!   or slow window reorders goes through a heap beside it. Every run
//!   with the same seed is bit-identical, which the experiment harness
//!   relies on.
//! * [`codec`] — a small binary wire format (length-prefixed frames over
//!   plain `Vec<u8>` / `&[u8]`) so protocol messages have a concrete
//!   encoding, exercised by round-trip tests; the same encoder counts a
//!   frame's bytes without building it, which is what the simulator
//!   meters.
//! * fault injection, deterministic: a seeded [`FaultPlan`]
//!   (drop, duplication, extra delay, node crash/pause windows, scheduled
//!   network partitions, and gray-failure slow windows) executed by the
//!   simulator, driving the [`SimStats`] accounting invariant
//!   `sent == delivered + dropped + partitioned + queued` (slowed copies
//!   are delivered, tracked in their own column). A plan's extra delay is
//!   the only jitter: without one, every hop costs the same.

#![warn(missing_docs)]

pub mod codec;
mod event;
mod fault;
mod sim;

pub use fault::{FaultPlan, PartitionWindow, SlowWindow};
pub use sim::{Node, NodeCtx, SimNet, SimStats};
