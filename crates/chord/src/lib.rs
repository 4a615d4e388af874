//! A Chord distributed hash table, simulated.
//!
//! The paper stores partition identifiers on a Chord ring (§4): peers hash
//! their address with SHA-1 into a 32-bit identifier space; each data
//! identifier is owned by its *successor* (the first peer clockwise); and
//! lookups route through finger tables in `O(log N)` hops. This crate
//! implements that substrate from scratch. A simulated peer has no
//! address, so its id is a seeded draw ([`Ring::from_seed`]) — uniform on
//! the circle, as a SHA-1 of an address is.
//!
//! * [`mod@sha1`] — FIPS 180-1 SHA-1 (used to place data identifiers);
//! * [`Id`] — 32-bit circular identifier arithmetic;
//! * [`Ring`] — static ring construction with full finger tables and
//!   iterative lookup with hop accounting (used by the scalability
//!   experiments, Figs. 11–12);
//! * [`dynamic::DynamicNetwork`] — the live protocol: join, graceful leave,
//!   abrupt failure, stabilization, finger repair, successor lists.
//!
//! ```
//! use ars_chord::Ring;
//!
//! let ring = Ring::from_seed(100, 7);           // 100 peers
//! let (owner, hops) = ring.lookup(ring.node_ids()[0], 12345.into());
//! assert_eq!(owner, ring.successor_of(12345.into()));
//! assert!(hops <= 32);
//! ```

#![warn(missing_docs)]

pub mod dynamic;
mod id;
pub mod layered;
mod lookup;
mod ring;
pub mod sha1;
mod vnodes;

pub use dynamic::{DynamicNetwork, RingView, RouteCacheStats};
pub use id::Id;
pub use layered::{arc_base, arc_offset, layered_position, position_in_arc, ARC_SPAN_BITS};
pub use ring::Ring;
pub use sha1::sha1;
pub use vnodes::VirtualRing;
