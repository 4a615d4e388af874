//! Locality sensitive hashing for range selection queries.
//!
//! This crate implements the hashing machinery of *Approximate Range
//! Selection Queries in Peer-to-Peer Systems* (Gupta, Agrawal, El Abbadi —
//! CIDR 2003):
//!
//! * [`RangeSet`] — the set-of-integers view of a selection range, with
//!   closed-form Jaccard and containment similarity;
//! * three min-hash families over that domain:
//!   * [`minwise::MinWisePerm`] — full min-wise independent permutations
//!     built from a log₂(b)-level bit-shuffle network (the paper's Fig. 3);
//!   * [`approx::ApproxMinWisePerm`] — only the first iteration of the
//!     network (one 32-bit key), the paper's cheap approximation;
//!   * [`linear::LinearPerm`] — `π(x) = a·x + b mod p`, with both the
//!     enumerate-every-value evaluation the paper measures and a closed-form
//!     `O(log p)` minimum over a contiguous interval;
//! * [`rangeaware::RangeAwareBitPerm`] — the one exact interval min-hash
//!   kernel for the bit-shuffle families, `O(log w)` per interval of width
//!   `w` over a whole group of functions at once, replacing the
//!   enumeration the paper times in Fig. 5;
//! * [`fused::CompiledGroup`] — one group's `k` functions laid side by side
//!   so a query's interval decomposition is walked once per group;
//! * [`group::HashGroups`] — the `l` groups × `k` functions amplification
//!   that turns per-function collision probability `p` into
//!   `1 − (1 − pᵏ)ˡ`, a step-like curve (the paper uses `k = 20`, `l = 5`).
//!
//! # Quick example
//!
//! ```
//! use ars_common::DetRng;
//! use ars_lsh::{HashGroups, LshFamilyKind, RangeSet};
//!
//! let mut rng = DetRng::new(42);
//! let groups = HashGroups::generate(LshFamilyKind::ApproxMinWise, 20, 5, &mut rng);
//!
//! let q = RangeSet::interval(30, 50);
//! let r = RangeSet::interval(30, 49);
//! // Similar ranges agree on at least one group identifier with high probability.
//! let ids_q = groups.identifiers(&q);
//! let ids_r = groups.identifiers(&r);
//! assert_eq!(ids_q.len(), 5);
//! assert!(q.jaccard(&r) > 0.9);
//! ```

#![warn(missing_docs)]

mod approx;
mod family;
mod fused;
pub mod group;
mod grp;
mod linear;
mod minwise;
pub mod probe;
mod range;
mod rangeaware;

pub use approx::ApproxMinWisePerm;
pub use family::{LshFamilyKind, LshFunction};
pub use fused::CompiledGroup;
pub use group::{match_probability, HashGroups};
pub use linear::LinearPerm;
pub use minwise::MinWisePerm;
pub use probe::ProbeCandidate;
pub use range::RangeSet;
pub use rangeaware::RangeAwareBitPerm;
