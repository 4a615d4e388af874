//! Layered placement: ring positions that co-locate a query's buckets.
//!
//! Independent placement hashes every bucket identifier to an unrelated
//! ring position, so an `l`-group query spends `l` full Chord lookups.
//! Layered placement (after Bahmani–Goel–Shinde's layered re-hashing and
//! NearBucket-LSH's use of existing successor links) instead derives ring
//! positions from a per-query **anchor** — a coarse LSH sketch that
//! similar ranges share with high probability — and confines all of the
//! query's buckets to one small arc of the circle:
//!
//! ```text
//! position(anchor, ident) = arc_base(anchor) | offset(ident)
//! arc_base(anchor)        = SHA1("ars-arc" ‖ anchor)  &  ¬(2^S − 1)
//! offset(ident)           = SHA1("ars-pos" ‖ ident)   &   (2^S − 1)
//! ```
//!
//! with `S = `[`ARC_SPAN_BITS`]. One lookup reaches the arc's first
//! owner; the remaining buckets are at the next few successors, reachable
//! over the overlay's existing successor links
//! ([`crate::Ring::successors_window`]) — each step one message, no
//! routing. Distinct anchors still spread uniformly (the arc base is a
//! SHA-1 image), preserving the load balance of uniformized placement at
//! arc granularity.

use crate::id::Id;
use crate::sha1::sha1_u32;

/// Arc span in bits: all buckets of one anchor land within `2^S`
/// consecutive ring positions. At `S = 20` an arc is `2^-12` of the
/// circle, so even a multi-thousand-peer ring keeps a whole arc within a
/// handful of successors.
pub const ARC_SPAN_BITS: u32 = 20;

const ARC_MASK: u32 = (1u32 << ARC_SPAN_BITS) - 1;

/// The base ring position of an anchor's arc (low span bits zero).
pub fn arc_base(anchor: u32) -> Id {
    let mut bytes = [0u8; 11];
    bytes[..7].copy_from_slice(b"ars-arc");
    bytes[7..].copy_from_slice(&anchor.to_be_bytes());
    Id(sha1_u32(&bytes) & !ARC_MASK)
}

/// The ring position of bucket `ident` in the arc at `base`, an
/// [`arc_base`] — which a query hashes once for all of its buckets.
pub fn position_in_arc(base: Id, ident: u32) -> Id {
    let mut bytes = [0u8; 11];
    bytes[..7].copy_from_slice(b"ars-pos");
    bytes[7..].copy_from_slice(&ident.to_be_bytes());
    Id(base.0 | (sha1_u32(&bytes) & ARC_MASK))
}

/// The layered ring position of bucket `ident` under `anchor`:
/// [`position_in_arc`] of the anchor's arc.
pub fn layered_position(anchor: u32, ident: u32) -> Id {
    position_in_arc(arc_base(anchor), ident)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positions_stay_inside_the_anchor_arc() {
        for anchor in [0u32, 1, 0xDEAD_BEEF, u32::MAX] {
            let base = arc_base(anchor);
            assert_eq!(base.0 & ARC_MASK, 0, "arc base has low bits clear");
            for ident in [0u32, 7, 12_345, 0xFFFF_FFFF] {
                let pos = layered_position(anchor, ident);
                assert_eq!(pos.0 & !ARC_MASK, base.0, "position left its arc");
            }
        }
    }

    #[test]
    fn same_anchor_colocates_different_identifiers() {
        let a = layered_position(42, 1_000);
        let b = layered_position(42, 2_000);
        assert!(a.0.abs_diff(b.0) <= ARC_MASK);
    }

    #[test]
    fn distinct_anchors_spread() {
        // Arc bases of consecutive anchors are SHA-1 images: no two of a
        // small sample share an arc.
        let mut bases: Vec<u32> = (0..64u32).map(|a| arc_base(a).0).collect();
        bases.sort_unstable();
        bases.dedup();
        assert_eq!(bases.len(), 64, "64 anchors produced colliding arcs");
    }

    #[test]
    fn position_in_arc_is_layered_position_given_the_base() {
        let mut rng = ars_common::DetRng::new(24);
        for _ in 0..1_000 {
            let (anchor, ident) = (rng.next_u32(), rng.next_u32());
            let base = arc_base(anchor);
            let pos = position_in_arc(base, ident);
            assert_eq!(pos, layered_position(anchor, ident));
            assert_eq!(pos.0 & !ARC_MASK, base.0, "position left its arc");
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(layered_position(9, 9), layered_position(9, 9));
        assert_eq!(arc_base(3), arc_base(3));
    }
}
