//! 32-bit circular identifier arithmetic.
//!
//! Chord's correctness arguments are all phrased over intervals of the
//! identifier circle ("the first node whose id is in `(n, key]`"). Getting
//! wraparound right everywhere is the classic source of Chord
//! implementation bugs, so the interval predicates live here once, heavily
//! tested, and everything else uses them.

use std::fmt;

/// Number of bits in the identifier space (the paper uses a 32-bit space).
pub const ID_BITS: u32 = 32;

/// A point on the 32-bit identifier circle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Id(pub u32);

impl fmt::Display for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010x}", self.0)
    }
}

impl From<u32> for Id {
    fn from(v: u32) -> Id {
        Id(v)
    }
}

impl Id {
    /// `self + 2^i` on the circle (finger start positions).
    #[inline]
    pub(crate) fn plus_pow2(self, i: u32) -> Id {
        debug_assert!(i < ID_BITS);
        Id(self.0.wrapping_add(1u32 << i))
    }

    /// `self + d` on the circle.
    #[inline]
    pub fn plus(self, d: u32) -> Id {
        Id(self.0.wrapping_add(d))
    }

    /// Clockwise distance from `self` to `other` (how far you travel
    /// forward to reach `other`).
    #[inline]
    pub(crate) fn distance_to(self, other: Id) -> u32 {
        other.0.wrapping_sub(self.0)
    }

    /// True if `self` lies in the *open* circular interval `(a, b)`.
    ///
    /// When `a == b` the interval is the whole circle minus the endpoint
    /// (Chord's convention for a ring of one node).
    #[inline]
    pub fn in_open(self, a: Id, b: Id) -> bool {
        if a == b {
            self != a
        } else {
            // Travel clockwise from a: self must come strictly before b.
            let d_self = a.distance_to(self);
            let d_b = a.distance_to(b);
            d_self > 0 && d_self < d_b
        }
    }

    /// True if `self` lies in the half-open circular interval `(a, b]`
    /// (successor ownership: key `k` is owned by the first node `n` with
    /// `k ∈ (pred(n), n]`).
    #[inline]
    pub fn in_open_closed(self, a: Id, b: Id) -> bool {
        if a == b {
            // Whole circle: every id is in (a, a] on a one-node ring.
            true
        } else {
            let d_self = a.distance_to(self);
            let d_b = a.distance_to(b);
            d_self > 0 && d_self <= d_b
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn display_is_hex() {
        assert_eq!(format!("{}", Id(0xDEADBEEF)), "0xdeadbeef");
    }

    #[test]
    fn plus_pow2_wraps() {
        assert_eq!(Id(u32::MAX).plus_pow2(0), Id(0));
        assert_eq!(Id(0).plus_pow2(31), Id(1 << 31));
        assert_eq!(Id(1 << 31).plus_pow2(31), Id(0));
    }

    #[test]
    fn distance_wraps() {
        assert_eq!(Id(10).distance_to(Id(20)), 10);
        assert_eq!(Id(20).distance_to(Id(10)), u32::MAX - 9);
        assert_eq!(Id(5).distance_to(Id(5)), 0);
    }

    #[test]
    fn open_interval_no_wrap() {
        assert!(Id(15).in_open(Id(10), Id(20)));
        assert!(!Id(10).in_open(Id(10), Id(20)));
        assert!(!Id(20).in_open(Id(10), Id(20)));
        assert!(!Id(25).in_open(Id(10), Id(20)));
    }

    #[test]
    fn open_interval_wrapping() {
        // (0xFFFF_FFF0, 0x10) crosses zero.
        let a = Id(0xFFFF_FFF0);
        let b = Id(0x10);
        assert!(Id(0xFFFF_FFFF).in_open(a, b));
        assert!(Id(0).in_open(a, b));
        assert!(Id(0xF).in_open(a, b));
        assert!(!Id(0x10).in_open(a, b));
        assert!(!Id(0xFFFF_FFF0).in_open(a, b));
        assert!(!Id(0x8000_0000).in_open(a, b));
    }

    #[test]
    fn degenerate_interval_is_whole_circle() {
        // (a, a) excludes only a; (a, a] includes everything.
        assert!(Id(5).in_open(Id(7), Id(7)));
        assert!(!Id(7).in_open(Id(7), Id(7)));
        assert!(Id(5).in_open_closed(Id(7), Id(7)));
        assert!(Id(7).in_open_closed(Id(7), Id(7)));
    }

    #[test]
    fn open_closed_includes_right_end() {
        assert!(Id(20).in_open_closed(Id(10), Id(20)));
        assert!(!Id(10).in_open_closed(Id(10), Id(20)));
        assert!(Id(20).in_open_closed(Id(0xFFFF_FF00), Id(20)));
    }

    proptest! {
        #[test]
        fn interval_partition(x in any::<u32>(), a in any::<u32>(), b in any::<u32>()) {
            // For a != b, exactly one of: x == a, x in (a,b), x == b,
            // x in (b,a) — the circle partitions cleanly.
            prop_assume!(a != b);
            let (x, a, b) = (Id(x), Id(a), Id(b));
            let cases = [
                x == a,
                x.in_open(a, b),
                x == b && x != a,
                x.in_open(b, a),
            ];
            prop_assert_eq!(cases.iter().filter(|&&c| c).count(), 1);
        }

        #[test]
        fn open_closed_equiv(x in any::<u32>(), a in any::<u32>(), b in any::<u32>()) {
            prop_assume!(a != b);
            let (x, a, b) = (Id(x), Id(a), Id(b));
            prop_assert_eq!(x.in_open_closed(a, b), x.in_open(a, b) || x == b);
        }

        #[test]
        fn distance_roundtrip(a in any::<u32>(), d in any::<u32>()) {
            let a = Id(a);
            prop_assert_eq!(a.distance_to(a.plus(d)), d);
        }
    }
}
