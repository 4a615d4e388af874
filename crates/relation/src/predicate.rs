//! Selection predicates.
//!
//! The paper restricts selections to a single attribute at a time (§2):
//! either a range over an ordered attribute (`30 < age < 50`) or an
//! equality (`diagnosis = "Glaucoma"`). Range predicates carry the
//! [`RangeSet`] the LSH layer hashes; equalities are degenerate ranges for
//! ordinal attributes and plain value matches for strings.

use crate::schema::{Schema, Tuple};
use crate::value::Value;
use ars_lsh::RangeSet;
use std::fmt;

/// A single-attribute selection predicate.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Predicate {
    /// `lo ≤ attr ≤ hi` over an ordinal (Int/Date) attribute.
    Range {
        /// Attribute name.
        attr: String,
        /// Inclusive lower bound.
        lo: u32,
        /// Inclusive upper bound.
        hi: u32,
    },
    /// `attr = value` (any attribute type).
    Eq {
        /// Attribute name.
        attr: String,
        /// The value to match.
        value: Value,
    },
}

impl Predicate {
    /// Build an inclusive range predicate.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn range<S: Into<String>>(attr: S, lo: u32, hi: u32) -> Predicate {
        assert!(lo <= hi, "empty range predicate [{lo}, {hi}]");
        Predicate::Range {
            attr: attr.into(),
            lo,
            hi,
        }
    }

    /// Build an equality predicate.
    pub fn eq<S: Into<String>, V: Into<Value>>(attr: S, value: V) -> Predicate {
        Predicate::Eq {
            attr: attr.into(),
            value: value.into(),
        }
    }

    /// The attribute this predicate constrains.
    pub fn attr(&self) -> &str {
        match self {
            Predicate::Range { attr, .. } | Predicate::Eq { attr, .. } => attr,
        }
    }

    /// The value-set view of this predicate, when it has one:
    /// a range predicate maps to its interval; an equality over an ordinal
    /// value maps to a singleton set; a string equality has none.
    pub fn range_set(&self) -> Option<RangeSet> {
        match self {
            Predicate::Range { lo, hi, .. } => Some(RangeSet::interval(*lo, *hi)),
            Predicate::Eq { value, .. } => value.as_ordinal().map(|v| RangeSet::interval(v, v)),
        }
    }

    /// Evaluate against a tuple under `schema`.
    ///
    /// # Panics
    /// Panics if the attribute is unknown in the schema.
    pub fn matches(&self, schema: &Schema, tuple: &Tuple) -> bool {
        let idx = schema
            .index_of(self.attr())
            .unwrap_or_else(|| panic!("unknown attribute {} in {}", self.attr(), schema.name()));
        let v = &tuple[idx];
        match self {
            Predicate::Range { lo, hi, .. } => match v.as_ordinal() {
                Some(x) => x >= *lo && x <= *hi,
                None => false,
            },
            Predicate::Eq { value, .. } => v == value,
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::Range { attr, lo, hi } => write!(f, "{lo} <= {attr} <= {hi}"),
            Predicate::Eq { attr, value } => write!(f, "{attr} = {value}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::medical;
    use crate::value::days_since_1900;

    #[test]
    fn range_matches_inclusive() {
        let s = medical::patient();
        let p = Predicate::range("age", 30, 50);
        let t30 = vec![Value::Int(1), "a".into(), Value::Int(30)];
        let t50 = vec![Value::Int(2), "b".into(), Value::Int(50)];
        let t29 = vec![Value::Int(3), "c".into(), Value::Int(29)];
        assert!(p.matches(&s, &t30));
        assert!(p.matches(&s, &t50));
        assert!(!p.matches(&s, &t29));
    }

    #[test]
    fn eq_matches_strings() {
        let s = medical::diagnosis();
        let p = Predicate::eq("diagnosis", "Glaucoma");
        let hit = vec![
            Value::Int(1),
            "Glaucoma".into(),
            Value::Int(9),
            Value::Int(7),
        ];
        let miss = vec![
            Value::Int(2),
            "Cataract".into(),
            Value::Int(9),
            Value::Int(8),
        ];
        assert!(p.matches(&s, &hit));
        assert!(!p.matches(&s, &miss));
    }

    #[test]
    fn date_range_predicate() {
        let s = medical::prescription();
        let lo = days_since_1900(2000, 1, 1);
        let hi = days_since_1900(2002, 12, 31);
        let p = Predicate::range("date", lo, hi);
        let hit = vec![
            Value::Int(1),
            Value::Date(days_since_1900(2001, 6, 15)),
            "atropine".into(),
            "".into(),
        ];
        let miss = vec![
            Value::Int(2),
            Value::Date(days_since_1900(1999, 12, 31)),
            "timolol".into(),
            "".into(),
        ];
        assert!(p.matches(&s, &hit));
        assert!(!p.matches(&s, &miss));
    }

    #[test]
    fn range_set_views() {
        assert_eq!(
            Predicate::range("age", 30, 50).range_set(),
            Some(RangeSet::interval(30, 50))
        );
        assert_eq!(
            Predicate::eq("age", 30u32).range_set(),
            Some(RangeSet::interval(30, 30))
        );
        assert_eq!(Predicate::eq("diagnosis", "Glaucoma").range_set(), None);
    }

    #[test]
    fn range_over_string_attr_never_matches() {
        let s = medical::patient();
        let p = Predicate::range("name", 0, 10);
        let t = vec![Value::Int(1), "zed".into(), Value::Int(5)];
        assert!(!p.matches(&s, &t));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn reversed_range_rejected() {
        Predicate::range("age", 50, 30);
    }

    #[test]
    #[should_panic(expected = "unknown attribute")]
    fn unknown_attr_panics() {
        let s = medical::patient();
        Predicate::range("salary", 0, 1).matches(&s, &vec![]);
    }

    #[test]
    fn display() {
        assert_eq!(
            format!("{}", Predicate::range("age", 30, 50)),
            "30 <= age <= 50"
        );
        assert_eq!(
            format!("{}", Predicate::eq("diagnosis", "Glaucoma")),
            "diagnosis = Glaucoma"
        );
    }
}
