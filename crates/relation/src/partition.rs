//! Horizontal partitions — the unit of caching and sharing.
//!
//! "A query specifies a range over an attribute of a relation. We refer to
//! the resulting set of tuples defined by this range as a *data partition*"
//! (paper, footnote 1). A [`HorizontalPartition`] carries the defining
//! `(relation, attribute, range)` triple plus the tuples themselves; the
//! P2P layer hashes the range and stores/locates partitions by it.

use crate::schema::{Relation, Schema, Tuple};
use ars_lsh::RangeSet;
use std::fmt;
use std::sync::Arc;

/// Identifies *which* fragment of *which* relation a partition holds.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PartitionKey {
    /// Relation name.
    pub relation: String,
    /// Attribute the defining range selects on.
    pub attr: String,
    /// The selection range.
    pub range: RangeSet,
}

impl fmt::Display for PartitionKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{} ∈ {}", self.relation, self.attr, self.range)
    }
}

/// A cached horizontal partition: key + payload tuples.
#[derive(Debug, Clone, PartialEq)]
pub struct HorizontalPartition {
    key: PartitionKey,
    schema: Arc<Schema>,
    tuples: Vec<Tuple>,
}

impl HorizontalPartition {
    /// Build a partition by actually selecting `range` on `attr` from
    /// `source` — the operation a data source performs when a query first
    /// reaches it.
    ///
    /// # Panics
    /// Panics if `attr` is unknown in the source schema.
    pub fn select_from(source: &Relation, attr: &str, range: &RangeSet) -> HorizontalPartition {
        let schema = source.schema().clone();
        let idx = schema
            .index_of(attr)
            .unwrap_or_else(|| panic!("unknown attribute {attr} in {}", schema.name()));
        let tuples: Vec<Tuple> = source
            .tuples()
            .iter()
            .filter(|t| match t[idx].as_ordinal() {
                Some(v) => range.contains(v),
                None => false,
            })
            .cloned()
            .collect();
        HorizontalPartition {
            key: PartitionKey {
                relation: schema.name().to_string(),
                attr: attr.to_string(),
                range: range.clone(),
            },
            schema,
            tuples,
        }
    }

    /// The defining range.
    pub fn range(&self) -> &RangeSet {
        &self.key.range
    }

    /// View the payload as a [`Relation`].
    pub fn as_relation(&self) -> Relation {
        Relation::new(self.schema.clone(), self.tuples.clone())
    }

    /// Re-select a narrower range from this partition — how a querying peer
    /// extracts exactly its answer from a broader cached partition.
    ///
    /// Returns `None` if `narrower` is not fully contained in this
    /// partition's range (the result would be incomplete).
    pub fn refine(&self, narrower: &RangeSet) -> Option<HorizontalPartition> {
        if !narrower.is_subset_of(&self.key.range) {
            return None;
        }
        let idx = self.schema.index_of(&self.key.attr)?;
        let tuples: Vec<Tuple> = self
            .tuples
            .iter()
            .filter(|t| match t[idx].as_ordinal() {
                Some(v) => narrower.contains(v),
                None => false,
            })
            .cloned()
            .collect();
        Some(HorizontalPartition {
            key: PartitionKey {
                relation: self.key.relation.clone(),
                attr: self.key.attr.clone(),
                range: narrower.clone(),
            },
            schema: self.schema.clone(),
            tuples,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::medical;
    use crate::value::Value;

    fn patients() -> Relation {
        let s = medical::patient();
        Relation::new(
            s,
            (0..100u32)
                .map(|i| {
                    vec![
                        Value::Int(i),
                        Value::from(format!("p{i}")),
                        Value::Int(20 + (i % 60)),
                    ]
                })
                .collect(),
        )
    }

    #[test]
    fn select_from_filters_by_range() {
        let base = patients();
        let range = RangeSet::interval(30, 50);
        let p = HorizontalPartition::select_from(&base, "age", &range);
        assert_eq!(p.key.relation, "Patient");
        assert_eq!(p.key.attr, "age");
        assert!(!p.tuples.is_empty());
        let age_idx = p.schema.index_of("age").unwrap();
        for t in &p.tuples {
            let age = t[age_idx].as_ordinal().unwrap();
            assert!((30..=50).contains(&age));
        }
        // Everything in the base that qualifies is present.
        let expect = base
            .tuples()
            .iter()
            .filter(|t| {
                let a = t[2].as_ordinal().unwrap();
                (30..=50).contains(&a)
            })
            .count();
        assert_eq!(p.tuples.len(), expect);
    }

    #[test]
    fn empty_selection_is_valid() {
        let base = patients();
        let p = HorizontalPartition::select_from(&base, "age", &RangeSet::interval(500, 600));
        assert!(p.tuples.is_empty());
        assert_eq!(p.tuples.len(), 0);
    }

    #[test]
    #[should_panic(expected = "unknown attribute")]
    fn unknown_attr_rejected() {
        HorizontalPartition::select_from(&patients(), "salary", &RangeSet::interval(0, 1));
    }

    #[test]
    fn refine_extracts_contained_subrange() {
        let base = patients();
        let broad = HorizontalPartition::select_from(&base, "age", &RangeSet::interval(30, 60));
        let narrow = broad.refine(&RangeSet::interval(40, 45)).unwrap();
        assert_eq!(narrow.range(), &RangeSet::interval(40, 45));
        let direct = HorizontalPartition::select_from(&base, "age", &RangeSet::interval(40, 45));
        assert_eq!(narrow.tuples, direct.tuples);
    }

    #[test]
    fn refine_rejects_uncontained_range() {
        let base = patients();
        let broad = HorizontalPartition::select_from(&base, "age", &RangeSet::interval(30, 60));
        assert!(broad.refine(&RangeSet::interval(25, 45)).is_none());
    }

    #[test]
    fn as_relation_roundtrip() {
        let base = patients();
        let p = HorizontalPartition::select_from(&base, "age", &RangeSet::interval(30, 50));
        let r = p.as_relation();
        assert_eq!(r.len(), p.tuples.len());
        assert_eq!(r.schema().name(), "Patient");
    }

    #[test]
    fn key_display() {
        let base = patients();
        let p = HorizontalPartition::select_from(&base, "age", &RangeSet::interval(30, 50));
        assert_eq!(format!("{}", p.key), "Patient.age ∈ RangeSet{[30,50]}");
    }
}
