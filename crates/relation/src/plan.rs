//! Logical plans.
//!
//! The paper's querying peer "converts the query into a plan where all the
//! selects are moved toward the leaves as much as possible" (§2), so that
//! each leaf is exactly a single-attribute selection on one relation, i.e.
//! a horizontal partition the P2P layer can locate. [`LogicalPlan`] is that
//! operator tree, built in code: `Select` is the only node that carries
//! predicates, so "selects at the leaves" is a property of the type.
//! [`crate::schema::medical::glaucoma_plan`] is the paper's own example.
//!
//! Naming convention: leaf scans re-qualify every attribute as
//! `Relation.attr`, so references above the leaves are unambiguous.

use crate::predicate::Predicate;
use std::fmt;

/// A logical operator tree.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Leaf: fetch the tuples of `relation` matching all `predicates`
    /// (attribute names unqualified — they belong to `relation`).
    Select {
        /// Relation to read.
        relation: String,
        /// Pushed-down single-attribute predicates.
        predicates: Vec<Predicate>,
    },
    /// Equi-join of two subplans on fully-qualified attributes.
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Join attribute in the left input (qualified).
        left_attr: String,
        /// Join attribute in the right input (qualified).
        right_attr: String,
    },
    /// Projection onto fully-qualified attributes.
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Qualified attributes to keep, in order.
        attrs: Vec<String>,
    },
}

impl LogicalPlan {
    /// All leaf `Select` nodes, in left-to-right order — the partitions the
    /// P2P layer must locate.
    #[cfg(test)]
    fn leaves(&self) -> Vec<(&str, &[Predicate])> {
        let mut out = Vec::new();
        self.collect_leaves(&mut out);
        out
    }

    #[cfg(test)]
    fn collect_leaves<'a>(&'a self, out: &mut Vec<(&'a str, &'a [Predicate])>) {
        match self {
            LogicalPlan::Select {
                relation,
                predicates,
            } => out.push((relation, predicates)),
            LogicalPlan::Join { left, right, .. } => {
                left.collect_leaves(out);
                right.collect_leaves(out);
            }
            LogicalPlan::Project { input, .. } => input.collect_leaves(out),
        }
    }

    fn fmt_indent(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match self {
            LogicalPlan::Select {
                relation,
                predicates,
            } => {
                write!(f, "{pad}Select {relation}")?;
                for p in predicates {
                    write!(f, " [{p}]")?;
                }
                writeln!(f)
            }
            LogicalPlan::Join {
                left,
                right,
                left_attr,
                right_attr,
            } => {
                writeln!(f, "{pad}Join {left_attr} = {right_attr}")?;
                left.fmt_indent(f, indent + 1)?;
                right.fmt_indent(f, indent + 1)
            }
            LogicalPlan::Project { input, attrs } => {
                writeln!(f, "{pad}Project {}", attrs.join(", "))?;
                input.fmt_indent(f, indent + 1)
            }
        }
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indent(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::medical;
    use crate::value::days_since_1900;

    #[test]
    fn papers_example_plan_selects_at_three_leaves() {
        let plan = medical::glaucoma_plan();
        let leaves = plan.leaves();
        assert_eq!(leaves.len(), 3);
        assert_eq!(
            leaves[0],
            ("Patient", &[Predicate::range("age", 30, 50)][..])
        );
        assert_eq!(
            leaves[1],
            ("Diagnosis", &[Predicate::eq("diagnosis", "Glaucoma")][..])
        );
        let dates = Predicate::range(
            "date",
            days_since_1900(2000, 1, 1),
            days_since_1900(2002, 12, 31),
        );
        assert_eq!(leaves[2], ("Prescription", &[dates][..]));
        // Shape: Project over Join(Join(Patient, Diagnosis), Prescription).
        let printed = format!("{plan}");
        assert!(printed.starts_with("Project Prescription.prescription"));
        assert!(printed.contains("Join Patient.patient_id = Diagnosis.patient_id"));
        assert!(printed.contains("Join Diagnosis.prescription_id = Prescription.prescription_id"));
    }
}
