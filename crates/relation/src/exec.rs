//! Plan execution.
//!
//! Leaves are resolved through a [`LeafSource`] — the abstraction the P2P
//! layer plugs into: in the paper's architecture the querying peer fetches
//! each leaf partition from whichever peer caches it (or from the source),
//! then "compute\[s\] the remaining query locally using the available data"
//! (§2). Joins (hash join) and projections run here, locally.

use crate::plan::LogicalPlan;
use crate::predicate::Predicate;
use crate::schema::{Relation, Schema, Tuple};
use crate::value::Value;
use ars_common::FxHashMap;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Errors during execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The leaf source has no such relation.
    UnknownRelation(String),
    /// An attribute reference could not be resolved in its input schema.
    UnknownAttribute(String),
    /// The leaf source failed to provide data (e.g. P2P fetch failed).
    SourceUnavailable(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownRelation(r) => write!(f, "unknown relation {r}"),
            ExecError::UnknownAttribute(a) => write!(f, "unknown attribute {a}"),
            ExecError::SourceUnavailable(m) => write!(f, "source unavailable: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Supplies tuples for `Select` leaves.
pub trait LeafSource {
    /// Fetch the tuples of `relation` satisfying all `predicates`.
    /// The returned relation uses the base (unqualified) schema.
    fn fetch(&mut self, relation: &str, predicates: &[Predicate]) -> Result<Relation, ExecError>;
}

/// A [`LeafSource`] over in-memory base tables — the "data source" peers of
/// the paper, which hold complete base relations.
#[derive(Debug, Clone, Default)]
pub struct BaseTables {
    tables: BTreeMap<String, Relation>,
    /// Count of leaf fetches served, for tests/experiments that check how
    /// often the source is hit.
    pub fetches: usize,
}

impl BaseTables {
    /// Create an empty catalog.
    pub fn new() -> BaseTables {
        BaseTables::default()
    }

    /// Register a base relation under its schema name.
    pub fn register(&mut self, relation: Relation) -> &mut BaseTables {
        self.tables
            .insert(relation.schema().name().to_string(), relation);
        self
    }

    /// Access a registered table.
    pub fn get(&self, name: &str) -> Option<&Relation> {
        self.tables.get(name)
    }

    /// The table a leaf selects from, once the leaf is known to be
    /// well-formed: plans are built by hand, so this is where a relation
    /// or predicate attribute outside the schema becomes an error.
    pub fn leaf_table(
        &self,
        relation: &str,
        predicates: &[Predicate],
    ) -> Result<&Relation, ExecError> {
        let base = self
            .get(relation)
            .ok_or_else(|| ExecError::UnknownRelation(relation.to_string()))?;
        match predicates
            .iter()
            .find(|p| base.schema().index_of(p.attr()).is_none())
        {
            Some(p) => Err(ExecError::UnknownAttribute(p.attr().to_string())),
            None => Ok(base),
        }
    }
}

impl LeafSource for BaseTables {
    fn fetch(&mut self, relation: &str, predicates: &[Predicate]) -> Result<Relation, ExecError> {
        self.fetches += 1;
        let base = self.leaf_table(relation, predicates)?;
        let schema = base.schema().clone();
        let tuples: Vec<Tuple> = base
            .tuples()
            .iter()
            .filter(|t| predicates.iter().all(|p| p.matches(&schema, t)))
            .cloned()
            .collect();
        Ok(Relation::new(schema, tuples))
    }
}

/// Execute a plan against a leaf source. Attribute names in the result are
/// fully qualified (`Relation.attr`).
pub fn execute(plan: &LogicalPlan, source: &mut dyn LeafSource) -> Result<Relation, ExecError> {
    match plan {
        LogicalPlan::Select {
            relation,
            predicates,
        } => {
            let fetched = source.fetch(relation, predicates)?;
            Ok(qualify(fetched))
        }
        LogicalPlan::Join {
            left,
            right,
            left_attr,
            right_attr,
        } => {
            let l = execute(left, source)?;
            let r = execute(right, source)?;
            hash_join(&l, &r, left_attr, right_attr)
        }
        LogicalPlan::Project { input, attrs } => {
            let rel = execute(input, source)?;
            project(&rel, attrs)
        }
    }
}

/// Re-qualify a base relation's schema: every attribute becomes
/// `Relation.attr`.
fn qualify(rel: Relation) -> Relation {
    let old = rel.schema().clone();
    let name = old.name().to_string();
    let attrs: Vec<(String, _)> = old
        .attributes()
        .iter()
        .map(|a| (format!("{name}.{}", a.name), a.ty))
        .collect();
    let schema = Arc::new(Schema::new(
        name,
        attrs.iter().map(|(n, t)| (n.as_str(), *t)).collect(),
    ));
    Relation::new(schema, rel.into_tuples())
}

/// Classic two-phase hash join (build on the smaller input).
fn hash_join(
    left: &Relation,
    right: &Relation,
    left_attr: &str,
    right_attr: &str,
) -> Result<Relation, ExecError> {
    let li = left
        .schema()
        .index_of(left_attr)
        .ok_or_else(|| ExecError::UnknownAttribute(left_attr.to_string()))?;
    let ri = right
        .schema()
        .index_of(right_attr)
        .ok_or_else(|| ExecError::UnknownAttribute(right_attr.to_string()))?;
    let out_schema = Arc::new(left.schema().join(right.schema()));

    // Build on the smaller side; probe with the larger.
    let build_left = left.len() <= right.len();
    let (build, build_idx, probe, probe_idx) = if build_left {
        (left, li, right, ri)
    } else {
        (right, ri, left, li)
    };
    let mut table: FxHashMap<&Value, Vec<&Tuple>> = FxHashMap::default();
    for t in build.tuples() {
        table.entry(&t[build_idx]).or_default().push(t);
    }
    let mut out = Vec::new();
    for p in probe.tuples() {
        if let Some(matches) = table.get(&p[probe_idx]) {
            for b in matches {
                // Output order is always (left ++ right).
                let (l_t, r_t): (&Tuple, &Tuple) = if build_left { (b, p) } else { (p, b) };
                let mut row = Vec::with_capacity(l_t.len() + r_t.len());
                row.extend(l_t.iter().cloned());
                row.extend(r_t.iter().cloned());
                out.push(row);
            }
        }
    }
    Ok(Relation::new(out_schema, out))
}

/// Column projection.
fn project(rel: &Relation, attrs: &[String]) -> Result<Relation, ExecError> {
    let idxs: Vec<usize> = attrs
        .iter()
        .map(|a| {
            rel.schema()
                .index_of(a)
                .ok_or_else(|| ExecError::UnknownAttribute(a.clone()))
        })
        .collect::<Result<_, _>>()?;
    let schema = Arc::new(
        rel.schema()
            .project(&attrs.iter().map(String::as_str).collect::<Vec<_>>()),
    );
    let tuples = rel
        .tuples()
        .iter()
        .map(|t| idxs.iter().map(|&i| t[i].clone()).collect())
        .collect();
    Ok(Relation::new(schema, tuples))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::medical;
    use crate::value::days_since_1900;

    /// Build the paper's medical dataset with known join structure:
    /// patient i has age 20+(i%60), a diagnosis alternating
    /// Glaucoma/Cataract, and prescription i dated spread over 1998–2004.
    fn medical_tables() -> BaseTables {
        let mut tables = BaseTables::new();
        let patients = Relation::new(
            medical::patient(),
            (0..200u32)
                .map(|i| {
                    vec![
                        Value::Int(i),
                        Value::from(format!("patient{i}")),
                        Value::Int(20 + (i % 60)),
                    ]
                })
                .collect(),
        );
        let diagnoses = Relation::new(
            medical::diagnosis(),
            (0..200u32)
                .map(|i| {
                    vec![
                        Value::Int(i),
                        Value::from(if i % 2 == 0 { "Glaucoma" } else { "Cataract" }),
                        Value::Int(i % 10),
                        Value::Int(i),
                    ]
                })
                .collect(),
        );
        let base_day = days_since_1900(1998, 1, 1);
        let prescriptions = Relation::new(
            medical::prescription(),
            (0..200u32)
                .map(|i| {
                    vec![
                        Value::Int(i),
                        Value::Date(base_day + i * 12), // ~6.5 year spread
                        Value::from(format!("drug{i}")),
                        Value::from(""),
                    ]
                })
                .collect(),
        );
        tables
            .register(patients)
            .register(diagnoses)
            .register(prescriptions);
        tables
    }

    /// Reference evaluation of the paper's query by brute force.
    fn brute_force_paper_query(tables: &BaseTables) -> Vec<Value> {
        let patients = tables.get("Patient").unwrap();
        let diagnoses = tables.get("Diagnosis").unwrap();
        let prescriptions = tables.get("Prescription").unwrap();
        let lo = days_since_1900(2000, 1, 1);
        let hi = days_since_1900(2002, 12, 31);
        let mut out = Vec::new();
        for p in patients.tuples() {
            let age = p[2].as_ordinal().unwrap();
            if !(30..=50).contains(&age) {
                continue;
            }
            for d in diagnoses.tuples() {
                if d[0] != p[0] || d[1] != Value::from("Glaucoma") {
                    continue;
                }
                for rx in prescriptions.tuples() {
                    if rx[0] != d[3] {
                        continue;
                    }
                    let day = rx[1].as_ordinal().unwrap();
                    if (lo..=hi).contains(&day) {
                        out.push(rx[2].clone());
                    }
                }
            }
        }
        out.sort();
        out
    }

    #[test]
    fn executes_the_papers_query_end_to_end() {
        let mut tables = medical_tables();
        let plan = medical::glaucoma_plan();
        let expected = brute_force_paper_query(&tables);
        assert!(!expected.is_empty(), "test data must produce answers");

        let result = execute(&plan, &mut tables).unwrap();
        assert_eq!(result.schema().arity(), 1);
        let mut got: Vec<Value> = result.tuples().iter().map(|t| t[0].clone()).collect();
        got.sort();
        assert_eq!(got, expected);
    }

    #[test]
    fn select_leaf_applies_predicates() {
        let mut tables = medical_tables();
        let plan = LogicalPlan::Select {
            relation: "Patient".to_string(),
            predicates: vec![Predicate::range("age", 30, 35)],
        };
        let r = execute(&plan, &mut tables).unwrap();
        assert!(!r.is_empty());
        let idx = r.schema().index_of("Patient.age").unwrap();
        for t in r.tuples() {
            let a = t[idx].as_ordinal().unwrap();
            assert!((30..=35).contains(&a));
        }
    }

    #[test]
    fn qualified_schema_after_select() {
        let mut tables = medical_tables();
        let plan = LogicalPlan::Select {
            relation: "Patient".to_string(),
            predicates: vec![],
        };
        let r = execute(&plan, &mut tables).unwrap();
        assert!(r.schema().index_of("Patient.patient_id").is_some());
        assert!(r.schema().index_of("patient_id").is_none());
    }

    #[test]
    fn join_is_side_symmetric() {
        // Build-side selection (smaller input) must not change results.
        let mut tables = medical_tables();
        let small = LogicalPlan::Select {
            relation: "Patient".to_string(),
            predicates: vec![Predicate::range("age", 30, 31)],
        };
        let big = LogicalPlan::Select {
            relation: "Diagnosis".to_string(),
            predicates: vec![],
        };
        let join_sb = LogicalPlan::Join {
            left: Box::new(small.clone()),
            right: Box::new(big.clone()),
            left_attr: "Patient.patient_id".into(),
            right_attr: "Diagnosis.patient_id".into(),
        };
        let join_bs = LogicalPlan::Join {
            left: Box::new(big),
            right: Box::new(small),
            left_attr: "Diagnosis.patient_id".into(),
            right_attr: "Patient.patient_id".into(),
        };
        let r1 = execute(&join_sb, &mut tables).unwrap();
        let r2 = execute(&join_bs, &mut tables).unwrap();
        assert_eq!(r1.len(), r2.len());
        assert!(!r1.is_empty());
        // Column order differs (left ++ right), but the joined id sets match.
        let ids = |r: &Relation, col: &str| {
            let i = r.schema().index_of(col).unwrap();
            let mut v: Vec<Value> = r.tuples().iter().map(|t| t[i].clone()).collect();
            v.sort();
            v
        };
        assert_eq!(
            ids(&r1, "Patient.patient_id"),
            ids(&r2, "Patient.patient_id")
        );
    }

    #[test]
    fn join_with_no_matches_is_empty() {
        let mut tables = medical_tables();
        let plan = LogicalPlan::Join {
            left: Box::new(LogicalPlan::Select {
                relation: "Patient".to_string(),
                predicates: vec![Predicate::range("patient_id", 1000, 2000)],
            }),
            right: Box::new(LogicalPlan::Select {
                relation: "Diagnosis".to_string(),
                predicates: vec![],
            }),
            left_attr: "Patient.patient_id".into(),
            right_attr: "Diagnosis.patient_id".into(),
        };
        let r = execute(&plan, &mut tables).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn unknown_relation_error() {
        let mut tables = medical_tables();
        let plan = LogicalPlan::Select {
            relation: "Nope".to_string(),
            predicates: vec![],
        };
        assert_eq!(
            execute(&plan, &mut tables),
            Err(ExecError::UnknownRelation("Nope".to_string()))
        );
    }

    #[test]
    fn unknown_predicate_attr_error() {
        let mut tables = medical_tables();
        let plan = LogicalPlan::Select {
            relation: "Patient".to_string(),
            predicates: vec![Predicate::range("salary", 1, 2)],
        };
        assert_eq!(
            execute(&plan, &mut tables),
            Err(ExecError::UnknownAttribute("salary".to_string()))
        );
    }

    #[test]
    fn unknown_projection_attr_error() {
        let mut tables = medical_tables();
        let plan = LogicalPlan::Project {
            input: Box::new(LogicalPlan::Select {
                relation: "Patient".to_string(),
                predicates: vec![],
            }),
            attrs: vec!["Patient.salary".to_string()],
        };
        assert!(matches!(
            execute(&plan, &mut tables),
            Err(ExecError::UnknownAttribute(_))
        ));
    }

    #[test]
    fn base_tables_count_fetches() {
        let mut tables = medical_tables();
        let plan = LogicalPlan::Select {
            relation: "Patient".to_string(),
            predicates: vec![],
        };
        execute(&plan, &mut tables).unwrap();
        execute(&plan, &mut tables).unwrap();
        assert_eq!(tables.fetches, 2);
    }

    #[test]
    fn duplicate_join_keys_produce_cross_combinations() {
        // Two left tuples with the same key joining two right tuples with
        // that key must produce 4 output rows.
        use crate::value::ValueType;
        let s1 = Arc::new(Schema::new(
            "L",
            vec![("k", ValueType::Int), ("a", ValueType::Int)],
        ));
        let s2 = Arc::new(Schema::new(
            "R",
            vec![("k", ValueType::Int), ("b", ValueType::Int)],
        ));
        let mut tables = BaseTables::new();
        tables.register(Relation::new(
            s1,
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(1), Value::Int(11)],
            ],
        ));
        tables.register(Relation::new(
            s2,
            vec![
                vec![Value::Int(1), Value::Int(20)],
                vec![Value::Int(1), Value::Int(21)],
            ],
        ));
        let plan = LogicalPlan::Join {
            left: Box::new(LogicalPlan::Select {
                relation: "L".into(),
                predicates: vec![],
            }),
            right: Box::new(LogicalPlan::Select {
                relation: "R".into(),
                predicates: vec![],
            }),
            left_attr: "L.k".into(),
            right_attr: "R.k".into(),
        };
        let r = execute(&plan, &mut tables).unwrap();
        assert_eq!(r.len(), 4);
    }
}
