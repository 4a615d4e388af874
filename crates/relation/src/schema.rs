//! Schemas, tuples, and relations.
//!
//! The paper assumes "a global schema that is known to all the peers"
//! (§2). [`Schema`] describes one relation's attributes; [`Relation`] is a
//! bag of [`Tuple`]s conforming to a schema — either a base relation at a
//! source peer or a fetched fragment being joined at a querying peer.

use crate::value::{Value, ValueType};
use std::fmt;
use std::sync::Arc;

/// One attribute (column) of a relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name, unique within its schema.
    pub name: String,
    /// Attribute type.
    pub ty: ValueType,
}

/// The schema of one relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    name: String,
    attributes: Vec<Attribute>,
}

impl Schema {
    /// Create a schema.
    ///
    /// # Panics
    /// Panics on duplicate attribute names or an empty attribute list.
    pub(crate) fn new<S: Into<String>>(name: S, attributes: Vec<(&str, ValueType)>) -> Schema {
        assert!(!attributes.is_empty(), "schema needs attributes");
        let attributes: Vec<Attribute> = attributes
            .into_iter()
            .map(|(n, ty)| Attribute {
                name: n.to_string(),
                ty,
            })
            .collect();
        for (i, a) in attributes.iter().enumerate() {
            assert!(
                !attributes[..i].iter().any(|b| b.name == a.name),
                "duplicate attribute {}",
                a.name
            );
        }
        Schema {
            name: name.into(),
            attributes,
        }
    }

    /// Relation name.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Attribute list in declaration order.
    pub(crate) fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// Index of an attribute by name.
    pub fn index_of(&self, attr: &str) -> Option<usize> {
        self.attributes.iter().position(|a| a.name == attr)
    }

    /// Derive a schema for a projection of this one.
    ///
    /// # Panics
    /// Panics if any projected attribute is unknown.
    pub(crate) fn project(&self, attrs: &[&str]) -> Schema {
        let attributes = attrs
            .iter()
            .map(|&a| {
                let i = self
                    .index_of(a)
                    .unwrap_or_else(|| panic!("unknown attribute {a} in {}", self.name));
                self.attributes[i].clone()
            })
            .collect();
        Schema {
            name: format!("π({})", self.name),
            attributes,
        }
    }

    /// Derive the schema of a natural concatenation with `other`
    /// (attributes qualified by origin where names collide).
    pub(crate) fn join(&self, other: &Schema) -> Schema {
        let mut attributes = self.attributes.clone();
        for a in &other.attributes {
            let name = if self.index_of(&a.name).is_some() {
                format!("{}.{}", other.name, a.name)
            } else {
                a.name.clone()
            };
            attributes.push(Attribute { name, ty: a.ty });
        }
        Schema {
            name: format!("{}⋈{}", self.name, other.name),
            attributes,
        }
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, a) in self.attributes.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", a.name, a.ty)?;
        }
        write!(f, ")")
    }
}

/// One tuple: values positionally aligned with a schema.
pub type Tuple = Vec<Value>;

/// A bag of tuples under a schema.
#[derive(Debug, Clone, PartialEq)]
pub struct Relation {
    schema: Arc<Schema>,
    tuples: Vec<Tuple>,
}

impl Relation {
    /// Create a relation from tuples, validating arity and types.
    ///
    /// # Panics
    /// Panics if a tuple does not conform to the schema.
    pub fn new(schema: Arc<Schema>, tuples: Vec<Tuple>) -> Relation {
        for t in &tuples {
            validate(&schema, t);
        }
        Relation { schema, tuples }
    }

    /// The schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The tuples.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True if the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Consume into tuples.
    pub fn into_tuples(self) -> Vec<Tuple> {
        self.tuples
    }
}

fn validate(schema: &Schema, tuple: &Tuple) {
    assert_eq!(
        tuple.len(),
        schema.arity(),
        "tuple arity {} does not match schema {} (arity {})",
        tuple.len(),
        schema.name(),
        schema.arity()
    );
    for (v, a) in tuple.iter().zip(schema.attributes()) {
        assert_eq!(
            v.value_type(),
            a.ty,
            "attribute {} expects {}, got {:?}",
            a.name,
            a.ty,
            v
        );
    }
}

/// The paper's running example schema (§2): `Patient`, `Diagnosis`,
/// `Physician`, `Prescription`. Used throughout tests and examples.
pub mod medical {
    use super::*;
    use crate::plan::LogicalPlan;
    use crate::predicate::Predicate;
    use crate::value::days_since_1900;

    /// `Patient(patient_id, name, age)`
    pub fn patient() -> Arc<Schema> {
        Arc::new(Schema::new(
            "Patient",
            vec![
                ("patient_id", ValueType::Int),
                ("name", ValueType::Str),
                ("age", ValueType::Int),
            ],
        ))
    }

    /// `Diagnosis(patient_id, diagnosis, physician_id, prescription_id)`
    pub fn diagnosis() -> Arc<Schema> {
        Arc::new(Schema::new(
            "Diagnosis",
            vec![
                ("patient_id", ValueType::Int),
                ("diagnosis", ValueType::Str),
                ("physician_id", ValueType::Int),
                ("prescription_id", ValueType::Int),
            ],
        ))
    }

    /// `Physician(physician_id, name, age, specialization)`
    #[cfg(test)]
    pub(crate) fn physician() -> Arc<Schema> {
        Arc::new(Schema::new(
            "Physician",
            vec![
                ("physician_id", ValueType::Int),
                ("name", ValueType::Str),
                ("age", ValueType::Int),
                ("specialization", ValueType::Str),
            ],
        ))
    }

    /// `Prescription(prescription_id, date, prescription, comments)`
    pub fn prescription() -> Arc<Schema> {
        Arc::new(Schema::new(
            "Prescription",
            vec![
                ("prescription_id", ValueType::Int),
                ("date", ValueType::Date),
                ("prescription", ValueType::Str),
                ("comments", ValueType::Str),
            ],
        ))
    }

    /// The paper's example query (Figure 1) — prescriptions given for
    /// Glaucoma to patients aged 30–50 between 2000 and 2002 — as the
    /// plan of Figure 2: every selection at its leaf, joins left-deep in
    /// FROM order, one final projection.
    pub fn glaucoma_plan() -> LogicalPlan {
        let select = |relation: &str, predicate| LogicalPlan::Select {
            relation: relation.to_string(),
            predicates: vec![predicate],
        };
        let join = |left, right, left_attr: &str, right_attr: &str| LogicalPlan::Join {
            left: Box::new(left),
            right: Box::new(right),
            left_attr: left_attr.to_string(),
            right_attr: right_attr.to_string(),
        };
        let dates = Predicate::range(
            "date",
            days_since_1900(2000, 1, 1),
            days_since_1900(2002, 12, 31),
        );
        let patient_diagnosis = join(
            select("Patient", Predicate::range("age", 30, 50)),
            select("Diagnosis", Predicate::eq("diagnosis", "Glaucoma")),
            "Patient.patient_id",
            "Diagnosis.patient_id",
        );
        LogicalPlan::Project {
            input: Box::new(join(
                patient_diagnosis,
                select("Prescription", dates),
                "Diagnosis.prescription_id",
                "Prescription.prescription_id",
            )),
            attrs: vec!["Prescription.prescription".to_string()],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_lookup() {
        let s = medical::patient();
        assert_eq!(s.name(), "Patient");
        assert_eq!(s.arity(), 3);
        assert_eq!(s.index_of("age"), Some(2));
        assert_eq!(s.index_of("nope"), None);
    }

    #[test]
    #[should_panic(expected = "duplicate attribute")]
    fn duplicate_attribute_rejected() {
        Schema::new("Bad", vec![("a", ValueType::Int), ("a", ValueType::Str)]);
    }

    #[test]
    fn relation_validates_tuples() {
        let s = medical::patient();
        let r = Relation::new(
            s.clone(),
            vec![vec![Value::Int(1), "alice".into(), Value::Int(34)]],
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.tuples()[0][1], Value::from("alice"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn wrong_arity_rejected() {
        let s = medical::patient();
        Relation::new(s, vec![vec![Value::Int(1)]]);
    }

    #[test]
    #[should_panic(expected = "expects")]
    fn wrong_type_rejected() {
        let s = medical::patient();
        Relation::new(s, vec![vec![Value::Int(1), Value::Int(2), Value::Int(3)]]);
    }

    #[test]
    fn project_schema() {
        let s = medical::prescription();
        let p = s.project(&["prescription"]);
        assert_eq!(p.arity(), 1);
        assert_eq!(p.attributes()[0].name, "prescription");
    }

    #[test]
    #[should_panic(expected = "unknown attribute")]
    fn project_unknown_panics() {
        medical::patient().project(&["salary"]);
    }

    #[test]
    fn join_schema_qualifies_collisions() {
        let a = medical::patient(); // has name, age
        let b = medical::physician(); // also has name, age
        let j = a.join(&b);
        assert_eq!(j.arity(), 7);
        assert!(j.index_of("Physician.name").is_some());
        assert!(j.index_of("Physician.age").is_some());
        assert!(j.index_of("specialization").is_some());
    }

    #[test]
    fn display_schema() {
        let s = Schema::new("T", vec![("x", ValueType::Int)]);
        assert_eq!(format!("{s}"), "T(x: INT)");
    }
}
