//! The paper's §2 scenario end to end: a plan with its selects at the
//! leaves is built in code, the leaf partitions are fetched through the
//! P2P cache, and the joins/projection run locally at the querying peer.
//! Results must equal direct evaluation at the sources, and repeats must
//! be served from the cache.

use ars::core::data::DataNetwork;
use ars::prelude::*;
use ars::relation::exec::BaseTables;
use ars::relation::schema::medical;
use ars::relation::value::days_since_1900;

/// `SELECT * FROM Patient WHERE lo <= age AND age <= hi`.
fn patients_aged(lo: u32, hi: u32) -> LogicalPlan {
    LogicalPlan::Select {
        relation: "Patient".to_string(),
        predicates: vec![Predicate::range("age", lo, hi)],
    }
}

fn project(input: LogicalPlan, attrs: &[&str]) -> LogicalPlan {
    LogicalPlan::Project {
        input: Box::new(input),
        attrs: attrs.iter().map(|a| a.to_string()).collect(),
    }
}

fn medical_sources() -> BaseTables {
    let mut tables = BaseTables::new();
    tables.register(Relation::new(
        medical::patient(),
        (0..400u32)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::from(format!("patient{i}")),
                    Value::Int(20 + (i % 60)),
                ]
            })
            .collect(),
    ));
    tables.register(Relation::new(
        medical::diagnosis(),
        (0..400u32)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::from(if i % 3 == 0 { "Glaucoma" } else { "Cataract" }),
                    Value::Int(i % 10),
                    Value::Int(i),
                ]
            })
            .collect(),
    ));
    let base_day = days_since_1900(1998, 1, 1);
    tables.register(Relation::new(
        medical::prescription(),
        (0..400u32)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Date(base_day + (i * 7) % 2900), // spread over ~8 years
                    Value::from(format!("drug{}", i % 40)),
                    Value::from(""),
                ]
            })
            .collect(),
    ));
    tables
}

fn sorted_strings(rel: &Relation) -> Vec<String> {
    let mut v: Vec<String> = rel.tuples().iter().map(|t| format!("{}", t[0])).collect();
    v.sort();
    v
}

#[test]
fn paper_query_over_p2p_equals_direct_evaluation() {
    let plan = medical::glaucoma_plan();

    // Direct evaluation at the sources.
    let mut direct_tables = medical_sources();
    let direct = execute(&plan, &mut direct_tables).unwrap();
    assert!(!direct.is_empty(), "test data must produce answers");

    // Evaluation with leaves fetched through the P2P system.
    let mut p2p = DataNetwork::new(60, SystemConfig::default().with_seed(33), medical_sources());
    let via_p2p = execute(&plan, &mut p2p).unwrap();
    assert_eq!(sorted_strings(&via_p2p), sorted_strings(&direct));
    // All three leaves had to go to the sources the first time (the
    // Diagnosis leaf is a pure string-equality select, also source-served).
    assert_eq!(p2p.stats.source_fetches, 3);
}

#[test]
fn repeated_query_serves_ranged_leaves_from_cache() {
    let plan = medical::glaucoma_plan();
    let mut p2p = DataNetwork::new(60, SystemConfig::default().with_seed(33), medical_sources());

    let first = execute(&plan, &mut p2p).unwrap();
    let sources_after_first = p2p.stats.source_fetches;
    let second = execute(&plan, &mut p2p).unwrap();
    assert_eq!(sorted_strings(&first), sorted_strings(&second));

    // The two ranged leaves (Patient.age, Prescription.date) now hit the
    // cache; only the unranged Diagnosis leaf returns to the source.
    assert_eq!(p2p.stats.cache_hits, 2);
    assert_eq!(p2p.stats.source_fetches, sources_after_first + 1);
}

#[test]
fn similar_query_can_reuse_broader_partition() {
    // Cache age 25–55, then ask 30–50 with containment matching: covered.
    let mut p2p = DataNetwork::new(
        60,
        SystemConfig::default()
            .with_matching(MatchMeasure::Containment)
            .with_seed(12),
        medical_sources(),
    );
    execute(&patients_aged(25, 55), &mut p2p).unwrap();

    let narrow = patients_aged(30, 50);
    let via_p2p = execute(&narrow, &mut p2p).unwrap();

    // Correctness regardless of whether LSH found the broader partition.
    let mut direct_tables = medical_sources();
    let direct = execute(&narrow, &mut direct_tables).unwrap();
    assert_eq!(via_p2p.len(), direct.len());
}

#[test]
fn select_star_and_projection_agree_between_paths() {
    let joined = LogicalPlan::Join {
        left: Box::new(patients_aged(30, 35)),
        right: Box::new(LogicalPlan::Select {
            relation: "Diagnosis".to_string(),
            predicates: vec![],
        }),
        left_attr: "Patient.patient_id".to_string(),
        right_attr: "Diagnosis.patient_id".to_string(),
    };
    for plan in [
        patients_aged(40, 45),
        project(patients_aged(40, 45), &["Patient.name"]),
        project(joined, &["Patient.name", "Diagnosis.diagnosis"]),
    ] {
        let mut direct_tables = medical_sources();
        let direct = execute(&plan, &mut direct_tables).unwrap();
        let mut p2p = DataNetwork::new(40, SystemConfig::default().with_seed(5), medical_sources());
        let via = execute(&plan, &mut p2p).unwrap();
        assert_eq!(via.len(), direct.len(), "row count diverged for\n{plan}");
        assert_eq!(
            via.schema().arity(),
            direct.schema().arity(),
            "arity diverged for\n{plan}"
        );
    }
}

/// The plan built in code is the plan the deleted SQL front-end produced
/// for the paper's query: this string is what its planner printed at the
/// last commit that had one.
#[test]
fn glaucoma_plan_prints_what_the_planner_printed() {
    assert_eq!(
        format!("{}", medical::glaucoma_plan()),
        "Project Prescription.prescription\n\
         \x20 Join Diagnosis.prescription_id = Prescription.prescription_id\n\
         \x20   Join Patient.patient_id = Diagnosis.patient_id\n\
         \x20     Select Patient [30 <= age <= 50]\n\
         \x20     Select Diagnosis [diagnosis = Glaucoma]\n\
         \x20   Select Prescription [36524 <= date <= 37619]\n"
    );
}
