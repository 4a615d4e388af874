//! The paper's §2 running example, end to end: the Glaucoma prescription
//! query (Figure 1) as the plan of Figure 2 — selections at the leaves,
//! built in code — with leaf partitions fetched through the P2P cache and
//! the joins computed locally at the querying peer.
//!
//! Run with: `cargo run --release --example medical_join`

use ars::core::data::DataNetwork;
use ars::prelude::*;
use ars::relation::exec::BaseTables;
use ars::relation::schema::medical;
use ars::relation::value::days_since_1900;

/// Synthesize the four base relations of the global schema at the sources.
fn build_sources() -> BaseTables {
    let mut tables = BaseTables::new();
    tables.register(Relation::new(
        medical::patient(),
        (0..500u32)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::from(format!("patient-{i}")),
                    Value::Int(18 + (i * 7) % 70),
                ]
            })
            .collect(),
    ));
    tables.register(Relation::new(
        medical::diagnosis(),
        (0..500u32)
            .map(|i| {
                let diagnosis = match i % 3 {
                    0 => "Glaucoma",
                    1 => "Cataract",
                    _ => "Myopia",
                };
                vec![
                    Value::Int(i),
                    Value::from(diagnosis),
                    Value::Int(i % 25),
                    Value::Int(i),
                ]
            })
            .collect(),
    ));
    let epoch = days_since_1900(1998, 1, 1);
    tables.register(Relation::new(
        medical::prescription(),
        (0..500u32)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Date(epoch + (i * 5) % 2500),
                    Value::from(format!("rx-{}", i % 60)),
                    Value::from("as directed"),
                ]
            })
            .collect(),
    ));
    tables
}

fn main() {
    // The paper's query, §2: SELECT Prescription.prescription FROM Patient,
    // Diagnosis, Prescription WHERE 30 <= age <= 50 AND diagnosis =
    // 'Glaucoma' AND 01-01-2000 <= date <= 12-31-2002, joined on
    // patient_id and prescription_id.
    let plan = medical::glaucoma_plan();
    println!("=== logical plan (selects pushed to the leaves) ===\n{plan}");

    // A 60-peer data-sharing network in front of the sources.
    let mut p2p = DataNetwork::new(60, SystemConfig::default(), build_sources());

    let first = execute(&plan, &mut p2p).expect("execution succeeds");
    println!(
        "=== first run: {} prescriptions; leaf fetches — cache: {}, source: {} ===",
        first.len(),
        p2p.stats.cache_hits,
        p2p.stats.source_fetches
    );
    for t in first.tuples().iter().take(5) {
        println!("  {}", t[0]);
    }
    if first.len() > 5 {
        println!("  … and {} more", first.len() - 5);
    }

    // Run it again: the ranged leaves (Patient.age, Prescription.date) now
    // come from peers that cached them, not the sources.
    let second = execute(&plan, &mut p2p).expect("execution succeeds");
    println!(
        "=== second run: {} prescriptions; leaf fetches — cache: {}, source: {} ===",
        second.len(),
        p2p.stats.cache_hits,
        p2p.stats.source_fetches
    );
    assert_eq!(first.len(), second.len());
    println!(
        "cached partitions in the network: {}",
        p2p.cached_partitions()
    );
}
