//! Chord under churn: grow a ring node by node, kill a batch of peers
//! abruptly, and watch stabilization repair the ring while lookups stay
//! correct.
//!
//! Run with: `cargo run --release --example churn`

use ars::prelude::*;

fn lookup_accuracy(net: &DynamicNetwork, rng: &mut DetRng, trials: usize) -> (usize, usize) {
    let ids = net.node_ids();
    let mut correct = 0;
    let mut failed = 0;
    for _ in 0..trials {
        let from = ids[rng.gen_index(ids.len())];
        let key = Id(rng.next_u32());
        match net.lookup(from, key) {
            Ok((owner, _)) if owner == net.true_owner(key) => correct += 1,
            Ok(_) => {}
            Err(_) => failed += 1,
        }
    }
    (correct, failed)
}

fn main() {
    let mut rng = DetRng::new(77);
    let first = Id(rng.next_u32());
    let mut net = DynamicNetwork::bootstrap(first);

    // Grow to 60 peers.
    while net.len() < 60 {
        let id = Id(rng.next_u32());
        if net.node_ids().contains(&id) {
            continue;
        }
        net.join(id, first).expect("join");
        net.stabilize_all(32);
    }
    let rounds = net.stabilize_until_consistent(64).expect("converges");
    println!(
        "grew to {} peers (converged in {rounds} extra rounds)",
        net.len()
    );

    let (correct, failed) = lookup_accuracy(&net, &mut rng, 300);
    println!("healthy ring: {correct}/300 lookups correct, {failed} failed");

    // Abruptly kill 15 peers (25% of the network) at once.
    for _ in 0..15 {
        let ids = net.node_ids();
        let victim = ids[rng.gen_index(ids.len())];
        net.fail(victim).expect("fail");
    }
    println!("\nkilled 15 peers without warning; ring is now stale");
    let (correct, failed) = lookup_accuracy(&net, &mut rng, 300);
    println!("before repair: {correct}/300 lookups correct, {failed} failed");

    // Stabilization repairs successor lists and fingers.
    let mut round = 0;
    while !net.is_ring_consistent() {
        net.stabilize_all(32);
        round += 1;
        assert!(round < 128, "ring failed to converge");
    }
    println!("ring consistent again after {round} stabilization rounds");

    let (correct, failed) = lookup_accuracy(&net, &mut rng, 300);
    println!("after repair: {correct}/300 lookups correct, {failed} failed");
    assert_eq!(correct, 300);
}
