//! Failure injection across crates: the Chord layer loses peers (abruptly
//! and gracefully) while the system keeps resolving lookups after
//! stabilization. This exercises the dynamic protocol under the kind of
//! churn a real P2P deployment sees.

use ars::prelude::*;

fn grown(n: usize, seed: u64) -> DynamicNetwork {
    let mut rng = DetRng::new(seed);
    let first = Id(rng.next_u32());
    let mut net = DynamicNetwork::bootstrap(first);
    while net.len() < n {
        let id = Id(rng.next_u32());
        if net.node_ids().contains(&id) {
            continue;
        }
        net.join(id, first).expect("join during growth");
        net.stabilize_all(32);
    }
    net.stabilize_until_consistent(64)
        .expect("growth converges");
    net
}

#[test]
fn mass_failure_of_a_quarter_of_the_network_recovers() {
    let mut net = grown(40, 1);
    let mut rng = DetRng::new(2);
    for _ in 0..10 {
        let ids = net.node_ids();
        let victim = ids[rng.gen_index(ids.len())];
        net.fail(victim).unwrap();
    }
    net.stabilize_until_consistent(128)
        .expect("ring did not re-converge after mass failure");
    // All lookups route to the true owners again.
    let ids = net.node_ids();
    for _ in 0..200 {
        let from = ids[rng.gen_index(ids.len())];
        let key = Id(rng.next_u32());
        let (owner, _) = net.lookup(from, key).expect("lookup after recovery");
        assert_eq!(owner, net.true_owner(key));
    }
}

#[test]
fn data_ownership_transfers_on_failure() {
    // When a peer fails, its identifier interval is owned by its successor
    // — the re-cache path of the application layer repopulates data there.
    let mut net = grown(20, 3);
    let ids = net.node_ids();
    let victim = ids[7];
    let key = Id(victim.0.wrapping_sub(1)); // owned by the victim
    assert_eq!(net.true_owner(key), victim);
    net.fail(victim).unwrap();
    net.stabilize_until_consistent(64).expect("recovery");
    let new_owner = net.true_owner(key);
    assert_ne!(new_owner, victim);
    // Routed lookup agrees with ground truth.
    let from = net.node_ids()[0];
    assert_eq!(net.lookup(from, key).unwrap().0, new_owner);
}

#[test]
fn interleaved_joins_and_failures_stay_correct() {
    let mut net = grown(15, 5);
    let mut rng = DetRng::new(6);
    for round in 0..20 {
        if round % 3 == 0 && net.len() > 8 {
            let ids = net.node_ids();
            let victim = ids[rng.gen_index(ids.len())];
            net.fail(victim).unwrap();
        } else {
            let ids = net.node_ids();
            let via = ids[rng.gen_index(ids.len())];
            let new = Id(rng.next_u32());
            if !ids.contains(&new) {
                // Mid-churn joins may fail while routing is degraded;
                // real peers retry later.
                let _ = net.join(new, via);
            }
        }
        net.stabilize_all(8);
    }
    net.stabilize_until_consistent(128)
        .expect("final convergence");
    let ids = net.node_ids();
    let mut rng2 = DetRng::new(7);
    for _ in 0..100 {
        let from = ids[rng2.gen_index(ids.len())];
        let key = Id(rng2.next_u32());
        assert_eq!(net.lookup(from, key).unwrap().0, net.true_owner(key));
    }
}

#[test]
fn graceful_leave_keeps_ring_consistent_without_stabilization() {
    let mut net = grown(20, 9);
    let ids = net.node_ids();
    // A graceful leave notifies neighbours synchronously; one stabilize
    // round at most tidies successor lists.
    net.leave(ids[4]).unwrap();
    net.stabilize_all(8);
    assert!(
        net.stabilize_until_consistent(4).is_some(),
        "graceful leave should not require long recovery"
    );
}
