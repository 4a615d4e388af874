//! The message-passing rendition of the protocol (over `ars-simnet`) must
//! agree, query for query, with the direct-call simulation — same seeds,
//! same ring, same hash groups, same matches, same recall.

use ars::common::env_seed;
use ars::prelude::*;

/// Each case runs under independent placement and under layered placement
/// with a 16-candidate probe budget, where one arc read walks the
/// successors instead of `l` lookups; and each at one copy of a cached
/// partition and at two, where a walk can read the copy at an owner's
/// successor.
fn placements(config: SystemConfig) -> Vec<SystemConfig> {
    let layered = config.clone().with_placement_mode(PlacementMode::Layered);
    let modes = [config, layered.with_probes(16)];
    (1..=2)
        .flat_map(|r| modes.clone().map(|config| config.with_replication(r)))
        .collect()
}

/// Run `trace` through both renditions, holding every outcome field equal.
fn assert_agree(direct: &mut RangeSelectNetwork, proto: &mut ProtoNetwork, trace: &Trace) {
    for q in trace.queries() {
        let a = direct.query(q);
        let b = proto.query(q);
        assert_eq!(a.best_match, b.best_match, "match diverged for {q}");
        assert_eq!(a.recall, b.recall, "recall diverged for {q}");
        assert_eq!(a.exact, b.exact, "exactness diverged for {q}");
        assert_eq!(a.similarity, b.similarity, "similarity diverged for {q}");
        assert_eq!(a.identifiers, b.identifiers, "identifiers diverged for {q}");
        // Hop counts agree too: same origins (same RNG stream), same ring.
        assert_eq!(a.hops, b.hops, "hops diverged for {q}");
        assert_eq!(a.stored, b.stored, "stored diverged for {q}");
        // The peers that replied are the peers the direct path visited.
        assert_eq!(a.peers_contacted, b.peers_contacted, "peers for {q}");
        assert_eq!(a, b, "outcome diverged for {q}");
    }
}

#[test]
fn direct_and_message_renditions_agree() {
    for config in placements(SystemConfig::default().with_seed(424242)) {
        let mut direct = RangeSelectNetwork::new(40, config.clone());
        let mut proto = ProtoNetwork::new(40, config);
        assert_agree(&mut direct, &mut proto, &uniform_trace(400, 0, 1000, 7));
    }
}

#[test]
fn renditions_agree_under_containment_and_padding() {
    let config = SystemConfig::default().with_matching(MatchMeasure::Containment);
    let padded = config.clone().with_padding(0.2).with_seed(777);
    // Second case: a cached superset scores 1.0 and outranks the cached
    // copy of the query itself — not exact, yet no peer stores anything
    // new, so `stored` must come from the peers' acks, not from having sent.
    // Its 8 peers are also fewer than two walk windows: arcs overlap.
    for (n_peers, config, trace) in [
        (25, padded, uniform_trace(200, 0, 1000, 9)),
        (
            8,
            config.with_seed(1000),
            zipf_trace(600, 0, 1000, 16, 1.0, 200, 0),
        ),
    ] {
        for config in placements(config) {
            let mut direct = RangeSelectNetwork::new(n_peers, config.clone());
            let mut proto = ProtoNetwork::new(n_peers, config);
            assert_agree(&mut direct, &mut proto, &trace);
        }
    }
}

/// Delivery order is not part of the protocol: extra delay on half the
/// messages lets replies and acks overtake one another, and no outcome
/// moves, because the querying peer orders what it collected by request
/// id. The schedule replays from `ARS_FAULT_SEED`.
#[test]
fn delivery_order_does_not_change_outcomes() {
    let seed = env_seed("ARS_FAULT_SEED");
    let trace = uniform_trace(300, 0, 1000, seed);
    let configs = [false, true].map(|local_index| {
        SystemConfig::default()
            .with_local_index(local_index)
            .with_seed(31337 + seed)
    });
    for config in configs.into_iter().flat_map(placements) {
        let mut direct = RangeSelectNetwork::new(16, config.clone());
        let mut calm = ProtoNetwork::new(16, config.clone());
        let delays = FaultPlan::none().with_delay(0.5, 0, 500);
        let mut delayed = ProtoNetwork::new_faulty(16, config, delays, seed);
        assert_agree(&mut direct, &mut delayed, &trace);
        for q in trace.queries() {
            calm.query(q);
        }
        let (calm, delayed) = (calm.sim_stats(), delayed.sim_stats());
        assert_eq!(delayed.dropped + delayed.partitioned, 0, "nothing lost");
        assert_eq!(delayed.delivered, calm.delivered, "same messages");
        assert!(delayed.end_time > calm.end_time, "the plan never delayed");
    }
}

#[test]
fn message_rendition_pays_routing_messages() {
    let mut proto = ProtoNetwork::new(100, SystemConfig::default().with_seed(5));
    let before = proto.messages_delivered();
    proto.query(&RangeSet::interval(100, 200));
    let spent = proto.messages_delivered() - before;
    // 5 FindMatch requests (several hops each) + 5 replies + 5 stores + 5
    // acks. In a 100-peer ring mean hops ≈ 3–4, so expect ≥ 20 messages.
    assert!(spent >= 20, "only {spent} messages for one query");
}
