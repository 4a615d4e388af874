//! The protocol as explicit messages over `ars-simnet`.
//!
//! [`crate::RangeSelectNetwork`] computes routing outcomes directly; this
//! module executes the *same* plan (`plan.rs`) as peer-to-peer
//! messages — greedy Chord forwarding of `Route` envelopes, bucket search
//! at the owner (and, for a key that walks, at its successors), a
//! `MatchReply` back to the querying peer from every peer that searched,
//! and `Store` messages on a miss, each handed on from the owner to its
//! successors until every copy is written — over the deterministic event
//! simulator. A binary wire encoding
//! ([`ProtoMsg`] implements [`Wire`]) pins down what would actually cross
//! a TCP connection.
//!
//! The integration test `tests/proto_equivalence.rs` holds this rendition
//! equal, query for query, to the direct-call one.

use crate::bucket::Match;
use crate::config::{MatchMeasure, SystemConfig};
use crate::network::QueryOutcome;
use crate::peer::Peer;
use crate::plan::{
    anchor_sketch, hashed_range, identifiers_of, targets, verdict, PlacementMemo, Transport,
};
use ars_chord::{Id, Ring};
use ars_common::DetRng;
use ars_lsh::{HashGroups, RangeSet};
use ars_simnet::codec::{
    frame_len, get_f64, get_seq, get_u32, get_u64, get_u8, put_f64, put_seq, put_u32, put_u64,
    put_u8, CodecError, Sink, Wire,
};
use ars_simnet::{FaultPlan, Node, NodeCtx, SimNet, SimStats};
use std::rc::Rc;

/// A range goes on the wire as its canonical interval list.
fn put_range(buf: &mut impl Sink, range: &RangeSet) {
    put_seq(buf, range.intervals(), |b, &(lo, hi)| {
        put_u32(b, lo);
        put_u32(b, hi);
    });
}

/// Read an interval list, refusing an inverted interval before it reaches
/// [`RangeSet::from_intervals`]'s `lo <= hi` assertion: bytes off the wire
/// are outside input. Overlapping or unsorted intervals are canonicalised.
fn get_range(buf: &mut &[u8]) -> Result<RangeSet, CodecError> {
    let intervals = get_seq(buf, |b| {
        let (lo, hi) = (get_u32(b)?, get_u32(b)?);
        if lo > hi {
            return Err(CodecError::BadLength(u64::from(lo - hi)));
        }
        Ok((lo, hi))
    })?;
    Ok(RangeSet::from_intervals(intervals))
}

/// Protocol messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtoMsg {
    /// An envelope being routed toward the owner of ring position `key`.
    Route {
        /// Ring position being located (the placed identifier).
        key: u32,
        /// The partition identifier (bucket name at the owner).
        ident: u32,
        /// Overlay hops taken so far.
        hops: u32,
        /// The request to execute at the owner.
        payload: Payload,
    },
    /// Owner → origin: result of a `FindMatch`.
    MatchReply {
        /// Request id this answers.
        request: u64,
        /// Identifier that was searched.
        identifier: u32,
        /// Hops the request took to reach the owner.
        hops: u32,
        /// Best match, if the bucket was non-empty.
        best: Option<(RangeSet, f64)>,
    },
    /// Owner → origin: a `Store` was applied.
    StoreAck {
        /// Request id this answers.
        request: u64,
        /// Whether the range was new to the owner's bucket.
        stored: bool,
    },
}

/// What to do once the owner of the key is reached.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Search the identifier's bucket for the best match.
    FindMatch {
        /// Request id (echoed in the reply).
        request: u64,
        /// Peer index to reply to.
        origin: u32,
        /// The (already padded) query range.
        range: RangeSet,
    },
    /// Cache a partition range under the identifier, here and at the
    /// ring successors: every peer that stores acks under its own request
    /// id (the owner `request`, each successor one more) and, while
    /// `copies` is above one, forwards the store to its successor with
    /// `copies` one less.
    Store {
        /// Request id of this peer's ack.
        request: u64,
        /// Peer index to ack to.
        origin: u32,
        /// The partition range to store.
        range: RangeSet,
        /// Copies left to write, this one included.
        copies: u32,
    },
    /// Search several buckets at the owner, then at its ring successors:
    /// the arc read of layered placement. Every visited peer answers with
    /// its best match across `candidates` under its own request id (the
    /// owner `request`, each successor one more) and, while `walk` is above
    /// one, forwards the read to its successor with `walk` one less.
    FindAcross {
        /// Request id of this peer's reply.
        request: u64,
        /// Peer index to reply to.
        origin: u32,
        /// Peers left to visit, this one included.
        walk: u32,
        /// What to search for and where. Boxed, so the variant only the
        /// arc read sends does not widen every message in the queue.
        read: Box<ArcRead>,
    },
}

/// The body of a [`Payload::FindAcross`], handed from peer to peer whole.
#[derive(Debug, Clone, PartialEq)]
pub struct ArcRead {
    /// The (already padded) query range.
    pub range: RangeSet,
    /// The bucket identifiers to search.
    pub candidates: Vec<u32>,
}

impl Wire for ProtoMsg {
    fn encode<S: Sink>(&self, buf: &mut S) {
        match self {
            ProtoMsg::Route {
                key,
                ident,
                hops,
                payload,
            } => {
                put_u8(buf, 0);
                put_u32(buf, *key);
                put_u32(buf, *ident);
                put_u32(buf, *hops);
                payload.encode(buf);
            }
            ProtoMsg::MatchReply {
                request,
                identifier,
                hops,
                best,
            } => {
                put_u8(buf, 1);
                put_u64(buf, *request);
                put_u32(buf, *identifier);
                put_u32(buf, *hops);
                match best {
                    None => put_u8(buf, 0),
                    Some((range, score)) => {
                        put_u8(buf, 1);
                        put_range(buf, range);
                        put_f64(buf, *score);
                    }
                }
            }
            ProtoMsg::StoreAck { request, stored } => {
                put_u8(buf, 2);
                put_u64(buf, *request);
                put_u8(buf, u8::from(*stored));
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        match get_u8(buf)? {
            0 => Ok(ProtoMsg::Route {
                key: get_u32(buf)?,
                ident: get_u32(buf)?,
                hops: get_u32(buf)?,
                payload: Payload::decode(buf)?,
            }),
            1 => {
                let request = get_u64(buf)?;
                let identifier = get_u32(buf)?;
                let hops = get_u32(buf)?;
                let best = match get_u8(buf)? {
                    0 => None,
                    1 => {
                        let range = get_range(buf)?;
                        Some((range, get_f64(buf)?))
                    }
                    t => return Err(CodecError::BadTag(t)),
                };
                Ok(ProtoMsg::MatchReply {
                    request,
                    identifier,
                    hops,
                    best,
                })
            }
            2 => Ok(ProtoMsg::StoreAck {
                request: get_u64(buf)?,
                stored: match get_u8(buf)? {
                    0 => false,
                    1 => true,
                    t => return Err(CodecError::BadTag(t)),
                },
            }),
            t => Err(CodecError::BadTag(t)),
        }
    }
}

impl Wire for Payload {
    fn encode<S: Sink>(&self, buf: &mut S) {
        match self {
            Payload::FindMatch {
                request,
                origin,
                range,
            } => {
                put_u8(buf, 0);
                put_u64(buf, *request);
                put_u32(buf, *origin);
                put_range(buf, range);
            }
            // One copy goes as tag 1 with no count, so an unreplicated
            // store keeps its bytes; more copies take tag 3 and a count.
            Payload::Store {
                request,
                origin,
                range,
                copies,
            } => {
                put_u8(buf, if *copies == 1 { 1 } else { 3 });
                put_u64(buf, *request);
                put_u32(buf, *origin);
                put_range(buf, range);
                if *copies != 1 {
                    put_u32(buf, *copies);
                }
            }
            Payload::FindAcross {
                request,
                origin,
                walk,
                read,
            } => {
                put_u8(buf, 2);
                put_u64(buf, *request);
                put_u32(buf, *origin);
                put_range(buf, &read.range);
                put_seq(buf, &read.candidates, |b, &c| put_u32(b, c));
                put_u32(buf, *walk);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let tag = get_u8(buf)?;
        let request = get_u64(buf)?;
        let origin = get_u32(buf)?;
        let range = get_range(buf)?;
        match tag {
            0 => Ok(Payload::FindMatch {
                request,
                origin,
                range,
            }),
            1 => Ok(Payload::Store {
                request,
                origin,
                range,
                copies: 1,
            }),
            2 => {
                let candidates = get_seq(buf, get_u32)?;
                Ok(Payload::FindAcross {
                    request,
                    origin,
                    walk: get_u32(buf)?,
                    read: Box::new(ArcRead { range, candidates }),
                })
            }
            3 => Ok(Payload::Store {
                request,
                origin,
                range,
                copies: get_u32(buf)?,
            }),
            t => Err(CodecError::BadTag(t)),
        }
    }
}

/// A reply collected at the querying peer, surfaced to the driver.
#[derive(Debug)]
struct CollectedReply {
    /// Request id.
    request: u64,
    /// Routing hops to the owner.
    hops: u32,
    /// Best match found in the bucket, if any.
    best: Option<Match>,
    /// Simnet index of the peer that answered.
    replier: usize,
}

/// What a peer has heard back, as the querying peer, since the driver
/// last looked.
#[derive(Debug, Default)]
struct Inbox {
    replies: Vec<CollectedReply>,
    /// Whether any `StoreAck` received reported a new entry.
    stored: bool,
}

/// One peer as a simnet node.
struct PeerNode {
    /// This peer's rank in the ring, which is also its simnet index: the
    /// nodes are built in [`Ring::node_ids`] order.
    rank: usize,
    /// The shared, immutable ring every peer routes with.
    ring: Rc<Ring>,
    storage: Peer,
    matching: MatchMeasure,
    inbox: Inbox,
}

impl PeerNode {
    /// Forward a route envelope one hop, or handle it if we own the key.
    fn route(
        &mut self,
        ctx: &mut NodeCtx<'_, ProtoMsg>,
        key: u32,
        ident: u32,
        hops: u32,
        payload: Payload,
    ) {
        let ids = self.ring.node_ids();
        let predecessor = ids[(self.rank + ids.len() - 1) % ids.len()];
        if Id(key).in_open_closed(predecessor, ids[self.rank]) {
            self.handle_owned(ctx, ident, hops, payload);
            return;
        }
        ctx.send(
            self.ring.next_hop(self.rank, Id(key)),
            ProtoMsg::Route {
                key,
                ident,
                hops: hops + 1,
                payload,
            },
        );
    }

    fn handle_owned(
        &mut self,
        ctx: &mut NodeCtx<'_, ProtoMsg>,
        ident: u32,
        hops: u32,
        payload: Payload,
    ) {
        // `origin` came off the wire: a request whose reply address is no
        // peer of this ring is dropped unexecuted, not sent into the void.
        let (Payload::FindMatch { origin, .. }
        | Payload::Store { origin, .. }
        | Payload::FindAcross { origin, .. }) = &payload;
        if *origin as usize >= self.ring.len() {
            return;
        }
        let reply = |request, best: Option<Match>| ProtoMsg::MatchReply {
            request,
            identifier: ident,
            hops,
            best: best.map(|m| (m.range, m.score)),
        };
        match payload {
            Payload::FindMatch {
                request,
                origin,
                range,
            } => {
                let (best, _) = (self.storage).best_in_buckets(&[ident], &range, self.matching);
                ctx.send(origin as usize, reply(request, best));
            }
            Payload::Store {
                request,
                origin,
                range,
                copies,
            } => {
                // `copies` came off the wire: no peer takes two of them.
                let copies = copies.min(self.ring.len() as u32);
                let forward = (copies > 1).then(|| range.clone());
                let stored = self.storage.store(ident, range);
                ctx.send(origin as usize, ProtoMsg::StoreAck { request, stored });
                if let Some(range) = forward {
                    let payload = Payload::Store {
                        request: request.wrapping_add(1),
                        origin,
                        range,
                        copies: copies - 1,
                    };
                    self.to_successor(ctx, ident, hops, payload);
                }
            }
            Payload::FindAcross {
                request,
                origin,
                walk,
                read,
            } => {
                let (best, _) =
                    (self.storage).best_in_buckets(&read.candidates, &read.range, self.matching);
                ctx.send(origin as usize, reply(request, best));
                // `walk` came off the wire too: no walk visits a peer
                // twice, whatever the bytes say.
                let walk = walk.min(self.ring.len() as u32);
                if walk > 1 {
                    let payload = Payload::FindAcross {
                        request: request.wrapping_add(1),
                        origin,
                        walk: walk - 1,
                        read,
                    };
                    self.to_successor(ctx, ident, hops, payload);
                }
            }
        }
    }

    /// Hand `payload` to this peer's ring successor, one hop over an
    /// existing link.
    fn to_successor(
        &self,
        ctx: &mut NodeCtx<'_, ProtoMsg>,
        ident: u32,
        hops: u32,
        payload: Payload,
    ) {
        let next = (self.rank + 1) % self.ring.len();
        ctx.send(
            next,
            ProtoMsg::Route {
                // Its own position: the successor owns it.
                key: self.ring.node_ids()[next].0,
                ident,
                hops: hops + 1,
                payload,
            },
        );
    }
}

impl Node<ProtoMsg> for PeerNode {
    fn on_message(&mut self, ctx: &mut NodeCtx<'_, ProtoMsg>, from: usize, msg: ProtoMsg) {
        match msg {
            ProtoMsg::Route {
                key,
                ident,
                hops,
                payload,
            } => self.route(ctx, key, ident, hops, payload),
            ProtoMsg::MatchReply {
                request,
                hops,
                best,
                ..
            } => self.inbox.replies.push(CollectedReply {
                request,
                hops,
                best: best.map(|(range, score)| Match { range, score }),
                replier: from,
            }),
            ProtoMsg::StoreAck { stored, .. } => self.inbox.stored |= stored,
        }
    }
}

/// The full query procedure over the message simulator: the peers as
/// simnet nodes, each with the inbox its replies land in, plus the
/// querying side — the global schema (ring, hash groups, config) and the
/// origin / request-id sequences.
pub struct ProtoNetwork {
    net: SimNet<ProtoMsg, PeerNode>,
    ring: Rc<Ring>,
    groups: HashGroups,
    /// The anchor sketch of layered placement ([`anchor_sketch`]).
    anchors: Option<HashGroups>,
    /// Where queries place their identifiers.
    placements: PlacementMemo,
    config: SystemConfig,
    rng: DetRng,
    next_request: u64,
}

impl ProtoNetwork {
    /// Build a message-passing network mirroring
    /// [`crate::RangeSelectNetwork::new`] — identical seed handling, so the
    /// ring, the hash groups and the per-query origin choice line up
    /// exactly with the direct-call rendition.
    pub fn new(n_peers: usize, config: SystemConfig) -> ProtoNetwork {
        let mut rng = DetRng::new(config.seed);
        let mut group_rng = rng.fork();
        let ring_seed = rng.next_u64();
        let ring = Rc::new(Ring::from_seed(n_peers, ring_seed));
        let groups = HashGroups::generate(config.family, config.k, config.l, &mut group_rng);
        let nodes = ring
            .node_ids()
            .iter()
            .enumerate()
            .map(|(rank, &id)| PeerNode {
                rank,
                ring: ring.clone(),
                storage: Peer::new(id, config.use_local_index),
                matching: config.matching,
                inbox: Inbox::default(),
            })
            .collect();
        let mut net = SimNet::new(nodes, 50);
        // Meter wire bytes: the framed binary encoding is what a TCP
        // deployment would move, counted without building the frame.
        net.set_meter(frame_len::<ProtoMsg>);
        ProtoNetwork {
            net,
            ring,
            groups,
            anchors: anchor_sketch(&config),
            placements: PlacementMemo::default(),
            config,
            rng,
            next_request: 0,
        }
    }

    /// Like [`ProtoNetwork::new`] but with an arbitrary seeded
    /// [`FaultPlan`] — drops, duplication, extra delay, node crash and
    /// pause windows — executed by the simulator's fault injector. Under
    /// any plan, queries complete with well-formed (possibly degraded)
    /// outcomes: lost replies read as timeouts, duplicated replies are
    /// deduplicated by request id, and crashed peers simply never answer.
    pub fn new_faulty(
        n_peers: usize,
        config: SystemConfig,
        plan: FaultPlan,
        fault_seed: u64,
    ) -> ProtoNetwork {
        let mut net = ProtoNetwork::new(n_peers, config);
        net.net.set_faults(plan, fault_seed);
        net
    }

    /// The transport's message ledger so far (sent, delivered, dropped,
    /// partitioned, queued, bytes, virtual end time).
    pub fn sim_stats(&self) -> &SimStats {
        self.net.stats()
    }

    /// Wire bytes the protocol has moved so far (framed binary encoding).
    pub fn bytes_sent(&self) -> u64 {
        self.net.stats().bytes
    }

    /// Messages delivered so far (protocol overhead accounting).
    pub fn messages_delivered(&self) -> u64 {
        self.net.stats().delivered
    }

    /// Route `payload` from peer `origin` toward `key`, the ring position
    /// of `ident`.
    fn send(&mut self, origin: usize, ident: u32, key: Id, payload: Payload) {
        self.net.inject(
            origin,
            origin,
            ProtoMsg::Route {
                key: key.0,
                ident,
                hops: 0,
                payload,
            },
        );
    }

    /// Execute one query through the message protocol. Semantically
    /// identical to [`crate::RangeSelectNetwork::query`].
    pub fn query(&mut self, q: &RangeSet) -> QueryOutcome {
        let hashed_range = hashed_range(q, self.config.padding);
        let anchors = self.anchors.as_ref();
        let placed = (self.placements).resolve(&self.config, &self.groups, anchors, &hashed_range);
        let targets = targets(&self.config, &self.groups, anchors, &hashed_range, &placed);
        let origin = self.rng.gen_index(self.ring.len());
        let reply_to = origin as u32;

        // One envelope per planned key. A key that reads one bucket at its
        // owner alone is a `FindMatch`; any other is the arc read, which
        // takes one request id per peer its walk visits. Ids run in
        // planned order, which is the order the replies are folded in.
        let base_request = self.next_request;
        let mut routed: Vec<u64> = Vec::with_capacity(targets.keys.len());
        for key in &targets.keys {
            let candidates = &targets.candidates[key.reads.clone()];
            let walk = key.walk.min(self.ring.len());
            let request = self.next_request;
            routed.push(request);
            self.next_request += walk as u64;
            let payload = match (candidates, walk) {
                ([_], 1) => Payload::FindMatch {
                    request,
                    origin: reply_to,
                    range: hashed_range.clone(),
                },
                _ => Payload::FindAcross {
                    request,
                    origin: reply_to,
                    walk: walk as u32,
                    read: Box::new(ArcRead {
                        range: hashed_range.clone(),
                        candidates: candidates.to_vec(),
                    }),
                },
            };
            self.send(origin, candidates[0], key.position, payload);
        }
        let expected = self.next_request - base_request;
        self.net.run(u64::MAX);

        // Collect the replies for this query. Taking the list, not
        // draining it, leaves no capacity behind in a thousand inboxes.
        let mut replies = std::mem::take(&mut self.net.node_mut(origin).inbox.replies);
        replies.retain(|r| r.request >= base_request);
        replies.sort_by_key(|r| r.request);
        // A duplicating fault plan can deliver the same MatchReply twice;
        // request ids make the extra copies harmless.
        replies.dedup_by_key(|r| r.request);
        // Under a fault plan a missing reply is a timeout (no match);
        // without one it is a protocol violation.
        if !self.net.is_faulty() {
            assert_eq!(
                replies.len() as u64,
                expected,
                "every read must be answered on a lossless transport"
            );
        }
        let mut repliers: Vec<usize> = replies.iter().map(|r| r.replier).collect();
        repliers.sort_unstable();
        repliers.dedup();
        let transport = Transport {
            // The hops of each key's own reply; the walk's are not lookups.
            hops: (replies.iter())
                .filter(|r| routed.contains(&r.request))
                .map(|r| r.hops as usize)
                .collect(),
            attempts: routed.len(),
            peers_contacted: repliers.len(),
            // With every reply lost (possible only under faults), the
            // origin would fall back to fetching from the source relations.
            fell_back_to_source: replies.is_empty(),
            partition_degraded: false,
        };

        // Replies are in request order, so ties resolve as on the
        // direct-call network.
        let mut reads = replies.into_iter().map(|reply| reply.best);
        let verdict = verdict(&hashed_range, &mut reads);

        // Store on miss, one `Store` routed to each planned position; its
        // owner hands it on to the successors that hold the other copies,
        // each acking under one more request id.
        if verdict.store {
            let copies = targets.copies.clamp(1, self.ring.len());
            for &(ident, position) in &targets.stores {
                let payload = Payload::Store {
                    request: self.next_request,
                    origin: reply_to,
                    range: hashed_range.clone(),
                    copies: copies as u32,
                };
                self.next_request += copies as u64;
                self.send(origin, ident, position, payload);
            }
            self.net.run(u64::MAX);
        }
        // As `commit_plan` reports it: some peer newly stored the range. A
        // lost ack reads as not stored, like any timeout.
        let stored = std::mem::take(&mut self.net.node_mut(origin).inbox.stored);
        verdict.finish(q, identifiers_of(&placed), stored, transport)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::place_identifier;
    use ars_simnet::codec::{deframe, frame};

    fn r(lo: u32, hi: u32) -> RangeSet {
        RangeSet::interval(lo, hi)
    }

    #[test]
    fn wire_roundtrip_all_variants() {
        let ack = |stored| ProtoMsg::StoreAck { request: 9, stored };
        let msgs = vec![
            ProtoMsg::Route {
                key: 0xDEAD_BEEF,
                ident: 0xBEEF_DEAD,
                hops: 3,
                payload: Payload::FindMatch {
                    request: 42,
                    origin: 7,
                    range: RangeSet::from_intervals([(30, 50), (60, 70)]),
                },
            },
            ProtoMsg::Route {
                key: 1,
                ident: 2,
                hops: 0,
                payload: Payload::Store {
                    request: 9,
                    origin: 0,
                    range: RangeSet::from_intervals([(0, 0)]),
                    copies: 1,
                },
            },
            ProtoMsg::Route {
                key: 1,
                ident: 2,
                hops: 0,
                payload: Payload::Store {
                    request: 9,
                    origin: 0,
                    range: RangeSet::from_intervals([(0, 0)]),
                    copies: 3,
                },
            },
            ProtoMsg::Route {
                key: 3,
                ident: 4,
                hops: 1,
                payload: Payload::FindAcross {
                    request: 10,
                    origin: 2,
                    walk: 4,
                    read: Box::new(ArcRead {
                        range: RangeSet::from_intervals([(5, 9)]),
                        candidates: vec![4, 0xFFFF_FFFF, 0],
                    }),
                },
            },
            ProtoMsg::MatchReply {
                request: 42,
                identifier: 5,
                hops: 2,
                best: Some((RangeSet::from_intervals([(30, 50)]), 0.75)),
            },
            ProtoMsg::MatchReply {
                request: 43,
                identifier: 6,
                hops: 1,
                best: None,
            },
            ack(true),
            ack(false),
        ];
        for m in msgs {
            let framed = frame(&m);
            let (decoded, rest) = deframe::<ProtoMsg>(&framed).unwrap();
            assert_eq!(decoded, m);
            assert!(rest.is_empty());
        }
    }

    #[test]
    fn wire_rejects_bad_tag() {
        // A one-byte frame holding an unknown message tag.
        assert!(matches!(
            deframe::<ProtoMsg>(&[0, 0, 0, 1, 99]),
            Err(CodecError::BadTag(99))
        ));
        // A StoreAck's `stored` byte is a bool: anything but 0/1 is hostile.
        let mut ack: &[u8] = &[2, 0, 0, 0, 0, 0, 0, 0, 9, 2];
        assert_eq!(ProtoMsg::decode(&mut ack), Err(CodecError::BadTag(2)));
    }

    #[test]
    fn decode_rejects_inverted_interval() {
        // `(9, 3)` is no `RangeSet`, so it is written over a valid frame's
        // bytes; on the wire it is hostile input, and decoding it used to
        // succeed and panic the first peer that built a `RangeSet` from it.
        let marker = 0x5EED_CAFE_u32;
        let bad = RangeSet::from_intervals([(0, 5), (9, marker)]);
        let route = |payload| ProtoMsg::Route {
            key: 1,
            ident: 2,
            hops: 0,
            payload,
        };
        let msgs = [
            route(Payload::FindMatch {
                request: 1,
                origin: 0,
                range: bad.clone(),
            }),
            route(Payload::Store {
                request: 2,
                origin: 0,
                range: bad.clone(),
                copies: 1,
            }),
            route(Payload::Store {
                request: 2,
                origin: 0,
                range: bad.clone(),
                copies: 2,
            }),
            route(Payload::FindAcross {
                request: 5,
                origin: 0,
                walk: 2,
                read: Box::new(ArcRead {
                    range: bad.clone(),
                    candidates: vec![7],
                }),
            }),
            ProtoMsg::MatchReply {
                request: 3,
                identifier: 4,
                hops: 1,
                best: Some((bad, 0.5)),
            },
        ];
        for m in &msgs {
            let mut bytes = frame(m);
            let at = (bytes.windows(4))
                .position(|w| w == marker.to_be_bytes())
                .unwrap();
            bytes[at..at + 4].copy_from_slice(&3u32.to_be_bytes());
            assert_eq!(
                deframe::<ProtoMsg>(&bytes).map(|(msg, _)| msg),
                Err(CodecError::BadLength(6)),
                "{m:?}"
            );
        }
    }

    #[test]
    fn truncated_frames_error_without_panicking() {
        let msgs = [
            ProtoMsg::Route {
                key: 7,
                ident: 8,
                hops: 2,
                payload: Payload::FindMatch {
                    request: 42,
                    origin: 3,
                    range: RangeSet::from_intervals([(30, 50), (60, 70)]),
                },
            },
            ProtoMsg::Route {
                key: 7,
                ident: 8,
                hops: 0,
                payload: Payload::FindAcross {
                    request: 42,
                    origin: 3,
                    walk: 4,
                    read: Box::new(ArcRead {
                        range: r(30, 50),
                        candidates: vec![8, 9, 10],
                    }),
                },
            },
            ProtoMsg::Route {
                key: 7,
                ident: 8,
                hops: 1,
                payload: Payload::Store {
                    request: 42,
                    origin: 3,
                    range: r(30, 50),
                    copies: 2,
                },
            },
            ProtoMsg::MatchReply {
                request: 42,
                identifier: 5,
                hops: 2,
                best: Some((RangeSet::from_intervals([(30, 50)]), 0.75)),
            },
        ];
        for m in &msgs {
            let framed = frame(m);
            for cut in 0..framed.len() {
                // The frame's own length check catches a short buffer...
                assert!(deframe::<ProtoMsg>(&framed[..cut]).is_err());
                // ...and `decode` alone must hold up on a short payload too.
                let mut payload = &framed[4..cut.max(4)];
                assert!(ProtoMsg::decode(&mut payload).is_err(), "prefix {cut}");
            }
        }
    }

    #[test]
    fn request_with_reply_address_outside_the_ring_is_dropped() {
        // `origin` is a u32 off the wire and indexes the peer table: 8 is
        // the first index past an 8-peer ring. Handed to `ctx.send`
        // unchecked, either value panics the simulator.
        let config = SystemConfig::default().with_seed(7);
        let q = r(30, 50);
        for origin in [8u32, 4_000_000_000] {
            for kind in 0..3 {
                let mut net = ProtoNetwork::new(8, config.clone());
                let ident = net.groups.identifiers(&q)[0];
                let (request, range) = (1, q.clone());
                let payload = match kind {
                    0 => Payload::FindMatch {
                        request,
                        origin,
                        range,
                    },
                    1 => Payload::Store {
                        request,
                        origin,
                        range,
                        copies: 2,
                    },
                    _ => Payload::FindAcross {
                        request,
                        origin,
                        walk: 3,
                        read: Box::new(ArcRead {
                            range,
                            candidates: vec![ident],
                        }),
                    },
                };
                let msg = ProtoMsg::Route {
                    key: place_identifier(&config, ident).0,
                    ident,
                    hops: 0,
                    payload,
                };
                // A well-formed frame, as a peer would read it off a socket.
                let (decoded, _) = deframe::<ProtoMsg>(&frame(&msg)).unwrap();
                net.net.inject(0, 0, decoded);
                net.net.run(u64::MAX);
                let stats = net.sim_stats();
                assert!(stats.is_conserved() && stats.queued == 0, "{stats:?}");
                assert!(stats.delivered >= 1, "the envelope reached its owner");
                // Neither answered nor applied.
                for i in 0..8 {
                    let inbox = &net.net.node_mut(i).inbox;
                    assert!(inbox.replies.is_empty() && !inbox.stored);
                }
                let out = net.query(&q);
                assert!(out.best_match.is_none(), "hostile Store was applied");
                assert!(out.stored);
            }
        }
    }

    #[test]
    fn arc_read_with_a_hostile_walk_visits_each_peer_once() {
        // `walk` is a u32 off the wire: whatever it says, the read stops
        // once it has been round the ring, one reply per peer.
        let q = r(30, 50);
        for walk in [0u32, 1, 3, 8, 9, u32::MAX] {
            let mut net = ProtoNetwork::new(8, SystemConfig::default().with_seed(7));
            let msg = ProtoMsg::Route {
                key: 12345,
                ident: 1,
                hops: 0,
                payload: Payload::FindAcross {
                    request: u64::MAX - 1,
                    origin: 2,
                    walk,
                    read: Box::new(ArcRead {
                        range: q.clone(),
                        candidates: vec![1, 2, 3],
                    }),
                },
            };
            net.net.inject(0, 0, msg);
            net.net.run(u64::MAX);
            let visited = walk.clamp(1, 8) as usize;
            let inbox = &net.net.node_mut(2).inbox;
            assert_eq!(inbox.replies.len(), visited, "walk {walk}");
            let mut repliers: Vec<usize> = inbox.replies.iter().map(|r| r.replier).collect();
            repliers.dedup();
            assert_eq!(repliers.len(), visited, "ring successors, each once");
            assert!(net.sim_stats().is_conserved() && net.sim_stats().queued == 0);
        }
    }

    #[test]
    fn store_with_a_hostile_count_writes_each_peer_once() {
        // `copies` is a u32 off the wire: whatever it says, the store stops
        // once it has been round the ring, one ack and one copy per peer.
        let q = r(30, 50);
        for copies in [0u32, 1, 3, 8, 9, u32::MAX] {
            let mut net = ProtoNetwork::new(8, SystemConfig::default().with_seed(7));
            let msg = ProtoMsg::Route {
                key: 12345,
                ident: 1,
                hops: 0,
                payload: Payload::Store {
                    request: u64::MAX - 1,
                    origin: 2,
                    range: q.clone(),
                    copies,
                },
            };
            net.net.inject(0, 0, msg);
            net.net.run(u64::MAX);
            let held = (0..8)
                .filter(|&i| net.net.node_mut(i).storage.bucket(1).is_some())
                .count();
            assert_eq!(held, copies.clamp(1, 8) as usize, "copies {copies}");
            assert!(net.net.node_mut(2).inbox.stored);
            let stats = net.sim_stats();
            assert!(stats.is_conserved() && stats.queued == 0);
        }
    }

    #[test]
    fn layered_query_is_one_arc_read_walking_the_ring() {
        let config = SystemConfig::default()
            .with_seed(3)
            .with_placement_mode(crate::PlacementMode::Layered)
            .with_probes(16);
        let mut net = ProtoNetwork::new(30, config);
        let out = net.query(&r(30, 50));
        assert_eq!((out.hops.len(), out.attempts), (1, 1), "one routed lookup");
        assert_eq!(out.peers_contacted, 4, "the owner and three successors");
        assert!(out.stored);
        // The arc read: the injected Route, one forward per hop, three walk
        // steps, four replies. Then five Stores routed into the arc.
        let read = out.hops[0] as u64 + 1 + 3 + 4;
        assert!(net.messages_delivered() >= read + 5 * 2);
        let again = net.query(&r(30, 50));
        assert!(again.exact && !again.stored);
    }

    #[test]
    fn first_query_misses_then_hits() {
        let mut net = ProtoNetwork::new(20, SystemConfig::default().with_seed(7));
        let out1 = net.query(&r(30, 50));
        assert!(out1.best_match.is_none());
        assert!(out1.stored);
        let out2 = net.query(&r(30, 50));
        assert!(out2.exact);
        assert_eq!(out2.recall, 1.0);
    }

    #[test]
    fn messages_flow_through_overlay() {
        let mut net = ProtoNetwork::new(30, SystemConfig::default().with_seed(3));
        let out = net.query(&r(30, 50));
        assert_eq!(out.hops.len(), 5, "five distinct identifiers");
        // 5 FindMatch routes (multi-hop) + 5 replies + 5 Stores + 5 acks at
        // minimum.
        assert!(net.messages_delivered() >= 20);
        // Every message has a nonzero framed encoding; a query moves at
        // least ~30 bytes per message.
        assert!(net.bytes_sent() >= net.messages_delivered() * 15);
    }

    #[test]
    fn collapsed_identifiers_pay_one_store_chain_each() {
        let mut net = ProtoNetwork::new(30, SystemConfig::default().with_seed(3));
        // Every bit permutation fixes 0, so a range holding 0 min-hashes
        // to 0 under every function and all l identifiers coincide.
        let out = net.query(&r(0, 10));
        assert!(out.stored);
        assert_eq!(out.identifiers.len(), 5);
        assert_eq!(out.hops.len(), 1, "identifiers {:?}", out.identifiers);
        // A chain is the injected Route, one forward per hop, and the
        // reply or ack; the Store retraces the FindMatch's route.
        let chain: u64 = out.hops.iter().map(|&h| h as u64 + 2).sum();
        assert_eq!(net.messages_delivered(), 2 * chain);
    }

    #[test]
    fn lossy_transport_degrades_gracefully() {
        let config = SystemConfig::default().with_seed(21);
        let mut net = ProtoNetwork::new_faulty(30, config, FaultPlan::none().with_drop(0.3), 99);
        let trace_queries: Vec<RangeSet> = (0..60)
            .map(|i| RangeSet::interval(i * 10, i * 10 + 40))
            .collect();
        let mut answered = 0;
        for q in &trace_queries {
            let out = net.query(q);
            if out.best_match.is_some() {
                answered += 1;
            }
        }
        // With 30% loss some messages vanish but the system never wedges.
        assert!(net.sim_stats().dropped > 0, "loss model must fire");
        // Re-queries can still hit when the store messages survived.
        let _ = answered;
        let q = RangeSet::interval(5, 45);
        net.query(&q);
        let again = net.query(&q);
        // No assertion on hit/miss — only that outcomes stay well-formed.
        assert!(again.recall >= 0.0 && again.recall <= 1.0);
    }

    #[test]
    fn lossless_equals_lossy_at_zero_probability() {
        let mut a = ProtoNetwork::new(15, SystemConfig::default().with_seed(4));
        let config = SystemConfig::default().with_seed(4);
        let mut b = ProtoNetwork::new_faulty(15, config, FaultPlan::none().with_drop(0.0), 1);
        for lo in [0u32, 50, 100] {
            let q = RangeSet::interval(lo, lo + 30);
            assert_eq!(a.query(&q).best_match, b.query(&q).best_match);
        }
    }

    #[test]
    fn hops_reported_per_identifier() {
        let mut net = ProtoNetwork::new(50, SystemConfig::default().with_seed(5));
        let out = net.query(&r(10, 20));
        assert_eq!(out.hops.len(), 5);
        for &h in &out.hops {
            assert!(h <= 32, "hop count {h} exceeds Chord bound");
        }
    }
}
