//! The front: consistent-hash dispatch of query batches over replicas.
//!
//! Replicas are interchangeable — each holds a full snapshot and any of
//! them can answer any pair — so the hash ring here is not data
//! placement: it is a deterministic split of a batch by pair. With no
//! cache behind it there is no locality to keep; whether the ring still
//! beats a plain `hash(pair) % r` is for ROADMAP slice 1c to decide.
//! The ring is a **pure function of the replica count and the pair**
//! (no randomness, no connection order), which the wire-equivalence
//! suite relies on: the same query stream hits the same replicas in
//! every run.
//!
//! [`Front::query`] is one loop, the same for every query kind: split
//! the batch's pair indices by ring owner; for each replica with a
//! non-empty share, [`QueryBatch::select`] the share, send it through
//! [`GateClient::query`] (which checks the reply's id, kind and length)
//! and read the reply before the next share goes out; then
//! [`ReplyBatch::gather`] the answers back into the caller's pair
//! order. So a front over N replicas is answer-for-answer identical to
//! one replica, which is answer-for-answer identical to an in-process
//! [`tivserve`] call — and a new query kind needs no edit here.

use crate::client::GateClient;
use delayspace::NodePair;
use std::io;
use std::net::SocketAddr;
use tivserve::query::{QueryBatch, ReplyBatch};

/// SplitMix64: a tiny, well-mixed hash step (the same finalizer the
/// workspace's deterministic RNG seeds with).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A consistent-hash ring over replica indices, with virtual nodes so
/// load stays even at small replica counts.
#[derive(Clone, Debug)]
pub struct HashRing {
    /// `(ring position, replica index)`, sorted by position.
    points: Vec<(u64, usize)>,
    replicas: usize,
}

impl HashRing {
    /// Virtual nodes per replica.
    pub const VNODES: usize = 64;

    /// A ring over `replicas` replicas.
    ///
    /// # Panics
    /// Panics when `replicas` is zero.
    pub fn new(replicas: usize) -> HashRing {
        assert!(replicas >= 1, "a ring needs at least one replica");
        let mut points = Vec::with_capacity(replicas * Self::VNODES);
        for replica in 0..replicas {
            for vnode in 0..Self::VNODES {
                let pos = splitmix64(((replica as u64) << 32) | vnode as u64);
                points.push((pos, replica));
            }
        }
        points.sort_unstable();
        HashRing { points, replicas }
    }

    /// Replicas on the ring.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// The replica owning `pair`: the first ring point at or after the
    /// pair's hash, wrapping at the top.
    pub fn replica_for(&self, pair: (u32, u32)) -> usize {
        let key = splitmix64(((pair.0 as u64) << 32) | pair.1 as u64);
        let idx = self.points.partition_point(|&(pos, _)| pos < key);
        self.points[idx % self.points.len()].1
    }
}

/// A connected front: one [`GateClient`] per replica plus the ring.
#[derive(Debug)]
pub struct Front {
    clients: Vec<GateClient>,
    ring: HashRing,
    next_id: u32,
}

impl Front {
    /// Connects to every replica.
    ///
    /// # Panics
    /// Panics when `addrs` is empty (the ring's contract).
    pub fn connect(addrs: &[SocketAddr]) -> io::Result<Front> {
        let clients = addrs.iter().map(|&a| GateClient::connect(a)).collect::<Result<_, _>>()?;
        Ok(Front { clients, ring: HashRing::new(addrs.len()), next_id: 1 })
    }

    /// Splits `pairs` by ring owner. Returns, per replica, the original
    /// indices it owns — empty vectors for uninvolved replicas.
    fn partition(&self, pairs: &[NodePair]) -> Vec<Vec<usize>> {
        let mut owned: Vec<Vec<usize>> = vec![Vec::new(); self.clients.len()];
        for (i, &(a, c)) in pairs.iter().enumerate() {
            owned[self.ring.replica_for((a as u32, c as u32))].push(i);
        }
        owned
    }

    fn fresh_id(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1).max(1);
        id
    }

    /// Answers one [`QueryBatch`] across the replicas, answers in pair
    /// order. Each replica's share goes through [`GateClient::query`]
    /// and is read back before the next is sent; an empty batch
    /// contacts no replica.
    pub fn query(&mut self, query: &QueryBatch) -> io::Result<ReplyBatch> {
        let mut shares = Vec::with_capacity(self.clients.len());
        for (replica, indices) in self.partition(query.pairs()).into_iter().enumerate() {
            if indices.is_empty() {
                continue;
            }
            let id = self.fresh_id();
            let reply = self.clients[replica]
                .query(id, &query.select(&indices))
                .map_err(|e| io::Error::new(e.kind(), format!("replica {replica}: {e}")))?;
            shares.push((indices, reply));
        }
        Ok(ReplyBatch::gather(query, shares))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_deterministic_and_total() {
        let ring = HashRing::new(4);
        let again = HashRing::new(4);
        for a in 0..32u32 {
            for c in 0..32u32 {
                let r = ring.replica_for((a, c));
                assert!(r < 4);
                assert_eq!(r, again.replica_for((a, c)), "ring must be a pure function");
            }
        }
    }

    #[test]
    fn single_replica_ring_owns_everything() {
        let ring = HashRing::new(1);
        for a in 0..50u32 {
            assert_eq!(ring.replica_for((a, a + 1)), 0);
        }
    }

    #[test]
    fn ring_spreads_load_roughly_evenly() {
        let ring = HashRing::new(4);
        let mut counts = [0usize; 4];
        for a in 0..100u32 {
            for c in 0..100u32 {
                counts[ring.replica_for((a, c))] += 1;
            }
        }
        let total: usize = counts.iter().sum();
        assert_eq!(total, 10_000);
        for (i, &cnt) in counts.iter().enumerate() {
            // 64 vnodes keeps every replica within a loose band of the
            // fair share (2500).
            assert!((1200..=4000).contains(&cnt), "replica {i} owns {cnt}/10000");
        }
    }

    #[test]
    fn growing_the_ring_moves_only_some_keys() {
        let small = HashRing::new(3);
        let big = HashRing::new(4);
        let mut moved = 0usize;
        let mut total = 0usize;
        for a in 0..100u32 {
            for c in 0..100u32 {
                total += 1;
                let before = small.replica_for((a, c));
                let after = big.replica_for((a, c));
                if before != after {
                    moved += 1;
                    // Consistent hashing: keys only move *to* the new
                    // replica, never shuffle between the old ones.
                    assert_eq!(after, 3, "({a},{c}) moved {before}->{after}, not to the new node");
                }
            }
        }
        assert!(moved > 0, "the new replica must take some keys");
        assert!(moved < total / 2, "only a minority of keys may move: {moved}/{total}");
    }

    #[test]
    fn failed_share_leaves_no_stale_frame() {
        use crate::server::{GateConfig, GateServer};
        use crate::testutil::small_service;
        let service = small_service(16);
        let gates: Vec<_> = (0..2)
            .map(|_| GateServer::spawn(service.clone(), GateConfig::default()).expect("spawn"))
            .collect();
        let addrs: Vec<SocketAddr> = gates.iter().map(|g| g.addr()).collect();
        let mut front = Front::connect(&addrs).expect("connect");
        let valid: Vec<NodePair> =
            (0..16).flat_map(|a| [(a, (a + 1) % 16), (a, (a + 5) % 16)]).collect();
        let owners = front.partition(&valid);
        assert!(owners.iter().all(|o| !o.is_empty()), "the batch must reach both replicas");

        let mut bad = valid.clone();
        bad.push((3, 16));
        assert!(front.query(&QueryBatch::Estimate(bad)).is_err(), "an out-of-range pair");
        for query in [QueryBatch::Estimate(valid.clone()), QueryBatch::Route(valid)] {
            assert_eq!(front.query(&query).expect("valid batch"), service.query(&query));
        }
        let empty = front.query(&QueryBatch::Alerts(Vec::new())).expect("empty batch");
        assert_eq!(empty, ReplyBatch::Alerts(Vec::new()));
    }
}
