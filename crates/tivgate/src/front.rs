//! The front: consistent-hash dispatch of query batches over replicas.
//!
//! Replicas are interchangeable — each holds a full snapshot and any of
//! them can answer any pair — so the hash ring here is about cache
//! locality, not data placement: routing a given `(a, c)` pair to the
//! same replica every time keeps that replica's shard LRUs hot for it.
//! The ring is a **pure function of the replica count and the pair**
//! (no randomness, no connection order), which the wire-equivalence
//! suite relies on: the same query stream hits the same replicas in
//! every run.
//!
//! [`Front::query`] splits a batch by ring owner, sends one
//! sub-request per involved replica, and reassembles the answers in
//! the caller's original pair order — so a front over N replicas is
//! answer-for-answer identical to one replica, which is
//! answer-for-answer identical to an in-process [`tivserve`] call.

use crate::client::GateClient;
use crate::proto::{to_wire_pairs, Request, Response};
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

    /// The ring, for callers partitioning work themselves (the load
    /// generator pre-splits batches with it).
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Splits `pairs` by ring owner. Returns, per replica, the original
    /// indices it owns — empty vectors for uninvolved replicas.
    fn partition(&self, pairs: &[(u32, u32)]) -> Vec<Vec<usize>> {
        let mut owned: Vec<Vec<usize>> = vec![Vec::new(); self.clients.len()];
        for (i, &pair) in pairs.iter().enumerate() {
            owned[self.ring.replica_for(pair)].push(i);
        }
        owned
    }

    fn fresh_id(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1).max(1);
        id
    }

    /// Scatter/gather over the replicas for one request kind: sends the
    /// owned sub-batch to each involved replica, reassembles answers in
    /// original pair order.
    fn scatter<T>(
        &mut self,
        pairs: &[(u32, u32)],
        make: impl Fn(u32, Vec<(u32, u32)>) -> Request,
        extract: impl Fn(Response) -> io::Result<Vec<T>>,
    ) -> io::Result<Vec<T>> {
        let owned = self.partition(pairs);
        let mut slots: Vec<Option<T>> = Vec::with_capacity(pairs.len());
        slots.resize_with(pairs.len(), || None);
        for (replica, indices) in owned.into_iter().enumerate() {
            if indices.is_empty() {
                continue;
            }
            let sub: Vec<(u32, u32)> = indices.iter().map(|&i| pairs[i]).collect();
            let id = self.fresh_id();
            let resp = self.clients[replica].call(&make(id, sub))?;
            if resp.id() != id {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("replica {replica} echoed id {} for request {id}", resp.id()),
                ));
            }
            let items = extract(resp)?;
            if items.len() != indices.len() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "replica {replica} answered {} items for {} pairs",
                        items.len(),
                        indices.len()
                    ),
                ));
            }
            for (slot, item) in indices.into_iter().zip(items) {
                slots[slot] = Some(item);
            }
        }
        Ok(slots.into_iter().map(|s| s.expect("every pair answered")).collect())
    }

    /// Answers one [`QueryBatch`] across the replicas, answers in pair
    /// order.
    pub fn query(&mut self, query: &QueryBatch) -> io::Result<ReplyBatch> {
        let wire = to_wire_pairs(query.pairs());
        match query {
            QueryBatch::Estimate(_) => self
                .scatter(
                    &wire,
                    |id, pairs| Request::Estimate { id, pairs },
                    |resp| match resp {
                        Response::Estimate { items, .. } => Ok(items),
                        other => Err(unexpected(other)),
                    },
                )
                .map(ReplyBatch::Estimate),
            QueryBatch::Route(_) => self
                .scatter(
                    &wire,
                    |id, pairs| Request::Route { id, pairs },
                    |resp| match resp {
                        Response::Route { items, .. } => Ok(items),
                        other => Err(unexpected(other)),
                    },
                )
                .map(ReplyBatch::Route),
            QueryBatch::Severity(_) => self
                .scatter(
                    &wire,
                    |id, pairs| Request::Severity { id, pairs },
                    |resp| match resp {
                        Response::Severity { items, .. } => Ok(items),
                        other => Err(unexpected(other)),
                    },
                )
                .map(ReplyBatch::Severity),
            QueryBatch::Alerts(_) => self
                .scatter(
                    &wire,
                    |id, pairs| Request::Alerts { id, pairs },
                    |resp| match resp {
                        Response::Alerts { items, .. } => Ok(items),
                        other => Err(unexpected(other)),
                    },
                )
                .map(ReplyBatch::Alerts),
            QueryBatch::SampledSeverity { witnesses, .. } => {
                let witnesses = *witnesses;
                self.scatter(
                    &wire,
                    move |id, pairs| Request::SampledSeverity { id, witnesses, pairs },
                    |resp| match resp {
                        Response::SampledSeverity { items, .. } => Ok(items),
                        other => Err(unexpected(other)),
                    },
                )
                .map(ReplyBatch::SampledSeverity)
            }
        }
    }

    /// Pings every replica, returning `(epoch, nodes)` per replica.
    pub fn ping_all(&mut self) -> io::Result<Vec<(u64, u32)>> {
        let mut out = Vec::with_capacity(self.clients.len());
        for i in 0..self.clients.len() {
            let id = self.fresh_id();
            match self.clients[i].call(&Request::Ping { id })? {
                Response::Pong { epoch, nodes, .. } => out.push((epoch, nodes)),
                other => return Err(unexpected(other)),
            }
        }
        Ok(out)
    }
}

fn unexpected(resp: Response) -> io::Error {
    let detail = match resp {
        Response::Error { code, message, .. } => format!("error frame [{code}]: {message}"),
        other => format!("unexpected response kind for id {}", other.id()),
    };
    io::Error::new(io::ErrorKind::InvalidData, detail)
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
}
