//! The million-node epoch path: sparse snapshots that never touch n².
//!
//! A full [`EpochSnapshot`](crate::EpochSnapshot) carries an n×n
//! [`DelayMatrix`](delayspace::DelayMatrix) plus a Vivaldi embedding —
//! fine up to tens of thousands of nodes, hopeless at a million (8 TB
//! for the matrix alone). This module is the regime switch: a
//! [`SparseSnapshot`] wraps a [`SparseDelayStore`] (memory proportional
//! to *observed edges*, not n²), a [`SparseEpochBuilder`] folds the
//! same [`Observation`] stream into successive sparse snapshots, and a
//! [`SparseServe`] answers the sampled query kinds — severity with 95%
//! confidence intervals ([`tivcore::estimate_severity_ci`]) and sampled
//! detour search ([`tivroute::sampled_detour`]) — each `O(witnesses)`
//! per pair.
//!
//! The builder implements [`EpochSource`] with
//! `Snapshot = SparseSnapshot`, so the *same* background loop
//! ([`crate::spawn_with`], publishing into [`SparseServe::publish`])
//! that drives the dense builders streams sparse epochs too, with the
//! identical no-loss draining discipline. Dirty tracking reuses [`tivflux::DirtySet`], so an
//! incremental consumer can see which nodes each epoch touched.
//!
//! Determinism carries over unchanged: every answer is a pure function
//! of `(snapshot, query, config)`, seeded by the same per-edge seed
//! fold as the dense path — so on a snapshot whose store holds the same
//! delays as a dense matrix, the sampled severity point is
//! bit-identical to the dense estimate (pinned by this module's tests).

use crate::epoch::{EpochSource, Observation};
use crate::snapshot::{EstimateConfig, ServedSnapshot};
use delayspace::matrix::NodeId;
use delayspace::{DelayStore, NodePair, SparseDelayStore};
use std::sync::{Arc, RwLock};
use tivcore::SeverityEstimate;
use tivflux::DirtySet;
use tivroute::Relay;

/// An immutable sparse epoch: observed edges only, no embedding, no
/// monitors — the things that cost O(n²) or O(n·peers) at scale.
#[derive(Clone, Debug)]
pub struct SparseSnapshot {
    epoch: u64,
    store: SparseDelayStore,
}

impl ServedSnapshot for SparseSnapshot {
    /// Everything a sparse epoch freezes is the store itself — the
    /// sparse side of the one constructor surface
    /// ([`ServedSnapshot::assemble`]) that dense snapshots share, so a
    /// chaos restart rebuilds either kind uniformly.
    type Parts = SparseDelayStore;

    fn assemble(epoch: u64, store: SparseDelayStore) -> Self {
        SparseSnapshot { epoch, store }
    }

    fn into_parts(self) -> (u64, SparseDelayStore) {
        (self.epoch, self.store)
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn node_count(&self) -> usize {
        self.store.len()
    }
}

impl SparseSnapshot {
    /// Wraps a store as the snapshot of `epoch`; routes through
    /// [`ServedSnapshot::assemble`].
    pub fn new(epoch: u64, store: SparseDelayStore) -> Self {
        Self::assemble(epoch, store)
    }

    /// The epoch this snapshot froze.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when the snapshot holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Number of observed (unordered) edges.
    pub fn edge_count(&self) -> usize {
        self.store.edge_count()
    }

    /// Approximate heap footprint — proportional to edges, not n².
    pub fn memory_bytes(&self) -> usize {
        self.store.memory_bytes()
    }

    /// The underlying sparse store.
    pub fn store(&self) -> &SparseDelayStore {
        &self.store
    }

    /// The witness-sampling seed of one unordered edge — the same
    /// `(config seed, epoch, {a, c})` fold as the dense
    /// [`EpochSnapshot`](crate::EpochSnapshot), so a sparse snapshot
    /// over the same delays answers bit-identically.
    fn edge_seed(&self, cfg: &EstimateConfig, a: NodeId, c: NodeId) -> u64 {
        let (lo, hi) = if a < c { (a, c) } else { (c, a) };
        cfg.seed
            ^ self.epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ (((lo as u64) << 32) | hi as u64).wrapping_mul(0xd605_0bb5_1656_57a1)
    }

    /// The sampled severity of `(a, c)` with a 95% confidence interval
    /// at witness budget `k` — `None` for self-pairs and unobserved
    /// edges, mirroring the dense snapshot's gating.
    pub fn sampled_severity(
        &self,
        a: NodeId,
        c: NodeId,
        k: usize,
        cfg: &EstimateConfig,
    ) -> Option<SeverityEstimate> {
        if a == c || self.store.get(a, c).is_none() {
            return None;
        }
        tivcore::estimate_severity_ci(&self.store, a, c, k, self.edge_seed(cfg, a, c))
    }

    /// The best relay among `k` sampled candidates for `(a, c)` —
    /// `None` for self-pairs or when no sampled two-hop path is fully
    /// observed. Seeded per edge like
    /// [`sampled_severity`](Self::sampled_severity).
    pub fn sampled_route(
        &self,
        a: NodeId,
        c: NodeId,
        k: usize,
        cfg: &EstimateConfig,
    ) -> Option<Relay> {
        tivroute::sampled_detour(&self.store, a, c, k, self.edge_seed(cfg, a, c))
    }
}

/// Folds streamed observations into successive [`SparseSnapshot`]s.
///
/// Unlike [`EpochBuilder`](crate::EpochBuilder) there is no embedding
/// step and no per-node monitor state — both are O(n²)-ish luxuries the
/// million-node regime cannot afford. An observation is written
/// straight into the sparse store (last write wins, symmetric), and
/// [`build`](Self::build) freezes the store as the next epoch in
/// O(observed edges).
#[derive(Debug)]
pub struct SparseEpochBuilder {
    store: SparseDelayStore,
    dirty: DirtySet,
    epoch: u64,
    pending: usize,
    ingested_total: u64,
}

impl SparseEpochBuilder {
    /// Bootstraps from an initial store, returning the builder and the
    /// epoch-0 snapshot.
    pub fn bootstrap(store: SparseDelayStore) -> (Self, SparseSnapshot) {
        let snap = SparseSnapshot::new(0, store.clone());
        let n = store.len();
        let builder = SparseEpochBuilder {
            store,
            dirty: DirtySet::new(n),
            epoch: 0,
            pending: 0,
            ingested_total: 0,
        };
        (builder, snap)
    }

    /// The last built (or bootstrap) epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Observations folded in since the last [`build`](Self::build).
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Total observations ever folded in.
    pub fn ingested_total(&self) -> u64 {
        self.ingested_total
    }

    /// Nodes touched since the last build — for incremental consumers.
    pub fn dirty(&self) -> &DirtySet {
        &self.dirty
    }

    /// Folds one observation into the working store. Panics on
    /// out-of-range nodes, self-observations, and non-finite or
    /// non-positive RTTs — the same contract as
    /// [`EpochBuilder::ingest`](crate::EpochBuilder::ingest), minus the
    /// monitor smoothing (the raw last observation wins).
    pub fn ingest(&mut self, obs: Observation) {
        let n = self.store.len();
        assert!(
            obs.src < n && obs.dst < n,
            "observation ({},{}) outside {n} nodes",
            obs.src,
            obs.dst
        );
        assert_ne!(obs.src, obs.dst, "self-observation at node {}", obs.src);
        assert!(
            obs.rtt_ms.is_finite() && obs.rtt_ms > 0.0,
            "observation rtt must be finite and positive, got {}",
            obs.rtt_ms
        );
        self.store.insert(obs.src, obs.dst, obs.rtt_ms);
        self.dirty.mark_edge(obs.src, obs.dst);
        self.pending += 1;
        self.ingested_total += 1;
    }

    /// Freezes the working store as the next epoch's snapshot — an
    /// O(observed edges) clone, never O(n²) — and resets the pending
    /// counter and dirty set.
    pub fn build(&mut self) -> SparseSnapshot {
        self.epoch += 1;
        self.pending = 0;
        self.dirty.clear();
        SparseSnapshot::new(self.epoch, self.store.clone())
    }
}

impl EpochSource for SparseEpochBuilder {
    type Snapshot = SparseSnapshot;
    fn ingest(&mut self, obs: Observation) {
        SparseEpochBuilder::ingest(self, obs);
    }
    fn pending(&self) -> usize {
        SparseEpochBuilder::pending(self)
    }
    fn ingested_total(&self) -> u64 {
        SparseEpochBuilder::ingested_total(self)
    }
    fn build(&mut self) -> SparseSnapshot {
        SparseEpochBuilder::build(self)
    }
}

/// Serves sampled queries against the latest [`SparseSnapshot`].
///
/// The sparse sibling of [`TivServe`](crate::TivServe): readers grab an
/// `Arc` to the current snapshot and never block a publish. There is no
/// shard fan-out or cache — sampled answers are `O(witnesses)` each, so
/// the batch methods run [`tivpar::par_map_rows`] directly (which is
/// bit-identical at any thread count).
pub struct SparseServe {
    current: RwLock<Arc<SparseSnapshot>>,
    cfg: EstimateConfig,
    threads: usize,
}

impl SparseServe {
    /// Creates a service on an initial snapshot. `threads` ≥ 1 workers
    /// answer each batch (1 = serial reference path; answers are
    /// identical either way).
    pub fn new(initial: SparseSnapshot, cfg: EstimateConfig, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one worker thread");
        SparseServe { current: RwLock::new(Arc::new(initial)), cfg, threads }
    }

    /// The currently served snapshot.
    pub fn snapshot(&self) -> Arc<SparseSnapshot> {
        Arc::clone(&self.current.read().expect("snapshot lock poisoned"))
    }

    /// The currently served epoch.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch()
    }

    /// Swaps in a new snapshot; readers holding the old `Arc` finish
    /// undisturbed. Returns the published epoch.
    pub fn publish(&self, snapshot: SparseSnapshot) -> u64 {
        let epoch = snapshot.epoch();
        *self.current.write().expect("snapshot lock poisoned") = Arc::new(snapshot);
        epoch
    }

    /// Sampled severities with confidence intervals for a batch, in
    /// pair order. `witnesses == 0` uses the configured default.
    pub fn sampled_severity_batch(
        &self,
        pairs: &[NodePair],
        witnesses: u32,
    ) -> Vec<Option<SeverityEstimate>> {
        let snap = self.snapshot();
        let k = if witnesses == 0 { self.cfg.severity_witnesses } else { witnesses as usize };
        let cfg = self.cfg;
        self.check_range(&snap, pairs);
        tivpar::par_map_rows(pairs.len(), self.threads, |i| {
            snap.sampled_severity(pairs[i].0, pairs[i].1, k, &cfg)
        })
    }

    /// Best sampled relays for a batch, in pair order.
    pub fn sampled_route_batch(&self, pairs: &[NodePair], witnesses: u32) -> Vec<Option<Relay>> {
        let snap = self.snapshot();
        let k = if witnesses == 0 { self.cfg.severity_witnesses } else { witnesses as usize };
        let cfg = self.cfg;
        self.check_range(&snap, pairs);
        tivpar::par_map_rows(pairs.len(), self.threads, |i| {
            snap.sampled_route(pairs[i].0, pairs[i].1, k, &cfg)
        })
    }

    fn check_range(&self, snap: &SparseSnapshot, pairs: &[NodePair]) {
        let n = snap.len();
        for &(a, c) in pairs {
            assert!(a < n && c < n, "query ({a},{c}) outside the {n}-node snapshot");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::spawn_with;
    use crate::snapshot::EpochSnapshot;
    use delayspace::synth::{Dataset, InternetDelaySpace};
    use delayspace::DelayMatrix;

    fn ds2(n: usize, seed: u64) -> DelayMatrix {
        InternetDelaySpace::preset(Dataset::Ds2).with_nodes(n).build(seed).into_matrix()
    }

    #[test]
    fn sparse_snapshot_matches_dense_bitwise() {
        let m = ds2(40, 3);
        let sparse = SparseSnapshot::new(5, SparseDelayStore::from_matrix(&m));
        let emb = crate::epoch::embed(&m, &crate::EpochConfig::default(), 4, 5);
        let dense = EpochSnapshot::without_monitors(5, m, emb);
        let cfg = EstimateConfig::default();
        for (a, c) in [(0usize, 1usize), (3, 17), (39, 2), (12, 12)] {
            let s = sparse.sampled_severity(a, c, 16, &cfg);
            let d = dense.sampled_severity(a, c, 16, &cfg);
            assert_eq!(s.is_some(), d.is_some());
            if let (Some(s), Some(d)) = (s, d) {
                assert_eq!(s.point.to_bits(), d.point.to_bits());
                assert_eq!(s.ci_lo.to_bits(), d.ci_lo.to_bits());
                assert_eq!(s.ci_hi.to_bits(), d.ci_hi.to_bits());
                assert_eq!(s.sampled, d.sampled);
            }
        }
    }

    #[test]
    fn builder_streams_epochs_without_densifying() {
        let (mut b, snap0) = SparseEpochBuilder::bootstrap(SparseDelayStore::new(1000));
        assert_eq!(snap0.epoch(), 0);
        assert_eq!(snap0.edge_count(), 0);
        b.ingest(Observation { src: 1, dst: 2, rtt_ms: 40.0 });
        b.ingest(Observation { src: 2, dst: 1, rtt_ms: 44.0 });
        b.ingest(Observation { src: 7, dst: 900, rtt_ms: 120.0 });
        assert_eq!(b.pending(), 3);
        assert_eq!(b.dirty().node_count(), 4);
        let snap = b.build();
        assert_eq!(snap.epoch(), 1);
        assert_eq!(b.pending(), 0);
        assert!(b.dirty().is_empty());
        // Last write wins, symmetric.
        assert_eq!(snap.store().get(1, 2), Some(44.0));
        assert_eq!(snap.store().get(900, 7), Some(120.0));
        assert_eq!(snap.edge_count(), 2);
        // Memory is edge-proportional: far below even 1% of n² slots.
        assert!(snap.memory_bytes() < 1000 * 1000 * 8 / 100);
    }

    #[test]
    #[should_panic(expected = "self-observation")]
    fn builder_rejects_self_observations() {
        let (mut b, _) = SparseEpochBuilder::bootstrap(SparseDelayStore::new(10));
        b.ingest(Observation { src: 3, dst: 3, rtt_ms: 1.0 });
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn builder_rejects_bad_rtts() {
        let (mut b, _) = SparseEpochBuilder::bootstrap(SparseDelayStore::new(10));
        b.ingest(Observation { src: 1, dst: 2, rtt_ms: f64::NAN });
    }

    #[test]
    fn serve_publishes_and_answers_deterministically() {
        let m = ds2(30, 9);
        let store = SparseDelayStore::from_matrix(&m);
        let (mut b, snap0) = SparseEpochBuilder::bootstrap(store);
        let serve = SparseServe::new(snap0, EstimateConfig::default(), 2);
        assert_eq!(serve.epoch(), 0);
        b.ingest(Observation { src: 0, dst: 5, rtt_ms: 77.0 });
        serve.publish(b.build());
        assert_eq!(serve.epoch(), 1);
        let pairs: Vec<NodePair> = vec![(0, 5), (1, 2), (3, 3), (4, 29)];
        let a = serve.sampled_severity_batch(&pairs, 8);
        let b2 = serve.sampled_severity_batch(&pairs, 8);
        assert_eq!(a, b2, "answers are pure functions of (snapshot, query, config)");
        assert!(a[2].is_none(), "self-pairs have no severity");
        // The serial path answers identically.
        let serial = SparseServe::new(serve.snapshot().as_ref().clone(), Default::default(), 1);
        assert_eq!(serial.sampled_severity_batch(&pairs, 8), a);
        let r = serve.sampled_route_batch(&pairs, 8);
        assert_eq!(r, serial.sampled_route_batch(&pairs, 8));
    }

    #[test]
    fn background_spawn_drives_the_sparse_sink() {
        let (builder, snap0) = SparseEpochBuilder::bootstrap(SparseDelayStore::new(50));
        let serve = Arc::new(SparseServe::new(snap0, EstimateConfig::default(), 1));
        let sink = Arc::clone(&serve);
        let stream = spawn_with(builder, 4, move |snapshot| {
            sink.publish(snapshot);
        });
        let tx = stream.sender();
        for i in 0..10usize {
            tx.observe(Observation { src: i % 7, dst: 10 + i, rtt_ms: 20.0 + i as f64 }).unwrap();
        }
        drop(tx);
        let builder = stream.join();
        assert_eq!(builder.ingested_total(), 10, "no observation may be lost");
        assert!(serve.epoch() >= 2, "two full epochs plus the tail flush");
        assert_eq!(serve.snapshot().store().get(0, 10), Some(20.0));
    }
}
