//! Immutable epoch snapshots: the state a query is answered from.
//!
//! The service never answers from mutable state. All reads go through an
//! [`EpochSnapshot`] — a frozen `(delay matrix, embedding, per-node
//! monitor summaries)` triple tagged with an epoch number — shared
//! behind an `Arc` and swapped wholesale when the epoch builder
//! publishes. Everything a snapshot computes is a pure function of the
//! snapshot and the query, which is what makes the sharded service
//! bit-identical to a serial loop (see `service`).

use delayspace::matrix::{DelayMatrix, NodeId};
use std::sync::Arc;
use tivcore::severity::estimate_severity;
use tivcore::MonitorSummary;
use tivflux::DerivedState;
use vivaldi::Embedding;

/// Tuning of the per-edge evaluation.
#[derive(Clone, Copy, Debug)]
pub struct EstimateConfig {
    /// Witnesses sampled by the severity estimator (`k` of
    /// [`tivcore::severity::estimate_severity`]).
    pub severity_witnesses: usize,
    /// Prediction-ratio alarm threshold used when the querying node has
    /// no monitor state for the peer (the paper deploys 0.6).
    pub alert_threshold: f64,
    /// Base seed of the witness sampling. The effective per-edge seed
    /// also folds in the epoch and the (unordered) edge, so estimates
    /// are decorrelated across edges yet a pure function of
    /// `(snapshot, edge, config)`.
    pub seed: u64,
}

impl Default for EstimateConfig {
    fn default() -> Self {
        EstimateConfig { severity_witnesses: 16, alert_threshold: 0.6, seed: 0 }
    }
}

/// The answer of a route query: the best one-hop relay for an
/// ordered pair, resolved against the frozen snapshot.
///
/// `relay`/`via_ms` are present whenever *any* fully-measured two-hop
/// path exists (so a detour can be offered even for an unmeasured
/// direct edge); the saving fields additionally need a measured direct
/// delay to compare against. `saving_ms` is signed — a negative value
/// means the best detour loses to the direct path and the querier
/// should route directly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RouteEstimate {
    /// Epoch of the snapshot that answered.
    pub epoch: u64,
    /// Measured direct delay (ms), when the snapshot has one.
    pub direct_ms: Option<f64>,
    /// The best relay by `(via delay, relay id)` order, when any
    /// two-hop path is measured.
    pub relay: Option<NodeId>,
    /// Detour delay `d(a,relay) + d(relay,c)` in ms.
    pub via_ms: Option<f64>,
    /// `direct - via` in ms (needs both measured).
    pub saving_ms: Option<f64>,
    /// `saving_ms / direct_ms` (`None` when undefined, 0 for a zero
    /// direct delay).
    pub saving_frac: Option<f64>,
}

impl RouteEstimate {
    /// True when the detour strictly beats the measured direct path.
    pub fn beneficial(&self) -> bool {
        self.saving_ms.is_some_and(|s| s > 0.0)
    }
}

/// The edge-level answer the service returns.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgeEstimate {
    /// Epoch of the snapshot that answered.
    pub epoch: u64,
    /// Delay predicted by the embedding (ms).
    pub predicted: f64,
    /// Measured delay, when the snapshot has one.
    pub measured: Option<f64>,
    /// Prediction ratio `predicted / measured` (`None` when unmeasured
    /// or the measurement is zero).
    pub ratio: Option<f64>,
    /// Sampled TIV-severity estimate of the edge (`None` when
    /// unmeasured).
    pub severity: Option<f64>,
    /// TIV alert state: the querying node's hysteresis monitor when it
    /// tracks the peer, else the snapshot-ratio alarm.
    pub alert: bool,
}

/// Anything the serving stack can publish and serve an epoch from:
/// the dense [`EpochSnapshot`] and the million-node
/// [`SparseSnapshot`](crate::sparse::SparseSnapshot).
///
/// The trait is the **one constructor surface** for snapshots: every
/// build path — the classic epoch builder, the incremental flux
/// builder, the sparse builder, and a chaos restart rebuilding a
/// replica from the deployment's retained state — goes through
/// [`assemble`](ServedSnapshot::assemble), so dense and sparse
/// snapshots are constructed (and reconstructed) uniformly.
/// [`into_parts`](ServedSnapshot::into_parts) is the inverse; a
/// round-trip re-tagged with a new epoch is exactly how a restarted
/// replica's state is rebuilt.
pub trait ServedSnapshot: Clone + Send + Sync + 'static {
    /// Everything the snapshot freezes besides the epoch tag.
    type Parts: Send;

    /// Freezes `parts` as the snapshot of `epoch` — the single
    /// validated constructor every build path funnels through.
    fn assemble(epoch: u64, parts: Self::Parts) -> Self;

    /// Splits the snapshot back into its epoch tag and parts.
    fn into_parts(self) -> (u64, Self::Parts);

    /// The epoch this snapshot froze.
    fn epoch(&self) -> u64;

    /// Number of nodes served.
    fn node_count(&self) -> usize;
}

/// The constituent parts of a dense [`EpochSnapshot`] — what
/// [`ServedSnapshot::assemble`] freezes besides the epoch tag.
#[derive(Clone, Debug)]
pub struct DenseParts {
    /// The measured delay matrix.
    pub matrix: DelayMatrix,
    /// The Vivaldi embedding of the matrix.
    pub embedding: Embedding,
    /// `monitors[i]` is node `i`'s exported monitor state, sorted by
    /// peer id (possibly empty).
    pub monitors: Vec<Vec<MonitorSummary>>,
    /// Precomputed O(n³) analyses, when the incremental pipeline
    /// maintains them.
    pub derived: Option<Arc<DerivedState>>,
}

/// A frozen service state: delay matrix + embedding + monitor
/// summaries, tagged with the epoch that produced it.
#[derive(Clone, Debug)]
pub struct EpochSnapshot {
    epoch: u64,
    matrix: DelayMatrix,
    embedding: Embedding,
    /// `monitors[i]` is node `i`'s exported [`TivMonitor`] state,
    /// sorted by peer id (possibly empty).
    monitors: Vec<Vec<MonitorSummary>>,
    /// Precomputed O(n³) analyses (exact severity + detour table) kept
    /// fresh by the incremental epoch pipeline. When present, `route`
    /// answers from the table's rank 0 — bit-identical to the O(n)
    /// scan, O(1) per query — and [`EpochSnapshot::exact_severity`]
    /// serves the exact metric. Snapshots from the classic builder
    /// carry `None` and keep the scan path.
    derived: Option<Arc<DerivedState>>,
}

impl ServedSnapshot for EpochSnapshot {
    type Parts = DenseParts;

    /// Freezes a dense snapshot — the single validated construction
    /// path behind [`EpochSnapshot::new`],
    /// [`EpochSnapshot::without_monitors`] and
    /// [`EpochSnapshot::with_derived`], and the one both the flux
    /// builder and a chaos restart rebuild through.
    ///
    /// # Panics
    /// Panics when the matrix, embedding, monitor table or derived
    /// state disagree on the node count, or when a monitor export is
    /// not sorted by peer.
    fn assemble(epoch: u64, parts: Self::Parts) -> Self {
        let DenseParts { matrix, embedding, monitors, derived } = parts;
        let n = matrix.len();
        assert_eq!(embedding.len(), n, "embedding covers {} of {n} nodes", embedding.len());
        assert_eq!(monitors.len(), n, "monitor table covers {} of {n} nodes", monitors.len());
        for (i, peers) in monitors.iter().enumerate() {
            assert!(
                peers.windows(2).all(|w| w[0].peer < w[1].peer),
                "node {i}: monitor summaries not sorted by peer"
            );
            assert!(peers.iter().all(|s| s.peer < n), "node {i}: summary of unknown peer");
        }
        if let Some(d) = &derived {
            assert_eq!(d.len(), n, "derived state covers {} of {n} nodes", d.len());
        }
        EpochSnapshot { epoch, matrix, embedding, monitors, derived }
    }

    fn into_parts(self) -> (u64, DenseParts) {
        let EpochSnapshot { epoch, matrix, embedding, monitors, derived } = self;
        (epoch, DenseParts { matrix, embedding, monitors, derived })
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn node_count(&self) -> usize {
        self.matrix.len()
    }
}

impl EpochSnapshot {
    /// Freezes a snapshot (no derived state); routes through
    /// [`ServedSnapshot::assemble`].
    ///
    /// # Panics
    /// Panics when the matrix, embedding and monitor table disagree on
    /// the node count, or when a monitor export is not sorted by peer.
    pub fn new(
        epoch: u64,
        matrix: DelayMatrix,
        embedding: Embedding,
        monitors: Vec<Vec<MonitorSummary>>,
    ) -> Self {
        Self::assemble(epoch, DenseParts { matrix, embedding, monitors, derived: None })
    }

    /// Attaches precomputed derived state (the incremental pipeline's
    /// exact severity matrix and detour table). The caller contracts
    /// that the state was computed from **this snapshot's matrix** —
    /// the `FluxBuilder` construction path guarantees it, and the
    /// `flux_equivalence` test pins that table-served answers equal the
    /// scan-served ones. Routes through [`ServedSnapshot::assemble`].
    ///
    /// # Panics
    /// Panics when the derived state covers a different node count.
    pub fn with_derived(self, derived: Arc<DerivedState>) -> Self {
        let (epoch, mut parts) = self.into_parts();
        parts.derived = Some(derived);
        Self::assemble(epoch, parts)
    }

    /// The attached derived state, when the snapshot was built by the
    /// incremental pipeline.
    pub fn derived(&self) -> Option<&DerivedState> {
        self.derived.as_deref()
    }

    /// The exact TIV severity of `(a, c)` from the precomputed severity
    /// matrix; `None` when the snapshot carries no derived state or the
    /// edge is unmeasured. (The sampled estimator behind
    /// [`EpochSnapshot::evaluate`] stays available either way — it
    /// models what a deployed node could measure with `2k` probes.)
    pub fn exact_severity(&self, a: NodeId, c: NodeId) -> Option<f64> {
        self.derived.as_ref()?.severity.severity(a, c)
    }

    /// A snapshot with no monitor state (alerts fall back to the ratio
    /// rule for every edge).
    pub fn without_monitors(epoch: u64, matrix: DelayMatrix, embedding: Embedding) -> Self {
        let n = matrix.len();
        Self::new(epoch, matrix, embedding, vec![Vec::new(); n])
    }

    /// The epoch tag.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of nodes served.
    pub fn len(&self) -> usize {
        self.matrix.len()
    }

    /// True when the snapshot serves no nodes.
    pub fn is_empty(&self) -> bool {
        self.matrix.is_empty()
    }

    /// The frozen delay matrix.
    pub fn matrix(&self) -> &DelayMatrix {
        &self.matrix
    }

    /// The frozen embedding.
    pub fn embedding(&self) -> &Embedding {
        &self.embedding
    }

    /// Node `a`'s monitor summary of `peer`, if `a` tracks it.
    pub fn monitor_summary(&self, a: NodeId, peer: NodeId) -> Option<&MonitorSummary> {
        let peers = &self.monitors[a];
        peers.binary_search_by_key(&peer, |s| s.peer).ok().map(|idx| &peers[idx])
    }

    /// Total alerted `(observer, peer)` monitor entries in the snapshot.
    pub fn alerted_monitor_entries(&self) -> usize {
        self.monitors.iter().flatten().filter(|s| s.alerted).count()
    }

    /// The witness-sampling seed of one unordered edge: a pure function
    /// of `(config seed, epoch, {a, c})`, so estimates are symmetric in
    /// the endpoints and stable for the snapshot's lifetime.
    fn edge_seed(&self, cfg: &EstimateConfig, a: NodeId, c: NodeId) -> u64 {
        let (lo, hi) = if a < c { (a, c) } else { (c, a) };
        cfg.seed
            ^ self.epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ (((lo as u64) << 32) | hi as u64).wrapping_mul(0xd605_0bb5_1656_57a1)
    }

    /// Evaluates one edge query against the frozen state.
    ///
    /// Pure: the result depends only on `(self, a, c, cfg)` — never on
    /// caches, shard layout or thread count — which is the invariant the
    /// sharded service's equivalence tests pin.
    pub fn evaluate(&self, a: NodeId, c: NodeId, cfg: &EstimateConfig) -> EdgeEstimate {
        let predicted = self.embedding.predicted(a, c);
        let measured = self.matrix.get(a, c);
        let ratio = measured.filter(|&d| d > 0.0).map(|d| predicted / d);
        let severity = if measured.is_some() && a != c {
            estimate_severity(&self.matrix, a, c, cfg.severity_witnesses, self.edge_seed(cfg, a, c))
        } else {
            None
        };
        let alert = match self.monitor_summary(a, c) {
            Some(s) => s.alerted,
            None => ratio.is_some_and(|r| r < cfg.alert_threshold),
        };
        EdgeEstimate { epoch: self.epoch, predicted, measured, ratio, severity, alert }
    }

    /// The sampled severity of `(a, c)` with a 95% confidence interval,
    /// at an explicit witness budget `k`.
    ///
    /// Pure in `(self, a, c, k, cfg)` like [`EpochSnapshot::evaluate`],
    /// and seeded by the same per-edge seed — so at
    /// `k == cfg.severity_witnesses` the returned `point` is
    /// bit-identical to the `severity` field of
    /// [`EpochSnapshot::evaluate`]'s answer. `None` for unmeasured
    /// edges and self-pairs, mirroring `evaluate`'s severity gating.
    pub fn sampled_severity(
        &self,
        a: NodeId,
        c: NodeId,
        k: usize,
        cfg: &EstimateConfig,
    ) -> Option<tivcore::SeverityEstimate> {
        if a == c || self.matrix.get(a, c).is_none() {
            return None;
        }
        tivcore::estimate_severity_ci(&self.matrix, a, c, k, self.edge_seed(cfg, a, c))
    }

    /// Evaluates one detour-routing query against the frozen state: the
    /// best one-hop relay of `(a, c)` and its predicted saving.
    ///
    /// Pure in `(self, a, c)` like [`EpochSnapshot::evaluate`] — the
    /// relay search is [`tivroute::best_detour`], whose `(via, relay
    /// id)` ranking is a total order, so the sharded route query stays
    /// bit-identical at every shard count. Snapshots carrying derived
    /// state answer from the detour table's rank 0 instead — exactly
    /// `best_detour`'s answer (pinned by `tivroute`'s
    /// `best_detour_matches_table_rank_zero` and the `flux_equivalence`
    /// integration test), at O(1) per query instead of O(n).
    pub fn route(&self, a: NodeId, c: NodeId) -> RouteEstimate {
        let direct_ms = self.matrix.get(a, c);
        let best = match &self.derived {
            Some(d) => d.detour.best(a, c),
            None => tivroute::best_detour(&self.matrix, a, c),
        };
        match best {
            Some(best) => {
                let saving_ms = direct_ms.map(|d| d - best.via_ms);
                let saving_frac =
                    direct_ms.map(|d| if d > 0.0 { (d - best.via_ms) / d } else { 0.0 });
                RouteEstimate {
                    epoch: self.epoch,
                    direct_ms,
                    relay: Some(best.relay),
                    via_ms: Some(best.via_ms),
                    saving_ms,
                    saving_frac,
                }
            }
            None => RouteEstimate {
                epoch: self.epoch,
                direct_ms,
                relay: None,
                via_ms: None,
                saving_ms: None,
                saving_frac: None,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delayspace::synth::{Dataset, InternetDelaySpace};
    use simnet::net::{JitterModel, Network};
    use tivcore::{MonitorConfig, TivMonitor};
    use vivaldi::{VivaldiConfig, VivaldiSystem};

    fn fixture(n: usize, seed: u64) -> (DelayMatrix, Embedding) {
        let m = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(n).build(seed).into_matrix();
        let mut sys = VivaldiSystem::new(VivaldiConfig::default(), n, seed);
        let mut net = Network::new(&m, JitterModel::None, seed);
        sys.run_rounds(&mut net, 40);
        let emb = sys.embedding();
        (m, emb)
    }

    #[test]
    fn evaluate_is_pure_and_symmetric_in_severity() {
        let (m, emb) = fixture(60, 3);
        let snap = EpochSnapshot::without_monitors(5, m, emb);
        let cfg = EstimateConfig::default();
        let ab = snap.evaluate(7, 21, &cfg);
        assert_eq!(ab, snap.evaluate(7, 21, &cfg), "evaluate must be deterministic");
        let ba = snap.evaluate(21, 7, &cfg);
        // Predicted, measured, ratio and the sampled severity are all
        // symmetric; only the alert may differ (it is observer-local).
        assert_eq!(ab.predicted.to_bits(), ba.predicted.to_bits());
        assert_eq!(ab.measured, ba.measured);
        assert_eq!(ab.severity.map(f64::to_bits), ba.severity.map(f64::to_bits));
        assert_eq!(ab.epoch, 5);
    }

    #[test]
    fn monitor_state_overrides_ratio_alarm() {
        let (m, emb) = fixture(40, 7);
        // Node 0's monitor has peer 1 alerted regardless of the ratio.
        let mut mon = TivMonitor::new(MonitorConfig::default());
        for _ in 0..5 {
            mon.observe(1, 100.0, 10.0);
        }
        let mut monitors = vec![Vec::new(); m.len()];
        monitors[0] = mon.summaries();
        let snap = EpochSnapshot::new(1, m, emb, monitors);
        let cfg = EstimateConfig { alert_threshold: 0.0, ..EstimateConfig::default() };
        // Threshold 0 never alerts by ratio, yet (0, 1) alerts via the
        // monitor; (1, 0) has no monitor state and stays quiet.
        assert!(snap.evaluate(0, 1, &cfg).alert);
        assert!(!snap.evaluate(1, 0, &cfg).alert);
        assert_eq!(snap.alerted_monitor_entries(), 1);
    }

    #[test]
    fn ratio_alarm_fires_without_monitors() {
        let (m, emb) = fixture(50, 11);
        let snap = EpochSnapshot::without_monitors(0, m, emb);
        // An absurdly high threshold alerts every measured edge.
        let cfg = EstimateConfig { alert_threshold: f64::MAX, ..EstimateConfig::default() };
        let est = snap.evaluate(2, 3, &cfg);
        assert_eq!(est.alert, est.ratio.is_some());
    }

    #[test]
    fn edge_seed_changes_with_epoch_and_edge() {
        let (m, emb) = fixture(30, 1);
        let cfg = EstimateConfig::default();
        let a = EpochSnapshot::without_monitors(1, m.clone(), emb.clone());
        let b = EpochSnapshot::without_monitors(2, m, emb);
        assert_ne!(a.edge_seed(&cfg, 1, 2), b.edge_seed(&cfg, 1, 2));
        assert_ne!(a.edge_seed(&cfg, 1, 2), a.edge_seed(&cfg, 1, 3));
        assert_eq!(a.edge_seed(&cfg, 2, 1), a.edge_seed(&cfg, 1, 2));
    }

    #[test]
    fn route_is_pure_symmetric_and_matches_tivroute() {
        let (m, emb) = fixture(50, 9);
        let snap = EpochSnapshot::without_monitors(3, m.clone(), emb);
        for (a, c) in [(0usize, 1usize), (7, 21), (30, 4)] {
            let r = snap.route(a, c);
            assert_eq!(r, snap.route(a, c), "route must be deterministic");
            assert_eq!(r.epoch, 3);
            // Symmetric matrix: the reverse route uses the same relay.
            let rev = snap.route(c, a);
            assert_eq!(r.relay, rev.relay);
            assert_eq!(r.via_ms.map(f64::to_bits), rev.via_ms.map(f64::to_bits));
            // And it is exactly the offline kernel's answer.
            let best = tivroute::best_detour(&m, a, c).unwrap();
            assert_eq!(r.relay, Some(best.relay));
            assert_eq!(r.via_ms, Some(best.via_ms));
            let (d, via) = (r.direct_ms.unwrap(), best.via_ms);
            assert_eq!(r.saving_ms, Some(d - via));
            assert_eq!(r.beneficial(), via < d);
        }
    }

    #[test]
    fn route_handles_missing_and_degenerate_edges() {
        let mut m = DelayMatrix::new(3);
        m.set(0, 1, 5.0);
        m.set(1, 2, 5.0);
        let mut sys = VivaldiSystem::new(VivaldiConfig::default(), 3, 1);
        let mut net = Network::new(&m, JitterModel::None, 1);
        sys.run_rounds(&mut net, 3);
        let snap = EpochSnapshot::without_monitors(0, m, sys.embedding());
        // (0,2) is unmeasured but has a two-hop path: a relay with no
        // saving numbers.
        let r = snap.route(0, 2);
        assert_eq!(r.direct_ms, None);
        assert_eq!(r.relay, Some(1));
        assert_eq!(r.via_ms, Some(10.0));
        assert_eq!(r.saving_ms, None);
        assert!(!r.beneficial());
        // (0,1) is measured but its only relay path crosses the
        // unmeasured (0,2) hop: direct only.
        let r01 = snap.route(0, 1);
        assert_eq!(r01.direct_ms, Some(5.0));
        assert_eq!(r01.relay, None);
        // Self-routes offer nothing.
        let r00 = snap.route(0, 0);
        assert_eq!((r00.relay, r00.direct_ms), (None, Some(0.0)));
    }

    #[test]
    fn derived_route_matches_scan_route_bitwise() {
        let (m, emb) = fixture(60, 13);
        let scan = EpochSnapshot::without_monitors(2, m.clone(), emb.clone());
        let derived = Arc::new(DerivedState::compute(&m, 1, 2));
        let table = EpochSnapshot::without_monitors(2, m.clone(), emb).with_derived(derived);
        for a in 0..60 {
            for c in 0..60 {
                assert_eq!(table.route(a, c), scan.route(a, c), "pair ({a},{c})");
            }
        }
        // Exact severity is served from the derived matrix and agrees
        // with a direct computation.
        let sev = tivcore::severity::Severity::compute(&m, 1);
        for (a, c) in [(0usize, 1usize), (5, 40), (59, 3)] {
            assert_eq!(
                table.exact_severity(a, c).map(f64::to_bits),
                sev.severity(a, c).map(f64::to_bits)
            );
        }
        assert_eq!(scan.exact_severity(0, 1), None, "no derived state, no exact severity");
        assert!(table.derived().is_some());
    }

    #[test]
    #[should_panic(expected = "derived state covers")]
    fn mismatched_derived_state_rejected() {
        let (m, emb) = fixture(30, 2);
        let small = DelayMatrix::from_complete_fn(5, |i, j| (i + j) as f64 + 1.0);
        let derived = Arc::new(DerivedState::compute(&small, 1, 1));
        let _ = EpochSnapshot::without_monitors(0, m, emb).with_derived(derived);
    }

    #[test]
    #[should_panic(expected = "monitor table covers")]
    fn mismatched_monitor_table_rejected() {
        let (m, emb) = fixture(30, 2);
        EpochSnapshot::new(0, m, emb, vec![Vec::new(); 7]);
    }
}
