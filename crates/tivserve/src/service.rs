//! The batch-first estimation and routing service.
//!
//! [`TivServe`] answers edge queries (predicted RTT, prediction ratio,
//! sampled severity, TIV alert state) and detour-routing queries (best
//! one-hop relay + predicted saving) from the current
//! [`EpochSnapshot`]. The snapshot lives behind an `Arc` that readers
//! clone and then compute against lock-free; publishing a new epoch
//! swaps the `Arc` without stalling in-flight batches (they finish on
//! the snapshot they started with).
//!
//! Every query kind takes one path: range-check the pairs, then map
//! the snapshot's pure per-pair function over them with
//! [`tivpar::par_map_rows`] — inline below
//! [`ServeConfig::parallel_threshold`], over [`ServeConfig::shards`]
//! workers above it. `par_map_rows` keeps input order and every answer
//! is a pure function of `(snapshot, pair, config)`, so
//! [`TivServe::query`] returns **bit-identical results at every width**
//! — pinned by `tivoid`'s `serve_equivalence` and `route_equivalence`
//! integration tests.

use crate::query::{QueryBatch, ReplyBatch};
use crate::snapshot::{EpochSnapshot, EstimateConfig};
use delayspace::matrix::NodeId;
use delayspace::NodePair;
use std::mem;
use std::sync::{Arc, RwLock};

/// Service construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Fan-out width (≥ 1): a batch at or above `parallel_threshold`
    /// is answered by up to this many [`tivpar`] workers; `1` is the
    /// single-thread reference path.
    pub shards: usize,
    /// Batches smaller than this run inline on the calling thread — the
    /// same serial gate the `ides` kernels use, so a 64-query batch
    /// never pays the pool's wake-up latency. `0` forces the fan-out
    /// path (used by the equivalence tests). Answers are identical
    /// either way.
    pub parallel_threshold: usize,
    /// Per-edge evaluation tuning (witness count, alert threshold,
    /// sampling seed).
    pub estimate: EstimateConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { shards: 4, parallel_threshold: 256, estimate: EstimateConfig::default() }
    }
}

/// Cache counters, always zero: the service keeps no cache. A stub kept
/// only because tivmark reads it; ROADMAP slice 1b removes it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a cache.
    pub hits: u64,
    /// Lookups that had to evaluate.
    pub misses: u64,
}

/// The witnesses a sampled query draws per pair: the `witnesses` it
/// asks for, or the configured budget when it asks for `0`.
fn witness_budget(witnesses: u32, cfg: &EstimateConfig) -> usize {
    match witnesses {
        0 => cfg.severity_witnesses,
        k => k as usize,
    }
}

/// The one batch path of every query kind: range-check every pair
/// against an `n`-node snapshot, then `eval` each pair over `width`
/// workers, in input order.
///
/// # Panics
/// Panics when a query names a node outside the snapshot.
fn answer<V: Send>(
    n: usize,
    pairs: &[NodePair],
    width: usize,
    eval: impl Fn(NodeId, NodeId) -> V + Sync,
) -> Vec<V> {
    for &(a, c) in pairs {
        assert!(a < n && c < n, "query ({a},{c}) outside the {n}-node snapshot");
    }
    tivpar::par_map_rows(pairs.len(), width, |i| {
        let (a, c) = pairs[i];
        eval(a, c)
    })
}

/// The concurrent TIV estimation and detour-routing service.
pub struct TivServe {
    cfg: ServeConfig,
    /// The published snapshot. Readers take the lock only long enough
    /// to clone the `Arc` (no allocation, no computation under it);
    /// writers only to swap it. All query work happens lock-free on the
    /// cloned snapshot.
    current: RwLock<Arc<EpochSnapshot>>,
}

impl TivServe {
    /// Starts a service on an initial snapshot.
    ///
    /// # Panics
    /// Panics when `cfg.shards` is zero.
    pub fn new(cfg: ServeConfig, initial: EpochSnapshot) -> Self {
        assert!(cfg.shards >= 1, "a service needs at least one shard");
        TivServe { cfg, current: RwLock::new(Arc::new(initial)) }
    }

    /// The construction parameters.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The currently published snapshot.
    pub fn snapshot(&self) -> Arc<EpochSnapshot> {
        self.current.read().expect("snapshot lock poisoned").clone()
    }

    /// Epoch of the currently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch()
    }

    /// Publishes a new snapshot, swapping it in atomically. In-flight
    /// batches keep the snapshot they started with, so a publish can
    /// never make a reader mix epochs. The retired snapshot is dropped
    /// after the lock is released, so no reader waits on its free.
    pub fn publish(&self, snapshot: EpochSnapshot) -> u64 {
        let epoch = snapshot.epoch();
        let next = Arc::new(snapshot);
        let retired = {
            let mut current = self.current.write().expect("snapshot lock poisoned");
            mem::replace(&mut *current, next)
        };
        drop(retired);
        epoch
    }

    /// One bucket holding every pair: the service no longer splits a
    /// batch by pair. A stub kept only because tivmark reads it;
    /// ROADMAP slice 1b removes it.
    pub fn shard_histogram(&self, pairs: &[NodePair]) -> Vec<usize> {
        vec![pairs.len()]
    }

    /// Answers one query batch — the unified surface every query kind
    /// (and every layer above: wire dispatch, front, client) routes
    /// through. The reply equals a serial snapshot loop, bit for bit,
    /// at every width and threshold (pinned by the `query_equivalence`
    /// and `wire_equivalence` suites).
    ///
    /// # Panics
    /// Panics when a query names a node outside the snapshot.
    pub fn query(&self, batch: &QueryBatch) -> ReplyBatch {
        let snap = self.snapshot();
        let n = snap.len();
        let est = &self.cfg.estimate;
        let threshold = self.cfg.parallel_threshold;
        let width = if threshold > 0 && batch.len() < threshold { 1 } else { self.cfg.shards };
        match batch {
            QueryBatch::Estimate(pairs) => {
                ReplyBatch::Estimate(answer(n, pairs, width, |a, c| snap.evaluate(a, c, est)))
            }
            QueryBatch::Route(pairs) => {
                ReplyBatch::Route(answer(n, pairs, width, |a, c| snap.route(a, c)))
            }
            QueryBatch::Severity(pairs) => ReplyBatch::Severity(answer(n, pairs, width, |a, c| {
                snap.evaluate(a, c, est).severity
            })),
            QueryBatch::Alerts(pairs) => {
                ReplyBatch::Alerts(answer(n, pairs, width, |a, c| snap.evaluate(a, c, est).alert))
            }
            QueryBatch::SampledSeverity { pairs, witnesses } => {
                let k = witness_budget(*witnesses, est);
                ReplyBatch::SampledSeverity(answer(n, pairs, width, |a, c| {
                    snap.sampled_severity(a, c, k, est)
                }))
            }
        }
    }

    /// Always zero: the service keeps no estimate cache. A stub kept
    /// only because tivmark reads it; ROADMAP slice 1b removes it.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }

    /// Always zero: the service keeps no route cache. A stub kept only
    /// because tivmark reads it; ROADMAP slice 1b removes it.
    pub fn route_cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{EdgeEstimate, RouteEstimate};
    use delayspace::matrix::DelayMatrix;
    use delayspace::synth::{Dataset, InternetDelaySpace};
    use simnet::net::{JitterModel, Network};
    use vivaldi::{VivaldiConfig, VivaldiSystem};

    fn snapshot(n: usize, seed: u64, epoch: u64) -> EpochSnapshot {
        let m = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(n).build(seed).into_matrix();
        let mut sys = VivaldiSystem::new(VivaldiConfig::default(), n, seed);
        let mut net = Network::new(&m, JitterModel::None, seed);
        sys.run_rounds(&mut net, 40);
        let emb = sys.embedding();
        EpochSnapshot::without_monitors(epoch, m, emb)
    }

    fn estimates(service: &TivServe, pairs: &[NodePair]) -> Vec<EdgeEstimate> {
        service.query(&QueryBatch::Estimate(pairs.to_vec())).into_estimates()
    }

    fn routes(service: &TivServe, pairs: &[NodePair]) -> Vec<RouteEstimate> {
        service.query(&QueryBatch::Route(pairs.to_vec())).into_routes()
    }

    fn queries(n: usize, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
        use rand::Rng;
        let mut r = delayspace::rng::rng(seed);
        (0..count)
            .map(|_| {
                let a = r.gen_range(0..n);
                let mut c = r.gen_range(0..n);
                while c == a {
                    c = r.gen_range(0..n);
                }
                (a, c)
            })
            .collect()
    }

    #[test]
    fn batch_matches_serial_evaluate() {
        let snap = snapshot(60, 3, 0);
        let q = queries(60, 300, 9);
        let estimate = ServeConfig::default().estimate;
        let evaluated: Vec<_> = q.iter().map(|&(a, c)| snap.evaluate(a, c, &estimate)).collect();
        let sampled =
            |k: usize| q.iter().map(|&(a, c)| snap.sampled_severity(a, c, k, &estimate)).collect();
        // Every kind next to the bare snapshot loop it must equal.
        let cases = [
            (QueryBatch::Estimate(q.clone()), ReplyBatch::Estimate(evaluated.clone())),
            (
                QueryBatch::Route(q.clone()),
                ReplyBatch::Route(q.iter().map(|&(a, c)| snap.route(a, c)).collect()),
            ),
            (
                QueryBatch::Severity(q.clone()),
                ReplyBatch::Severity(evaluated.iter().map(|e| e.severity).collect()),
            ),
            (
                QueryBatch::Alerts(q.clone()),
                ReplyBatch::Alerts(evaluated.iter().map(|e| e.alert).collect()),
            ),
            (
                QueryBatch::SampledSeverity { pairs: q.clone(), witnesses: 0 },
                ReplyBatch::SampledSeverity(sampled(estimate.severity_witnesses)),
            ),
            (
                QueryBatch::SampledSeverity { pairs: q.clone(), witnesses: 24 },
                ReplyBatch::SampledSeverity(sampled(24)),
            ),
        ];
        for shards in [1, 2, 4, 7] {
            for parallel_threshold in [0, usize::MAX] {
                let cfg = ServeConfig { shards, parallel_threshold, ..ServeConfig::default() };
                let service = TivServe::new(cfg, snap.clone());
                for (query, serial) in &cases {
                    // `{:?}` prints every f64 in its shortest round-trip
                    // form, so equal text is equal bits (-0.0 included).
                    assert_eq!(
                        format!("{:?}", service.query(query)),
                        format!("{serial:?}"),
                        "{shards} shards, threshold {parallel_threshold}, {query:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn route_batch_matches_serial_route() {
        let snap = snapshot(60, 3, 0);
        let service =
            TivServe::new(ServeConfig { shards: 3, ..ServeConfig::default() }, snap.clone());
        let q = queries(60, 300, 9);
        let got = routes(&service, &q);
        for (i, &(a, c)) in q.iter().enumerate() {
            assert_eq!(got[i], snap.route(a, c), "route query {i} ({a},{c})");
        }
        let warm = routes(&service, &q);
        assert_eq!(got, warm);
    }

    #[test]
    fn inline_gate_matches_fanout_path() {
        let snap = snapshot(50, 11, 0);
        // Same service config except the gate: one always inline, one
        // always fanned out.
        let inline = TivServe::new(
            ServeConfig { shards: 4, parallel_threshold: usize::MAX, ..ServeConfig::default() },
            snap.clone(),
        );
        let fanout = TivServe::new(
            ServeConfig { shards: 4, parallel_threshold: 0, ..ServeConfig::default() },
            snap,
        );
        let q = queries(50, 120, 5);
        assert_eq!(estimates(&inline, &q), estimates(&fanout, &q));
        assert_eq!(routes(&inline, &q), routes(&fanout, &q));
    }

    #[test]
    fn projections_agree_with_estimates() {
        let service = TivServe::new(ServeConfig::default(), snapshot(40, 7, 0));
        let q = queries(40, 80, 2);
        let full = estimates(&service, &q);
        assert_eq!(
            service.query(&QueryBatch::Severity(q.clone())),
            ReplyBatch::Severity(full.iter().map(|e| e.severity).collect())
        );
        assert_eq!(
            service.query(&QueryBatch::Alerts(q)),
            ReplyBatch::Alerts(full.iter().map(|e| e.alert).collect())
        );
    }

    #[test]
    fn publish_swaps_epoch_and_invalidates_cache() {
        let service = TivServe::new(ServeConfig::default(), snapshot(40, 7, 0));
        let q = queries(40, 50, 3);
        let before = estimates(&service, &q);
        let routes_before = routes(&service, &q);
        assert!(before.iter().all(|e| e.epoch == 0));
        assert!(routes_before.iter().all(|r| r.epoch == 0));
        // Publish a different snapshot (new seed → new matrix).
        service.publish(snapshot(40, 8, 1));
        assert_eq!(service.epoch(), 1);
        let after = estimates(&service, &q);
        assert!(after.iter().all(|e| e.epoch == 1));
        assert_ne!(before, after, "a new epoch should change answers");
        let routes_after = routes(&service, &q);
        assert!(routes_after.iter().all(|r| r.epoch == 1));
    }

    #[test]
    fn readers_survive_concurrent_publishes() {
        let service = Arc::new(TivServe::new(ServeConfig::default(), snapshot(40, 9, 0)));
        let q = queries(40, 40, 4);
        std::thread::scope(|scope| {
            let svc = Arc::clone(&service);
            let qs = q.clone();
            let reader = scope.spawn(move || {
                for _ in 0..30 {
                    let got = estimates(&svc, &qs);
                    // Every answer in one batch comes from one snapshot.
                    let epoch = got[0].epoch;
                    assert!(got.iter().all(|e| e.epoch == epoch), "mixed epochs in a batch");
                }
            });
            for e in 1..6 {
                service.publish(snapshot(40, 9 + e, e));
            }
            reader.join().expect("reader panicked");
        });
    }

    #[test]
    #[should_panic(expected = "outside the")]
    fn out_of_range_query_rejected() {
        let service = TivServe::new(ServeConfig::default(), snapshot(10, 1, 0));
        let _ = estimates(&service, &[(0, 10)]);
    }

    #[test]
    #[should_panic(expected = "outside the")]
    fn out_of_range_route_rejected() {
        let service = TivServe::new(ServeConfig::default(), snapshot(10, 1, 0));
        let _ = routes(&service, &[(0, 10)]);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let m = DelayMatrix::from_complete_fn(4, |i, j| (i + j) as f64 + 1.0);
        let mut sys = VivaldiSystem::new(VivaldiConfig::default(), 4, 1);
        let mut net = Network::new(&m, JitterModel::None, 1);
        sys.run_rounds(&mut net, 5);
        let snap = EpochSnapshot::without_monitors(0, m, sys.embedding());
        TivServe::new(ServeConfig { shards: 0, ..ServeConfig::default() }, snap);
    }
}
