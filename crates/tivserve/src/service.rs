//! The sharded, batch-first estimation and routing service.
//!
//! [`TivServe`] answers edge queries (predicted RTT, prediction ratio,
//! sampled severity, TIV alert state) and detour-routing queries (best
//! one-hop relay + predicted saving) from the current
//! [`EpochSnapshot`]. The snapshot lives behind an `Arc` that readers
//! clone and then compute against lock-free; publishing a new epoch
//! swaps the `Arc` without stalling in-flight batches (they finish on
//! the snapshot they started with).
//!
//! Queries are hash-sharded **by the ordered query pair** (hashing the
//! source alone concentrates a Zipf-skewed workload's hot sources on
//! one shard — the load imbalance tivmark's
//! `tivserve.shard_occupancy_max_over_mean` tracks): each shard owns
//! bounded LRU caches of edge and route results, and a batch is fanned
//! across shards with one [`tivpar`] worker per shard. Because every
//! cached value is a pure function of the snapshot (stale epochs are
//! rejected on lookup), [`TivServe::query`] returns **bit-identical
//! results at every shard count** — pinned by `tivoid`'s
//! `serve_equivalence` and `route_equivalence` integration tests.

use crate::cache::{CacheStats, EdgeCache};
use crate::query::{QueryBatch, ReplyBatch};
use crate::snapshot::{EdgeEstimate, EpochSnapshot, EstimateConfig, RouteEstimate};
use delayspace::matrix::NodeId;
use delayspace::NodePair;
use std::sync::{Arc, Mutex, RwLock};
use tivcore::SeverityEstimate;

/// Service construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Number of shards (≥ 1). A batch fans out over one worker per
    /// shard; `1` is the unsharded single-thread reference path.
    pub shards: usize,
    /// Per-shard LRU capacity, in edges, for each query kind (0
    /// disables caching).
    pub cache_capacity: usize,
    /// Batches smaller than this run inline on the calling thread
    /// (visiting each shard's cache in order) instead of spawning one
    /// scoped thread per shard — the same serial gate the `ides`
    /// kernels use, so a warm 64-query batch never pays spawn/join
    /// latency. `0` forces the fan-out path (used by the equivalence
    /// tests). Answers are identical either way.
    pub parallel_threshold: usize,
    /// Per-edge evaluation tuning (witness count, alert threshold,
    /// sampling seed).
    pub estimate: EstimateConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 4,
            cache_capacity: 65_536,
            parallel_threshold: 256,
            estimate: EstimateConfig::default(),
        }
    }
}

/// One shard's caches: every query kind the service answers keeps its
/// own LRU so a route sweep cannot evict the estimate working set.
struct Shard {
    edges: Mutex<EdgeCache<EdgeEstimate>>,
    routes: Mutex<EdgeCache<RouteEstimate>>,
}

/// The concurrent TIV estimation and detour-routing service.
pub struct TivServe {
    cfg: ServeConfig,
    /// The published snapshot. Readers take the lock only long enough
    /// to clone the `Arc` (no allocation, no computation under it);
    /// writers only to swap it. All query work happens lock-free on the
    /// cloned snapshot.
    current: RwLock<Arc<EpochSnapshot>>,
    /// One cache pair per shard. During a batch each shard is visited
    /// by exactly one worker, so these mutexes are uncontended within a
    /// batch; they serialise shard access across concurrent batches.
    shards: Vec<Shard>,
}

impl TivServe {
    /// Starts a service on an initial snapshot.
    ///
    /// # Panics
    /// Panics when `cfg.shards` is zero.
    pub fn new(cfg: ServeConfig, initial: EpochSnapshot) -> Self {
        assert!(cfg.shards >= 1, "a service needs at least one shard");
        let shards = (0..cfg.shards)
            .map(|_| Shard {
                edges: Mutex::new(EdgeCache::new(cfg.cache_capacity)),
                routes: Mutex::new(EdgeCache::new(cfg.cache_capacity)),
            })
            .collect();
        TivServe { cfg, current: RwLock::new(Arc::new(initial)), shards }
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

    /// Publishes a new snapshot, swapping it in atomically and dropping
    /// the shard caches' now-stale entries. In-flight batches keep the
    /// snapshot they started with; their late cache inserts carry the
    /// old epoch and are rejected on lookup, so a publish can never
    /// make a reader mix epochs.
    pub fn publish(&self, snapshot: EpochSnapshot) -> u64 {
        let epoch = snapshot.epoch();
        *self.current.write().expect("snapshot lock poisoned") = Arc::new(snapshot);
        for shard in &self.shards {
            shard.edges.lock().expect("shard cache poisoned").clear();
            shard.routes.lock().expect("shard cache poisoned").clear();
        }
        epoch
    }

    /// The shard owning the ordered query pair `(a, c)`.
    ///
    /// Both endpoints feed the hash: sharding by the source alone sent
    /// every query from a Zipf-hot source to the same shard, collapsing
    /// the fan-out to one effective worker under realistic skew. The
    /// pair hash spreads a hot source's queries across all shards while
    /// keeping repeat queries for the same pair on the same cache
    /// (stable for the service's lifetime — and irrelevant to results,
    /// which depend only on the snapshot).
    pub fn shard_of(&self, a: NodeId, c: NodeId) -> usize {
        let h = (a as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ (c as u64).wrapping_mul(0xd605_0bb5_1656_57a1);
        ((h.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 32) as usize) % self.shards.len()
    }

    /// How many of `pairs` each shard would own — the occupancy
    /// `serve_equivalence` bounds and tivmark reports to show
    /// hot-source workloads stay balanced.
    pub fn shard_histogram(&self, pairs: &[NodePair]) -> Vec<usize> {
        let mut counts = vec![0usize; self.shards.len()];
        for &(a, c) in pairs {
            counts[self.shard_of(a, c)] += 1;
        }
        counts
    }

    /// Answers one shard's query group against one of its caches, in
    /// group order. The answers depend only on the snapshot, never on
    /// which thread runs this.
    fn answer_group<V: Copy>(
        snap: &EpochSnapshot,
        cache: &Mutex<EdgeCache<V>>,
        pairs: &[NodePair],
        group: &[u32],
        eval: &(impl Fn(&EpochSnapshot, NodeId, NodeId) -> V + Sync),
    ) -> Vec<(u32, V)> {
        let mut cache = cache.lock().expect("shard cache poisoned");
        group
            .iter()
            .map(|&idx| {
                let key = pairs[idx as usize];
                let v = match cache.get(key, snap.epoch()) {
                    Some(hit) => hit,
                    None => {
                        let fresh = eval(snap, key.0, key.1);
                        cache.insert(key, snap.epoch(), fresh);
                        fresh
                    }
                };
                (idx, v)
            })
            .collect()
    }

    /// The shared batch path of every query kind: group by shard, fan
    /// out (or run inline below the threshold), scatter back to input
    /// order. `select` picks the query kind's cache off a shard; `eval`
    /// computes a miss from the snapshot.
    ///
    /// # Panics
    /// Panics when a query names a node outside the snapshot.
    fn answer_batch<V: Copy + Send>(
        &self,
        pairs: &[NodePair],
        select: impl Fn(&Shard) -> &Mutex<EdgeCache<V>> + Sync,
        eval: impl Fn(&EpochSnapshot, NodeId, NodeId) -> V + Sync,
    ) -> Vec<V> {
        let snap = self.snapshot();
        let n = snap.len();
        let shard_count = self.shards.len();
        let mut groups: Vec<Vec<u32>> = vec![Vec::new(); shard_count];
        for (idx, &(a, c)) in pairs.iter().enumerate() {
            assert!(a < n && c < n, "query ({a},{c}) outside the {n}-node snapshot");
            groups[self.shard_of(a, c)].push(idx as u32);
        }
        let inline = shard_count == 1
            || (self.cfg.parallel_threshold > 0 && pairs.len() < self.cfg.parallel_threshold);
        let answer = |si: usize| {
            Self::answer_group(&snap, select(&self.shards[si]), pairs, &groups[si], &eval)
        };
        let answered: Vec<Vec<(u32, V)>> = if inline {
            (0..shard_count).map(answer).collect()
        } else {
            tivpar::par_map_rows(shard_count, shard_count, answer)
        };
        let mut out: Vec<Option<V>> = vec![None; pairs.len()];
        for (idx, v) in answered.into_iter().flatten() {
            out[idx as usize] = Some(v);
        }
        out.into_iter().map(|v| v.expect("every query answered by its shard")).collect()
    }

    /// Answers one query batch — the unified surface every query kind
    /// (and every layer above: wire dispatch, front, client) routes
    /// through.
    ///
    /// Queries are grouped by the pair's shard and each group is
    /// answered against the shard's cache for that kind — on one scoped
    /// worker per shard for large batches, inline on the calling thread
    /// below [`ServeConfig::parallel_threshold`] (spawn/join would
    /// dominate a small batch) — and the answers are scattered back to
    /// input positions. Either way the reply equals a serial snapshot
    /// loop, bit for bit, at every shard count (pinned by the
    /// `query_equivalence` and `wire_equivalence` suites).
    ///
    /// # Panics
    /// Panics when a query names a node outside the snapshot.
    pub fn query(&self, batch: &QueryBatch) -> ReplyBatch {
        match batch {
            QueryBatch::Estimate(pairs) => ReplyBatch::Estimate(self.answer_estimates(pairs)),
            QueryBatch::Route(pairs) => ReplyBatch::Route(self.answer_batch(
                pairs,
                |s| &s.routes,
                |snap, a, c| snap.route(a, c),
            )),
            QueryBatch::Severity(pairs) => ReplyBatch::Severity(
                self.answer_estimates(pairs).into_iter().map(|e| e.severity).collect(),
            ),
            QueryBatch::Alerts(pairs) => ReplyBatch::Alerts(
                self.answer_estimates(pairs).into_iter().map(|e| e.alert).collect(),
            ),
            QueryBatch::SampledSeverity { pairs, witnesses } => {
                ReplyBatch::SampledSeverity(self.answer_sampled_severities(pairs, *witnesses))
            }
        }
    }

    /// The estimate kind's batch path (shared by the severity and alert
    /// projections).
    fn answer_estimates(&self, pairs: &[NodePair]) -> Vec<EdgeEstimate> {
        let estimate = self.cfg.estimate;
        self.answer_batch(pairs, |s| &s.edges, move |snap, a, c| snap.evaluate(a, c, &estimate))
    }

    /// The sampled-severity kind: CI estimates at an explicit witness
    /// budget (`0` = the configured default). Uncached — the budget
    /// parameterises the answer, and the per-pair cost is already
    /// `O(witnesses)` — but parallelised and validated like every other
    /// kind, and a pure function of `(snapshot, pairs, witnesses,
    /// config)` regardless of shard or thread count.
    fn answer_sampled_severities(
        &self,
        pairs: &[NodePair],
        witnesses: u32,
    ) -> Vec<Option<SeverityEstimate>> {
        let snap = self.snapshot();
        let n = snap.len();
        for &(a, c) in pairs {
            assert!(a < n && c < n, "query ({a},{c}) outside the {n}-node snapshot");
        }
        let k =
            if witnesses == 0 { self.cfg.estimate.severity_witnesses } else { witnesses as usize };
        let inline = self.shards.len() == 1
            || (self.cfg.parallel_threshold > 0 && pairs.len() < self.cfg.parallel_threshold);
        let threads = if inline { 1 } else { self.shards.len() };
        let estimate = self.cfg.estimate;
        tivpar::par_map_rows(pairs.len(), threads, |i| {
            let (a, c) = pairs[i];
            snap.sampled_severity(a, c, k, &estimate)
        })
    }

    /// Estimate-cache counters summed over all shards.
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            total.absorb(&shard.edges.lock().expect("shard cache poisoned").stats());
        }
        total
    }

    /// Route-cache counters summed over all shards.
    pub fn route_cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            total.absorb(&shard.routes.lock().expect("shard cache poisoned").stats());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let cfg = ServeConfig { shards: 3, ..ServeConfig::default() };
        let estimate = cfg.estimate;
        let service = TivServe::new(cfg, snap.clone());
        let q = queries(60, 300, 9);
        let got = estimates(&service, &q);
        for (i, &(a, c)) in q.iter().enumerate() {
            assert_eq!(got[i], snap.evaluate(a, c, &estimate), "query {i} ({a},{c})");
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
        // And a warm second pass is answered from the route caches.
        let warm = routes(&service, &q);
        assert_eq!(got, warm);
        let stats = service.route_cache_stats();
        assert!(stats.hits >= q.len() as u64, "second pass should be all hits: {stats:?}");
        // Route queries never touch the estimate caches.
        assert_eq!(service.cache_stats().misses, 0);
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
    fn repeated_batches_hit_the_cache_without_changing_answers() {
        let service = TivServe::new(ServeConfig::default(), snapshot(50, 5, 0));
        let q = queries(50, 200, 1);
        let cold = estimates(&service, &q);
        let warm = estimates(&service, &q);
        assert_eq!(cold, warm);
        let stats = service.cache_stats();
        assert!(stats.hits >= q.len() as u64, "second pass should be all hits: {stats:?}");
        assert!(stats.len > 0);
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
    fn shard_routing_is_total_and_pair_sensitive() {
        let service =
            TivServe::new(ServeConfig { shards: 5, ..ServeConfig::default() }, snapshot(30, 1, 0));
        for a in 0..30 {
            for c in 0..30 {
                assert!(service.shard_of(a, c) < 5);
            }
        }
        // A single hot source must spread across shards (the Zipf
        // hot-shard fix): with 29 destinations and 5 shards, every
        // shard should see some of source 0's queries.
        let hot: Vec<_> = (1..30).map(|c| (0usize, c)).collect();
        let hist = service.shard_histogram(&hot);
        assert_eq!(hist.iter().sum::<usize>(), hot.len());
        assert!(
            hist.iter().all(|&count| count > 0),
            "hot source pinned to a shard subset: {hist:?}"
        );
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
