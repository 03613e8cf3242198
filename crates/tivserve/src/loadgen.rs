//! Closed-loop workload generation and measurement.
//!
//! The generator models application query traffic against the service:
//! node popularity is Zipf-skewed (a few hot sources dominate, the
//! classic web/overlay access pattern — this is also what makes the
//! per-shard LRU caches earn their keep), and a configurable fraction
//! of operations are RTT *observations* streamed to the epoch builder
//! instead of queries. The whole workload is generated up front as a
//! pure function of `(config, matrix)`, so the exact same query stream
//! can be replayed against services with different shard counts — the
//! equivalence tests depend on this.
//!
//! [`run_closed_loop`] then plays the batches back-to-back (closed
//! loop: the next batch is issued only when the previous one
//! completed) and reports throughput and p50/p99 batch latency.
//!
//! The measurement vocabulary is shared across every load path:
//! [`LoadSpec`] describes a workload (shape + pacing) for both this
//! closed loop and `tivgate`'s open-loop socket client, and
//! [`LoadReport`] is the one report core — the `observations ==
//! delivered + undelivered` accounting identity and the percentile
//! arithmetic ([`percentile`]) live here and nowhere else. Mode
//! specific wrappers ([`ClosedLoopReport`], `tivgate::GateLoadReport`,
//! `tivchaos`' chaos report) embed it rather than re-deriving it.

use crate::cache::CacheStats;
use crate::epoch::{FeedSender, Observation};
use crate::service::TivServe;
use delayspace::matrix::{DelayMatrix, NodeId};
use delayspace::rng::{self, DetRng};
use rand::Rng;

/// Workload shape.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadConfig {
    /// Total number of edge queries to issue.
    pub queries: usize,
    /// Operations per batch (the service API is batch-first).
    pub batch: usize,
    /// Zipf exponent of source-node popularity (0 = uniform; ~1 is the
    /// classic web skew).
    pub zipf_s: f64,
    /// Fraction of operations that are RTT observations rather than
    /// queries, in `[0, 1)` (0 = read-only; must stay below 1 so every
    /// batch still contains queries to close the loop on).
    pub observe_frac: f64,
    /// Multiplicative log-normal jitter applied to observed RTTs
    /// (sigma in log space; 0 = report the matrix value exactly).
    pub jitter_sigma: f64,
    /// Workload seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            queries: 10_000,
            batch: 64,
            zipf_s: 0.9,
            observe_frac: 0.1,
            jitter_sigma: 0.05,
            seed: 42,
        }
    }
}

/// A complete load description, shared by every load path: the
/// workload shape plus the pacing discipline. `target_qps == 0` means
/// unpaced — the closed loop always runs unpaced; the open-loop gate
/// client schedules arrivals at `target_qps` when it is positive.
#[derive(Clone, Copy, Debug, Default)]
pub struct LoadSpec {
    /// Shape of the generated query/observation stream.
    pub workload: WorkloadConfig,
    /// Scheduled arrival rate in queries/s (0 = unpaced / closed).
    pub target_qps: f64,
}

impl LoadSpec {
    /// A spec with the given workload and no pacing.
    pub fn unpaced(workload: WorkloadConfig) -> Self {
        LoadSpec { workload, target_qps: 0.0 }
    }

    /// Generates the spec's batches against `matrix` — a pure function
    /// of `(spec.workload, matrix)`, see [`generate`].
    pub fn batches(&self, matrix: &DelayMatrix) -> Vec<QueryBatch> {
        generate(&self.workload, matrix)
    }
}

/// One closed-loop step: a query batch plus the observations drawn in
/// the same window.
#[derive(Clone, Debug)]
pub struct QueryBatch {
    /// Edge queries, in issue order.
    pub pairs: Vec<(NodeId, NodeId)>,
    /// RTT observations to stream to the epoch builder.
    pub observations: Vec<Observation>,
}

/// A Zipf sampler over `0..n` (node id = popularity rank).
#[derive(Clone, Debug)]
pub struct Zipf {
    /// Cumulative weights, normalised to end at 1.
    cum: Vec<f64>,
}

impl Zipf {
    /// A sampler where rank `i` has weight `1 / (i + 1)^s`.
    ///
    /// # Panics
    /// Panics when `n == 0` or `s` is negative or non-finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over zero nodes");
        assert!(s >= 0.0 && s.is_finite(), "bad Zipf exponent {s}");
        let mut cum = Vec::with_capacity(n);
        let mut total = 0.0;
        for i in 0..n {
            total += 1.0 / ((i + 1) as f64).powf(s);
            cum.push(total);
        }
        for c in &mut cum {
            *c /= total;
        }
        Zipf { cum }
    }

    /// Draws one rank.
    pub fn sample(&self, r: &mut DetRng) -> usize {
        let u: f64 = r.gen_range(0.0..1.0);
        // First rank whose cumulative weight covers u.
        self.cum.partition_point(|&c| c <= u).min(self.cum.len() - 1)
    }
}

/// Generates the full closed-loop workload: a pure function of
/// `(cfg, matrix)`. Observation RTTs are the matrix's measured delay
/// with multiplicative jitter; unmeasured pairs fall back to queries,
/// so the observation count can undershoot `observe_frac` slightly on
/// sparse matrices.
pub fn generate(cfg: &WorkloadConfig, matrix: &DelayMatrix) -> Vec<QueryBatch> {
    let n = matrix.len();
    assert!(n >= 2, "workload needs at least two nodes");
    assert!(cfg.batch >= 1, "batch size must be at least 1");
    assert!((0.0..1.0).contains(&cfg.observe_frac), "observe_frac outside [0,1)");
    let zipf = Zipf::new(n, cfg.zipf_s);
    let mut r = rng::sub_rng(cfg.seed, "tivserve/loadgen");
    let mut batches = Vec::new();
    let mut queries_left = cfg.queries;
    while queries_left > 0 {
        let mut pairs = Vec::with_capacity(cfg.batch);
        let mut observations = Vec::new();
        while pairs.len() < cfg.batch.min(queries_left) {
            let src = zipf.sample(&mut r);
            let mut dst = r.gen_range(0..n - 1);
            if dst >= src {
                dst += 1;
            }
            let observe = r.gen_range(0.0..1.0) < cfg.observe_frac;
            match matrix.get(src, dst) {
                Some(d) if observe && d > 0.0 => {
                    let rtt = if cfg.jitter_sigma > 0.0 {
                        rng::lognormal(&mut r, d, cfg.jitter_sigma)
                    } else {
                        d
                    };
                    observations.push(Observation { src, dst, rtt_ms: rtt });
                }
                _ => pairs.push((src, dst)),
            }
        }
        queries_left -= pairs.len();
        batches.push(QueryBatch { pairs, observations });
    }
    batches
}

/// Where a batch's observations go.
pub enum ObservePath<'a> {
    /// Discard them (read-only benchmark runs).
    Drop,
    /// Stream them into a publish engine's feed.
    Channel(&'a FeedSender),
}

/// The latency at quantile `p` (`0.0..=1.0`) of an ascending-sorted
/// sample, by nearest-rank on the closed interval — **the** percentile
/// rule every load path reports with (closed loop, open-loop gate
/// client, chaos harness). Returns 0 for an empty sample.
pub fn percentile(sorted_ascending: &[f64], p: f64) -> f64 {
    if sorted_ascending.is_empty() {
        return 0.0;
    }
    let idx = (p * (sorted_ascending.len() - 1) as f64).round() as usize;
    sorted_ascending[idx]
}

/// The shared measurement core of every load run: counts, the
/// observation-delivery accounting, throughput, and latency
/// percentiles. Mode-specific reports ([`ClosedLoopReport`],
/// `tivgate::GateLoadReport`) embed this rather than re-deriving any
/// of it.
#[derive(Clone, Copy, Debug)]
pub struct LoadReport {
    /// Queries answered.
    pub queries: usize,
    /// Batches issued.
    pub batches: usize,
    /// Observations the workload attempted to stream (or deliberately
    /// dropped via [`ObservePath::Drop`]).
    pub observations: usize,
    /// Observations that could not be delivered to the epoch builder
    /// (its feed was closed — e.g. the builder thread died). Always
    /// 0 in a healthy run; surfaced instead of silently discarded so a
    /// wedged builder cannot masquerade as a fresh one.
    pub observations_undelivered: usize,
    /// Wall-clock seconds of the whole loop.
    pub elapsed_s: f64,
    /// Query throughput, queries per second.
    pub qps: f64,
    /// Median batch latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile batch latency, microseconds.
    pub p99_us: f64,
    /// 99.9th-percentile batch latency, microseconds.
    pub p999_us: f64,
}

impl LoadReport {
    /// Assembles the report core from raw measurements — the one place
    /// throughput and percentiles are computed. `latencies_us` need
    /// not be sorted.
    pub fn from_latencies(
        queries: usize,
        batches: usize,
        observations: usize,
        observations_undelivered: usize,
        elapsed_s: f64,
        mut latencies_us: Vec<f64>,
    ) -> Self {
        latencies_us.sort_by(f64::total_cmp);
        LoadReport {
            queries,
            batches,
            observations,
            observations_undelivered,
            elapsed_s,
            qps: if elapsed_s > 0.0 { queries as f64 / elapsed_s } else { 0.0 },
            p50_us: percentile(&latencies_us, 0.50),
            p99_us: percentile(&latencies_us, 0.99),
            p999_us: percentile(&latencies_us, 0.999),
        }
    }

    /// Observations that actually reached the epoch builder. Together
    /// with [`observations_undelivered`](LoadReport::observations_undelivered)
    /// this partitions the attempt count exactly:
    /// `observations == delivered + undelivered` — the accounting
    /// identity the loadgen tests pin (a wedged builder shows up as a
    /// non-zero undelivered count, never as silent loss).
    pub fn observations_delivered(&self) -> usize {
        self.observations - self.observations_undelivered
    }
}

/// The measured outcome of a closed-loop run: the shared
/// [`LoadReport`] core plus what only an in-process closed loop can
/// see (the served epoch and the service's cache counters).
#[derive(Clone, Copy, Debug)]
pub struct ClosedLoopReport {
    /// The shared measurement core.
    pub load: LoadReport,
    /// Epoch of the last batch's answers.
    pub final_epoch: u64,
    /// Service cache counters at the end of the run.
    pub cache: CacheStats,
}

/// Plays the workload against the service, one batch at a time
/// (closed loop), and measures it.
///
/// Returns the report together with every batch's answers, in order —
/// the answers are what the cross-shard equivalence tests compare.
pub fn run_closed_loop(
    service: &TivServe,
    batches: &[QueryBatch],
    observe: ObservePath<'_>,
) -> (ClosedLoopReport, Vec<Vec<crate::snapshot::EdgeEstimate>>) {
    let mut latencies_us = Vec::with_capacity(batches.len());
    let mut answers = Vec::with_capacity(batches.len());
    let mut queries = 0usize;
    let mut observations = 0usize;
    let mut undelivered = 0usize;
    let mut final_epoch = service.epoch();
    let started = std::time::Instant::now();
    for batch in batches {
        if let ObservePath::Channel(tx) = &observe {
            for &obs in &batch.observations {
                // A closed feed means the builder is gone; count the
                // loss instead of silently discarding it.
                if tx.observe(obs).is_err() {
                    undelivered += 1;
                }
            }
        }
        observations += batch.observations.len();
        let t0 = std::time::Instant::now();
        let got = service.query(&crate::QueryBatch::Estimate(batch.pairs.clone())).into_estimates();
        latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
        queries += got.len();
        if let Some(last) = got.last() {
            final_epoch = last.epoch;
        }
        answers.push(got);
    }
    let elapsed_s = started.elapsed().as_secs_f64();
    let report = ClosedLoopReport {
        load: LoadReport::from_latencies(
            queries,
            batches.len(),
            observations,
            undelivered,
            elapsed_s,
            latencies_us,
        ),
        final_epoch,
        cache: service.cache_stats(),
    };
    (report, answers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::{EpochBuilder, EpochConfig};
    use crate::service::{ServeConfig, TivServe};
    use delayspace::synth::{Dataset, InternetDelaySpace};

    fn ds2(n: usize, seed: u64) -> DelayMatrix {
        InternetDelaySpace::preset(Dataset::Ds2).with_nodes(n).build(seed).into_matrix()
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(100, 1.0);
        let mut r = rng::rng(1);
        let mut counts = vec![0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut r)] += 1;
        }
        assert!(counts.iter().sum::<usize>() == 20_000);
        // Rank 0 should dominate rank 50 heavily under s = 1.
        assert!(
            counts[0] > counts[50] * 5,
            "no skew: rank0 {} vs rank50 {}",
            counts[0],
            counts[50]
        );
    }

    #[test]
    fn zipf_zero_exponent_is_roughly_uniform() {
        let z = Zipf::new(10, 0.0);
        let mut r = rng::rng(2);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            counts[z.sample(&mut r)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((700..1300).contains(&c), "rank {i} count {c} far from uniform");
        }
    }

    #[test]
    fn generate_is_deterministic_and_sized() {
        let m = ds2(50, 3);
        let cfg = WorkloadConfig { queries: 500, batch: 32, ..WorkloadConfig::default() };
        let a = generate(&cfg, &m);
        let b = generate(&cfg, &m);
        let total: usize = a.iter().map(|qb| qb.pairs.len()).sum();
        assert_eq!(total, 500);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.pairs, y.pairs);
            assert_eq!(x.observations, y.observations);
        }
        for qb in &a {
            assert!(qb.pairs.len() <= 32);
            for &(s, d) in &qb.pairs {
                assert!(s != d && s < 50 && d < 50);
            }
            for o in &qb.observations {
                assert!(o.rtt_ms > 0.0 && o.rtt_ms.is_finite());
            }
        }
    }

    #[test]
    fn read_only_workload_has_no_observations() {
        let m = ds2(40, 4);
        let cfg = WorkloadConfig { queries: 200, observe_frac: 0.0, ..WorkloadConfig::default() };
        assert!(generate(&cfg, &m).iter().all(|qb| qb.observations.is_empty()));
    }

    #[test]
    fn observation_accounting_balances_with_a_live_channel() {
        let m = ds2(40, 6);
        let (_, snap) = EpochBuilder::bootstrap(
            m.clone(),
            EpochConfig { bootstrap_rounds: 15, ..EpochConfig::default() },
        );
        let service = TivServe::new(ServeConfig::default(), snap);
        let cfg = WorkloadConfig {
            queries: 300,
            batch: 50,
            observe_frac: 0.3,
            ..WorkloadConfig::default()
        };
        let batches = generate(&cfg, &m);
        let sent: usize = batches.iter().map(|qb| qb.observations.len()).sum();
        assert!(sent > 0, "fixture must actually stream observations");
        let (tx, rx) = FeedSender::channel();
        let (report, _) = run_closed_loop(&service, &batches, ObservePath::Channel(&tx));
        drop(tx);
        let load = report.load;
        assert_eq!(load.observations, sent);
        assert_eq!(load.observations_undelivered, 0, "live channel loses nothing");
        assert_eq!(load.observations_delivered(), sent);
        assert_eq!(
            load.observations,
            load.observations_delivered() + load.observations_undelivered,
            "accounting identity: sent == delivered + undelivered"
        );
        // Every delivered observation is really in the feed.
        assert_eq!(rx.iter().count(), load.observations_delivered());
    }

    #[test]
    fn dead_builder_shows_up_as_undelivered_not_silence() {
        let m = ds2(40, 6);
        let (_, snap) = EpochBuilder::bootstrap(
            m.clone(),
            EpochConfig { bootstrap_rounds: 15, ..EpochConfig::default() },
        );
        let service = TivServe::new(ServeConfig::default(), snap);
        let cfg = WorkloadConfig {
            queries: 300,
            batch: 50,
            observe_frac: 0.3,
            ..WorkloadConfig::default()
        };
        let batches = generate(&cfg, &m);
        // The builder "died": there is no engine behind the feed.
        let tx = FeedSender::disconnected();
        let (report, _) = run_closed_loop(&service, &batches, ObservePath::Channel(&tx));
        let load = report.load;
        assert!(load.observations > 0);
        assert_eq!(
            load.observations_undelivered, load.observations,
            "every attempt against a dead builder is counted as undelivered"
        );
        assert_eq!(load.observations_delivered(), 0);
        // Queries are unaffected by the dead observation path.
        assert_eq!(load.queries, 300);
    }

    #[test]
    fn closed_loop_reports_and_answers() {
        let m = ds2(40, 5);
        let (_, snap) = EpochBuilder::bootstrap(
            m.clone(),
            EpochConfig { bootstrap_rounds: 15, ..EpochConfig::default() },
        );
        let service = TivServe::new(ServeConfig::default(), snap);
        let cfg = WorkloadConfig { queries: 300, batch: 50, ..WorkloadConfig::default() };
        let batches = generate(&cfg, &m);
        let (report, answers) = run_closed_loop(&service, &batches, ObservePath::Drop);
        assert_eq!(report.load.queries, 300);
        assert_eq!(report.load.batches, batches.len());
        assert_eq!(answers.len(), batches.len());
        assert!(report.load.qps > 0.0);
        assert!(report.load.p50_us <= report.load.p99_us);
        assert!(report.load.p99_us <= report.load.p999_us);
        assert_eq!(report.final_epoch, 0);
        assert_eq!(report.cache.hits + report.cache.misses, 300);
    }

    #[test]
    fn percentile_is_nearest_rank_on_the_closed_interval() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        let one = [7.0];
        assert_eq!(percentile(&one, 0.0), 7.0);
        assert_eq!(percentile(&one, 1.0), 7.0);
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.5), 51.0);
        // The shared constructor and a by-hand computation agree.
        let report = LoadReport::from_latencies(100, 100, 0, 0, 1.0, v.clone());
        assert_eq!(report.p50_us, percentile(&v, 0.50));
        assert_eq!(report.p99_us, percentile(&v, 0.99));
        assert_eq!(report.p999_us, percentile(&v, 0.999));
        assert_eq!(report.qps, 100.0);
    }
}
