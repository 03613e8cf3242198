//! Workload generation and the one percentile rule.
//!
//! The generator models application query traffic against the service:
//! node popularity is Zipf-skewed (a few hot sources dominate, the
//! classic web/overlay access pattern), and a configurable fraction
//! of operations are RTT *observations* streamed to the epoch builder
//! instead of queries. The whole workload is generated up front as a
//! pure function of `(config, matrix)`, so the exact same query stream
//! can be replayed against services with different shard counts — the
//! equivalence tests depend on this.
//!
//! Nothing here times the service: tivmark's `tivserve.*` layer and
//! its wire workloads do. [`generate`] feeds those workloads, the
//! equivalence suites and the `tivchaos` harness; [`percentile`] is
//! the one percentile rule every reported quantile uses.

use crate::epoch::Observation;
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

/// The latency at quantile `p` (`0.0..=1.0`) of an ascending-sorted
/// sample, by nearest-rank on the closed interval — **the** percentile
/// rule every reported quantile uses (tivmark, the `tivchaos` apps).
/// Returns 0 for an empty sample.
pub fn percentile(sorted_ascending: &[f64], p: f64) -> f64 {
    if sorted_ascending.is_empty() {
        return 0.0;
    }
    let idx = (p * (sorted_ascending.len() - 1) as f64).round() as usize;
    sorted_ascending[idx]
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn percentile_is_nearest_rank_on_the_closed_interval() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        let one = [7.0];
        assert_eq!(percentile(&one, 0.0), 7.0);
        assert_eq!(percentile(&one, 1.0), 7.0);
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.5), 51.0);
    }
}
