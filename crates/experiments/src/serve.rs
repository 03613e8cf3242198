//! The construction path the serve, query and route equivalence
//! suites share: a synthetic DS²-style delay space, a bootstrapped
//! epoch builder, and a [`TivServe`] over its first snapshot, all a
//! pure function of [`ServeOptions`] and the fan-out width.
//!
//! Serving is timed from outside the program, by tivmark's
//! `tivserve.*` layer and its wire workloads; this module only builds.

use delayspace::matrix::DelayMatrix;
use delayspace::synth::{Dataset, InternetDelaySpace};
use tivserve::epoch::EpochConfig;
use tivserve::flux::FluxBuilder;
use tivserve::loadgen::WorkloadConfig;
use tivserve::service::{ServeConfig, TivServe};
use tivserve::snapshot::EstimateConfig;

/// Everything a built service and its workload depend on.
#[derive(Clone, Copy, Debug)]
pub struct ServeOptions {
    /// Nodes in the synthetic DS²-style delay space.
    pub nodes: usize,
    /// Total edge queries of the workload.
    pub queries: usize,
    /// Operations per batch.
    pub batch: usize,
    /// Zipf exponent of source-node popularity.
    pub zipf_s: f64,
    /// Fraction of operations that are RTT observations, in `[0, 1)`.
    pub observe_frac: f64,
    /// Witnesses sampled per severity estimate.
    pub witnesses: usize,
    /// Batches below this many queries run inline instead of fanning
    /// out over the shard workers (0 forces the fan-out path — the
    /// equivalence tests use this to exercise the parallel code).
    pub parallel_threshold: usize,
    /// Master seed (space, embedding, workload).
    pub seed: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            nodes: 1024,
            queries: 10_000,
            batch: 64,
            zipf_s: 0.9,
            observe_frac: 0.1,
            witnesses: 16,
            parallel_threshold: 256,
            seed: 42,
        }
    }
}

impl ServeOptions {
    /// The epoch-builder configuration these options imply.
    pub fn epoch_config(&self) -> EpochConfig {
        EpochConfig { seed: self.seed, ..EpochConfig::default() }
    }

    /// The service configuration these options imply.
    pub fn serve_config(&self, shards: usize) -> ServeConfig {
        ServeConfig {
            shards,
            parallel_threshold: self.parallel_threshold,
            estimate: EstimateConfig {
                severity_witnesses: self.witnesses,
                seed: self.seed,
                ..EstimateConfig::default()
            },
        }
    }

    /// The workload these options imply.
    pub fn workload(&self) -> WorkloadConfig {
        WorkloadConfig {
            queries: self.queries,
            batch: self.batch,
            zipf_s: self.zipf_s,
            observe_frac: self.observe_frac,
            jitter_sigma: 0.05,
            seed: self.seed,
        }
    }
}

/// Builds the synthetic delay space, bootstraps the epoch builder, and
/// starts a service with `shards` shards. The matrix is returned so
/// callers can generate workloads against it. Pure in `(opts, shards)`
/// — the equivalence tests rely on services built here differing only
/// in shard count.
pub fn build_service(opts: &ServeOptions, shards: usize) -> (TivServe, FluxBuilder, DelayMatrix) {
    let matrix = InternetDelaySpace::preset(Dataset::Ds2)
        .with_nodes(opts.nodes)
        .build(opts.seed)
        .into_matrix();
    let (builder, snapshot) = FluxBuilder::bootstrap(matrix.clone(), opts.epoch_config());
    let service = TivServe::new(opts.serve_config(shards), snapshot);
    (service, builder, matrix)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_service_is_shard_agnostic_in_state() {
        let opts = ServeOptions { nodes: 60, ..ServeOptions::default() };
        let (s1, _, m1) = build_service(&opts, 1);
        let (s4, _, m4) = build_service(&opts, 4);
        assert_eq!(m1, m4);
        assert_eq!(s1.snapshot().epoch(), s4.snapshot().epoch());
        // Same frozen coordinates regardless of shard count.
        assert_eq!(
            s1.snapshot().embedding().predicted(0, 1).to_bits(),
            s4.snapshot().embedding().predicted(0, 1).to_bits()
        );
    }
}
