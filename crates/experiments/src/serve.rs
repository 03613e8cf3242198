//! The `repro serve` experiment: drive the sharded estimation service
//! against a synthetic DS²-style delay space with a closed-loop,
//! Zipf-skewed workload, and report throughput and latency.
//!
//! The heavy lifting lives in [`tivserve`]; this module is the glue
//! that the `repro` binary's `serve` subcommand and the cross-shard
//! equivalence tests share, so the CLI and the tests exercise exactly
//! the same construction path.

use delayspace::matrix::DelayMatrix;
use delayspace::synth::{Dataset, InternetDelaySpace};
use std::fmt;
use std::sync::Arc;
use tivserve::epoch::{spawn_with, EpochBuilder, EpochConfig};
use tivserve::loadgen::{self, ClosedLoopReport, ObservePath, WorkloadConfig};
use tivserve::service::{ServeConfig, TivServe};
use tivserve::snapshot::EstimateConfig;

/// Everything the `serve` subcommand can tune.
#[derive(Clone, Copy, Debug)]
pub struct ServeOptions {
    /// Nodes in the synthetic DS²-style delay space.
    pub nodes: usize,
    /// Service shards.
    pub shards: usize,
    /// Total edge queries of the closed-loop run.
    pub queries: usize,
    /// Operations per batch.
    pub batch: usize,
    /// Zipf exponent of source-node popularity.
    pub zipf_s: f64,
    /// Fraction of operations that are RTT observations, in `[0, 1)`.
    pub observe_frac: f64,
    /// Observations folded in before the epoch builder publishes the
    /// next snapshot (0 disables the background builder).
    pub epoch_every: usize,
    /// Per-shard LRU cache capacity (edges).
    pub cache_capacity: usize,
    /// Witnesses sampled per severity estimate.
    pub witnesses: usize,
    /// Batches below this many queries run inline instead of fanning
    /// out across shard threads (0 forces the fan-out path — the
    /// equivalence tests use this to exercise the sharded code).
    pub parallel_threshold: usize,
    /// Master seed (space, embedding, workload).
    pub seed: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            nodes: 1024,
            shards: 4,
            queries: 10_000,
            batch: 64,
            zipf_s: 0.9,
            observe_frac: 0.1,
            epoch_every: 500,
            cache_capacity: 65_536,
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
            cache_capacity: self.cache_capacity,
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
pub fn build_service(opts: &ServeOptions, shards: usize) -> (TivServe, EpochBuilder, DelayMatrix) {
    let matrix = InternetDelaySpace::preset(Dataset::Ds2)
        .with_nodes(opts.nodes)
        .build(opts.seed)
        .into_matrix();
    let (builder, snapshot) = EpochBuilder::bootstrap(matrix.clone(), opts.epoch_config());
    let service = TivServe::new(opts.serve_config(shards), snapshot);
    (service, builder, matrix)
}

/// The outcome `repro serve` prints.
#[derive(Clone, Copy, Debug)]
pub struct ServeSummary {
    /// The options the run used.
    pub opts: ServeOptions,
    /// The measured closed-loop report.
    pub report: ClosedLoopReport,
}

impl fmt::Display for ServeSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = &self.opts;
        let r = &self.report.load;
        writeln!(
            f,
            "tivserve: {} nodes, {} shards, seed {} — final epoch {}",
            o.nodes, o.shards, o.seed, self.report.final_epoch
        )?;
        writeln!(
            f,
            "  workload: {} queries in {} batches (≤{}/batch, zipf {}), \
             {} observations streamed ({} delivered, {} undelivered)",
            r.queries,
            r.batches,
            o.batch,
            o.zipf_s,
            r.observations,
            r.observations_delivered(),
            r.observations_undelivered
        )?;
        writeln!(
            f,
            "  throughput {:.0} queries/s  batch latency p50 {:.0} us  p99 {:.0} us",
            r.qps, r.p50_us, r.p99_us
        )?;
        let c = &self.report.cache;
        write!(
            f,
            "  cache: {:.1}% hit ({} hits / {} misses, {} evictions, {} resident)",
            c.hit_rate() * 100.0,
            c.hits,
            c.misses,
            c.evictions,
            c.len
        )
    }
}

/// Runs the full closed-loop serve experiment: build, (optionally)
/// spawn the background epoch builder, play the workload, join.
pub fn run_serve(opts: &ServeOptions) -> ServeSummary {
    let (service, builder, matrix) = build_service(opts, opts.shards);
    let service = Arc::new(service);
    let batches = loadgen::generate(&opts.workload(), &matrix);
    let (report, _answers) = if opts.epoch_every > 0 && opts.observe_frac > 0.0 {
        let sink = Arc::clone(&service);
        let stream = spawn_with(builder, opts.epoch_every, move |snapshot| {
            sink.publish(snapshot);
        });
        let tx = stream.sender();
        let out = loadgen::run_closed_loop(&service, &batches, ObservePath::Channel(&tx));
        drop(tx);
        stream.join();
        out
    } else {
        loadgen::run_closed_loop(&service, &batches, ObservePath::Drop)
    };
    // Report the service's final published epoch (the loop may have
    // finished before the builder drained the tail observations).
    let mut report = report;
    report.final_epoch = service.epoch();
    ServeSummary { opts: *opts, report }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ServeOptions {
        ServeOptions {
            nodes: 60,
            shards: 2,
            queries: 400,
            batch: 50,
            epoch_every: 60,
            ..ServeOptions::default()
        }
    }

    #[test]
    fn run_serve_completes_and_publishes_epochs() {
        let summary = run_serve(&tiny());
        assert_eq!(summary.report.load.queries, 400);
        assert!(summary.report.load.qps > 0.0);
        assert!(
            summary.report.final_epoch >= 1,
            "with observations streaming, at least one epoch should publish"
        );
        let text = summary.to_string();
        assert!(text.contains("throughput"), "summary missing throughput: {text}");
        // The observation accounting is part of the printed contract:
        // with a live background builder nothing goes undelivered.
        assert_eq!(summary.report.load.observations_undelivered, 0);
        assert_eq!(
            summary.report.load.observations,
            summary.report.load.observations_delivered()
                + summary.report.load.observations_undelivered
        );
        assert!(
            text.contains(&format!(
                "({} delivered, 0 undelivered)",
                summary.report.load.observations_delivered()
            )),
            "summary missing observation accounting: {text}"
        );
    }

    #[test]
    fn read_only_run_stays_on_epoch_zero() {
        let opts = ServeOptions { observe_frac: 0.0, epoch_every: 0, ..tiny() };
        let summary = run_serve(&opts);
        assert_eq!(summary.report.final_epoch, 0);
        assert_eq!(summary.report.load.observations, 0);
    }

    #[test]
    fn build_service_is_shard_agnostic_in_state() {
        let opts = tiny();
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
