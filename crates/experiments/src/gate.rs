//! The `repro gate` experiment: drive a multi-replica `tivgate` wire
//! deployment with an open-loop socket workload and report aggregate
//! throughput, latency percentiles and observation accounting.
//!
//! This is the wire-serving sibling of [`crate::serve`]: the same
//! synthetic DS²-style space, the same Zipf workload generator, but the
//! queries travel through real TCP sockets to a multi-replica
//! [`Deployment`], and the load is *open loop* — batches go out on a
//! schedule, so queueing delay shows up in the tail percentiles
//! instead of throttling the generator. The chaos harness and the
//! wire-equivalence tests share this construction path.

use crate::serve::ServeOptions;
use delayspace::synth::{Dataset, InternetDelaySpace};
use std::fmt;
use std::io;
use tivgate::deploy::Deployment;
use tivgate::loadgen::{run_open_loop, GateLoadReport};
use tivserve::loadgen::{LoadSpec, ObservePath};

/// Everything the `gate` subcommand can tune.
#[derive(Clone, Copy, Debug)]
pub struct GateOptions {
    /// Nodes in the synthetic DS²-style delay space.
    pub nodes: usize,
    /// Gate replicas (each a full copy of the serving snapshot).
    pub replicas: usize,
    /// Total edge queries of the open-loop run.
    pub queries: usize,
    /// Operations per batch.
    pub batch: usize,
    /// Zipf exponent of source-node popularity.
    pub zipf_s: f64,
    /// Fraction of operations that are RTT observations, in `[0, 1)`.
    pub observe_frac: f64,
    /// Observations folded in before the epoch publisher pushes the
    /// next snapshot into every replica (0 disables the publisher).
    pub epoch_every: usize,
    /// Target query arrival rate, queries/second (0 = unpaced: send
    /// back-to-back for headline throughput).
    pub target_qps: f64,
    /// Master seed (space, embedding, workload).
    pub seed: u64,
}

impl Default for GateOptions {
    fn default() -> Self {
        GateOptions {
            nodes: 512,
            replicas: 2,
            queries: 10_000,
            batch: 64,
            zipf_s: 0.9,
            observe_frac: 0.1,
            epoch_every: 500,
            target_qps: 0.0,
            seed: 42,
        }
    }
}

impl GateOptions {
    /// The per-replica serve options these gate options imply. Shards
    /// stay at the serve default: replicas scale across processes'
    /// sockets, shards across a replica's cores.
    pub fn serve_options(&self) -> ServeOptions {
        ServeOptions {
            nodes: self.nodes,
            queries: self.queries,
            batch: self.batch,
            zipf_s: self.zipf_s,
            observe_frac: self.observe_frac,
            epoch_every: self.epoch_every,
            seed: self.seed,
            ..ServeOptions::default()
        }
    }
}

/// The outcome `repro gate` prints.
#[derive(Clone, Copy, Debug)]
pub struct GateSummary {
    /// The options the run used.
    pub opts: GateOptions,
    /// The measured open-loop wire report.
    pub report: GateLoadReport,
    /// Epoch every replica had published when the run finished.
    pub final_epoch: u64,
    /// Requests served across all replicas (loadgen batches plus any
    /// other traffic).
    pub requests_served: u64,
    /// Backpressure pauses across all replicas (0 unless a client
    /// outran its own reads).
    pub backpressure_pauses: u64,
}

impl fmt::Display for GateSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = &self.opts;
        writeln!(
            f,
            "tivgate: {} nodes, {} replicas, seed {} — final epoch {}",
            o.nodes, o.replicas, o.seed, self.final_epoch
        )?;
        writeln!(f, "{}", self.report)?;
        write!(
            f,
            "  gates: {} requests served, {} backpressure pauses",
            self.requests_served, self.backpressure_pauses
        )
    }
}

/// Runs the full open-loop gate experiment: build the snapshot, spawn
/// a multi-replica [`Deployment`] (real sockets, optionally with the
/// background epoch publisher attached), play the wire workload, and
/// shut down.
pub fn run_gate(opts: &GateOptions) -> io::Result<GateSummary> {
    let serve_opts = opts.serve_options();
    let matrix = InternetDelaySpace::preset(Dataset::Ds2)
        .with_nodes(opts.nodes)
        .build(opts.seed)
        .into_matrix();
    let (builder, snapshot) =
        tivserve::epoch::EpochBuilder::bootstrap(matrix.clone(), serve_opts.epoch_config());
    let spec = LoadSpec { workload: serve_opts.workload(), target_qps: opts.target_qps };
    let batches = spec.batches(&matrix);
    let with_publisher = opts.epoch_every > 0 && opts.observe_frac > 0.0;
    let deployment = Deployment::new(snapshot, serve_opts.serve_config(serve_opts.shards))
        .replicas(opts.replicas);
    let handle = if with_publisher {
        deployment.publisher(builder, opts.epoch_every).spawn()?
    } else {
        deployment.spawn()?
    };
    let report = if with_publisher {
        let feed = handle.feed().expect("publisher attached");
        let report = run_open_loop(&handle.addrs(), &batches, spec, ObservePath::Channel(&feed))?;
        // Flush the tail synchronously so the final epoch is already
        // settled (and deterministic) when the stats are read below.
        handle.publish_now();
        report
    } else {
        run_open_loop(&handle.addrs(), &batches, spec, ObservePath::Drop)?
    };
    let summary = GateSummary {
        opts: *opts,
        report,
        final_epoch: handle.latest_epoch(),
        requests_served: handle.requests_served(),
        backpressure_pauses: handle.backpressure_pauses(),
    };
    handle.shutdown()?;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> GateOptions {
        GateOptions {
            nodes: 48,
            replicas: 2,
            queries: 300,
            batch: 50,
            epoch_every: 40,
            ..GateOptions::default()
        }
    }

    #[test]
    fn run_gate_completes_over_the_wire_and_publishes_epochs() {
        let summary = run_gate(&tiny()).expect("gate run");
        assert_eq!(summary.report.load.queries, 300);
        assert_eq!(summary.report.error_frames, 0);
        assert!(summary.report.load.qps > 0.0);
        assert!(
            summary.final_epoch >= 1,
            "with observations streaming, at least one epoch should publish"
        );
        // Accounting identity, over the wire this time.
        assert_eq!(summary.report.load.observations_undelivered, 0);
        assert_eq!(
            summary.report.load.observations,
            summary.report.load.observations_delivered()
                + summary.report.load.observations_undelivered
        );
        let text = summary.to_string();
        assert!(text.contains("qps"), "summary missing throughput: {text}");
        assert!(text.contains("undelivered"), "summary missing accounting: {text}");
    }

    #[test]
    fn read_only_gate_run_stays_on_epoch_zero() {
        let opts = GateOptions { observe_frac: 0.0, epoch_every: 0, ..tiny() };
        let summary = run_gate(&opts).expect("gate run");
        assert_eq!(summary.final_epoch, 0);
        assert_eq!(summary.report.load.observations, 0);
        assert_eq!(summary.report.load.queries, 300);
    }

    #[test]
    fn paced_gate_run_reports_schedule_health() {
        let opts = GateOptions {
            target_qps: 3000.0,
            observe_frac: 0.0,
            epoch_every: 0,
            queries: 150,
            ..tiny()
        };
        let summary = run_gate(&opts).expect("gate run");
        assert!(
            summary.report.load.elapsed_s >= 150.0 / 3000.0 * 0.5,
            "pacing was ignored: {}",
            summary.report
        );
    }
}
