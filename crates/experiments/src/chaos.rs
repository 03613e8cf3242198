//! The `repro chaos` experiment: scripted faults against a live
//! multi-replica deployment, plus the paper's applications served from
//! it.
//!
//! The heavy lifting lives in [`tivchaos`]; this module is the glue
//! the `repro` binary's `chaos` subcommand and the `chaos_equivalence`
//! tests share, so the CLI and the tests exercise exactly the same
//! construction path — the same contract `repro serve` and `repro
//! gate` already keep.

use std::fmt;
use std::io;
use tivchaos::{run_chaos, run_overlay_multicast, run_server_selection};
use tivchaos::{AppConfig, AppReport, ChaosConfig, ChaosReport, FaultPlan, SloSpec};

/// Everything the `chaos` subcommand can tune.
#[derive(Clone, Copy, Debug)]
pub struct ChaosOptions {
    /// Nodes in the synthetic DS²-style delay space.
    pub nodes: usize,
    /// Deployment replicas.
    pub replicas: usize,
    /// Total edge queries of the fault-injected workload.
    pub queries: usize,
    /// Queries per batch.
    pub batch: usize,
    /// Fraction of operations that are RTT observations, in `[0, 1)`.
    pub observe_frac: f64,
    /// Batches between forced epoch publishes.
    pub publish_every: usize,
    /// Target query arrival rate, queries/second (0 = unpaced).
    pub target_qps: f64,
    /// Skip the fault plan (measure a healthy baseline instead).
    pub no_faults: bool,
    /// Skip the application workloads (harness only).
    pub no_apps: bool,
    /// Master seed (space, embedding, workload).
    pub seed: u64,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            nodes: 192,
            replicas: 3,
            queries: 6_000,
            batch: 64,
            observe_frac: 0.1,
            publish_every: 8,
            target_qps: 0.0,
            no_faults: false,
            no_apps: false,
            seed: 42,
        }
    }
}

impl ChaosOptions {
    /// The harness configuration these options imply.
    pub fn chaos_config(&self) -> ChaosConfig {
        ChaosConfig {
            nodes: self.nodes,
            replicas: self.replicas,
            queries: self.queries,
            batch: self.batch,
            observe_frac: self.observe_frac,
            publish_every_batches: self.publish_every,
            target_qps: self.target_qps,
            seed: self.seed,
            slo: SloSpec::default(),
        }
    }

    /// The fault plan these options imply.
    pub fn plan(&self) -> FaultPlan {
        if self.no_faults {
            FaultPlan::none()
        } else {
            FaultPlan::standard(self.replicas, self.queries / self.batch.max(1))
        }
    }

    /// The application-workload configuration these options imply
    /// (smaller than the harness space: every client queries the whole
    /// candidate fleet).
    pub fn app_config(&self) -> AppConfig {
        AppConfig {
            nodes: self.nodes.min(240),
            replicas: self.replicas,
            seed: self.seed,
            ..AppConfig::default()
        }
    }
}

/// The outcome `repro chaos` prints.
#[derive(Clone, Debug)]
pub struct ChaosSummary {
    /// The options the run used.
    pub opts: ChaosOptions,
    /// The fault plan that was injected.
    pub plan: FaultPlan,
    /// The harness report (availability, staleness, recovery).
    pub report: ChaosReport,
    /// The live application workloads, when not skipped.
    pub apps: Vec<AppReport>,
}

impl fmt::Display for ChaosSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = &self.opts;
        writeln!(
            f,
            "tivchaos: {} nodes, {} replicas, seed {} — plan: {}",
            o.nodes, o.replicas, o.seed, self.plan
        )?;
        writeln!(f, "{}", self.report)?;
        for app in &self.apps {
            writeln!(f, "{app}")?;
        }
        write!(
            f,
            "SLOs: {}",
            if self.report.slo_ok() { "all held" } else { "VIOLATED (see above)" }
        )
    }
}

/// Runs the full chaos experiment: the fault-injected harness run,
/// then the live application workloads.
pub fn run_chaos_experiment(opts: &ChaosOptions) -> io::Result<ChaosSummary> {
    let plan = opts.plan();
    let report = run_chaos(&opts.chaos_config(), &plan)?;
    let mut apps = Vec::new();
    if !opts.no_apps {
        let app_cfg = opts.app_config();
        apps.push(run_server_selection(&app_cfg)?);
        apps.push(run_overlay_multicast(&app_cfg)?);
    }
    Ok(ChaosSummary { opts: *opts, plan, report, apps })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ChaosOptions {
        ChaosOptions {
            nodes: 48,
            replicas: 2,
            queries: 1_000,
            batch: 50,
            publish_every: 4,
            no_apps: true,
            ..ChaosOptions::default()
        }
    }

    #[test]
    fn chaos_experiment_reports_and_holds_slos() {
        let summary = run_chaos_experiment(&tiny()).expect("chaos run");
        assert!(summary.report.slo_ok(), "default plan violates SLOs: {summary}");
        assert!(summary.report.unavailable_batches > 0, "the crash window must cost batches");
        assert!(summary.report.recovered_bitexact);
        let text = summary.to_string();
        assert!(text.contains("availability"), "summary missing SLOs: {text}");
        assert!(text.contains("bit-exact"), "summary missing recovery: {text}");
    }

    #[test]
    fn faultless_baseline_is_clean() {
        let opts = ChaosOptions { no_faults: true, ..tiny() };
        let summary = run_chaos_experiment(&opts).expect("chaos run");
        assert_eq!(summary.report.unavailable_batches, 0);
        assert_eq!(summary.report.max_staleness_epochs, 0);
        assert!(summary.plan.events.is_empty());
    }

    #[test]
    fn app_workloads_ride_along_when_enabled() {
        let opts = ChaosOptions {
            nodes: 64,
            replicas: 2,
            queries: 400,
            batch: 50,
            publish_every: 4,
            no_apps: false,
            ..ChaosOptions::default()
        };
        let summary = run_chaos_experiment(&opts).expect("chaos run");
        assert_eq!(summary.apps.len(), 2);
        for app in &summary.apps {
            assert!(app.decisions > 0);
            assert!(app.oblivious_ms.is_finite() && app.aware_ms.is_finite());
            assert!(app.savings.samples > 0, "savings must be attributed");
        }
    }
}
