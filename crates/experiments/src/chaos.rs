//! The `repro chaos` experiment: scripted faults against a live
//! multi-replica deployment, plus the paper's applications served from
//! it.
//!
//! The heavy lifting lives in [`tivchaos`]; this module is the glue
//! the `repro` binary's `chaos` subcommand and the `chaos_equivalence`
//! tests share, so the CLI and the tests exercise exactly the same
//! construction path.

use std::fmt;
use std::io;
use tivchaos::{run_chaos, run_overlay_multicast, run_server_selection};
use tivchaos::{AppConfig, AppReport, ChaosConfig, ChaosReport, FaultPlan};

/// Everything the `chaos` subcommand can tune.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChaosOptions {
    /// The harness configuration (space, deployment, workload, SLOs).
    pub chaos: ChaosConfig,
    /// Skip the fault plan (run a healthy baseline instead).
    pub no_faults: bool,
    /// Skip the application workloads (harness only).
    pub no_apps: bool,
}

impl ChaosOptions {
    /// The fault plan these options imply.
    pub fn plan(&self) -> FaultPlan {
        if self.no_faults {
            FaultPlan::none()
        } else {
            let c = &self.chaos;
            FaultPlan::standard(c.replicas, c.queries / c.batch.max(1))
        }
    }

    /// The application-workload configuration these options imply
    /// (smaller than the harness space: every client queries the whole
    /// candidate fleet).
    pub fn app_config(&self) -> AppConfig {
        AppConfig {
            nodes: self.chaos.nodes.min(240),
            replicas: self.chaos.replicas,
            seed: self.chaos.seed,
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
        let c = &self.opts.chaos;
        writeln!(
            f,
            "tivchaos: {} nodes, {} replicas, seed {} — plan: {}",
            c.nodes, c.replicas, c.seed, self.plan
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
    let report = run_chaos(&opts.chaos, &plan)?;
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
            chaos: ChaosConfig {
                nodes: 48,
                replicas: 2,
                queries: 1_000,
                batch: 50,
                publish_every_batches: 4,
                ..ChaosConfig::default()
            },
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
            chaos: ChaosConfig {
                nodes: 64,
                replicas: 2,
                queries: 400,
                batch: 50,
                publish_every_batches: 4,
                ..ChaosConfig::default()
            },
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
