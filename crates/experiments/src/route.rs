//! The `repro route` experiment: run the TIV-exploiting one-hop detour
//! search over a synthetic DS²-style delay space and report how much
//! latency the detours recover — the application payoff the paper
//! motivates (severe TIV edges are exactly the edges an overlay can
//! shortcut through a relay).
//!
//! The heavy lifting lives in [`tivroute`]; this module is the glue the
//! `repro` binary's `route` subcommand drives. It produces two
//! figures:
//!
//! * `route-savings` — the CDF of per-edge relative latency savings
//!   when every measured edge takes its best one-hop detour;
//! * `route-vs-severity` — median relative saving binned by the edge's
//!   TIV severity (with 10/90 bars), showing savings grow with
//!   severity.

use crate::figure::{Figure, Series};
use delayspace::synth::{Dataset, InternetDelaySpace};
use std::fmt;
use tivcore::severity::Severity;
use tivroute::{DetourStats, DetourTable};

/// Everything the `route` subcommand can tune.
#[derive(Clone, Copy, Debug)]
pub struct RouteOptions {
    /// Nodes in the synthetic DS²-style delay space (the detour and
    /// severity kernels are both O(n³)).
    pub nodes: usize,
    /// Relays kept per ordered pair (rank 0 is the one a route query
    /// serves).
    pub k: usize,
    /// Worker threads (0 = auto, [`tivpar::resolve_threads`]).
    pub threads: usize,
    /// Master seed of the synthetic space.
    pub seed: u64,
    /// Severity bin width of the savings-vs-severity series.
    pub sev_bin: f64,
    /// Largest severity binned (edges beyond are dropped from that
    /// series only).
    pub sev_max: f64,
}

impl Default for RouteOptions {
    fn default() -> Self {
        RouteOptions { nodes: 400, k: 4, threads: 0, seed: 42, sev_bin: 0.05, sev_max: 2.0 }
    }
}

/// The outcome `repro route` prints and writes.
#[derive(Clone, Debug)]
pub struct RouteReport {
    /// The options the run used.
    pub opts: RouteOptions,
    /// The aggregated detour gains.
    pub stats: DetourStats,
    /// Median relative saving among beneficial edges only (the median
    /// over all edges is 0 whenever fewer than half the edges violate).
    pub median_beneficial_saving: f64,
    /// 90th-percentile relative saving over all measured edges.
    pub p90_saving: f64,
    /// The figures (`route-savings`, `route-vs-severity`), ready for
    /// CSV export.
    pub figures: Vec<Figure>,
}

impl fmt::Display for RouteReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = &self.stats;
        writeln!(
            f,
            "tivroute: {} nodes, k={}, seed {} — {} measured edges, {} routable",
            self.opts.nodes, self.opts.k, self.opts.seed, s.edges, s.routable
        )?;
        writeln!(
            f,
            "  beneficial detour on {:.1}% of edges (exactly the TIV-violating edges)",
            s.beneficial_fraction() * 100.0
        )?;
        writeln!(
            f,
            "  relative saving: median {:.1}% among beneficial edges, p90 {:.1}% overall",
            self.median_beneficial_saving * 100.0,
            self.p90_saving * 100.0
        )?;
        for fig in &self.figures {
            write!(f, "{}", fig.summary())?;
        }
        Ok(())
    }
}

/// Runs the full detour experiment: build the space, compute severity
/// and the k-best detour table (both parallel over rows, bit-identical
/// at every thread count), aggregate the gains, and shape the figures.
pub fn run_route(opts: &RouteOptions) -> RouteReport {
    let m = InternetDelaySpace::preset(Dataset::Ds2)
        .with_nodes(opts.nodes)
        .build(opts.seed)
        .into_matrix();
    let sev = Severity::compute(&m, opts.threads);
    let table = DetourTable::compute(&m, opts.k, opts.threads);
    let stats = DetourStats::compute(&table, &m, Some(&sev), opts.sev_bin, opts.sev_max);

    let beneficial: Vec<f64> =
        stats.rel_savings.samples().iter().copied().filter(|&v| v > 0.0).collect();
    let median_beneficial_saving = if beneficial.is_empty() {
        0.0
    } else {
        // samples() is sorted, and filtering keeps the order.
        beneficial[beneficial.len() / 2]
    };
    let p90_saving =
        if stats.rel_savings.is_empty() { 0.0 } else { stats.rel_savings.quantile(0.9) };

    let savings_fig = Figure::new(
        "route-savings",
        "Latency saved by the best one-hop detour (DS2)",
        "relative saving (fraction of direct delay)",
        "CDF over measured edges",
    )
    .with_series(Series::from_cdf("best 1-hop relay", &stats.rel_savings, 128))
    .with_note(format!(
        "beneficial detour on {:.1}% of edges; p90 relative saving {:.1}%",
        stats.beneficial_fraction() * 100.0,
        p90_saving * 100.0
    ));
    let severity_fig = Figure::new(
        "route-vs-severity",
        "Detour saving vs TIV severity (DS2)",
        "TIV severity of the direct edge",
        "relative saving (median, 10/90 bars)",
    )
    .with_series(Series::from_binned(
        "rel. saving by severity",
        stats.savings_vs_severity.as_ref().expect("severity supplied"),
    ))
    .with_note("severity > 0 iff a beneficial one-hop detour exists; savings grow with severity");

    RouteReport {
        opts: *opts,
        stats,
        median_beneficial_saving,
        p90_saving,
        figures: vec![savings_fig, severity_fig],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RouteOptions {
        RouteOptions { nodes: 80, ..RouteOptions::default() }
    }

    #[test]
    fn run_route_reports_gains_and_figures() {
        let report = run_route(&tiny());
        assert_eq!(report.stats.edges, report.stats.routable, "complete synthetic matrix");
        let frac = report.stats.beneficial_fraction();
        assert!(frac > 0.0 && frac < 1.0, "beneficial fraction {frac} implausible");
        assert!(report.median_beneficial_saving > 0.0);
        assert!(report.p90_saving >= 0.0);
        assert_eq!(report.figures.len(), 2);
        assert!(!report.figures[0].series[0].points.is_empty());
        assert!(!report.figures[1].series[0].points.is_empty());
        let text = report.to_string();
        assert!(text.contains("beneficial detour"), "summary missing headline: {text}");
        // CSV export is well-formed for both figures.
        for fig in &report.figures {
            assert!(fig.to_csv().lines().count() > 1, "{} CSV empty", fig.id);
        }
    }

    #[test]
    fn route_report_is_thread_count_invariant() {
        let a = run_route(&RouteOptions { threads: 1, ..tiny() });
        let b = run_route(&RouteOptions { threads: 4, ..tiny() });
        assert_eq!(a.figures[0].to_csv(), b.figures[0].to_csv());
        assert_eq!(a.figures[1].to_csv(), b.figures[1].to_csv());
        assert_eq!(a.stats.beneficial, b.stats.beneficial);
    }
}
