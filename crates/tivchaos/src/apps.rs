//! The paper's motivating applications, served live from snapshots.
//!
//! The repo's `server_selection` and `overlay_multicast` examples
//! began as pure simulations; here they are promoted to measured
//! end-to-end workloads: a [`Deployment`] serves TIV estimates over
//! real sockets, a [`Front`] dispatches the query batches, and every
//! routing decision — which server a client picks, which parent a
//! multicast joiner attaches to — is made from the wire answers alone:
//!
//! * **TIV-oblivious** — minimize the embedding's predicted delay
//!   (what a coordinate-only system does);
//! * **TIV-aware** — same, but candidates whose edge carries a TIV
//!   alert are avoided (the paper's Section 5 discipline: an alerted
//!   edge's prediction is known to be misleading);
//! * **oracle** — the true measured delay (the unreachable lower
//!   bound).
//!
//! The payoff is attributed, per decision, to the TIV severity of the
//! edge the oblivious strategy would have used, binned via
//! [`SavingsBySeverity`] — reproducing the paper's
//! savings-grow-with-severity claim on live traffic.

use delayspace::matrix::DelayMatrix;
use delayspace::synth::{Dataset, InternetDelaySpace};
use std::fmt;
use std::io;
use tivgate::deploy::Deployment;
use tivgate::front::Front;
use tivroute::SavingsBySeverity;
use tivserve::loadgen::percentile;
use tivserve::query::QueryBatch;
use tivserve::service::ServeConfig;
use tivserve::snapshot::EdgeEstimate;
use tivserve::{EpochBuilder, EpochConfig};

/// Everything the application workloads can tune.
#[derive(Clone, Copy, Debug)]
pub struct AppConfig {
    /// Nodes in the synthetic DS²-style delay space.
    pub nodes: usize,
    /// Deployment replicas serving the estimates.
    pub replicas: usize,
    /// Server-selection: the first `servers` node ids are the
    /// candidate fleet, the rest are clients.
    pub servers: usize,
    /// Overlay-multicast: children cap per tree member.
    pub fanout: usize,
    /// Severity bin width of the savings attribution.
    pub sev_bin: f64,
    /// Severity cap of the savings attribution.
    pub sev_max: f64,
    /// Master seed (space, embedding).
    pub seed: u64,
}

impl Default for AppConfig {
    fn default() -> Self {
        AppConfig {
            nodes: 240,
            replicas: 2,
            servers: 60,
            fanout: 6,
            sev_bin: 0.25,
            sev_max: 2.0,
            seed: 23,
        }
    }
}

/// The measured outcome of one application workload.
#[derive(Clone, Debug)]
pub struct AppReport {
    /// Which workload ran.
    pub label: &'static str,
    /// Routing decisions made (clients served / members joined).
    pub decisions: usize,
    /// Wire batches issued to the deployment.
    pub wire_batches: usize,
    /// Mean outcome delay of the TIV-oblivious strategy (ms).
    pub oblivious_ms: f64,
    /// Mean outcome delay of the TIV-aware strategy (ms).
    pub aware_ms: f64,
    /// Mean outcome delay of the oracle (ms).
    pub oracle_ms: f64,
    /// Median outcome delay of the TIV-aware strategy (ms).
    pub aware_p50_ms: f64,
    /// Decisions where the aware strategy strictly beat the oblivious
    /// one.
    pub improved: usize,
    /// Mean relative saving of aware over oblivious, clamped at 0 per
    /// decision.
    pub mean_rel_saving: f64,
    /// Relative savings attributed to the severity of the edge the
    /// oblivious strategy would have used.
    pub savings: SavingsBySeverity,
}

impl AppReport {
    /// Fraction of the oblivious-to-oracle gap the aware strategy
    /// closes (1 = reaches the oracle, 0 = no better than oblivious).
    pub fn gap_closed(&self) -> f64 {
        let gap = self.oblivious_ms - self.oracle_ms;
        if gap <= 0.0 {
            1.0
        } else {
            ((self.oblivious_ms - self.aware_ms) / gap).clamp(0.0, 1.0)
        }
    }
}

impl fmt::Display for AppReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} decisions over {} wire batches",
            self.label, self.decisions, self.wire_batches
        )?;
        writeln!(
            f,
            "  mean delay: oblivious {:.1} ms, TIV-aware {:.1} ms (p50 {:.1}), oracle {:.1} ms \
             — {:.0}% of the gap closed",
            self.oblivious_ms,
            self.aware_ms,
            self.aware_p50_ms,
            self.oracle_ms,
            self.gap_closed() * 100.0
        )?;
        writeln!(
            f,
            "  {} of {} decisions improved; mean relative saving {:.1}%",
            self.improved,
            self.decisions,
            self.mean_rel_saving * 100.0
        )?;
        write!(f, "  savings by severity bin (midpoint: median rel. saving):")?;
        for (mid, med) in self.savings.median_series() {
            write!(f, "  {mid:.2}: {:.1}%", med * 100.0)?;
        }
        Ok(())
    }
}

/// Index of the estimate with the smallest predicted delay.
fn argmin_predicted(estimates: &[EdgeEstimate], include_alerted: bool) -> Option<usize> {
    estimates
        .iter()
        .enumerate()
        .filter(|(_, e)| include_alerted || !e.alert)
        .min_by(|(_, a), (_, b)| a.predicted.total_cmp(&b.predicted))
        .map(|(i, _)| i)
}

/// One TIV-aware-vs-oblivious decision from a batch of wire answers:
/// `(oblivious index, aware index)`. The aware strategy avoids alerted
/// edges; when every candidate is alerted it falls back to the
/// oblivious choice rather than failing.
fn decide(estimates: &[EdgeEstimate]) -> (usize, usize) {
    let oblivious = argmin_predicted(estimates, true).expect("non-empty candidate set");
    let aware = argmin_predicted(estimates, false).unwrap_or(oblivious);
    (oblivious, aware)
}

/// Accumulates per-decision outcomes into an [`AppReport`].
struct Outcomes {
    oblivious: Vec<f64>,
    aware: Vec<f64>,
    oracle: Vec<f64>,
    savings: Vec<(f64, f64)>,
    improved: usize,
    wire_batches: usize,
}

impl Outcomes {
    fn new() -> Self {
        Outcomes {
            oblivious: Vec::new(),
            aware: Vec::new(),
            oracle: Vec::new(),
            savings: Vec::new(),
            improved: 0,
            wire_batches: 0,
        }
    }

    /// Records one decision: outcome delays of the three strategies
    /// plus the severity of the edge the oblivious strategy used.
    fn record(&mut self, d_obl: f64, d_aware: f64, d_oracle: f64, obl_severity: Option<f64>) {
        self.oblivious.push(d_obl);
        self.aware.push(d_aware);
        self.oracle.push(d_oracle);
        if d_aware < d_obl {
            self.improved += 1;
        }
        let rel = if d_obl > 0.0 { ((d_obl - d_aware) / d_obl).max(0.0) } else { 0.0 };
        if let Some(s) = obl_severity {
            self.savings.push((s, rel));
        }
    }

    fn into_report(self, label: &'static str, cfg: &AppConfig) -> AppReport {
        let mean = |xs: &[f64]| {
            if xs.is_empty() {
                0.0
            } else {
                xs.iter().sum::<f64>() / xs.len() as f64
            }
        };
        let mean_rel_saving = mean(
            &self
                .oblivious
                .iter()
                .zip(&self.aware)
                .map(|(&o, &a)| if o > 0.0 { ((o - a) / o).max(0.0) } else { 0.0 })
                .collect::<Vec<f64>>(),
        );
        let mut aware_sorted = self.aware.clone();
        aware_sorted.sort_by(f64::total_cmp);
        AppReport {
            label,
            decisions: self.oblivious.len(),
            wire_batches: self.wire_batches,
            oblivious_ms: mean(&self.oblivious),
            aware_ms: mean(&self.aware),
            oracle_ms: mean(&self.oracle),
            aware_p50_ms: percentile(&aware_sorted, 0.50),
            improved: self.improved,
            mean_rel_saving,
            savings: SavingsBySeverity::from_samples(self.savings, cfg.sev_bin, cfg.sev_max),
        }
    }
}

/// Spawns the serving deployment for a workload and connects a front
/// over every replica.
fn serve_space(cfg: &AppConfig) -> io::Result<(DelayMatrix, tivgate::DeploymentHandle, Front)> {
    let matrix = InternetDelaySpace::preset(Dataset::Ds2)
        .with_nodes(cfg.nodes)
        .build(cfg.seed)
        .into_matrix();
    let epoch_cfg = EpochConfig { seed: cfg.seed, ..EpochConfig::default() };
    let (_, snapshot) = EpochBuilder::bootstrap(matrix.clone(), epoch_cfg);
    let handle =
        Deployment::new(snapshot, ServeConfig::default()).replicas(cfg.replicas).spawn()?;
    let front = Front::connect(&handle.addrs())?;
    Ok((matrix, handle, front))
}

/// True measured delay of an edge, with the example's conservative
/// fallback for unmeasured pairs.
fn measured(m: &DelayMatrix, a: usize, b: usize) -> f64 {
    m.get(a, b).unwrap_or(1_000.0)
}

/// Server selection served live: every client asks the deployment for
/// estimates to the whole candidate fleet and picks a server three
/// ways. Outcome delay is the true measured client-to-server delay.
pub fn run_server_selection(cfg: &AppConfig) -> io::Result<AppReport> {
    assert!(cfg.servers >= 1 && cfg.servers < cfg.nodes, "need servers and clients");
    let (matrix, handle, mut front) = serve_space(cfg)?;
    let servers: Vec<usize> = (0..cfg.servers).collect();
    let mut out = Outcomes::new();
    for client in cfg.servers..cfg.nodes {
        let pairs: Vec<(usize, usize)> = servers.iter().map(|&s| (client, s)).collect();
        let estimates = front.query(&QueryBatch::Estimate(pairs))?.into_estimates();
        out.wire_batches += 1;
        let (obl, aware) = decide(&estimates);
        let (_, d_oracle) = matrix.nearest_among(client, servers.iter()).expect("non-empty fleet");
        out.record(
            measured(&matrix, client, servers[obl]),
            measured(&matrix, client, servers[aware]),
            d_oracle,
            estimates[obl].severity,
        );
    }
    handle.shutdown()?;
    Ok(out.into_report("server selection (live)", cfg))
}

/// A multicast tree under construction: parent pointers plus per-node
/// children counts enforcing the fanout cap.
struct Tree {
    parent: Vec<Option<usize>>,
    children: Vec<usize>,
}

impl Tree {
    fn new(n: usize) -> Self {
        Tree { parent: vec![None; n], children: vec![0; n] }
    }

    /// Members that can still accept a child among `0..joined`.
    fn eligible(&self, joined: usize, fanout: usize) -> Vec<usize> {
        (0..joined).filter(|&j| self.children[j] < fanout).collect()
    }

    fn attach(&mut self, node: usize, parent: usize) {
        self.parent[node] = Some(parent);
        self.children[parent] += 1;
    }

    /// Overlay delay from the root: the sum of measured edge delays
    /// along the parent chain.
    fn delay_from_root(&self, m: &DelayMatrix, mut node: usize) -> f64 {
        let mut total = 0.0;
        while let Some(p) = self.parent[node] {
            total += measured(m, node, p);
            node = p;
        }
        total
    }
}

/// Overlay-multicast parent choice served live: nodes join in id
/// order, each asking the deployment for estimates to every eligible
/// member and attaching three ways. Outcome delay is the true overlay
/// delay from the root through the finished tree.
pub fn run_overlay_multicast(cfg: &AppConfig) -> io::Result<AppReport> {
    assert!(cfg.nodes >= 2 && cfg.fanout >= 1, "need a joinable tree");
    let (matrix, handle, mut front) = serve_space(cfg)?;
    let n = cfg.nodes;
    let mut obl_tree = Tree::new(n);
    let mut aware_tree = Tree::new(n);
    let mut oracle_tree = Tree::new(n);
    // Severity of the oblivious parent edge, recorded at join time and
    // attributed once the finished trees are measured.
    let mut obl_severity: Vec<Option<f64>> = vec![None; n];
    let mut wire_batches = 0usize;
    for (node, obl_sev) in obl_severity.iter_mut().enumerate().skip(1) {
        // Each tree's fanout constraint evolves with its own choices,
        // so the eligible sets (and wire batches) differ per strategy.
        for (tree, aware) in [(&mut obl_tree, false), (&mut aware_tree, true)] {
            let eligible = tree.eligible(node, cfg.fanout);
            let pairs: Vec<(usize, usize)> = eligible.iter().map(|&p| (node, p)).collect();
            let estimates = front.query(&QueryBatch::Estimate(pairs))?.into_estimates();
            wire_batches += 1;
            let (obl, aw) = decide(&estimates);
            let pick = if aware { aw } else { obl };
            if !aware {
                *obl_sev = estimates[obl].severity;
            }
            tree.attach(node, eligible[pick]);
        }
        let eligible = oracle_tree.eligible(node, cfg.fanout);
        let (parent, _) =
            matrix.nearest_among(node, eligible.iter()).expect("root always eligible");
        oracle_tree.attach(node, parent);
    }
    let mut out = Outcomes::new();
    out.wire_batches = wire_batches;
    for (node, &obl_sev) in obl_severity.iter().enumerate().skip(1) {
        out.record(
            obl_tree.delay_from_root(&matrix, node),
            aware_tree.delay_from_root(&matrix, node),
            oracle_tree.delay_from_root(&matrix, node),
            obl_sev,
        );
    }
    handle.shutdown()?;
    Ok(out.into_report("overlay multicast (live)", cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> AppConfig {
        AppConfig { nodes: 72, replicas: 2, servers: 24, ..AppConfig::default() }
    }

    #[test]
    fn server_selection_serves_live_and_attributes_savings() {
        let cfg = tiny();
        let report = run_server_selection(&cfg).expect("workload");
        assert_eq!(report.decisions, cfg.nodes - cfg.servers);
        assert_eq!(report.wire_batches, report.decisions);
        // The oracle lower-bounds both wire strategies.
        assert!(report.oracle_ms <= report.aware_ms + 1e-9);
        assert!(report.oracle_ms <= report.oblivious_ms + 1e-9);
        // TIV awareness must not hurt on average, and on a DS² space
        // (which has TIVs by construction) it should help somewhere.
        assert!(report.aware_ms <= report.oblivious_ms + 1e-9);
        assert!(report.savings.samples > 0, "savings must be attributed");
        let text = report.to_string();
        assert!(text.contains("severity bin"), "report missing attribution: {text}");
    }

    #[test]
    fn multicast_parents_improve_with_awareness() {
        let cfg = tiny();
        let report = run_overlay_multicast(&cfg).expect("workload");
        assert_eq!(report.decisions, cfg.nodes - 1);
        assert_eq!(report.wire_batches, 2 * (cfg.nodes - 1));
        assert!(report.oracle_ms <= report.aware_ms + 1e-9);
        assert!(report.aware_ms <= report.oblivious_ms * 1.05, "awareness should not hurt");
        assert!(report.savings.samples > 0);
    }

    #[test]
    fn workloads_are_deterministic() {
        let cfg = tiny();
        let a = run_server_selection(&cfg).expect("workload");
        let b = run_server_selection(&cfg).expect("workload");
        assert_eq!(a.oblivious_ms.to_bits(), b.oblivious_ms.to_bits());
        assert_eq!(a.aware_ms.to_bits(), b.aware_ms.to_bits());
        assert_eq!(a.improved, b.improved);
    }
}
