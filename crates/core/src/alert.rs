//! The TIV alert mechanism (Section 5.1).
//!
//! The paper's key observation: when a delay space with TIVs is embedded
//! into a metric space, the edges that cause severe TIVs tend to be
//! **shrunk** — the optimiser sacrifices them to preserve the many short
//! alternative paths. The *prediction ratio*
//! `euclidean_distance / measured_delay` of an embedding snapshot is
//! therefore a usable alarm signal: ratios well below 1 flag likely
//! severe-TIV edges, with no severity computation (which would need
//! global information) and no extra measurements beyond what the
//! embedding already did.

use crate::severity::Severity;
use delayspace::matrix::{DelayMatrix, NodeId};
use delayspace::stats::BinnedStats;
use vivaldi::Embedding;

/// A configured alert: edges with prediction ratio strictly below
/// `threshold` raise an alarm.
#[derive(Clone, Copy, Debug)]
pub struct TivAlert {
    /// Alert threshold on the prediction ratio (paper explores 0–1 and
    /// deploys 0.6 in Section 5.2/5.3).
    pub threshold: f64,
}

impl TivAlert {
    /// Creates an alert with the given ratio threshold.
    pub fn new(threshold: f64) -> Self {
        assert!(threshold >= 0.0 && threshold.is_finite(), "bad threshold {threshold}");
        TivAlert { threshold }
    }

    /// True when a prediction ratio trips the alarm.
    #[inline]
    pub fn is_alert(&self, prediction_ratio: f64) -> bool {
        prediction_ratio < self.threshold
    }

    /// Evaluates the alert for an edge given an embedding snapshot;
    /// `None` when the edge is unmeasured.
    pub fn check(&self, emb: &Embedding, m: &DelayMatrix, i: NodeId, j: NodeId) -> Option<bool> {
        emb.prediction_ratio(m, i, j).map(|r| self.is_alert(r))
    }
}

/// Figure 19: TIV severity of edges grouped by prediction ratio, in
/// `bin_width`-wide bins over `[0, max_ratio]`.
pub fn ratio_severity_bins(
    emb: &Embedding,
    m: &DelayMatrix,
    sev: &Severity,
    bin_width: f64,
    max_ratio: f64,
) -> BinnedStats {
    BinnedStats::build(
        m.edges().filter_map(|(i, j, d)| {
            let s = sev.severity(i, j)?;
            (d > 0.0).then(|| (emb.predicted(i, j) / d, s))
        }),
        bin_width,
        max_ratio,
    )
}

/// One point of the accuracy/recall sweep (Figures 20–21).
#[derive(Clone, Copy, Debug)]
pub struct AlertQuality {
    /// The ratio threshold evaluated.
    pub threshold: f64,
    /// Ground-truth target: the worst `worst_frac` of edges by severity.
    pub worst_frac: f64,
    /// Fraction of alerted edges that are in the worst set (precision).
    pub accuracy: f64,
    /// Fraction of the worst set that was alerted.
    pub recall: f64,
    /// Fraction of all measured edges alerted at this threshold.
    pub alerted_frac: f64,
}

/// Sweeps alert thresholds against a ground-truth "worst `worst_frac`"
/// severity set, producing the accuracy and recall curves of Figures 20
/// and 21: the one-fraction call of [`accuracy_recall_sweeps`], run with
/// automatic parallelism (`threads == 0`).
pub fn accuracy_recall_sweep(
    emb: &Embedding,
    m: &DelayMatrix,
    sev: &Severity,
    worst_frac: f64,
    thresholds: &[f64],
) -> Vec<AlertQuality> {
    accuracy_recall_sweeps(emb, m, sev, &[worst_frac], thresholds, 0).remove(0)
}

/// The accuracy/recall sweep for several worst-set fractions at once:
/// entry `f` of the result is the sweep against the worst
/// `worst_fracs[f]` of edges, one [`AlertQuality`] per threshold.
///
/// The ground truth for a fraction is [`Severity::worst_edges`], the
/// one place the worst-set rule lives. The per-edge prediction ratios
/// are computed once; each threshold then counts its alerts over all
/// edges and over each fraction's worst set, fanned out over up to
/// `threads` workers. The output is bit-identical at every thread count
/// and to one sweep per fraction.
///
/// # Panics
/// Panics when a fraction lies outside `[0, 1]` or a threshold is
/// negative or not finite.
pub fn accuracy_recall_sweeps(
    emb: &Embedding,
    m: &DelayMatrix,
    sev: &Severity,
    worst_fracs: &[f64],
    thresholds: &[f64],
    threads: usize,
) -> Vec<Vec<AlertQuality>> {
    let alerts: Vec<TivAlert> = thresholds.iter().map(|&t| TivAlert::new(t)).collect();
    // The prediction ratio of an edge; NaN for a zero delay, which
    // never alerts.
    let ratio = |i, j| match m.get(i, j) {
        Some(d) if d > 0.0 => emb.predicted(i, j) / d,
        _ => f64::NAN,
    };
    let mut ratios = Vec::with_capacity(m.edges().count());
    let mut positive = 0usize;
    for (i, j, d) in m.edges() {
        positive += usize::from(d > 0.0);
        ratios.push(ratio(i, j));
    }
    let worst: Vec<Vec<f64>> = worst_fracs
        .iter()
        .map(|&frac| sev.worst_edges(m, frac).into_iter().map(|(i, j)| ratio(i, j)).collect())
        .collect();

    let per_threshold = tivpar::par_map_rows(alerts.len(), threads, |ti| {
        let alert = alerts[ti];
        let alerted = |rs: &[f64]| rs.iter().filter(|&&r| alert.is_alert(r)).count();
        (alerted(&ratios), worst.iter().map(|w| alerted(w)).collect::<Vec<_>>())
    });
    worst_fracs
        .iter()
        .zip(&worst)
        .enumerate()
        .map(|(f, (&worst_frac, w))| {
            alerts
                .iter()
                .zip(&per_threshold)
                .map(|(alert, (alerted, hits))| AlertQuality {
                    threshold: alert.threshold,
                    worst_frac,
                    accuracy: if *alerted > 0 { hits[f] as f64 / *alerted as f64 } else { 1.0 },
                    recall: if w.is_empty() { 1.0 } else { hits[f] as f64 / w.len() as f64 },
                    alerted_frac: *alerted as f64 / positive.max(1) as f64,
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use delayspace::synth::{Dataset, InternetDelaySpace};
    use simnet::net::{JitterModel, Network};
    use vivaldi::{VivaldiConfig, VivaldiSystem};

    fn embed(m: &DelayMatrix, seed: u64) -> Embedding {
        let mut sys = VivaldiSystem::new(
            VivaldiConfig { neighbors: 24, ..VivaldiConfig::default() },
            m.len(),
            seed,
        );
        let mut net = Network::new(m, JitterModel::None, seed);
        sys.run_rounds(&mut net, 150);
        sys.embedding()
    }

    #[test]
    fn alert_threshold_semantics() {
        let a = TivAlert::new(0.6);
        assert!(a.is_alert(0.3));
        assert!(!a.is_alert(0.6)); // strict
        assert!(!a.is_alert(1.5));
    }

    #[test]
    fn severe_edges_are_shrunk_in_embedding() {
        // The core observation behind the mechanism: median prediction
        // ratio of high-severity edges < median ratio of zero-severity
        // edges.
        let s = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(150).build(3);
        let m = s.matrix();
        let emb = embed(m, 3);
        let sev = Severity::compute(m, 0);
        let mut severe = Vec::new();
        let mut benign = Vec::new();
        let cdf = sev.cdf(m);
        let hi = cdf.quantile(0.95);
        for (i, j, d) in m.edges() {
            let ratio = emb.predicted(i, j) / d;
            let sv = sev.severity(i, j).unwrap();
            if sv >= hi && sv > 0.0 {
                severe.push(ratio);
            } else if sv == 0.0 {
                benign.push(ratio);
            }
        }
        let med = |mut v: Vec<f64>| {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[v.len() / 2]
        };
        let (ms, mb) = (med(severe), med(benign));
        assert!(ms < mb, "severe edges not shrunk: severe median {ms}, benign {mb}");
    }

    #[test]
    fn ratio_severity_bins_show_decreasing_trend() {
        let s = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(150).build(7);
        let m = s.matrix();
        let emb = embed(m, 7);
        let sev = Severity::compute(m, 0);
        let bins = ratio_severity_bins(&emb, m, &sev, 0.5, 3.0);
        // Median severity in the lowest-ratio bin exceeds that in the
        // ratio ≈ 1 bin.
        let low = bins.bins.iter().find(|b| b.stats.is_some()).unwrap();
        let near_one = bins.bins.iter().find(|b| b.lo >= 1.0 && b.stats.is_some()).unwrap();
        assert!(
            low.stats.unwrap().p50 >= near_one.stats.unwrap().p50,
            "no shrink trend: low {:?} vs near-one {:?}",
            low.stats,
            near_one.stats
        );
    }

    #[test]
    fn tight_threshold_high_accuracy_low_recall() {
        let s = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(250).build(11);
        let m = s.matrix();
        let emb = embed(m, 11);
        let sev = Severity::compute(m, 0);
        let sweep = accuracy_recall_sweep(&emb, m, &sev, 0.20, &[0.5, 0.95]);
        let tight = sweep[0];
        let loose = sweep[1];
        // Monotone structure of the trade-off.
        assert!(tight.alerted_frac <= loose.alerted_frac);
        assert!(tight.recall <= loose.recall + 1e-9);
        // A moderately tight threshold is a usable alarm against the
        // worst-20% target (the paper reports 65%+ at threshold 0.6).
        assert!(
            tight.accuracy >= 0.4,
            "tight accuracy {} too low to be a usable alert",
            tight.accuracy
        );
    }

    #[test]
    fn threaded_sweep_is_bit_identical_to_serial() {
        let s = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(120).build(17);
        let m = s.matrix();
        let emb = embed(m, 17);
        let sev = Severity::compute(m, 0);
        let ts: Vec<f64> = (0..=20).map(|i| i as f64 * 0.05).collect();
        let serial = accuracy_recall_sweeps(&emb, m, &sev, &[0.1], &ts, 1).remove(0);
        for threads in [2usize, 4, 7] {
            let par = accuracy_recall_sweeps(&emb, m, &sev, &[0.1], &ts, threads).remove(0);
            assert_eq!(par.len(), serial.len());
            for (p, s) in par.iter().zip(&serial) {
                assert_eq!(p.accuracy.to_bits(), s.accuracy.to_bits());
                assert_eq!(p.recall.to_bits(), s.recall.to_bits());
                assert_eq!(p.alerted_frac.to_bits(), s.alerted_frac.to_bits());
            }
        }
    }

    /// The one-fraction sweep as it stood before the shared ranking: a
    /// `HashSet` of the worst edges, probed for every alerted edge.
    fn sweep_reference(
        emb: &Embedding,
        m: &DelayMatrix,
        sev: &Severity,
        worst_frac: f64,
        thresholds: &[f64],
    ) -> Vec<AlertQuality> {
        let worst: std::collections::HashSet<(NodeId, NodeId)> =
            sev.worst_edges(m, worst_frac).into_iter().collect();
        let ratios: Vec<(NodeId, NodeId, f64)> = m
            .edges()
            .filter(|&(_, _, d)| d > 0.0)
            .map(|(i, j, d)| (i, j, emb.predicted(i, j) / d))
            .collect();
        thresholds
            .iter()
            .map(|&t| {
                let alerted: Vec<_> = ratios.iter().filter(|&&(_, _, r)| r < t).collect();
                let hits = alerted.iter().filter(|&&&(i, j, _)| worst.contains(&(i, j))).count();
                AlertQuality {
                    threshold: t,
                    worst_frac,
                    accuracy: if alerted.is_empty() {
                        1.0
                    } else {
                        hits as f64 / alerted.len() as f64
                    },
                    recall: if worst.is_empty() { 1.0 } else { hits as f64 / worst.len() as f64 },
                    alerted_frac: alerted.len() as f64 / ratios.len().max(1) as f64,
                }
            })
            .collect()
    }

    fn same_bits(got: &[AlertQuality], want: &[AlertQuality], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (g, w) in got.iter().zip(want) {
            let bits = |q: &AlertQuality| {
                [q.threshold, q.worst_frac, q.accuracy, q.recall, q.alerted_frac].map(f64::to_bits)
            };
            assert_eq!(bits(g), bits(w), "{what}, threshold {}", w.threshold);
        }
    }

    #[test]
    fn multi_fraction_sweep_matches_one_sweep_per_fraction() {
        // Tiny scale's DS² (150 nodes), three seeds; the fractions are
        // figures 20/21's plus the edges of the range, where the worst
        // set runs deep into the tied zero severities. Seed 3 also has
        // zero delays, which never alert and are not counted as
        // alertable edges.
        let fracs = [0.01, 0.05, 0.10, 0.20, 0.0, 0.5, 1.0];
        let ts: Vec<f64> = (0..=20).map(|i| i as f64 * 0.05).chain([1.5, 4.0]).collect();
        for seed in [42, 7, 3] {
            let s = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(150).build(seed);
            let mut m = s.matrix().clone();
            if seed == 3 {
                for (i, j, _) in s.matrix().edges().filter(|&(i, j, _)| (i + 2 * j) % 37 == 0) {
                    m.set(i, j, 0.0);
                }
            }
            let m = &m;
            let emb = embed(m, seed);
            let sev = Severity::compute(m, 0);
            for threads in [1, 3] {
                let all = accuracy_recall_sweeps(&emb, m, &sev, &fracs, &ts, threads);
                assert_eq!(all.len(), fracs.len());
                for (got, &frac) in all.iter().zip(&fracs) {
                    let what = format!("seed {seed}, fraction {frac}, {threads} threads");
                    let one =
                        accuracy_recall_sweeps(&emb, m, &sev, &[frac], &ts, threads).remove(0);
                    same_bits(got, &one, &what);
                    same_bits(got, &sweep_reference(&emb, m, &sev, frac, &ts), &what);
                }
            }
        }
    }

    #[test]
    fn sweep_handles_empty_alert_set() {
        let s = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(50).build(13);
        let m = s.matrix();
        let emb = embed(m, 13);
        let sev = Severity::compute(m, 0);
        let sweep = accuracy_recall_sweep(&emb, m, &sev, 0.1, &[0.0]);
        // Threshold 0 alerts nothing (strict comparison).
        assert_eq!(sweep[0].alerted_frac, 0.0);
        assert_eq!(sweep[0].recall, 0.0);
        assert_eq!(sweep[0].accuracy, 1.0); // vacuous precision
    }

    #[test]
    #[should_panic(expected = "bad threshold")]
    fn invalid_threshold_rejected() {
        TivAlert::new(f64::NAN);
    }
}
