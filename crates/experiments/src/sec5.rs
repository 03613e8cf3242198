//! Section 5 experiments: the TIV alert mechanism and its applications
//! (Figures 19–25).

use crate::figure::{Figure, Series};
use crate::lab::Lab;
use crate::penalty::{meridian_penalty_cdf, predictor_penalty_cdf};
use crate::scale::ExperimentScale;
use delayspace::stats::Cdf;
use delayspace::synth::Dataset;
use meridian::{closest_neighbor, BuildOptions, MeridianConfig, MeridianOverlay, Termination};
use tivcore::alert::{accuracy_recall_sweeps, ratio_severity_bins};
use tivcore::dynvivaldi::{self, DynVivaldiConfig, IterationRecord};
use tivcore::severity::Severity;
use tivcore::tivmeridian::{build_tiv_aware, tiv_aware_query, TivMeridianConfig};
use vivaldi::VivaldiConfig;

/// Figure 19: TIV severity of edges grouped by embedding prediction
/// ratio.
pub fn fig19(lab: &Lab) -> Figure {
    let space = lab.space(Dataset::Ds2);
    let emb = lab.embedding(Dataset::Ds2);
    let sev = lab.severity(Dataset::Ds2);
    let bins = ratio_severity_bins(&emb, space.matrix(), &sev, 0.1, 5.0);
    Figure::new(
        "fig19",
        "TIV severity for edges with different prediction ratios",
        "Euclidean distance / measured distance",
        "TIV severity (median, 10th–90th)",
    )
    .with_series(Series::from_binned("median TIV severity", &bins))
    .with_note(
        "shrunk edges (ratio « 1) carry the severe TIVs; beyond ratio 2 \
         severity is ≈ 0 — the basis of the alert mechanism"
            .to_string(),
    )
}

/// The threshold grid of the accuracy/recall sweep.
fn thresholds() -> Vec<f64> {
    (1..=20).map(|i| i as f64 * 0.05).collect()
}

/// Figures 20 and 21 share one sweep; this returns (fig20, fig21).
///
/// The pair is built once per lab, by whichever of the two figures is
/// asked for first; the sweep itself is not kept.
pub fn fig20_21(lab: &Lab) -> (Figure, Figure) {
    lab.fig20_21.get_or_init(|| alert_sweep_figures(lab)).clone()
}

/// Runs the accuracy/recall sweep and renders it as (fig20, fig21).
fn alert_sweep_figures(lab: &Lab) -> (Figure, Figure) {
    let space = lab.space(Dataset::Ds2);
    let emb = lab.embedding(Dataset::Ds2);
    let sev = lab.severity(Dataset::Ds2);
    let m = space.matrix();
    let ts = thresholds();
    let mut acc = Figure::new(
        "fig20",
        "Accuracy of TIV alert mechanism",
        "alert ratio threshold",
        "accuracy",
    );
    let mut rec = Figure::new(
        "fig21",
        "Recall rate of TIV alert mechanism",
        "alert ratio threshold",
        "recall",
    );
    let fracs = [0.01, 0.05, 0.10, 0.20];
    let sweeps = accuracy_recall_sweeps(&emb, m, &sev, &fracs, &ts, lab.threads());
    for (worst, sweep) in fracs.into_iter().zip(sweeps) {
        let label = format!("worst {:.0}%", worst * 100.0);
        acc.series.push(Series::new(
            label.clone(),
            sweep.iter().map(|q| (q.threshold, q.accuracy)).collect(),
        ));
        rec.series
            .push(Series::new(label, sweep.iter().map(|q| (q.threshold, q.recall)).collect()));
        // Headline numbers the paper quotes.
        if (worst - 0.01).abs() < 1e-9 {
            if let Some(q) = sweep.iter().find(|q| (q.threshold - 0.10).abs() < 1e-9) {
                acc.notes.push(format!(
                    "threshold 0.1 on worst 1%: accuracy {:.2} (paper: 0.92)",
                    q.accuracy
                ));
            }
        }
        if (worst - 0.20).abs() < 1e-9 {
            if let Some(q) = sweep.iter().find(|q| (q.threshold - 0.60).abs() < 1e-9) {
                acc.notes.push(format!(
                    "threshold 0.6 alerts {:.1}% of edges; {:.0}% of them are in the \
                     worst 20% (paper: ~4% alerted, 65% in worst 20%)",
                    q.alerted_frac * 100.0,
                    q.accuracy * 100.0
                ));
            }
        }
    }
    rec.notes.push(
        "tight thresholds: high accuracy, low recall; relaxing trades one \
         for the other (Section 5.1)"
            .to_string(),
    );
    (acc, rec)
}

/// The dynamic-neighbor iterations the paper plots (plus baseline 0).
const DYN_ITERS: [usize; 4] = [1, 2, 5, 10];

fn dyn_config(scale: ExperimentScale) -> DynVivaldiConfig {
    match scale {
        ExperimentScale::Tiny => DynVivaldiConfig {
            vivaldi: VivaldiConfig { neighbors: 12, ..VivaldiConfig::default() },
            rounds_per_iter: 60,
            sample_extra: 12,
        },
        _ => DynVivaldiConfig::default(),
    }
}

/// Runs dynamic-neighbor Vivaldi once and returns the records for
/// iterations {0} ∪ DYN_ITERS.
fn dyn_records(lab: &Lab) -> Vec<IterationRecord> {
    let space = lab.space(Dataset::Ds2);
    let cfg = dyn_config(lab.scale());
    let max_iter = *DYN_ITERS.last().unwrap();
    dynvivaldi::run(space.matrix(), &cfg, max_iter, lab.seed())
}

/// Figures 22 and 23 from one dynamic-neighbor run, built once per lab
/// by whichever of the two is asked for first; the records (one
/// embedding per iteration) are dropped once both figures exist.
fn dyn_figures(lab: &Lab) -> &(Figure, Figure) {
    lab.fig22_23.get_or_init(|| {
        let records = dyn_records(lab);
        (fig22_from(lab, &records), fig23_from(lab, &records))
    })
}

/// The plotted iterations with their series labels, baseline first.
fn dyn_series() -> impl Iterator<Item = (usize, String)> {
    std::iter::once(0).chain(DYN_ITERS).map(|iter| {
        let label = if iter == 0 {
            "Vivaldi-original".to_string()
        } else {
            format!("dyn-neigh-iter{iter}")
        };
        (iter, label)
    })
}

/// The TIV severities of one iteration's Vivaldi neighbor edges.
fn neighbor_edge_severity(rec: &IterationRecord, sev: &Severity) -> Cdf {
    Cdf::from_samples(rec.neighbor_edges.iter().filter_map(|&(i, j)| sev.severity(i, j)))
}

/// Figure 22: TIV severity CDF of Vivaldi neighbor edges across
/// dynamic-neighbor iterations.
pub fn fig22(lab: &Lab) -> Figure {
    dyn_figures(lab).0.clone()
}

/// Renders Figure 22 from the dynamic-neighbor records.
fn fig22_from(lab: &Lab, records: &[IterationRecord]) -> Figure {
    let sev = lab.severity(Dataset::Ds2);
    let mut fig = Figure::new(
        "fig22",
        "TIV severity of Vivaldi neighbor edges",
        "TIV severity",
        "cumulative distribution",
    );
    for (iter, label) in dyn_series() {
        let cdf = neighbor_edge_severity(&records[iter], &sev);
        fig.notes.push(format!("{label}: mean neighbor-edge severity {:.4}", cdf.mean()));
        fig.series.push(Series::from_cdf(label, &cdf, 100));
    }
    fig.notes.push(
        "severity of the spring set shrinks iteration over iteration — the \
         alert mechanism is purging TIV edges (paper Figure 22)"
            .to_string(),
    );
    fig
}

/// Figure 23: neighbor selection penalty of dynamic-neighbor Vivaldi.
pub fn fig23(lab: &Lab) -> Figure {
    dyn_figures(lab).1.clone()
}

/// Renders Figure 23 from the dynamic-neighbor records.
fn fig23_from(lab: &Lab, records: &[IterationRecord]) -> Figure {
    let space = lab.space(Dataset::Ds2);
    let m = space.matrix();
    let mut fig = Figure::new(
        "fig23",
        "Neighbor selection performance of dynamic neighbor Vivaldi",
        "percentage penalty",
        "cumulative distribution",
    );
    for (iter, label) in dyn_series() {
        let emb = &records[iter].embedding;
        let cdf = predictor_penalty_cdf(
            m,
            |client, cands| emb.select_nearest(client, cands),
            lab.scale().candidates(),
            lab.scale().runs(),
            lab.seed(),
        );
        fig.notes.push(format!("{label}: median penalty {:.1}%", cdf.median()));
        fig.series.push(Series::from_cdf(label, &cdf, 120));
    }
    fig
}

/// Figure 24: TIV-aware Meridian in the normal setting (half the nodes
/// are Meridian nodes, k = 16, β = 0.5).
pub fn fig24(lab: &Lab) -> Figure {
    let space = lab.space(Dataset::Ds2);
    let emb = lab.embedding(Dataset::Ds2);
    let m = space.matrix();
    let members = lab.scale().meridian_members(Dataset::Ds2);
    let runs = lab.scale().runs();
    let cfg = MeridianConfig::default();
    let tiv_cfg = TivMeridianConfig { base: cfg, ..Default::default() };

    let original = crate::sec4::meridian_original(lab);
    let aware = meridian_penalty_cdf(
        m,
        |net, mset, bseed| build_tiv_aware(&tiv_cfg, mset, &emb, net, bseed, None),
        |ov, net, s, t| tiv_aware_query(ov, &emb, net, s, t, &tiv_cfg),
        members,
        runs,
        lab.seed(),
    );
    let overhead = (aware.probes_per_query / original.probes_per_query.max(1e-9) - 1.0) * 100.0;

    Figure::new(
        "fig24",
        "Neighbor selection result of Meridian using TIV alert (normal setting)",
        "percentage penalty",
        "cumulative distribution",
    )
    .with_series(Series::from_cdf("Meridian-original", &original.penalties, 120))
    .with_series(Series::from_cdf("Meridian-TIV-alert", &aware.penalties, 120))
    .with_note(format!(
        "mean penalty: original {:.1}% vs TIV-alert {:.1}% (p90 {:.1}% vs {:.1}%); \
         exact fraction {:.3} → {:.3}",
        original.penalties.mean(),
        aware.penalties.mean(),
        original.penalties.quantile(0.9),
        aware.penalties.quantile(0.9),
        original.exact_fraction,
        aware.exact_fraction
    ))
    .with_note(format!("on-demand probing overhead: {overhead:+.1}% (paper: about +6%)"))
}

/// Figure 25: TIV-aware Meridian in the small all-members setting,
/// compared against the idealized no-termination run.
pub fn fig25(lab: &Lab) -> Figure {
    let space = lab.space(Dataset::Ds2);
    let emb = lab.embedding(Dataset::Ds2);
    let m = space.matrix();
    let members = lab.scale().meridian_small_members();
    let runs = lab.scale().runs();
    let cfg = MeridianConfig { k: members, ..MeridianConfig::default() };
    let tiv_cfg = TivMeridianConfig { base: cfg, ..Default::default() };

    let original = meridian_penalty_cdf(
        m,
        |net, mset, bseed| MeridianOverlay::build(cfg, mset, net, bseed, &BuildOptions::default()),
        |ov, net, s, t| closest_neighbor(ov, net, s, t, Termination::Beta),
        members,
        runs,
        lab.seed(),
    );
    let aware = meridian_penalty_cdf(
        m,
        |net, mset, bseed| build_tiv_aware(&tiv_cfg, mset, &emb, net, bseed, None),
        |ov, net, s, t| tiv_aware_query(ov, &emb, net, s, t, &tiv_cfg),
        members,
        runs,
        lab.seed(),
    );
    let no_term = crate::sec3::ideal_meridian_ds2(lab);
    let overhead = (aware.probes_per_query / original.probes_per_query.max(1e-9) - 1.0) * 100.0;

    Figure::new(
        "fig25",
        "Neighbor selection result of Meridian using TIV alert (all-members setting)",
        "percentage penalty",
        "cumulative distribution",
    )
    .with_series(Series::from_cdf("Meridian-original", &original.penalties, 120))
    .with_series(Series::from_cdf("Meridian-TIV-alert", &aware.penalties, 120))
    .with_series(Series::from_cdf("Meridian-no-termination", &no_term.penalties, 120))
    .with_note(format!(
        "mean penalty: original {:.1}%, TIV-alert {:.1}%, no-termination {:.1}%; \
         exact fraction {:.3} / {:.3} / {:.3}",
        original.penalties.mean(),
        aware.penalties.mean(),
        no_term.penalties.mean(),
        original.exact_fraction,
        aware.exact_fraction,
        no_term.exact_fraction
    ))
    .with_note(format!(
        "on-demand probing overhead of TIV-alert: {overhead:+.1}% (paper: about +5%)"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lab() -> Lab {
        Lab::new(ExperimentScale::Tiny, 42)
    }

    #[test]
    fn fig19_trend_negative() {
        let fig = fig19(&lab());
        let s = &fig.series[0];
        assert!(!s.points.is_empty());
        // Severity at low ratio >= severity at ratio ≈ 1.5.
        let lo = s.points.first().unwrap().1;
        let hi = s.y_near(1.5).unwrap();
        assert!(lo >= hi, "no shrink trend: {lo} vs {hi}");
    }

    #[test]
    fn fig20_21_tradeoff() {
        let (acc, rec) = fig20_21(&lab());
        assert_eq!(acc.series.len(), 4);
        assert_eq!(rec.series.len(), 4);
        // Recall is non-decreasing in the threshold.
        for s in &rec.series {
            for w in s.points.windows(2) {
                assert!(w[1].1 >= w[0].1 - 1e-9, "recall not monotone in {}", s.label);
            }
        }
    }

    #[test]
    fn fig22_severity_decreases() {
        // The paper's claim for Figure 22: each dynamic-neighbor
        // iteration leaves the spring set no more TIV-severe than the
        // one before, and the first already beats plain Vivaldi.
        for seed in [42, 1, 2] {
            let lab = Lab::new(ExperimentScale::Tiny, seed);
            assert_eq!(fig22(&lab).series.len(), 5);
            let sev = lab.severity(Dataset::Ds2);
            let records = dyn_records(&lab);
            let means: Vec<f64> = dyn_series()
                .map(|(iter, _)| neighbor_edge_severity(&records[iter], &sev).mean())
                .collect();
            assert!(means[1] < means[0], "seed {seed}: iter1 not below original: {means:?}");
            for w in means.windows(2) {
                assert!(w[1] <= w[0], "seed {seed}: mean severity rose: {means:?}");
            }
        }
    }

    #[test]
    fn fig23_has_all_iterations() {
        let fig = fig23(&lab());
        assert_eq!(fig.series.len(), 5);
    }

    #[test]
    fn fig24_reports_overhead() {
        let fig = fig24(&lab());
        assert_eq!(fig.series.len(), 2);
        assert!(fig.notes.iter().any(|n| n.contains("overhead")));
    }

    #[test]
    fn fig25_three_variants() {
        let fig = fig25(&lab());
        assert_eq!(fig.series.len(), 3);
    }
}
