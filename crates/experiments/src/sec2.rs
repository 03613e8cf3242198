//! Section 2 experiments: TIV characteristics of Internet delays
//! (Figures 1–9).

use crate::figure::{Figure, Series};
use crate::lab::Lab;
use crate::scale::ExperimentScale;
use delayspace::apsp::ShortestPaths;
use delayspace::cluster::{ClusterConfig, Clustering};
use delayspace::stats::{BinnedStats, Cdf};
use delayspace::synth::Dataset;
use tivcore::severity::{proximity_experiment, triangulation_ratios};

/// Delay-bin width (ms) for severity-vs-length plots at a given scale.
fn bin_ms(scale: ExperimentScale) -> f64 {
    match scale {
        ExperimentScale::Tiny => 50.0,
        _ => 10.0,
    }
}

/// Figure 1: the severity metric illustrated — cumulative distribution
/// of triangulation ratios for one (severely violating) edge. The
/// severity is proportional to the area above ratio = 1.
pub fn fig1(lab: &Lab) -> Figure {
    let space = lab.space(Dataset::Ds2);
    let sev = lab.severity(Dataset::Ds2);
    let m = space.matrix();
    // The most severe edge stands in for the paper's hypothetical edge:
    // the first maximum in `edges()` order, as `Severity::worst_edges`
    // would rank it.
    let (a, c, _) = sev
        .edges(m)
        .filter(|(_, _, s)| !s.is_nan())
        .reduce(|best, e| if e.2.total_cmp(&best.2).is_gt() { e } else { best })
        .expect("DS² has a measured edge");
    let ratios = triangulation_ratios(m, a, c);
    let cdf = Cdf::from_samples(ratios.iter().copied());
    let frac_violating = 1.0 - cdf.eval(1.0);
    Figure::new(
        "fig1",
        "Illustration of the TIV severity metric",
        "triangulation ratio d(A,C)/(d(A,B)+d(B,C))",
        "cumulative distribution",
    )
    .with_series(Series::from_cdf(format!("edge ({a},{c})"), &cdf, 120))
    .with_note(format!(
        "severity({a},{c}) = {:.3}; fraction of witnesses violating (ratio > 1): {:.3}",
        sev.severity(a, c).unwrap_or(0.0),
        frac_violating
    ))
}

/// Figure 2: CDF of TIV severity across the four data sets.
pub fn fig2(lab: &Lab) -> Figure {
    let mut fig = Figure::new(
        "fig2",
        "Cumulative distribution of TIV severity",
        "TIV severity",
        "cumulative distribution",
    );
    for ds in Dataset::measured() {
        let space = lab.space(ds);
        let sev = lab.severity(ds);
        let cdf = sev.cdf(space.matrix());
        fig.notes.push(format!(
            "{}: median {:.4}, p90 {:.4}, max {:.3} — long tail expected",
            ds.name(),
            cdf.median(),
            cdf.quantile(0.9),
            cdf.quantile(1.0)
        ));
        fig.series.push(Series::from_cdf(ds.name(), &cdf, 150));
    }
    fig
}

/// Output of the Figure 3 experiment: the figure (within/cross severity
/// summaries) plus a PGM rendering of the cluster-ordered severity
/// matrix (white = most severe, as in the paper).
pub struct Fig3Output {
    /// Summary figure.
    pub figure: Figure,
    /// P5 (binary) PGM image of the cluster-ordered severity matrix:
    /// a text header, then one byte a pixel.
    pub pgm: Vec<u8>,
}

/// Figure 3: TIV severity by cluster.
pub fn fig3(lab: &Lab) -> Fig3Output {
    let space = lab.space(Dataset::Ds2);
    let sev = lab.severity(Dataset::Ds2);
    let m = space.matrix();
    let clustering = Clustering::compute(m, &ClusterConfig::default());
    let order = clustering.grouped_order();

    // Severity CDFs for within- vs cross-cluster edges.
    let mut within = Vec::new();
    let mut cross = Vec::new();
    for (i, j, s) in sev.edges(m) {
        if clustering.same_cluster(i, j) {
            within.push(s);
        } else {
            cross.push(s);
        }
    }
    let counts = sev.cluster_violation_counts(m, &clustering);
    let figure = Figure::new(
        "fig3",
        "TIV severity by cluster (white = most severe)",
        "TIV severity",
        "cumulative distribution",
    )
    .with_series(Series::from_cdf("within-cluster edges", &Cdf::from_samples(within), 120))
    .with_series(Series::from_cdf("cross-cluster edges", &Cdf::from_samples(cross), 120))
    .with_note(format!(
        "clusters found: {}; mean #TIVs within {:.1} vs across {:.1} (paper: 80 vs 206)",
        clustering.num_clusters(),
        counts.mean_within,
        counts.mean_across
    ));

    // PGM: nodes reordered by cluster, pixel = severity scaled to 0–255.
    let n = order.len();
    let max_sev = sev.edges(m).map(|(_, _, s)| s).fold(0.0f64, f64::max).max(1e-9);
    let mut pgm = format!("P5\n{n} {n}\n255\n").into_bytes();
    pgm.reserve_exact(n * n);
    for &i in &order {
        pgm.extend(order.iter().map(|&j| {
            let v = if i == j { 0.0 } else { sev.severity(i, j).unwrap_or(0.0) };
            ((v / max_sev).sqrt() * 255.0).round() as u8 // sqrt for contrast
        }));
    }
    Fig3Output { figure, pgm }
}

/// Figures 4–7: TIV severity versus edge delay for one data set
/// (fig4 = DS², fig5 = p2psim, fig6 = Meridian, fig7 = PlanetLab).
pub fn fig_severity_vs_delay(lab: &Lab, ds: Dataset) -> Figure {
    let id = match ds {
        Dataset::Ds2 => "fig4",
        Dataset::P2pSim => "fig5",
        Dataset::Meridian => "fig6",
        Dataset::PlanetLab => "fig7",
        Dataset::Euclidean => "fig4-euclidean",
    };
    let space = lab.space(ds);
    let sev = lab.severity(ds);
    let m = space.matrix();
    let bins = sev.by_delay_bins(m, bin_ms(lab.scale()), 1000.0);
    let peak = bins.peak().map(|b| b.mid()).unwrap_or(0.0);
    Figure::new(
        id,
        format!("Relation between delay and TIV severity for {} data", ds.name()),
        "delay (ms)",
        "TIV severity (median, 10th–90th)",
    )
    .with_series(Series::from_binned("median TIV severity", &bins))
    .with_note(format!(
        "peak median severity at ≈ {peak:.0} ms; paper observes a peak near 500–600 ms \
         for DS² and irregular severity at all lengths"
    ))
}

/// Figure 8: fraction of within-cluster edges and shortest-path length
/// versus edge delay (DS²).
pub fn fig8(lab: &Lab) -> Figure {
    let space = lab.space(Dataset::Ds2);
    let m = space.matrix();
    let clustering = Clustering::compute(m, &ClusterConfig::default());
    let bw = bin_ms(lab.scale()).max(20.0);

    // Top panel: fraction of edges that stay within one cluster, by bin
    // (mean of a 0/1 indicator per bin).
    let nbins = (1000.0 / bw).ceil() as usize;
    let mut hits = vec![0usize; nbins];
    let mut totals = vec![0usize; nbins];
    for (i, j, d) in m.edges() {
        let idx = (d / bw) as usize;
        if idx < nbins {
            totals[idx] += 1;
            if clustering.same_cluster(i, j) {
                hits[idx] += 1;
            }
        }
    }
    let within_series = Series::new(
        "fraction within cluster (mean)",
        (0..nbins)
            .filter(|&b| totals[b] > 0)
            .map(|b| ((b as f64 + 0.5) * bw, hits[b] as f64 / totals[b] as f64))
            .collect(),
    );

    // Bottom panel: shortest-path length of each edge, by edge delay.
    let sp = ShortestPaths::compute(m, lab.threads());
    let sp_bins = BinnedStats::build(sp.inflation_ratios(m).map(|(_, _, d, s)| (d, s)), bw, 1000.0);
    let sp_series = Series::from_binned("shortest path length (ms)", &sp_bins);

    // Where does the shortest path "jump"? Find the largest increase in
    // the median between adjacent non-empty bins past 300 ms.
    let med = sp_bins.median_series();
    let jump = med
        .windows(2)
        .filter(|w| w[0].0 >= 300.0)
        .max_by(|a, b| (a[1].1 - a[0].1).total_cmp(&(b[1].1 - b[0].1)))
        .map(|w| w[1].0)
        .unwrap_or(0.0);

    Figure::new(
        "fig8",
        "Shortest path length for edges of DS² data at different delays",
        "delay (ms)",
        "fraction within cluster / shortest path (ms)",
    )
    .with_series(within_series)
    .with_series(sp_series)
    .with_note(format!(
        "largest shortest-path jump past 300 ms occurs near {jump:.0} ms \
         (paper: jump past ≈ 550 ms separates inflated from genuinely far edges)"
    ))
}

/// Figure 9: proximity property of TIVs — severity differences of
/// nearest-pair versus random-pair edges, all four data sets.
pub fn fig9(lab: &Lab) -> Figure {
    let samples = lab.scale().proximity_samples();
    let mut fig = Figure::new(
        "fig9",
        "Proximity property of TIVs",
        "TIV severity difference",
        "cumulative distribution",
    );
    for ds in Dataset::measured() {
        let space = lab.space(ds);
        let sev = lab.severity(ds);
        let prox = proximity_experiment(space.matrix(), &sev, samples, lab.seed());
        fig.notes.push(format!(
            "{}: nearest-pair median diff {:.4} vs random-pair {:.4} — only slightly more similar",
            ds.name(),
            prox.nearest_pair_diffs.median(),
            prox.random_pair_diffs.median()
        ));
        fig.series.push(Series::from_cdf(
            format!("{}-nearest-pair", ds.name()),
            &prox.nearest_pair_diffs,
            100,
        ));
        fig.series.push(Series::from_cdf(
            format!("{}-random-pair", ds.name()),
            &prox.random_pair_diffs,
            100,
        ));
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lab() -> Lab {
        Lab::new(ExperimentScale::Tiny, 42)
    }

    #[test]
    fn fig1_has_ratio_cdf() {
        let fig = fig1(&lab());
        assert_eq!(fig.series.len(), 1);
        assert!(!fig.series[0].points.is_empty());
        // Ratios of a severe edge reach beyond 1.
        assert!(fig.series[0].points.iter().any(|&(x, _)| x > 1.0));
    }

    #[test]
    fn fig2_has_four_long_tailed_cdfs() {
        let fig = fig2(&lab());
        assert_eq!(fig.series.len(), 4);
        for s in &fig.series {
            let max = s.points.iter().map(|p| p.0).fold(f64::MIN, f64::max);
            let med = s.y_near(0.0).unwrap_or(0.0);
            assert!(max > 0.0, "{} has no violations at all", s.label);
            // Most mass near zero: CDF at tiny severity is already large.
            assert!(med >= 0.0);
        }
    }

    #[test]
    fn fig3_pgm_is_well_formed() {
        let out = fig3(&lab());
        let header = b"P5\n150 150\n255\n";
        assert!(out.pgm.starts_with(header));
        assert_eq!(out.pgm.len(), header.len() + 150 * 150);
        assert!(!out.figure.series.is_empty());
    }

    #[test]
    fn fig4_to_7_produce_binned_series() {
        let l = lab();
        for ds in Dataset::measured() {
            let fig = fig_severity_vs_delay(&l, ds);
            assert_eq!(fig.series.len(), 1);
            assert!(fig.series[0].bars.is_some());
            assert!(!fig.series[0].points.is_empty(), "{}: empty", fig.id);
        }
    }

    #[test]
    fn fig8_has_two_series() {
        let fig = fig8(&lab());
        assert_eq!(fig.series.len(), 2);
        // Within-cluster fraction decreases with delay overall.
        let w = &fig.series[0];
        let first = w.points.first().unwrap().1;
        let last = w.points.last().unwrap().1;
        assert!(first >= last, "within-cluster fraction should fall: {first} → {last}");
    }

    #[test]
    fn fig9_nearest_not_dramatically_better() {
        let fig = fig9(&lab());
        assert_eq!(fig.series.len(), 8);
    }
}
