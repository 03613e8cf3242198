//! Ablations of the design choices called out in DESIGN.md §5.
//!
//! The paper fixes several knobs (filter fraction 20%, 5-D embedding,
//! β = 0.5, 32+32 dynamic-neighbor pool, dual-ring placement). These
//! sweeps quantify how sensitive the headline results are to each
//! choice; `repro ablations` prints them.

use crate::figure::{Figure, Series};
use crate::lab::Lab;
use crate::penalty::{meridian_penalty_cdf, predictor_penalty_cdf};
use delayspace::rng;
use delayspace::synth::Dataset;
use meridian::{closest_neighbor, BuildOptions, MeridianConfig, MeridianOverlay, Termination};
use simnet::net::{JitterModel, Network};
use tivcore::filter::EdgeMask;
use tivcore::tivmeridian::{build_tiv_aware, tiv_aware_query, TivMeridianConfig};
use vivaldi::{VivaldiConfig, VivaldiSystem};

/// Ablation A1: severity-filter fraction sweep (Section 4.3 fixes 20%).
///
/// Sweeps the fraction of worst-severity edges removed before Vivaldi
/// neighbor selection and reports the median penalty per fraction.
pub fn filter_fraction_sweep(lab: &Lab) -> Figure {
    let space = lab.space(Dataset::Ds2);
    let sev = lab.severity(Dataset::Ds2);
    let m = space.matrix();
    let mut points = Vec::new();
    for frac in [0.0, 0.05, 0.10, 0.20, 0.40] {
        let mask = EdgeMask::worst_severity(m, &sev, frac);
        let cfg = VivaldiConfig::default();
        let mut sys = VivaldiSystem::new(cfg, m.len(), lab.seed());
        let mut r = rng::sub_rng(lab.seed(), "ablation/filter");
        for i in 0..m.len() {
            let allowed: Vec<usize> =
                (0..m.len()).filter(|&j| j != i && mask.allows(i, j)).collect();
            if allowed.is_empty() {
                continue;
            }
            let k = cfg.neighbors.min(allowed.len());
            let picks = rng::sample_indices(&mut r, allowed.len(), k)
                .into_iter()
                .map(|x| allowed[x])
                .collect();
            sys.set_neighbors(i, picks);
        }
        let mut net = Network::new(m, JitterModel::None, lab.seed());
        sys.run_rounds(&mut net, lab.scale().embed_rounds());
        let emb = sys.embedding();
        let cdf = predictor_penalty_cdf(
            m,
            |client, cands| emb.select_nearest(client, cands),
            lab.scale().candidates(),
            lab.scale().runs().min(2),
            lab.seed(),
        );
        points.push((frac * 100.0, cdf.median()));
    }
    let note = format!(
        "paper fixes 20%; median penalty {:.1}% with nothing removed, {:.1}% at 20%, {:.1}% at 40%",
        points[0].1, points[3].1, points[4].1
    );
    Figure::new(
        "ablation-filter",
        "Severity-filter fraction vs Vivaldi selection penalty",
        "fraction of worst edges removed (%)",
        "median percentage penalty",
    )
    .with_series(Series::new("median penalty", points))
    .with_note(note)
}

/// Ablation A2: Vivaldi embedding dimensionality (paper fixes 5-D).
pub fn dimensionality_sweep(lab: &Lab) -> Figure {
    let space = lab.space(Dataset::Ds2);
    let m = space.matrix();
    let mut err_pts = Vec::new();
    let mut pen_pts = Vec::new();
    for dims in [2usize, 3, 5, 7, 9] {
        let cfg = VivaldiConfig { dims, ..VivaldiConfig::default() };
        let mut sys = VivaldiSystem::new(cfg, m.len(), lab.seed());
        let mut net = Network::new(m, JitterModel::None, lab.seed());
        sys.run_rounds(&mut net, lab.scale().embed_rounds());
        let emb = sys.embedding();
        err_pts.push((dims as f64, emb.abs_error_cdf(m).median()));
        let cdf = predictor_penalty_cdf(
            m,
            |client, cands| emb.select_nearest(client, cands),
            lab.scale().candidates(),
            lab.scale().runs().min(2),
            lab.seed(),
        );
        pen_pts.push((dims as f64, cdf.median()));
    }
    Figure::new(
        "ablation-dims",
        "Embedding dimensionality vs accuracy and selection penalty",
        "dimensions",
        "ms / percentage penalty",
    )
    .with_series(Series::new("median |error| (ms)", err_pts))
    .with_series(Series::new("median penalty (%)", pen_pts))
    .with_note(
        "extra dimensions cannot absorb TIVs — the residual is non-metric, \
         not higher-dimensional"
            .to_string(),
    )
}

/// Ablation A3: Meridian β sweep beyond Figure 13 — penalty and probe
/// cost at β ∈ {0.1, 0.3, 0.5, 0.7, 0.9}.
pub fn beta_sweep(lab: &Lab) -> Figure {
    let space = lab.space(Dataset::Ds2);
    let m = space.matrix();
    let members = lab.scale().meridian_members(Dataset::Ds2);
    let mut pen = Vec::new();
    let mut probes = Vec::new();
    for beta in [0.1, 0.3, 0.5, 0.7, 0.9] {
        let cfg = MeridianConfig { beta, ..MeridianConfig::default() };
        let out = meridian_penalty_cdf(
            m,
            |net, mset, bseed| {
                MeridianOverlay::build(cfg, mset, net, bseed, &BuildOptions::default())
            },
            |ov, net, s, t| closest_neighbor(ov, net, s, t, Termination::Beta),
            members,
            lab.scale().runs().min(2),
            lab.seed(),
        );
        pen.push((beta, out.penalties.mean()));
        probes.push((beta, out.probes_per_query));
    }
    Figure::new(
        "ablation-beta",
        "Meridian acceptance threshold: selection quality vs probing cost",
        "beta",
        "mean penalty (%) / probes per query",
    )
    .with_series(Series::new("mean penalty (%)", pen))
    .with_series(Series::new("probes per query", probes))
    .with_note("larger beta masks TIV misplacement but pays probes (Section 3.2.2)".to_string())
}

/// Ablation A4: TIV-aware Meridian mechanism decomposition — dual
/// placement only, restart only, both (Section 5.3 deploys both).
pub fn tiv_meridian_decomposition(lab: &Lab) -> Figure {
    let space = lab.space(Dataset::Ds2);
    let emb = lab.embedding(Dataset::Ds2);
    let m = space.matrix();
    let members = lab.scale().meridian_members(Dataset::Ds2);
    let runs = lab.scale().runs().min(2);
    let cfg = TivMeridianConfig::default();
    let base = cfg.base;

    let mut fig = Figure::new(
        "ablation-tivmeridian",
        "TIV-aware Meridian: which half of the mechanism helps?",
        "variant index",
        "mean percentage penalty",
    );
    let mut points = Vec::new();
    let variants: [(&str, bool, bool); 4] = [
        ("plain", false, false),
        ("dual-placement only", true, false),
        ("restart only", false, true),
        ("both (paper)", true, true),
    ];
    for (idx, &(label, dual, restart)) in variants.iter().enumerate() {
        let out = meridian_penalty_cdf(
            m,
            |net, mset, bseed| {
                if dual {
                    build_tiv_aware(&cfg, mset, &emb, net, bseed, None)
                } else {
                    MeridianOverlay::build(base, mset, net, bseed, &BuildOptions::default())
                }
            },
            |ov, net, s, t| {
                if restart {
                    tiv_aware_query(ov, &emb, net, s, t, &cfg)
                } else {
                    closest_neighbor(ov, net, s, t, Termination::Beta)
                }
            },
            members,
            runs,
            lab.seed(),
        );
        points.push((idx as f64, out.penalties.mean()));
        fig.notes.push(format!(
            "{label}: mean penalty {:.2}%, exact {:.3}, probes/query {:.1}",
            out.penalties.mean(),
            out.exact_fraction,
            out.probes_per_query
        ));
    }
    fig.series.push(Series::new("mean penalty", points));
    fig
}

/// Ablation A5: one selection task, every coordinate/prediction system
/// in the workspace — Vivaldi, Vivaldi+height, GNP, LAT, landmark IDES,
/// and the measured-delay oracle. All metric systems share the TI
/// assumption, so all pay the TIV tax; the column worth reading is the
/// gap to the oracle.
pub fn coordinate_system_shootout(lab: &Lab) -> Figure {
    use ides::IdesModel;
    use vivaldi::{GnpConfig, GnpModel, LatModel};
    let space = lab.space(Dataset::Ds2);
    let m = space.matrix();
    let candidates = lab.scale().candidates();
    let runs = lab.scale().runs().min(2);
    let seed = lab.seed();

    let mut fig = Figure::new(
        "ablation-coords",
        "Every delay predictor on the same neighbor-selection task",
        "system index",
        "median percentage penalty",
    );
    let mut points: Vec<(f64, f64)> = Vec::new();
    // Each predictor is scored on the selection penalty *and* on the
    // application-oriented metrics of Lua et al. [13]: median relative
    // error (the aggregate-accuracy number papers usually report),
    // relative rank loss, and closest-neighbor loss. The interesting
    // column pairings are rel-err vs cn-loss: aggregate accuracy does
    // not order systems the way selection quality does.
    let push = |fig: &mut Figure,
                points: &mut Vec<(f64, f64)>,
                label: &str,
                predict: &dyn Fn(usize, usize) -> f64,
                select: &mut dyn FnMut(usize, &[usize]) -> Option<usize>| {
        let cdf = predictor_penalty_cdf(m, select, candidates, runs, seed);
        let met = tivcore::metrics::evaluate(m, predict, 2_000, seed);
        fig.notes.push(format!(
            "{label}: median penalty {:.1}%, rel-err {:.2}, rank-loss {:.3}, cn-loss {:.3}",
            cdf.median(),
            met.median_rel_error,
            met.rank_loss,
            met.cn_loss
        ));
        points.push((points.len() as f64, cdf.median()));
    };

    let emb = lab.embedding(Dataset::Ds2);
    let emb2 = emb.clone();
    push(
        &mut fig,
        &mut points,
        "Vivaldi (5-D)",
        &move |i, j| emb2.predicted(i, j),
        &mut |c, cands| emb.select_nearest(c, cands),
    );

    let height_emb = {
        let cfg = VivaldiConfig { use_height: true, ..VivaldiConfig::default() };
        let mut sys = VivaldiSystem::new(cfg, m.len(), seed);
        let mut net = Network::new(m, JitterModel::None, seed);
        sys.run_rounds(&mut net, lab.scale().embed_rounds());
        sys.embedding()
    };
    let height_emb2 = height_emb.clone();
    push(
        &mut fig,
        &mut points,
        "Vivaldi (5-D + height)",
        &move |i, j| height_emb2.predicted(i, j),
        &mut |c, cands| height_emb.select_nearest(c, cands),
    );

    let gnp = GnpModel::fit(m, &GnpConfig::default(), seed);
    let gnp2 = gnp.clone();
    push(
        &mut fig,
        &mut points,
        "GNP (15 landmarks)",
        &move |i, j| gnp2.predicted(i, j),
        &mut |c, cands| gnp.select_nearest(c, cands),
    );

    let lat = LatModel::fit((*emb).clone(), m, 32, seed);
    let lat2 = lat.clone();
    push(
        &mut fig,
        &mut points,
        "Vivaldi + LAT",
        &move |i, j| lat2.predicted(i, j),
        &mut |c, cands| lat.select_nearest(c, cands),
    );

    let ides = IdesModel::fit_landmarks(m, 10, 20, seed);
    let ides2 = ides.clone();
    push(
        &mut fig,
        &mut points,
        "IDES (20 landmarks)",
        &move |i, j| ides2.predicted(i, j),
        &mut |c, cands| ides.select_nearest(c, cands),
    );

    push(
        &mut fig,
        &mut points,
        "oracle (measured delays)",
        &|i, j| m.get(i, j).unwrap_or(f64::MAX),
        &mut |c, cands| m.nearest_among(c, cands.iter()).map(|(x, _)| x),
    );

    fig.series.push(Series::new("median penalty", points));
    fig
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::ExperimentScale;

    fn lab() -> Lab {
        Lab::new(ExperimentScale::Tiny, 42)
    }

    #[test]
    fn filter_sweep_covers_fractions() {
        let fig = filter_fraction_sweep(&lab());
        assert_eq!(fig.series[0].points.len(), 5);
        assert_eq!(fig.series[0].points[0].0, 0.0);
    }

    #[test]
    fn filter_sweep_note_quotes_its_series() {
        let fig = filter_fraction_sweep(&lab());
        let pts = &fig.series[0].points;
        assert_eq!(pts[3].0, 20.0);
        let note = &fig.notes[0];
        for want in [
            format!("{:.1}% with nothing removed", pts[0].1),
            format!("{:.1}% at 20%", pts[3].1),
            format!("{:.1}% at 40%", pts[4].1),
        ] {
            assert!(note.contains(&want), "note {note:?} lacks {want:?}");
        }
    }

    #[test]
    fn dims_sweep_has_two_series() {
        let fig = dimensionality_sweep(&lab());
        assert_eq!(fig.series.len(), 2);
        assert_eq!(fig.series[0].points.len(), 5);
    }

    #[test]
    fn beta_sweep_probe_cost_increases() {
        let fig = beta_sweep(&lab());
        let probes = &fig.series[1].points;
        assert!(
            probes.last().unwrap().1 > probes.first().unwrap().1,
            "larger beta must probe more: {probes:?}"
        );
    }

    #[test]
    fn decomposition_has_four_variants() {
        let fig = tiv_meridian_decomposition(&lab());
        assert_eq!(fig.series[0].points.len(), 4);
        assert_eq!(fig.notes.len(), 4);
    }

    #[test]
    fn shootout_includes_oracle_as_lower_bound() {
        let fig = coordinate_system_shootout(&lab());
        assert_eq!(fig.series[0].points.len(), 6);
        // The oracle (last entry) has penalty 0 and is minimal.
        let pens: Vec<f64> = fig.series[0].points.iter().map(|p| p.1).collect();
        let oracle = *pens.last().unwrap();
        assert_eq!(oracle, 0.0);
        assert!(pens.iter().all(|&p| p >= oracle));
    }
}
