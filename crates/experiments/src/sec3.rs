//! Section 3 experiments: how TIVs break Vivaldi and Meridian
//! (Figures 10–14).

use crate::figure::{Figure, Series};
use crate::lab::Lab;
use crate::penalty::{meridian_penalty_cdf, MeridianPenalty};
use crate::scale::ExperimentScale;
use delayspace::matrix::DelayMatrix;
use delayspace::synth::Dataset;
use meridian::{
    closest_neighbor, misplacement_by_delay, BuildOptions, MeridianConfig, MeridianOverlay,
    Termination,
};
use simnet::net::{JitterModel, Network};
use vivaldi::{EdgeTrace, OscillationTracker, VivaldiConfig, VivaldiSystem};

/// The 3-node TIV network of Section 3.2.1: d(A,B) = d(B,C) = 5 ms,
/// d(C,A) = 100 ms.
pub fn tiv_triangle() -> DelayMatrix {
    let mut m = DelayMatrix::new(3);
    m.set(0, 1, 5.0);
    m.set(1, 2, 5.0);
    m.set(2, 0, 100.0);
    m
}

/// Figure 10: Vivaldi error trace on the 3-node TIV network over 100 s.
pub fn fig10(lab: &Lab) -> Figure {
    let m = tiv_triangle();
    let rounds = 100;
    let mut sys = VivaldiSystem::new(
        VivaldiConfig { neighbors: 2, ..VivaldiConfig::default() },
        3,
        lab.seed(),
    );
    let mut net = Network::new(&m, JitterModel::None, lab.seed());
    // Per-step sampling: at the TIV equilibrium the per-round snapshots
    // form a limit cycle whose swing only shows between steps.
    let mut trace = EdgeTrace::new(vec![(0, 1), (1, 2), (2, 0)]);
    sys.run_steps_observed(&mut net, rounds, |_, s| trace.record(s));
    let steps_per_round = 3.0;

    let mut fig = Figure::new(
        "fig10",
        "Vivaldi error trace for a simple 3-node network with TIV",
        "simulation time (s)",
        "error = predicted − measured (ms)",
    );
    for (e, label) in [(0, "edge A-B"), (1, "edge B-C"), (2, "edge C-A")] {
        let errs = trace.errors(e, &m);
        fig.series.push(Series::new(
            label,
            errs.iter()
                .enumerate()
                .map(|(t, &v)| ((t as f64 + 1.0) / steps_per_round, v))
                .collect(),
        ));
    }
    // Endless oscillation: late-window errors keep swinging between
    // steps, and residuals never reach zero.
    let ca = trace.errors(2, &m);
    let late = &ca[ca.len() - 60..];
    let swing = late.iter().cloned().fold(f64::MIN, f64::max)
        - late.iter().cloned().fold(f64::MAX, f64::min);
    let resid = late.iter().map(|e| e.abs()).fold(f64::MAX, f64::min);
    fig.notes.push(format!(
        "late-window (last 20 s) per-step swing of edge C-A: {swing:.1} ms, \
         residual error never below {resid:.1} ms — no TIV-consistent \
         placement exists, as in the paper"
    ));
    fig
}

/// Figure 11: distribution of per-edge oscillation range versus edge
/// delay on DS² over a 500 s run.
pub fn fig11(lab: &Lab) -> Figure {
    let space = lab.space(Dataset::Ds2);
    let m = space.matrix();
    let rounds = lab.scale().oscillation_rounds();
    let mut sys = VivaldiSystem::new(VivaldiConfig::default(), m.len(), lab.seed());
    let mut net = Network::new(m, JitterModel::None, lab.seed());
    // Warm up to steady state first (the paper measures oscillation of
    // the converged system).
    sys.run_rounds(&mut net, lab.scale().embed_rounds());
    let mut osc = OscillationTracker::sampled(m, 40_000, lab.seed());
    let stats = sys.run_rounds_observed(&mut net, rounds, |_, s| osc.record(s));
    let bins = osc.by_delay_bins(m, 10.0, 1000.0);

    let movement = stats.movement_percentiles();
    let mut fig = Figure::new(
        "fig11",
        "Distribution of the oscillation range of all the edges",
        "delay (ms)",
        "oscillation range (ms), median with 10th–90th",
    )
    .with_series(Series::from_binned("median oscillation range", &bins));
    if let Some(p) = movement {
        fig.notes.push(format!(
            "movement speed: median {:.2} ms/step, p90 {:.2} ms/step \
             (paper: 1.61 / 6.18 ms per step)",
            p.p50, p.p90
        ));
    }
    // Short edges oscillate too (the paper: a 10 ms edge can vary by
    // 175 ms).
    if let Some(short) = bins.bins.iter().find(|b| b.stats.is_some()) {
        let s = short.stats.unwrap();
        fig.notes.push(format!(
            "shortest populated bin ({:.0}–{:.0} ms): median range {:.1} ms, p90 {:.1} ms",
            short.lo, short.hi, s.p50, s.p90
        ));
    }
    fig
}

/// Figure 12: the worked Meridian failure example. Reproduces the exact
/// 4-node topology of the paper's figure and demonstrates that the
/// recursive query misses the true closest node N.
pub fn fig12(lab: &Lab) -> Figure {
    // Ids: A=0, B=1, N=2, T=3 — delays from the figure.
    let mut m = DelayMatrix::new(4);
    m.set(0, 3, 12.0); // A-T
    m.set(0, 1, 4.0); // A-B
    m.set(0, 2, 25.0); // A-N
    m.set(1, 3, 2.0); // B-T
    m.set(1, 2, 11.0); // B-N
    m.set(2, 3, 1.0); // N-T
    let mut net = Network::new(&m, JitterModel::None, lab.seed());
    let overlay = MeridianOverlay::build(
        MeridianConfig::default(),
        vec![0, 1, 2],
        &mut net,
        lab.seed(),
        &BuildOptions::default(),
    );
    let res = closest_neighbor(&overlay, &mut net, 0, 3, Termination::Beta)
        .expect("entry probe measurable");

    let edges =
        [("A-T", 12.0), ("A-B", 4.0), ("A-N", 25.0), ("B-T", 2.0), ("B-N", 11.0), ("N-T", 1.0)];
    let mut fig = Figure::new(
        "fig12",
        "Worked example: TIV-induced Meridian failure",
        "edge index",
        "delay (ms)",
    )
    .with_series(Series::new(
        "topology delays",
        edges.iter().enumerate().map(|(i, &(_, d))| (i as f64, d)).collect(),
    ));
    let names = ["A", "B", "N", "T"];
    fig.notes.push(format!(
        "query from A for target T selected {} at {} ms; true closest is N at 1 ms — {}",
        names[res.selected],
        res.selected_delay,
        if res.selected == 2 { "unexpectedly found" } else { "missed due to TIV, as in the paper" }
    ));
    fig
}

/// Figure 13: percentage of Meridian ring members misplaced versus pair
/// delay, for β ∈ {0.1, 0.5, 0.9}.
pub fn fig13(lab: &Lab) -> Figure {
    let space = lab.space(Dataset::Ds2);
    let m = space.matrix();
    let samples = match lab.scale() {
        ExperimentScale::Tiny => 2_000,
        ExperimentScale::Small => 20_000,
        ExperimentScale::Paper => 60_000,
    };
    let mut fig = Figure::new(
        "fig13",
        "Percentage of Meridian ring members misplaced",
        "delay (ms)",
        "fraction of neighborhood misplaced",
    );
    for beta in [0.1, 0.5, 0.9] {
        let bins = misplacement_by_delay(m, beta, samples, lab.seed(), 50.0, 1000.0);
        fig.series.push(Series::from_binned(format!("beta = {beta}"), &bins));
    }
    fig.notes.push(
        "larger beta tolerates more TIV but costs probes; beta=0.5 leaves \
         frequent placement errors (paper: 10–30% below 400 ms, worse beyond)"
            .to_string(),
    );
    fig
}

/// Shared Meridian-experiment configuration for the idealized setting
/// (Figures 14 and 25): a small overlay where every node rings every
/// other member (k = members), termination disabled when requested.
fn all_members_config(members: usize) -> MeridianConfig {
    MeridianConfig { k: members, ..MeridianConfig::default() }
}

/// Plain Meridian's penalty run on `ds` in the idealized setting:
/// every member rings every other, and termination is disabled.
fn ideal_meridian(lab: &Lab, ds: Dataset) -> MeridianPenalty {
    let space = lab.space(ds);
    let members = lab.scale().meridian_small_members();
    let cfg = all_members_config(members);
    meridian_penalty_cdf(
        space.matrix(),
        |net, mset, bseed| MeridianOverlay::build(cfg, mset, net, bseed, &BuildOptions::default()),
        |ov, net, start, target| closest_neighbor(ov, net, start, target, Termination::None),
        members,
        lab.scale().runs(),
        lab.seed(),
    )
}

/// The idealized run on DS² (Figure 14's DS² series and Figure 25's
/// "Meridian-no-termination"), computed once per lab by whichever of
/// the two asks first.
pub fn ideal_meridian_ds2(lab: &Lab) -> &MeridianPenalty {
    lab.ideal_meridian_ds2.get_or_init(|| ideal_meridian(lab, Dataset::Ds2))
}

/// Figure 14: Meridian neighbor-selection penalty under idealized
/// settings on an artificial Euclidean matrix versus DS².
pub fn fig14(lab: &Lab) -> Figure {
    let mut fig = Figure::new(
        "fig14",
        "Neighbor selection performance of Meridian with ideal settings",
        "percentage penalty",
        "cumulative distribution",
    );
    let euclidean = ideal_meridian(lab, Dataset::Euclidean);
    for (ds, out) in [(Dataset::Euclidean, &euclidean), (Dataset::Ds2, ideal_meridian_ds2(lab))] {
        fig.notes.push(format!(
            "{}: exact-neighbor fraction {:.3}, mean penalty {:.1}%, p99 {:.1}% \
             (paper: near-perfect on Euclidean, ~13% misses on DS²)",
            ds.name(),
            out.exact_fraction,
            out.penalties.mean(),
            out.penalties.quantile(0.99)
        ));
        fig.series.push(Series::from_cdf(
            format!("Meridian-{}-data", ds.name()),
            &out.penalties,
            120,
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
    fn fig10_shows_persistent_error() {
        let fig = fig10(&lab());
        assert_eq!(fig.series.len(), 3);
        // The long edge C-A must at some point be far under-predicted.
        let ca = &fig.series[2];
        assert!(ca.points.iter().any(|&(_, e)| e < -20.0));
    }

    #[test]
    fn fig11_short_edges_oscillate() {
        let fig = fig11(&lab());
        assert_eq!(fig.series.len(), 1);
        assert!(!fig.series[0].points.is_empty());
        // Some oscillation exists.
        assert!(fig.series[0].points.iter().any(|&(_, r)| r > 0.5));
    }

    #[test]
    fn fig12_misses_true_closest() {
        let fig = fig12(&lab());
        assert!(fig.notes[0].contains("missed due to TIV"));
    }

    #[test]
    fn fig13_has_three_beta_series() {
        let fig = fig13(&lab());
        assert_eq!(fig.series.len(), 3);
        // Fractions live in [0, 1].
        for s in &fig.series {
            assert!(s.points.iter().all(|&(_, y)| (0.0..=1.0).contains(&y)));
        }
    }

    #[test]
    fn fig14_euclidean_beats_ds2() {
        let fig = fig14(&lab());
        assert_eq!(fig.series.len(), 2);
        // Euclidean should reach CDF=1 at a smaller penalty than DS²:
        // compare the maximum penalties.
        let max_eu = fig.series[0].points.iter().map(|p| p.0).fold(f64::MIN, f64::max);
        let max_ds = fig.series[1].points.iter().map(|p| p.0).fold(f64::MIN, f64::max);
        assert!(
            max_eu <= max_ds,
            "Euclidean worst penalty {max_eu} should not exceed DS² {max_ds}"
        );
    }
}
