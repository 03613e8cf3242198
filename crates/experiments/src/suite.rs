//! The experiment registry: every reproducible figure by id.

use crate::figure::Figure;
use crate::lab::Lab;
use crate::scale::ExperimentScale;
use crate::{sec2, sec3, sec4, sec5};
use delayspace::synth::Dataset;

/// All experiment ids, in paper order.
pub const ALL_IDS: [&str; 25] = [
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
    "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21",
    "fig22", "fig23", "fig24", "fig25",
];

/// Output of one experiment: the figure plus optional side artifacts
/// (file extension, contents).
pub struct ExperimentOutput {
    /// The regenerated figure.
    pub figure: Figure,
    /// Extra artifacts to write next to the CSV, e.g. the Figure 3 PGM.
    pub artifacts: Vec<(String, Vec<u8>)>,
}

impl From<Figure> for ExperimentOutput {
    fn from(figure: Figure) -> Self {
        ExperimentOutput { figure, artifacts: Vec::new() }
    }
}

/// Runs one experiment by id. Returns `None` for unknown ids.
///
/// Figures 20/21 share one alert sweep and figures 22/23 one
/// dynamic-neighbor Vivaldi run; the first of a pair to run on `lab`
/// builds both figures and the second reads its partner from the lab.
/// Likewise figures 15, 16 and 17 share one Vivaldi baseline, 18 and 24
/// one plain-Meridian run, and 14 and 25 one idealized Meridian run on
/// DS² ([`Lab`] lists every shared result).
pub fn run(id: &str, lab: &Lab) -> Option<ExperimentOutput> {
    let out: ExperimentOutput = match id {
        "fig1" => sec2::fig1(lab).into(),
        "fig2" => sec2::fig2(lab).into(),
        "fig3" => {
            let o = sec2::fig3(lab);
            ExperimentOutput { figure: o.figure, artifacts: vec![("pgm".to_string(), o.pgm)] }
        }
        "fig4" => sec2::fig_severity_vs_delay(lab, Dataset::Ds2).into(),
        "fig5" => sec2::fig_severity_vs_delay(lab, Dataset::P2pSim).into(),
        "fig6" => sec2::fig_severity_vs_delay(lab, Dataset::Meridian).into(),
        "fig7" => sec2::fig_severity_vs_delay(lab, Dataset::PlanetLab).into(),
        "fig8" => sec2::fig8(lab).into(),
        "fig9" => sec2::fig9(lab).into(),
        "fig10" => sec3::fig10(lab).into(),
        "fig11" => sec3::fig11(lab).into(),
        "fig12" => sec3::fig12(lab).into(),
        "fig13" => sec3::fig13(lab).into(),
        "fig14" => sec3::fig14(lab).into(),
        "fig15" => sec4::fig15(lab).into(),
        "fig16" => sec4::fig16(lab).into(),
        "fig17" => sec4::fig17(lab).into(),
        "fig18" => sec4::fig18(lab).into(),
        "fig19" => sec5::fig19(lab).into(),
        "fig20" => sec5::fig20_21(lab).0.into(),
        "fig21" => sec5::fig20_21(lab).1.into(),
        "fig22" => sec5::fig22(lab).into(),
        "fig23" => sec5::fig23(lab).into(),
        "fig24" => sec5::fig24(lab).into(),
        "fig25" => sec5::fig25(lab).into(),
        "ablation-filter" => crate::ablations::filter_fraction_sweep(lab).into(),
        "ablation-dims" => crate::ablations::dimensionality_sweep(lab).into(),
        "ablation-beta" => crate::ablations::beta_sweep(lab).into(),
        "ablation-tivmeridian" => crate::ablations::tiv_meridian_decomposition(lab).into(),
        "ablation-coords" => crate::ablations::coordinate_system_shootout(lab).into(),
        _ => return None,
    };
    Some(out)
}

/// The outcome of one experiment inside a [`run_many`] fan-out.
pub struct RunOutcome {
    /// The experiment id that was requested.
    pub id: String,
    /// The experiment output; `None` for unknown ids.
    pub output: Option<ExperimentOutput>,
    /// Wall-clock seconds this experiment took inside its worker,
    /// including any wait for a shared artifact (a severity matrix, a
    /// figure pair) that another worker was building at the time.
    ///
    /// A shared result is charged to whichever figure asked for it
    /// first: the plain-Meridian run shared by figures 18 and 24 lands
    /// in §4 or §5, and the idealized DS² run shared by figures 14 and
    /// 25 in §3 or §5, depending on which worker got there first. So
    /// per-section sums of these seconds (tivmark's
    /// `experiments.sec*_s`) move between sections from pass to pass.
    pub seconds: f64,
}

/// Runs one experiment by id on `lab` and times it: the timing
/// [`run_many`] and a serial `repro` loop both report. This is the
/// one clock the experiments read; every figure is a pure function of
/// `(scale, seed)`.
pub fn run_timed(id: &str, lab: &Lab) -> RunOutcome {
    let started = std::time::Instant::now();
    let output = run(id, lab);
    RunOutcome { id: id.to_string(), output, seconds: started.elapsed().as_secs_f64() }
}

/// Runs a batch of experiments fanned out over up to `threads` workers
/// ([`tivpar::resolve_threads`] semantics), returning outcomes in input
/// order.
///
/// Every worker shares one [`Lab`], so each per-dataset artifact (delay
/// space, severity matrix, embedding), each figure pair and each result
/// two figures share (the Vivaldi baseline of figures 15–17 and the
/// plain-Meridian runs of figures 18/24 and 14/25) is computed once per
/// batch, by whichever worker asks first, while the others wait for it. The ids are dealt to the pool in fine chunks with work
/// stealing, so a worker that draws cheap figures takes over the
/// remaining ids of one that drew expensive ones. Every figure is a
/// pure function of `(scale, seed)`, so the results are identical to a
/// serial `suite::run` loop at any thread count — only the wall-clock
/// changes.
///
/// The resolved thread budget is *divided*, not stacked: with `w`
/// fan-out workers, the shared lab gets a `budget / w` kernel
/// allowance, so `run_many` never oversubscribes the machine by
/// multiplying experiment-level and kernel-level parallelism.
pub fn run_many(
    ids: &[String],
    scale: ExperimentScale,
    seed: u64,
    threads: usize,
) -> Vec<RunOutcome> {
    let budget = tivpar::resolve_threads(threads);
    let workers = budget.min(ids.len().max(1));
    let inner = (budget / workers.max(1)).max(1);
    let lab = Lab::with_threads(scale, seed, inner);
    tivpar::par_map_rows(ids.len(), workers, |i| run_timed(&ids[i], &lab))
}

/// Ablation experiment ids (DESIGN.md §5), runnable like figure ids.
pub const ABLATION_IDS: [&str; 5] = [
    "ablation-filter",
    "ablation-dims",
    "ablation-beta",
    "ablation-tivmeridian",
    "ablation-coords",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::ExperimentScale;

    #[test]
    fn unknown_id_is_none() {
        let lab = Lab::new(ExperimentScale::Tiny, 1);
        assert!(run("fig99", &lab).is_none());
    }

    #[test]
    fn ids_are_unique_and_ordered() {
        let mut seen = std::collections::HashSet::new();
        for id in ALL_IDS {
            assert!(seen.insert(id), "duplicate id {id}");
        }
        assert_eq!(ALL_IDS.len(), 25);
    }

    // A smoke test over the cheap experiments; the expensive ones are
    // covered in their own modules and in the integration suite.
    #[test]
    fn run_small_subset() {
        let lab = Lab::new(ExperimentScale::Tiny, 3);
        for id in ["fig1", "fig2", "fig12"] {
            let out = run(id, &lab).unwrap();
            assert_eq!(out.figure.id, id);
            assert!(!out.figure.series.is_empty());
        }
    }

    #[test]
    fn run_many_matches_serial_run() {
        let ids: Vec<String> = ["fig1", "fig12", "fig99"].iter().map(|s| s.to_string()).collect();
        let fanned = run_many(&ids, ExperimentScale::Tiny, 3, 3);
        assert_eq!(fanned.len(), ids.len());
        let lab = Lab::new(ExperimentScale::Tiny, 3);
        for (outcome, id) in fanned.iter().zip(&ids) {
            assert_eq!(&outcome.id, id);
            match (&outcome.output, run(id, &lab)) {
                (Some(got), Some(want)) => {
                    assert_eq!(got.figure.to_csv(), want.figure.to_csv(), "{id} diverged")
                }
                (None, None) => assert_eq!(id, "fig99"),
                _ => panic!("fan-out and serial disagree on {id}"),
            }
        }
    }
}
