//! The experiment laboratory: cached per-dataset artifacts.
//!
//! Many figures share expensive intermediates — the synthetic delay
//! space, its O(n³) severity matrix, a steady-state Vivaldi embedding.
//! [`Lab`] computes each lazily, once, keyed by data set, so `repro all`
//! does not recompute severity 15 times. "Once" holds across threads:
//! `Lab` is `Sync`, every accessor takes `&self`, and a worker that asks
//! for an artifact another worker is still building waits for it rather
//! than building its own. [`crate::suite::run_many`] shares one lab
//! between all of its workers.
//!
//! Beside the artifacts, the lab keeps each result that more than one
//! figure computes identically, so a pass computes it once:
//!
//! | Shared result | Figures | Cached as |
//! |---|---|---|
//! | accuracy/recall sweep | 20, 21 | both finished figures |
//! | dynamic-neighbor Vivaldi run | 22, 23 | both finished figures |
//! | Vivaldi-original penalty CDF on DS² | 15, 16, 17 | its [`Cdf`] |
//! | worst-20% severity mask on DS² | 17, 18 | its [`EdgeMask`] |
//! | plain Meridian, normal setting, on DS² | 18, 24 | its [`MeridianPenalty`] |
//! | plain Meridian, idealized setting, on DS² | 14, 25 | its [`MeridianPenalty`] |
//!
//! Whichever figure asks first computes the result; the rest read it.
//! Only results are kept, never their inputs: the sweep and the
//! per-iteration records behind figures 20–23 are dropped once the
//! figures exist, because keeping them for a whole pass would hold
//! every iteration's embedding resident.

use crate::figure::Figure;
use crate::penalty::MeridianPenalty;
use crate::scale::ExperimentScale;
use delayspace::stats::Cdf;
use delayspace::synth::{Dataset, InternetDelaySpace};
use simnet::net::{JitterModel, Network};
use std::sync::{Arc, OnceLock};
use tivcore::filter::EdgeMask;
use tivcore::severity::Severity;
use vivaldi::{Embedding, VivaldiConfig, VivaldiSystem};

/// The artifacts of one data set, each built on first use.
#[derive(Default)]
struct Artifacts {
    space: OnceLock<Arc<InternetDelaySpace>>,
    severity: OnceLock<Arc<Severity>>,
    embedding: OnceLock<Arc<Embedding>>,
}

/// Lazily cached per-dataset artifacts for one (scale, seed) setting.
pub struct Lab {
    scale: ExperimentScale,
    seed: u64,
    threads: usize,
    /// One slot per [`Dataset`], indexed by its discriminant.
    artifacts: [Artifacts; Dataset::Euclidean as usize + 1],
    /// Figures 20 and 21, built together by `sec5::fig20_21`.
    pub(crate) fig20_21: OnceLock<(Figure, Figure)>,
    /// Figures 22 and 23, built together from one dynamic-neighbor run.
    pub(crate) fig22_23: OnceLock<(Figure, Figure)>,
    /// Vivaldi's penalty CDF on DS², shared by figures 15, 16 and 17.
    pub(crate) vivaldi_baseline: OnceLock<Cdf>,
    /// The DS² severity-filter mask, shared by figures 17 and 18.
    pub(crate) severity_mask: OnceLock<EdgeMask>,
    /// Plain Meridian's normal-setting run, shared by figures 18 and 24.
    pub(crate) meridian_original: OnceLock<MeridianPenalty>,
    /// Plain Meridian's idealized DS² run, shared by figures 14 and 25.
    pub(crate) ideal_meridian_ds2: OnceLock<MeridianPenalty>,
}

impl Lab {
    /// A lab at the given scale and master seed, with automatic kernel
    /// parallelism ([`Lab::with_threads`] with `threads == 0`).
    pub fn new(scale: ExperimentScale, seed: u64) -> Self {
        Lab::with_threads(scale, seed, 0)
    }

    /// A lab whose O(n³) kernels (severity, APSP, alert sweeps) run on
    /// up to `threads` workers ([`tivpar::resolve_threads`] semantics).
    ///
    /// When figures run concurrently on one lab — `suite::run_many`
    /// shares one between its fan-out workers — pass it a slice of the
    /// machine rather than letting every kernel auto-resolve to all
    /// cores and oversubscribe multiplicatively. The thread budget never
    /// changes results, only wall-clock.
    pub fn with_threads(scale: ExperimentScale, seed: u64, threads: usize) -> Self {
        Lab {
            scale,
            seed,
            threads,
            artifacts: Default::default(),
            fig20_21: OnceLock::new(),
            fig22_23: OnceLock::new(),
            vivaldi_baseline: OnceLock::new(),
            severity_mask: OnceLock::new(),
            meridian_original: OnceLock::new(),
            ideal_meridian_ds2: OnceLock::new(),
        }
    }

    /// The experiment scale.
    pub fn scale(&self) -> ExperimentScale {
        self.scale
    }

    /// The worker budget for this lab's compute kernels (0 = auto).
    /// Figure code should pass this to any kernel it invokes directly.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The synthetic delay space for `ds` (generated on first use).
    pub fn space(&self, ds: Dataset) -> Arc<InternetDelaySpace> {
        let built = self.artifacts[ds as usize].space.get_or_init(|| {
            Arc::new(
                InternetDelaySpace::preset(ds)
                    .with_nodes(self.scale.nodes(ds))
                    .build(self.seed ^ dataset_salt(ds)),
            )
        });
        built.clone()
    }

    /// The severity matrix for `ds` (computed on first use; parallel).
    pub fn severity(&self, ds: Dataset) -> Arc<Severity> {
        let built = self.artifacts[ds as usize]
            .severity
            .get_or_init(|| Arc::new(Severity::compute(self.space(ds).matrix(), self.threads)));
        built.clone()
    }

    /// A steady-state Vivaldi embedding of `ds` (the paper's standard
    /// setup: 5-D, 32 random neighbors, 100 rounds).
    pub fn embedding(&self, ds: Dataset) -> Arc<Embedding> {
        let built = self.artifacts[ds as usize].embedding.get_or_init(|| {
            let space = self.space(ds);
            let m = space.matrix();
            let mut sys = VivaldiSystem::new(VivaldiConfig::default(), m.len(), self.seed);
            let mut net = Network::new(m, JitterModel::None, self.seed);
            sys.run_rounds(&mut net, self.scale.embed_rounds());
            Arc::new(sys.embedding())
        });
        built.clone()
    }
}

/// Decorrelates the generation seeds of different data sets.
fn dataset_salt(ds: Dataset) -> u64 {
    match ds {
        Dataset::Ds2 => 0x1111_2222,
        Dataset::Meridian => 0x3333_4444,
        Dataset::P2pSim => 0x5555_6666,
        Dataset::PlanetLab => 0x7777_8888,
        Dataset::Euclidean => 0x9999_aaaa,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifacts_are_cached() {
        let lab = Lab::new(ExperimentScale::Tiny, 1);
        let a = lab.space(Dataset::Ds2);
        let b = lab.space(Dataset::Ds2);
        assert!(Arc::ptr_eq(&a, &b));
        let s1 = lab.severity(Dataset::Ds2);
        let s2 = lab.severity(Dataset::Ds2);
        assert!(Arc::ptr_eq(&s1, &s2));
        let e1 = lab.embedding(Dataset::Ds2);
        let e2 = lab.embedding(Dataset::Ds2);
        assert!(Arc::ptr_eq(&e1, &e2));
    }

    #[test]
    fn a_shared_lab_builds_each_artifact_once() {
        // Eight callers on four pool workers race for every artifact of
        // one lab; all of them must get the one `Arc` built first.
        let lab = Lab::with_threads(ExperimentScale::Tiny, 1, 2);
        let got = tivpar::par_map_rows(8, 4, |_| {
            (lab.space(Dataset::Ds2), lab.severity(Dataset::Ds2), lab.embedding(Dataset::Ds2))
        });
        let (space, sev, emb) = &got[0];
        for (s, v, e) in &got {
            assert!(Arc::ptr_eq(s, space));
            assert!(Arc::ptr_eq(v, sev));
            assert!(Arc::ptr_eq(e, emb));
        }
        assert!(Arc::ptr_eq(space, &lab.space(Dataset::Ds2)));
    }

    #[test]
    fn figure_pairs_come_from_one_computation() {
        for (first, second) in [("fig20", "fig21"), ("fig22", "fig23")] {
            let mut lab = Lab::new(ExperimentScale::Tiny, 5);
            let built = crate::suite::run(first, &lab).unwrap().figure;
            let pair = match first {
                "fig20" => lab.fig20_21.get_mut(),
                _ => lab.fig22_23.get_mut(),
            };
            let (a, b) = pair.unwrap_or_else(|| panic!("{first} did not build its pair"));
            assert_eq!(a.to_csv(), built.to_csv());
            // Mark the cached partner: if `second` recomputed instead of
            // reading the pair, the marker would be missing.
            b.notes.push("cached".to_string());
            let partner = crate::suite::run(second, &lab).unwrap().figure;
            assert_eq!(partner.id, second);
            assert_eq!(partner.notes.last().map(String::as_str), Some("cached"));
        }
    }

    #[test]
    fn shared_runs_come_from_one_computation() {
        // (first figure, partners): the first caches the shared run, the
        // partners must read it; the marker below proves they did.
        let cases: [(&str, &[&str]); 4] = [
            ("fig18", &["fig24"]),
            ("fig14", &["fig25"]),
            ("fig15", &["fig16", "fig17"]),
            ("fig17", &["fig18"]),
        ];
        for (first, partners) in cases {
            let mut lab = Lab::new(ExperimentScale::Tiny, 5);
            let mut csvs = vec![crate::suite::run(first, &lab).unwrap().figure.to_csv()];
            csvs.extend(
                partners.iter().map(|id| crate::suite::run(id, &lab).unwrap().figure.to_csv()),
            );
            // Whoever asks first computes the same bits: run the
            // partners first on a fresh lab.
            let fresh = Lab::new(ExperimentScale::Tiny, 5);
            for (i, id) in partners.iter().chain([&first]).enumerate() {
                let want = &csvs[(i + 1) % csvs.len()];
                assert_eq!(&crate::suite::run(id, &fresh).unwrap().figure.to_csv(), want, "{id}");
            }
            // Mark the cached result with a value no run produces (a
            // negative fraction or penalty): a partner that recomputed
            // would not print it.
            let missing = format!("{first} did not cache its shared run");
            if first == "fig17" {
                // A mask that removes every edge strands every filtered
                // overlay: a partner that rebuilt the mask would print
                // the figure it printed before.
                let n = lab.space(Dataset::Ds2).matrix().len();
                let mask = lab.severity_mask.get_mut().expect(&missing);
                for i in 0..n {
                    for j in i + 1..n {
                        mask.remove(i, j);
                    }
                }
                for (id, want) in partners.iter().zip(&csvs[1..]) {
                    let got = crate::suite::run(id, &lab).unwrap().figure.to_csv();
                    assert_ne!(&got, want, "{id} rebuilt the mask {first} cached");
                }
                continue;
            }
            match first {
                "fig18" => {
                    lab.meridian_original.get_mut().expect(&missing).exact_fraction = -4321.0
                }
                "fig14" => {
                    lab.ideal_meridian_ds2.get_mut().expect(&missing).exact_fraction = -4321.0
                }
                _ => {
                    *lab.vivaldi_baseline.get_mut().expect(&missing) = Cdf::from_samples([-4321.0])
                }
            }
            for id in partners {
                let notes = crate::suite::run(id, &lab).unwrap().figure.notes;
                assert!(
                    notes.iter().any(|n| n.contains("-4321.0")),
                    "{id} recomputed the run {first} cached: {notes:?}"
                );
            }
        }
    }

    #[test]
    fn datasets_are_decorrelated() {
        let lab = Lab::new(ExperimentScale::Tiny, 1);
        let a = lab.space(Dataset::Ds2);
        let b = lab.space(Dataset::P2pSim);
        assert_ne!(a.matrix().get(0, 1), b.matrix().get(0, 1));
    }

    #[test]
    fn sizes_follow_scale() {
        let lab = Lab::new(ExperimentScale::Tiny, 2);
        assert_eq!(lab.space(Dataset::Ds2).matrix().len(), 150);
        assert_eq!(lab.embedding(Dataset::Ds2).len(), 150);
    }
}
