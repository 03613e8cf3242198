//! Serial-equivalence property tests for the parallel kernels layer.
//!
//! Every kernel ported onto `tivpar` promises the same contract: the
//! output is a pure function of its inputs, **bit-identical at every
//! thread count**. These properties pin that contract on seeded DS²
//! delay spaces across worker counts {1, 2, 4, 7} — including counts
//! that exceed this machine's cores and a prime count that makes the
//! row chunking ragged.

use ides::Mat;
use proptest::prelude::*;
use tivoid::prelude::*;
use tivoid::tivcore::severity::{estimate_severity_ci_batch, SeverityEstimate};
use tivoid::tivcore::{accuracy_recall_sweeps, Severity};

/// The non-serial worker counts the properties sweep.
const THREADS: [usize; 3] = [2, 4, 7];

fn ds2(n: usize, seed: u64) -> DelayMatrix {
    InternetDelaySpace::preset(Dataset::Ds2).with_nodes(n).build(seed).into_matrix()
}

/// `Option<f64>` to comparable bits (`None` ≠ any measured value).
fn bits(v: Option<f64>) -> Option<u64> {
    v.map(f64::to_bits)
}

/// A sampled estimate to comparable bits: the point, both bounds and
/// the witness count.
fn estimate_bits(e: Option<SeverityEstimate>) -> Option<[u64; 4]> {
    e.map(|e| [e.point.to_bits(), e.ci_lo.to_bits(), e.ci_hi.to_bits(), u64::from(e.sampled)])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn severity_bit_identical_across_thread_counts(n in 30usize..80, seed in 0u64..1_000) {
        let m = ds2(n, seed);
        let serial = Severity::compute(&m, 1);
        for &t in &THREADS {
            let par = Severity::compute(&m, t);
            for i in 0..n {
                for j in 0..n {
                    prop_assert_eq!(
                        bits(par.severity(i, j)),
                        bits(serial.severity(i, j)),
                        "severity({},{}) diverged at {} threads", i, j, t
                    );
                    prop_assert_eq!(par.count(i, j), serial.count(i, j));
                }
            }
        }
    }

    #[test]
    fn apsp_bit_identical_across_thread_counts(n in 30usize..80, seed in 0u64..1_000) {
        let m = ds2(n, seed);
        let serial = ShortestPaths::compute(&m, 1);
        for &t in &THREADS {
            let par = ShortestPaths::compute(&m, t);
            for i in 0..n {
                for j in 0..n {
                    prop_assert_eq!(
                        par.get(i, j).to_bits(),
                        serial.get(i, j).to_bits(),
                        "apsp({},{}) diverged at {} threads", i, j, t
                    );
                }
            }
        }
    }

    #[test]
    fn estimator_batch_bit_identical_across_thread_counts(
        n in 30usize..80,
        seed in 0u64..1_000,
        k in 4usize..32,
    ) {
        let m = ds2(n, seed);
        let edges: Vec<(NodeId, NodeId)> = m.edges().map(|(i, j, _)| (i, j)).collect();
        let serial = estimate_severity_ci_batch(&m, &edges, k, seed, 1);
        for &t in &THREADS {
            let par = estimate_severity_ci_batch(&m, &edges, k, seed, t);
            prop_assert_eq!(par.len(), serial.len());
            for (p, s) in par.iter().zip(&serial) {
                prop_assert_eq!(
                    estimate_bits(*p),
                    estimate_bits(*s),
                    "estimator diverged at {} threads", t
                );
            }
        }
    }

    #[test]
    fn nmf_bit_identical_across_thread_counts(n in 10usize..30, seed in 0u64..1_000) {
        let m = ds2(n, seed);
        let a = Mat::from_fn(n, n, |r, c| m.get(r, c).unwrap_or(0.0));
        let serial = ides::factorize(&a, 3, 25, seed, 1);
        for &t in &THREADS {
            let par = ides::factorize(&a, 3, 25, seed, t);
            prop_assert_eq!(&par.w, &serial.w, "NMF W diverged at {} threads", t);
            prop_assert_eq!(&par.h, &serial.h, "NMF H diverged at {} threads", t);
            prop_assert_eq!(par.residual.to_bits(), serial.residual.to_bits());
        }
    }

    #[test]
    fn svd_bit_identical_across_thread_counts(n in 10usize..30, seed in 0u64..1_000) {
        let m = ds2(n, seed);
        let a = Mat::from_fn(n, n, |r, c| m.get(r, c).unwrap_or(0.0));
        let serial = ides::truncated_svd(&a, 4, 30, seed, 1);
        for &t in &THREADS {
            let par = ides::truncated_svd(&a, 4, 30, seed, t);
            prop_assert_eq!(par.len(), serial.len());
            for (p, s) in par.iter().zip(&serial) {
                prop_assert_eq!(p.sigma.to_bits(), s.sigma.to_bits());
                prop_assert_eq!(&p.u, &s.u, "SVD u diverged at {} threads", t);
                prop_assert_eq!(&p.v, &s.v, "SVD v diverged at {} threads", t);
            }
        }
    }
}

/// The alert sweep needs an embedding, which is the expensive part, so
/// it runs as one deterministic case rather than a property.
#[test]
fn alert_sweep_bit_identical_across_thread_counts() {
    let m = ds2(100, 5);
    let mut sys = VivaldiSystem::new(VivaldiConfig::default(), m.len(), 5);
    let mut net = Network::new(&m, JitterModel::None, 5);
    sys.run_rounds(&mut net, 60);
    let emb = sys.embedding();
    let sev = Severity::compute(&m, 0);
    let thresholds: Vec<f64> = (0..=20).map(|i| i as f64 * 0.05).collect();
    let serial = accuracy_recall_sweeps(&emb, &m, &sev, &[0.2], &thresholds, 1).remove(0);
    for &t in &THREADS {
        let par = accuracy_recall_sweeps(&emb, &m, &sev, &[0.2], &thresholds, t).remove(0);
        assert_eq!(par.len(), serial.len());
        for (p, s) in par.iter().zip(&serial) {
            assert_eq!(p.accuracy.to_bits(), s.accuracy.to_bits());
            assert_eq!(p.recall.to_bits(), s.recall.to_bits());
            assert_eq!(p.alerted_frac.to_bits(), s.alerted_frac.to_bits());
        }
    }
}

/// The experiment fan-out produces the same figures at any worker
/// count (each figure is a pure function of scale and seed), over every
/// paper figure: the fan-out's workers share one lab, so each artifact
/// and each figure pair is built by whichever worker asks first.
#[test]
fn experiment_fanout_matches_serial() {
    use tivoid::experiments::scale::ExperimentScale;
    use tivoid::experiments::suite;
    let csvs = |ids: &[String], threads: usize| -> Vec<String> {
        suite::run_many(ids, ExperimentScale::Tiny, 7, threads)
            .into_iter()
            .zip(ids)
            .map(|(outcome, id)| {
                assert_eq!(&outcome.id, id);
                outcome.output.expect("known id").figure.to_csv()
            })
            .collect()
    };
    let ids: Vec<String> = suite::ALL_IDS.iter().map(|s| s.to_string()).collect();
    let serial = csvs(&ids, 1);
    for &t in &THREADS {
        for (id, (par, ser)) in ids.iter().zip(csvs(&ids, t).iter().zip(&serial)) {
            assert_eq!(par, ser, "figure {id} diverged at {t} threads");
        }
    }
    // Two ids at 8 threads: two workers with a kernel budget of 4 each,
    // so while one builds the shared severity matrix and figure pair in
    // nested 4-wide regions, the other waits for them.
    let pair: Vec<String> = ["fig20", "fig21"].iter().map(|s| s.to_string()).collect();
    assert_eq!(csvs(&pair, 8), serial[19..21]);
}
