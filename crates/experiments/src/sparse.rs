//! The `repro sparse` experiment: how much severity accuracy does
//! witness sampling give up, and how much memory does the sparse store
//! give back?
//!
//! Severity at a million nodes, where neither n² stored delays nor an
//! O(n) scan per edge fits, rests on two substitutions: the dense
//! `n² × 8`-byte [`DelayMatrix`](delayspace::matrix::DelayMatrix)
//! becomes an observed-edge [`SparseDelayStore`], and the exact O(n)
//! per-edge severity scan becomes a k-witness sampled estimate with a
//! 95% confidence interval ([`tivcore::estimate_severity_ci`]). This
//! experiment quantifies both trades in the style of the paper's
//! Figures 20/21 (estimated vs measured quality):
//!
//! * **accuracy** — over a dense DS²-style space where the exact
//!   severity ([`tivcore::Severity::compute`]) is the ground truth,
//!   sweep the witness sampling rate and report the mean absolute
//!   estimation error, the mean 95% CI half-width, and the fraction of
//!   edges whose exact severity the CI actually covers;
//! * **scaling** — build sparse stores at growing n with a fixed
//!   observed degree and report their resident bytes against the
//!   `n² × 8` bytes the dense matrix would need.
//!
//! The whole report is a pure function of the options: both figures'
//! CSVs are bit-reproducible.

use crate::figure::{Figure, Series};
use delayspace::rng::{sample_indices, sub_rng};
use delayspace::store::{DelayStore, NodePair, SparseDelayStore};
use delayspace::synth::{Dataset, InternetDelaySpace};
use rand::Rng;
use std::fmt;
use tivcore::{estimate_severity_ci_batch, Severity};

/// Witness sampling rates the accuracy sweep visits, as fractions of
/// the `n − 2` witness population. The last entry is full sampling,
/// where the estimate must collapse onto the exact severity.
pub const SAMPLING_RATES: [f64; 6] = [0.05, 0.1, 0.2, 0.4, 0.7, 1.0];

/// Everything the `sparse` subcommand can tune.
#[derive(Clone, Copy, Debug)]
pub struct SparseOptions {
    /// Nodes in the dense ground-truth delay space the accuracy sweep
    /// runs over (exact severity is O(n³) — keep this modest).
    pub nodes: usize,
    /// Measured pairs evaluated at each sampling rate.
    pub pairs: usize,
    /// Largest sparse store the scaling pass builds; it also builds
    /// half and a quarter of this size to expose the growth curve.
    pub scale_nodes: usize,
    /// Observed edges per node in the scaling builds (the sparse
    /// store's memory is `Θ(n · degree)` against dense `Θ(n²)`).
    pub degree: usize,
    /// Worker threads (0 = auto, `tivpar::resolve_threads`).
    pub threads: usize,
    /// Master seed (space, pair sample, witness samples, edge synth).
    pub seed: u64,
}

impl Default for SparseOptions {
    fn default() -> Self {
        SparseOptions {
            nodes: 256,
            pairs: 400,
            scale_nodes: 50_000,
            degree: 32,
            threads: 0,
            seed: 42,
        }
    }
}

/// One sampling rate's accuracy aggregate.
#[derive(Clone, Copy, Debug)]
pub struct AccuracyRow {
    /// Witness sampling rate `k / (n − 2)`.
    pub rate: f64,
    /// Witnesses sampled per edge at this rate.
    pub witnesses: usize,
    /// Mean `|estimate − exact|` over the evaluated pairs.
    pub mean_abs_err: f64,
    /// Mean 95% CI half-width over the evaluated pairs.
    pub mean_ci_halfwidth: f64,
    /// Fraction of pairs whose exact severity lies inside the CI.
    pub coverage: f64,
}

/// One scaling size's cost record.
#[derive(Clone, Copy, Debug)]
pub struct ScalingRow {
    /// Nodes in this sparse store.
    pub nodes: usize,
    /// Unordered observed edges it holds.
    pub edges: usize,
    /// Resident bytes of the sparse store.
    pub sparse_bytes: usize,
    /// Bytes the dense matrix would need (`n² × 8`).
    pub dense_bytes: usize,
}

/// The outcome `repro sparse` prints and writes.
#[derive(Clone, Debug)]
pub struct SparseReport {
    /// The options the run used.
    pub opts: SparseOptions,
    /// Accuracy aggregates, one per entry of [`SAMPLING_RATES`].
    pub rows: Vec<AccuracyRow>,
    /// Scaling records at the three sizes, ascending.
    pub scaling: Vec<ScalingRow>,
    /// The figures (`sparse-accuracy`, `sparse-scaling`), ready for
    /// CSV export.
    pub figures: Vec<Figure>,
}

impl fmt::Display for SparseReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = &self.opts;
        writeln!(
            f,
            "sparse severity: {} nodes dense ground truth, {} pairs, seed {}",
            o.nodes,
            self.rows.first().map_or(0, |_| o.pairs),
            o.seed
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  rate {:>4.0}% (k = {:>4}): mean |err| {:.5}, CI half-width {:.5}, \
                 coverage {:.1}%",
                r.rate * 100.0,
                r.witnesses,
                r.mean_abs_err,
                r.mean_ci_halfwidth,
                r.coverage * 100.0
            )?;
        }
        for s in &self.scaling {
            writeln!(
                f,
                "  n = {:>7}: sparse {:.1} MB vs dense {:.1} MB ({:.1}x smaller, {} edges)",
                s.nodes,
                s.sparse_bytes as f64 / 1e6,
                s.dense_bytes as f64 / 1e6,
                s.dense_bytes as f64 / s.sparse_bytes.max(1) as f64,
                s.edges
            )?;
        }
        for fig in &self.figures {
            write!(f, "{}", fig.summary())?;
        }
        Ok(())
    }
}

/// Decodes index `idx` of the unordered-pair enumeration `(i < j)` over
/// `n` nodes back into the pair.
fn pair_of_index(n: usize, mut idx: usize) -> NodePair {
    let mut i = 0usize;
    while idx >= n - 1 - i {
        idx -= n - 1 - i;
        i += 1;
    }
    (i, i + 1 + idx)
}

/// Samples `count` distinct unordered pairs over `n` nodes, ascending.
fn sample_pairs(n: usize, count: usize, seed: u64) -> Vec<NodePair> {
    let total = n * (n - 1) / 2;
    let mut r = sub_rng(seed, "sparse/pairs");
    let mut pairs: Vec<NodePair> = sample_indices(&mut r, total, count.min(total))
        .into_iter()
        .map(|idx| pair_of_index(n, idx))
        .collect();
    pairs.sort_unstable();
    pairs
}

/// Synthesises the scaling edge list: `degree` observed edges per node
/// with plausible positive delays, deterministic in the seed.
fn scale_edges(n: usize, degree: usize, seed: u64) -> Vec<(usize, usize, f64)> {
    let mut r = sub_rng(seed, "sparse/scale");
    let mut edges = Vec::with_capacity(n * degree);
    for i in 0..n {
        for p in sample_indices(&mut r, n - 1, degree.min(n - 1)) {
            let j = if p >= i { p + 1 } else { p };
            let d: f64 = 5.0 + r.gen_range(0.0..95.0);
            edges.push((i, j, d));
        }
    }
    edges
}

/// Runs the full sparse experiment.
pub fn run_sparse(opts: &SparseOptions) -> SparseReport {
    assert!(opts.nodes >= 4, "the accuracy sweep needs at least 4 nodes");
    assert!(opts.pairs >= 1, "nothing to evaluate without pairs");
    assert!(opts.scale_nodes >= 8, "the scaling pass needs at least 8 nodes");
    assert!(opts.degree >= 1, "scaling stores need at least one edge per node");

    // --- Accuracy: exact vs sampled severity on a dense ground truth.
    let matrix = InternetDelaySpace::preset(Dataset::Ds2)
        .with_nodes(opts.nodes)
        .build(opts.seed)
        .into_matrix();
    let n = matrix.len();
    let store = SparseDelayStore::from_matrix(&matrix);
    let exact = Severity::compute(&matrix, opts.threads);
    let pairs: Vec<NodePair> = sample_pairs(n, opts.pairs, opts.seed)
        .into_iter()
        .filter(|&(a, c)| exact.severity(a, c).is_some())
        .collect();
    assert!(!pairs.is_empty(), "the sampled pairs must include measured edges");

    let mut rows = Vec::with_capacity(SAMPLING_RATES.len());
    for &rate in &SAMPLING_RATES {
        let witnesses = (((n - 2) as f64 * rate).round() as usize).clamp(2, n - 2);
        let estimates =
            estimate_severity_ci_batch(&store, &pairs, witnesses, opts.seed, opts.threads);
        let (mut err, mut half, mut covered) = (0.0f64, 0.0f64, 0usize);
        for (&(a, c), est) in pairs.iter().zip(&estimates) {
            let truth = exact.severity(a, c).expect("pairs were filtered to measured edges");
            let est = est.expect("measured edges estimate to Some");
            err += (est.point - truth).abs();
            half += (est.ci_hi - est.ci_lo) / 2.0;
            // Full sampling visits the witnesses in sample order while
            // the exact kernel scans ascending, so the two can differ in
            // the last bits; a relative slack keeps coverage honest.
            let tol = 1e-9 * (1.0 + truth.abs());
            if truth >= est.ci_lo - tol && truth <= est.ci_hi + tol {
                covered += 1;
            }
        }
        let m = pairs.len() as f64;
        rows.push(AccuracyRow {
            rate,
            witnesses,
            mean_abs_err: err / m,
            mean_ci_halfwidth: half / m,
            coverage: covered as f64 / m,
        });
    }

    // --- Scaling: sparse store cost at growing n vs the dense n².
    let sizes = [opts.scale_nodes / 4, opts.scale_nodes / 2, opts.scale_nodes];
    let mut scaling = Vec::with_capacity(sizes.len());
    for &sn in &sizes {
        let sn = sn.max(8);
        if scaling.iter().any(|s: &ScalingRow| s.nodes == sn) {
            continue;
        }
        let edges = scale_edges(sn, opts.degree, opts.seed);
        let built = SparseDelayStore::from_edges(sn, edges.iter().copied());
        scaling.push(ScalingRow {
            nodes: sn,
            edges: built.edge_count(),
            sparse_bytes: built.memory_bytes(),
            dense_bytes: sn * sn * std::mem::size_of::<f64>(),
        });
    }

    // --- Figures.
    let accuracy_fig = Figure::new(
        "sparse-accuracy",
        "Sampled severity vs exact (DS2)",
        "witness sampling rate k/(n-2)",
        "mean error / CI width / coverage",
    )
    .with_series(Series::new(
        "mean |estimate - exact|",
        rows.iter().map(|r| (r.rate, r.mean_abs_err)).collect(),
    ))
    .with_series(Series::new(
        "mean 95% CI half-width",
        rows.iter().map(|r| (r.rate, r.mean_ci_halfwidth)).collect(),
    ))
    .with_series(Series::new(
        "CI coverage of exact",
        rows.iter().map(|r| (r.rate, r.coverage)).collect(),
    ))
    .with_note(format!(
        "{} pairs over a {}-node DS2 space, seed {}; exact severity from the full O(n) \
         witness scan",
        pairs.len(),
        n,
        opts.seed
    ));
    let scaling_fig =
        Figure::new("sparse-scaling", "Sparse store cost vs dense matrix", "nodes", "resident MB")
            .with_series(Series::new(
                "sparse store MB",
                scaling.iter().map(|s| (s.nodes as f64, s.sparse_bytes as f64 / 1e6)).collect(),
            ))
            .with_series(Series::new(
                "dense matrix MB",
                scaling.iter().map(|s| (s.nodes as f64, s.dense_bytes as f64 / 1e6)).collect(),
            ))
            .with_note(format!(
                "{} observed edges per node; sparse memory grows Θ(n·degree) against dense Θ(n²)",
                opts.degree
            ));

    SparseReport { opts: *opts, rows, scaling, figures: vec![accuracy_fig, scaling_fig] }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SparseOptions {
        SparseOptions { nodes: 48, pairs: 60, scale_nodes: 640, degree: 8, threads: 1, seed: 42 }
    }

    #[test]
    fn run_sparse_reports_accuracy_and_scaling() {
        let report = run_sparse(&tiny());
        assert_eq!(report.rows.len(), SAMPLING_RATES.len());
        for r in &report.rows {
            assert!((0.0..=1.0).contains(&r.coverage), "coverage out of range: {r:?}");
            assert!(r.mean_abs_err >= 0.0 && r.mean_ci_halfwidth >= 0.0);
        }
        assert_eq!(report.scaling.len(), 3);
        assert_eq!(report.figures.len(), 2);
        let text = report.to_string();
        assert!(text.contains("coverage"), "summary missing coverage: {text}");
        for fig in &report.figures {
            assert!(fig.to_csv().lines().count() > 1, "{} CSV empty", fig.id);
        }
    }

    #[test]
    fn full_sampling_collapses_onto_exact() {
        let report = run_sparse(&tiny());
        let full = report.rows.last().expect("rates are non-empty");
        assert_eq!(full.witnesses, tiny().nodes - 2);
        // The estimator and the exact kernel sum the same contributions
        // in different orders — equal up to float reassociation.
        assert!(full.mean_abs_err < 1e-9, "full sampling must be exact: {full:?}");
        assert_eq!(full.mean_ci_halfwidth, 0.0, "the FPC zeroes the CI at full sampling");
        assert_eq!(full.coverage, 1.0);
        // And against the sparsest rate, full sampling can only win.
        let sparse = report.rows.first().unwrap();
        assert!(full.mean_abs_err <= sparse.mean_abs_err);
        assert!(full.mean_ci_halfwidth <= sparse.mean_ci_halfwidth);
    }

    #[test]
    fn scaling_memory_is_sublinear_in_n_squared() {
        let report = run_sparse(&tiny());
        for w in report.scaling.windows(2) {
            assert!(w[1].nodes > w[0].nodes);
            let r0 = w[0].sparse_bytes as f64 / w[0].dense_bytes as f64;
            let r1 = w[1].sparse_bytes as f64 / w[1].dense_bytes as f64;
            assert!(r1 < r0, "sparse/dense ratio must shrink with n: {r0:.4} then {r1:.4}");
        }
        let top = report.scaling.last().unwrap();
        assert!(top.sparse_bytes < top.dense_bytes, "sparse must undercut dense: {top:?}");
    }

    #[test]
    fn report_is_deterministic() {
        let a = run_sparse(&tiny());
        let b = run_sparse(&tiny());
        assert_eq!(a.figures.len(), b.figures.len());
        for (x, y) in a.figures.iter().zip(&b.figures) {
            assert_eq!(x.to_csv(), y.to_csv(), "{} differs between runs", x.id);
        }
        assert_eq!(a.to_string(), b.to_string());
    }
}
