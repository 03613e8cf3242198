//! The IDES predictor: per-node incoming/outgoing vectors.
//!
//! IDES (Mao & Saul \[16\]) drops the metric-space constraint: node `i`
//! gets an outgoing vector `o_i` and an incoming vector `n_j`, and the
//! predicted delay is the inner product `o_i · n_j`. Because inner
//! products need not satisfy the triangle inequality, the model can in
//! principle represent TIVs — Section 4.2 of the paper tests whether
//! that helps neighbor selection (Figure 15; it does not).

use crate::linalg::Mat;
use crate::nmf;
use crate::svd;
use delayspace::matrix::{nearest_by, DelayMatrix, NodeId};
use delayspace::stats::Cdf;

/// Which factorization backs the model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Factorization {
    /// Truncated SVD (`D ≈ U Σ Vᵀ`, vectors `U√Σ` / `V√Σ`).
    Svd,
    /// Non-negative matrix factorization (Lee–Seung updates).
    Nmf,
}

/// A fitted IDES model.
#[derive(Clone, Debug)]
pub struct IdesModel {
    /// Outgoing vectors, one row per node (n × d).
    out: Mat,
    /// Incoming vectors, one row per node (n × d).
    inc: Mat,
}

impl IdesModel {
    /// Fits an IDES model of `rank` dimensions to a delay matrix.
    ///
    /// Missing entries are imputed with the mean of the measured
    /// delays of the two endpoints (the standard completion used when
    /// factorising incomplete delay matrices).
    pub fn fit(m: &DelayMatrix, rank: usize, kind: Factorization, seed: u64) -> Self {
        assert!(rank > 0, "rank must be positive");
        assert!(m.len() > 1, "need at least two nodes");
        let dense = impute(m);
        match kind {
            Factorization::Svd => {
                let triplets = svd::truncated_svd(&dense, rank, 60, seed, 0);
                let k = triplets.len();
                let n = m.len();
                let mut out = Mat::zeros(n, k);
                let mut inc = Mat::zeros(n, k);
                for (x, t) in triplets.iter().enumerate() {
                    let s = t.sigma.sqrt();
                    for i in 0..n {
                        out.set(i, x, t.u[i] * s);
                        inc.set(i, x, t.v[i] * s);
                    }
                }
                IdesModel { out, inc }
            }
            Factorization::Nmf => {
                let f = nmf::factorize(&dense, rank, 200, seed, 0);
                let n = m.len();
                let out = f.w.clone();
                // H is k×n; incoming vector of j is column j of H.
                let inc = Mat::from_fn(n, rank, |j, x| f.h.get(x, j));
                IdesModel { out, inc }
            }
        }
    }

    /// Fits the *deployable* landmark-based IDES: factorize the
    /// `landmarks × landmarks` delay sub-matrix, then solve each
    /// ordinary node's outgoing/incoming vectors by least squares
    /// against its measured delays **to the landmarks only** (the
    /// architecture of Mao & Saul \[16\]; each node needs O(landmarks)
    /// measurements rather than the full matrix).
    ///
    /// This is the variant Section 4.2 evaluates — the full-matrix
    /// [`IdesModel::fit`] is an oracle upper bound by comparison.
    ///
    /// # Panics
    /// Panics when `landmark_count < rank` (the least-squares system
    /// would be underdetermined) or the matrix is smaller than the
    /// landmark set.
    pub fn fit_landmarks(m: &DelayMatrix, rank: usize, landmark_count: usize, seed: u64) -> Self {
        use crate::linalg::{solve, Mat};
        use delayspace::rng;
        assert!(rank > 0, "rank must be positive");
        assert!(landmark_count >= rank, "need at least `rank` landmarks");
        assert!(m.len() > landmark_count, "matrix smaller than landmark set");
        let n = m.len();
        let mut r = rng::sub_rng(seed, "ides/landmarks");
        let landmarks = rng::sample_indices(&mut r, n, landmark_count);

        // Factorize the landmark sub-matrix (imputing its gaps).
        let sub = m.submatrix(&landmarks);
        let dense = impute(&sub);
        let triplets = svd::truncated_svd(&dense, rank, 60, seed, 0);
        let k = triplets.len().max(1);
        let l = landmarks.len();
        let mut out_l = Mat::zeros(l, k);
        let mut in_l = Mat::zeros(l, k);
        for (x, t) in triplets.iter().enumerate() {
            let s = t.sigma.sqrt();
            for i in 0..l {
                out_l.set(i, x, t.u[i] * s);
                in_l.set(i, x, t.v[i] * s);
            }
        }

        // Normal-equation matrices, shared by every ordinary node:
        // out_x = argmin ‖In_L·out_x − d(x,L)‖  →  (In_Lᵀ In_L)·out_x = In_Lᵀ d.
        let gram =
            |f: &Mat| Mat::from_fn(k, k, |a, b| (0..l).map(|i| f.get(i, a) * f.get(i, b)).sum());
        let gram_in = gram(&in_l);
        let gram_out = gram(&out_l);

        let mut out = Mat::zeros(n, k);
        let mut inc = Mat::zeros(n, k);
        for node in 0..n {
            if let Some(pos) = landmarks.iter().position(|&lm| lm == node) {
                for x in 0..k {
                    out.set(node, x, out_l.get(pos, x));
                    inc.set(node, x, in_l.get(pos, x));
                }
                continue;
            }
            // Delays to the landmarks (gaps filled with the node's mean).
            let mut d: Vec<f64> = landmarks.iter().map(|&lm| m.raw(node, lm)).collect();
            let mean = {
                let known: Vec<f64> = d.iter().copied().filter(|v| !v.is_nan()).collect();
                if known.is_empty() {
                    0.0
                } else {
                    known.iter().sum::<f64>() / known.len() as f64
                }
            };
            for v in &mut d {
                if v.is_nan() {
                    *v = mean;
                }
            }
            // Right-hand sides In_Lᵀ·d and Out_Lᵀ·d.
            let rhs = |f: &Mat| -> Vec<f64> {
                (0..k).map(|x| (0..l).map(|i| f.get(i, x) * d[i]).sum()).collect()
            };
            let ox = solve(&gram_in, &rhs(&in_l)).unwrap_or_else(|| vec![0.0; k]);
            let ix = solve(&gram_out, &rhs(&out_l)).unwrap_or_else(|| vec![0.0; k]);
            for x in 0..k {
                out.set(node, x, ox[x]);
                inc.set(node, x, ix[x]);
            }
        }
        IdesModel { out, inc }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.out.rows()
    }

    /// True when the model is empty (never; API symmetry).
    pub fn is_empty(&self) -> bool {
        self.out.rows() == 0
    }

    /// Model rank.
    pub fn rank(&self) -> usize {
        self.out.cols()
    }

    /// Predicted delay `o_i · n_j`, clamped at zero (SVD products can go
    /// negative; a negative delay prediction is meaningless).
    pub fn predicted(&self, i: NodeId, j: NodeId) -> f64 {
        if i == j {
            return 0.0;
        }
        let p: f64 = self.out.row(i).iter().zip(self.inc.row(j)).map(|(a, b)| a * b).sum();
        p.max(0.0)
    }

    /// CDF of absolute prediction error over measured edges.
    pub fn abs_error_cdf(&self, m: &DelayMatrix) -> Cdf {
        Cdf::from_samples(m.edges().map(|(i, j, d)| (self.predicted(i, j) - d).abs()))
    }

    /// Among `candidates`, the node with the smallest predicted delay to
    /// `client`.
    pub fn select_nearest(&self, client: NodeId, candidates: &[NodeId]) -> Option<NodeId> {
        nearest_by(client, candidates, |c| self.predicted(client, c))
    }
}

/// Fills missing entries with the mean of the endpoints' measured
/// delays (falling back to the global mean for isolated nodes).
fn impute(m: &DelayMatrix) -> Mat {
    let n = m.len();
    let mut row_mean = vec![0.0; n];
    let mut global_sum = 0.0;
    let mut global_cnt = 0usize;
    for (i, mean) in row_mean.iter_mut().enumerate() {
        let mut sum = 0.0;
        let mut cnt = 0usize;
        for j in 0..n {
            if i != j {
                if let Some(d) = m.get(i, j) {
                    sum += d;
                    cnt += 1;
                }
            }
        }
        *mean = if cnt > 0 { sum / cnt as f64 } else { f64::NAN };
        global_sum += sum;
        global_cnt += cnt;
    }
    let global = if global_cnt > 0 { global_sum / global_cnt as f64 } else { 0.0 };
    Mat::from_fn(n, n, |i, j| {
        if i == j {
            0.0
        } else {
            m.get(i, j).unwrap_or_else(|| {
                let (a, b) = (row_mean[i], row_mean[j]);
                match (a.is_nan(), b.is_nan()) {
                    (false, false) => 0.5 * (a + b),
                    (false, true) => a,
                    (true, false) => b,
                    (true, true) => global,
                }
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use delayspace::synth::{Dataset, InternetDelaySpace};

    #[test]
    fn fits_structured_matrix_reasonably() {
        let space = InternetDelaySpace::preset(Dataset::Euclidean).with_nodes(60).build(3);
        let m = space.matrix();
        let model = IdesModel::fit(m, 8, Factorization::Svd, 1);
        let med = model.abs_error_cdf(m).median();
        let scale = Cdf::from_samples(m.edge_delays()).median();
        assert!(med < scale * 0.4, "median error {med} too large relative to median delay {scale}");
    }

    #[test]
    fn predictions_are_nonnegative_and_zero_on_diagonal() {
        let space = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(40).build(5);
        for kind in [Factorization::Svd, Factorization::Nmf] {
            let model = IdesModel::fit(space.matrix(), 5, kind, 2);
            for i in 0..40 {
                assert_eq!(model.predicted(i, i), 0.0);
                for j in 0..40 {
                    assert!(model.predicted(i, j) >= 0.0);
                }
            }
        }
    }

    #[test]
    fn ides_can_represent_a_tiv() {
        // A 3-node TIV: 5/5/100. A 2-D inner-product model can express
        // it exactly (unlike any metric embedding); verify a good fit.
        let mut m = DelayMatrix::new(3);
        m.set(0, 1, 5.0);
        m.set(1, 2, 5.0);
        m.set(0, 2, 100.0);
        let model = IdesModel::fit(&m, 3, Factorization::Svd, 4);
        // Total absolute error across the 3 edges must be far below the
        // ~63 ms floor a 1-D/2-D Euclidean embedding is forced into.
        let total: f64 = [(0, 1, 5.0), (1, 2, 5.0), (0, 2, 100.0)]
            .iter()
            .map(|&(i, j, d)| (model.predicted(i, j) - d).abs())
            .sum();
        assert!(total < 25.0, "IDES should fit a TIV triangle, total err {total}");
    }

    #[test]
    fn nmf_variant_runs_and_selects() {
        let space = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(30).build(6);
        let model = IdesModel::fit(space.matrix(), 4, Factorization::Nmf, 3);
        let sel = model.select_nearest(0, &[5, 10, 15]).unwrap();
        assert!([5, 10, 15].contains(&sel));
    }

    #[test]
    fn select_nearest_matches_min_by_with_ties() {
        // Rows repeat, so predictions tie; negative products clamp to a
        // tied 0. The reference is the double-evaluating `min_by`.
        let n = 9;
        let (mut out, mut inc) = (Mat::zeros(n, 2), Mat::zeros(n, 2));
        for i in 0..n {
            out.set(i, 0, (i % 3) as f64 + 1.0);
            out.set(i, 1, 1.0);
            inc.set(i, 0, [2.0, -5.0, 2.0, 0.5][i % 4]);
            inc.set(i, 1, [1.0, 1.0, 1.0, 1.5][i % 4]);
        }
        let model = IdesModel { out, inc };
        let reference =
            |client: NodeId, candidates: &[NodeId]| {
                candidates.iter().copied().filter(|&c| c != client).min_by(|&a, &b| {
                    model.predicted(client, a).total_cmp(&model.predicted(client, b))
                })
            };
        let all: Vec<NodeId> = (0..n).collect();
        let backwards: Vec<NodeId> = (0..n).rev().collect();
        for client in 0..n {
            for pool in [&all[..], &backwards[..], &[0, 2, 4][..], &[client][..]] {
                assert_eq!(model.select_nearest(client, pool), reference(client, pool));
            }
        }
    }

    #[test]
    fn handles_missing_entries() {
        let space =
            InternetDelaySpace::preset(Dataset::Ds2).with_nodes(40).with_missing(0.1).build(7);
        let model = IdesModel::fit(space.matrix(), 5, Factorization::Svd, 4);
        assert_eq!(model.len(), 40);
        assert!(model.predicted(0, 1).is_finite());
    }

    #[test]
    fn landmark_model_predicts_reasonably_on_metric_space() {
        let space = InternetDelaySpace::preset(Dataset::Euclidean).with_nodes(80).build(9);
        let m = space.matrix();
        let model = IdesModel::fit_landmarks(m, 8, 24, 2);
        let med = model.abs_error_cdf(m).median();
        let scale = Cdf::from_samples(m.edge_delays()).median();
        assert!(med < scale * 0.6, "landmark IDES error {med} too large vs median delay {scale}");
    }

    #[test]
    fn landmark_model_worse_than_oracle_on_tiv_space() {
        // The full-matrix fit sees everything; the landmark fit sees
        // O(L) measurements per node, so its error must be at least
        // comparable and typically worse on a TIV-rich space.
        let space = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(100).build(11);
        let m = space.matrix();
        let oracle = IdesModel::fit(m, 10, Factorization::Svd, 3).abs_error_cdf(m).median();
        let landmark = IdesModel::fit_landmarks(m, 10, 30, 3).abs_error_cdf(m).median();
        assert!(
            landmark >= oracle * 0.8,
            "landmark fit ({landmark}) implausibly beats the oracle ({oracle})"
        );
    }

    #[test]
    fn landmark_vectors_match_factorization_for_landmarks() {
        let space = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(60).build(13);
        let m = space.matrix();
        let model = IdesModel::fit_landmarks(m, 6, 20, 5);
        // Landmarks predict each other with the factorization quality.
        assert!(model.predicted(0, 1).is_finite());
        assert_eq!(model.len(), 60);
    }

    #[test]
    #[should_panic(expected = "at least `rank` landmarks")]
    fn too_few_landmarks_rejected() {
        let space = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(40).build(1);
        IdesModel::fit_landmarks(space.matrix(), 10, 5, 1);
    }

    #[test]
    fn rank_is_capped_by_matrix() {
        let mut m = DelayMatrix::new(3);
        m.set(0, 1, 5.0);
        m.set(1, 2, 6.0);
        m.set(0, 2, 7.0);
        let model = IdesModel::fit(&m, 10, Factorization::Svd, 1);
        assert!(model.rank() <= 3);
    }
}
