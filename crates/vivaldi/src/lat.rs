//! LAT — the localized adjustment term of Lee et al. \[11\].
//!
//! Each node `x` keeps, besides its Euclidean coordinate `c_x`, a scalar
//! adjustment `e_x` equal to half the average residual over a set `S` of
//! sampled measurements:
//!
//! ```text
//! e_x = Σ_{y ∈ S} (d_xy − d̂_xy) / (2|S|)
//! ```
//!
//! and predicts `d̂'_xy = dist(c_x, c_y) + e_x + e_y` (clamped at zero).
//! The adjustment re-introduces a non-Euclidean component, improving
//! aggregate accuracy; Section 4.2 of the paper shows it barely helps
//! *neighbor selection* (Figure 16), which we reproduce.

use crate::embedding::Embedding;
use delayspace::matrix::{nearest_by, DelayMatrix, NodeId};
use delayspace::rng;

/// An embedding augmented with per-node localized adjustment terms.
#[derive(Clone, Debug)]
pub struct LatModel {
    base: Embedding,
    adjust: Vec<f64>,
}

impl LatModel {
    /// Fits adjustment terms from `samples_per_node` random measured
    /// neighbors per node (the paper samples a small random set; we skip
    /// unmeasured pairs).
    pub fn fit(base: Embedding, m: &DelayMatrix, samples_per_node: usize, seed: u64) -> Self {
        let n = base.len();
        assert_eq!(n, m.len(), "embedding/matrix size mismatch");
        assert!(samples_per_node > 0, "need at least one sample per node");
        let mut r = rng::sub_rng(seed, "lat/fit");
        let mut adjust = vec![0.0; n];
        for (x, adj) in adjust.iter_mut().enumerate() {
            let k = samples_per_node.min(n - 1);
            let sample = rng::sample_indices(&mut r, n - 1, k).into_iter().map(|v| {
                if v >= x {
                    v + 1
                } else {
                    v
                }
            });
            let mut sum = 0.0;
            let mut cnt = 0usize;
            for y in sample {
                if let Some(d) = m.get(x, y) {
                    sum += d - base.predicted(x, y);
                    cnt += 1;
                }
            }
            if cnt > 0 {
                *adj = sum / (2.0 * cnt as f64);
            }
        }
        LatModel { base, adjust }
    }

    /// The underlying Euclidean embedding.
    pub fn base(&self) -> &Embedding {
        &self.base
    }

    /// Adjustment term of node `x`.
    pub fn adjustment(&self, x: NodeId) -> f64 {
        self.adjust[x]
    }

    /// LAT-adjusted predicted delay (never negative).
    pub fn predicted(&self, i: NodeId, j: NodeId) -> f64 {
        (self.base.predicted(i, j) + self.adjust[i] + self.adjust[j]).max(0.0)
    }

    /// Among `candidates`, the node with the smallest LAT-predicted
    /// delay to `client`.
    pub fn select_nearest(&self, client: NodeId, candidates: &[NodeId]) -> Option<NodeId> {
        nearest_by(client, candidates, |c| self.predicted(client, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::Coord;

    /// Embedding that systematically under-predicts by 10 ms per node
    /// pair: nodes at the same place, true delays all 20 ms.
    #[test]
    fn lat_corrects_systematic_underprediction() {
        let emb = Embedding::new(vec![Coord::origin(2); 4]);
        let m = DelayMatrix::from_complete_fn(4, |_, _| 20.0);
        let lat = LatModel::fit(emb, &m, 3, 1);
        // Residual d − d̂ = 20 everywhere → e_x = 10 → prediction 20.
        for i in 0..4 {
            assert!((lat.adjustment(i) - 10.0).abs() < 1e-9);
            for j in 0..4 {
                if i != j {
                    assert!((lat.predicted(i, j) - 20.0).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn prediction_is_clamped_at_zero() {
        // Embedding over-predicts: points 100 apart, true delay 2.
        let emb = Embedding::new(vec![Coord::from_vec(vec![0.0]), Coord::from_vec(vec![100.0])]);
        let m = DelayMatrix::from_complete_fn(2, |_, _| 2.0);
        let lat = LatModel::fit(emb, &m, 1, 1);
        // e_x = (2 − 100)/2 = −49 each; 100 − 98 = 2 → fine, but check
        // clamping with a harsher case by direct computation.
        assert!(lat.predicted(0, 1) >= 0.0);
        assert!((lat.predicted(0, 1) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn node_level_adjustment_cannot_fix_one_edge() {
        // Edge (0,1) is hugely over-predicted while the others are
        // exact. LAT averages residuals per *node*, so it smears the
        // correction over all of a node's edges and still ranks node 2
        // closer to 0 — the very limitation Section 4.2 demonstrates.
        let emb = Embedding::new(vec![
            Coord::from_vec(vec![0.0]),
            Coord::from_vec(vec![50.0]),
            Coord::from_vec(vec![30.0]),
        ]);
        let mut m = DelayMatrix::new(3);
        m.set(0, 1, 10.0); // over-predicted by 40
        m.set(0, 2, 30.0); // exact
        m.set(1, 2, 20.0); // exact
        let lat = LatModel::fit(emb, &m, 2, 3);
        assert!(lat.adjustment(1) < 0.0);
        // Adjusted prediction of the bad edge improves (50 → 30) but is
        // still far from the true 10 ms...
        assert!((lat.predicted(0, 1) - 30.0).abs() < 1e-9);
        // ...so neighbor selection still picks the wrong node.
        assert_eq!(lat.select_nearest(0, &[1, 2]), Some(2));
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn size_mismatch_rejected() {
        let emb = Embedding::new(vec![Coord::origin(2); 3]);
        let m = DelayMatrix::new(4);
        LatModel::fit(emb, &m, 2, 1);
    }
}
