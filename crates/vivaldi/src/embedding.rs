//! Embedding snapshots: a frozen set of coordinates with prediction and
//! error queries.
//!
//! Several parts of the paper operate on a *snapshot* of Vivaldi's
//! steady-state coordinates rather than on the live system — most
//! importantly the TIV alert mechanism, which is driven by the
//! **prediction ratio** `euclidean_distance / measured_delay` of a
//! snapshot (Section 5.1, Figure 19).

use crate::coord::Coord;
use delayspace::matrix::{nearest_by, DelayMatrix, NodeId};
use delayspace::stats::Cdf;

/// A frozen embedding: one coordinate per node.
#[derive(Debug)]
pub struct Embedding {
    coords: Vec<Coord>,
}

impl Clone for Embedding {
    fn clone(&self) -> Self {
        Embedding { coords: self.coords.clone() }
    }

    /// Copies `source` coordinate by coordinate into this embedding's
    /// buffers ([`Coord`]'s `clone_from`), so an epoch builder refilling
    /// a retired embedding of the same shape allocates nothing.
    fn clone_from(&mut self, source: &Self) {
        self.coords.clone_from(&source.coords);
    }
}

impl Embedding {
    /// Wraps a coordinate vector.
    pub fn new(coords: Vec<Coord>) -> Self {
        assert!(!coords.is_empty(), "embedding of zero nodes");
        let d = coords[0].dims();
        assert!(coords.iter().all(|c| c.dims() == d), "mixed dimensionality");
        Embedding { coords }
    }

    /// Number of embedded nodes.
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// True when the embedding is empty (never; kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Coordinate of node `i`.
    pub fn coord(&self, i: NodeId) -> &Coord {
        &self.coords[i]
    }

    /// All coordinates.
    pub fn coords(&self) -> &[Coord] {
        &self.coords
    }

    /// Replaces node `i`'s coordinate.
    ///
    /// # Panics
    /// Panics when `c` has another dimensionality than the embedding.
    pub fn set_coord(&mut self, i: NodeId, c: Coord) {
        assert_eq!(c.dims(), self.coords[i].dims(), "mixed dimensionality");
        self.coords[i] = c;
    }

    /// Predicted delay between `i` and `j` (Euclidean distance, ms).
    #[inline]
    pub fn predicted(&self, i: NodeId, j: NodeId) -> f64 {
        self.coords[i].distance(&self.coords[j])
    }

    /// Prediction ratio `predicted / measured` for the pair, or `None`
    /// when the pair is unmeasured. Ratios well below 1 mean the edge
    /// was *shrunk* by the embedding — the paper's TIV-alert signal.
    pub fn prediction_ratio(&self, m: &DelayMatrix, i: NodeId, j: NodeId) -> Option<f64> {
        let d = m.get(i, j)?;
        if d <= 0.0 {
            return None;
        }
        Some(self.predicted(i, j) / d)
    }

    /// Signed prediction error `predicted − measured` per measured edge.
    pub fn errors<'a>(
        &'a self,
        m: &'a DelayMatrix,
    ) -> impl Iterator<Item = (NodeId, NodeId, f64)> + 'a {
        m.edges().map(move |(i, j, d)| (i, j, self.predicted(i, j) - d))
    }

    /// CDF of absolute prediction errors over all measured edges.
    ///
    /// The paper reports for DS²: median ≈ 20 ms, 90th ≈ 140 ms.
    pub fn abs_error_cdf(&self, m: &DelayMatrix) -> Cdf {
        Cdf::from_samples(self.errors(m).map(|(_, _, e)| e.abs()))
    }

    /// Among `candidates`, the node with the smallest *predicted* delay
    /// to `client` — the embedding-driven neighbor selection primitive
    /// used by every penalty experiment.
    pub fn select_nearest(&self, client: NodeId, candidates: &[NodeId]) -> Option<NodeId> {
        nearest_by(client, candidates, |c| self.predicted(client, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_embedding() -> Embedding {
        // Nodes at x = 0, 10, 25 on a line.
        Embedding::new(vec![
            Coord::from_vec(vec![0.0, 0.0]),
            Coord::from_vec(vec![10.0, 0.0]),
            Coord::from_vec(vec![25.0, 0.0]),
        ])
    }

    #[test]
    fn predicted_is_distance() {
        let e = line_embedding();
        assert_eq!(e.predicted(0, 2), 25.0);
        assert_eq!(e.predicted(1, 2), 15.0);
    }

    #[test]
    fn prediction_ratio_detects_shrunk_edges() {
        let e = line_embedding();
        let mut m = DelayMatrix::new(3);
        m.set(0, 2, 100.0); // embedding says 25 → ratio 0.25: shrunk
        m.set(0, 1, 10.0); // exact → ratio 1
        assert_eq!(e.prediction_ratio(&m, 0, 2), Some(0.25));
        assert_eq!(e.prediction_ratio(&m, 0, 1), Some(1.0));
        assert_eq!(e.prediction_ratio(&m, 1, 2), None); // unmeasured
    }

    #[test]
    fn abs_error_cdf_over_measured_edges() {
        let e = line_embedding();
        let mut m = DelayMatrix::new(3);
        m.set(0, 1, 12.0); // err -2
        m.set(0, 2, 20.0); // err +5
        let cdf = e.abs_error_cdf(&m);
        assert_eq!(cdf.len(), 2);
        assert_eq!(cdf.quantile(1.0), 5.0);
    }

    #[test]
    fn select_nearest_uses_predictions() {
        let e = line_embedding();
        assert_eq!(e.select_nearest(0, &[1, 2]), Some(1));
        assert_eq!(e.select_nearest(2, &[0, 1]), Some(1));
        assert_eq!(e.select_nearest(1, &[1]), None); // only self
    }

    #[test]
    fn select_nearest_matches_min_by_with_ties() {
        // Coordinates repeat, so predictions tie; the reference is the
        // double-evaluating `min_by`, which keeps the first of equals.
        let e = Embedding::new(
            (0..10).map(|i| Coord::from_vec(vec![(i % 4) as f64 * 3.0, 1.0])).collect(),
        );
        let reference = |client: NodeId, candidates: &[NodeId]| {
            candidates
                .iter()
                .copied()
                .filter(|&c| c != client)
                .min_by(|&a, &b| e.predicted(client, a).total_cmp(&e.predicted(client, b)))
        };
        let all: Vec<NodeId> = (0..10).collect();
        let backwards: Vec<NodeId> = (0..10).rev().collect();
        for client in 0..10 {
            for pool in [&all[..], &backwards[..], &[4, 8, 0][..], &[client][..]] {
                assert_eq!(e.select_nearest(client, pool), reference(client, pool));
            }
        }
        // Nodes 4 and 8 sit at the same point as node 0: first wins.
        assert_eq!(e.select_nearest(0, &[8, 4]), Some(8));
    }

    #[test]
    fn clone_from_reuses_every_buffer() {
        let src = line_embedding();
        let mut dst = Embedding::new(vec![Coord::with_height(vec![7.0, 7.0], 1.0); 3]);
        let buffers: Vec<*const f64> = dst.coords().iter().map(|c| c.as_slice().as_ptr()).collect();
        dst.clone_from(&src);
        assert_eq!(dst.coords(), src.coords());
        let after: Vec<*const f64> = dst.coords().iter().map(|c| c.as_slice().as_ptr()).collect();
        assert_eq!(after, buffers, "clone_from allocated a coordinate");
    }

    #[test]
    fn set_coord_replaces_one_node() {
        let mut e = line_embedding();
        e.set_coord(1, Coord::from_vec(vec![25.0, 0.0]));
        assert_eq!(e.predicted(1, 2), 0.0);
        assert_eq!(e.predicted(0, 1), 25.0);
    }

    #[test]
    #[should_panic(expected = "mixed dimensionality")]
    fn set_coord_rejects_another_dimensionality() {
        line_embedding().set_coord(0, Coord::origin(3));
    }

    #[test]
    #[should_panic(expected = "mixed dimensionality")]
    fn mixed_dims_rejected() {
        Embedding::new(vec![Coord::origin(2), Coord::origin(3)]);
    }
}
