//! Euclidean coordinates for network embedding.
//!
//! The paper embeds delays into a 5-dimensional Euclidean space
//! ("while any metric space can potentially be used, this paper uses a
//! 5D Euclidean space for simplicity"). Dimensionality is a runtime
//! parameter here because the ablation benches sweep it.

use delayspace::rng::DetRng;
use rand::Rng;

/// A point in a low-dimensional embedding space, optionally augmented
/// with a *height* (the Vivaldi paper's height-vector model). Units are
/// milliseconds.
///
/// Without height, the predicted delay is the Euclidean distance.
/// With heights, it is `‖x_i − x_j‖ + h_i + h_j`: the Euclidean part
/// models the high-speed core, the heights model each node's access
/// link, which every path must traverse at both ends. Heights are
/// clamped non-negative.
#[derive(Debug, PartialEq)]
pub struct Coord {
    v: Vec<f64>,
    /// Access-link height (ms); 0 in the plain Euclidean model.
    h: f64,
}

impl Clone for Coord {
    fn clone(&self) -> Self {
        Coord { v: self.v.clone(), h: self.h }
    }

    /// Copies `source` into this coordinate's component buffer instead
    /// of allocating a new one (what the derived `clone_from` would do),
    /// so refilling a recycled [`Embedding`](crate::Embedding) of the
    /// same dimensionality allocates nothing.
    fn clone_from(&mut self, source: &Self) {
        self.v.clone_from(&source.v);
        self.h = source.h;
    }
}

impl Coord {
    /// The origin of a `dims`-dimensional space (height 0).
    pub fn origin(dims: usize) -> Self {
        assert!(dims > 0, "embedding needs at least one dimension");
        Coord { v: vec![0.0; dims], h: 0.0 }
    }

    /// A random point in `[-scale, scale]^dims` with height 0; used to
    /// break the symmetry of an all-origin start.
    pub fn random(dims: usize, scale: f64, rng: &mut DetRng) -> Self {
        assert!(dims > 0, "embedding needs at least one dimension");
        Coord { v: (0..dims).map(|_| rng.gen_range(-scale..scale)).collect(), h: 0.0 }
    }

    /// A random point with a random non-negative height in `[0, scale]`.
    pub fn random_with_height(dims: usize, scale: f64, rng: &mut DetRng) -> Self {
        let mut c = Self::random(dims, scale, rng);
        c.h = rng.gen_range(0.0..scale);
        c
    }

    /// Constructs from explicit components (height 0).
    pub fn from_vec(v: Vec<f64>) -> Self {
        assert!(!v.is_empty(), "embedding needs at least one dimension");
        Coord { v, h: 0.0 }
    }

    /// Constructs from components plus a height.
    ///
    /// # Panics
    /// Panics on a negative height.
    pub fn with_height(v: Vec<f64>, h: f64) -> Self {
        assert!(h >= 0.0, "height must be non-negative");
        let mut c = Self::from_vec(v);
        c.h = h;
        c
    }

    /// Dimensionality (excluding the height component).
    pub fn dims(&self) -> usize {
        self.v.len()
    }

    /// Euclidean components.
    pub fn as_slice(&self) -> &[f64] {
        &self.v
    }

    /// The height component (0 in the plain model).
    pub fn height(&self) -> f64 {
        self.h
    }

    /// Predicted delay to `other`: Euclidean distance plus both
    /// heights.
    pub fn distance(&self, other: &Coord) -> f64 {
        predicted_delay(&self.v, self.h, &other.v, other.h)
    }

    /// Euclidean norm of the planar part plus the height.
    pub fn norm(&self) -> f64 {
        self.v.iter().map(|a| a * a).sum::<f64>().sqrt() + self.h
    }

    /// Moves this point by `step · u` where `u` is the unit vector from
    /// `other` towards `self` in the height-augmented space: the planar
    /// part points away from `other`, the height part is the positive
    /// direction `h_self + h_other` (growing both heights stretches the
    /// predicted delay, per the Vivaldi height-model rules). When the
    /// planar parts coincide the direction is chosen randomly.
    ///
    /// Allocates nothing at any dimensionality unless the points
    /// coincide: the direction is recomputed component by component
    /// where it is applied.
    ///
    /// Returns the displacement magnitude actually applied (|step|).
    pub fn nudge_away_from(&mut self, other: &Coord, step: f64, rng: &mut DetRng) -> f64 {
        debug_assert_eq!(self.v.len(), other.v.len());
        let dir_h = self.h + other.h;
        let planar = self.v.iter().zip(&other.v).map(|(a, b)| (a - b) * (a - b)).sum::<f64>();
        let mut norm = (planar + dir_h * dir_h).sqrt();
        if norm < 1e-12 {
            // Coincident points: random unit direction (planar only;
            // heights separate naturally once the plane does).
            let dir: Vec<f64> = (0..self.v.len()).map(|_| rng.gen_range(-1.0..1.0)).collect();
            norm = dir.iter().map(|d| d * d).sum::<f64>().sqrt().max(1e-12);
            for (c, d) in self.v.iter_mut().zip(&dir) {
                *c += step * d / norm;
            }
        } else {
            for (c, o) in self.v.iter_mut().zip(&other.v) {
                let d = *c - o;
                *c += step * d / norm;
            }
        }
        // Height moves along its own (always positive) axis and is
        // clamped at the floor.
        self.h = (self.h + step * dir_h / norm).max(0.0);
        step.abs()
    }
}

/// The predicted delay between two points given by their planar
/// components and heights: the Euclidean distance of `a` and `b` plus
/// both heights. [`Coord::distance`] computes it on its fields, the
/// oscillation tracker on its flat copy of a round's coordinates.
#[inline]
pub(crate) fn predicted_delay(a: &[f64], ha: f64, b: &[f64], hb: f64) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt() + ha + hb
}

#[cfg(test)]
mod tests {
    use super::*;
    use delayspace::rng;

    #[test]
    fn distance_is_euclidean() {
        let a = Coord::from_vec(vec![0.0, 0.0]);
        let b = Coord::from_vec(vec![3.0, 4.0]);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(b.distance(&a), 5.0);
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    fn nudge_moves_apart_by_step() {
        let mut r = rng::rng(1);
        let mut a = Coord::from_vec(vec![1.0, 0.0]);
        let b = Coord::from_vec(vec![0.0, 0.0]);
        let moved = a.nudge_away_from(&b, 2.0, &mut r);
        assert_eq!(moved, 2.0);
        assert!((a.distance(&b) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn negative_step_moves_towards() {
        let mut r = rng::rng(1);
        let mut a = Coord::from_vec(vec![10.0, 0.0]);
        let b = Coord::from_vec(vec![0.0, 0.0]);
        a.nudge_away_from(&b, -4.0, &mut r);
        assert!((a.distance(&b) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn coincident_points_separate_randomly() {
        let mut r = rng::rng(2);
        let mut a = Coord::origin(5);
        let b = Coord::origin(5);
        a.nudge_away_from(&b, 1.0, &mut r);
        assert!((a.distance(&b) - 1.0).abs() < 1e-9);
    }

    /// The collect-then-apply loop `nudge_away_from` replaced, kept as
    /// the reference its allocation-free form must match bit for bit.
    fn nudge_reference(a: &mut Coord, other: &Coord, step: f64, rng: &mut DetRng) -> f64 {
        let mut dir: Vec<f64> = a.v.iter().zip(&other.v).map(|(x, y)| x - y).collect();
        let dir_h = a.h + other.h;
        let mut norm = (dir.iter().map(|d| d * d).sum::<f64>() + dir_h * dir_h).sqrt();
        if norm < 1e-12 {
            for d in &mut dir {
                *d = rng.gen_range(-1.0..1.0);
            }
            norm = dir.iter().map(|d| d * d).sum::<f64>().sqrt().max(1e-12);
        }
        for (c, d) in a.v.iter_mut().zip(&dir) {
            *c += step * d / norm;
        }
        a.h = (a.h + step * dir_h / norm).max(0.0);
        step.abs()
    }

    #[test]
    fn nudge_matches_the_collecting_reference() {
        let mut draw = rng::rng(9);
        for dims in [1, 2, 5, 9, 17] {
            for heights in [false, true] {
                for coincident in [false, true] {
                    for round in 0..20 {
                        let mut a = if heights {
                            Coord::random_with_height(dims, 50.0, &mut draw)
                        } else {
                            Coord::random(dims, 50.0, &mut draw)
                        };
                        let b = if coincident {
                            // Same plane and zero heights: the random path.
                            Coord::from_vec(a.v.clone())
                        } else if heights {
                            Coord::random_with_height(dims, 50.0, &mut draw)
                        } else {
                            Coord::random(dims, 50.0, &mut draw)
                        };
                        if coincident {
                            a.h = 0.0;
                        }
                        let step: f64 = draw.gen_range(-30.0..30.0);
                        let seed = (dims * 1000 + round) as u64;
                        let (mut want, mut want_rng) = (a.clone(), rng::rng(seed));
                        let (mut got, mut got_rng) = (a, rng::rng(seed));
                        let w = nudge_reference(&mut want, &b, step, &mut want_rng);
                        let g = got.nudge_away_from(&b, step, &mut got_rng);
                        let ctx = format!("dims {dims} heights {heights} coincident {coincident}");
                        assert_eq!(g.to_bits(), w.to_bits(), "{ctx}");
                        let bits = |c: &Coord| -> Vec<u64> {
                            c.v.iter().chain([&c.h]).map(|x| x.to_bits()).collect()
                        };
                        assert_eq!(bits(&got), bits(&want), "{ctx}");
                        // Both generators must have advanced alike: the
                        // next draw tells.
                        assert_eq!(got_rng.gen::<u64>(), want_rng.gen::<u64>(), "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn random_points_within_scale() {
        let mut r = rng::rng(3);
        for _ in 0..100 {
            let c = Coord::random(4, 10.0, &mut r);
            assert!(c.as_slice().iter().all(|&x| (-10.0..10.0).contains(&x)));
        }
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn zero_dims_rejected() {
        Coord::origin(0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_coord(dims: usize) -> impl Strategy<Value = Coord> {
        proptest::collection::vec(-1e4f64..1e4, dims).prop_map(Coord::from_vec)
    }

    proptest! {
        #[test]
        fn distance_is_a_metric(a in arb_coord(4), b in arb_coord(4), c in arb_coord(4)) {
            // Symmetry, identity, triangle inequality — the embedding
            // space itself is metric (that is exactly why it cannot
            // represent TIV).
            prop_assert!((a.distance(&b) - b.distance(&a)).abs() < 1e-9);
            prop_assert_eq!(a.distance(&a), 0.0);
            prop_assert!(a.distance(&c) <= a.distance(&b) + b.distance(&c) + 1e-6);
        }

        #[test]
        fn nudge_changes_distance_by_step(
            a in arb_coord(3),
            b in arb_coord(3),
            step in -100.0f64..100.0,
        ) {
            prop_assume!(a.distance(&b) > 1e-6);
            let before = a.distance(&b);
            let mut moved = a.clone();
            let mut rng = delayspace::rng::rng(1);
            moved.nudge_away_from(&b, step, &mut rng);
            let after = moved.distance(&b);
            // Moving along the line through b changes the distance by
            // exactly `step` (clamped at passing through b).
            let expect = (before + step).abs();
            prop_assert!((after - expect).abs() < 1e-6, "{before} + {step} → {after}");
        }
    }
}
