//! Instrumentation: per-edge prediction traces and oscillation ranges.
//!
//! Figure 10 of the paper plots the prediction-error trace of the three
//! edges of a TIV triangle over 100 s; Figure 11 plots the distribution
//! of per-edge *oscillation ranges* — `max(predicted) − min(predicted)`
//! over a 500 s run — against edge length, showing that TIV keeps
//! predictions swinging by up to hundreds of milliseconds even for
//! 10 ms edges.

use crate::coord::predicted_delay;
use crate::system::VivaldiSystem;
use delayspace::matrix::{DelayMatrix, NodeId};
use delayspace::stats::BinnedStats;

/// Records the predicted delay of a set of tracked edges after every
/// round.
#[derive(Clone, Debug)]
pub struct EdgeTrace {
    edges: Vec<(NodeId, NodeId)>,
    /// `series[e][r]` = predicted delay of edge `e` after round `r`.
    series: Vec<Vec<f64>>,
}

impl EdgeTrace {
    /// Starts a trace over the given edges.
    pub fn new(edges: Vec<(NodeId, NodeId)>) -> Self {
        let series = vec![Vec::new(); edges.len()];
        EdgeTrace { edges, series }
    }

    /// Samples the current predictions; call once per round.
    pub fn record(&mut self, sys: &VivaldiSystem) {
        for (e, &(i, j)) in self.edges.iter().enumerate() {
            self.series[e].push(sys.predicted(i, j));
        }
    }

    /// The tracked edges.
    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        &self.edges
    }

    /// Prediction series of tracked edge `e`.
    pub fn predictions(&self, e: usize) -> &[f64] {
        &self.series[e]
    }

    /// Error series `predicted − measured` of tracked edge `e`.
    pub fn errors(&self, e: usize, m: &DelayMatrix) -> Vec<f64> {
        let (i, j) = self.edges[e];
        let d = m.get(i, j).unwrap_or(f64::NAN);
        self.series[e].iter().map(|p| p - d).collect()
    }
}

/// Tracks min/max predicted delay per edge — the oscillation range.
///
/// Tracking all O(n²) edges over hundreds of rounds is affordable
/// because only two f64 per edge are kept; for very large matrices use
/// [`OscillationTracker::sampled`] to bound the tracked set.
#[derive(Clone, Debug)]
pub struct OscillationTracker {
    edges: Vec<(NodeId, NodeId)>,
    min: Vec<f64>,
    max: Vec<f64>,
    samples: usize,
    /// The round's coordinates, node-major, `dims` components then the
    /// height per node; refilled by every [`OscillationTracker::record`].
    flat: Vec<f64>,
}

impl OscillationTracker {
    /// Tracks every measured edge of `m`.
    pub fn all_edges(m: &DelayMatrix) -> Self {
        Self::new(m.edges().map(|(i, j, _)| (i, j)).collect())
    }

    /// Tracks a deterministic sample of at most `k` measured edges: the
    /// edges at `k` distinct indices of [`DelayMatrix::edges`], drawn
    /// from the `"osc/sample"` stream, kept in draw order.
    ///
    /// Only the chosen edges are held: the measured edges are counted,
    /// the indices drawn, and the edges picked out in one more pass.
    pub fn sampled(m: &DelayMatrix, k: usize, seed: u64) -> Self {
        let total = m.edges().count();
        if total <= k {
            return Self::all_edges(m);
        }
        let mut r = delayspace::rng::sub_rng(seed, "osc/sample");
        let idx = delayspace::rng::sample_indices(&mut r, total, k);
        // (edge index, draw slot), ascending by edge index.
        let mut wanted: Vec<(usize, usize)> = idx.into_iter().zip(0..).collect();
        wanted.sort_unstable();
        let mut edges = vec![(0, 0); wanted.len()];
        let mut wanted = wanted.into_iter().peekable();
        for (e, (i, j, _)) in m.edges().enumerate() {
            let Some(&(next, slot)) = wanted.peek() else { break };
            if e == next {
                edges[slot] = (i, j);
                wanted.next();
            }
        }
        Self::new(edges)
    }

    fn new(edges: Vec<(NodeId, NodeId)>) -> Self {
        let n = edges.len();
        OscillationTracker {
            edges,
            min: vec![f64::INFINITY; n],
            max: vec![f64::NEG_INFINITY; n],
            samples: 0,
            flat: Vec::new(),
        }
    }

    /// Samples the current predictions; call once per round.
    ///
    /// Each prediction is [`Coord::distance`](crate::Coord::distance)'s
    /// formula, read from one contiguous copy of the round's
    /// coordinates; the extremes are updated with selects, not
    /// branches, which the hardware cannot predict.
    pub fn record(&mut self, sys: &VivaldiSystem) {
        self.samples += 1;
        let coords = sys.coords();
        let dims = coords[0].dims();
        let stride = dims + 1;
        self.flat.clear();
        for c in coords {
            self.flat.extend_from_slice(c.as_slice());
            self.flat.push(c.height());
        }
        let flat = &self.flat[..];
        let tracked = self.edges.iter().zip(self.min.iter_mut().zip(self.max.iter_mut()));
        for (&(i, j), (lo, hi)) in tracked {
            let (a, b) = (&flat[i * stride..][..stride], &flat[j * stride..][..stride]);
            let p = predicted_delay(&a[..dims], a[dims], &b[..dims], b[dims]);
            *lo = if p < *lo { p } else { *lo };
            *hi = if p > *hi { p } else { *hi };
        }
    }

    /// Number of rounds recorded so far.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Oscillation range of each tracked edge: `(i, j, max − min)`.
    /// Empty until at least one round is recorded.
    pub fn ranges(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter(move |_| self.samples > 0)
            .map(move |(e, &(i, j))| (i, j, self.max[e] - self.min[e]))
    }

    /// Figure 11: oscillation ranges binned by measured edge length
    /// (`bin_ms`-wide bins up to `max_ms`), summarised by 10/50/90.
    pub fn by_delay_bins(&self, m: &DelayMatrix, bin_ms: f64, max_ms: f64) -> BinnedStats {
        BinnedStats::build(
            self.ranges().filter_map(|(i, j, r)| m.get(i, j).map(|d| (d, r))),
            bin_ms,
            max_ms,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{VivaldiConfig, VivaldiSystem};
    use delayspace::matrix::DelayMatrix;
    use simnet::net::{JitterModel, Network};

    fn tiv_triangle() -> DelayMatrix {
        let mut m = DelayMatrix::new(3);
        m.set(0, 1, 5.0);
        m.set(1, 2, 5.0);
        m.set(2, 0, 100.0);
        m
    }

    #[test]
    fn edge_trace_records_every_round() {
        let m = tiv_triangle();
        let mut sys =
            VivaldiSystem::new(VivaldiConfig { neighbors: 2, ..VivaldiConfig::default() }, 3, 1);
        let mut net = Network::new(&m, JitterModel::None, 1);
        let mut trace = EdgeTrace::new(vec![(0, 1), (1, 2), (2, 0)]);
        sys.run_rounds_observed(&mut net, 40, |_, s| trace.record(s));
        assert_eq!(trace.predictions(0).len(), 40);
        let errs = trace.errors(2, &m);
        assert_eq!(errs.len(), 40);
        // Edge (2,0) is the TIV edge: it must stay under-predicted at
        // some point (negative error = shrunk below 100 ms).
        assert!(errs.iter().any(|&e| e < -10.0), "TIV edge never shrunk: {errs:?}");
    }

    #[test]
    fn oscillation_ranges_nonzero_under_tiv() {
        let m = tiv_triangle();
        let mut sys =
            VivaldiSystem::new(VivaldiConfig { neighbors: 2, ..VivaldiConfig::default() }, 3, 5);
        let mut net = Network::new(&m, JitterModel::None, 5);
        let mut osc = OscillationTracker::all_edges(&m);
        // Skip warmup, then track.
        sys.run_rounds(&mut net, 50);
        sys.run_rounds_observed(&mut net, 100, |_, s| osc.record(s));
        assert_eq!(osc.samples(), 100);
        let ranges: Vec<f64> = osc.ranges().map(|(_, _, r)| r).collect();
        assert_eq!(ranges.len(), 3);
        assert!(ranges.iter().all(|&r| r > 0.0), "no oscillation under TIV: {ranges:?}");
    }

    #[test]
    fn sampled_tracker_bounds_edge_count() {
        let m = DelayMatrix::from_complete_fn(30, |i, j| (i + j) as f64 + 1.0);
        let t = OscillationTracker::sampled(&m, 50, 3);
        assert_eq!(t.ranges().count(), 0); // nothing recorded yet
        assert_eq!(t.edges.len(), 50);
        let t_all = OscillationTracker::sampled(&m, 10_000, 3);
        assert_eq!(t_all.edges.len(), 30 * 29 / 2);
    }

    #[test]
    fn sampled_tracker_keeps_the_collected_draw() {
        // The construction `sampled` replaced: collect every measured
        // edge, then index it by the draw. Holes make edge indices differ
        // from pair positions, and k > 4096 takes the sampler's large path.
        let m = DelayMatrix::from_fn(400, |i, j| {
            ((i * 7 + j * 13) % 11 != 0).then_some((i.abs_diff(j) % 97) as f64 + 1.0)
        });
        let (k, seed) = (5_000, 17);
        let all: Vec<(NodeId, NodeId)> = m.edges().map(|(i, j, _)| (i, j)).collect();
        assert!(all.len() > k);
        let mut r = delayspace::rng::sub_rng(seed, "osc/sample");
        let idx = delayspace::rng::sample_indices(&mut r, all.len(), k);
        let want: Vec<(NodeId, NodeId)> = idx.into_iter().map(|i| all[i]).collect();
        assert_eq!(OscillationTracker::sampled(&m, k, seed).edges, want);
    }

    #[test]
    fn record_matches_a_predicted_loop() {
        // The per-edge `sys.predicted` loop `record` replaced, with and
        // without heights, over a sampled edge set that repeats nodes.
        let m = DelayMatrix::from_complete_fn(40, |i, j| ((i * 31 + j * 17) % 89) as f64 + 2.0);
        for use_height in [false, true] {
            let cfg =
                VivaldiConfig { dims: 3, neighbors: 6, use_height, ..VivaldiConfig::default() };
            let mut sys = VivaldiSystem::new(cfg, m.len(), 4);
            let mut net = Network::new(&m, JitterModel::None, 4);
            let mut osc = OscillationTracker::sampled(&m, 300, 4);
            let (mut min, mut max) = (vec![f64::INFINITY; 300], vec![f64::NEG_INFINITY; 300]);
            let edges = osc.edges.clone();
            sys.run_rounds_observed(&mut net, 30, |_, s| {
                osc.record(s);
                for (e, &(i, j)) in edges.iter().enumerate() {
                    let p = s.predicted(i, j);
                    if p < min[e] {
                        min[e] = p;
                    }
                    if p > max[e] {
                        max[e] = p;
                    }
                }
            });
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&osc.min), bits(&min), "use_height {use_height}");
            assert_eq!(bits(&osc.max), bits(&max), "use_height {use_height}");
        }
    }

    #[test]
    fn by_delay_bins_buckets_by_measured_length() {
        let m = tiv_triangle();
        let mut sys =
            VivaldiSystem::new(VivaldiConfig { neighbors: 2, ..VivaldiConfig::default() }, 3, 5);
        let mut net = Network::new(&m, JitterModel::None, 5);
        let mut osc = OscillationTracker::all_edges(&m);
        sys.run_rounds_observed(&mut net, 60, |_, s| osc.record(s));
        let bins = osc.by_delay_bins(&m, 10.0, 200.0);
        // Edges at 5 ms fall in bin 0; edge at 100 ms in bin 10.
        assert_eq!(bins.bins[0].stats.unwrap().count, 2);
        assert_eq!(bins.bins[10].stats.unwrap().count, 1);
    }
}
