//! The Vivaldi spring-relaxation algorithm.
//!
//! Each pair of nodes that probe each other corresponds to a spring
//! whose rest length is the measured RTT; the coordinates evolve to
//! minimise total spring energy (squared prediction error). We implement
//! the adaptive-timestep rule of Dabek et al. (SIGCOMM'04), the variant
//! the paper simulates:
//!
//! ```text
//! w   = e_i / (e_i + e_j)                 (confidence weight)
//! es  = |‖x_i − x_j‖ − rtt| / rtt         (relative sample error)
//! e_i = es·c_e·w + e_i·(1 − c_e·w)        (error moving average)
//! x_i = x_i + c_c·w·(rtt − ‖x_i − x_j‖)·u(x_i − x_j)
//! ```
//!
//! One simulation *round* corresponds to one second of virtual time: in
//! a round, every node performs one probe-and-update step against one of
//! its neighbors (round-robin). The paper's "100 seconds of simulation
//! time" is therefore `run_rounds(net, 100)`.

use crate::coord::Coord;
use crate::embedding::Embedding;
use delayspace::matrix::NodeId;
use delayspace::rng::{self, DetRng};
use delayspace::stats::{Cdf, Percentiles};
use simnet::net::Network;

/// Tunable parameters of the Vivaldi algorithm.
#[derive(Clone, Copy, Debug)]
pub struct VivaldiConfig {
    /// Dimensionality of the embedding space (paper: 5).
    pub dims: usize,
    /// Coordinate timestep constant `c_c` (Dabek et al. recommend 0.25).
    pub cc: f64,
    /// Error moving-average constant `c_e` (0.25).
    pub ce: f64,
    /// Number of probing neighbors per node (paper: 32 random nodes).
    pub neighbors: usize,
    /// Scale of the random initial placement, ms. Small but nonzero to
    /// break symmetry deterministically.
    pub init_scale: f64,
    /// Use the Vivaldi height-vector model (`‖x_i − x_j‖ + h_i + h_j`)
    /// instead of plain Euclidean distance. The IMC'07 paper uses the
    /// plain 5-D model, so this defaults to off; heights capture
    /// access-link delay and are exercised by the ablation suite.
    pub use_height: bool,
}

impl Default for VivaldiConfig {
    fn default() -> Self {
        VivaldiConfig {
            dims: 5,
            cc: 0.25,
            ce: 0.25,
            neighbors: 32,
            init_scale: 1.0,
            use_height: false,
        }
    }
}

/// Statistics of one simulation run.
#[derive(Clone, Debug)]
pub struct RunStats {
    /// Per-update displacement magnitudes (ms per step). The paper
    /// reports a median of 1.61 ms/step and 90th percentile of
    /// 6.18 ms/step for DS² — large persistent movement is the
    /// signature of TIV-induced oscillation.
    pub movement: Cdf,
    /// Total probe-and-update steps executed.
    pub steps: u64,
}

impl RunStats {
    /// 10/50/90 summary of the movement speed.
    pub fn movement_percentiles(&self) -> Option<Percentiles> {
        self.movement.percentiles()
    }
}

/// A running Vivaldi system over `n` nodes.
#[derive(Clone, Debug)]
pub struct VivaldiSystem {
    config: VivaldiConfig,
    coords: Vec<Coord>,
    /// Local error estimate `e_i`, in (0, E_MAX].
    errors: Vec<f64>,
    neighbors: Vec<Vec<NodeId>>,
    /// Round-robin cursor into each node's neighbor list.
    cursor: Vec<usize>,
    rng: DetRng,
    steps: u64,
}

/// Upper bound on the local error estimate; keeps early wild samples
/// from saturating the confidence weights forever.
const E_MAX: f64 = 2.0;
/// Lower bound; a node is never infinitely confident.
const E_MIN: f64 = 1e-3;

impl VivaldiSystem {
    /// Creates a system of `n` nodes with random initial placement and
    /// `config.neighbors` random probing neighbors per node.
    pub fn new(config: VivaldiConfig, n: usize, seed: u64) -> Self {
        assert!(n >= 2, "Vivaldi needs at least two nodes");
        let mut r = rng::sub_rng(seed, "vivaldi");
        let coords = (0..n)
            .map(|_| {
                if config.use_height {
                    Coord::random_with_height(config.dims, config.init_scale, &mut r)
                } else {
                    Coord::random(config.dims, config.init_scale, &mut r)
                }
            })
            .collect();
        let neighbors = Self::random_neighbor_sets(n, config.neighbors, &mut r);
        VivaldiSystem {
            config,
            coords,
            errors: vec![1.0; n],
            neighbors,
            cursor: vec![0; n],
            rng: r,
            steps: 0,
        }
    }

    /// Draws `k` distinct random neighbors (excluding self) for each of
    /// `n` nodes.
    fn random_neighbor_sets(n: usize, k: usize, r: &mut DetRng) -> Vec<Vec<NodeId>> {
        let k = k.min(n - 1);
        (0..n)
            .map(|i| {
                // Sample from 0..n-1 and shift indices ≥ i to skip self.
                rng::sample_indices(r, n - 1, k)
                    .into_iter()
                    .map(|x| if x >= i { x + 1 } else { x })
                    .collect()
            })
            .collect()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// True when the system is empty (never; API symmetry).
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// The configuration.
    pub fn config(&self) -> &VivaldiConfig {
        &self.config
    }

    /// Current neighbor set of node `i`.
    pub fn neighbors_of(&self, i: NodeId) -> &[NodeId] {
        &self.neighbors[i]
    }

    /// Replaces the neighbor set of node `i` (dynamic-neighbor Vivaldi
    /// rewires between iterations). Resets the probing cursor.
    pub fn set_neighbors(&mut self, i: NodeId, neighbors: Vec<NodeId>) {
        assert!(!neighbors.is_empty(), "node {i} needs at least one neighbor");
        assert!(neighbors.iter().all(|&x| x != i && x < self.len()), "bad neighbor id");
        self.neighbors[i] = neighbors;
        self.cursor[i] = 0;
    }

    /// Predicted delay between `i` and `j` under the current coordinates.
    #[inline]
    pub fn predicted(&self, i: NodeId, j: NodeId) -> f64 {
        self.coords[i].distance(&self.coords[j])
    }

    /// The current coordinates, one per node.
    pub(crate) fn coords(&self) -> &[Coord] {
        &self.coords
    }

    /// Freezes the current coordinates into an [`Embedding`].
    pub fn embedding(&self) -> Embedding {
        Embedding::new(self.coords.clone())
    }

    /// One probe-and-update step of node `i` against neighbor `j`.
    /// Returns the displacement applied to `i`, or `None` when the pair
    /// is unmeasured in the data set.
    fn step(&mut self, net: &mut Network<'_>, i: NodeId, j: NodeId) -> Option<f64> {
        debug_assert_ne!(i, j);
        let rtt = net.probe(i, j)?;
        if rtt <= 0.0 {
            return None;
        }
        self.steps += 1;
        let dist = self.predicted(i, j);
        let (ei, ej) = (self.errors[i], self.errors[j]);
        let w = ei / (ei + ej);
        let es = (dist - rtt).abs() / rtt;
        let ce_w = self.config.ce * w;
        self.errors[i] = (es * ce_w + ei * (1.0 - ce_w)).clamp(E_MIN, E_MAX);
        let delta = self.config.cc * w;
        let step = delta * (rtt - dist);
        // Positive step (rtt > dist) pushes i away from j to stretch the
        // spring; negative pulls it in.
        let (me, other) = if i < j {
            let (head, tail) = self.coords.split_at_mut(j);
            (&mut head[i], &tail[0])
        } else {
            let (head, tail) = self.coords.split_at_mut(i);
            (&mut tail[0], &head[j])
        };
        Some(me.nudge_away_from(other, step, &mut self.rng))
    }

    /// Runs `rounds` rounds (1 round = every node does one step against
    /// its next round-robin neighbor = 1 s of virtual time).
    pub fn run_rounds(&mut self, net: &mut Network<'_>, rounds: usize) -> RunStats {
        let mut movement = Vec::with_capacity(rounds * self.len());
        for _ in 0..rounds {
            self.round(net, &mut movement);
        }
        RunStats { movement: Cdf::from_samples(movement), steps: self.steps }
    }

    /// Runs `rounds` rounds, invoking `observer` after each round with
    /// the round index (0-based) and the system state — used by the
    /// trace and oscillation instrumentation.
    pub fn run_rounds_observed(
        &mut self,
        net: &mut Network<'_>,
        rounds: usize,
        mut observer: impl FnMut(usize, &VivaldiSystem),
    ) -> RunStats {
        let mut movement = Vec::with_capacity(rounds * self.len());
        for round in 0..rounds {
            self.round(net, &mut movement);
            observer(round, self);
        }
        RunStats { movement: Cdf::from_samples(movement), steps: self.steps }
    }

    /// Runs `rounds` rounds invoking `observer` after **every individual
    /// probe-and-update step** (not just every round) with the running
    /// step index. Figure 10 of the paper needs this granularity: at a
    /// TIV-induced equilibrium the per-round snapshots form a limit
    /// cycle whose swing is only visible between steps.
    pub fn run_steps_observed(
        &mut self,
        net: &mut Network<'_>,
        rounds: usize,
        mut observer: impl FnMut(u64, &VivaldiSystem),
    ) -> RunStats {
        let mut movement = Vec::with_capacity(rounds * self.len());
        let n = self.len();
        for _ in 0..rounds {
            for i in 0..n {
                if self.neighbors[i].is_empty() {
                    continue;
                }
                let cur = self.cursor[i] % self.neighbors[i].len();
                self.cursor[i] = cur + 1;
                let j = self.neighbors[i][cur];
                if let Some(moved) = self.step(net, i, j) {
                    movement.push(moved);
                }
                let steps = self.steps;
                observer(steps, self);
            }
        }
        RunStats { movement: Cdf::from_samples(movement), steps: self.steps }
    }

    fn round(&mut self, net: &mut Network<'_>, movement: &mut Vec<f64>) {
        let n = self.len();
        for i in 0..n {
            if self.neighbors[i].is_empty() {
                continue;
            }
            let cur = self.cursor[i] % self.neighbors[i].len();
            self.cursor[i] = cur + 1;
            let j = self.neighbors[i][cur];
            if let Some(moved) = self.step(net, i, j) {
                movement.push(moved);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delayspace::matrix::DelayMatrix;
    use delayspace::synth::{Dataset, InternetDelaySpace};
    use simnet::net::JitterModel;

    fn run_system(m: &DelayMatrix, cfg: VivaldiConfig, rounds: usize, seed: u64) -> VivaldiSystem {
        let mut sys = VivaldiSystem::new(cfg, m.len(), seed);
        let mut net = Network::new(m, JitterModel::None, seed);
        sys.run_rounds(&mut net, rounds);
        sys
    }

    #[test]
    fn embeds_a_line_accurately() {
        // Perfectly embeddable 1-D metric: nodes on a line.
        let m = DelayMatrix::from_complete_fn(10, |i, j| 10.0 * (i.abs_diff(j)) as f64);
        let cfg = VivaldiConfig { dims: 3, neighbors: 9, ..VivaldiConfig::default() };
        let sys = run_system(&m, cfg, 300, 42);
        let emb = sys.embedding();
        let cdf = emb.abs_error_cdf(&m);
        assert!(cdf.median() < 3.0, "median error {} too high for a metric space", cdf.median());
    }

    #[test]
    fn euclidean_space_embeds_better_than_tiv_space() {
        let n = 120;
        let eu = InternetDelaySpace::preset(Dataset::Euclidean).with_nodes(n).build(5);
        let ds = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(n).build(5);
        let cfg = VivaldiConfig { neighbors: 16, ..VivaldiConfig::default() };
        let med_eu =
            run_system(eu.matrix(), cfg, 200, 1).embedding().abs_error_cdf(eu.matrix()).median();
        let med_ds =
            run_system(ds.matrix(), cfg, 200, 1).embedding().abs_error_cdf(ds.matrix()).median();
        assert!(
            med_eu < med_ds,
            "metric space should embed better: euclidean {med_eu} vs ds2 {med_ds}"
        );
    }

    #[test]
    fn three_node_tiv_cannot_converge() {
        // The Figure 10 scenario: d(A,B)=5, d(B,C)=5, d(C,A)=100.
        let mut m = DelayMatrix::new(3);
        m.set(0, 1, 5.0);
        m.set(1, 2, 5.0);
        m.set(2, 0, 100.0);
        let cfg = VivaldiConfig { neighbors: 2, ..VivaldiConfig::default() };
        let mut sys = VivaldiSystem::new(cfg, 3, 7);
        let mut net = Network::new(&m, JitterModel::None, 7);
        let stats = sys.run_rounds(&mut net, 200);
        // Errors cannot all go to zero: total squared error stays large.
        let emb = sys.embedding();
        let total_abs: f64 = emb.errors(&m).map(|(_, _, e)| e.abs()).sum();
        assert!(total_abs > 20.0, "TIV triangle should not embed (total err {total_abs})");
        // And the nodes keep moving (oscillation).
        let p = stats.movement_percentiles().unwrap();
        assert!(p.p50 > 0.05, "median movement {} suggests false convergence", p.p50);
    }

    #[test]
    fn movement_decays_on_metric_space() {
        let m = DelayMatrix::from_complete_fn(20, |i, j| 5.0 * (i.abs_diff(j)) as f64);
        let cfg = VivaldiConfig { dims: 3, neighbors: 10, ..VivaldiConfig::default() };
        let mut sys = VivaldiSystem::new(cfg, 20, 3);
        let mut net = Network::new(&m, JitterModel::None, 3);
        sys.run_rounds(&mut net, 150);
        // Movement in a late window should be much smaller than early.
        let late = sys.run_rounds(&mut net, 30);
        let p = late.movement_percentiles().unwrap();
        assert!(p.p50 < 1.0, "median late movement {} — no convergence", p.p50);
    }

    #[test]
    fn run_is_deterministic() {
        let m = DelayMatrix::from_complete_fn(15, |i, j| (3 * i + j) as f64 + 1.0);
        let cfg = VivaldiConfig::default();
        let a = run_system(&m, cfg, 50, 11).embedding();
        let b = run_system(&m, cfg, 50, 11).embedding();
        for i in 0..15 {
            assert_eq!(a.coord(i), b.coord(i));
        }
    }

    #[test]
    fn probe_budget_is_one_per_node_per_round() {
        let m = DelayMatrix::from_complete_fn(10, |_, _| 10.0);
        let cfg = VivaldiConfig { neighbors: 4, ..VivaldiConfig::default() };
        let mut sys = VivaldiSystem::new(cfg, 10, 1);
        let mut net = Network::new(&m, JitterModel::None, 1);
        sys.run_rounds(&mut net, 25);
        assert_eq!(net.stats().total(), 250);
    }

    #[test]
    fn set_neighbors_validates() {
        let cfg = VivaldiConfig::default();
        let mut sys = VivaldiSystem::new(cfg, 5, 1);
        sys.set_neighbors(0, vec![1, 2]);
        assert_eq!(sys.neighbors_of(0), &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "bad neighbor id")]
    fn set_neighbors_rejects_self() {
        let mut sys = VivaldiSystem::new(VivaldiConfig::default(), 5, 1);
        sys.set_neighbors(0, vec![0]);
    }

    #[test]
    fn local_error_shrinks_when_learnable() {
        let m = DelayMatrix::from_complete_fn(12, |i, j| 8.0 * (i.abs_diff(j)) as f64);
        let cfg = VivaldiConfig { dims: 2, neighbors: 6, ..VivaldiConfig::default() };
        let sys = run_system(&m, cfg, 200, 9);
        let mean_err: f64 = sys.errors.iter().sum::<f64>() / 12.0;
        assert!(mean_err < 0.5, "mean local error {mean_err} did not shrink");
    }

    #[test]
    fn height_model_wins_on_access_delay_space() {
        // Delays dominated by per-node access links: d(i,j) = a_i + a_j.
        // Such a space is exactly what heights model; a plain Euclidean
        // embedding must distort it (it would need all pairwise
        // distances to be sums, impossible in any R^d for varied a_i).
        let access: Vec<f64> = (0..24).map(|i| 5.0 + (i % 7) as f64 * 12.0).collect();
        let m = DelayMatrix::from_complete_fn(24, |i, j| access[i] + access[j]);
        let run = |use_height: bool| {
            let cfg =
                VivaldiConfig { dims: 2, neighbors: 12, use_height, ..VivaldiConfig::default() };
            run_system(&m, cfg, 400, 21).embedding().abs_error_cdf(&m).median()
        };
        let plain = run(false);
        let height = run(true);
        assert!(
            height < plain,
            "height model should win on access-delay space: {height} !< {plain}"
        );
    }

    #[test]
    fn heights_stay_nonnegative() {
        let m = DelayMatrix::from_complete_fn(10, |i, j| 3.0 * (i + j + 1) as f64);
        let cfg = VivaldiConfig { use_height: true, neighbors: 5, ..VivaldiConfig::default() };
        let sys = run_system(&m, cfg, 100, 23);
        let emb = sys.embedding();
        for i in 0..10 {
            assert!(emb.coord(i).height() >= 0.0);
        }
    }

    #[test]
    fn observer_sees_every_round() {
        let m = DelayMatrix::from_complete_fn(6, |_, _| 10.0);
        let mut sys = VivaldiSystem::new(VivaldiConfig::default(), 6, 1);
        let mut net = Network::new(&m, JitterModel::None, 1);
        let mut rounds_seen = Vec::new();
        sys.run_rounds_observed(&mut net, 7, |r, _| rounds_seen.push(r));
        assert_eq!(rounds_seen, vec![0, 1, 2, 3, 4, 5, 6]);
    }
}
