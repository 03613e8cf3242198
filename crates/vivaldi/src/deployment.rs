//! Event-driven Vivaldi deployment with churn.
//!
//! [`crate::system::VivaldiSystem::run_rounds`] advances all nodes in
//! lockstep — the right model for reproducing the paper's figures. A
//! deployed coordinate system is messier: nodes probe on their own
//! timers with jitter, join at different times, and leave. This module
//! runs the same spring algorithm on the [`simnet::sim::Simulation`]
//! event queue, so the workspace also covers the asynchronous regime
//! the paper's conclusions point towards ("robust TIV-aware distributed
//! systems").
//!
//! Semantics: each *live* node fires a probe event on average every
//! `probe_interval_ms` (uniformly jittered ±50%), probing the next
//! neighbor in round-robin order. Join events bring a node up with a
//! fresh coordinate; leave events freeze it (probes towards it fail
//! like an unmeasured pair, and it stops probing).

use crate::system::{VivaldiConfig, VivaldiSystem};
use delayspace::matrix::NodeId;
use delayspace::rng::{self, DetRng};
use rand::Rng;
use simnet::net::Network;
use simnet::sim::{SimTime, Simulation};

/// A scheduled event of the deployment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeployEvent {
    /// The node performs one probe-and-update step.
    Probe(NodeId),
    /// The node joins (starts probing).
    Join(NodeId),
    /// The node leaves (stops probing; peers' probes to it fail).
    Leave(NodeId),
}

/// Configuration of the event-driven run.
#[derive(Clone, Copy, Debug)]
pub struct DeploymentConfig {
    /// Vivaldi algorithm parameters.
    pub vivaldi: VivaldiConfig,
    /// Mean per-node probe interval (ms of virtual time); the paper's
    /// round-based simulations correspond to 1000 ms.
    pub probe_interval_ms: f64,
}

impl Default for DeploymentConfig {
    fn default() -> Self {
        DeploymentConfig { vivaldi: VivaldiConfig::default(), probe_interval_ms: 1000.0 }
    }
}

/// An asynchronous Vivaldi deployment.
pub struct Deployment {
    system: VivaldiSystem,
    sim: Simulation<DeployEvent>,
    live: Vec<bool>,
    cfg: DeploymentConfig,
    rng: DetRng,
    /// Steps executed per node (for fairness checks).
    steps: Vec<u64>,
}

impl Deployment {
    /// Creates a deployment of `n` nodes, all scheduled to join at time
    /// zero (staggered within one probe interval to avoid a thundering
    /// herd — as a real deployment's jittered timers would).
    pub fn new(cfg: DeploymentConfig, n: usize, seed: u64) -> Self {
        let system = VivaldiSystem::new(cfg.vivaldi, n, seed);
        let mut sim = Simulation::new();
        let mut r = rng::sub_rng(seed, "deployment");
        for node in 0..n {
            let offset = r.gen_range(0.0..cfg.probe_interval_ms);
            sim.schedule(SimTime::from_ms(offset), DeployEvent::Join(node));
        }
        Deployment { system, sim, live: vec![false; n], cfg, rng: r, steps: vec![0; n] }
    }

    /// Schedules a leave event at `at_ms` of virtual time.
    pub fn schedule_leave(&mut self, node: NodeId, at_ms: f64) {
        self.sim.schedule(SimTime::from_ms(at_ms), DeployEvent::Leave(node));
    }

    /// Schedules a (re)join event at `at_ms` of virtual time.
    pub fn schedule_join(&mut self, node: NodeId, at_ms: f64) {
        self.sim.schedule(SimTime::from_ms(at_ms), DeployEvent::Join(node));
    }

    /// Runs the deployment until virtual time `until_ms`.
    pub fn run_until(&mut self, net: &mut Network<'_>, until_ms: f64) {
        let deadline = SimTime::from_ms(until_ms);
        let live = &mut self.live;
        let system = &mut self.system;
        let cfg = self.cfg;
        let rng = &mut self.rng;
        let steps = &mut self.steps;
        self.sim.run_until(deadline, |sim, ev| match ev {
            DeployEvent::Join(node) => {
                if !live[node] {
                    live[node] = true;
                    sim.schedule_in(0.0, DeployEvent::Probe(node));
                }
            }
            DeployEvent::Leave(node) => {
                live[node] = false;
            }
            DeployEvent::Probe(node) => {
                if !live[node] {
                    return; // left since this was scheduled
                }
                // Round-robin over neighbors, skipping dead peers (the
                // probe would time out; we model that as a no-op).
                let neighbors = system.neighbors_of(node).to_vec();
                if !neighbors.is_empty() {
                    let idx = (steps[node] as usize) % neighbors.len();
                    let peer = neighbors[idx];
                    steps[node] += 1;
                    if live[peer] {
                        let _ = system.step(net, node, peer);
                    }
                }
                // Next probe with ±50% jitter.
                let jitter = rng.gen_range(0.5..1.5);
                sim.schedule_in(cfg.probe_interval_ms * jitter, DeployEvent::Probe(node));
            }
        });
    }

    /// The embedded system (coordinates, neighbors).
    pub fn system(&self) -> &VivaldiSystem {
        &self.system
    }

    /// Whether `node` is currently live.
    pub fn is_live(&self, node: NodeId) -> bool {
        self.live[node]
    }

    /// Probe steps executed by `node` so far.
    pub fn steps_of(&self, node: NodeId) -> u64 {
        self.steps[node]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delayspace::matrix::DelayMatrix;
    use delayspace::synth::{Dataset, InternetDelaySpace};
    use simnet::net::JitterModel;

    fn line(n: usize) -> DelayMatrix {
        DelayMatrix::from_complete_fn(n, |i, j| 10.0 * i.abs_diff(j) as f64)
    }

    #[test]
    fn all_nodes_join_and_probe() {
        let m = line(12);
        let cfg = DeploymentConfig {
            vivaldi: VivaldiConfig { neighbors: 4, ..VivaldiConfig::default() },
            ..Default::default()
        };
        let mut dep = Deployment::new(cfg, 12, 1);
        let mut net = Network::new(&m, JitterModel::None, 1);
        dep.run_until(&mut net, 30_000.0);
        for node in 0..12 {
            assert!(dep.is_live(node));
            // ~30 probes each at 1 s mean interval over 30 s.
            let s = dep.steps_of(node);
            assert!((10..60).contains(&s), "node {node} made {s} steps");
        }
    }

    #[test]
    fn async_deployment_converges_like_rounds() {
        let m = line(15);
        let cfg = DeploymentConfig {
            vivaldi: VivaldiConfig { dims: 3, neighbors: 8, ..VivaldiConfig::default() },
            ..Default::default()
        };
        let mut dep = Deployment::new(cfg, 15, 3);
        let mut net = Network::new(&m, JitterModel::None, 3);
        dep.run_until(&mut net, 250_000.0);
        let med = dep.system().embedding().abs_error_cdf(&m).median();
        assert!(med < 5.0, "async run did not converge: median error {med}");
    }

    #[test]
    fn left_nodes_stop_probing() {
        let m = line(10);
        let mut dep = Deployment::new(
            DeploymentConfig {
                vivaldi: VivaldiConfig { neighbors: 3, ..VivaldiConfig::default() },
                ..Default::default()
            },
            10,
            5,
        );
        let mut net = Network::new(&m, JitterModel::None, 5);
        dep.schedule_leave(0, 5_000.0);
        dep.run_until(&mut net, 10_000.0);
        let steps_at_10s = dep.steps_of(0);
        dep.run_until(&mut net, 40_000.0);
        assert_eq!(dep.steps_of(0), steps_at_10s, "node 0 kept probing after leaving");
        assert!(!dep.is_live(0));
        // Others continued.
        assert!(dep.steps_of(1) > 20);
    }

    #[test]
    fn rejoin_resumes_probing() {
        let m = line(8);
        let mut dep = Deployment::new(DeploymentConfig::default(), 8, 7);
        let mut net = Network::new(&m, JitterModel::None, 7);
        dep.schedule_leave(2, 2_000.0);
        dep.schedule_join(2, 20_000.0);
        dep.run_until(&mut net, 40_000.0);
        assert!(dep.is_live(2));
        assert!(dep.steps_of(2) > 10);
    }

    #[test]
    fn churn_does_not_wreck_survivors() {
        let space = InternetDelaySpace::preset(Dataset::Euclidean).with_nodes(40).build(9);
        let m = space.matrix();
        let cfg = DeploymentConfig {
            vivaldi: VivaldiConfig { neighbors: 10, ..VivaldiConfig::default() },
            ..Default::default()
        };
        let mut dep = Deployment::new(cfg, 40, 9);
        // A quarter of the population flaps.
        for node in 0..10 {
            dep.schedule_leave(node, 30_000.0 + node as f64 * 1000.0);
            dep.schedule_join(node, 90_000.0 + node as f64 * 1000.0);
        }
        let mut net = Network::new(m, JitterModel::None, 9);
        dep.run_until(&mut net, 250_000.0);
        // Survivors still embed the (metric) space decently.
        let emb = dep.system().embedding();
        let med = delayspace::stats::Cdf::from_samples(
            m.edges()
                .filter(|&(i, j, _)| i >= 10 && j >= 10)
                .map(|(i, j, d)| (emb.predicted(i, j) - d).abs()),
        )
        .median();
        assert!(med < 20.0, "survivor embedding error {med} too high under churn");
    }

    #[test]
    fn deterministic_under_churn() {
        let m = line(10);
        let run = || {
            let mut dep = Deployment::new(DeploymentConfig::default(), 10, 11);
            let mut net = Network::new(&m, JitterModel::None, 11);
            dep.schedule_leave(3, 7_000.0);
            dep.run_until(&mut net, 60_000.0);
            dep.system().embedding()
        };
        let (a, b) = (run(), run());
        for i in 0..10 {
            assert_eq!(a.coord(i), b.coord(i));
        }
    }
}
