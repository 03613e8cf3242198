//! Deterministic fixtures shared by this crate's unit tests and the
//! workspace's wire-level integration tests.
//!
//! Everything here is a pure function of fixed seeds, so two processes
//! (say, a wire client and an in-process reference) building "the same
//! fixture" really do hold bit-identical snapshots.

use delayspace::matrix::DelayMatrix;
use delayspace::synth::{Dataset, InternetDelaySpace};
use std::sync::Arc;
use tivserve::epoch::EpochConfig;
use tivserve::flux::FluxBuilder;
use tivserve::service::{ServeConfig, TivServe};
use tivserve::snapshot::EpochSnapshot;

/// Node count of the small fixtures.
pub const SMALL_NODES: usize = 24;

/// A small synthetic delay matrix (fixed preset, fixed seed).
pub fn small_matrix() -> DelayMatrix {
    InternetDelaySpace::preset(Dataset::Ds2).with_nodes(SMALL_NODES).build(11).into_matrix()
}

/// An epoch config with a short bootstrap embedding — fast, still
/// exercising every code path.
pub fn fast_epochs() -> EpochConfig {
    EpochConfig { bootstrap_rounds: 12, seed: 7, ..EpochConfig::default() }
}

/// Bootstrapped builder + epoch-0 snapshot + a small serve config, the
/// standard trio for spawning fixture services and replica sets.
pub fn small_builder() -> (FluxBuilder, EpochSnapshot, ServeConfig) {
    let (builder, snapshot) = FluxBuilder::bootstrap(small_matrix(), fast_epochs());
    let serve_cfg = ServeConfig { shards: 2, ..ServeConfig::default() };
    (builder, snapshot, serve_cfg)
}

/// A ready in-process service over an `n`-node synthetic snapshot.
pub fn small_service(n: usize) -> Arc<TivServe> {
    let matrix = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(n).build(11).into_matrix();
    let (_, snapshot) = FluxBuilder::bootstrap(matrix, fast_epochs());
    Arc::new(TivServe::new(ServeConfig { shards: 2, ..ServeConfig::default() }, snapshot))
}
