//! The delta epoch builder: incremental snapshots for churning delay
//! spaces.
//!
//! [`FluxBuilder`] is the incremental sibling of
//! [`EpochBuilder`](crate::epoch::EpochBuilder). Both fold streamed RTT
//! observations through per-node hysteresis monitors into a working
//! matrix; where the classic builder re-embeds everything and leaves
//! the O(n³) analyses to be computed per query, the flux builder keeps
//! the *exact* severity matrix and the k-best detour table materialised
//! across epochs and brings them up to date with the change, not the
//! matrix size:
//!
//! 1. every [`ingest`](FluxBuilder::ingest) that actually changes a
//!    matrix entry marks both endpoint rows in a
//!    [`DirtySet`];
//! 2. [`build`](FluxBuilder::build) refines the embedding for exactly
//!    the dirty nodes ([`tivflux::refine_embedding`] — deterministic,
//!    parallel over the dirty set), then either *repairs* the derived
//!    analyses row by row (`O(|D|·n²)`) or — past the
//!    [`RebuildPolicy`] threshold — recomputes
//!    them from scratch (`O(n³)`).
//!
//! The two paths are **bit-identical** (the analyses are pure,
//! symmetric, row-decomposable functions of the matrix; the embedding
//! update is the same dirty-local function on both), so the policy is
//! purely a cost knob. `tivoid`'s `flux_equivalence` test pins this
//! across dirtiness fractions {0%, 1%, 10%, 100%}, thread counts
//! {1, 2, 4} and service shard counts.
//!
//! `FluxBuilder` implements [`EpochSource`],
//! so [`crate::epoch::spawn_with`] runs it on a background thread with the
//! same no-observation-loss guarantees as the classic builder.

use crate::epoch::{embed, EpochConfig, EpochSource, Observation};
use crate::snapshot::EpochSnapshot;
use delayspace::matrix::DelayMatrix;
use std::sync::Arc;
use tivcore::TivMonitor;
use tivflux::{refine_embedding, BuildKind, DerivedState, DirtySet, RebuildPolicy, RefineConfig};
use vivaldi::Embedding;

/// Construction parameters of the incremental builder.
#[derive(Clone, Copy, Debug)]
pub struct FluxConfig {
    /// The classic epoch parameters (monitors, bootstrap embedding,
    /// seed). `epoch_rounds` is unused — per-epoch re-embedding is
    /// replaced by the dirty-local refinement below.
    pub epoch: EpochConfig,
    /// Relays kept per ordered pair in the materialised detour table
    /// (rank 0 answers [`QueryBatch::Route`](crate::QueryBatch::Route)).
    pub detour_k: usize,
    /// Dirty-node coordinate refinement parameters.
    pub refine: RefineConfig,
    /// When to fall back from row repair to a full rebuild. Only ever
    /// changes build cost, never results.
    pub policy: RebuildPolicy,
    /// Worker threads for the bootstrap, repairs and rebuilds
    /// (0 = auto, [`tivpar::resolve_threads`] semantics).
    pub threads: usize,
}

impl Default for FluxConfig {
    fn default() -> Self {
        FluxConfig {
            epoch: EpochConfig::default(),
            detour_k: 1,
            refine: RefineConfig::default(),
            policy: RebuildPolicy::default(),
            threads: 0,
        }
    }
}

/// How the last [`FluxBuilder::build`] brought the derived state up to
/// date — the observability the `repro churn` experiment and
/// tivmark's `churn_mixed` workload report on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BuildOutcome {
    /// Epoch the build produced.
    pub epoch: u64,
    /// Repair or full rebuild.
    pub kind: BuildKind,
    /// Dirty rows going into the build.
    pub dirty_rows: usize,
    /// Dirty rows as a fraction of all rows.
    pub dirty_fraction: f64,
    /// `mark_edge` calls since the previous build (observation-level
    /// churn, repeats included).
    pub edge_marks: usize,
}

/// Builds successive epoch snapshots incrementally from streamed
/// observations.
#[derive(Clone, Debug)]
pub struct FluxBuilder {
    cfg: FluxConfig,
    matrix: DelayMatrix,
    embedding: Embedding,
    monitors: Vec<TivMonitor>,
    derived: DerivedState,
    dirty: DirtySet,
    epoch: u64,
    pending: usize,
    ingested_total: u64,
    last_outcome: Option<BuildOutcome>,
}

impl FluxBuilder {
    /// Bootstraps a builder from a measured delay matrix: full Vivaldi
    /// bootstrap embedding plus a from-scratch compute of the derived
    /// analyses, returned together with the epoch-0 snapshot (which
    /// already carries the derived state, so route queries are
    /// table-served from the first epoch).
    pub fn bootstrap(matrix: DelayMatrix, cfg: FluxConfig) -> (Self, EpochSnapshot) {
        assert!(cfg.detour_k >= 1, "the detour table needs k >= 1");
        let embedding = embed(&matrix, &cfg.epoch, cfg.epoch.bootstrap_rounds, 0);
        let derived = DerivedState::compute(&matrix, cfg.detour_k, cfg.threads);
        let monitors = vec![TivMonitor::new(cfg.epoch.monitor); matrix.len()];
        let n = matrix.len();
        let builder = FluxBuilder {
            cfg,
            matrix: matrix.clone(),
            embedding: embedding.clone(),
            monitors,
            derived: derived.clone(),
            dirty: DirtySet::new(n),
            epoch: 0,
            pending: 0,
            ingested_total: 0,
            last_outcome: None,
        };
        let snapshot =
            EpochSnapshot::without_monitors(0, matrix, embedding).with_derived(Arc::new(derived));
        (builder, snapshot)
    }

    /// Observations folded in since the last [`build`](Self::build).
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Total observations ever folded in.
    pub fn ingested_total(&self) -> u64 {
        self.ingested_total
    }

    /// Epoch of the last built snapshot (0 = bootstrap).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Dirty rows accumulated since the last build.
    pub fn dirty_rows(&self) -> usize {
        self.dirty.node_count()
    }

    /// How the last build was executed (`None` before the first).
    pub fn last_outcome(&self) -> Option<BuildOutcome> {
        self.last_outcome
    }

    /// The configuration.
    pub fn config(&self) -> &FluxConfig {
        &self.cfg
    }

    /// Folds one observation in, exactly like
    /// [`EpochBuilder::ingest`](crate::epoch::EpochBuilder::ingest) —
    /// and additionally marks both endpoint rows dirty whenever the
    /// smoothed value actually changes the working matrix (an
    /// observation confirming the stored value to the bit dirties
    /// nothing, so a steady stream over a quiet space stays cheap).
    ///
    /// # Panics
    /// Panics on self-loops, out-of-range nodes, or a non-positive RTT
    /// (the monitor's contract).
    pub fn ingest(&mut self, obs: Observation) {
        let n = self.matrix.len();
        assert!(
            obs.src < n && obs.dst < n,
            "observation ({},{}) outside {n} nodes",
            obs.src,
            obs.dst
        );
        assert_ne!(obs.src, obs.dst, "self-observation at node {}", obs.src);
        let predicted = self.embedding.predicted(obs.src, obs.dst);
        self.monitors[obs.src].observe(obs.dst, obs.rtt_ms, predicted);
        let smoothed = self.monitors[obs.src].rtt(obs.dst).expect("observe tracked the peer");
        let before = self.matrix.raw(obs.src, obs.dst);
        self.matrix.set(obs.src, obs.dst, smoothed);
        if before.to_bits() != smoothed.to_bits() {
            self.dirty.mark_edge(obs.src, obs.dst);
        }
        self.pending += 1;
        self.ingested_total += 1;
    }

    /// Builds the next snapshot: refines the dirty nodes' coordinates
    /// against the previous embedding, brings the derived analyses up
    /// to date (repair or full rebuild per the policy — identical
    /// results either way), freezes the monitor summaries, and resets
    /// the dirty set and pending counter.
    pub fn build(&mut self) -> EpochSnapshot {
        self.epoch += 1;
        let n = self.matrix.len();
        let dirty_nodes = self.dirty.sorted_nodes();
        let kind = self.cfg.policy.decide(dirty_nodes.len(), n);
        self.embedding = refine_embedding(
            &self.embedding,
            &self.matrix,
            &dirty_nodes,
            &self.cfg.refine,
            self.cfg.threads,
        );
        match kind {
            BuildKind::Full => self.derived.rebuild(&self.matrix, self.cfg.threads),
            BuildKind::Incremental => {
                self.derived.repair(&self.matrix, &dirty_nodes, self.cfg.threads)
            }
        }
        self.last_outcome = Some(BuildOutcome {
            epoch: self.epoch,
            kind,
            dirty_rows: dirty_nodes.len(),
            dirty_fraction: if n == 0 { 0.0 } else { dirty_nodes.len() as f64 / n as f64 },
            edge_marks: self.dirty.edge_marks(),
        });
        self.dirty.clear();
        self.pending = 0;
        let summaries = self.monitors.iter().map(TivMonitor::summaries).collect();
        EpochSnapshot::new(self.epoch, self.matrix.clone(), self.embedding.clone(), summaries)
            .with_derived(Arc::new(self.derived.clone()))
    }
}

impl EpochSource for FluxBuilder {
    type Snapshot = EpochSnapshot;
    fn ingest(&mut self, obs: Observation) {
        FluxBuilder::ingest(self, obs);
    }
    fn pending(&self) -> usize {
        FluxBuilder::pending(self)
    }
    fn ingested_total(&self) -> u64 {
        FluxBuilder::ingested_total(self)
    }
    fn build(&mut self) -> EpochSnapshot {
        FluxBuilder::build(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::spawn_with;
    use crate::service::{ServeConfig, TivServe};
    use delayspace::synth::{Dataset, InternetDelaySpace};

    fn ds2(n: usize, seed: u64) -> DelayMatrix {
        InternetDelaySpace::preset(Dataset::Ds2).with_nodes(n).build(seed).into_matrix()
    }

    fn cfg() -> FluxConfig {
        FluxConfig {
            epoch: EpochConfig { bootstrap_rounds: 20, seed: 3, ..EpochConfig::default() },
            threads: 1,
            ..FluxConfig::default()
        }
    }

    #[test]
    fn bootstrap_carries_derived_state() {
        let (builder, snap) = FluxBuilder::bootstrap(ds2(40, 1), cfg());
        assert_eq!(snap.epoch(), 0);
        assert!(snap.derived().is_some());
        assert_eq!(builder.epoch(), 0);
        assert_eq!(builder.dirty_rows(), 0);
        assert!(builder.last_outcome().is_none());
        // Route answers are table-served and match the scan.
        let scan =
            EpochSnapshot::without_monitors(0, snap.matrix().clone(), snap.embedding().clone());
        for (a, c) in [(0usize, 1usize), (5, 30), (39, 2)] {
            assert_eq!(snap.route(a, c), scan.route(a, c));
        }
    }

    #[test]
    fn ingest_tracks_dirty_rows_only_on_change() {
        let (mut builder, _) = FluxBuilder::bootstrap(ds2(30, 2), cfg());
        builder.ingest(Observation { src: 3, dst: 9, rtt_ms: 500.0 });
        assert_eq!(builder.dirty_rows(), 2);
        builder.ingest(Observation { src: 3, dst: 9, rtt_ms: 510.0 });
        assert_eq!(builder.dirty_rows(), 2, "same edge stays two dirty rows");
        builder.ingest(Observation { src: 11, dst: 20, rtt_ms: 77.0 });
        assert_eq!(builder.dirty_rows(), 4);
        assert_eq!(builder.pending(), 3);
        assert_eq!(builder.ingested_total(), 3);
        let snap = builder.build();
        assert_eq!(builder.dirty_rows(), 0, "build clears the dirty set");
        let outcome = builder.last_outcome().unwrap();
        assert_eq!(outcome.kind, BuildKind::Incremental);
        assert_eq!(outcome.dirty_rows, 4);
        assert_eq!(outcome.edge_marks, 3);
        assert_eq!(snap.epoch(), 1);
        // The folded observation is visible in the snapshot's matrix
        // and its derived severity covers the new value.
        assert!(snap.matrix().get(3, 9).unwrap() > 100.0);
        assert!(snap.exact_severity(3, 9).is_some());
    }

    #[test]
    fn incremental_equals_full_rebuild_bitwise() {
        let m = ds2(50, 4);
        let incr_cfg = FluxConfig { policy: RebuildPolicy::always_incremental(), ..cfg() };
        let full_cfg = FluxConfig { policy: RebuildPolicy::always_full(), ..cfg() };
        let (mut incr, _) = FluxBuilder::bootstrap(m.clone(), incr_cfg);
        let (mut full, _) = FluxBuilder::bootstrap(m, full_cfg);
        let obs = [
            Observation { src: 0, dst: 5, rtt_ms: 200.0 },
            Observation { src: 7, dst: 2, rtt_ms: 15.0 },
            Observation { src: 0, dst: 5, rtt_ms: 220.0 },
            Observation { src: 30, dst: 44, rtt_ms: 90.0 },
        ];
        for &o in &obs {
            incr.ingest(o);
            full.ingest(o);
        }
        let si = incr.build();
        let sf = full.build();
        assert_eq!(incr.last_outcome().unwrap().kind, BuildKind::Incremental);
        assert_eq!(full.last_outcome().unwrap().kind, BuildKind::Full);
        assert_eq!(si.matrix(), sf.matrix());
        for a in 0..50 {
            for c in 0..50 {
                assert_eq!(
                    si.embedding().predicted(a, c).to_bits(),
                    sf.embedding().predicted(a, c).to_bits(),
                    "embedding diverged at ({a},{c})"
                );
                assert_eq!(
                    si.exact_severity(a, c).map(f64::to_bits),
                    sf.exact_severity(a, c).map(f64::to_bits),
                    "severity diverged at ({a},{c})"
                );
                assert_eq!(si.route(a, c), sf.route(a, c), "route diverged at ({a},{c})");
            }
        }
    }

    #[test]
    fn spawned_flux_builder_publishes_and_loses_nothing() {
        let (builder, snap) = FluxBuilder::bootstrap(ds2(30, 5), cfg());
        let service = Arc::new(TivServe::new(ServeConfig::default(), snap));
        let sink = Arc::clone(&service);
        let stream = spawn_with(builder, 4, move |snapshot| {
            sink.publish(snapshot);
        });
        let tx = stream.sender();
        let sent = 50u64;
        for k in 0..sent {
            let src = (k % 7) as usize;
            tx.observe(Observation { src, dst: src + 10, rtt_ms: 40.0 + k as f64 }).unwrap();
        }
        drop(tx);
        let builder = stream.join();
        assert_eq!(builder.ingested_total(), sent, "observations were dropped");
        assert_eq!(builder.pending(), 0);
        assert!(builder.epoch() >= 1);
        assert_eq!(service.epoch(), builder.epoch());
        // The published snapshot is flux-built: derived state attached.
        assert!(service.snapshot().derived().is_some());
    }

    #[test]
    #[should_panic(expected = "self-observation")]
    fn self_observation_rejected() {
        let (mut builder, _) = FluxBuilder::bootstrap(ds2(10, 6), cfg());
        builder.ingest(Observation { src: 2, dst: 2, rtt_ms: 10.0 });
    }
}
