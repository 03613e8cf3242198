//! The dense epoch builder: incremental snapshots for churning delay
//! spaces.
//!
//! [`FluxBuilder`] folds streamed RTT observations through per-node
//! hysteresis monitors into a working matrix, and keeps the *exact*
//! severity matrix and the k-best detour table materialised across
//! epochs, bringing them up to date with the change, not the matrix
//! size:
//!
//! 1. every [`ingest`](FluxBuilder::ingest) that actually changes a
//!    matrix entry records the edge, with its delay at the start of
//!    the epoch, in a [`DirtySet`] (which also marks both endpoint
//!    rows dirty);
//! 2. [`build`](FluxBuilder::build) refines the embedding for exactly
//!    the dirty nodes ([`tivflux::refine_embedding`] — deterministic,
//!    parallel over the dirty set), then either *repairs* the derived
//!    analyses edge by edge ([`DerivedState::repair_edges`]:
//!    `O(|E|·n)` plus `O(n)` per pair whose answer can move) or — past
//!    the [`RebuildPolicy`] threshold on dirty rows — recomputes them
//!    from scratch (`O(n³)`).
//!
//! The two paths are **bit-identical** (the repair redoes, with the
//! full pass's kernels, exactly the pairs whose floating-point work a
//! changed edge can alter; the embedding update is the same dirty-local
//! function on both), so the policy is purely a cost knob. `tivoid`'s
//! `flux_equivalence` test pins this across dirtiness fractions
//! {0%, 1%, 10%, 100%}, thread counts {1, 2, 4}, service shard counts,
//! and hundreds of adversarial edge-repair epochs.
//!
//! A snapshot shares its matrix and derived state behind `Arc`s, so
//! publishing one to every replica copies neither. The builder's
//! working state *is* the published snapshot's buffers, copy-on-write:
//! [`bootstrap`](FluxBuilder::bootstrap) and [`build`](FluxBuilder::build)
//! publish `Arc` clones of them, and the first write after a publish
//! (an `ingest` that moves a stored delay, or a `build` that must repair
//! or rebuild) first copies both into the buffers of the epoch before,
//! which the builder keeps as its spare. That copy is a `clone_from`
//! into resident memory once no reader holds the spare any more, and a
//! fresh allocation while one still does. So a read-only deployment
//! holds one copy of the state, a churning one two (the published epoch
//! and the recycled one it is built into), and the copy happens on an
//! epoch's first changing observation, not between the last one and
//! its publish.
//!
//! `FluxBuilder` implements [`EpochSource`], so
//! [`crate::epoch::spawn_with`] runs it on a background thread without
//! losing an observation.

use crate::epoch::{EpochConfig, EpochSource, Observation};
use crate::snapshot::{DenseParts, EpochSnapshot, ServedSnapshot};
use delayspace::matrix::DelayMatrix;
use simnet::net::{JitterModel, Network};
use std::mem;
use std::sync::Arc;
use tivcore::TivMonitor;
use tivflux::{refine_embedding, BuildKind, DerivedState, DirtySet, RebuildPolicy, RefineConfig};
use vivaldi::{Embedding, VivaldiSystem};

/// Construction parameters of the incremental builder.
#[derive(Clone, Copy, Debug)]
pub struct FluxConfig {
    /// The monitors and the bootstrap embedding; every later epoch
    /// refines the dirty nodes' coordinates instead (`refine`).
    pub epoch: EpochConfig,
    /// Relays kept per ordered pair in the materialised detour table
    /// (rank 0 answers [`QueryBatch::Route`](crate::QueryBatch::Route)).
    pub detour_k: usize,
    /// Dirty-node coordinate refinement parameters.
    pub refine: RefineConfig,
    /// When to fall back from edge repair to a full rebuild. Only ever
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

/// The default flux parameters around `epoch`.
impl From<EpochConfig> for FluxConfig {
    fn from(epoch: EpochConfig) -> Self {
        FluxConfig { epoch, ..FluxConfig::default() }
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
    /// Matrix-changing observations since the previous build
    /// (observation-level churn, repeats of an edge included).
    pub edge_marks: usize,
}

/// Builds successive epoch snapshots incrementally from streamed
/// observations.
#[derive(Clone, Debug)]
pub struct FluxBuilder {
    cfg: FluxConfig,
    /// The working matrix. Shared with the last published snapshot
    /// until the first write after the publish unshares it.
    matrix: Arc<DelayMatrix>,
    embedding: Embedding,
    monitors: Vec<TivMonitor>,
    /// The working derived state, shared and unshared with `matrix`.
    derived: Arc<DerivedState>,
    dirty: DirtySet,
    /// The buffers of the epoch before the working ones (`None` until
    /// the first unshare): what the next unshare copies the working
    /// state into.
    spare: Option<Buffers>,
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
    /// table-served from the first epoch). The snapshot shares the
    /// builder's matrix and derived state; neither is copied.
    pub fn bootstrap(matrix: DelayMatrix, cfg: impl Into<FluxConfig>) -> (Self, EpochSnapshot) {
        let cfg = cfg.into();
        assert!(cfg.detour_k >= 1, "the detour table needs k >= 1");
        let embedding = embed(&matrix, &cfg.epoch);
        let derived = Arc::new(DerivedState::compute(&matrix, cfg.detour_k, cfg.threads));
        let matrix = Arc::new(matrix);
        let n = matrix.len();
        let parts = DenseParts {
            matrix: Arc::clone(&matrix),
            embedding: embedding.clone(),
            monitors: vec![Vec::new(); n],
            derived: Some(Arc::clone(&derived)),
        };
        let builder = FluxBuilder {
            cfg,
            matrix,
            embedding,
            monitors: vec![TivMonitor::new(cfg.epoch.monitor); n],
            derived,
            dirty: DirtySet::new(n),
            spare: None,
            epoch: 0,
            pending: 0,
            ingested_total: 0,
            last_outcome: None,
        };
        (builder, EpochSnapshot::assemble(0, parts))
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

    /// Folds one observation in: the source node's monitor absorbs the
    /// sample (its hysteresis alert state updates against the current
    /// embedding's prediction). When the smoothed RTT differs from the
    /// stored value, it is written to the working matrix (unsharing it
    /// first if a snapshot still holds it) and the edge is recorded as
    /// changed (with the delay it had at the start of the epoch,
    /// marking both endpoint rows dirty); an observation confirming the
    /// stored value to the bit writes, copies and dirties nothing, so a
    /// steady stream over a quiet space stays cheap.
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
        if before.to_bits() != smoothed.to_bits() {
            let (matrix, _) = unshare(&mut self.matrix, &mut self.derived, &mut self.spare);
            matrix.set(obs.src, obs.dst, smoothed);
            self.dirty.mark_change(obs.src, obs.dst, before);
        }
        self.pending += 1;
        self.ingested_total += 1;
    }

    /// Builds the next snapshot: refines the dirty nodes' coordinates
    /// against the previous embedding, brings the derived analyses up
    /// to date (edge repair or full rebuild per the policy — identical
    /// results either way), freezes the monitor summaries into a
    /// snapshot that shares the builder's matrix and derived state, and
    /// resets the dirty set and pending counter. An incremental epoch
    /// with no changed edge writes nothing, so it republishes the
    /// buffers of the epoch before.
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
        if kind == BuildKind::Full || !self.dirty.changed_edges().is_empty() {
            let (matrix, derived) = unshare(&mut self.matrix, &mut self.derived, &mut self.spare);
            match kind {
                BuildKind::Full => derived.rebuild(matrix, self.cfg.threads),
                BuildKind::Incremental => {
                    derived.repair_edges(matrix, self.dirty.changed_edges(), self.cfg.threads)
                }
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
        let parts = DenseParts {
            matrix: Arc::clone(&self.matrix),
            embedding: self.embedding.clone(),
            monitors: self.monitors.iter().map(TivMonitor::summaries).collect(),
            derived: Some(Arc::clone(&self.derived)),
        };
        EpochSnapshot::assemble(self.epoch, parts)
    }
}

/// The bootstrap embedding: `cfg.bootstrap_rounds` deterministic
/// Vivaldi rounds over `matrix`, seeded by `cfg.seed`.
pub(crate) fn embed(matrix: &DelayMatrix, cfg: &EpochConfig) -> Embedding {
    let mut sys = VivaldiSystem::new(cfg.vivaldi, matrix.len(), cfg.seed);
    let mut net = Network::new(matrix, JitterModel::None, cfg.seed);
    sys.run_rounds(&mut net, cfg.bootstrap_rounds);
    sys.embedding()
}

/// A matrix and derived state, as a snapshot shares them.
type Buffers = (Arc<DelayMatrix>, Arc<DerivedState>);

/// Makes the working buffers private before a write: while a snapshot
/// (or a cloned builder) still shares either, both are copied into the
/// `spare` buffers with [`refill`], and the shared ones become the new
/// spare. Returns the working buffers, now held by nobody else.
fn unshare<'a>(
    matrix: &'a mut Arc<DelayMatrix>,
    derived: &'a mut Arc<DerivedState>,
    spare: &mut Option<Buffers>,
) -> (&'a mut DelayMatrix, &'a mut DerivedState) {
    if Arc::get_mut(matrix).is_none() || Arc::get_mut(derived).is_none() {
        let (spare_matrix, spare_derived) = spare.take().unzip();
        let (private_matrix, private_derived) =
            (refill(spare_matrix, matrix), refill(spare_derived, derived));
        *spare =
            Some((mem::replace(matrix, private_matrix), mem::replace(derived, private_derived)));
    }
    // Both are unique now, so neither `make_mut` copies.
    (Arc::make_mut(matrix), Arc::make_mut(derived))
}

/// `src` behind an `Arc`: copied into `spare`'s buffers when no reader
/// holds `spare` any more, into a fresh allocation otherwise. (Not
/// `Arc::make_mut`, which would copy a pinned `spare` before the
/// `clone_from` overwrote it.)
fn refill<T: Clone>(spare: Option<Arc<T>>, src: &T) -> Arc<T> {
    if let Some(mut arc) = spare {
        if let Some(buffers) = Arc::get_mut(&mut arc) {
            buffers.clone_from(src);
            return arc;
        }
    }
    Arc::new(src.clone())
}

impl EpochSource for FluxBuilder {
    type Snapshot = EpochSnapshot;
    fn node_count(&self) -> usize {
        self.matrix.len()
    }
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
    use std::collections::HashSet;

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

    /// Three observations (seeded by `k`) folded in.
    fn fold(builder: &mut FluxBuilder, k: usize) {
        for i in 0..3 {
            let src = (k * 5 + i * 7) % 40;
            let dst = (src + 1 + i) % 40;
            builder.ingest(Observation { src, dst, rtt_ms: 20.0 + (k * 3 + i) as f64 });
        }
    }

    /// [`fold`], then one build.
    fn next_epoch(builder: &mut FluxBuilder, k: usize) -> EpochSnapshot {
        fold(builder, k);
        builder.build()
    }

    fn assert_same(a: &EpochSnapshot, b: &EpochSnapshot) {
        assert_eq!(a.matrix(), b.matrix());
        for i in 0..a.len() {
            for j in 0..a.len() {
                let (sa, sb) = (a.exact_severity(i, j), b.exact_severity(i, j));
                assert_eq!(sa.map(f64::to_bits), sb.map(f64::to_bits), "severity at ({i},{j})");
                assert_eq!(a.route(i, j), b.route(i, j), "route at ({i},{j})");
            }
        }
    }

    /// Where a snapshot's matrix and derived state live.
    fn buffers(s: &EpochSnapshot) -> (*const DelayMatrix, *const DerivedState) {
        (
            s.matrix() as *const _,
            s.derived().expect("flux snapshots carry derived state") as *const _,
        )
    }

    /// Where the builder's working matrix and derived state live.
    fn working(b: &FluxBuilder) -> (*const DelayMatrix, *const DerivedState) {
        (Arc::as_ptr(&b.matrix), Arc::as_ptr(&b.derived))
    }

    /// Where the builder's spare buffers live.
    fn spare(b: &FluxBuilder) -> Option<(*const DelayMatrix, *const DerivedState)> {
        b.spare.as_ref().map(|(m, d)| (Arc::as_ptr(m), Arc::as_ptr(d)))
    }

    /// True when the builder and its last snapshot are the only holders
    /// of the working buffers: the epoch was published without sharing
    /// a buffer with anyone else (another builder, an older snapshot).
    fn held_by_builder_and_snapshot_only(b: &FluxBuilder) -> bool {
        Arc::strong_count(&b.matrix) == 2 && Arc::strong_count(&b.derived) == 2
    }

    #[test]
    fn bootstrap_shares_its_buffers_with_epoch_zero() {
        let (builder, s0) = FluxBuilder::bootstrap(ds2(30, 8), cfg());
        assert_eq!(working(&builder), buffers(&s0), "bootstrap copied its state");
        assert!(held_by_builder_and_snapshot_only(&builder));
        assert!(builder.spare.is_none(), "nothing to recycle before the first write");
    }

    #[test]
    fn an_epoch_without_a_change_publishes_its_predecessors_buffers() {
        let (mut builder, s0) = FluxBuilder::bootstrap(ds2(30, 9), cfg());
        let stored = s0.matrix().raw(3, 9);
        let s1 = builder.build();
        assert_eq!(builder.last_outcome().unwrap().kind, BuildKind::Incremental);
        assert_eq!(buffers(&s1), buffers(&s0), "an empty epoch copied its state");
        // Epoch 2 moves an edge (onto fresh buffers: epochs 0 and 1 are
        // still held); epoch 3's observation confirms the stored bits.
        builder.ingest(Observation { src: 3, dst: 9, rtt_ms: 64.0 });
        let s2 = builder.build();
        assert_ne!(buffers(&s2), buffers(&s1));
        assert_eq!(s0.matrix().raw(3, 9).to_bits(), stored.to_bits(), "epoch 0 was written");
        builder.ingest(Observation { src: 3, dst: 9, rtt_ms: 64.0 });
        assert_eq!(builder.dirty_rows(), 0, "the observation was meant to confirm the bits");
        assert_eq!(builder.pending(), 1);
        let s3 = builder.build();
        assert_eq!(buffers(&s3), buffers(&s2), "a confirming observation copied the state");
        // A full rebuild writes even without a change, so it publishes
        // private buffers and leaves epoch 0 as it was.
        let full_cfg = FluxConfig { policy: RebuildPolicy::always_full(), ..cfg() };
        let (mut full, f0) = FluxBuilder::bootstrap(ds2(30, 9), full_cfg);
        let f1 = full.build();
        assert_eq!(full.last_outcome().unwrap().kind, BuildKind::Full);
        assert_ne!(buffers(&f1), buffers(&f0));
        assert!(held_by_builder_and_snapshot_only(&full));
        assert_eq!(f1.matrix(), f0.matrix());
    }

    #[test]
    fn a_cloned_builder_diverges_without_touching_the_original() {
        let m = ds2(40, 10);
        let (mut original, _) = FluxBuilder::bootstrap(m.clone(), cfg());
        let (mut untouched, _) = FluxBuilder::bootstrap(m, cfg());
        // The clone is taken with writes pending, so it shares buffers
        // the original has not published yet.
        fold(&mut original, 1);
        fold(&mut untouched, 1);
        let mut twin = original.clone();
        assert_eq!(working(&twin), working(&original), "cloning copied the state");
        for i in 0..6 {
            twin.ingest(Observation { src: i, dst: 39 - i, rtt_ms: 300.0 + i as f64 });
        }
        let t1 = twin.build();
        assert!(t1.matrix().raw(0, 39) >= 300.0);
        let (o1, u1) = (original.build(), untouched.build());
        assert_same(&o1, &u1);
        assert!(held_by_builder_and_snapshot_only(&original), "epoch 1 shares the twin's buffers");
        assert!(held_by_builder_and_snapshot_only(&twin));
        // And on: the twin's next epoch does not reach the original's.
        let t2 = next_epoch(&mut twin, 2);
        assert_same(&next_epoch(&mut original, 2), &next_epoch(&mut untouched, 2));
        assert_ne!(t2.matrix(), original.matrix.as_ref());
    }

    #[test]
    fn a_churning_builder_holds_two_buffer_sets() {
        let (mut builder, mut live) = FluxBuilder::bootstrap(ds2(40, 11), cfg());
        for k in 1..=10 {
            // The epoch's first write moves the published buffers to the
            // spare and brings the spare's back as the working state.
            let recycled = spare(&builder);
            fold(&mut builder, k);
            assert_eq!(spare(&builder), Some(buffers(&live)), "epoch {k}: the spare");
            if let Some(recycled) = recycled {
                assert_eq!(working(&builder), recycled, "epoch {k}: the spare was not recycled");
            }
            let next = builder.build();
            assert_eq!(buffers(&next), working(&builder), "epoch {k} published a copy");
            // A replica lets go of the epoch before at the publish.
            live = next;
            let held = [working(&builder), buffers(&live)].into_iter().chain(spare(&builder));
            let (matrices, derived): (HashSet<_>, HashSet<_>) = held.unzip();
            assert_eq!((matrices.len(), derived.len()), (2, 2), "epoch {k}: buffer sets held");
        }
    }

    #[test]
    fn retired_buffers_are_reused_once_no_reader_holds_them() {
        let m = ds2(40, 7);
        let (mut incr, s0) = FluxBuilder::bootstrap(m.clone(), cfg());
        let full_cfg = FluxConfig { policy: RebuildPolicy::always_full(), ..cfg() };
        let (mut full, _) = FluxBuilder::bootstrap(m, full_cfg);
        let s1 = next_epoch(&mut incr, 1);
        assert_same(&s1, &next_epoch(&mut full, 1));
        // Epoch 2 would refill epoch 0's buffers, but a reader still
        // holds epoch 0 (and epoch 1): it gets fresh ones, same bits.
        let s2 = next_epoch(&mut incr, 2);
        assert_same(&s2, &next_epoch(&mut full, 2));
        let (pinned, fresh) = (buffers(&s0), buffers(&s2));
        assert!(fresh.0 != pinned.0 && fresh.1 != pinned.1, "a pinned epoch was overwritten");
        // Once the reader of epoch 1 lets go, epoch 3 refills its buffers.
        let retired = buffers(&s1);
        drop(s1);
        let s3 = next_epoch(&mut incr, 3);
        assert_eq!(buffers(&s3), retired, "the retired buffers were not reused");
        assert_same(&s3, &next_epoch(&mut full, 3));
        assert_eq!(incr.last_outcome().unwrap().kind, BuildKind::Incremental);
        assert_eq!(full.last_outcome().unwrap().kind, BuildKind::Full);
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
