//! The dense epoch builder: incremental snapshots for churning delay
//! spaces.
//!
//! [`FluxBuilder`] folds streamed RTT observations through per-node
//! hysteresis monitors into a working matrix, and keeps the *exact*
//! severity matrix and the k-best detour table materialised across
//! epochs, bringing them up to date with the change, not the matrix
//! size:
//!
//! 1. every [`ingest`](FluxBuilder::ingest) whose smoothed RTT moves
//!    an edge's delay marks both endpoint rows of the epoch dirty, and
//!    records the edge, with its delay at the last settle and its new
//!    one, in a second [`DirtySet`] of what is not settled yet;
//! 2. [`settle`](FluxBuilder::settle), which the publish engine calls
//!    whenever the feed runs dry mid-epoch, brings the working state up
//!    to date with those edges: it writes their delays, refines the
//!    coordinates of the nodes whose rows changed
//!    ([`tivflux::refine_nodes`] — deterministic, against a flat copy
//!    of the *previous* epoch's frozen embedding, laid out once per
//!    epoch at its first refinement) and *repairs* the derived analyses
//!    edge by edge ([`DerivedState::repair_edges`]: `O(|E|·n)` plus
//!    `O(n)` per pair whose answer can move). A catch-up of one changed
//!    edge — every settle and every close under a steady feed — runs on
//!    the builder's own thread; a backlog of several edges fans both
//!    steps out over [`FluxConfig::threads`], as the bootstrap and a
//!    full rebuild do. Under a deployment the pool's other workers
//!    share the CPUs with the request path, so handing them a one-edge
//!    catch-up delays it rather than speeding it up;
//! 3. [`build`](FluxBuilder::build) settles whatever is left and
//!    freezes the snapshot — or, past the [`RebuildPolicy`] threshold
//!    on the epoch's dirty rows, refines every dirty node and recomputes
//!    the analyses from scratch (`O(n³)`). Settling stops as soon as
//!    the policy picks the full path for the epoch so far.
//!
//! So under a steady feed an epoch's work is done between its
//! observations, and its close only folds in the last one. Every path
//! is **bit-identical** to every other: the repair redoes, with the
//! full pass's kernels, exactly the pairs whose floating-point work a
//! changed edge can alter, so repairing edge by edge equals repairing
//! them as one batch equals recomputing; and a node's refined
//! coordinate reads only its matrix row and the previous embedding, so
//! refining it again after each change of its row leaves what one
//! refinement at the close would. The policy is purely a cost knob, and
//! when (or whether) the engine settles changes no bit. `tivoid`'s
//! `flux_equivalence` test pins this across dirtiness fractions
//! {0%, 1%, 10%, 100%}, thread counts {1, 2, 4}, service shard counts,
//! and hundreds of adversarial edge-repair epochs; `flux::tests` pins
//! a builder settled after every observation against one never
//! settled.
//!
//! A snapshot holds each of its parts behind an `Arc`, so publishing
//! one to every replica copies none of them. The builder's working
//! state *is* the published snapshot's buffers, copy-on-write:
//! [`bootstrap`](FluxBuilder::bootstrap) and [`build`](FluxBuilder::build)
//! publish `Arc` clones of them, and the first write after a publish
//! (a `settle` or `build` with delays to write, or a full rebuild)
//! first copies the matrix and the derived state into the buffers of
//! the epoch before, which the builder keeps as its spare. That copy is
//! a `clone_from` into resident memory once no reader holds the spare
//! any more, and a fresh allocation while one still does — which only a
//! build ever makes: a settle that would have to leaves its writes to a
//! later settle, after the reader lets go. So a read-only deployment
//! holds one copy of the state, a churning one two (the published epoch
//! and the recycled one it is built into), and the copy happens at an
//! epoch's first settle, not between its last observation and its
//! publish. The embedding is recycled the same way: the epoch's first
//! refinement copies the published embedding into the one the last
//! build retired, and the build publishes the refined copy by a pointer
//! swap.
//!
//! So the close builds only what the epoch's observations changed. Of
//! the monitor table, each settle re-exports the entries of the
//! monitors that observed since the last settle, and the close only
//! those that observed after it; every other entry is shared with the
//! epoch before (a summary is a pure function of its monitor's state).
//! An epoch without an observation republishes the whole table.
//!
//! `FluxBuilder` implements [`EpochSource`], so
//! [`crate::epoch::spawn_with`] runs it on a background thread without
//! losing an observation.

use crate::epoch::{EpochConfig, EpochSource, Observation};
use crate::snapshot::{empty_monitor_table, DenseParts, EpochSnapshot, MonitorTable};
use delayspace::matrix::{DelayMatrix, NodeId};
use simnet::net::{JitterModel, Network};
use std::collections::HashMap;
use std::mem;
use std::sync::Arc;
use tivcore::{MonitorSummary, TivMonitor};
use tivflux::{
    refine_nodes, BuildKind, DerivedState, DirtySet, FrozenEmbedding, RebuildPolicy, RefineConfig,
};
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
    /// Worker threads for the bootstrap, full rebuilds, and the
    /// catch-ups of a backlog of several changed edges (0 = auto,
    /// [`tivpar::resolve_threads`] semantics). A one-edge catch-up runs
    /// on the builder's own thread whatever this says.
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
    /// The last built epoch's embedding, shared with its snapshot: what
    /// monitors predict with and what every refinement of the epoch
    /// solves against.
    embedding: Arc<Embedding>,
    /// The next epoch's coordinates: `embedding`'s, with every node
    /// settled this epoch refined against the matrix as of its last
    /// settle. The same `Arc` as `embedding` until the epoch's first
    /// refinement unshares it; the build publishes it as is.
    next: Arc<Embedding>,
    /// The embedding the last build retired (`None` until one did):
    /// what the next unshare of `next` copies `embedding` into.
    retired: Option<Arc<Embedding>>,
    /// `embedding` laid out for the refinement kernel: made at the
    /// first refinement after the build that published `embedding`.
    frozen: Option<FrozenEmbedding>,
    monitors: Vec<TivMonitor>,
    /// The monitor table the last build published.
    table: MonitorTable,
    /// The next table's entries: `table`'s, with the entries of the
    /// monitors observed this epoch exported again as of the last
    /// settle.
    entries: Vec<Arc<[MonitorSummary]>>,
    /// `observed[i]`: monitor `i` absorbed a sample since the last
    /// export, so its entry of `entries` is stale.
    observed: Vec<bool>,
    /// The working derived state, shared and unshared with `matrix`.
    /// Bit for bit what a recompute of `matrix` gives, as of the last
    /// settle or build.
    derived: Arc<DerivedState>,
    /// The rows changed since the last build (what the policy and
    /// [`BuildOutcome`] count).
    dirty: DirtySet,
    /// The edges changed since the last settle, each with its delay at
    /// that settle, and the rows they touch: what the next settle
    /// writes, repairs and refines.
    unsettled: DirtySet,
    /// The delay each edge of `unsettled` takes, keyed `(min, max)`:
    /// written into `matrix` by the next settle.
    writes: HashMap<(NodeId, NodeId), f64>,
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
        let embedding = Arc::new(embed(&matrix, &cfg.epoch));
        let derived = Arc::new(DerivedState::compute(&matrix, cfg.detour_k, cfg.threads));
        let matrix = Arc::new(matrix);
        let n = matrix.len();
        let table = empty_monitor_table(n);
        let parts = DenseParts {
            matrix: Arc::clone(&matrix),
            embedding: Arc::clone(&embedding),
            monitors: Arc::clone(&table),
            derived: Some(Arc::clone(&derived)),
        };
        let builder = FluxBuilder {
            cfg,
            matrix,
            next: Arc::clone(&embedding),
            retired: None,
            frozen: None,
            embedding,
            monitors: vec![TivMonitor::new(cfg.epoch.monitor); n],
            entries: table.to_vec(),
            table,
            observed: vec![false; n],
            derived,
            dirty: DirtySet::new(n),
            unsettled: DirtySet::new(n),
            writes: HashMap::new(),
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
    /// edge's delay, both endpoint rows are marked dirty and the edge
    /// is recorded as unsettled, with the delay it had at the last
    /// settle and the one the next settle writes; an observation
    /// confirming the delay to the bit dirties nothing, so a steady
    /// stream over a quiet space stays cheap. Nothing is written or
    /// copied here: the working buffers change only in
    /// [`settle`](Self::settle) and [`build`](Self::build).
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
        self.observed[obs.src] = true;
        let smoothed = self.monitors[obs.src].rtt(obs.dst).expect("observe tracked the peer");
        let edge = (obs.src.min(obs.dst), obs.src.max(obs.dst));
        let before = self.writes.get(&edge).copied().unwrap_or(self.matrix.raw(obs.src, obs.dst));
        if before.to_bits() != smoothed.to_bits() {
            self.writes.insert(edge, smoothed);
            self.dirty.mark_edge(obs.src, obs.dst);
            self.unsettled.mark_change(obs.src, obs.dst, before);
        }
        self.pending += 1;
        self.ingested_total += 1;
    }

    /// Brings the working state up to date with the observations folded
    /// in since the last settle, ahead of the build: writes the changed
    /// delays, refines the coordinates of the nodes whose rows changed,
    /// against the last epoch's embedding, repairs the derived analyses
    /// for the changed edges ([`DerivedState::repair_edges`]) and
    /// re-exports the summaries of the monitors that observed. The
    /// epoch's snapshot comes out bit-identical however often it was
    /// settled; only the time its build takes moves.
    ///
    /// Does nothing when nothing changed since the last settle, when
    /// the policy already picks a full rebuild for the epoch so far (the
    /// build recomputes everything then), or when writing would copy
    /// the working buffers into fresh memory because a reader still
    /// holds the spare ones: a later settle, or the build, writes once
    /// the reader lets go, so the builder keeps two copies of the state
    /// and not three. A settle that does nothing leaves its monitors'
    /// exports to the build too.
    pub fn settle(&mut self) {
        if self.kind() == BuildKind::Incremental && !self.spare_held() {
            self.catch_up();
            self.export_observed();
        }
    }

    /// [`settle`](Self::settle) without its conditions or its exports:
    /// what an incremental build runs. Up to [`INLINE_EDGES`] changed
    /// edges are caught up on this thread, more over the pool.
    fn catch_up(&mut self) {
        let edges = self.unsettled.changed_edges().len();
        if edges == 0 {
            return;
        }
        let threads = if edges <= INLINE_EDGES { 1 } else { self.cfg.threads };
        self.write();
        self.refine(&self.unsettled.sorted_nodes(), threads);
        let (matrix, derived) = unshare(&mut self.matrix, &mut self.derived, &mut self.spare);
        derived.repair_edges(matrix, self.unsettled.changed_edges(), threads);
        self.unsettled.clear();
    }

    /// Refines `nodes` into the next epoch's coordinates against the
    /// last epoch's embedding, with up to `threads` workers. The
    /// epoch's first refinement unshares them first: it copies the
    /// embedding into the retired one's buffers with [`refill`], or into
    /// a fresh allocation while a reader still holds the retired epoch,
    /// and lays the embedding out for the kernel unless the last build
    /// left it as it was.
    fn refine(&mut self, nodes: &[NodeId], threads: usize) {
        if nodes.is_empty() {
            return;
        }
        if Arc::ptr_eq(&self.next, &self.embedding) {
            self.next = refill(self.retired.take(), &self.embedding);
        }
        let frozen = self.frozen.get_or_insert_with(|| FrozenEmbedding::new(&self.embedding));
        // Copies only when a cloned builder shares the private buffer.
        let next = Arc::make_mut(&mut self.next);
        refine_nodes(frozen, &self.matrix, nodes, &self.cfg.refine, threads, next);
    }

    /// Writes the unsettled delays into the working matrix, unsharing
    /// the buffers first.
    fn write(&mut self) {
        let (matrix, _) = unshare(&mut self.matrix, &mut self.derived, &mut self.spare);
        for &(a, b, _) in self.unsettled.changed_edges() {
            matrix.set(a, b, self.writes[&(a.min(b), a.max(b))]);
        }
        self.writes.clear();
    }

    /// True when a write now would copy the working buffers into fresh
    /// memory: a snapshot or a clone still shares them, and a reader
    /// still holds the spare buffers the copy would otherwise reuse.
    fn spare_held(&self) -> bool {
        let shared = |m: &Arc<DelayMatrix>, d: &Arc<DerivedState>| {
            Arc::strong_count(m) > 1 || Arc::strong_count(d) > 1
        };
        shared(&self.matrix, &self.derived)
            && self.spare.as_ref().is_some_and(|(m, d)| shared(m, d))
    }

    /// Builds the next snapshot. An incremental epoch
    /// [settles](Self::settle) what is left, into fresh buffers if a
    /// reader still holds the spare ones; a full one (per the policy on
    /// the epoch's dirty rows) writes the pending delays, refines every
    /// dirty node's coordinate and recomputes the derived analyses from
    /// scratch — identical results either way. The snapshot shares the
    /// builder's matrix, derived state and refined embedding, and a
    /// monitor table that re-exports only the monitors that observed
    /// this epoch; the dirty sets and pending counter reset. An
    /// incremental epoch with no changed edge writes nothing, so it
    /// republishes the buffers and the embedding of the epoch before.
    pub fn build(&mut self) -> EpochSnapshot {
        self.epoch += 1;
        let n = self.matrix.len();
        let kind = self.kind();
        match kind {
            BuildKind::Incremental => self.catch_up(),
            BuildKind::Full => {
                self.write();
                self.refine(&self.dirty.sorted_nodes(), self.cfg.threads);
                let (matrix, derived) =
                    unshare(&mut self.matrix, &mut self.derived, &mut self.spare);
                derived.rebuild(matrix, self.cfg.threads);
            }
        }
        let dirty_rows = self.dirty.node_count();
        self.last_outcome = Some(BuildOutcome {
            epoch: self.epoch,
            kind,
            dirty_rows,
            dirty_fraction: if n == 0 { 0.0 } else { dirty_rows as f64 / n as f64 },
            edge_marks: self.dirty.edge_marks(),
        });
        if !Arc::ptr_eq(&self.next, &self.embedding) {
            let published = Arc::clone(&self.next);
            self.retired = Some(mem::replace(&mut self.embedding, published));
            self.frozen = None;
        }
        if self.pending > 0 {
            self.export_observed();
            self.table = self.entries.as_slice().into();
        }
        self.dirty.clear();
        self.unsettled.clear();
        self.pending = 0;
        let parts = DenseParts {
            matrix: Arc::clone(&self.matrix),
            embedding: Arc::clone(&self.embedding),
            monitors: Arc::clone(&self.table),
            derived: Some(Arc::clone(&self.derived)),
        };
        EpochSnapshot::assemble(self.epoch, parts)
    }

    /// Exports the summaries of the monitors observed since the last
    /// export into the next table's entries, and clears their marks.
    fn export_observed(&mut self) {
        for (i, observed) in self.observed.iter_mut().enumerate() {
            if mem::take(observed) {
                self.entries[i] = self.monitors[i].summaries().into();
            }
        }
    }

    /// The policy's pick for the epoch so far.
    fn kind(&self) -> BuildKind {
        self.cfg.policy.decide(self.dirty.node_count(), self.matrix.len())
    }
}

/// The most changed edges a catch-up runs on the builder's own thread;
/// a larger backlog fans out over [`FluxConfig::threads`]. One: a
/// deployment's steady feed settles every observation alone, and its
/// pool workers share the CPUs with the request path, so a one-edge
/// catch-up finishes sooner inline (`churn_mixed`'s `fresh_p50_ms`),
/// while a backlog still gains from the pool (`catch_up_cut_off_sweep`).
const INLINE_EDGES: usize = 1;

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
    fn settle(&mut self) {
        FluxBuilder::settle(self);
    }
    fn build(&mut self) -> EpochSnapshot {
        FluxBuilder::build(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::spawn_with;
    use crate::loadgen::Zipf;
    use crate::service::{ServeConfig, TivServe};
    use delayspace::synth::{Dataset, InternetDelaySpace};
    use rand::Rng;
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

    /// Every bit two snapshots serve from: the matrix, the embedding,
    /// and the derived severity (sums and counts) and detour lists.
    fn assert_bit_identical(a: &EpochSnapshot, b: &EpochSnapshot, what: &str) {
        assert_eq!(a.epoch(), b.epoch(), "{what}: epoch");
        let n = a.len();
        let coord_bits = |s: &EpochSnapshot, i| {
            let c = s.embedding().coord(i);
            let bits: Vec<u64> = c.as_slice().iter().map(|v| v.to_bits()).collect();
            (bits, c.height().to_bits())
        };
        let (da, db) = (a.derived().expect("derived"), b.derived().expect("derived"));
        let relays = |d: &DerivedState, i, j| -> Vec<(usize, u64)> {
            d.detour.relays(i, j).map(|r| (r.relay, r.via_ms.to_bits())).collect()
        };
        for i in 0..n {
            assert_eq!(coord_bits(a, i), coord_bits(b, i), "{what}: coordinate of node {i}");
            for j in 0..n {
                let (ma, mb) = (a.matrix().raw(i, j), b.matrix().raw(i, j));
                assert_eq!(ma.to_bits(), mb.to_bits(), "{what}: delay at ({i},{j})");
                let (sa, sb) = (&da.severity, &db.severity);
                assert_eq!(
                    sa.severity(i, j).map(f64::to_bits),
                    sb.severity(i, j).map(f64::to_bits),
                    "{what}: severity at ({i},{j})"
                );
                assert_eq!(sa.count(i, j), sb.count(i, j), "{what}: count at ({i},{j})");
                assert_eq!(relays(da, i, j), relays(db, i, j), "{what}: detours at ({i},{j})");
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
        assert_bit_identical(&o1, &u1, "epoch 1");
        assert!(held_by_builder_and_snapshot_only(&original), "epoch 1 shares the twin's buffers");
        assert!(held_by_builder_and_snapshot_only(&twin));
        // And on: the twin's next epoch does not reach the original's.
        let t2 = next_epoch(&mut twin, 2);
        assert_bit_identical(
            &next_epoch(&mut original, 2),
            &next_epoch(&mut untouched, 2),
            "epoch 2",
        );
        assert_ne!(t2.matrix(), original.matrix.as_ref());
    }

    #[test]
    fn a_churning_builder_holds_two_buffer_sets() {
        let (mut builder, mut live) = FluxBuilder::bootstrap(ds2(40, 11), cfg());
        for k in 1..=10 {
            // The epoch's first write (its first settle) moves the
            // published buffers to the spare and brings the spare's back
            // as the working state.
            let recycled = spare(&builder);
            fold(&mut builder, k);
            builder.settle();
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

    /// A snapshot's monitor table.
    fn table(s: &EpochSnapshot) -> MonitorTable {
        s.clone().into_parts().1.monitors
    }

    #[test]
    fn the_monitor_table_re_exports_only_the_monitors_that_observed() {
        let m = ds2(40, 14);
        let (mut builder, mut prev) = FluxBuilder::bootstrap(m.clone(), cfg());
        for (e, epoch) in zipf_stream(&m, 1.2, 12 * 6, 41).chunks(6).enumerate() {
            let observers: HashSet<NodeId> = epoch.iter().map(|o| o.src).collect();
            for &obs in epoch {
                builder.ingest(obs);
                builder.settle();
            }
            let next = builder.build();
            let (before, after) = (table(&prev), table(&next));
            assert!(Arc::ptr_eq(&after, &builder.table), "epoch {e}: the builder kept a copy");
            assert!(observers.len() < m.len(), "epoch {e}: every node observed");
            for (i, monitor) in builder.monitors.iter().enumerate() {
                assert_eq!(after[i][..], monitor.summaries()[..], "epoch {e}: node {i}'s entry");
                let shared = Arc::ptr_eq(&after[i], &before[i]);
                assert_eq!(shared, !observers.contains(&i), "epoch {e}: node {i} shared: {shared}");
            }
            prev = next;
        }
        // An epoch without an observation republishes the whole table.
        assert!(Arc::ptr_eq(&table(&builder.build()), &table(&prev)));
    }

    #[test]
    fn settled_and_unsettled_builders_publish_equal_monitor_tables() {
        let m = ds2(40, 16);
        let (mut settled, _) = FluxBuilder::bootstrap(m.clone(), cfg());
        let (mut unsettled, _) = FluxBuilder::bootstrap(m.clone(), cfg());
        for (e, epoch) in zipf_stream(&m, 0.9, 8 * 7, 43).chunks(7).enumerate() {
            for &obs in epoch {
                settled.ingest(obs);
                settled.settle();
                unsettled.ingest(obs);
            }
            let (a, b) = (table(&settled.build()), table(&unsettled.build()));
            for (i, monitor) in settled.monitors.iter().enumerate() {
                let summaries = monitor.summaries();
                assert_eq!(a[i][..], summaries[..], "epoch {e}: the settled builder's node {i}");
                assert_eq!(b[i][..], summaries[..], "epoch {e}: the unsettled builder's node {i}");
            }
        }
    }

    /// Times a catch-up of `edges` changed edges at n = 1024 as the
    /// builder runs one (write, refine both endpoints of each edge,
    /// repair), inline and over two workers, and prints the medians:
    /// the isolated half of the sweep behind [`INLINE_EDGES`]. Run with
    /// `cargo test --release -p tivserve --lib catch_up_cut_off_sweep
    /// -- --ignored --nocapture`.
    #[test]
    #[ignore = "a timing sweep, not a check"]
    fn catch_up_cut_off_sweep() {
        let m = ds2(1024, 31);
        let (builder, _) = FluxBuilder::bootstrap(m.clone(), FluxConfig { threads: 2, ..cfg() });
        let frozen = FrozenEmbedding::new(&builder.embedding);
        let mut r = delayspace::rng::rng(5);
        for edges in [1usize, 2, 4, 16] {
            let mut times = [Vec::new(), Vec::new()];
            for round in 0..12 {
                let mut changed = m.clone();
                let mut dirty = DirtySet::new(m.len());
                while dirty.changed_edges().len() < edges {
                    let (a, b) = (r.gen_range(0..m.len()), r.gen_range(0..m.len()));
                    if a != b && m.get(a, b).is_some() {
                        dirty.mark_change(a, b, m.raw(a, b));
                        changed.set(a, b, m.raw(a, b) * r.gen_range(0.7..1.3));
                    }
                }
                let nodes = dirty.sorted_nodes();
                for (slot, threads) in [1usize, 2].into_iter().enumerate() {
                    let (mut derived, mut next) =
                        (builder.derived.as_ref().clone(), builder.embedding.as_ref().clone());
                    let t = std::time::Instant::now();
                    refine_nodes(&frozen, &changed, &nodes, &cfg().refine, threads, &mut next);
                    derived.repair_edges(&changed, dirty.changed_edges(), threads);
                    if round > 1 {
                        times[slot].push(t.elapsed().as_secs_f64() * 1e3);
                    }
                }
            }
            let median = |v: &mut Vec<f64>| {
                v.sort_by(f64::total_cmp);
                v[v.len() / 2]
            };
            let (inline, pooled) = (median(&mut times[0]), median(&mut times[1]));
            println!("{edges:>2} edges: inline {inline:.3} ms, 2 workers {pooled:.3} ms");
        }
    }

    /// A snapshot's embedding.
    fn embedding(s: &EpochSnapshot) -> *const Embedding {
        s.embedding() as *const _
    }

    #[test]
    fn the_embedding_is_published_without_a_copy_and_recycled() {
        let (mut builder, s0) = FluxBuilder::bootstrap(ds2(40, 15), cfg());
        assert_eq!(embedding(&s0), Arc::as_ptr(&builder.embedding), "bootstrap copied it");
        let s1 = next_epoch(&mut builder, 1);
        assert_eq!(embedding(&s1), Arc::as_ptr(&builder.embedding), "epoch 1 copied it");
        assert!(Arc::ptr_eq(&builder.next, &builder.embedding), "epoch 2 refined already");
        assert_ne!(embedding(&s1), embedding(&s0));
        // Epoch 2 would refill epoch 0's embedding, but a reader still
        // holds it: fresh memory. Once epoch 1's reader lets go, epoch
        // 3 refines into its buffers.
        let s2 = next_epoch(&mut builder, 2);
        assert!(![embedding(&s0), embedding(&s1)].contains(&embedding(&s2)));
        let retired = embedding(&s1);
        drop(s1);
        let s3 = next_epoch(&mut builder, 3);
        assert_eq!(embedding(&s3), retired, "the retired embedding was not reused");
        // An epoch without a changed edge republishes the embedding.
        assert_eq!(embedding(&builder.build()), embedding(&s3));
        assert_eq!(s0.embedding().len(), 40);
    }

    #[test]
    fn retired_buffers_are_reused_once_no_reader_holds_them() {
        let m = ds2(40, 7);
        let (mut incr, s0) = FluxBuilder::bootstrap(m.clone(), cfg());
        let full_cfg = FluxConfig { policy: RebuildPolicy::always_full(), ..cfg() };
        let (mut full, _) = FluxBuilder::bootstrap(m, full_cfg);
        let s1 = next_epoch(&mut incr, 1);
        assert_bit_identical(&s1, &next_epoch(&mut full, 1), "epoch 1");
        // Epoch 2 would refill epoch 0's buffers, but a reader still
        // holds epoch 0 (and epoch 1): it gets fresh ones, same bits.
        let s2 = next_epoch(&mut incr, 2);
        assert_bit_identical(&s2, &next_epoch(&mut full, 2), "epoch 2");
        let (pinned, fresh) = (buffers(&s0), buffers(&s2));
        assert!(fresh.0 != pinned.0 && fresh.1 != pinned.1, "a pinned epoch was overwritten");
        // Once the reader of epoch 1 lets go, epoch 3 refills its buffers.
        let retired = buffers(&s1);
        drop(s1);
        let s3 = next_epoch(&mut incr, 3);
        assert_eq!(buffers(&s3), retired, "the retired buffers were not reused");
        assert_bit_identical(&s3, &next_epoch(&mut full, 3), "epoch 3");
        assert_eq!(incr.last_outcome().unwrap().kind, BuildKind::Incremental);
        assert_eq!(full.last_outcome().unwrap().kind, BuildKind::Full);
    }

    /// `count` observations over `m`'s nodes, both endpoints drawn
    /// Zipf-skewed by `zipf_s` (so hot edges change again within an
    /// epoch, across settles), each RTT the stored delay jittered by up
    /// to ±30%.
    fn zipf_stream(m: &DelayMatrix, zipf_s: f64, count: usize, seed: u64) -> Vec<Observation> {
        let zipf = Zipf::new(m.len(), zipf_s);
        let mut r = delayspace::rng::rng(seed);
        (0..count)
            .map(|_| {
                let src = zipf.sample(&mut r);
                let mut dst = zipf.sample(&mut r);
                while dst == src {
                    dst = zipf.sample(&mut r);
                }
                let stored = m.get(src, dst).unwrap_or(50.0);
                Observation { src, dst, rtt_ms: stored * r.gen_range(0.7..1.3) }
            })
            .collect()
    }

    #[test]
    fn settling_after_every_ingest_matches_a_builder_that_never_settles() {
        let m = ds2(64, 21);
        let mut kinds = Vec::new();
        // (threads, Zipf exponent, observations per epoch): at 64 nodes
        // the default policy rebuilds from 16 dirty rows, so the longer
        // epochs turn full partway, after settles already repaired.
        for (case, (threads, zipf_s, per_epoch)) in
            [(1, 0.0, 5), (2, 0.9, 16), (1, 1.2, 64), (2, 0.0, 64), (1, 0.9, 5), (2, 1.2, 11)]
                .into_iter()
                .enumerate()
        {
            let cfg = FluxConfig { detour_k: 2, threads, ..cfg() };
            let (mut settled, _) = FluxBuilder::bootstrap(m.clone(), cfg);
            let (mut unsettled, _) = FluxBuilder::bootstrap(m.clone(), cfg);
            // And a from-scratch reference, which no settle bug reaches.
            let full = FluxConfig { policy: RebuildPolicy::always_full(), ..cfg };
            let (mut reference, _) = FluxBuilder::bootstrap(m.clone(), full);
            let stream = zipf_stream(&m, zipf_s, 4 * per_epoch, 100 + case as u64);
            for (e, epoch) in stream.chunks(per_epoch).enumerate() {
                for &obs in epoch {
                    settled.ingest(obs);
                    settled.settle();
                    unsettled.ingest(obs);
                    reference.ingest(obs);
                }
                let (a, b) = (settled.build(), unsettled.build());
                let what = format!("case {case}, epoch {e}");
                assert_eq!(settled.last_outcome(), unsettled.last_outcome(), "{what}: outcome");
                assert_bit_identical(&a, &b, &what);
                assert_bit_identical(&a, &reference.build(), &format!("{what}, from scratch"));
                kinds.push(settled.last_outcome().expect("built").kind);
            }
        }
        for kind in [BuildKind::Incremental, BuildKind::Full] {
            assert!(kinds.contains(&kind), "no {kind:?} build among {kinds:?}");
        }
    }

    #[test]
    fn a_settled_clone_leaves_the_original_untouched() {
        let m = ds2(40, 12);
        let (mut original, s0) = FluxBuilder::bootstrap(m.clone(), cfg());
        let (mut untouched, u0) = FluxBuilder::bootstrap(m.clone(), cfg());
        fold(&mut original, 1);
        fold(&mut untouched, 1);
        // The clone is taken with writes pending and before any spare
        // exists, so its settles write: into buffers of its own, since
        // the original (and epoch 0) still share the working ones.
        let mut twin = original.clone();
        let held = (working(&original), spare(&original));
        for obs in zipf_stream(&m, 0.9, 12, 7) {
            twin.ingest(obs);
            twin.settle();
        }
        assert_ne!(working(&twin), held.0, "the twin's settles wrote nothing");
        assert_eq!((working(&original), spare(&original)), held, "the twin moved the original");
        let t1 = twin.build();
        // The original settles and builds as if the twin never ran, and
        // epoch 0 is as the bootstrap left it.
        for k in 1..5 {
            if k > 1 {
                fold(&mut original, k);
                fold(&mut untouched, k);
            }
            original.settle();
            let (o, u) = (original.build(), untouched.build());
            assert_bit_identical(&o, &u, &format!("epoch {k}"));
            assert_eq!(original.last_outcome(), untouched.last_outcome());
            if k == 1 {
                assert_ne!(t1.matrix(), o.matrix(), "the twin wrote nothing of its own");
            }
        }
        assert_bit_identical(&s0, &u0, "epoch 0");
    }

    #[test]
    fn settling_waits_while_a_reader_holds_the_spare() {
        let m = ds2(40, 13);
        let (mut builder, _) = FluxBuilder::bootstrap(m.clone(), cfg());
        let (mut unsettled, _) = FluxBuilder::bootstrap(m, cfg());
        let s1 = next_epoch(&mut builder, 1);
        let s2 = next_epoch(&mut builder, 2);
        next_epoch(&mut unsettled, 1);
        next_epoch(&mut unsettled, 2);
        // Epoch 2 is published, and a reader still holds epoch 1, whose
        // buffers are the spare: a settle would have to copy into fresh
        // memory, so it leaves the epoch's writes pending.
        fold(&mut builder, 3);
        fold(&mut unsettled, 3);
        let held = (working(&builder), spare(&builder));
        assert_eq!(held, (buffers(&s2), Some(buffers(&s1))));
        builder.settle();
        assert_eq!((working(&builder), spare(&builder)), held, "a settle copied into fresh memory");
        // Once the reader lets go, the next settle recycles its buffers.
        let retired = buffers(&s1);
        drop(s1);
        builder.settle();
        assert_eq!(working(&builder), retired, "the settle did not recycle the spare");
        assert_bit_identical(&builder.build(), &unsettled.build(), "epoch 3");
        assert_eq!(builder.last_outcome(), unsettled.last_outcome());
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
