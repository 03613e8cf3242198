//! The derived-state bundle and the repair-vs-rebuild policy.
//!
//! An incremental epoch snapshot carries two O(n³) analyses derived
//! from its delay matrix: the exact TIV-severity matrix
//! ([`tivcore::severity::Severity`]) and the k-best one-hop detour
//! table ([`tivroute::DetourTable`]). [`DerivedState`] bundles them and
//! offers three ways of bringing them up to date with a changed
//! matrix:
//!
//! * [`DerivedState::rebuild`] — from scratch, O(n³);
//! * [`DerivedState::repair_edges`] — the epoch builder's incremental
//!   path: only the pairs a changed edge can reach, O(|E|·n) to find
//!   them plus O(n) per pair whose sum or list actually moves;
//! * [`DerivedState::repair`] — dirty rows only, O(|D|·n²) plus an
//!   O(|D|·n) symmetric column patch: the row reference the edge path
//!   is tested against.
//!
//! All three produce bit-identical results (each analysis is a pure,
//! symmetric function of the matrix, and the repairs redo exactly the
//! floating-point work a change can alter); the [`RebuildPolicy`] picks
//! between rebuilding and repairing by the epoch's dirtiness.

use delayspace::matrix::{DelayMatrix, NodeId};
use tivcore::severity::Severity;
use tivroute::DetourTable;

/// The O(n³) analyses an epoch snapshot serves, kept fresh together.
#[derive(Debug)]
pub struct DerivedState {
    /// Exact severity of every measured edge of the epoch's matrix.
    pub severity: Severity,
    /// The k-best one-hop detours of every ordered pair.
    pub detour: DetourTable,
}

impl Clone for DerivedState {
    fn clone(&self) -> Self {
        DerivedState { severity: self.severity.clone(), detour: self.detour.clone() }
    }

    /// Copies `source` into the existing buffers instead of allocating
    /// new ones (what the derived `clone_from` would do) — how the
    /// epoch builder refreshes a retired snapshot's state.
    fn clone_from(&mut self, source: &Self) {
        self.severity.clone_from(&source.severity);
        self.detour.clone_from(&source.detour);
    }
}

impl DerivedState {
    /// Computes both analyses from scratch, using up to `threads`
    /// workers ([`tivpar::resolve_threads`] semantics).
    ///
    /// The detour table comes first, because it gates the severity
    /// pass ([`Severity::compute_gated`]): a pair has a violating
    /// witness exactly when its best relay strictly beats the direct
    /// edge, so every other pair is written as zero without a witness
    /// scan. On DS² that is about 84% of the measured pairs.
    pub fn compute(m: &DelayMatrix, k: usize, threads: usize) -> Self {
        let detour = DetourTable::compute(m, k, threads);
        let severity = Severity::compute_gated(m, threads, best_via(&detour));
        DerivedState { severity, detour }
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.severity.len()
    }

    /// True when the state covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.severity.is_empty()
    }

    /// Resident bytes of both tables ([`Severity::memory_bytes`] plus
    /// [`DetourTable::memory_bytes`]): what each live copy of the state
    /// holds. An epoch builder keeps one copy while nothing changes
    /// (its working state *is* the published snapshot's) and two while
    /// the space churns (the published epoch and the recycled one it
    /// writes the next epoch into); a snapshot a reader still pins
    /// past that adds one more.
    pub fn memory_bytes(&self) -> usize {
        self.severity.memory_bytes() + self.detour.memory_bytes()
    }

    /// Replaces both analyses with a from-scratch recompute of `m`
    /// (the full-rebuild path of the policy).
    pub fn rebuild(&mut self, m: &DelayMatrix, threads: usize) {
        let k = self.detour.k();
        *self = DerivedState::compute(m, k, threads);
    }

    /// Repairs both analyses after `m` changed on edges incident to
    /// the `dirty` nodes (strictly increasing, as produced by
    /// [`crate::DirtySet::sorted_nodes`]). Bit-identical to
    /// [`DerivedState::rebuild`] on the same matrix.
    ///
    /// The row reference path: the epoch builder runs
    /// [`DerivedState::repair_edges`], and this stays for the tests that
    /// pin the edge path against it and for the benchmark's
    /// `tivflux.repair_ms` probe (a benchmark-only change re-points that
    /// probe at the builder's path).
    pub fn repair(&mut self, m: &DelayMatrix, dirty: &[NodeId], threads: usize) {
        self.severity.repair_rows(m, dirty, threads);
        self.detour.repair_rows(m, dirty, threads);
    }

    /// Repairs both analyses after `m` changed on exactly the `changed`
    /// edges, each once as `(a, b, before)` with `before` its delay in
    /// the matrix this state was computed from — the shape
    /// [`crate::DirtySet::changed_edges`] produces. Runs
    /// [`DetourTable::repair_edges`] first and then
    /// [`Severity::repair_edges_gated`], gated by the repaired table as
    /// in [`DerivedState::compute`]: only the listed pairs whose best
    /// relay beats the direct edge are re-summed. Bit-identical to
    /// [`DerivedState::rebuild`] on the same matrix.
    pub fn repair_edges(
        &mut self,
        m: &DelayMatrix,
        changed: &[(NodeId, NodeId, f64)],
        threads: usize,
    ) {
        self.detour.repair_edges(m, changed);
        self.severity.repair_edges_gated(m, changed, threads, best_via(&self.detour));
    }
}

/// The severity gate a detour table of the same matrix provides: the
/// rank-0 relay's `via`, the minimum over every relay `b ∉ {a, c}` with
/// both legs measured, and `+inf` when there is none.
fn best_via(detour: &DetourTable) -> impl Fn(NodeId, NodeId) -> f64 + Sync + '_ {
    |a, c| detour.best(a, c).map_or(f64::INFINITY, |r| r.via_ms)
}

/// How an epoch's derived state was (or would be) brought up to date.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BuildKind {
    /// Edge-delta repair of the pairs the changed edges reach.
    Incremental,
    /// From-scratch recompute of every row.
    Full,
}

/// The fallback rule: repair below the threshold, rebuild at or above
/// it.
///
/// The threshold was sized for row repair, which costs O(|D|·n²)
/// against the full pass's O(n³); the edge-delta repair the builder now
/// runs is cheaper still, so the threshold is conservative (re-deriving
/// it moves what the benchmark's full-build probe times, and is left to
/// a change of its own). The threshold is a pure *cost* knob: both paths
/// produce bit-identical state, so flipping it can never change a
/// served answer — the invariant `tivoid`'s `flux_equivalence` test
/// pins by running the same observation state through both policies.
#[derive(Clone, Copy, Debug)]
pub struct RebuildPolicy {
    /// Dirty-row fraction at or above which the builder recomputes from
    /// scratch. `0.0` forces every build full; anything `> 1.0` forces
    /// every build incremental.
    pub full_rebuild_fraction: f64,
}

impl Default for RebuildPolicy {
    fn default() -> Self {
        RebuildPolicy { full_rebuild_fraction: 0.25 }
    }
}

impl RebuildPolicy {
    /// A policy that never falls back to a full rebuild (equivalence
    /// tests pin the incremental path with this).
    pub fn always_incremental() -> Self {
        RebuildPolicy { full_rebuild_fraction: f64::INFINITY }
    }

    /// A policy that rebuilds from scratch on every epoch (the
    /// reference the equivalence tests compare against).
    pub fn always_full() -> Self {
        RebuildPolicy { full_rebuild_fraction: 0.0 }
    }

    /// Picks the build kind for an epoch with `dirty_nodes` dirty rows
    /// out of `n`.
    pub fn decide(&self, dirty_nodes: usize, n: usize) -> BuildKind {
        if n == 0 {
            return BuildKind::Incremental; // nothing to rebuild either way
        }
        if dirty_nodes as f64 / n as f64 >= self.full_rebuild_fraction {
            BuildKind::Full
        } else {
            BuildKind::Incremental
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delayspace::synth::{Dataset, InternetDelaySpace};

    fn ds2(n: usize, seed: u64) -> DelayMatrix {
        InternetDelaySpace::preset(Dataset::Ds2).with_nodes(n).build(seed).into_matrix()
    }

    #[test]
    fn memory_bytes_counts_each_unordered_pair_once() {
        // The serving size, n = 1024 with the default k = 1: 12 bytes
        // per table per unordered pair, diagonal included. An
        // unmeasured matrix keeps the O(n³) passes cheap; the size
        // does not depend on the delays.
        let state = DerivedState::compute(&DelayMatrix::new(1024), 1, 0);
        assert_eq!(state.severity.memory_bytes(), 6_297_600);
        assert_eq!(state.detour.memory_bytes(), 6_297_600);
        assert_eq!(state.memory_bytes(), 12_595_200);
        // The detour slots scale with k; severity does not.
        let m = ds2(10, 1);
        let (k1, k3) = (DerivedState::compute(&m, 1, 1), DerivedState::compute(&m, 3, 1));
        assert_eq!(k1.memory_bytes(), 2 * 12 * 55);
        assert_eq!(k3.memory_bytes(), 12 * 55 + 3 * 12 * 55);
    }

    #[test]
    fn repair_equals_rebuild_bitwise() {
        let mut m = ds2(70, 3);
        let mut repaired = DerivedState::compute(&m, 2, 2);
        let mut rebuilt = repaired.clone();
        m.set(4, 50, m.get(4, 50).unwrap() * 8.0);
        m.set(12, 33, 0.75);
        let dirty = vec![4usize, 12, 33, 50];
        repaired.repair(&m, &dirty, 4);
        rebuilt.rebuild(&m, 1);
        for i in 0..70 {
            for j in 0..70 {
                assert_eq!(
                    repaired.severity.severity(i, j).map(f64::to_bits),
                    rebuilt.severity.severity(i, j).map(f64::to_bits),
                    "severity diverged at ({i},{j})"
                );
                let a: Vec<_> = repaired.detour.relays(i, j).collect();
                let b: Vec<_> = rebuilt.detour.relays(i, j).collect();
                assert_eq!(a, b, "detours diverged at ({i},{j})");
            }
        }
    }

    #[test]
    fn clone_from_copies_both_analyses() {
        // Buffer reuse itself is pinned by the `clone_from` tests of
        // `Severity` and `DetourTable`, which this delegates to.
        let src = DerivedState::compute(&ds2(20, 1), 2, 1);
        let mut dst = DerivedState::compute(&ds2(20, 2), 2, 1);
        dst.clone_from(&src);
        for i in 0..20 {
            for j in 0..20 {
                assert_eq!(
                    dst.severity.severity(i, j).map(f64::to_bits),
                    src.severity.severity(i, j).map(f64::to_bits)
                );
                assert!(dst.detour.relays(i, j).eq(src.detour.relays(i, j)));
            }
        }
    }

    #[test]
    fn policy_thresholds() {
        let p = RebuildPolicy { full_rebuild_fraction: 0.25 };
        assert_eq!(p.decide(0, 100), BuildKind::Incremental);
        assert_eq!(p.decide(24, 100), BuildKind::Incremental);
        assert_eq!(p.decide(25, 100), BuildKind::Full); // at threshold: full
        assert_eq!(p.decide(100, 100), BuildKind::Full);
        assert_eq!(RebuildPolicy::always_full().decide(0, 100), BuildKind::Full);
        assert_eq!(RebuildPolicy::always_incremental().decide(100, 100), BuildKind::Incremental);
        assert_eq!(p.decide(0, 0), BuildKind::Incremental);
    }

    #[test]
    fn rebuild_keeps_k() {
        let m = ds2(20, 1);
        let mut s = DerivedState::compute(&m, 3, 1);
        s.rebuild(&m, 1);
        assert_eq!(s.detour.k(), 3);
        assert_eq!(s.len(), 20);
        assert!(!s.is_empty());
    }
}
