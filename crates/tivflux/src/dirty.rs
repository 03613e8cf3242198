//! The dirty tracker.
//!
//! A [`DirtySet`] records what changed in the delay matrix since it was
//! last cleared (an epoch boundary, or a settle of the epoch builder's
//! working state), at two granularities:
//!
//! * the changed *edges*, each once with its delay at the last clear
//!   ([`DirtySet::mark_change`], [`DirtySet::changed_edges`]) —
//!   what the edge-delta kernels (`Severity::repair_edges`,
//!   `DetourTable::repair_edges`) consume;
//! * the dirty *rows*, both endpoints of every changed edge — what the
//!   rebuild policy, the row-repair reference kernels and the
//!   dirty-local embedding refinement consume.

use delayspace::matrix::NodeId;
use std::collections::HashSet;

/// Tracks the dirty rows (nodes) and changed edges between two epochs.
///
/// Marking is O(1) and idempotent; [`DirtySet::sorted_nodes`] returns
/// the strictly-increasing row list the row-repair kernels require.
#[derive(Clone, Debug)]
pub struct DirtySet {
    /// `flags[i]` — node `i`'s row changed since the last clear.
    flags: Vec<bool>,
    /// Dirty nodes in first-marked order (deduplicated via `flags`).
    nodes: Vec<NodeId>,
    /// Every `mark_edge` / `mark_change` call, including repeats of the
    /// same edge — a load measure, not a distinct-edge count.
    edge_marks: usize,
    /// `(a, b, before)` per edge passed to `mark_change`, in first-change
    /// order: `before` is the delay at the last clear.
    changed: Vec<(NodeId, NodeId, f64)>,
    /// The `(min, max)` endpoints of every edge in `changed`.
    seen: HashSet<(NodeId, NodeId)>,
}

impl DirtySet {
    /// An all-clean tracker over `n` nodes.
    pub fn new(n: usize) -> Self {
        DirtySet {
            flags: vec![false; n],
            nodes: Vec::new(),
            edge_marks: 0,
            changed: Vec::new(),
            seen: HashSet::new(),
        }
    }

    /// Number of nodes tracked.
    pub fn universe(&self) -> usize {
        self.flags.len()
    }

    /// Marks the edge `{a, b}` changed: both endpoint rows become
    /// dirty.
    ///
    /// # Panics
    /// Panics when either endpoint is out of range.
    pub fn mark_edge(&mut self, a: NodeId, b: NodeId) {
        self.mark_node(a);
        self.mark_node(b);
        self.edge_marks += 1;
    }

    /// Marks the edge `{a, b}` changed like [`DirtySet::mark_edge`],
    /// and records `(a, b, before)` the first time the edge changes
    /// since the last clear — so `before` is its delay at that clear
    /// (NaN = unmeasured then). Later calls for the same edge, in
    /// either orientation, only mark.
    ///
    /// # Panics
    /// Panics when either endpoint is out of range.
    pub fn mark_change(&mut self, a: NodeId, b: NodeId, before: f64) {
        self.mark_edge(a, b);
        if self.seen.insert((a.min(b), a.max(b))) {
            self.changed.push((a, b, before));
        }
    }

    /// The edges passed to [`DirtySet::mark_change`] since the last
    /// clear, once each as `(a, b, before)` — the input of the
    /// edge-delta repair kernels.
    pub fn changed_edges(&self) -> &[(NodeId, NodeId, f64)] {
        &self.changed
    }

    /// Marks one node's row for recomputation. This is the low-level
    /// building block behind [`DirtySet::mark_edge`] — **it is not a
    /// shortcut for "this node's edges changed"**: a changed edge
    /// `{i, j}` affects *both* endpoint rows (row `j` reads `d(i, j)`
    /// through witness `i` for every destination), so every edge-level
    /// change must go through `mark_edge`, which marks both ends.
    /// Marking only the node whose row drifted would leave its peers'
    /// rows stale and break the repair kernels' bit-identity contract.
    ///
    /// # Panics
    /// Panics when `node` is out of range.
    pub fn mark_node(&mut self, node: NodeId) {
        assert!(node < self.flags.len(), "node {node} outside {} nodes", self.flags.len());
        if !self.flags[node] {
            self.flags[node] = true;
            self.nodes.push(node);
        }
    }

    /// True when nothing changed since the last clear.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of dirty rows.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of `mark_edge` and `mark_change` calls since the last
    /// clear (repeats of the same edge count — a load measure, not a
    /// distinct-edge count).
    pub fn edge_marks(&self) -> usize {
        self.edge_marks
    }

    /// Dirty rows as a fraction of the universe (0 for an empty
    /// universe).
    pub fn fraction(&self) -> f64 {
        if self.flags.is_empty() {
            0.0
        } else {
            self.nodes.len() as f64 / self.flags.len() as f64
        }
    }

    /// True when `node`'s row is dirty.
    pub fn contains(&self, node: NodeId) -> bool {
        self.flags[node]
    }

    /// The dirty rows, strictly increasing — the shape the repair
    /// kernels (`Severity::repair_rows`, `DetourTable::repair_rows`),
    /// [`crate::refine_embedding`] and [`crate::refine_nodes`] require.
    pub fn sorted_nodes(&self) -> Vec<NodeId> {
        let mut nodes = self.nodes.clone();
        nodes.sort_unstable();
        nodes
    }

    /// Resets to all-clean (the epoch boundary).
    pub fn clear(&mut self) {
        for &n in &self.nodes {
            self.flags[n] = false;
        }
        self.nodes.clear();
        self.edge_marks = 0;
        self.changed.clear();
        self.seen.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marking_is_idempotent_and_sorted() {
        let mut d = DirtySet::new(10);
        assert!(d.is_empty());
        d.mark_edge(7, 2);
        d.mark_edge(2, 7);
        d.mark_edge(2, 5);
        assert_eq!(d.node_count(), 3);
        assert_eq!(d.edge_marks(), 3);
        assert_eq!(d.sorted_nodes(), vec![2, 5, 7]);
        assert!(d.contains(2) && d.contains(5) && d.contains(7));
        assert!(!d.contains(0));
        assert!((d.fraction() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn node_marks_are_idempotent_and_count_no_edges() {
        let mut d = DirtySet::new(4);
        d.mark_node(3);
        d.mark_node(3);
        assert_eq!(d.sorted_nodes(), vec![3]);
        assert_eq!(d.edge_marks(), 0);
    }

    #[test]
    fn clear_resets_everything() {
        let mut d = DirtySet::new(6);
        d.mark_edge(0, 5);
        d.clear();
        assert!(d.is_empty());
        assert_eq!(d.fraction(), 0.0);
        assert_eq!(d.edge_marks(), 0);
        d.mark_edge(1, 2); // reusable after clear
        assert_eq!(d.sorted_nodes(), vec![1, 2]);
    }

    #[test]
    fn changes_keep_the_first_before_value_per_edge() {
        let mut d = DirtySet::new(6);
        d.mark_change(4, 1, 10.0);
        d.mark_change(1, 4, 20.0); // same edge, other orientation
        d.mark_change(2, 3, f64::NAN);
        d.mark_edge(0, 5); // marks rows, records no edge
        assert_eq!(d.edge_marks(), 4);
        assert_eq!(d.sorted_nodes(), vec![0, 1, 2, 3, 4, 5]);
        let changed = d.changed_edges();
        assert_eq!(changed.len(), 2);
        assert_eq!(changed[0], (4, 1, 10.0));
        assert_eq!((changed[1].0, changed[1].1), (2, 3));
        assert!(changed[1].2.is_nan());
        d.clear();
        assert!(d.changed_edges().is_empty());
        d.mark_change(1, 4, 30.0); // a new epoch records it afresh
        assert_eq!(d.changed_edges(), &[(1, 4, 30.0)]);
    }

    #[test]
    fn empty_universe_has_zero_fraction() {
        assert_eq!(DirtySet::new(0).fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_mark_rejected() {
        DirtySet::new(3).mark_node(3);
    }
}
