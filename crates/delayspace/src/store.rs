//! Delay stores: the [`DelayStore`] abstraction over dense and sparse
//! delay data, and the sparse observed-edge store itself.
//!
//! The dense [`DelayMatrix`] costs `n² × 8` bytes regardless of how many
//! edges were ever measured, which caps every analysis at a few thousand
//! nodes. Real measurement campaigns at large n observe a *sparse*
//! subset of pairs (landmark probes, opportunistic RTTs), and the
//! paper's estimated-severity idea only ever touches sampled witnesses —
//! so past the dense ceiling the natural representation is an adjacency
//! list of observed edges. [`SparseDelayStore`] is that representation:
//! per-node sorted neighbor lists, `O(edges)` memory, `O(log deg)`
//! lookup.
//!
//! [`DelayStore`] is the read surface both representations share. The
//! sampled estimators in `tivcore`/`tivroute` are generic over it, so
//! the same code path answers exact queries on a dense matrix and
//! sampled queries on a million-node sparse store. The contract mirrors
//! the dense matrix exactly — in particular [`DelayStore::raw`] returns
//! `NaN` for missing edges so the severity kernels' NaN-propagating
//! comparisons work unchanged on either store.

use crate::matrix::{DelayMatrix, NodeId};

/// An unordered node pair `(a, c)` — the universal query currency.
///
/// Every layer of the workspace asks questions about pairs of nodes;
/// this alias is the single shared spelling (`tivgate` converts to its
/// fixed-width wire form `WirePair` at the codec boundary and nowhere
/// else).
pub type NodePair = (NodeId, NodeId);

/// Read access to a symmetric delay space, dense or sparse.
///
/// Implementations must be symmetric (`get(i, j) == get(j, i)`) with a
/// zero diagonal, and must report missing edges as `None` from
/// [`get`](DelayStore::get) and `NaN` from [`raw`](DelayStore::raw) —
/// the same contract as [`DelayMatrix`], which makes every kernel
/// written against this trait bit-identical to its dense original.
pub trait DelayStore {
    /// Number of nodes.
    fn len(&self) -> usize;

    /// Whether the store has no nodes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The delay between `i` and `j`, or `None` if unmeasured.
    fn get(&self, i: NodeId, j: NodeId) -> Option<f64>;

    /// The delay between `i` and `j`, `NaN` if unmeasured.
    ///
    /// The hot-path accessor: NaN fails every comparison, so missing
    /// edges propagate harmlessly through the severity kernels.
    fn raw(&self, i: NodeId, j: NodeId) -> f64;

    /// Number of measured unordered edges.
    fn edge_count(&self) -> usize;

    /// Approximate resident bytes of the delay data.
    ///
    /// Dense is `Θ(n²)`, sparse is `Θ(n + edges)` — the quantity
    /// `repro sparse` tabulates and its tests bound as sublinear.
    fn memory_bytes(&self) -> usize;

    /// The measured neighbors of `i` as `(node, delay)`, ascending by
    /// node id.
    fn neighbors(&self, i: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_;
}

impl DelayStore for DelayMatrix {
    fn len(&self) -> usize {
        DelayMatrix::len(self)
    }

    fn get(&self, i: NodeId, j: NodeId) -> Option<f64> {
        DelayMatrix::get(self, i, j)
    }

    fn raw(&self, i: NodeId, j: NodeId) -> f64 {
        DelayMatrix::raw(self, i, j)
    }

    fn edge_count(&self) -> usize {
        // Ordered off-diagonal slots minus the missing ones, halved.
        (DelayMatrix::len(self) * (DelayMatrix::len(self).saturating_sub(1)) - self.missing_count())
            / 2
    }

    fn memory_bytes(&self) -> usize {
        DelayMatrix::len(self) * DelayMatrix::len(self) * std::mem::size_of::<f64>()
    }

    fn neighbors(&self, i: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.row(i).iter().enumerate().filter_map(move |(j, &d)| {
            if j != i && !d.is_nan() {
                Some((j, d))
            } else {
                None
            }
        })
    }
}

/// A sparse symmetric delay store: per-node sorted adjacency lists over
/// the *observed* edges only.
///
/// Memory is `Θ(n + edges)` — at n = 10⁶ with 100 observations per node
/// that is ~1.2 GB where the dense matrix would need 8 TB. Lookup is a
/// binary search in the smaller endpoint's list. The mutation contract
/// mirrors [`DelayMatrix::set`]/[`DelayMatrix::clear`]: symmetric
/// writes, zero diagonal, finite non-negative delays.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SparseDelayStore {
    n: usize,
    /// `adj[i]` holds `(j, delay)` sorted by `j`; every edge appears in
    /// both endpoint lists.
    adj: Vec<Vec<(u32, f64)>>,
    edges: usize,
}

impl SparseDelayStore {
    /// An empty store over `n` nodes.
    ///
    /// # Panics
    /// Panics if `n` exceeds `u32::MAX` (neighbor ids are stored as
    /// `u32` to halve the per-edge footprint).
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "sparse store caps nodes at u32::MAX, got {n}");
        Self { n, adj: vec![Vec::new(); n], edges: 0 }
    }

    /// Builds a store from an edge list; later duplicates overwrite.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (NodeId, NodeId, f64)>) -> Self {
        let mut s = Self::new(n);
        for (i, j, d) in edges {
            s.insert(i, j, d);
        }
        s
    }

    /// Imports every measured edge of a dense matrix.
    pub fn from_matrix(m: &DelayMatrix) -> Self {
        Self::from_edges(DelayMatrix::len(m), m.edges())
    }

    /// Sets the delay for the pair `{i, j}` (both directions); a later
    /// insert for the same pair overwrites.
    ///
    /// # Panics
    /// Panics if `i` or `j` is out of range, if `d` is negative or not
    /// finite, or if `i == j` and `d != 0` (same contract as
    /// [`DelayMatrix::set`]).
    pub fn insert(&mut self, i: NodeId, j: NodeId, d: f64) {
        assert!(d.is_finite() && d >= 0.0, "delay must be finite and non-negative, got {d}");
        assert!(i < self.n && j < self.n, "pair ({i},{j}) outside the {}-node store", self.n);
        if i == j {
            assert!(d == 0.0, "diagonal entries must be zero");
            return;
        }
        if self.half_insert(i, j, d) {
            self.edges += 1;
        }
        self.half_insert(j, i, d);
    }

    /// Inserts `(j, d)` into `i`'s sorted list; true if the edge is new.
    fn half_insert(&mut self, i: NodeId, j: NodeId, d: f64) -> bool {
        let row = &mut self.adj[i];
        match row.binary_search_by_key(&(j as u32), |&(k, _)| k) {
            Ok(pos) => {
                row[pos].1 = d;
                false
            }
            Err(pos) => {
                row.insert(pos, (j as u32, d));
                true
            }
        }
    }

    /// Removes the pair `{i, j}` if present (both directions).
    pub fn clear(&mut self, i: NodeId, j: NodeId) {
        if i == j || i >= self.n || j >= self.n {
            return;
        }
        let mut removed = false;
        for (a, b) in [(i, j), (j, i)] {
            let row = &mut self.adj[a];
            if let Ok(pos) = row.binary_search_by_key(&(b as u32), |&(k, _)| k) {
                row.remove(pos);
                removed = true;
            }
        }
        if removed {
            self.edges -= 1;
        }
    }

    /// Degree (number of measured neighbors) of node `i`.
    pub fn degree(&self, i: NodeId) -> usize {
        self.adj[i].len()
    }

    /// Materializes the dense equivalent — test/interop helper, defeats
    /// the purpose at large n.
    pub fn to_matrix(&self) -> DelayMatrix {
        let mut m = DelayMatrix::new(self.n);
        for (i, row) in self.adj.iter().enumerate() {
            for &(j, d) in row {
                if i < j as usize {
                    m.set(i, j as usize, d);
                }
            }
        }
        m
    }

    /// Checks the symmetry/sortedness invariants, for tests.
    ///
    /// # Errors
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut halves = 0usize;
        for (i, row) in self.adj.iter().enumerate() {
            for w in row.windows(2) {
                if w[0].0 >= w[1].0 {
                    return Err(format!("row {i} is not strictly sorted"));
                }
            }
            for &(j, d) in row {
                if j as usize == i {
                    return Err(format!("self-loop at {i}"));
                }
                if !(d.is_finite() && d >= 0.0) {
                    return Err(format!("bad delay {d} on ({i},{j})"));
                }
                let Some(back) = DelayStore::get(self, j as usize, i) else {
                    return Err(format!("edge ({i},{j}) has no mirror"));
                };
                if back.to_bits() != d.to_bits() {
                    return Err(format!("asymmetric edge ({i},{j}): {d} vs {back}"));
                }
            }
            halves += row.len();
        }
        if halves != 2 * self.edges {
            return Err(format!("edge count {} does not match half-edges {halves}", self.edges));
        }
        Ok(())
    }
}

impl DelayStore for SparseDelayStore {
    fn len(&self) -> usize {
        self.n
    }

    fn get(&self, i: NodeId, j: NodeId) -> Option<f64> {
        if i == j {
            return if i < self.n { Some(0.0) } else { None };
        }
        // Search the smaller list.
        let (a, b) = if self.adj[i].len() <= self.adj[j].len() { (i, j) } else { (j, i) };
        self.adj[a]
            .binary_search_by_key(&(b as u32), |&(k, _)| k)
            .ok()
            .map(|pos| self.adj[a][pos].1)
    }

    fn raw(&self, i: NodeId, j: NodeId) -> f64 {
        DelayStore::get(self, i, j).unwrap_or(f64::NAN)
    }

    fn edge_count(&self) -> usize {
        self.edges
    }

    fn memory_bytes(&self) -> usize {
        self.adj.len() * std::mem::size_of::<Vec<(u32, f64)>>()
            + self.adj.iter().map(|r| r.len()).sum::<usize>() * std::mem::size_of::<(u32, f64)>()
    }

    fn neighbors(&self, i: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.adj[i].iter().map(|&(j, d)| (j as usize, d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store3() -> SparseDelayStore {
        SparseDelayStore::from_edges(4, [(0, 1, 10.0), (1, 2, 20.0), (0, 3, 5.0)])
    }

    #[test]
    fn insert_get_is_symmetric_and_sorted() {
        let s = store3();
        s.check_invariants().unwrap();
        assert_eq!(DelayStore::get(&s, 0, 1), Some(10.0));
        assert_eq!(DelayStore::get(&s, 1, 0), Some(10.0));
        assert_eq!(DelayStore::get(&s, 2, 3), None);
        assert_eq!(DelayStore::get(&s, 1, 1), Some(0.0));
        assert!(DelayStore::raw(&s, 2, 3).is_nan());
        assert_eq!(s.edge_count(), 3);
        assert_eq!(s.degree(0), 2);
    }

    #[test]
    fn insert_overwrites_without_duplicating() {
        let mut s = store3();
        s.insert(1, 0, 11.5);
        s.check_invariants().unwrap();
        assert_eq!(s.edge_count(), 3);
        assert_eq!(DelayStore::get(&s, 0, 1), Some(11.5));
    }

    #[test]
    fn clear_removes_both_directions() {
        let mut s = store3();
        s.clear(2, 1);
        s.check_invariants().unwrap();
        assert_eq!(s.edge_count(), 2);
        assert_eq!(DelayStore::get(&s, 1, 2), None);
        // Clearing a missing edge is a no-op.
        s.clear(2, 1);
        assert_eq!(s.edge_count(), 2);
    }

    #[test]
    #[should_panic(expected = "outside the")]
    fn insert_out_of_range_panics() {
        store3().insert(0, 9, 1.0);
    }

    #[test]
    #[should_panic(expected = "diagonal")]
    fn nonzero_diagonal_panics() {
        store3().insert(2, 2, 1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_delay_panics() {
        store3().insert(0, 2, f64::NAN);
    }

    #[test]
    fn matrix_roundtrip_preserves_edges() {
        let mut m = DelayMatrix::from_complete_fn(5, |i, j| (i + j) as f64 + 0.25);
        m.clear(0, 4);
        let s = SparseDelayStore::from_matrix(&m);
        s.check_invariants().unwrap();
        assert_eq!(s.edge_count(), DelayStore::edge_count(&m));
        assert_eq!(s.to_matrix(), m);
    }

    #[test]
    fn dense_and_sparse_agree_through_the_trait() {
        let m = DelayMatrix::from_complete_fn(6, |i, j| (i * 6 + j) as f64);
        let s = SparseDelayStore::from_matrix(&m);
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(DelayStore::get(&m, i, j), DelayStore::get(&s, i, j), "({i},{j})");
            }
            let dn: Vec<_> = DelayStore::neighbors(&m, i).collect();
            let sn: Vec<_> = DelayStore::neighbors(&s, i).collect();
            assert_eq!(dn, sn, "neighbors of {i}");
        }
    }

    #[test]
    fn sparse_memory_is_edge_proportional() {
        let empty = SparseDelayStore::new(1000);
        let mut full = SparseDelayStore::new(1000);
        for i in 0..999 {
            full.insert(i, i + 1, 1.0);
        }
        let per_edge = 2 * std::mem::size_of::<(u32, f64)>();
        assert_eq!(full.memory_bytes() - empty.memory_bytes(), 999 * per_edge);
        // And far below the dense n²·8 for the same n.
        assert!(full.memory_bytes() < 1000 * 1000 * 8 / 10);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_ops() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
        (2usize..12).prop_flat_map(|n| {
            let entry = (0..n, 0..n, 0.01f64..1e4);
            (Just(n), proptest::collection::vec(entry, 0..40))
        })
    }

    proptest! {
        /// Insert/lookup/missing-edge round-trip: a sparse store fed the
        /// same writes as a dense matrix answers identically everywhere,
        /// including the missing edges.
        #[test]
        fn sparse_matches_dense_roundtrip((n, entries) in arb_ops()) {
            let mut m = DelayMatrix::new(n);
            let mut s = SparseDelayStore::new(n);
            for &(i, j, d) in &entries {
                if i != j {
                    m.set(i, j, d);
                    s.insert(i, j, d);
                }
            }
            s.check_invariants().unwrap();
            prop_assert_eq!(s.edge_count(), DelayStore::edge_count(&m));
            for i in 0..n {
                for j in 0..n {
                    prop_assert_eq!(
                        DelayStore::get(&m, i, j),
                        DelayStore::get(&s, i, j),
                        "({},{})", i, j
                    );
                }
            }
            prop_assert_eq!(s.to_matrix(), m);
        }

        /// Clearing a random subset keeps the two stores in lockstep.
        #[test]
        fn clear_matches_dense((n, entries) in arb_ops()) {
            let mut m = DelayMatrix::new(n);
            let mut s = SparseDelayStore::new(n);
            for (k, &(i, j, d)) in entries.iter().enumerate() {
                if i == j {
                    continue;
                }
                if k % 3 == 2 {
                    m.clear(i, j);
                    s.clear(i, j);
                } else {
                    m.set(i, j, d);
                    s.insert(i, j, d);
                }
            }
            s.check_invariants().unwrap();
            for i in 0..n {
                for j in 0..n {
                    prop_assert_eq!(DelayStore::get(&m, i, j), DelayStore::get(&s, i, j));
                }
            }
        }
    }
}
