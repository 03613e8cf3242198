//! Dense symmetric round-trip-delay matrices.
//!
//! A [`DelayMatrix`] stores the measured round-trip delay, in
//! milliseconds, between every pair of nodes of a data set. Matrices are
//! symmetric (the paper works with round-trip delays) and may contain
//! missing values, encoded as `NaN` internally and surfaced as `None`
//! through the accessors. The diagonal is always zero.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a node inside a delay matrix.
///
/// Plain `usize` rather than a newtype: every structure in the workspace
/// indexes the same node universe of one matrix, and arithmetic on the
/// index (binning, matrix offsets) is pervasive.
pub type NodeId = usize;

/// A dense, symmetric matrix of round-trip delays in milliseconds.
///
/// Missing measurements are represented as `NaN` in the backing storage
/// and returned as `None` from [`DelayMatrix::get`]. All constructors
/// enforce symmetry and a zero diagonal.
#[derive(Serialize, Deserialize)]
pub struct DelayMatrix {
    n: usize,
    /// Row-major `n * n` storage; `data[i * n + j]` is the delay i→j.
    data: Vec<f64>,
}

impl Clone for DelayMatrix {
    fn clone(&self) -> Self {
        DelayMatrix { n: self.n, data: self.data.clone() }
    }

    /// Copies `source` into this matrix's existing buffer (the derived
    /// `clone_from` would allocate a fresh one): an epoch builder
    /// refreshing a retired snapshot pays a memcpy, not an allocation.
    fn clone_from(&mut self, source: &Self) {
        self.n = source.n;
        self.data.clone_from(&source.data);
    }
}

impl PartialEq for DelayMatrix {
    /// Structural equality that treats two missing entries (NaN) as
    /// equal — the derived implementation would make no matrix equal to
    /// itself once any measurement is missing.
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
            && self.data.iter().zip(&other.data).all(|(a, b)| a == b || (a.is_nan() && b.is_nan()))
    }
}

impl fmt::Debug for DelayMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DelayMatrix")
            .field("n", &self.n)
            .field("missing", &self.missing_count())
            .finish()
    }
}

impl DelayMatrix {
    /// Creates a matrix of `n` nodes with every off-diagonal entry missing.
    pub fn new(n: usize) -> Self {
        let mut data = vec![f64::NAN; n * n];
        for i in 0..n {
            data[i * n + i] = 0.0;
        }
        DelayMatrix { n, data }
    }

    /// Builds a matrix by evaluating `f(i, j)` for every unordered pair
    /// `i < j`. `f` returning `None` leaves the entry missing.
    pub fn from_fn(n: usize, mut f: impl FnMut(NodeId, NodeId) -> Option<f64>) -> Self {
        let mut m = DelayMatrix::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                if let Some(d) = f(i, j) {
                    m.set(i, j, d);
                }
            }
        }
        m
    }

    /// Builds a complete matrix from a distance function that never fails.
    pub fn from_complete_fn(n: usize, mut f: impl FnMut(NodeId, NodeId) -> f64) -> Self {
        Self::from_fn(n, |i, j| Some(f(i, j)))
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the matrix has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The delay between `i` and `j`, or `None` when unmeasured.
    ///
    /// `get(i, i)` is always `Some(0.0)`.
    #[inline]
    pub fn get(&self, i: NodeId, j: NodeId) -> Option<f64> {
        let v = self.data[i * self.n + j];
        if v.is_nan() {
            None
        } else {
            Some(v)
        }
    }

    /// The delay between `i` and `j`, without the missing-value check.
    ///
    /// Returns `NaN` for missing entries. This is the hot-path accessor
    /// used by the O(n³) severity kernel, where the NaN propagates
    /// harmlessly through the comparison (any comparison with NaN is
    /// false, so missing edges never count as violations).
    #[inline]
    pub fn raw(&self, i: NodeId, j: NodeId) -> f64 {
        self.data[i * self.n + j]
    }

    /// A full row of raw values (including `NaN` for missing entries).
    #[inline]
    pub fn row(&self, i: NodeId) -> &[f64] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Sets the delay for the pair `{i, j}` (both directions). A
    /// negative zero is stored as `+0.0`, so `<` and `total_cmp` agree
    /// on every stored delay (the detour kernels rank with both).
    ///
    /// # Panics
    /// Panics if `i == j` and `d != 0`, or if `d` is negative or not finite.
    pub fn set(&mut self, i: NodeId, j: NodeId, d: f64) {
        assert!(d.is_finite() && d >= 0.0, "delay must be finite and non-negative, got {d}");
        if i == j {
            assert!(d == 0.0, "diagonal entries must be zero");
            return;
        }
        let d = d + 0.0; // -0.0 + 0.0 == +0.0; every other value is unchanged
        self.data[i * self.n + j] = d;
        self.data[j * self.n + i] = d;
    }

    /// Marks the pair `{i, j}` as unmeasured.
    pub fn clear(&mut self, i: NodeId, j: NodeId) {
        if i == j {
            return;
        }
        self.data[i * self.n + j] = f64::NAN;
        self.data[j * self.n + i] = f64::NAN;
    }

    /// Number of missing off-diagonal ordered entries.
    pub fn missing_count(&self) -> usize {
        self.data.iter().filter(|v| v.is_nan()).count()
    }

    /// Fraction of unordered node pairs that are measured.
    pub fn coverage(&self) -> f64 {
        if self.n < 2 {
            return 1.0;
        }
        let pairs = self.n * (self.n - 1);
        1.0 - self.missing_count() as f64 / pairs as f64
    }

    /// Iterator over measured unordered edges `(i, j, delay)` with `i < j`.
    pub fn edges(&self) -> EdgeIter<'_> {
        EdgeIter { m: self, i: 0, j: 0 }
    }

    /// All measured delays of unordered edges, unsorted.
    pub fn edge_delays(&self) -> Vec<f64> {
        self.edges().map(|(_, _, d)| d).collect()
    }

    /// The node in `candidates` with the smallest measured delay to `from`,
    /// together with that delay. Candidates without a measurement are
    /// skipped; returns `None` when nothing is measurable.
    pub fn nearest_among<'a>(
        &self,
        from: NodeId,
        candidates: impl IntoIterator<Item = &'a NodeId>,
    ) -> Option<(NodeId, f64)> {
        let mut best: Option<(NodeId, f64)> = None;
        for &c in candidates {
            if c == from {
                continue;
            }
            if let Some(d) = self.get(from, c) {
                if best.map_or(true, |(_, bd)| d < bd) {
                    best = Some((c, d));
                }
            }
        }
        best
    }

    /// The nearest measured neighbor of `from` over the whole matrix.
    pub fn nearest_neighbor(&self, from: NodeId) -> Option<(NodeId, f64)> {
        let row = self.row(from);
        let mut best: Option<(NodeId, f64)> = None;
        for (j, &d) in row.iter().enumerate() {
            if j == from || d.is_nan() {
                continue;
            }
            if best.map_or(true, |(_, bd)| d < bd) {
                best = Some((j, d));
            }
        }
        best
    }

    /// Restricts the matrix to the given nodes, renumbering them
    /// `0..ids.len()` in the order given.
    pub fn submatrix(&self, ids: &[NodeId]) -> DelayMatrix {
        let mut m = DelayMatrix::new(ids.len());
        for (a, &i) in ids.iter().enumerate() {
            for (b, &j) in ids.iter().enumerate().skip(a + 1) {
                if let Some(d) = self.get(i, j) {
                    m.set(a, b, d);
                }
            }
        }
        m
    }

    /// Verifies the structural invariants (symmetry, zero diagonal,
    /// non-negative finite values or NaN). Intended for tests and
    /// debug assertions; O(n²).
    pub fn check_invariants(&self) -> Result<(), String> {
        for i in 0..self.n {
            if self.data[i * self.n + i] != 0.0 {
                return Err(format!("diagonal entry ({i},{i}) is not zero"));
            }
            for j in 0..self.n {
                let a = self.data[i * self.n + j];
                let b = self.data[j * self.n + i];
                if a.is_nan() != b.is_nan() {
                    return Err(format!("asymmetric missingness at ({i},{j})"));
                }
                if !a.is_nan() {
                    if a != b {
                        return Err(format!("asymmetric value at ({i},{j}): {a} vs {b}"));
                    }
                    if !(a.is_finite() && a >= 0.0) {
                        return Err(format!("invalid delay at ({i},{j}): {a}"));
                    }
                }
            }
        }
        Ok(())
    }

    /// Serialises the matrix to a compact text format: first line `n`,
    /// then one row per line of space-separated values with `-` for
    /// missing entries. Suitable for interchange with plotting scripts.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(self.n * self.n * 8);
        out.push_str(&self.n.to_string());
        out.push('\n');
        for i in 0..self.n {
            let row = self.row(i);
            for (j, v) in row.iter().enumerate() {
                if j > 0 {
                    out.push(' ');
                }
                if v.is_nan() {
                    out.push('-');
                } else {
                    out.push_str(&format!("{v:.3}"));
                }
            }
            out.push('\n');
        }
        out
    }

    /// Parses the format produced by [`DelayMatrix::to_text`].
    pub fn from_text(s: &str) -> Result<Self, String> {
        let mut lines = s.lines();
        let n: usize = lines
            .next()
            .ok_or("empty input")?
            .trim()
            .parse()
            .map_err(|e| format!("bad node count: {e}"))?;
        let mut m = DelayMatrix::new(n);
        for i in 0..n {
            let line = lines.next().ok_or_else(|| format!("missing row {i}"))?;
            let mut cols = 0usize;
            for (j, tok) in line.split_whitespace().enumerate() {
                cols += 1;
                if j >= n {
                    return Err(format!("row {i} has more than {n} columns"));
                }
                if tok == "-" {
                    continue;
                }
                let d: f64 = tok.parse().map_err(|e| format!("row {i} col {j}: {e}"))?;
                if i == j {
                    if d != 0.0 {
                        return Err(format!("nonzero diagonal at {i}"));
                    }
                    continue;
                }
                // Last writer wins; symmetry re-imposed by `set`.
                m.set(i, j, d);
            }
            if cols != n {
                return Err(format!("row {i} has {cols} columns, expected {n}"));
            }
        }
        Ok(m)
    }
}

/// Iterator over measured unordered edges of a [`DelayMatrix`].
pub struct EdgeIter<'a> {
    m: &'a DelayMatrix,
    i: usize,
    j: usize,
}

impl Iterator for EdgeIter<'_> {
    type Item = (NodeId, NodeId, f64);

    fn next(&mut self) -> Option<Self::Item> {
        let n = self.m.n;
        loop {
            self.j += 1;
            if self.j >= n {
                self.i += 1;
                self.j = self.i + 1;
                if self.j >= n {
                    return None;
                }
            }
            let d = self.m.raw(self.i, self.j);
            if !d.is_nan() {
                return Some((self.i, self.j, d));
            }
        }
    }
}

/// Among `candidates` other than `client`, the one with the smallest
/// `predict(candidate)` under [`f64::total_cmp`], the first of equals
/// winning — the neighbor-selection primitive every delay predictor
/// shares. Each candidate is predicted once.
pub fn nearest_by(
    client: NodeId,
    candidates: &[NodeId],
    mut predict: impl FnMut(NodeId) -> f64,
) -> Option<NodeId> {
    let mut best: Option<(NodeId, f64)> = None;
    for &c in candidates.iter().filter(|&&c| c != client) {
        let p = predict(c);
        if best.map_or(true, |(_, b)| p.total_cmp(&b).is_lt()) {
            best = Some((c, p));
        }
    }
    best.map(|(c, _)| c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_by_matches_min_by_with_ties() {
        // The double-evaluating `min_by` the predictors used, on values
        // with ties, a NaN and both zeros.
        let values = [3.0, 1.0, 4.0, 1.0, 5.0, 0.0, -0.0, f64::NAN, 0.0, 2.0];
        let predict = |c: NodeId| values[c % values.len()];
        let reference = |client: NodeId, candidates: &[NodeId]| {
            candidates
                .iter()
                .copied()
                .filter(|&c| c != client)
                .min_by(|&a, &b| predict(a).total_cmp(&predict(b)))
        };
        let pools: [&[NodeId]; 6] =
            [&[], &[4], &[0, 1, 2, 3], &[3, 1, 0], &[7, 2, 4], &[9, 8, 6, 5, 3, 1, 11, 13]];
        for pool in pools {
            for client in [0, 1, 3, 6, 99] {
                assert_eq!(nearest_by(client, pool, predict), reference(client, pool));
            }
        }
        // First of equals: candidates 1 and 3 tie at 1.0.
        assert_eq!(nearest_by(0, &[3, 1], predict), Some(3));
    }

    #[test]
    fn new_matrix_is_all_missing_except_diagonal() {
        let m = DelayMatrix::new(4);
        assert_eq!(m.len(), 4);
        assert_eq!(m.get(0, 0), Some(0.0));
        assert_eq!(m.get(0, 1), None);
        assert_eq!(m.missing_count(), 12);
        assert_eq!(m.coverage(), 0.0);
    }

    #[test]
    fn set_is_symmetric() {
        let mut m = DelayMatrix::new(3);
        m.set(0, 2, 12.5);
        assert_eq!(m.get(0, 2), Some(12.5));
        assert_eq!(m.get(2, 0), Some(12.5));
        m.check_invariants().unwrap();
    }

    #[test]
    fn clear_removes_both_directions() {
        let mut m = DelayMatrix::new(3);
        m.set(1, 2, 7.0);
        m.clear(2, 1);
        assert_eq!(m.get(1, 2), None);
        assert_eq!(m.get(2, 1), None);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_delay_panics() {
        let mut m = DelayMatrix::new(2);
        m.set(0, 1, -1.0);
    }

    #[test]
    fn negative_zero_is_stored_as_positive_zero() {
        let mut m = DelayMatrix::new(2);
        m.set(0, 1, -0.0);
        assert_eq!(m.raw(1, 0).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn clone_from_reuses_the_destination_buffer() {
        let src = DelayMatrix::from_complete_fn(6, |i, j| (i + j) as f64);
        let mut dst = DelayMatrix::from_complete_fn(6, |_, _| 1.0);
        let buffer = dst.data.as_ptr();
        dst.clone_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.data.as_ptr(), buffer, "clone_from reallocated");
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn infinite_delay_panics() {
        let mut m = DelayMatrix::new(2);
        m.set(0, 1, f64::INFINITY);
    }

    #[test]
    fn edges_iterates_measured_pairs_once() {
        let mut m = DelayMatrix::new(4);
        m.set(0, 1, 1.0);
        m.set(2, 3, 2.0);
        let edges: Vec<_> = m.edges().collect();
        assert_eq!(edges, vec![(0, 1, 1.0), (2, 3, 2.0)]);
    }

    #[test]
    fn from_fn_builds_complete_matrix() {
        let m = DelayMatrix::from_complete_fn(5, |i, j| (i + j) as f64);
        assert_eq!(m.coverage(), 1.0);
        assert_eq!(m.get(1, 3), Some(4.0));
        m.check_invariants().unwrap();
    }

    #[test]
    fn nearest_neighbor_finds_minimum() {
        let mut m = DelayMatrix::new(4);
        m.set(0, 1, 10.0);
        m.set(0, 2, 3.0);
        m.set(0, 3, 8.0);
        assert_eq!(m.nearest_neighbor(0), Some((2, 3.0)));
    }

    #[test]
    fn nearest_among_skips_missing_and_self() {
        let mut m = DelayMatrix::new(4);
        m.set(0, 3, 8.0);
        let cands = [0usize, 1, 3];
        assert_eq!(m.nearest_among(0, cands.iter()), Some((3, 8.0)));
        let no_cands = [0usize];
        assert_eq!(m.nearest_among(0, no_cands.iter()), None);
    }

    #[test]
    fn submatrix_renumbers() {
        let m = DelayMatrix::from_complete_fn(5, |i, j| (10 * i + j) as f64);
        let s = m.submatrix(&[4, 1, 2]);
        assert_eq!(s.len(), 3);
        // Original edge (1,4) = 14 becomes (0,1).
        assert_eq!(s.get(0, 1), Some(14.0));
        assert_eq!(s.get(1, 2), Some(12.0));
        s.check_invariants().unwrap();
    }

    #[test]
    fn text_roundtrip_preserves_matrix() {
        let mut m = DelayMatrix::from_complete_fn(4, |i, j| (i * 4 + j) as f64 + 0.5);
        m.clear(0, 3);
        let text = m.to_text();
        let back = DelayMatrix::from_text(&text).unwrap();
        assert_eq!(back.len(), 4);
        assert_eq!(back.get(0, 3), None);
        assert_eq!(back.get(1, 2), m.get(1, 2));
    }

    #[test]
    fn from_text_rejects_garbage() {
        assert!(DelayMatrix::from_text("").is_err());
        assert!(DelayMatrix::from_text("2\n0 1\n1").is_err());
        assert!(DelayMatrix::from_text("2\n0 x\nx 0\n").is_err());
    }

    #[test]
    // The negated comparisons are the point: the severity kernel relies
    // on NaN failing every comparison.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn raw_nan_never_compares() {
        let m = DelayMatrix::new(3);
        let v = m.raw(0, 1);
        assert!(!(v < 1e18) && !(v > 0.0));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_entries() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
        (2usize..12).prop_flat_map(|n| {
            let entry = (0..n, 0..n, 0.01f64..1e4);
            (Just(n), proptest::collection::vec(entry, 0..40))
        })
    }

    proptest! {
        #[test]
        fn set_get_roundtrip((n, entries) in arb_entries()) {
            let mut m = DelayMatrix::new(n);
            for &(i, j, d) in &entries {
                if i != j {
                    m.set(i, j, d);
                }
            }
            m.check_invariants().unwrap();
            // Last writer wins, symmetrically.
            for &(i, j, _) in &entries {
                if i != j {
                    prop_assert_eq!(m.get(i, j), m.get(j, i));
                }
            }
        }

        #[test]
        fn text_roundtrip_any_matrix((n, entries) in arb_entries()) {
            let mut m = DelayMatrix::new(n);
            for &(i, j, d) in &entries {
                if i != j {
                    m.set(i, j, d);
                }
            }
            let back = DelayMatrix::from_text(&m.to_text()).unwrap();
            prop_assert_eq!(back.len(), m.len());
            for i in 0..n {
                for j in 0..n {
                    match (m.get(i, j), back.get(i, j)) {
                        (None, None) => {}
                        (Some(a), Some(b)) => {
                            // Text format keeps 3 decimals.
                            prop_assert!((a - b).abs() < 5e-4, "{a} vs {b}");
                        }
                        other => prop_assert!(false, "missingness changed: {other:?}"),
                    }
                }
            }
        }

        #[test]
        fn edges_count_matches_coverage((n, entries) in arb_entries()) {
            let mut m = DelayMatrix::new(n);
            for &(i, j, d) in &entries {
                if i != j {
                    m.set(i, j, d);
                }
            }
            let edges = m.edges().count();
            let pairs = n * (n - 1) / 2;
            let cov = m.coverage();
            prop_assert!((cov - edges as f64 / pairs.max(1) as f64).abs() < 1e-9);
        }

        #[test]
        fn nearest_neighbor_is_minimal((n, entries) in arb_entries()) {
            let mut m = DelayMatrix::new(n);
            for &(i, j, d) in &entries {
                if i != j {
                    m.set(i, j, d);
                }
            }
            for i in 0..n {
                if let Some((nn, d)) = m.nearest_neighbor(i) {
                    prop_assert_eq!(m.get(i, nn), Some(d));
                    for j in 0..n {
                        if j != i {
                            if let Some(dj) = m.get(i, j) {
                                prop_assert!(d <= dj);
                            }
                        }
                    }
                }
            }
        }
    }
}
