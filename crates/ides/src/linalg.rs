//! Minimal dense linear algebra for matrix factorization.
//!
//! IDES needs only a handful of operations — matrix/vector products,
//! transposed products, outer-product deflation — so we implement them
//! directly rather than pulling in a linear-algebra crate (DESIGN.md
//! keeps the dependency set to the allowed list).
//!
//! The matrix products ([`mul`], [`t_mul`], [`mul_t`]) and the
//! matrix–vector products parallelise over output rows (or elements)
//! with [`tivpar`]; each output element keeps the serial loop's exact
//! accumulation order, so every product is bit-identical at every
//! thread count.

/// A dense row-major matrix of f64.
#[derive(Clone, Debug, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// A zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Builds from a function of (row, col).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Mat::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.data[r * cols + c] = f(r, c);
            }
        }
        m
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// A row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `y = self · x` (matrix–vector product) with up to `threads`
    /// workers ([`tivpar::resolve_threads`] semantics). Each output
    /// element is one row dot product, so the result is bit-identical
    /// at every thread count.
    pub fn matvec(&self, x: &[f64], threads: usize) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        let threads = effective_threads(self.rows * self.cols, threads);
        tivpar::par_map_rows(self.rows, threads, |r| {
            self.row(r).iter().zip(x).map(|(a, b)| a * b).sum()
        })
    }

    /// `y = selfᵀ · x` (transposed matrix–vector product) with up to
    /// `threads` workers. With one effective worker it sweeps the rows,
    /// adding each row's contribution into `y`. With more it
    /// materialises the transpose in a blocked scratch pass (32×32
    /// tiles) and computes each output element as a
    /// contiguous row dot — unit-stride loads that autovectorise,
    /// instead of a strided column walk per element. Either way `y[c]`
    /// accumulates over rows in ascending order, so the result is
    /// bit-identical at every thread count.
    pub fn matvec_t(&self, x: &[f64], threads: usize) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "matvec_t dimension mismatch");
        let threads = effective_threads(self.rows * self.cols, threads);
        if tivpar::resolve_threads(threads) <= 1 {
            let mut y = vec![0.0; self.cols];
            for (r, &xr) in x.iter().enumerate() {
                for (c, &a) in self.row(r).iter().enumerate() {
                    y[c] += a * xr;
                }
            }
            return y;
        }
        let t = self.transposed();
        tivpar::par_map_rows(self.cols, threads, |c| dot(t.row(c), x))
    }

    /// The transpose, materialised into a fresh row-major matrix in
    /// cache-line-sized tiles (32×32 f64s — each tile reads and writes
    /// four cache lines per row, so both the source and destination
    /// stay resident while the tile flips, instead of one of the two
    /// streaming a full row of cache misses per element).
    pub(crate) fn transposed(&self) -> Mat {
        const TILE: usize = 32;
        let mut t = Mat::zeros(self.cols, self.rows);
        for r0 in (0..self.rows).step_by(TILE) {
            let r1 = (r0 + TILE).min(self.rows);
            for c0 in (0..self.cols).step_by(TILE) {
                let c1 = (c0 + TILE).min(self.cols);
                for r in r0..r1 {
                    for c in c0..c1 {
                        t.data[c * self.rows + r] = self.data[r * self.cols + c];
                    }
                }
            }
        }
        t
    }

    /// Subtracts the rank-1 outer product `σ·u·vᵀ` in place (deflation).
    pub(crate) fn deflate(&mut self, sigma: f64, u: &[f64], v: &[f64]) {
        assert_eq!(u.len(), self.rows);
        assert_eq!(v.len(), self.cols);
        for (r, &ur) in u.iter().enumerate() {
            let row = self.row_mut(r);
            for (c, &vc) in v.iter().enumerate() {
                row[c] -= sigma * ur * vc;
            }
        }
    }

    /// Frobenius norm (the tests' residual measure).
    #[cfg(test)]
    pub(crate) fn frobenius(&self) -> f64 {
        self.data.iter().map(|a| a * a).sum::<f64>().sqrt()
    }
}

/// Products below this many multiply-adds run serially regardless of
/// the requested worker count: thread-spawn overhead would dominate
/// (the rank×rank Gram matrices of an NMF update are the typical
/// case). Safe for determinism — every product here is bit-identical
/// to its serial form, and the gate depends only on the input shapes.
const MIN_PAR_WORK: usize = 1 << 15;

/// Forces small products onto the calling thread.
fn effective_threads(work: usize, threads: usize) -> usize {
    if work < MIN_PAR_WORK {
        1
    } else {
        threads
    }
}

/// `AB` for A (n×k), B (k×m) → n×m, parallel over output rows with up
/// to `threads` workers. Per output row the accumulation order matches
/// the textbook serial triple loop, so the product is bit-identical at
/// every thread count.
pub fn mul(a: &Mat, b: &Mat, threads: usize) -> Mat {
    assert_eq!(a.cols(), b.rows(), "mul dimension mismatch");
    let threads = effective_threads(a.rows() * a.cols() * b.cols(), threads);
    let mut out = Mat::zeros(a.rows(), b.cols());
    tivpar::par_fill_rows(&mut out.data, a.rows, threads, |r, orow| {
        for (i, &av) in a.row(r).iter().enumerate() {
            for (o, &bv) in orow.iter_mut().zip(b.row(i)) {
                *o += av * bv;
            }
        }
    });
    out
}

/// `AᵀB` for A (n×k), B (n×m) → k×m, parallel over the k output rows.
/// Output row `i` scans all n rows of both inputs, accumulating in
/// ascending row order — bit-identical at every thread count.
pub fn t_mul(a: &Mat, b: &Mat, threads: usize) -> Mat {
    assert_eq!(a.rows(), b.rows(), "t_mul dimension mismatch");
    let threads = effective_threads(a.rows() * a.cols() * b.cols(), threads);
    let mut out = Mat::zeros(a.cols(), b.cols());
    tivpar::par_fill_rows(&mut out.data, a.cols, threads, |i, orow| {
        for r in 0..a.rows() {
            let av = a.get(r, i);
            for (o, &bv) in orow.iter_mut().zip(b.row(r)) {
                *o += av * bv;
            }
        }
    });
    out
}

/// `ABᵀ` for A (n×m), B (k×m) → n×k, parallel over output rows; each
/// element is one row-dot-row product.
pub fn mul_t(a: &Mat, b: &Mat, threads: usize) -> Mat {
    assert_eq!(a.cols(), b.cols(), "mul_t dimension mismatch");
    let threads = effective_threads(a.rows() * a.cols() * b.rows(), threads);
    let mut out = Mat::zeros(a.rows(), b.rows());
    tivpar::par_fill_rows(&mut out.data, a.rows, threads, |r, orow| {
        for (c, o) in orow.iter_mut().enumerate() {
            *o = dot(a.row(r), b.row(c));
        }
    });
    out
}

/// Euclidean norm of a vector.
pub fn norm(v: &[f64]) -> f64 {
    v.iter().map(|a| a * a).sum::<f64>().sqrt()
}

/// Normalises `v` in place; returns its prior norm. Vectors of
/// negligible norm are left unchanged (returns 0).
pub fn normalize(v: &mut [f64]) -> f64 {
    let n = norm(v);
    if n > 1e-300 {
        for a in v.iter_mut() {
            *a /= n;
        }
        n
    } else {
        0.0
    }
}

/// Dot product.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Solves the square system `A·x = b` by Gaussian elimination with
/// partial pivoting. Returns `None` for (numerically) singular `A`.
/// Used for the tiny (rank × rank) normal-equation solves of
/// landmark-based IDES.
pub fn solve(a: &Mat, b: &[f64]) -> Option<Vec<f64>> {
    let n = a.rows();
    assert_eq!(a.cols(), n, "solve needs a square matrix");
    assert_eq!(b.len(), n, "rhs dimension mismatch");
    // Augmented working copy.
    let mut w: Vec<Vec<f64>> = (0..n)
        .map(|r| {
            let mut row = a.row(r).to_vec();
            row.push(b[r]);
            row
        })
        .collect();
    for col in 0..n {
        // Partial pivot.
        let pivot = (col..n).max_by(|&x, &y| w[x][col].abs().total_cmp(&w[y][col].abs()))?;
        if w[pivot][col].abs() < 1e-12 {
            return None;
        }
        w.swap(col, pivot);
        let (pivot_rows, rest) = w.split_at_mut(col + 1);
        let pivot_row = &pivot_rows[col];
        for row in rest.iter_mut() {
            let f = row[col] / pivot_row[col];
            for (rk, pk) in row[col..=n].iter_mut().zip(&pivot_row[col..=n]) {
                *rk -= f * pk;
            }
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for col in (0..n).rev() {
        let mut v = w[col][n];
        for k in (col + 1)..n {
            v -= w[col][k] * x[k];
        }
        x[col] = v / w[col][col];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_computes_product() {
        let m = Mat::from_fn(2, 3, |r, c| (r * 3 + c) as f64); // [[0,1,2],[3,4,5]]
        assert_eq!(m.matvec(&[1.0, 1.0, 1.0], 1), vec![3.0, 12.0]);
        assert_eq!(m.matvec_t(&[1.0, 1.0], 1), vec![3.0, 5.0, 7.0]);
    }

    #[test]
    fn deflation_removes_rank_one() {
        // m = 2 * u vᵀ with unit u, v.
        let u = [1.0, 0.0];
        let v = [0.6, 0.8];
        let mut m = Mat::from_fn(2, 2, |r, c| 2.0 * u[r] * v[c]);
        m.deflate(2.0, &u, &v);
        assert!(m.frobenius() < 1e-12);
    }

    #[test]
    fn normalize_unit_norm() {
        let mut v = vec![3.0, 4.0];
        let n = normalize(&mut v);
        assert_eq!(n, 5.0);
        assert!((norm(&v) - 1.0).abs() < 1e-12);
        let mut z = vec![0.0, 0.0];
        assert_eq!(normalize(&mut z), 0.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matvec_checks_dims() {
        Mat::zeros(2, 3).matvec(&[1.0], 1);
    }

    #[test]
    fn products_match_naive_and_are_thread_invariant() {
        let a = Mat::from_fn(17, 5, |r, c| ((r * 3 + c * 7) % 13) as f64 - 4.0);
        let b = Mat::from_fn(5, 11, |r, c| ((r * 5 + c * 2) % 9) as f64 * 0.25);
        let naive = Mat::from_fn(17, 11, |r, c| (0..5).map(|i| a.get(r, i) * b.get(i, c)).sum());
        for t in [1usize, 2, 4, 7] {
            assert_eq!(mul(&a, &b, t), mul(&a, &b, 1));
            assert_eq!(t_mul(&a, &a, t), t_mul(&a, &a, 1));
            assert_eq!(mul_t(&b, &b, t), mul_t(&b, &b, 1));
        }
        let p = mul(&a, &b, 4);
        for r in 0..17 {
            for c in 0..11 {
                assert!((p.get(r, c) - naive.get(r, c)).abs() < 1e-12);
            }
        }
        // Transposed product against its definition (AᵀC needs matching
        // row counts).
        let c2 = Mat::from_fn(17, 11, |r, c| ((r + 3 * c) % 7) as f64 - 2.0);
        let tp = t_mul(&a, &c2, 3);
        for i in 0..5 {
            for j in 0..11 {
                let want: f64 = (0..17).map(|r| a.get(r, i) * c2.get(r, j)).sum();
                assert!((tp.get(i, j) - want).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn threaded_matvecs_are_bit_identical_to_serial() {
        // The small shape stays on one worker; the large one is past
        // `MIN_PAR_WORK`, so `matvec_t` takes its transposed branch.
        for (rows, cols) in [(23, 9), (211, 163)] {
            let m = Mat::from_fn(rows, cols, |r, c| 1.0 / ((r + 2 * c + 1) as f64));
            let x: Vec<f64> = (0..cols).map(|i| (i as f64).sin()).collect();
            let y: Vec<f64> = (0..rows).map(|i| (i as f64).cos()).collect();
            let (serial, serial_t) = (m.matvec(&x, 1), m.matvec_t(&y, 1));
            for t in [2usize, 4, 7] {
                assert_eq!(m.matvec(&x, t), serial);
                assert_eq!(m.matvec_t(&y, t), serial_t);
            }
        }
    }

    #[test]
    fn solve_recovers_known_solution() {
        // A = [[2,1],[1,3]], x = [1,-2] → b = [0,-5].
        let a = Mat::from_fn(2, 2, |r, c| [[2.0, 1.0], [1.0, 3.0]][r][c]);
        let x = solve(&a, &[0.0, -5.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] + 2.0).abs() < 1e-12);
    }

    #[test]
    fn solve_detects_singular() {
        let a = Mat::from_fn(2, 2, |r, _| if r == 0 { 1.0 } else { 2.0 });
        assert!(solve(&a, &[1.0, 2.0]).is_none());
    }

    #[test]
    fn solve_larger_system_roundtrips() {
        let a = Mat::from_fn(5, 5, |r, c| if r == c { 10.0 } else { ((r * 3 + c * 7) % 5) as f64 });
        let x_true: Vec<f64> = (0..5).map(|i| i as f64 - 2.0).collect();
        let b = a.matvec(&x_true, 1);
        let x = solve(&a, &b).unwrap();
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-9);
        }
    }
}
