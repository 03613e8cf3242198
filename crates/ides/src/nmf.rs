//! Non-negative matrix factorization by Lee–Seung multiplicative
//! updates.
//!
//! The second factorization IDES supports: `D ≈ W·H` with `W, H ≥ 0`,
//! minimising the Frobenius reconstruction error. Non-negativity is a
//! natural fit for delays (predictions can never go negative, unlike
//! SVD's).
//!
//! The update loop is built on the parallel products of [`linalg`]
//! ([`linalg::mul`], [`linalg::t_mul`], [`linalg::mul_t`]), so a fit is
//! bit-identical at every thread count.

use crate::linalg::{self, Mat};
use delayspace::rng;
use rand::Rng;

/// Result of an NMF run: `D ≈ W·H`, `W` is rows×k, `H` is k×cols.
#[derive(Clone, Debug)]
pub struct Nmf {
    /// Left factor (rows × k), non-negative.
    pub w: Mat,
    /// Right factor (k × cols), non-negative.
    pub h: Mat,
    /// Final Frobenius reconstruction error.
    pub residual: f64,
}

/// Runs `iters` multiplicative updates for a rank-`k` factorization
/// with up to `threads` workers ([`tivpar::resolve_threads`]
/// semantics). The O(n·m·k) products of every update run row-parallel;
/// the fit is a pure function of `(a, k, iters, seed)`, bit-identical at
/// every thread count.
///
/// # Panics
/// Panics if `a` contains negative entries or `k` is zero.
pub fn factorize(a: &Mat, k: usize, iters: usize, seed: u64, threads: usize) -> Nmf {
    assert!(k > 0, "rank must be positive");
    let (n, m) = (a.rows(), a.cols());
    for r in 0..n {
        assert!(a.row(r).iter().all(|&v| v >= 0.0), "NMF input must be non-negative");
    }
    let mut rng = rng::sub_rng(seed, "nmf");
    // Initialise with the scale of the data so the first updates are
    // well-conditioned.
    let mean = (0..n).flat_map(|r| a.row(r)).sum::<f64>() / (n * m) as f64;
    let scale = (mean / k as f64).max(1e-6).sqrt();
    let mut w = Mat::from_fn(n, k, |_, _| rng.gen_range(0.1..1.0) * scale);
    let mut h = Mat::from_fn(k, m, |_, _| rng.gen_range(0.1..1.0) * scale);

    const EPS: f64 = 1e-12;
    for _ in 0..iters {
        // H ← H ∘ (WᵀA) / (WᵀWH)
        let wt_a = linalg::t_mul(&w, a, threads); // k×m
        let wt_w = linalg::t_mul(&w, &w, threads); // k×k
        let wt_w_h = linalg::mul(&wt_w, &h, threads); // k×m
        for r in 0..k {
            for c in 0..m {
                let v = h.get(r, c) * wt_a.get(r, c) / (wt_w_h.get(r, c) + EPS);
                h.set(r, c, v);
            }
        }
        // W ← W ∘ (AHᵀ) / (WHHᵀ)
        let a_ht = linalg::mul_t(a, &h, threads); // n×k
        let h_ht = linalg::mul_t(&h, &h, threads); // k×k
        let w_h_ht = linalg::mul(&w, &h_ht, threads); // n×k
        for r in 0..n {
            for c in 0..k {
                let v = w.get(r, c) * a_ht.get(r, c) / (w_h_ht.get(r, c) + EPS);
                w.set(r, c, v);
            }
        }
    }

    // Per-row partial residuals folded in row order: deterministic in
    // the thread count (see `tivpar::par_sum_rows`).
    let resid = tivpar::par_sum_rows(n, threads, |r| {
        let mut row_sum = 0.0;
        for c in 0..m {
            let p: f64 = (0..k).map(|x| w.get(r, x) * h.get(x, c)).sum();
            row_sum += (a.get(r, c) - p).powi(2);
        }
        row_sum
    });
    Nmf { w, h, residual: resid.sqrt() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_stay_nonnegative() {
        let a = Mat::from_fn(8, 8, |r, c| ((r * 3 + c * 5) % 13) as f64);
        let nmf = factorize(&a, 3, 100, 1, 0);
        for r in 0..8 {
            assert!(nmf.w.row(r).iter().all(|&v| v >= 0.0));
        }
        for r in 0..3 {
            assert!(nmf.h.row(r).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn residual_decreases_with_iterations() {
        let a = Mat::from_fn(10, 10, |r, c| (r as f64 - c as f64).abs() * 4.0 + 2.0);
        let early = factorize(&a, 4, 5, 2, 0).residual;
        let late = factorize(&a, 4, 200, 2, 0).residual;
        assert!(late < early, "NMF did not converge: {late} !< {early}");
    }

    #[test]
    fn low_rank_nonnegative_matrix_fits_well() {
        // A = W0 H0 exactly, rank 2.
        let w0 = Mat::from_fn(6, 2, |r, c| ((r + c) % 3 + 1) as f64);
        let h0 = Mat::from_fn(2, 6, |r, c| ((2 * r + c) % 4 + 1) as f64);
        let a = Mat::from_fn(6, 6, |r, c| (0..2).map(|x| w0.get(r, x) * h0.get(x, c)).sum());
        let nmf = factorize(&a, 2, 500, 3, 0);
        let rel = nmf.residual / a.frobenius();
        assert!(rel < 0.05, "relative residual {rel} too high for exact rank-2 data");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_input_rejected() {
        let a = Mat::from_fn(2, 2, |r, c| if r == c { -1.0 } else { 1.0 });
        factorize(&a, 1, 10, 1, 0);
    }

    #[test]
    fn threaded_fit_is_bit_identical_to_serial() {
        let a = Mat::from_fn(24, 24, |r, c| ((r * 5 + c * 11) % 17) as f64 + 0.5);
        let serial = factorize(&a, 4, 40, 9, 1);
        for t in [2usize, 4, 7] {
            let par = factorize(&a, 4, 40, 9, t);
            assert_eq!(par.w, serial.w);
            assert_eq!(par.h, serial.h);
            assert_eq!(par.residual.to_bits(), serial.residual.to_bits());
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = Mat::from_fn(5, 5, |r, c| ((r + c) % 7) as f64);
        let x = factorize(&a, 2, 50, 7, 0);
        let y = factorize(&a, 2, 50, 7, 0);
        assert_eq!(x.residual, y.residual);
    }
}
