//! Truncated singular value decomposition by power iteration with
//! deflation.
//!
//! IDES factorises the delay matrix `D ≈ U·Σ·Vᵀ` and keeps the top `d`
//! singular triplets. Power iteration on `DᵀD` (implemented as repeated
//! `v ← normalize(Dᵀ(D·v))`) converges to the dominant right singular
//! vector; deflating `σ·u·vᵀ` and repeating extracts the next one.
//! O(d · iterations · n²), amply fast at our scales, and accurate enough
//! for a predictor whose input is itself noisy measurement data.

use crate::linalg::{norm, normalize, Mat};
use delayspace::rng::{self, DetRng};
use rand::Rng;

/// One singular triplet.
#[derive(Clone, Debug)]
pub struct SingularTriplet {
    /// Singular value (non-negative).
    pub sigma: f64,
    /// Left singular vector (length = rows).
    pub u: Vec<f64>,
    /// Right singular vector (length = cols).
    pub v: Vec<f64>,
}

/// Computes the top `k` singular triplets of `a` with up to `threads`
/// workers ([`tivpar::resolve_threads`] semantics).
///
/// `iters` power iterations per triplet (50 is plenty for the
/// well-separated spectra of delay matrices). Stops early when the
/// residual matrix is numerically zero. The O(n²) matrix–vector
/// products inside the power iteration run row-parallel and are
/// bit-identical at every thread count, so the decomposition does not
/// depend on it.
pub fn truncated_svd(
    a: &Mat,
    k: usize,
    iters: usize,
    seed: u64,
    threads: usize,
) -> Vec<SingularTriplet> {
    assert!(k > 0, "rank must be positive");
    let mut work = a.clone();
    let mut rng = rng::sub_rng(seed, "svd");
    let mut out = Vec::with_capacity(k);
    for _ in 0..k.min(a.rows().min(a.cols())) {
        let Some(t) = dominant_triplet(&work, iters, &mut rng, threads) else { break };
        work.deflate(t.sigma, &t.u, &t.v);
        out.push(t);
    }
    out
}

fn dominant_triplet(
    a: &Mat,
    iters: usize,
    rng: &mut DetRng,
    threads: usize,
) -> Option<SingularTriplet> {
    let cols = a.cols();
    let mut v: Vec<f64> = (0..cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
    if normalize(&mut v) == 0.0 {
        return None;
    }
    let mut sigma = 0.0;
    for _ in 0..iters {
        let av = a.matvec(&v, threads);
        let mut next = a.matvec_t(&av, threads);
        let n = normalize(&mut next);
        if n == 0.0 {
            return None; // residual is (numerically) zero
        }
        v = next;
        sigma = norm(&a.matvec(&v, threads));
    }
    if sigma < 1e-10 {
        return None;
    }
    let mut u = a.matvec(&v, threads);
    for x in u.iter_mut() {
        *x /= sigma;
    }
    Some(SingularTriplet { sigma, u, v })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn rank_one_matrix_is_recovered_exactly() {
        // A = 3 * u vᵀ with unit u, v.
        let u = [0.6, 0.8];
        let v = [1.0 / 2f64.sqrt(), -1.0 / 2f64.sqrt()];
        let a = Mat::from_fn(2, 2, |r, c| 3.0 * u[r] * v[c]);
        let svd = truncated_svd(&a, 2, 60, 1, 0);
        assert_eq!(svd.len(), 1, "rank-1 matrix must stop after one triplet");
        assert!(approx(svd[0].sigma, 3.0, 1e-8));
    }

    #[test]
    fn diagonal_matrix_singular_values() {
        let a = Mat::from_fn(3, 3, |r, c| if r == c { [5.0, 3.0, 1.0][r] } else { 0.0 });
        let svd = truncated_svd(&a, 3, 80, 2, 0);
        assert_eq!(svd.len(), 3);
        assert!(approx(svd[0].sigma, 5.0, 1e-6));
        assert!(approx(svd[1].sigma, 3.0, 1e-6));
        assert!(approx(svd[2].sigma, 1.0, 1e-6));
    }

    #[test]
    fn reconstruction_error_decreases_with_rank() {
        // A structured symmetric matrix.
        let a = Mat::from_fn(10, 10, |r, c| ((r as f64 - c as f64).abs() * 7.0) + (r + c) as f64);
        let err_at = |k: usize| {
            let svd = truncated_svd(&a, k, 60, 3, 0);
            let mut resid = a.clone();
            for t in &svd {
                resid.deflate(t.sigma, &t.u, &t.v);
            }
            resid.frobenius()
        };
        let e1 = err_at(1);
        let e3 = err_at(3);
        let e6 = err_at(6);
        assert!(e3 < e1, "rank 3 ({e3}) not better than rank 1 ({e1})");
        assert!(e6 < e3, "rank 6 ({e6}) not better than rank 3 ({e3})");
    }

    #[test]
    fn singular_vectors_are_unit_norm() {
        let a = Mat::from_fn(6, 6, |r, c| ((r * 13 + c * 7) % 11) as f64);
        for t in truncated_svd(&a, 4, 60, 4, 0) {
            assert!(approx(norm(&t.u), 1.0, 1e-8));
            assert!(approx(norm(&t.v), 1.0, 1e-8));
            assert!(t.sigma > 0.0);
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = Mat::from_fn(5, 5, |r, c| (r * 5 + c) as f64);
        let s1 = truncated_svd(&a, 2, 50, 9, 0);
        let s2 = truncated_svd(&a, 2, 50, 9, 0);
        assert_eq!(s1[0].u, s2[0].u);
        assert_eq!(s1[1].v, s2[1].v);
    }
}
