//! Deterministic random-number helpers.
//!
//! Everything in this workspace is seeded: the same seed produces the
//! same delay space, embedding run, and experiment result on every
//! platform. `StdRng` does not guarantee cross-version stream stability,
//! so all code paths use [`rand_chacha::ChaCha8Rng`] explicitly.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The deterministic RNG used throughout the workspace.
pub type DetRng = ChaCha8Rng;

/// Creates a deterministic RNG from a 64-bit seed.
pub fn rng(seed: u64) -> DetRng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Derives a sub-RNG for a named component, so that independent modules
/// consuming randomness from the same experiment seed do not perturb
/// each other's streams when call orders change.
///
/// The label is folded into the seed with FNV-1a, which is adequate for
/// decorrelating a handful of component streams.
#[inline]
pub fn sub_rng(seed: u64, label: &str) -> DetRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    rng(seed ^ h)
}

/// Samples from a log-normal distribution parameterised by the median
/// and the multiplicative spread `sigma` (standard deviation of the
/// underlying normal in log space).
pub fn lognormal(r: &mut impl Rng, median: f64, sigma: f64) -> f64 {
    let z: f64 = sample_standard_normal(r);
    median * (sigma * z).exp()
}

/// Samples a standard normal via Box–Muller (two uniforms, one output;
/// simple and allocation-free, precision is irrelevant at our scale).
pub fn sample_standard_normal(r: &mut impl Rng) -> f64 {
    let u1: f64 = r.gen_range(f64::EPSILON..1.0);
    let u2: f64 = r.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Samples from a Pareto distribution with scale 1 and tail index
/// `alpha`, truncated at `cap` (values above the cap are clamped).
/// Returns a value in `[1, cap]`.
pub fn pareto(r: &mut impl Rng, alpha: f64, cap: f64) -> f64 {
    let u: f64 = r.gen_range(f64::EPSILON..1.0);
    (u.powf(-1.0 / alpha)).min(cap)
}

/// Chooses `k` distinct items uniformly from `0..n` (Floyd's algorithm,
/// Bentley & Floyd 1987). Panics if `k > n`.
///
/// The order is a contract: entry `i` is draw `i` of Floyd's loop. The
/// sampled estimators sum their witnesses in this order, so their bits,
/// and the wire bytes that carry them, depend on it. Membership is an
/// O(1) bitset test: a stack bitset for `n ≤ 4096`, and above that a
/// heap bitset of `n` bits once `k² > n / 8`. A smaller `k` over a
/// larger space instead scans the draws so far (at most about `n / 16`
/// compares), so a million-node estimator at `k = 16` allocates
/// nothing of size `n`. Every path makes the same decisions.
pub fn sample_indices(r: &mut impl Rng, n: usize, k: usize) -> Vec<usize> {
    assert!(k <= n, "cannot sample {k} of {n}");
    if n <= 4096 {
        floyd(r, n, k, &mut [0u64; 64])
    } else if scans_draws(n, k) {
        let mut chosen = Vec::with_capacity(k);
        for j in (n - k)..n {
            let t = r.gen_range(0..=j);
            chosen.push(if chosen.contains(&t) { j } else { t });
        }
        chosen
    } else {
        floyd(r, n, k, &mut vec![0u64; n.div_ceil(64)])
    }
}

/// Whether [`sample_indices`] scans its draws instead of allocating a
/// bitset, for `n > 4096`: while the scan's ~k²/2 compares cost less
/// than zeroing `n / 64` words, about while `k² ≤ n / 8`.
fn scans_draws(n: usize, k: usize) -> bool {
    k.saturating_mul(k) <= n / 8
}

/// Floyd's loop with membership in `seen`, a zeroed bitset of at least
/// `n` bits.
#[inline]
fn floyd(r: &mut impl Rng, n: usize, k: usize, seen: &mut [u64]) -> Vec<usize> {
    let mut chosen = Vec::with_capacity(k);
    for j in (n - k)..n {
        let t = r.gen_range(0..=j);
        // Every earlier draw is below j, so j itself is never taken.
        let pick = if seen[t / 64] >> (t % 64) & 1 == 1 { j } else { t };
        seen[pick / 64] |= 1 << (pick % 64);
        chosen.push(pick);
    }
    chosen
}

/// Draws `min(k, n − 2)` witnesses for the pair `(a, c)` of an `n`-node
/// space, in draw order: [`sample_indices`] over `0..n − 2`, each index
/// shifted past `a` and `c`. The sampled severity estimators draw here,
/// from the `"severity/estimate"` stream.
pub fn sample_witnesses(
    r: &mut impl Rng,
    n: usize,
    a: usize,
    c: usize,
    k: usize,
) -> impl ExactSizeIterator<Item = usize> {
    let m = n.saturating_sub(2);
    let (lo, hi) = (a.min(c), a.max(c));
    sample_indices(r, m, k.min(m)).into_iter().map(move |b| {
        let b = b + usize::from(b >= lo);
        b + usize::from(b >= hi)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = rng(7);
        let mut b = rng(7);
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn sub_rng_streams_differ_by_label() {
        let mut a = sub_rng(7, "alpha");
        let mut b = sub_rng(7, "beta");
        let va: u64 = a.gen();
        let vb: u64 = b.gen();
        assert_ne!(va, vb);
    }

    #[test]
    fn pareto_respects_bounds() {
        let mut r = rng(1);
        for _ in 0..1000 {
            let v = pareto(&mut r, 1.5, 4.0);
            assert!((1.0..=4.0).contains(&v), "pareto out of range: {v}");
        }
    }

    #[test]
    fn pareto_has_heavy_tail() {
        let mut r = rng(2);
        let n = 20_000;
        let big = (0..n).filter(|_| pareto(&mut r, 1.0, 100.0) > 10.0).count();
        // P(X > 10) = 0.1 for alpha=1.
        let frac = big as f64 / n as f64;
        assert!((0.07..0.13).contains(&frac), "tail fraction {frac}");
    }

    #[test]
    fn lognormal_median_is_calibrated() {
        let mut r = rng(3);
        let mut v: Vec<f64> = (0..10_001).map(|_| lognormal(&mut r, 5.0, 0.5)).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = v[v.len() / 2];
        assert!((4.0..6.0).contains(&med), "median {med}");
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut r = rng(4);
        for _ in 0..100 {
            let s = sample_indices(&mut r, 50, 10);
            assert_eq!(s.len(), 10);
            let mut uniq = s.clone();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), 10);
            assert!(s.iter().all(|&i| i < 50));
        }
    }

    #[test]
    fn sample_indices_full_range() {
        let mut r = rng(5);
        let mut s = sample_indices(&mut r, 8, 8);
        s.sort_unstable();
        assert_eq!(s, (0..8).collect::<Vec<_>>());
    }

    /// Floyd's loop as it stood before the bitset: a linear `contains`
    /// for every draw. The reference [`sample_indices`] must match.
    fn sample_indices_reference(r: &mut impl Rng, n: usize, k: usize) -> Vec<usize> {
        let mut chosen = Vec::with_capacity(k);
        for j in (n - k)..n {
            let t = r.gen_range(0..=j);
            if chosen.contains(&t) {
                chosen.push(j);
            } else {
                chosen.push(t);
            }
        }
        chosen
    }

    #[test]
    fn sample_indices_matches_quadratic_reference() {
        for n in [0usize, 1, 2, 3, 64, 65, 1022, 4095, 4096, 4097, 10_000] {
            let mut ks = vec![0, 1, 16, 17, 64, n.saturating_sub(1), n];
            ks.retain(|&k| k <= n);
            ks.dedup();
            for k in ks {
                for seed in 0..50 {
                    let got = sample_indices(&mut rng(seed), n, k);
                    let want = sample_indices_reference(&mut rng(seed), n, k);
                    assert_eq!(got, want, "n = {n}, k = {k}, seed = {seed}");
                }
            }
        }
        // Above 4096, on both sides of the scan/bitset cut-off: the last
        // k that scans, the first that allocates, and k far either side.
        for n in [4097usize, 10_000, 50_000] {
            let cut = (1..n).take_while(|&k| scans_draws(n, k)).last().unwrap();
            assert!(!scans_draws(n, cut + 1));
            for k in [16, 64, cut, cut + 1, 5_000].into_iter().filter(|&k| k <= n) {
                for seed in 0..8 {
                    let got = sample_indices(&mut rng(seed), n, k);
                    let want = sample_indices_reference(&mut rng(seed), n, k);
                    assert_eq!(got, want, "n = {n}, k = {k}, seed = {seed}");
                }
            }
        }
    }

    #[test]
    fn sample_witnesses_skips_the_pair_in_draw_order() {
        for (n, a, c) in [
            (2usize, 0, 1),
            (3, 2, 0),
            (10, 3, 7),
            (10, 7, 3),
            (10, 4, 4),
            (500, 0, 499),
            (5_000, 4_321, 17),
        ] {
            // k = n − 2 draws every witness: above 4096 that is the heap
            // bitset, O(n) for the pair rather than O(n²).
            for k in [0, 1, 5, n.saturating_sub(2), n] {
                let got: Vec<usize> = sample_witnesses(&mut rng(9), n, a, c, k).collect();
                let m = n.saturating_sub(2);
                let (lo, hi) = (a.min(c), a.max(c));
                let want: Vec<usize> = sample_indices_reference(&mut rng(9), m, k.min(m))
                    .into_iter()
                    .map(|i| {
                        let b = if i >= lo { i + 1 } else { i };
                        if b >= hi {
                            b + 1
                        } else {
                            b
                        }
                    })
                    .collect();
                assert_eq!(got, want, "n = {n}, a = {a}, c = {c}, k = {k}");
                if a != c {
                    assert!(got.iter().all(|&b| b != a && b != c && b < n));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn sample_indices_rejects_oversample() {
        let mut r = rng(6);
        sample_indices(&mut r, 3, 4);
    }
}
