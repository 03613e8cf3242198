//! The witness sampler against the quadratic Floyd loop it replaced.
//!
//! `delayspace::rng::sample_indices` tracks membership in a stack bitset
//! for `n ≤ 4096`; above that it scans the draws while `k² ≤ n / 8` and
//! takes a heap bitset past it. Its own unit tests pin
//! the `Vec` it returns, order included, to the old linear-`contains`
//! loop. This suite pins the two kernels built on it to textbook loops
//! over that reference draw:
//!
//! * `estimate_severity`: the mean of `d(a,c)/alt` over violating
//!   witnesses, summed in draw order, times `(n − 2)/n`;
//! * `estimate_severity_ci`: the same point, plus the finite-population
//!   95 % interval from the sum of squares.
//!
//! The witness set is built without the kernels' index arithmetic: the
//! reference draw indexes the list of node ids other than `a` and `c`.
//! Every field is compared bit for bit: on a dense matrix with holes,
//! on a sparse store holding the same delays (so both storage layouts
//! answer from the same reference draw), and on a synthetic complete
//! store large enough to reach every membership path (`n − 2` on either
//! side of 4096; above it, k = 16 and 17 scan, k ≥ 64 take the heap
//! bitset).

use rand::Rng;
use tivoid::delayspace::rng::sub_rng;
use tivoid::delayspace::{DelayStore, SparseDelayStore};
use tivoid::prelude::*;
use tivoid::tivcore::severity::{estimate_severity, estimate_severity_ci};

/// SplitMix64 finaliser: a fixed hash for the synthetic delays.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A symmetric delay from a hash of the unordered pair: unmeasured
/// (NaN), zero, small integers (ties) or a uniform value.
fn delay(i: usize, j: usize) -> f64 {
    if i == j {
        return 0.0;
    }
    let h = mix((i.min(j) as u64) << 32 | i.max(j) as u64);
    match h % 8 {
        0 => f64::NAN,
        1 => 0.0,
        2..=3 => ((h >> 8) % 4) as f64 * 10.0,
        _ => (h >> 11) as f64 / (1u64 << 53) as f64 * 300.0,
    }
}

/// A store of any size that holds nothing: every delay is [`delay`].
struct HashStore(usize);

impl DelayStore for HashStore {
    fn len(&self) -> usize {
        self.0
    }

    fn get(&self, i: NodeId, j: NodeId) -> Option<f64> {
        let d = self.raw(i, j);
        (!d.is_nan()).then_some(d)
    }

    fn raw(&self, i: NodeId, j: NodeId) -> f64 {
        delay(i, j)
    }

    fn edge_count(&self) -> usize {
        (0..self.0).map(|i| (i + 1..self.0).filter(|&j| !delay(i, j).is_nan()).count()).sum()
    }

    fn memory_bytes(&self) -> usize {
        0
    }

    fn neighbors(&self, i: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        (0..self.0).filter(move |&j| j != i && !delay(i, j).is_nan()).map(move |j| (j, delay(i, j)))
    }
}

/// Floyd's loop with a linear `contains` for every draw.
fn floyd_reference(r: &mut impl Rng, n: usize, k: usize) -> Vec<usize> {
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

/// The witnesses of `(a, c)`, in draw order: the reference draw over the
/// node ids other than `a` and `c`.
fn witnesses(n: usize, a: NodeId, c: NodeId, k: usize, seed: u64) -> Vec<NodeId> {
    let pool: Vec<NodeId> = (0..n).filter(|&b| b != a && b != c).collect();
    let draw =
        floyd_reference(&mut sub_rng(seed, "severity/estimate"), pool.len(), k.min(pool.len()));
    draw.into_iter().map(|i| pool[i]).collect()
}

/// Every field of every kernel against the textbook loops, bit for bit.
fn check<S: DelayStore>(store: &S, a: NodeId, c: NodeId, k: usize, seed: u64) {
    let n = store.len();
    let at = format!("n = {n}, ({a}, {c}), k = {k}, seed = {seed}");

    let ws = witnesses(n, a, c, k, seed);
    let point = store.get(a, c).map(|dac| {
        let (mut sum, mut sum_sq) = (0.0, 0.0);
        for &b in &ws {
            let alt = store.raw(a, b) + store.raw(c, b);
            if alt < dac {
                sum += dac / alt;
                sum_sq += (dac / alt) * (dac / alt);
            }
        }
        let m = ws.len() as f64;
        let point = if ws.is_empty() { 0.0 } else { sum / m * (n - 2) as f64 / n as f64 };
        let half = if ws.len() >= 2 {
            let var = ((sum_sq - sum * sum / m) / (m - 1.0)).max(0.0);
            let big_n = (n - 2) as f64;
            let fpc = ((big_n - m) / (big_n - 1.0)).max(0.0);
            1.96 * (var / m * fpc).sqrt() * (big_n / n as f64)
        } else {
            0.0
        };
        (point, (point - half).max(0.0), point + half)
    });
    let got = estimate_severity(store, a, c, k, seed);
    assert_eq!(got.map(f64::to_bits), point.map(|p| p.0.to_bits()), "point: {at}");
    let got = estimate_severity_ci(store, a, c, k, seed);
    let got = got.map(|e| (e.point.to_bits(), e.ci_lo.to_bits(), e.ci_hi.to_bits(), e.sampled));
    let want = point.map(|(p, lo, hi)| (p.to_bits(), lo.to_bits(), hi.to_bits(), ws.len() as u32));
    assert_eq!(got, want, "ci: {at}");
}

/// Pairs in both orientations, at the ends of the id range and inside.
fn pairs(n: usize) -> Vec<(NodeId, NodeId)> {
    let mut out = vec![(0, n - 1), (n - 1, 0), (0, 1), (n - 2, n - 1)];
    out.extend((0..3u64).map(|i| {
        let h = mix(n as u64 * 31 + i);
        ((h % n as u64) as usize, ((h >> 32) % n as u64) as usize)
    }));
    out.retain(|&(a, c)| a != c);
    out
}

fn ks(n: usize) -> Vec<usize> {
    vec![0, 1, 16, 17, 64, n.saturating_sub(3), n - 2, n]
}

#[test]
fn dense_kernels_match_the_reference_draw() {
    for n in [2, 3, 4, 5, 33, 66, 67] {
        let m = DelayMatrix::from_fn(n, |i, j| Some(delay(i, j)).filter(|d| !d.is_nan()));
        let sparse = SparseDelayStore::from_matrix(&m);
        for (a, c) in pairs(n) {
            for k in ks(n) {
                for seed in 0..10 {
                    check(&m, a, c, k, seed);
                    check(&sparse, a, c, k, seed);
                }
            }
        }
    }
}

#[test]
fn large_store_kernels_match_the_reference_draw_on_both_paths() {
    // n − 2 = 1022, 4096 (the last stack-bitset size) and 4097 (a scan
    // for small k, a heap bitset for large).
    for n in [1024, 4098, 4099] {
        let store = HashStore(n);
        for (a, c) in pairs(n) {
            for k in ks(n) {
                for seed in 0..3 {
                    check(&store, a, c, k, seed);
                }
            }
        }
    }
    // A long scan; the quadratic reference keeps k small here.
    let store = HashStore(10_000);
    for (a, c) in pairs(10_000) {
        for k in [0, 1, 16, 17, 64, 1000] {
            check(&store, a, c, k, 0);
        }
    }
}
