//! Ring-membership misplacement analysis (Figure 13).
//!
//! Quantifies how often TIVs put a node in the "wrong" ring: for a pair
//! `(Ni, Nj)` at delay `d_ij`, any node within `β·d_ij` of `Nj` ought —
//! if the triangle inequality held — to have a delay to `Ni` inside
//! `[(1−β)·d_ij, (1+β)·d_ij]`. Nodes violating that window would be
//! misfiled in `Ni`'s rings relative to `Nj`, and the true closest node
//! can then be skipped by the recursive query.

use delayspace::matrix::{DelayMatrix, NodeId};
use delayspace::rng;
use delayspace::stats::BinnedStats;

/// Misplacement fraction of one ordered pair.
#[derive(Clone, Copy, Debug)]
pub struct PairMisplacement {
    /// The reference node `Ni`.
    pub ni: NodeId,
    /// The probe node `Nj`.
    pub nj: NodeId,
    /// Measured delay `d_ij`.
    pub delay: f64,
    /// Nodes within `β·d_ij` of `Nj`.
    pub neighborhood: usize,
    /// Among those, nodes whose delay to `Ni` falls outside
    /// `[(1−β)·d_ij, (1+β)·d_ij]`.
    pub misplaced: usize,
}

impl PairMisplacement {
    /// Misplaced fraction in `[0, 1]`; `None` when the neighborhood is
    /// empty.
    pub fn fraction(&self) -> Option<f64> {
        (self.neighborhood > 0).then(|| self.misplaced as f64 / self.neighborhood as f64)
    }
}

/// Computes misplacement for one ordered pair `(ni, nj)`.
///
/// One pass over the two rows, branch-free: each node adds its
/// "inside the neighborhood" and "misplaced" bits to the counts, so the
/// cost does not depend on how the rows' delays fall. Unmeasured (NaN)
/// delays compare false: a node `Nj` has no delay to is outside the
/// neighborhood, and one `Ni` has no delay to is misplaced.
pub fn pair_misplacement(
    m: &DelayMatrix,
    ni: NodeId,
    nj: NodeId,
    beta: f64,
) -> Option<PairMisplacement> {
    let d = m.get(ni, nj)?;
    if d <= 0.0 {
        return None;
    }
    let (row_j, row_i) = (m.row(nj), m.row(ni));
    let window = (beta * d, (1.0 - beta) * d, (1.0 + beta) * d);
    // The pair's own endpoints are not candidates: count the row
    // segments around them.
    let (a, b) = (ni.min(nj), ni.max(nj));
    let mut counts = (0usize, 0usize);
    for span in [0..a, a + 1..b, b + 1..m.len()] {
        count_misplaced(&row_j[span.clone()], &row_i[span], window, &mut counts);
    }
    let (neighborhood, misplaced) = counts;
    Some(PairMisplacement { ni, nj, delay: d, neighborhood, misplaced })
}

/// Adds to `(neighborhood, misplaced)` the nodes of one row segment:
/// `x` is in the neighborhood when `d(Nj, x) ≤ reach`, and misplaced
/// when it is and `d(Ni, x)` lies outside `[lo, hi]`.
#[inline]
fn count_misplaced(
    row_j: &[f64],
    row_i: &[f64],
    (reach, lo, hi): (f64, f64, f64),
    (neighborhood, misplaced): &mut (usize, usize),
) {
    for (&djx, &dix) in row_j.iter().zip(row_i) {
        let near = djx <= reach;
        *neighborhood += usize::from(near);
        *misplaced += usize::from(near & !((dix >= lo) & (dix <= hi)));
    }
}

/// Figure 13: misplacement fraction versus pair delay, over a random
/// sample of `sample_pairs` ordered pairs (deterministic in `seed`),
/// binned into `bin_ms`-wide delay bins up to `max_ms`.
pub fn misplacement_by_delay(
    m: &DelayMatrix,
    beta: f64,
    sample_pairs: usize,
    seed: u64,
    bin_ms: f64,
    max_ms: f64,
) -> BinnedStats {
    let n = m.len();
    assert!(n >= 3, "need at least 3 nodes");
    let mut r = rng::sub_rng(seed, "misplace/sample");
    use rand::Rng;
    let mut points = Vec::with_capacity(sample_pairs);
    let mut attempts = 0usize;
    while points.len() < sample_pairs && attempts < sample_pairs * 20 {
        attempts += 1;
        let ni = r.gen_range(0..n);
        let nj = r.gen_range(0..n);
        if ni == nj {
            continue;
        }
        if let Some(pm) = pair_misplacement(m, ni, nj, beta) {
            if let Some(frac) = pm.fraction() {
                points.push((pm.delay, frac));
            }
        }
    }
    BinnedStats::build(points, bin_ms, max_ms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use delayspace::synth::{Dataset, InternetDelaySpace};

    #[test]
    fn metric_space_has_no_misplacement() {
        // On a line, the window always contains the neighborhood.
        let m = DelayMatrix::from_complete_fn(20, |i, j| 10.0 * i.abs_diff(j) as f64);
        for ni in 0..5 {
            for nj in 10..15 {
                let pm = pair_misplacement(&m, ni, nj, 0.5).unwrap();
                if pm.neighborhood > 0 {
                    assert_eq!(pm.misplaced, 0, "misplacement on a metric space");
                }
            }
        }
    }

    #[test]
    fn tiv_creates_misplacement() {
        // Figure 12 example: N (node 2) is 1 ms from T... here use the
        // A/B/N triangle: d(A,B)=4, d(B,N)=11, d(A,N)=25 violates TI.
        let mut m = DelayMatrix::new(3);
        m.set(0, 1, 4.0);
        m.set(1, 2, 11.0);
        m.set(0, 2, 25.0);
        // Pair (A=0, N=2): d=25, β=0.5 → neighborhood of N within 12.5:
        // {B}. Window for A: [12.5, 37.5]; d(A,B)=4 outside → misplaced.
        let pm = pair_misplacement(&m, 0, 2, 0.5).unwrap();
        assert_eq!(pm.neighborhood, 1);
        assert_eq!(pm.misplaced, 1);
        assert_eq!(pm.fraction(), Some(1.0));
    }

    #[test]
    fn fraction_none_for_empty_neighborhood() {
        let mut m = DelayMatrix::new(3);
        m.set(0, 1, 10.0);
        m.set(0, 2, 500.0);
        m.set(1, 2, 505.0);
        // Pair (2,0): β·d = 250; node 1 is 10 from node 0 → inside.
        // Pair (0,1): β·d = 5; node 2 is 505 from 1 → no neighborhood.
        let pm = pair_misplacement(&m, 0, 1, 0.5).unwrap();
        assert_eq!(pm.neighborhood, 0);
        assert_eq!(pm.fraction(), None);
    }

    #[test]
    fn larger_beta_tolerates_more() {
        let s = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(150).build(13);
        let m = s.matrix();
        let frac_at = |beta: f64| {
            let stats = misplacement_by_delay(m, beta, 400, 1, 50.0, 1000.0);
            let series = stats.median_series();
            delayspace::stats::mean(series.into_iter().map(|(_, y)| y))
        };
        let f01 = frac_at(0.1);
        let f09 = frac_at(0.9);
        assert!(f09 < f01, "beta=0.9 should misplace less than beta=0.1 ({f09} vs {f01})");
    }

    /// The loop `pair_misplacement` ran before it went branch-free: skip
    /// the endpoints, then branch on each comparison.
    fn pair_misplacement_reference(
        m: &DelayMatrix,
        ni: NodeId,
        nj: NodeId,
        beta: f64,
    ) -> Option<(usize, usize)> {
        let d = m.get(ni, nj)?;
        if d <= 0.0 {
            return None;
        }
        let (lo, hi) = ((1.0 - beta) * d, (1.0 + beta) * d);
        let (mut neighborhood, mut misplaced) = (0, 0);
        let (row_j, row_i) = (m.row(nj), m.row(ni));
        for x in 0..m.len() {
            if x == ni || x == nj {
                continue;
            }
            if row_j[x] <= beta * d {
                neighborhood += 1;
                let dix = row_i[x];
                if !(dix >= lo && dix <= hi) {
                    misplaced += 1;
                }
            }
        }
        Some((neighborhood, misplaced))
    }

    #[test]
    fn branch_free_counts_match_the_branchy_loop() {
        // A DS²-style space with every third pair unmeasured (NaN), so
        // both rows carry holes, plus a zero-delay edge that yields None.
        let s = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(90).build(21);
        let full = s.matrix();
        let mut m = DelayMatrix::new(full.len());
        for (i, j, d) in full.edges() {
            if (i * 7 + j) % 3 != 0 {
                m.set(i, j, d);
            }
        }
        m.set(4, 5, 0.0);
        let mut compared = 0;
        for beta in [0.1, 0.5, 0.9] {
            for ni in 0..m.len() {
                for nj in 0..m.len() {
                    let got = pair_misplacement(&m, ni, nj, beta)
                        .map(|pm| (pm.neighborhood, pm.misplaced));
                    let want = pair_misplacement_reference(&m, ni, nj, beta);
                    assert_eq!(got, want, "pair ({ni}, {nj}), beta {beta}");
                    compared += usize::from(want.is_some_and(|(_, x)| x > 0));
                }
            }
        }
        assert!(compared > 1000, "too few misplacing pairs to pin anything: {compared}");
    }

    #[test]
    fn sampling_is_deterministic() {
        let s = InternetDelaySpace::preset(Dataset::Ds2).with_nodes(80).build(3);
        let a = misplacement_by_delay(s.matrix(), 0.5, 200, 7, 100.0, 1000.0);
        let b = misplacement_by_delay(s.matrix(), 0.5, 200, 7, 100.0, 1000.0);
        assert_eq!(a.median_series(), b.median_series());
    }
}
