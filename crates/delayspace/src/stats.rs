//! Statistics toolkit: empirical CDFs, percentiles, and binned error-bar
//! series.
//!
//! Every figure in the paper is either a CDF (Figures 2, 9, 14–18,
//! 22–25), a binned percentile series with 10th/median/90th error bars
//! (Figures 4–8, 11, 13, 19), or a threshold sweep (Figures 20–21). This
//! module provides those three shapes.

use serde::{Deserialize, Serialize};

/// An empirical cumulative distribution function over f64 samples.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples; non-finite samples are dropped.
    ///
    /// The sort is unstable, so it needs no scratch copy of the samples;
    /// the result is the stable sort's, because two floats `total_cmp`
    /// ranks equal have the same bits.
    pub fn from_samples(samples: impl IntoIterator<Item = f64>) -> Self {
        let mut sorted: Vec<f64> = samples.into_iter().filter(|v| v.is_finite()).collect();
        sorted.sort_unstable_by(f64::total_cmp);
        Cdf { sorted }
    }

    /// The 10/50/90 summary of the retained samples; `None` when there
    /// are none. Equal to [`Percentiles::of`] over the same samples,
    /// without copying them.
    pub fn percentiles(&self) -> Option<Percentiles> {
        if self.sorted.is_empty() {
            return None;
        }
        Some(Percentiles {
            p10: self.quantile(0.10),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            count: self.len(),
        })
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when no samples were retained.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// P(X <= x), in [0, 1]. Returns 0 for an empty CDF.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The q-quantile (q in \[0,1\]) by the nearest-rank method.
    ///
    /// # Panics
    /// Panics on an empty CDF or q outside \[0,1\].
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of empty CDF");
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0,1]");
        let idx = ((q * self.sorted.len() as f64).ceil() as usize)
            .saturating_sub(1)
            .min(self.sorted.len() - 1);
        self.sorted[idx]
    }

    /// Median, via [`Cdf::quantile`].
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Arithmetic mean of the samples.
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Smallest and largest sample.
    pub fn range(&self) -> Option<(f64, f64)> {
        Some((*self.sorted.first()?, *self.sorted.last()?))
    }

    /// Downsamples the CDF to at most `k` evenly spaced `(x, F(x))`
    /// points for rendering. Always includes the extremes.
    pub fn points(&self, k: usize) -> Vec<(f64, f64)> {
        let n = self.sorted.len();
        if n == 0 || k == 0 {
            return Vec::new();
        }
        let k = k.min(n);
        let mut out = Vec::with_capacity(k);
        for step in 0..k {
            let idx = if k == 1 { n - 1 } else { step * (n - 1) / (k - 1) };
            out.push((self.sorted[idx], (idx + 1) as f64 / n as f64));
        }
        out.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);
        out
    }

    /// Read-only view of the sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }
}

/// Convenience percentile summary of a sample set.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Percentiles {
    /// 10th percentile.
    pub p10: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Sample count.
    pub count: usize,
}

impl Percentiles {
    /// Computes the 10/50/90 summary; returns `None` for empty input.
    pub fn of(samples: impl IntoIterator<Item = f64>) -> Option<Self> {
        Cdf::from_samples(samples).percentiles()
    }
}

/// One bin of a binned percentile series.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Bin {
    /// Inclusive lower edge of the bin (x-axis units).
    pub lo: f64,
    /// Exclusive upper edge of the bin.
    pub hi: f64,
    /// 10th/50th/90th percentile of the y-values in this bin, or `None`
    /// when the bin is empty.
    pub stats: Option<Percentiles>,
}

impl Bin {
    /// Midpoint of the bin, the conventional x-coordinate when plotting.
    pub fn mid(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }
}

/// A series of equal-width bins with per-bin 10/50/90 summaries — the
/// error-bar plots of Figures 4–8, 11, 13 and 19.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BinnedStats {
    /// Width of each bin in x-axis units.
    pub width: f64,
    /// The bins, in increasing x order starting at x = 0.
    pub bins: Vec<Bin>,
}

impl BinnedStats {
    /// Bins `(x, y)` points into equal-width bins of `width` starting at
    /// zero, covering up to `max_x` (points beyond are dropped), and
    /// summarises each bin by its 10/50/90 percentiles.
    ///
    /// # Panics
    /// Panics if `width` is not strictly positive.
    pub fn build(points: impl IntoIterator<Item = (f64, f64)>, width: f64, max_x: f64) -> Self {
        assert!(width > 0.0, "bin width must be positive");
        let nbins = (max_x / width).ceil() as usize;
        let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); nbins];
        for (x, y) in points {
            if !x.is_finite() || !y.is_finite() || x < 0.0 {
                continue;
            }
            let idx = (x / width) as usize;
            if idx < nbins {
                buckets[idx].push(y);
            }
        }
        let bins = buckets
            .into_iter()
            .enumerate()
            .map(|(i, ys)| Bin {
                lo: i as f64 * width,
                hi: (i + 1) as f64 * width,
                stats: Percentiles::of(ys),
            })
            .collect();
        BinnedStats { width, bins }
    }

    /// `(bin midpoint, median)` for every non-empty bin.
    pub fn median_series(&self) -> Vec<(f64, f64)> {
        self.bins.iter().filter_map(|b| b.stats.map(|s| (b.mid(), s.p50))).collect()
    }

    /// The non-empty bin whose median y-value is largest.
    pub fn peak(&self) -> Option<&Bin> {
        self.bins.iter().filter(|b| b.stats.is_some()).max_by(|a, b| {
            let ay = a.stats.unwrap().p50;
            let by = b.stats.unwrap().p50;
            ay.total_cmp(&by)
        })
    }
}

/// Mean of an iterator of f64 (NaN for empty input).
pub fn mean(it: impl IntoIterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in it {
        sum += v;
        n += 1;
    }
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn cdf_eval_matches_definition() {
        let cdf = Cdf::from_samples([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(cdf.eval(0.5), 0.0);
        assert_eq!(cdf.eval(1.0), 0.25);
        assert_eq!(cdf.eval(2.5), 0.5);
        assert_eq!(cdf.eval(10.0), 1.0);
    }

    #[test]
    fn cdf_drops_non_finite() {
        let cdf = Cdf::from_samples([1.0, f64::NAN, f64::INFINITY, 2.0]);
        assert_eq!(cdf.len(), 2);
    }

    #[test]
    fn quantiles_nearest_rank() {
        let cdf = Cdf::from_samples((1..=100).map(|i| i as f64));
        assert_eq!(cdf.quantile(0.10), 10.0);
        assert_eq!(cdf.quantile(0.50), 50.0);
        assert_eq!(cdf.quantile(0.90), 90.0);
        assert_eq!(cdf.quantile(1.0), 100.0);
        assert_eq!(cdf.quantile(0.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "empty CDF")]
    fn quantile_of_empty_panics() {
        Cdf::from_samples(std::iter::empty()).quantile(0.5);
    }

    #[test]
    fn cdf_points_are_monotone() {
        let cdf = Cdf::from_samples((0..1000).map(|i| (i as f64).sqrt()));
        let pts = cdf.points(50);
        assert!(pts.len() > 2);
        for w in pts.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 >= w[0].1);
        }
        assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unstable_sort_keeps_the_stable_sorts_bits() {
        // The stable sort `from_samples` replaced, on duplicates, both
        // zeros and non-finite values; and the summary read off the
        // sorted samples against one built from a copy of them.
        let mut r = crate::rng::rng(3);
        let pool = [0.0, -0.0, 1.5, 1.5, -2.0, 7.25, f64::NAN, f64::INFINITY, 3.0];
        for len in [0, 1, 2, 17, 500, 5_000] {
            let samples: Vec<f64> = (0..len)
                .map(|_| if r.gen_bool(0.5) { pool[r.gen_range(0..pool.len())] } else { r.gen() })
                .collect();
            let mut want: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
            want.sort_by(f64::total_cmp);
            let cdf = Cdf::from_samples(samples.clone());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(cdf.samples()), bits(&want), "len {len}");
            assert_eq!(cdf.percentiles(), Percentiles::of(cdf.samples().iter().copied()));
        }
    }

    #[test]
    fn percentiles_of_empty_is_none() {
        assert!(Percentiles::of(std::iter::empty()).is_none());
    }

    #[test]
    fn binned_stats_assigns_bins() {
        let pts = vec![(5.0, 1.0), (5.0, 3.0), (15.0, 10.0), (999.0, 0.0)];
        let b = BinnedStats::build(pts, 10.0, 30.0);
        assert_eq!(b.bins.len(), 3);
        let s0 = b.bins[0].stats.unwrap();
        assert_eq!(s0.count, 2);
        assert_eq!(s0.p50, 1.0); // nearest-rank median of {1,3} is 1
        assert!(b.bins[2].stats.is_none());
        // Point at x=999 dropped (beyond max_x).
        let total: usize = b.bins.iter().filter_map(|b| b.stats.map(|s| s.count)).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn binned_stats_median_series_skips_empty() {
        let b = BinnedStats::build(vec![(25.0, 2.0)], 10.0, 40.0);
        let series = b.median_series();
        assert_eq!(series, vec![(25.0, 2.0)]);
    }

    #[test]
    fn peak_finds_largest_median_bin() {
        let pts = vec![(5.0, 1.0), (15.0, 9.0), (25.0, 4.0)];
        let b = BinnedStats::build(pts, 10.0, 30.0);
        let peak = b.peak().unwrap();
        assert_eq!(peak.lo, 10.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_bins_panic() {
        BinnedStats::build(std::iter::empty(), 0.0, 10.0);
    }

    #[test]
    fn mean_handles_empty() {
        assert!(mean(std::iter::empty()).is_nan());
        assert_eq!(mean([2.0, 4.0]), 3.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn cdf_eval_is_monotone_in_x(vals in proptest::collection::vec(-1e9f64..1e9, 1..300),
                                     xs in proptest::collection::vec(-1e9f64..1e9, 2..10)) {
            let cdf = Cdf::from_samples(vals);
            let mut xs = xs;
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for w in xs.windows(2) {
                prop_assert!(cdf.eval(w[0]) <= cdf.eval(w[1]));
            }
        }

        #[test]
        fn quantile_is_a_sample(vals in proptest::collection::vec(-1e6f64..1e6, 1..200),
                                q in 0.0f64..1.0) {
            let cdf = Cdf::from_samples(vals.clone());
            let v = cdf.quantile(q);
            prop_assert!(vals.contains(&v), "quantile {v} not a sample");
        }

        #[test]
        fn eval_of_quantile_at_least_q(vals in proptest::collection::vec(-1e6f64..1e6, 1..200),
                                       q in 0.01f64..1.0) {
            let cdf = Cdf::from_samples(vals);
            prop_assert!(cdf.eval(cdf.quantile(q)) + 1e-12 >= q);
        }

        #[test]
        fn binned_stats_never_lose_in_range_points(
            pts in proptest::collection::vec((0.0f64..100.0, -50.0f64..50.0), 0..200)
        ) {
            let b = BinnedStats::build(pts.clone(), 10.0, 100.0);
            let binned: usize = b.bins.iter().filter_map(|b| b.stats.map(|s| s.count)).sum();
            prop_assert_eq!(binned, pts.len());
        }

        #[test]
        fn percentile_ordering(vals in proptest::collection::vec(-1e6f64..1e6, 1..300)) {
            if let Some(p) = Percentiles::of(vals) {
                prop_assert!(p.p10 <= p.p50);
                prop_assert!(p.p50 <= p.p90);
            }
        }
    }
}
