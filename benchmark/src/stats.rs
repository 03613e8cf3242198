//! The estimator: percentiles within a slice, the best quartile across
//! slices.
//!
//! A closed-loop metric is the **best quartile across slices** of a
//! per-slice statistic (a slice is a second of the workload's loop, and
//! consecutive slices run on different CPUs, see `affinity`): the first
//! quartile of the per-slice p50s, the third of the per-slice rates.
//! This box's vCPUs drop into slower states for seconds to minutes, each
//! on its own; a slow state only ever adds time, so the slices it hit
//! sit in the worse half of the run and the better quartile reads the
//! others. Against the median across seven longer slices on one CPU it
//! cut the run-to-run spread of `wire_bulk` from 8 % to 3 % (eleven runs
//! each, interleaved; the minimum and the first decile, which chase the
//! rare fastest state, and the mean did no better). What has no slices
//! — suite passes, freshness samples, set-ups — is reported as a median.
//! The percentile rule is the repo's own
//! ([`tivserve::loadgen::percentile`], nearest rank) — the benchmark
//! must not disagree with `repro serve`/`repro gate` about what "p50"
//! means.

use tivserve::loadgen::percentile;

/// Sorts a sample ascending (NaN-safe total order).
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// The median of an unsorted sample; 0 for an empty one. Even-sized
/// samples average the two middle values (a two-slice smoke run should
/// not pick the slower slice by construction).
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The `p`-quantile (`0.0..=1.0`) of an unsorted sample, by the
/// repo-wide nearest-rank rule.
pub fn quantile(xs: &[f64], p: f64) -> f64 {
    percentile(&sorted(xs.to_vec()), p)
}

/// The highest percentile a sample supports: the one with at least ten
/// samples beyond it (the `choosing-metrics` rule), as a quantile in
/// `0.5..=0.999`.
pub fn supported_tail(samples: usize) -> f64 {
    if samples < 20 {
        return 0.5;
    }
    (1.0 - 10.0 / samples as f64).min(0.999)
}

/// Median across slices of one per-slice statistic.
pub fn slice_median<S>(slices: &[S], stat: impl Fn(&S) -> f64) -> f64 {
    median(&slices.iter().map(stat).collect::<Vec<_>>())
}

/// The better quartile across slices of one per-slice statistic: the
/// first quartile of a time, the third of a rate (linear interpolation
/// between the two nearest slices; 0 without slices).
pub fn best_quartile<S>(slices: &[S], stat: impl Fn(&S) -> f64, lower_is_better: bool) -> f64 {
    let s = sorted(slices.iter().map(stat).collect());
    if s.is_empty() {
        return 0.0;
    }
    let at = (s.len() - 1) as f64 * if lower_is_better { 0.25 } else { 0.75 };
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (at - lo as f64)
}

/// How much worse `b` is than `a` as a share of `a`, signed so that a
/// positive value is a worsening in the metric's own direction.
pub fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    if lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quantile_is_nearest_rank_on_the_sorted_sample() {
        let xs: Vec<f64> = (1..=101).rev().map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 0.5), 51.0);
        assert_eq!(quantile(&xs, 0.99), 100.0);
        assert_eq!(quantile(&xs, 1.0), 101.0);
    }

    #[test]
    fn slice_median_ignores_one_stalled_slice() {
        // Six quiet slices and one that hit a 100x stall: the reported
        // value is a quiet one.
        let slices = [70.0, 72.0, 71.0, 7000.0, 69.0, 73.0, 70.5];
        assert_eq!(slice_median(&slices, |&s| s), 71.0);
    }

    #[test]
    fn best_quartile_reads_past_the_slices_a_slow_cpu_spoiled() {
        // Slices alternate between a CPU in its usual state and one that
        // runs half as fast: a time reads a usual slice, and so does a rate.
        let times: Vec<f64> = (0..20).map(|i| if i % 2 == 0 { 70.0 } else { 105.0 }).collect();
        assert_eq!(best_quartile(&times, |&t| t, true), 70.0);
        let rates: Vec<f64> = times.iter().map(|t| 1e6 / t).collect();
        assert_eq!(best_quartile(&rates, |&r| r, false), 1e6 / 70.0);
        // The median of the same run sits between the two states.
        assert_eq!(slice_median(&times, |&t| t), 87.5);
        // Interpolated between slices; one slice is its own quartile; none is 0.
        assert_eq!(best_quartile(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], |&t| t, true), 2.25);
        assert_eq!(best_quartile(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], |&t| t, false), 4.75);
        assert_eq!(best_quartile(&[7.0], |&t| t, true), 7.0);
        assert_eq!(best_quartile(&[] as &[f64], |&t| t, true), 0.0);
    }

    #[test]
    fn supported_tail_keeps_ten_samples_beyond_it() {
        assert_eq!(supported_tail(5), 0.5);
        assert!((supported_tail(1_000) - 0.99).abs() < 1e-12);
        assert_eq!(supported_tail(10_000_000), 0.999);
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((worsening(100.0, 110.0, true) - 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, false) + 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, false) - 0.1).abs() < 1e-12);
    }
}
