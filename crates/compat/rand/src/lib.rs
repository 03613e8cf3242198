//! Offline stand-in for the subset of the `rand` 0.8 API this workspace
//! uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors a minimal, dependency-free implementation of the traits and
//! methods the code actually calls: [`RngCore`], [`SeedableRng`]
//! (including the SplitMix64-based [`SeedableRng::seed_from_u64`]),
//! [`Rng::gen`], [`Rng::gen_range`] over integer and float ranges,
//! [`Rng::gen_bool`], and [`seq::SliceRandom`] (Fisher–Yates shuffle and
//! `choose`). The concrete generator lives in the sibling `rand_chacha`
//! stub.
//!
//! Sampling quality matters here — the workspace's statistical tests
//! assert distributional properties — so integer ranges use rejection
//! sampling (no modulo bias) and floats use the standard 53-bit
//! mantissa construction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

pub mod seq;

/// The core of a random number generator: a source of uniform bits.
pub trait RngCore {
    /// Returns the next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32;
    /// Returns the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with uniformly random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// A generator that can be instantiated from a fixed seed.
pub trait SeedableRng: Sized {
    /// The raw seed type (a byte array).
    type Seed: Sized + Default + AsMut<[u8]>;

    /// Creates a generator from a full-width seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Creates a generator from a 64-bit seed, expanding it to the full
    /// seed width with SplitMix64 so that nearby seeds yield unrelated
    /// states.
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut s = state;
        for chunk in seed.as_mut().chunks_mut(8) {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            for (out, b) in chunk.iter_mut().zip(z.to_le_bytes()) {
                *out = b;
            }
        }
        Self::from_seed(seed)
    }
}

/// Types that can be sampled uniformly from an RNG's raw bit stream
/// (the stand-in for `rand`'s `Standard` distribution).
pub trait StandardSample: Sized {
    /// Draws one uniform value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl StandardSample for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl StandardSample for usize {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl StandardSample for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32() & 1 == 1
    }
}

impl StandardSample for f64 {
    /// Uniform in `[0, 1)` with the full 53-bit mantissa resolution.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    /// Uniform in `[0, 1)` with 24-bit resolution.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Uniformly samples from `0..span` without modulo bias (rejection
/// sampling on the top of the 64-bit range).
pub(crate) fn uniform_u64<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    if span.is_power_of_two() {
        return rng.next_u64() & (span - 1);
    }
    // Accept v only below the largest multiple of `span` that fits in
    // 2^64, so every residue is equally likely. That bound `zone` is
    // 2^64 − 1 − (2^64 mod span) ≥ 2^64 − span, so a first draw at or
    // below u64::MAX − span is accepted without computing it: the same
    // draws and the same results, one division instead of three.
    let v = rng.next_u64();
    if v <= u64::MAX - span {
        return v % span;
    }
    let rem = (u64::MAX % span).wrapping_add(1) % span;
    let zone = u64::MAX - rem;
    let mut v = v;
    while v > zone {
        v = rng.next_u64();
    }
    v % span
}

/// Ranges a value of type `T` can be drawn from (the stand-in for
/// `rand`'s `SampleRange`).
pub trait SampleRange<T>: Sized {
    /// Draws one value uniformly from the range. Panics on an empty
    /// range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                let off = uniform_u64(rng, span);
                (self.start as i128 + off as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                let off = uniform_u64(rng, span + 1);
                (lo as i128 + off as i128) as $t
            }
        }
    )*};
}

int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let u = <$t as StandardSample>::sample(rng);
                let v = self.start + u * (self.end - self.start);
                // Guard the (rounding-only) case v == end.
                if v < self.end { v } else { self.start }
            }
        }
    )*};
}

float_sample_range!(f32, f64);

/// Convenience extension methods over any [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a uniform value of type `T`; floats land in `[0, 1)`.
    fn gen<T: StandardSample>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Draws a uniform value from `range` (half-open or inclusive).
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T
    where
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`. Panics unless `0 ≤ p ≤ 1`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "p={p} not a probability");
        <f64 as StandardSample>::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fixed-increment LCG, good enough to exercise the adapters.
    struct TestRng(u64);

    impl RngCore for TestRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                let v = self.next_u64().to_le_bytes();
                let n = chunk.len();
                chunk.copy_from_slice(&v[..n]);
            }
        }
    }

    /// Replays a fixed list of draws, then panics: a test that runs off
    /// the end asked for a draw the script did not expect.
    struct Script(Vec<u64>, usize);

    impl RngCore for Script {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.1 += 1;
            self.0[self.1 - 1]
        }
        fn fill_bytes(&mut self, _: &mut [u8]) {
            unimplemented!("not scripted")
        }
    }

    /// The bounded draw as written before the fast path: compute the
    /// rejection zone, then loop.
    fn uniform_u64_reference<R: RngCore>(rng: &mut R, span: u64) -> u64 {
        if span.is_power_of_two() {
            return rng.next_u64() & (span - 1);
        }
        let rem = (u64::MAX % span).wrapping_add(1) % span;
        let zone = u64::MAX - rem;
        loop {
            let v = rng.next_u64();
            if v <= zone {
                return v % span;
            }
        }
    }

    #[test]
    fn bounded_draw_fast_path_matches_the_zone_formula() {
        const MAX: u64 = u64::MAX;
        for span in [1u64, 2, 3, 1022, (1 << 32) + 1, (1 << 63) + 1, MAX - 1] {
            let zone = MAX - (MAX % span).wrapping_add(1) % span;
            let mut firsts = vec![0, 1, MAX - span - 1, MAX - span, MAX - span + 1];
            firsts.extend([zone - 1, zone, zone.saturating_add(1), MAX - 1, MAX]);
            for first in firsts {
                // Rejected draws (MAX is above every non-power-of-two
                // zone) make both forms run their retry loop.
                for retries in [0usize, 1, 3] {
                    let mut draws = vec![first];
                    draws.extend(std::iter::repeat(MAX).take(retries));
                    draws.extend([MAX - span, 7, 0]);
                    let mut fast = Script(draws.clone(), 0);
                    let mut slow = Script(draws, 0);
                    let (got, want) =
                        (uniform_u64(&mut fast, span), uniform_u64_reference(&mut slow, span));
                    assert_eq!(got, want, "span {span}, first draw {first}, {retries} retries");
                    assert_eq!(fast.1, slow.1, "span {span}, first draw {first}: draws used");
                }
            }
        }
    }

    #[test]
    fn gen_range_int_stays_in_bounds() {
        let mut r = TestRng(1);
        for _ in 0..10_000 {
            let v = r.gen_range(3..17);
            assert!((3..17).contains(&v));
            let w = r.gen_range(0..=5);
            assert!((0..=5).contains(&w));
        }
    }

    #[test]
    fn gen_range_float_stays_in_bounds() {
        let mut r = TestRng(2);
        for _ in 0..10_000 {
            let v: f64 = r.gen_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&v));
        }
    }

    #[test]
    fn gen_range_int_is_roughly_uniform() {
        let mut r = TestRng(3);
        let mut counts = [0usize; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[r.gen_range(0..10usize)] += 1;
        }
        for &c in &counts {
            let frac = c as f64 / n as f64;
            assert!((0.08..0.12).contains(&frac), "bucket fraction {frac}");
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = TestRng(4);
        let n = 100_000;
        let hits = (0..n).filter(|_| r.gen_bool(0.3)).count();
        let frac = hits as f64 / n as f64;
        assert!((0.28..0.32).contains(&frac), "fraction {frac}");
        assert!((0..1000).all(|_| r.gen_bool(1.0)));
        assert!(!(0..1000).any(|_| r.gen_bool(0.0)));
    }
}
