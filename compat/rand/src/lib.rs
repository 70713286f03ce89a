//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to a crates-io registry, so this
//! workspace vendors the *API subset* of `rand 0.8` it actually uses:
//! [`rngs::StdRng`], [`SeedableRng::seed_from_u64`], [`Rng::gen_range`],
//! [`Rng::gen_bool`] and [`seq::SliceRandom::shuffle`].
//!
//! The generator is SplitMix64 — statistically solid for the synthetic
//! datasets and weight initialisation this repo needs, deterministic per
//! seed, and four lines long. Streams differ from upstream `rand`'s
//! ChaCha-based `StdRng`, which is fine: nothing in the repo depends on a
//! particular stream, only on determinism.

/// A seedable random number generator (the trait subset the workspace uses).
pub trait SeedableRng: Sized {
    /// Creates a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that `gen_range` accepts: half-open and inclusive ranges over the
/// primitive numeric types.
pub trait SampleRange<T> {
    /// Draws a uniform sample from the range.
    fn sample(self, rng: &mut dyn RngCore) -> T;
}

/// The raw 64-bit generator interface.
pub trait RngCore {
    /// The next 64 uniform bits.
    fn next_u64(&mut self) -> u64;
}

/// High-level convenience methods, available on every [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform sample from a range (panics if the range is empty).
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample(self)
    }

    /// Bernoulli sample: `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        uniform_f64(self.next_u64()) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[inline]
fn uniform_f64(bits: u64) -> f64 {
    // 53 uniform mantissa bits in [0, 1).
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

macro_rules! impl_float_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample(self, rng: &mut dyn RngCore) -> $t {
                assert!(self.start < self.end, "empty range");
                let u = uniform_f64(rng.next_u64()) as $t;
                let v = self.start + (self.end - self.start) * u;
                // Guard the half-open contract against rounding up to `end`.
                if v < self.end { v } else { self.start }
            }
        }
    )*};
}
impl_float_range!(f32, f64);

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample(self, rng: &mut dyn RngCore) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = (u128::from(rng.next_u64()) % span) as i128;
                (self.start as i128 + v) as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample(self, rng: &mut dyn RngCore) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let v = (u128::from(rng.next_u64()) % span) as i128;
                (lo as i128 + v) as $t
            }
        }
    )*};
}
impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: SplitMix64.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            Self { state: seed }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

/// Sequence helpers.
pub mod seq {
    use super::Rng;

    /// Slice shuffling (the `rand::seq::SliceRandom` subset in use).
    pub trait SliceRandom {
        /// Fisher–Yates shuffle in place.
        fn shuffle<R: Rng>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0..1000u64), b.gen_range(0..1000u64));
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let f = rng.gen_range(-1.5f32..2.5);
            assert!((-1.5..2.5).contains(&f));
            let i = rng.gen_range(-2..=2);
            assert!((-2..=2).contains(&i));
        }
    }

    #[test]
    fn float_mean_is_centered() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| rng.gen_range(0.0f64..1.0)).sum();
        let mean = sum / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn shuffle_permutes() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "a 50-element shuffle is not identity");
    }

    #[test]
    fn gen_bool_probability() {
        let mut rng = StdRng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "hits {hits}");
    }
}
