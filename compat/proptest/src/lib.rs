//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates-io registry, so this workspace
//! vendors the API subset its property tests use: the [`proptest!`] macro
//! (both `x in strategy` and `x: Type` parameter forms, plus
//! `#![proptest_config(..)]`), [`strategy::Strategy`] with `prop_map`,
//! range/tuple/[`strategy::Just`] strategies, [`collection::vec`],
//! [`sample::select`], `prop_oneof!`, `any::<T>()` and the
//! `prop_assert*` macros.
//!
//! Semantics are plain random testing: every case draws fresh values from
//! a deterministic per-test generator. There is no shrinking — a failing
//! case panics with the values bound, which is enough for CI.

/// Test-runner configuration.
pub mod test_runner {
    /// Number-of-cases configuration (the `ProptestConfig` subset in use).
    #[derive(Debug, Clone)]
    pub struct Config {
        /// How many random cases each property runs.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` random cases.
        #[must_use]
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Self { cases: 256 }
        }
    }

    /// Deterministic per-test generator (SplitMix64).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// A generator seeded from the test name and case index.
        #[must_use]
        pub fn for_case(name: &str, case: u32) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
            Self {
                state: h ^ (u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            }
        }

        /// The next 64 uniform bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform `usize` in `[0, bound)`.
        pub fn below(&mut self, bound: usize) -> usize {
            assert!(bound > 0, "empty choice");
            (self.next_u64() % bound as u64) as usize
        }
    }
}

/// Value-generation strategies.
pub mod strategy {
    use crate::test_runner::TestRng;

    /// Something that can produce random values of its `Value` type.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn pick(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Chains into a dependent strategy produced by `f`.
        fn prop_flat_map<U: Strategy, F: Fn(Self::Value) -> U>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }
    }

    /// A constant strategy.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn pick(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// The result of [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn pick(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.pick(rng))
        }
    }

    /// The result of [`Strategy::prop_flat_map`].
    #[derive(Debug, Clone)]
    pub struct FlatMap<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, U: Strategy, F: Fn(S::Value) -> U> Strategy for FlatMap<S, F> {
        type Value = U::Value;
        fn pick(&self, rng: &mut TestRng) -> U::Value {
            (self.f)(self.inner.pick(rng)).pick(rng)
        }
    }

    /// Uniform choice among same-typed strategies (built by `prop_oneof!`).
    #[derive(Debug, Clone)]
    pub struct Union<S> {
        arms: Vec<S>,
    }

    impl<S> Union<S> {
        /// A union over the given arms (panics if empty).
        #[must_use]
        pub fn new(arms: Vec<S>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Self { arms }
        }
    }

    impl<S: Strategy> Strategy for Union<S> {
        type Value = S::Value;
        fn pick(&self, rng: &mut TestRng) -> S::Value {
            let i = rng.below(self.arms.len());
            self.arms[i].pick(rng)
        }
    }

    macro_rules! impl_int_range {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn pick(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let wide = (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64());
                    ((self.start as i128) + (wide % span) as i128) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn pick(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range");
                    let span = (hi as i128 - lo as i128) as u128 + 1;
                    let wide = (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64());
                    ((lo as i128) + (wide % span) as i128) as $t
                }
            }
        )*};
    }
    impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, i128, isize);

    macro_rules! impl_float_range {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn pick(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range");
                    let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                    let v = self.start + (self.end - self.start) * (u as $t);
                    if v < self.end { v } else { self.start }
                }
            }
        )*};
    }
    impl_float_range!(f32, f64);

    macro_rules! impl_tuple {
        ($(($($n:ident $idx:tt),+))*) => {$(
            impl<$($n: Strategy),+> Strategy for ($($n,)+) {
                type Value = ($($n::Value,)+);
                fn pick(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.pick(rng),)+)
                }
            }
        )*};
    }
    impl_tuple! {
        (A 0)
        (A 0, B 1)
        (A 0, B 1, C 2)
        (A 0, B 1, C 2, D 3)
        (A 0, B 1, C 2, D 3, E 4)
    }
}

/// `any::<T>()` support.
pub mod arbitrary {
    use crate::test_runner::TestRng;

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        /// Draws an arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    impl_arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for u128 {
        fn arbitrary(rng: &mut TestRng) -> u128 {
            (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
        }
    }

    impl Arbitrary for i128 {
        fn arbitrary(rng: &mut TestRng) -> i128 {
            u128::arbitrary(rng) as i128
        }
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f32 {
        fn arbitrary(rng: &mut TestRng) -> f32 {
            f32::from_bits(rng.next_u64() as u32)
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            f64::from_bits(rng.next_u64())
        }
    }

    /// The strategy returned by [`any`].
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T>(std::marker::PhantomData<T>);

    impl<T: Arbitrary> crate::strategy::Strategy for Any<T> {
        type Value = T;
        fn pick(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// A strategy generating arbitrary values of `T`.
    #[must_use]
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }
}

/// Collection strategies.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// A `Vec` strategy with random length.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: std::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn pick(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = self.len.end - self.len.start;
            let n = self.len.start + if span == 0 { 0 } else { rng.below(span) };
            (0..n).map(|_| self.element.pick(rng)).collect()
        }
    }

    /// Vectors of `element` values with a length drawn from `len`.
    pub fn vec<S: Strategy>(element: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }
}

/// Sampling strategies.
pub mod sample {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Uniform selection from a fixed list.
    #[derive(Debug, Clone)]
    pub struct Select<T: Clone> {
        items: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn pick(&self, rng: &mut TestRng) -> T {
            self.items[rng.below(self.items.len())].clone()
        }
    }

    /// A strategy choosing uniformly among `items` (panics if empty).
    #[must_use]
    pub fn select<T: Clone>(items: Vec<T>) -> Select<T> {
        assert!(!items.is_empty(), "select needs at least one item");
        Select { items }
    }
}

/// The `proptest::prelude::prop` namespace.
pub mod prop {
    pub use crate::collection;
    pub use crate::sample;
}

/// Everything the tests import.
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::prop;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest};
}

/// Defines property tests. Supports `x in strategy` and `x: Type`
/// parameters, plus an optional `#![proptest_config(expr)]` header.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests!{ ($crate::test_runner::Config::default()) $($rest)* }
    };
}

/// Internal: expands each test function.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    (($cfg:expr) $( $(#[$meta:meta])* fn $name:ident($($params:tt)*) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::test_runner::Config = $cfg;
                for __case in 0..__cfg.cases {
                    let mut __rng = $crate::test_runner::TestRng::for_case(
                        concat!(module_path!(), "::", stringify!($name)),
                        __case,
                    );
                    // The closure gives `prop_assume!` an early-exit target:
                    // it returns `false` to reject the case without failing.
                    #[expect(
                        clippy::redundant_closure_call,
                        reason = "the closure is the early-exit target of `prop_assume!`"
                    )]
                    let __accepted = (|| -> bool {
                        $crate::__proptest_bind!(__rng, $($params)*);
                        $body
                        true
                    })();
                    let _ = __accepted;
                }
            }
        )*
    };
}

/// Internal: binds one parameter list entry at a time.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($rng:ident $(,)?) => {};
    ($rng:ident, $pat:pat in $strat:expr, $($rest:tt)*) => {
        let $pat = $crate::strategy::Strategy::pick(&($strat), &mut $rng);
        $crate::__proptest_bind!($rng, $($rest)*);
    };
    ($rng:ident, $pat:pat in $strat:expr) => {
        let $pat = $crate::strategy::Strategy::pick(&($strat), &mut $rng);
    };
    ($rng:ident, $id:ident : $ty:ty, $($rest:tt)*) => {
        let $id: $ty = $crate::arbitrary::Arbitrary::arbitrary(&mut $rng);
        $crate::__proptest_bind!($rng, $($rest)*);
    };
    ($rng:ident, $id:ident : $ty:ty) => {
        let $id: $ty = $crate::arbitrary::Arbitrary::arbitrary(&mut $rng);
    };
}

/// Uniform choice among the listed strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($arm),+])
    };
}

/// Rejects the current case when the condition is false. Inside
/// [`proptest!`] the test body runs in a bool-returning closure, so this
/// simply returns `false` to skip to the next case (no global rejection
/// budget in this stand-in).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return false;
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return false;
        }
    };
}

/// Property assertion (plain `assert!` — no shrinking in this stand-in).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Property equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Property inequality assertion.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn arb_even() -> impl Strategy<Value = u32> {
        (0u32..1000).prop_map(|x| x * 2)
    }

    proptest! {
        #[test]
        fn ranges_and_types(x in 0u64..100, y: u8, z in -5i32..=5) {
            prop_assert!(x < 100);
            prop_assert!(u32::from(y) <= 255);
            prop_assert!((-5..=5).contains(&z));
        }

        #[test]
        fn mapped_strategies(e in arb_even(), v in prop::collection::vec(0u8..10, 1..4)) {
            prop_assert_eq!(e % 2, 0);
            prop_assert!(!v.is_empty() && v.len() < 4);
            prop_assert!(v.iter().all(|&b| b < 10));
        }

        #[test]
        fn oneof_and_select(
            m in prop_oneof![Just(1u8), Just(2), Just(3)],
            s in prop::sample::select(vec!["a", "b"]),
        ) {
            prop_assert!((1..=3).contains(&m));
            prop_assert!(s == "a" || s == "b");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn config_header_accepted(pair in ((0u8..4), (0u8..4))) {
            prop_assert!(pair.0 < 4 && pair.1 < 4);
        }
    }
}
