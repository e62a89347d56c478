//! Offline stand-in for `proptest`.
//!
//! Implements the subset of the proptest API this workspace's property
//! tests use: the [`Strategy`] trait with `prop_map` and `boxed`, range /
//! tuple / [`Just`] / [`any`] strategies, `prop::collection::vec`, the
//! [`prop_oneof!`] union macro, and the [`proptest!`] test-harness macro
//! with `prop_assert!` / `prop_assert_eq!` checks and
//! `#![proptest_config(..)]`.
//!
//! Differences from real proptest, deliberately accepted:
//!
//! * **No shrinking.** A failing case panics with the assertion message and
//!   the case's RNG seed; re-running reproduces it exactly (generation is
//!   keyed on the test's name hash and case index, never on time).
//! * **No persistence files.** Failures are deterministic, so there is
//!   nothing to persist.

#![deny(missing_docs)]

use std::fmt::Debug;
use std::ops::Range;

/// Deterministic generator state handed to strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Build from a seed (e.g. test-name hash mixed with case index).
    pub fn from_seed(seed: u64) -> Self {
        TestRng {
            state: seed ^ 0x6A09_E667_F3BC_C908,
        }
    }

    /// Next 64 random bits (splitmix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// Runner configuration (`#![proptest_config(..)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A config with `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// A generator of test values.
pub trait Strategy {
    /// The value type produced.
    type Value: Debug;

    /// Generate one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        O: Debug,
        F: Fn(Self::Value) -> O,
    {
        Map { base: self, f }
    }

    /// Type-erase this strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// A boxed, type-erased [`Strategy`].
pub struct BoxedStrategy<T>(Box<dyn StrategyObj<Value = T>>);

/// Object-safe core of [`Strategy`] backing [`BoxedStrategy`].
trait StrategyObj {
    type Value;
    fn generate_obj(&self, rng: &mut TestRng) -> Self::Value;
}

impl<S: Strategy> StrategyObj for S {
    type Value = S::Value;
    fn generate_obj(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

impl<T: Debug> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate_obj(rng)
    }
}

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone + Debug>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Result of [`Strategy::prop_map`].
pub struct Map<B, F> {
    base: B,
    f: F,
}

impl<B, O, F> Strategy for Map<B, F>
where
    B: Strategy,
    O: Debug,
    F: Fn(B::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.base.generate(rng))
    }
}

/// Uniform choice between boxed alternatives ([`prop_oneof!`]).
pub struct Union<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T: Debug> Union<T> {
    /// Build from the alternatives; must be non-empty.
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Union { options }
    }
}

impl<T: Debug> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.options.len() as u64) as usize;
        self.options[i].generate(rng)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}
int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}
tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, F);

/// Types with a canonical whole-domain strategy ([`any`]).
pub trait Arbitrary: Sized + Debug {
    /// Draw one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Strategy over the whole domain of `T` (`any::<T>()`).
#[derive(Debug, Clone)]
pub struct Any<T>(std::marker::PhantomData<T>);

/// The canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Collection strategies (`prop::collection`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// Length specification for [`vec()`](crate::collection::vec): an exact `usize` or a half-open range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec-length range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// Strategy producing `Vec`s whose elements come from `element`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Vectors of `size` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Everything a property test needs: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_oneof, proptest, Any, Arbitrary, BoxedStrategy,
        Just, ProptestConfig, Strategy, TestRng,
    };
}

/// FNV-1a hash of a test name, used to seed its RNG stream.
pub fn seed_of(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Assert inside a property; on failure the harness reports the case seed.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// `assert_eq!` inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strategy)),+])
    };
}

/// Define property tests: each `#[test] fn name(arg in strategy, ..)` runs
/// `cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    // With a config block.
    (
        #![proptest_config($config:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                $crate::proptest!(@run config, $name, ($($arg in $strategy),+), $body);
            }
        )*
    };
    // Without a config block.
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config = $crate::ProptestConfig::default();
                $crate::proptest!(@run config, $name, ($($arg in $strategy),+), $body);
            }
        )*
    };
    (@run $config:ident, $name:ident, ($($arg:ident in $strategy:expr),+), $body:block) => {
        let base = $crate::seed_of(concat!(module_path!(), "::", stringify!($name)));
        for case in 0..$config.cases {
            let mut rng = $crate::TestRng::from_seed(
                base ^ (u64::from(case)).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            $(let $arg = $crate::Strategy::generate(&($strategy), &mut rng);)+
            $body
        }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_and_tuples_generate_in_bounds() {
        let mut rng = TestRng::from_seed(1);
        let s = (0u8..4, 10i32..20);
        for _ in 0..1000 {
            let (a, b) = s.generate(&mut rng);
            assert!(a < 4);
            assert!((10..20).contains(&b));
        }
    }

    #[test]
    fn vec_strategy_respects_length() {
        let mut rng = TestRng::from_seed(2);
        let s = prop::collection::vec(0u64..100, 3..7);
        for _ in 0..200 {
            let v = s.generate(&mut rng);
            assert!((3..7).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 100));
        }
        let exact = prop::collection::vec(any::<bool>(), 4);
        assert_eq!(exact.generate(&mut rng).len(), 4);
    }

    #[test]
    fn oneof_hits_every_option() {
        let mut rng = TestRng::from_seed(3);
        let s = prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let mut seen = [false; 4];
        for _ in 0..300 {
            seen[s.generate(&mut rng) as usize] = true;
        }
        assert!(seen[1] && seen[2] && seen[3]);
    }

    #[test]
    fn generation_is_deterministic() {
        let s = prop::collection::vec((any::<u32>(), 0u8..8), 0..20);
        let a = s.generate(&mut TestRng::from_seed(9));
        let b = s.generate(&mut TestRng::from_seed(9));
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro itself: args bind, asserts fire, config is honored.
        #[test]
        fn macro_smoke(x in 0u32..50, ys in prop::collection::vec(0u8..10, 1..5)) {
            prop_assert!(x < 50);
            prop_assert_eq!(ys.iter().filter(|&&y| y < 10).count(), ys.len());
            prop_assert!(!ys.is_empty());
        }
    }
}
