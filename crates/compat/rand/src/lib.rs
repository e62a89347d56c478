//! Offline stand-in for the `rand` crate.
//!
//! The build environment for this workspace has no access to crates.io, so
//! the handful of `rand` 0.8 APIs the simulator and workload generator use
//! are reimplemented here: [`SeedableRng::seed_from_u64`], [`rngs::SmallRng`]
//! (an xoshiro256++ generator — fast, deterministic, identical on every
//! platform), [`Rng::gen_range`] over the `u16`, `i32` and `usize` ranges
//! the workspace draws from, [`Rng::gen_bool`], and
//! [`seq::SliceRandom::shuffle`].
//!
//! Determinism is a hard requirement of the reproduction (every simulation
//! is seeded and must replay bit-identically across hosts and thread
//! counts), so all sampling here is integer-exact and platform-independent.

#![deny(missing_docs)]

use std::ops::Range;

/// Core random-number-generation interface: a stream of `u64`s.
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Seedable construction, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed (via splitmix64 expansion).
    fn seed_from_u64(seed: u64) -> Self;
}

/// User-facing sampling methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Sample uniformly from `range` (half-open). Panics on empty ranges.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// Return `true` with probability `p`. Panics unless `0.0 <= p <= 1.0`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p out of range: {p}");
        // Compare against a 53-bit uniform in [0, 1): integer-exact.
        let x = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        x < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Ranges [`Rng::gen_range`] can sample from.
///
/// Implemented once, generically, over [`SampleUniform`] types — a single
/// generic impl (like real rand's) lets integer-literal inference flow from
/// the surrounding expression into the range's element type.
pub trait SampleRange<T> {
    /// Draw one value uniformly from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Types uniformly samplable from a half-open range.
pub trait SampleUniform: Sized + PartialOrd {
    /// Sample from `[lo, hi)`; callers guarantee `lo < hi`.
    fn sample_between<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "gen_range: empty range");
        T::sample_between(self.start, self.end, rng)
    }
}

macro_rules! sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(lo: $t, hi: $t, rng: &mut R) -> $t {
                let span = (hi as i128 - lo as i128) as u128;
                // Multiply-shift bounded sampling (Lemire); the tiny bias on
                // astronomic spans is irrelevant for simulation seeding.
                let off = ((rng.next_u64() as u128).wrapping_mul(span) >> 64) as i128;
                (lo as i128 + off) as $t
            }
        }
    )*};
}
sample_uniform_int!(u16, i32, usize);

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// A small, fast, seedable generator (xoshiro256++), standing in for
    /// `rand::rngs::SmallRng`.
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut st = seed;
            let s = [
                splitmix64(&mut st),
                splitmix64(&mut st),
                splitmix64(&mut st),
                splitmix64(&mut st),
            ];
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

/// Sequence-related helpers (`rand::seq` subset).
pub mod seq {
    use super::{Rng, RngCore};

    /// In-place slice shuffling, mirroring `rand::seq::SliceRandom`.
    pub trait SliceRandom {
        /// Fisher–Yates shuffle in place.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.gen_range(0..i + 1));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_across_instances() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(
                a.gen_range(0usize..1_000_000),
                b.gen_range(0usize..1_000_000)
            );
        }
    }

    #[test]
    fn ranges_are_respected() {
        let mut r = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = r.gen_range(10i32..20);
            assert!((10..20).contains(&x));
            let y = r.gen_range(0usize..3);
            assert!(y < 3);
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = SmallRng::seed_from_u64(1);
        assert!(!(0..100).any(|_| r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
    }
}
