//! Small order statistics and timer helpers shared by the run modes.

use std::hint::black_box;
use std::time::Instant;

/// Median of `xs` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `xs`; 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What an empty timed region reads, in ns (mean of `Instant::now()`
/// followed by `elapsed()`): the overhead each individually timed call
/// carries, subtracted from per-call figures.
pub fn timer_overhead_ns() -> f64 {
    const N: u32 = 20_000;
    let total: u128 = (0..N)
        .map(|_| black_box(Instant::now()).elapsed().as_nanos())
        .sum();
    total as f64 / f64::from(N)
}

/// Time `batch` repeatedly until `budget_ms` has passed (at least `min`
/// times); `batch` returns its own measured nanoseconds and the number of
/// calls it timed. Returns the median per-call cost over batches.
pub fn per_call_ns(budget_ms: u64, min: usize, mut batch: impl FnMut() -> (u64, u64)) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min || start.elapsed().as_millis() < u128::from(budget_ms) {
        let (ns, calls) = batch();
        if calls > 0 {
            samples.push(ns as f64 / calls as f64);
        }
        if samples.len() >= 100_000 {
            break;
        }
    }
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }
}
