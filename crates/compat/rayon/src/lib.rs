//! Offline stand-in for `rayon`.
//!
//! The workspace's sweeps are embarrassingly parallel — a few hundred
//! independent, multi-millisecond simulations — so the part of rayon they
//! need is the *shape* (`par_iter().map(..).collect()`, thread pools with
//! `install`), not work stealing. This shim executes indexed parallel
//! iterators over `std::thread::scope` with an atomic work-claiming cursor:
//! results land at their input index, so output order (and therefore every
//! downstream figure) is identical to sequential execution.
//!
//! Supported surface, the two shapes the workspace calls and a subset of
//! rayon's API: slice `par_iter().map(..).collect()` into a `Vec`, and
//! slice `par_iter_mut().for_each(..)`, both run inside a pool from
//! [`ThreadPoolBuilder`] (`new().num_threads(n).build()`) through
//! [`ThreadPool::install`]; plus [`current_num_threads`].

#![deny(missing_docs)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// Per-thread override installed by [`ThreadPool::install`].
    static LOCAL_NUM_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// Number of worker threads parallel iterators will use on this thread.
pub fn current_num_threads() -> usize {
    let local = LOCAL_NUM_THREADS.with(|n| n.get());
    if local > 0 {
        return local;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Error type for pool construction (construction here cannot fail; the
/// type exists so call sites can keep rayon's `Result` handling).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Start building a pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the worker count (0 = one per available core).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Build a scoped pool handle.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let num_threads = if self.num_threads > 0 {
            self.num_threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        };
        Ok(ThreadPool { num_threads })
    }
}

/// A handle fixing the worker count for closures run via [`ThreadPool::install`].
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Run `op` with this pool's worker count governing parallel iterators.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        LOCAL_NUM_THREADS.with(|n| {
            let prev = n.get();
            n.set(self.num_threads);
            let out = op();
            n.set(prev);
            out
        })
    }
}

/// Run `f(0..len)` across worker threads. Items are claimed through an
/// atomic cursor; each worker accumulates `(index, result)` pairs locally
/// and results are re-sorted to input order at the end. A worker's panic
/// is re-raised on join with its own payload.
fn run_indexed<R, F>(len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if len == 0 {
        return Vec::new();
    }
    let workers = current_num_threads().clamp(1, len);
    if workers == 1 {
        return (0..len).map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let f = &f;
    let cursor = &cursor;
    let mut pairs: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= len {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    pairs.sort_unstable_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, r)| r).collect()
}

/// The traits users import; `use rayon::prelude::*;`.
pub mod prelude {
    pub use crate::{IntoParallelRefIterator, IntoParallelRefMutIterator, ParallelIterator};
}

/// An indexed source of parallel items (a slice, or a map over one).
pub trait ParallelIterator: Sized {
    /// Item type produced.
    type Item: Send;

    /// Number of items.
    fn par_len(&self) -> usize;

    /// Produce the item at `i`. Called exactly once per index.
    fn par_get(&self, i: usize) -> Self::Item;

    /// Map each item through `f` in parallel.
    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync,
    {
        Map { base: self, f }
    }

    /// Collect into a container, preserving input order.
    fn collect<C>(self) -> C
    where
        C: FromParallelIterator<Self::Item>,
        Self: Sync,
    {
        C::from_par_iter(self)
    }
}

/// Conversion into a borrowing parallel iterator (`.par_iter()`).
/// Implemented for slices only; a `Vec` reaches it through auto-deref.
pub trait IntoParallelRefIterator<'a> {
    /// Item type produced (a reference).
    type Item: Send;
    /// Iterator type produced.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Convert.
    fn par_iter(&'a self) -> Self::Iter;
}

/// Parallel iterator over `&[T]`.
pub struct SliceParIter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for SliceParIter<'a, T> {
    type Item = &'a T;
    fn par_len(&self) -> usize {
        self.slice.len()
    }
    fn par_get(&self, i: usize) -> &'a T {
        &self.slice[i]
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    type Iter = SliceParIter<'a, T>;
    fn par_iter(&'a self) -> SliceParIter<'a, T> {
        SliceParIter { slice: self }
    }
}

/// Conversion into a mutably borrowing parallel iterator (`.par_iter_mut()`).
/// Implemented for slices only; a `Vec` reaches it through auto-deref.
pub trait IntoParallelRefMutIterator<'a> {
    /// Iterator type produced.
    type Iter;
    /// Convert.
    fn par_iter_mut(&'a mut self) -> Self::Iter;
}

/// Parallel iterator over `&mut [T]`. Each worker takes one contiguous
/// chunk, so every element is visited exactly once by exactly one thread.
pub struct SliceParIterMut<'a, T> {
    slice: &'a mut [T],
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Iter = SliceParIterMut<'a, T>;
    fn par_iter_mut(&'a mut self) -> SliceParIterMut<'a, T> {
        SliceParIterMut { slice: self }
    }
}

impl<T: Send> SliceParIterMut<'_, T> {
    /// Apply `f` to every element in parallel, one contiguous chunk per
    /// worker inside [`std::thread::scope`]. A worker's panic propagates
    /// when the scope joins.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut T) + Sync,
    {
        let workers = current_num_threads().clamp(1, self.slice.len().max(1));
        if workers == 1 {
            self.slice.iter_mut().for_each(f);
            return;
        }
        let f = &f;
        std::thread::scope(|scope| {
            for chunk in self.slice.chunks_mut(self.slice.len().div_ceil(workers)) {
                scope.spawn(move || chunk.iter_mut().for_each(f));
            }
        });
    }
}

/// Result of [`ParallelIterator::map`].
pub struct Map<B, F> {
    base: B,
    f: F,
}

impl<B, R, F> ParallelIterator for Map<B, F>
where
    B: ParallelIterator,
    R: Send,
    F: Fn(B::Item) -> R + Sync,
{
    type Item = R;
    fn par_len(&self) -> usize {
        self.base.par_len()
    }
    fn par_get(&self, i: usize) -> R {
        (self.f)(self.base.par_get(i))
    }
}

/// Containers constructible from a parallel iterator.
pub trait FromParallelIterator<T: Send> {
    /// Build the container, preserving input order.
    fn from_par_iter<I>(iter: I) -> Self
    where
        I: ParallelIterator<Item = T> + Sync;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<I>(iter: I) -> Self
    where
        I: ParallelIterator<Item = T> + Sync,
    {
        run_indexed(iter.par_len(), |i| iter.par_get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn map_collect_preserves_order() {
        let xs: Vec<u64> = (0..1000).collect();
        let doubled: Vec<u64> = xs.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn install_overrides_worker_count() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        assert_eq!(pool.install(current_num_threads), 3);
    }

    #[test]
    fn par_iter_mut_visits_every_element_once() {
        for workers in 1..=4 {
            let pool = ThreadPoolBuilder::new()
                .num_threads(workers)
                .build()
                .unwrap();
            for len in [0usize, 1, 3, 7, 64] {
                let mut xs = vec![0u32; len];
                pool.install(|| xs.par_iter_mut().for_each(|x| *x += 1));
                assert!(xs.iter().all(|&x| x == 1), "{workers} workers, {len} items");
            }
        }
    }

    #[test]
    fn par_iter_mut_propagates_a_worker_panic() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let mut xs: Vec<u32> = (0..8).collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| {
                xs.par_iter_mut().for_each(|x| {
                    assert_ne!(*x, 6, "worker panic");
                })
            })
        }));
        assert!(caught.is_err(), "the panic must reach the caller");
    }

    #[test]
    fn single_item_and_empty() {
        let one: Vec<i32> = [5].par_iter().map(|&x| x + 1).collect();
        assert_eq!(one, [6]);
        let none: Vec<i32> = Vec::<i32>::new().par_iter().map(|&x| x).collect();
        assert!(none.is_empty());
    }
}
