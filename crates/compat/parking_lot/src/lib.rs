//! Offline stand-in for `parking_lot`.
//!
//! Wraps `std::sync::Mutex` behind `parking_lot`'s non-poisoning API
//! (`lock()` returns the guard directly, no `Result`). Poisoning is handled
//! by taking the inner value anyway — a panic while holding the lock aborts
//! the experiment that owned it; the data (compiled benchmark images) is
//! immutable-once-built and safe to hand to other threads.
//!
//! Supported surface: [`Mutex::new`], [`Mutex::lock`] and `Default`, the
//! calls the workspace makes.

#![deny(missing_docs)]

use std::sync;

/// A non-poisoning mutual-exclusion lock (API subset of `parking_lot::Mutex`).
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

/// RAII guard for [`Mutex`]; releases the lock on drop.
pub type MutexGuard<'a, T> = sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Create a new lock around `value`.
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match self.0.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn mutex_shared_across_threads() {
        let m = Arc::new(Mutex::new(0u64));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 4000);
    }
}
