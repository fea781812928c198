//! The workspace's lock: [`std::sync::Mutex`] without poisoning.
//!
//! A thread that panics while holding a lock (one of the experiment
//! harness's trial threads, say) is contained where it is joined; it
//! must not also turn every later `lock()` elsewhere into a second
//! panic. Every structure
//! guarded here is updated in steps that each leave it valid (counters,
//! append-only buffers, LRU maps), so the data behind a poisoned lock
//! is safe to keep using.

use std::sync::{MutexGuard, PoisonError};

/// A mutual-exclusion lock whose `lock()` never fails.
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// A lock around `value`.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consumes the lock, returning what it guarded.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until the lock is held, whether or not an earlier
    /// holder panicked.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_panicking_holder_does_not_poison_later_locks() {
        let m = Arc::new(Mutex::new(1));
        let held = Arc::clone(&m);
        let worker = std::thread::spawn(move || {
            let mut guard = held.lock();
            *guard = 2;
            panic!("worker dies holding the lock");
        });
        assert!(worker.join().is_err());
        assert_eq!(*m.lock(), 2);
    }
}
