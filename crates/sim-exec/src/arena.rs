//! Reusable keyed scratch arenas for per-job simulation state.
//!
//! A sweep runs thousands of independent simulations, and each one used to
//! build its working state (L2 bank matrices, hash maps, eviction buffers)
//! from scratch — pure allocator traffic that the profiler attributes to
//! the access-issue phase.  [`ScratchPool`] keeps retired state around for
//! the next job instead: [`ScratchPool::take`] hands out a previously
//! retired value for the same key (or builds a fresh one), and the
//! [`Scratch`] guard returns it to the pool on drop.
//!
//! Values are pooled **per key** so that jobs with different shapes (e.g.
//! different cache geometries in a design-space sweep) never receive an
//! arena built for another shape.  The pool itself never resets values —
//! recycled state is returned exactly as the previous job left it, and the
//! caller decides what "clean" means (see [`Scratch::is_recycled`]).  This
//! keeps the pool domain-agnostic and keeps reset logic next to the type
//! that knows its own invariants.
//!
//! The pool is bounded per key: once a key holds [`ScratchPool::max_idle`]
//! idle values, further returns are dropped on the floor, so a burst of
//! workers cannot pin an unbounded amount of retired state.

use std::collections::HashMap;
use std::hash::Hash;
use std::ops::{Deref, DerefMut};
use std::sync::Mutex;

/// Default cap on idle values retained per key — comfortably above any
/// realistic worker-pool width.
const DEFAULT_MAX_IDLE: usize = 64;

/// A bounded, keyed pool of reusable scratch values.
#[derive(Debug)]
pub struct ScratchPool<K: Eq + Hash, T> {
    idle: Mutex<HashMap<K, Vec<T>>>,
    max_idle: usize,
}

impl<K: Eq + Hash, T> Default for ScratchPool<K, T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash, T> ScratchPool<K, T> {
    /// An empty pool retaining up to [`DEFAULT_MAX_IDLE`] values per key.
    pub fn new() -> Self {
        Self::with_max_idle(DEFAULT_MAX_IDLE)
    }

    /// An empty pool retaining up to `max_idle` values per key (0 disables
    /// pooling entirely: every take builds fresh, every drop discards).
    pub fn with_max_idle(max_idle: usize) -> Self {
        Self {
            idle: Mutex::new(HashMap::new()),
            max_idle,
        }
    }

    /// Cap on idle values retained per key.
    pub fn max_idle(&self) -> usize {
        self.max_idle
    }

    /// Checks out a value for `key`: a recycled one when available,
    /// otherwise `make()`.  The guard returns the value on drop.
    ///
    /// Recycled values arrive exactly as the previous holder left them —
    /// check [`Scratch::is_recycled`] and reset before use.
    pub fn take(&self, key: K, make: impl FnOnce() -> T) -> Scratch<'_, K, T>
    where
        K: Clone,
    {
        let recycled = self
            .idle
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get_mut(&key)
            .and_then(Vec::pop);
        let is_recycled = recycled.is_some();
        Scratch {
            pool: self,
            key: Some(key),
            value: Some(recycled.unwrap_or_else(make)),
            is_recycled,
        }
    }

    /// Total idle values currently retained, across all keys.
    pub fn idle_count(&self) -> usize {
        self.idle
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .map(Vec::len)
            .sum()
    }

    /// Discards every idle value (frees the retained allocations).
    pub fn clear(&self) {
        self.idle.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }

    fn put(&self, key: K, value: T) {
        if self.max_idle == 0 {
            return;
        }
        let mut idle = self.idle.lock().unwrap_or_else(|e| e.into_inner());
        let slot = idle.entry(key).or_default();
        if slot.len() < self.max_idle {
            slot.push(value);
        }
        drop(idle);
    }
}

/// A checked-out scratch value; dereferences to `T` and returns the value
/// to its pool on drop.
#[derive(Debug)]
pub struct Scratch<'p, K: Eq + Hash, T> {
    pool: &'p ScratchPool<K, T>,
    key: Option<K>,
    value: Option<T>,
    is_recycled: bool,
}

impl<K: Eq + Hash, T> Scratch<'_, K, T> {
    /// True when this value was recycled from a previous holder (and thus
    /// carries that holder's state until the caller resets it).
    pub fn is_recycled(&self) -> bool {
        self.is_recycled
    }

    /// Takes the value out of the guard; it will NOT return to the pool.
    pub fn into_inner(mut self) -> T {
        self.key = None;
        self.value.take().expect("value present until drop")
    }
}

impl<K: Eq + Hash, T> Deref for Scratch<'_, K, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.value.as_ref().expect("value present until drop")
    }
}

impl<K: Eq + Hash, T> DerefMut for Scratch<'_, K, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.value.as_mut().expect("value present until drop")
    }
}

impl<K: Eq + Hash, T> Drop for Scratch<'_, K, T> {
    fn drop(&mut self) {
        if let (Some(key), Some(value)) = (self.key.take(), self.value.take()) {
            self.pool.put(key, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_then_recycled() {
        let pool: ScratchPool<u32, Vec<u8>> = ScratchPool::new();
        {
            let mut s = pool.take(1, || Vec::with_capacity(16));
            assert!(!s.is_recycled());
            s.push(42);
        }
        assert_eq!(pool.idle_count(), 1);
        let s = pool.take(1, Vec::new);
        assert!(s.is_recycled());
        // State survives verbatim — resetting is the caller's job.
        assert_eq!(&*s, &[42]);
    }

    #[test]
    fn keys_are_isolated() {
        let pool: ScratchPool<&str, u64> = ScratchPool::new();
        drop(pool.take("a", || 7));
        let b = pool.take("b", || 99);
        assert!(!b.is_recycled(), "key b must not see key a's value");
        assert_eq!(*b, 99);
    }

    #[test]
    fn idle_values_are_bounded_per_key() {
        let pool: ScratchPool<u8, u8> = ScratchPool::with_max_idle(2);
        let (a, b, c) = (pool.take(0, || 1), pool.take(0, || 2), pool.take(0, || 3));
        drop(a);
        drop(b);
        drop(c);
        assert_eq!(pool.idle_count(), 2, "third return must be discarded");
    }

    #[test]
    fn zero_cap_disables_pooling() {
        let pool: ScratchPool<u8, u8> = ScratchPool::with_max_idle(0);
        drop(pool.take(0, || 5));
        assert_eq!(pool.idle_count(), 0);
        assert!(!pool.take(0, || 6).is_recycled());
    }

    #[test]
    fn into_inner_detaches_from_pool() {
        let pool: ScratchPool<u8, String> = ScratchPool::new();
        let owned = pool.take(0, || "x".to_string()).into_inner();
        assert_eq!(owned, "x");
        assert_eq!(pool.idle_count(), 0);
    }

    #[test]
    fn clear_frees_idle_values() {
        let pool: ScratchPool<u8, u8> = ScratchPool::new();
        drop(pool.take(0, || 1));
        drop(pool.take(1, || 2));
        assert_eq!(pool.idle_count(), 2);
        pool.clear();
        assert_eq!(pool.idle_count(), 0);
    }

    #[test]
    fn pool_is_shareable_across_threads() {
        let pool: ScratchPool<u8, Vec<u64>> = ScratchPool::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        let mut s = pool.take(0, || Vec::with_capacity(8));
                        s.clear();
                        s.push(1);
                    }
                });
            }
        });
        assert!(pool.idle_count() >= 1);
        assert!(pool.idle_count() <= 4, "at most one arena per thread");
    }
}
