//! Offline stand-in for the subset of the `rayon` 1.x API used by this
//! workspace.
//!
//! The build environment has no access to crates.io, so the workspace
//! pins this path crate under the `rayon` package name (the same offline
//! pattern as the in-tree `rand` / `proptest` / `criterion` shims). It
//! provides, with compatible signatures:
//!
//! * [`join`] — run two closures, the second on a scoped worker thread.
//! * [`scope`] / [`Scope::spawn`] — structured task spawning on top of
//!   [`std::thread::scope`].
//! * [`iter`] — order-preserving *indexed* parallel iterators over
//!   vectors, slices and `Range<usize>`: `par_iter()` /
//!   `into_par_iter()` → `map` → `collect` / `for_each`. Items are
//!   distributed over a scoped worker pool through an atomic work
//!   queue, and results are **merged back in index order**, so a
//!   `collect` is byte-identical to the sequential equivalent no matter
//!   how the OS schedules the workers.
//! * [`ThreadPoolBuilder`] — `num_threads(n).build_global()` pins the
//!   worker count (also honoured: the `RAYON_NUM_THREADS` environment
//!   variable); [`current_num_threads`] reports the effective value.
//!
//! Work stealing, nested pools, `par_bridge`, and unindexed iterators
//! are intentionally out of scope: the workspace fans out coarse,
//! independent scenario cells where a shared atomic cursor is within
//! noise of a stealing deque.
//!
//! Per-item dispatch is not free: every item sits behind its own
//! `Mutex`, is claimed with a shared atomic `fetch_add`, and the
//! results are sorted back by index. That suits coarse items such as
//! sweep cells; a bulk per-index walk over 10⁴–10⁶ peers belongs in
//! `recluster_core::shard::map_ranges`, which hands this shim a few
//! contiguous ranges per worker instead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod iter;
pub mod prelude;

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker-count override installed by [`ThreadPoolBuilder::build_global`]
/// (0 = unset).
static GLOBAL_NUM_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Per-thread worker-count override set by [`ThreadPool::install`]
    /// (0 = unset). Thread-local rather than global so one sweep's pool
    /// never leaks into, or races with, another thread's.
    static LOCAL_NUM_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// The number of worker threads parallel operations use: the innermost
/// [`ThreadPool::install`] on this thread, else the global override if
/// one was installed, else `RAYON_NUM_THREADS`, else the machine's
/// available parallelism.
pub fn current_num_threads() -> usize {
    let local = LOCAL_NUM_THREADS.with(Cell::get);
    if local > 0 {
        return local;
    }
    let pinned = GLOBAL_NUM_THREADS.load(Ordering::Relaxed);
    if pinned > 0 {
        return pinned;
    }
    if let Some(n) = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Error returned by [`ThreadPoolBuilder::build_global`]; mirrors
/// rayon's type but never actually occurs here (re-installing simply
/// overwrites the pinned count).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("global thread pool already initialized")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Configures the worker count of the (implicit) global pool.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pins the worker count (`0` = automatic).
    #[must_use]
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Installs the configuration globally. Unlike upstream rayon this
    /// shim has no pool to materialize, so re-installation succeeds and
    /// simply overwrites the pinned count.
    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        GLOBAL_NUM_THREADS.store(self.num_threads, Ordering::Relaxed);
        Ok(())
    }

    /// Builds an explicit pool handle whose worker count applies only
    /// inside [`ThreadPool::install`] — never to other threads or to
    /// code outside the installed closure.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: self.num_threads,
        })
    }
}

/// An explicit thread-pool handle (a pinned worker count in this shim).
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Runs `op` with this pool's worker count: parallel iterators used
    /// inside `op` (on this thread) size themselves from it. The
    /// previous override is restored on exit, so installs nest and
    /// cannot clobber a global pin or race with other threads.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                LOCAL_NUM_THREADS.with(|c| c.set(self.0));
            }
        }
        let _restore = Restore(LOCAL_NUM_THREADS.with(|c| c.replace(self.num_threads)));
        op()
    }

    /// The pool's worker count (resolving 0 = automatic).
    pub fn current_num_threads(&self) -> usize {
        if self.num_threads > 0 {
            self.num_threads
        } else {
            current_num_threads()
        }
    }
}

/// Runs `a` on the calling thread and `b` on a scoped worker, returning
/// both results. Panics propagate like rayon's: a panic in either
/// closure panics the join.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    std::thread::scope(|s| {
        let hb = s.spawn(b);
        let ra = a();
        let rb = hb.join().expect("rayon::join closure panicked");
        (ra, rb)
    })
}

/// A scope for structured task spawning, passed to the [`scope`]
/// closure.
pub struct Scope<'scope, 'env> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a task that may outlive the closure but not the scope.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope, 'env>) + Send + 'scope,
    {
        let inner = self.inner;
        inner.spawn(move || f(&Scope { inner }));
    }
}

/// Creates a scope in which tasks can be spawned; blocks until every
/// spawned task finished (a panicking task panics the scope).
pub fn scope<'env, F, R>(f: F) -> R
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R + Send,
    R: Send,
{
    std::thread::scope(|s| f(&Scope { inner: s }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_returns_both_results() {
        let (a, b) = join(|| 6 * 7, || "ok");
        assert_eq!(a, 42);
        assert_eq!(b, "ok");
    }

    #[test]
    fn scope_spawn_runs_all_tasks() {
        use std::sync::atomic::AtomicU32;
        let hits = AtomicU32::new(0);
        scope(|s| {
            for _ in 0..8 {
                s.spawn(|_| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn nested_scope_spawn_is_supported() {
        use std::sync::atomic::AtomicU32;
        let hits = AtomicU32::new(0);
        scope(|s| {
            s.spawn(|s2| {
                s2.spawn(|_| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn current_num_threads_is_positive() {
        assert!(current_num_threads() >= 1);
    }

    #[test]
    fn install_scopes_the_worker_count_and_restores() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        assert_eq!(LOCAL_NUM_THREADS.with(Cell::get), 0);
        let inside = pool.install(current_num_threads);
        assert_eq!(inside, 2);
        // The thread-local override must not leak past install (the
        // global pin, exercised elsewhere, is a separate mechanism).
        assert_eq!(LOCAL_NUM_THREADS.with(Cell::get), 0);
        // Nested installs restore the outer override, not the default.
        let outer = ThreadPoolBuilder::new().num_threads(5).build().unwrap();
        let (o, i) = outer.install(|| (current_num_threads(), pool.install(current_num_threads)));
        assert_eq!((o, i), (5, 2));
        assert_eq!(outer.current_num_threads(), 5);
    }

    #[test]
    fn build_global_pins_thread_count() {
        // Serialize against other tests reading the global.
        ThreadPoolBuilder::new()
            .num_threads(3)
            .build_global()
            .unwrap();
        assert_eq!(current_num_threads(), 3);
        ThreadPoolBuilder::new()
            .num_threads(0)
            .build_global()
            .unwrap();
        assert!(current_num_threads() >= 1);
    }
}
