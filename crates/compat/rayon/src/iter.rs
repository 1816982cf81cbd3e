//! Order-preserving indexed parallel iterators.
//!
//! The model is deliberately eager and simple: an adaptor chain is a
//! list of items plus a composed `Sync` mapping; a terminal operation
//! (`collect`, `for_each`, `sum`, `count`) drains the items through a
//! scoped worker pool. Workers pull indices from a shared atomic cursor
//! and push `(index, result)` pairs into thread-local buffers; the
//! terminal then merges the buffers **by index**, so the observable
//! output is identical to the sequential order regardless of
//! scheduling. That is the determinism contract the sweep runners in
//! `recluster-sim` build on.
//!
//! Each item costs one `Mutex` plus its share of the final index sort,
//! so items should be coarse (a sweep cell, a range of peers). Bulk
//! per-index walks go through `recluster_core::shard::map_ranges`,
//! which maps contiguous ranges rather than single indices.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::current_num_threads;

/// Types convertible into a parallel iterator by value.
pub trait IntoParallelIterator {
    /// The iterator's item type.
    type Item: Send;
    /// The concrete parallel iterator.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Converts `self`.
    fn into_par_iter(self) -> Self::Iter;
}

/// `par_iter()` on shared references (rayon's `IntoParallelRefIterator`).
pub trait IntoParallelRefIterator<'data> {
    /// The by-reference item type.
    type Item: Send;
    /// The concrete parallel iterator.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Borrowing counterpart of `into_par_iter`.
    fn par_iter(&'data self) -> Self::Iter;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Item = &'data T;
    type Iter = ParIter<&'data T>;
    fn par_iter(&'data self) -> Self::Iter {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Item = &'data T;
    type Iter = ParIter<&'data T>;
    fn par_iter(&'data self) -> Self::Iter {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = ParIter<T>;
    fn into_par_iter(self) -> Self::Iter {
        ParIter { items: self }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    type Iter = ParIter<usize>;
    fn into_par_iter(self) -> Self::Iter {
        ParIter {
            items: self.collect(),
        }
    }
}

/// An indexed parallel iterator.
pub trait ParallelIterator: Sized {
    /// Item type produced by the iterator.
    type Item: Send;

    /// Drains the iterator into a vector of items **in index order**.
    fn drain_ordered(self) -> Vec<Self::Item>;

    /// Maps every item through `f` (applied on the worker threads).
    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync,
    {
        Map { base: self, f }
    }

    /// Collects the mapped items in index order.
    fn collect<C: FromIterator<Self::Item>>(self) -> C {
        self.drain_ordered().into_iter().collect()
    }

    /// Runs `f` on every item (on the worker threads); completion order
    /// of side effects is unspecified, as in rayon.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync,
    {
        let _ = self.map(f).drain_ordered();
    }

    /// Number of items.
    fn count(self) -> usize {
        self.drain_ordered().len()
    }

    /// Sums the items.
    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item>,
    {
        self.drain_ordered().into_iter().sum()
    }
}

/// The source iterator over a list of items.
pub struct ParIter<T: Send> {
    items: Vec<T>,
}

impl<T: Send> ParallelIterator for ParIter<T> {
    type Item = T;

    fn drain_ordered(self) -> Vec<T> {
        self.items
    }
}

/// The `map` adaptor.
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

    fn drain_ordered(self) -> Vec<R> {
        run_indexed(self.base.drain_ordered(), &self.f)
    }
}

/// Applies `f` to every item on a scoped worker pool and returns the
/// results in index order.
fn run_indexed<T: Send, R: Send>(items: Vec<T>, f: &(impl Fn(T) -> R + Sync)) -> Vec<R> {
    let n = items.len();
    let workers = current_num_threads().min(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Hand out items through a mutex-guarded queue of (index, item) and
    // an atomic cursor; collect (index, result) per worker, then merge
    // in index order. Coarse items amortize the synchronization.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let cursor = AtomicUsize::new(0);
    let mut buckets: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let item = slots[i]
                            .lock()
                            .expect("work item lock poisoned")
                            .take()
                            .expect("work item claimed twice");
                        local.push((i, f(item)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    });

    let mut indexed: Vec<(usize, R)> = Vec::with_capacity(n);
    for bucket in &mut buckets {
        indexed.append(bucket);
    }
    indexed.sort_unstable_by_key(|&(i, _)| i);
    debug_assert!(indexed.iter().enumerate().all(|(k, &(i, _))| k == i));
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_preserves_index_order() {
        let squares: Vec<usize> = (0..1000).into_par_iter().map(|i| i * i).collect();
        let expected: Vec<usize> = (0..1000).map(|i| i * i).collect();
        assert_eq!(squares, expected);
    }

    #[test]
    fn par_iter_borrows_and_preserves_order() {
        let words = vec!["a", "bb", "ccc", "dddd"];
        let lens: Vec<usize> = words.par_iter().map(|w| w.len()).collect();
        assert_eq!(lens, vec![1, 2, 3, 4]);
    }

    #[test]
    fn uneven_work_still_merges_in_order() {
        // Heavier work at low indices: late completion must not reorder.
        let out: Vec<u64> = (0..64)
            .into_par_iter()
            .map(|i| {
                let spins = if i < 8 { 20_000 } else { 10 };
                let mut acc = i as u64;
                for k in 0..spins {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                }
                std::hint::black_box(acc);
                i as u64
            })
            .collect();
        let expected: Vec<u64> = (0..64).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn for_each_visits_every_item() {
        use std::sync::atomic::AtomicU64;
        let sum = AtomicU64::new(0);
        (1..101usize).into_par_iter().for_each(|i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn sum_and_count_work() {
        assert_eq!((0..10usize).into_par_iter().count(), 10);
        let total: usize = (1..11usize).into_par_iter().sum();
        assert_eq!(total, 55);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<usize> = Vec::<usize>::new().into_par_iter().map(|i| i).collect();
        assert!(out.is_empty());
    }
}
