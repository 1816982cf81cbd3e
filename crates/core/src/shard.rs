//! Peer-range sharding of bulk walks.
//!
//! Every O(peers) or O(queries) bulk walk of a round — the `CostCache`
//! dirty-set flush and wholesale rebuild, the tracker's per-period
//! query walk, and the protocol engine's phase-1 proposal fan-out — is
//! a *pure per-index map*: every output depends only on its own
//! slot/query/peer plus shared read-only state. Such a walk is fanned
//! over contiguous index ranges and merged back **in index order**,
//! making the parallel result byte-identical to the sequential walk no
//! matter how the OS schedules the workers (`prop_sharded_flush` and
//! the CI 1/2/8-thread determinism matrix hold it).
//!
//! [`map_ranges`] is the one primitive: split `0..len` into contiguous
//! ranges (a few per worker), run the range closure on the rayon shim's
//! pool, concatenate range results in range order. Because ranges are
//! contiguous and ascending, concatenation *is* index order — the chunk
//! count (which varies with the worker count) can never reach the
//! output bytes. A few dozen coarse ranges, not one shim work item per
//! index, also keep the shim's per-item `Mutex` and index sort off
//! the hot path.
//!
//! Sharding engages only when the walk is at least
//! [`shard_min`] items long (`RECLUSTER_SHARD_MIN`, default 4096):
//! below that the scoped-thread setup costs more than the walk. Every
//! caller, phase 1 included, takes that decision through
//! [`should_shard`] and then calls [`map_ranges`].

use std::ops::Range;
use std::sync::OnceLock;

use rayon::prelude::*;

/// Default minimum walk length before a bulk walk shards.
const DEFAULT_SHARD_MIN: usize = 4096;

/// The `RECLUSTER_SHARD_MIN` environment knob, read once.
fn env_shard_min() -> usize {
    static MIN: OnceLock<usize> = OnceLock::new();
    *MIN.get_or_init(|| {
        match std::env::var("RECLUSTER_SHARD_MIN") {
            Ok(raw) => match raw.parse::<usize>() {
                // 0 would shard empty walks and divide by zero nowhere,
                // but "never shard" is spelled usize::MAX, not 0 — treat
                // 0 as "shard everything" (threshold 1).
                Ok(v) => v.max(1),
                Err(_) => {
                    eprintln!("unknown RECLUSTER_SHARD_MIN={raw:?}, ignoring");
                    DEFAULT_SHARD_MIN
                }
            },
            Err(_) => DEFAULT_SHARD_MIN,
        }
    })
}

thread_local! {
    /// Per-thread test override of the shard threshold; `None` defers
    /// to the environment knob. Thread-local (like the rayon shim's
    /// `ThreadPool::install` override) so a test forcing the sharded
    /// path can never race another test thread.
    static SHARD_MIN_OVERRIDE: std::cell::Cell<Option<usize>> =
        const { std::cell::Cell::new(None) };
}

/// Overrides the shard threshold on **this thread** (tests and benches:
/// force the sharded path with `Some(1)`, force sequential with
/// `Some(usize::MAX)`); `None` restores the `RECLUSTER_SHARD_MIN`
/// environment knob. The sharding decision is taken on the calling
/// thread, so this composes with `ThreadPool::install`.
pub fn set_shard_min_override(min: Option<usize>) {
    SHARD_MIN_OVERRIDE.with(|c| c.set(min));
}

/// The minimum walk length at which bulk walks shard across the rayon
/// shim's pool: the thread-local override if one is installed, else
/// `RECLUSTER_SHARD_MIN`, else 4096.
pub fn shard_min() -> usize {
    SHARD_MIN_OVERRIDE
        .with(std::cell::Cell::get)
        .unwrap_or_else(env_shard_min)
}

/// Whether a walk of `len` pure per-index computations should shard.
pub fn should_shard(len: usize) -> bool {
    len >= shard_min() && rayon::current_num_threads() > 1
}

/// Splits `0..len` into at most `chunks` contiguous ascending ranges of
/// near-equal size (the first `len % chunks` ranges are one longer).
/// Empty for `len == 0`.
fn split_ranges(len: usize, chunks: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let chunks = chunks.clamp(1, len);
    let base = len / chunks;
    let extra = len % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    for i in 0..chunks {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    out
}

/// Fans `f` over contiguous ranges covering `0..len` and returns the
/// per-range results **in range order**. `f` must be a pure function of
/// its range (plus shared `Sync` state): under that contract,
/// concatenating the results reproduces the sequential walk bytewise,
/// whatever the worker count.
///
/// A few ranges per worker (not one) keep the tail balanced when ranges
/// carry uneven work, while staying coarse enough that the shim's
/// shared work queue is amortized away.
pub fn map_ranges<R, F>(len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let chunks = rayon::current_num_threads().saturating_mul(4).max(1);
    split_ranges(len, chunks).into_par_iter().map(f).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_covers_exactly_once_in_order() {
        for len in [0usize, 1, 2, 7, 16, 1000] {
            for chunks in [1usize, 2, 3, 8, 64] {
                let ranges = split_ranges(len, chunks);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "len {len} chunks {chunks}");
                    assert!(r.end > r.start, "no empty ranges");
                    next = r.end;
                }
                assert_eq!(next, len);
                if len > 0 {
                    assert!(ranges.len() <= chunks.max(1));
                }
            }
        }
    }

    #[test]
    fn map_ranges_concatenates_to_sequential_order() {
        let out: Vec<usize> = map_ranges(1000, |r| r.map(|i| i * 3).collect::<Vec<_>>())
            .into_iter()
            .flatten()
            .collect();
        let expected: Vec<usize> = (0..1000).map(|i| i * 3).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn override_is_thread_local_and_restores() {
        set_shard_min_override(Some(1));
        assert_eq!(shard_min(), 1);
        let other = std::thread::spawn(shard_min).join().unwrap();
        assert_eq!(other, env_shard_min(), "override leaked across threads");
        set_shard_min_override(None);
        assert_eq!(shard_min(), env_shard_min());
    }
}
