//! Scoped fan-out for the workspace's independent analysis runs: capacity
//! probes, Pareto steps, `sdfr batch` units and registry prefetching.
//!
//! Each run is an independent Algorithm-1 execution folded in index order,
//! so [`map_chunked`] is a scoped map over index-addressed slots: under
//! [`std::thread::scope`], the caller and up to [`threads`]` − 1` helpers
//! claim contiguous index chunks from one atomic counter, and the chunks'
//! results are concatenated in ascending order. The output is exactly
//! `(0..n).map(f)` at every width, and no thread outlives the call. With a
//! width of 1, when one chunk covers `n`, or inside another fan-out, it is
//! the plain serial map on the calling thread, so nesting never multiplies
//! threads.
//!
//! ```
//! let squares = sdfr_pool::with_threads(4, || sdfr_pool::map_chunked(8, 2, |i| i * i));
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Process-wide fan-out counters (see [`PoolStats`]).
static SPAWNED: AtomicU64 = AtomicU64::new(0);
static STOLEN: AtomicU64 = AtomicU64::new(0);
static EXECUTED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The calling thread's [`with_threads`] override.
    static WIDTH: Cell<Option<usize>> = const { Cell::new(None) };
    /// Set while this thread runs a fan-out's chunks.
    static IN_FAN_OUT: Cell<bool> = const { Cell::new(false) };
    /// This thread's helper slot, on fan-out helpers.
    static HELPER: Cell<Option<usize>> = const { Cell::new(None) };
}

/// A snapshot of the process-wide fan-out counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// The calling thread's [`threads`].
    pub threads: usize,
    /// Chunks handed out by parallel fan-outs.
    pub spawned: u64,
    /// Chunks run on a helper thread rather than the caller.
    pub stolen: u64,
    /// Chunks run to completion.
    pub executed: u64,
}

/// The current [`threads`] and the lifetime fan-out counters.
#[must_use]
pub fn stats() -> PoolStats {
    PoolStats {
        threads: threads(),
        spawned: SPAWNED.load(Ordering::Relaxed),
        stolen: STOLEN.load(Ordering::Relaxed),
        executed: EXECUTED.load(Ordering::Relaxed),
    }
}

/// The width of a fan-out started on the calling thread: 1 inside a
/// fan-out, else the innermost [`with_threads`], else [`default_threads`].
#[must_use]
pub fn threads() -> usize {
    if IN_FAN_OUT.get() {
        return 1;
    }
    WIDTH.get().unwrap_or_else(default_threads)
}

/// Runs `f` with fan-outs on this thread `threads` wide, restoring the
/// previous width on exit, panic included.
///
/// # Panics
///
/// Panics if `threads == 0`; front-ends report a usage error first.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    assert!(threads >= 1, "a fan-out needs at least one thread");
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            WIDTH.set(self.0);
        }
    }
    let _restore = Restore(WIDTH.replace(Some(threads)));
    f()
}

/// A chunk size for `n` items: about four chunks per [`threads`], so
/// threads that finish early claim more.
#[must_use]
pub fn chunk_size(n: usize) -> usize {
    n.div_ceil(threads() * 4).max(1)
}

/// Evaluates `f(0..n)` in index order, one claim per contiguous chunk of
/// `chunk` indices (`0` counts as 1), each chunk in ascending order on one
/// thread: the caller plus `min(threads, chunks) − 1` scoped helpers.
///
/// # Panics
///
/// A panic in `f` is re-raised here, with its original payload, once every
/// helper has joined.
pub fn map_chunked<R: Send>(n: usize, chunk: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let chunk = chunk.max(1);
    let chunks = n.div_ceil(chunk);
    let width = threads().min(chunks);
    if width <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let ran = Mutex::new(Vec::with_capacity(chunks));
    // Claims chunks until none is left, then files this thread's results
    // under their chunk numbers.
    let claim = || {
        let mut done = Vec::new();
        loop {
            let c = next.fetch_add(1, Ordering::Relaxed);
            if c >= chunks {
                break;
            }
            SPAWNED.fetch_add(1, Ordering::Relaxed);
            let items: Vec<R> = (c * chunk..n.min((c + 1) * chunk)).map(&f).collect();
            done.push((c, items));
            EXECUTED.fetch_add(1, Ordering::Relaxed);
            STOLEN.fetch_add(u64::from(HELPER.get().is_some()), Ordering::Relaxed);
        }
        ran.lock()
            .expect("nothing panics holding it")
            .append(&mut done);
    };
    if let Err(payload) = fan_out(width, &claim) {
        resume_unwind(payload);
    }
    let mut ran = ran.into_inner().expect("nothing panics holding it");
    ran.sort_unstable_by_key(|&(c, _)| c);
    ran.into_iter().flat_map(|(_, items)| items).collect()
}

/// Runs `claim` on the caller and `width − 1` scoped helpers (a helper that
/// cannot be spawned leaves its chunks to the others), joins them, and
/// returns the first panic payload. Not generic, so one copy of the thread
/// machinery serves every [`map_chunked`] instance.
fn fan_out(width: usize, claim: &(dyn Fn() + Sync)) -> std::thread::Result<()> {
    std::thread::scope(|s| {
        let helpers: Vec<_> = (0..width - 1)
            .filter_map(|i| {
                std::thread::Builder::new()
                    .name(format!("sdfr-pool-{i}"))
                    .spawn_scoped(s, move || {
                        IN_FAN_OUT.set(true);
                        HELPER.set(Some(i));
                        claim();
                    })
                    .ok()
            })
            .collect();
        let outer = IN_FAN_OUT.replace(true);
        let own = catch_unwind(AssertUnwindSafe(claim));
        IN_FAN_OUT.set(outer);
        helpers.into_iter().map(|h| h.join()).fold(own, Result::and)
    })
}

/// The calling thread's helper slot: `Some(0..threads − 1)` on a fan-out
/// helper, `None` elsewhere. Per-thread scratch shards (the buffer
/// searcher's seeders) use it to claim a contention-free slot.
#[must_use]
pub fn worker_index() -> Option<usize> {
    HELPER.get()
}

/// Reads the `SDFR_THREADS` override: `Ok(None)` when unset, the count when
/// set to a positive integer, and the message front-ends report as a usage
/// error when set to anything else — including `0`.
pub fn env_threads() -> Result<Option<NonZeroUsize>, String> {
    let Ok(raw) = std::env::var("SDFR_THREADS") else {
        return Ok(None);
    };
    let bad = || format!("SDFR_THREADS must be a positive integer, got '{raw}'");
    raw.trim().parse().map(Some).map_err(|_| bad())
}

/// The width without a [`with_threads`] override, read once per process: a
/// valid `SDFR_THREADS`, else the available parallelism (an invalid value
/// is ignored here; front-ends reject it with [`env_threads`]).
#[must_use]
pub fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| match env_threads() {
        Ok(Some(n)) => n.get(),
        _ => std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::Mutex;
    use std::time::Duration;

    #[test]
    fn one_thread_pool_runs_tasks_in_submission_order() {
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        with_threads(1, || {
            map_chunked(16, 1, |i| {
                assert_eq!(std::thread::current().id(), caller);
                order.lock().unwrap().push(i);
            })
        });
        assert_eq!(*order.lock().unwrap(), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn map_indexed_matches_serial_on_any_width() {
        for threads in [1, 2, 4] {
            let got = with_threads(threads, || map_chunked(37, 1, |i| i * 3 + 1));
            assert_eq!(got, (0..37).map(|i| i * 3 + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn chunked_map_matches_serial_for_any_chunk_size() {
        for threads in [1, 2, 4] {
            for chunk in [0, 1, 2, 3, 7, 37, 100] {
                let got = with_threads(threads, || map_chunked(37, chunk, |i| i * 3 + 1));
                assert_eq!(
                    got,
                    (0..37).map(|i| i * 3 + 1).collect::<Vec<_>>(),
                    "threads={threads} chunk={chunk}"
                );
            }
        }
    }

    #[test]
    fn chunk_size_is_positive_and_covers_n() {
        for threads in [1, 2, 8] {
            for n in [0, 1, 5, 100, 10_000] {
                let c = with_threads(threads, || chunk_size(n));
                assert!(c >= 1);
                assert!(c * threads * 4 >= n, "threads={threads} n={n} chunk={c}");
            }
        }
    }

    #[test]
    fn worker_index_is_none_off_pool_and_some_on_workers() {
        assert_eq!(worker_index(), None);
        let seen: BTreeSet<_> = with_threads(3, || {
            map_chunked(64, 1, |_| {
                // Give the other threads a chance to claim a chunk.
                std::thread::sleep(Duration::from_millis(1));
                worker_index()
            })
        })
        .into_iter()
        .collect();
        // The caller shows up as None, the two helpers as 0 and 1.
        assert!(seen.iter().flatten().all(|&i| i < 2), "{seen:?}");
        assert_eq!(worker_index(), None);
    }

    #[test]
    fn nested_scopes_make_progress() {
        // More outer items than threads, each opening an inner fan-out: the
        // inner ones run inline on the thread that runs the outer item.
        let hits = with_threads(2, || {
            map_chunked(8, 1, |_| {
                let outer = std::thread::current().id();
                let inner = map_chunked(4, 1, |_| std::thread::current().id() == outer);
                inner.into_iter().filter(|&same| same).count()
            })
        });
        assert_eq!(hits.into_iter().sum::<usize>(), 32);
    }

    #[test]
    fn with_threads_overrides_width_and_restores() {
        let outside = threads();
        with_threads(3, || {
            assert_eq!(threads(), 3);
            assert_eq!(with_threads(5, threads), 5);
            assert_eq!(threads(), 3);
            // Inside a fan-out the width is 1: nested fan-outs run inline.
            assert_eq!(map_chunked(6, 1, |_| threads()), vec![1; 6]);
        });
        assert_eq!(threads(), outside);
        let caught = catch_unwind(|| with_threads(7, || panic!("boom")));
        assert!(caught.is_err());
        assert_eq!(threads(), outside, "restored after a panic");
    }

    #[test]
    fn env_threads_validation() {
        // Run single-threaded over the env var to avoid cross-test races:
        // this test is the only one touching SDFR_THREADS in this crate.
        std::env::remove_var("SDFR_THREADS");
        assert_eq!(env_threads(), Ok(None));
        std::env::set_var("SDFR_THREADS", "3");
        assert_eq!(env_threads(), Ok(Some(NonZeroUsize::new(3).unwrap())));
        for bad in ["0", "-1", "many", ""] {
            std::env::set_var("SDFR_THREADS", bad);
            let err = env_threads().unwrap_err();
            assert!(err.to_string().contains("positive integer"), "{err}");
        }
        std::env::remove_var("SDFR_THREADS");
    }
}
