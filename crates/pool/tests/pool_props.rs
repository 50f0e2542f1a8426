//! Differential and stress tests for the scoped fan-out: random trees of
//! nested fan-outs and chunked maps evaluate exactly like serial code at
//! every width, nested fan-outs run inline, chunk panics reach the caller
//! with their payload, and every one of 10,000 chunks runs exactly once.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;

use proptest::collection;
use proptest::prelude::*;
use sdfr_pool::{map_chunked, with_threads};

/// A cheap but order-sensitive mixing function standing in for "work".
fn chaos(x: u64) -> u64 {
    let mut h = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 32;
    h.wrapping_mul(31).rotate_left(7)
}

/// Records `node`'s result and the thread that computed it, then fans its
/// children out from inside the parent's own chunk: a random-shaped tree
/// of nested fan-outs.
fn visit(
    node: usize,
    children: &[Vec<usize>],
    values: &[u64],
    slots: &[AtomicU64],
    threads: &Mutex<HashSet<ThreadId>>,
) {
    slots[node].store(chaos(values[node]), Ordering::Relaxed);
    threads.lock().unwrap().insert(std::thread::current().id());
    let kids = &children[node];
    map_chunked(kids.len(), 1, |k| {
        visit(kids[k], children, values, slots, threads);
    });
}

/// The distinct threads that ran `f(i)` for `outer × inner` nested items.
fn nested_thread_ids(width: usize, outer: usize, inner: usize) -> (usize, HashSet<ThreadId>) {
    let seen = Mutex::new(HashSet::new());
    let inline = with_threads(width, || {
        map_chunked(outer, 1, |_| {
            let me = std::thread::current().id();
            seen.lock().unwrap().insert(me);
            map_chunked(inner, 1, |_| std::thread::current().id() == me)
                .into_iter()
                .filter(|&same| same)
                .count()
        })
    });
    (inline.into_iter().sum(), seen.into_inner().unwrap())
}

proptest! {
    /// Random fan-out trees (parent of node i drawn from 0..i, so every
    /// shape from a chain to a star occurs) produce the same per-node
    /// results as serial evaluation at widths 1..=8, on at most `width`
    /// threads.
    #[test]
    fn random_spawn_trees_match_serial_execution(
        values in collection::vec(any::<u64>(), 1..48usize),
        width in 1usize..9,
    ) {
        let n = values.len();
        let mut children = vec![Vec::new(); n];
        for i in 1..n {
            children[(values[i] as usize) % i].push(i);
        }
        let expected: Vec<u64> = values.iter().map(|&v| chaos(v)).collect();

        let slots: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let threads = Mutex::new(HashSet::new());
        with_threads(width, || visit(0, &children, &values, &slots, &threads));
        let got: Vec<u64> = slots.iter().map(|a| a.load(Ordering::Relaxed)).collect();
        prop_assert_eq!(got, expected);
        prop_assert!(threads.into_inner().unwrap().len() <= width);
    }

    /// A chunk size of 1 is a drop-in for serial iteration: same values,
    /// same order, at every width.
    #[test]
    fn map_indexed_matches_serial_at_any_width(
        values in collection::vec(any::<u64>(), 0..64usize),
        width in 1usize..9,
    ) {
        let got = with_threads(width, || map_chunked(values.len(), 1, |i| chaos(values[i])));
        let expected: Vec<u64> = values.iter().map(|&v| chaos(v)).collect();
        prop_assert_eq!(got, expected);
    }

    /// `map_chunked` is byte-identical to serial iteration for *every*
    /// (width, chunk) combination — chunk 0, chunk 1, chunks that divide
    /// `n`, chunks that don't, and chunks larger than `n`. This is the
    /// determinism contract the coarse-grained capacity-probe and Pareto
    /// fan-outs rely on: chunking may only change wall-clock, never values
    /// or order.
    #[test]
    fn chunked_map_matches_serial_at_any_width_and_chunk(
        values in collection::vec(any::<u64>(), 0..96usize),
        width in 1usize..9,
        chunk in 0usize..128,
    ) {
        let got = with_threads(width, || map_chunked(values.len(), chunk, |i| chaos(values[i])));
        let expected: Vec<u64> = values.iter().map(|&v| chaos(v)).collect();
        prop_assert_eq!(got, expected);
    }

    /// The default chunk size is always usable: positive, and never so
    /// large that a single chunk hides all parallelism when there is more
    /// than one thread and enough items to split.
    #[test]
    fn chunk_size_is_sound(n in 0usize..10_000, width in 1usize..9) {
        let chunk = with_threads(width, || sdfr_pool::chunk_size(n));
        prop_assert!(chunk >= 1);
        // Ceil division: the chunks cover n with no more than
        // width * CHUNKS_PER_THREAD pieces.
        prop_assert!(chunk.saturating_mul(width * 4) >= n);
    }
}

#[test]
fn nested_fan_out_runs_inline() {
    for width in [1, 2, 4, 8] {
        let (inline, threads) = nested_thread_ids(width, 32, 8);
        assert_eq!(
            inline,
            32 * 8,
            "every inner item ran on its outer item's thread"
        );
        assert!(
            threads.len() <= width,
            "width {width}: {} threads",
            threads.len()
        );
    }
}

#[test]
fn panic_in_task_propagates_with_its_payload() {
    let caught = catch_unwind(AssertUnwindSafe(|| {
        with_threads(4, || {
            map_chunked(16, 1, |i| {
                if i == 7 {
                    panic!("task 7 exploded");
                }
            })
        })
    }))
    .expect_err("the fan-out must re-raise the chunk panic");
    let msg = caught
        .downcast_ref::<&str>()
        .copied()
        .expect("payload is the original &str");
    assert_eq!(msg, "task 7 exploded");
    // A panicked fan-out leaves nothing behind: the next one runs normally.
    let doubled = with_threads(4, || map_chunked(4, 1, |i| i * 2));
    assert_eq!(doubled, vec![0, 2, 4, 6]);
}

#[test]
fn formatted_panic_payload_reaches_the_caller_as_a_string() {
    let caught = catch_unwind(AssertUnwindSafe(|| {
        with_threads(3, || {
            map_chunked(12, 2, |i| {
                if i == 9 {
                    panic!("chunk item {i} exploded");
                }
            })
        })
    }))
    .expect_err("the fan-out must re-raise the chunk panic");
    assert_eq!(
        caught.downcast_ref::<String>().map(String::as_str),
        Some("chunk item 9 exploded")
    );
}

#[test]
fn panic_in_nested_scope_unwinds_through_the_outer_scope() {
    let caught = catch_unwind(AssertUnwindSafe(|| {
        with_threads(2, || {
            map_chunked(2, 1, |i| {
                // The inner fan-out runs inline and panics on this thread;
                // the outer fan-out re-raises it at the caller.
                map_chunked(2, 1, |j| {
                    if i == 1 && j == 1 {
                        panic!("inner task");
                    }
                });
            })
        })
    }))
    .expect_err("nested panic must reach the outermost caller");
    assert_eq!(
        caught.downcast_ref::<&str>().copied(),
        Some("inner task"),
        "original payload survives both fan-outs"
    );
}

#[test]
fn stress_8_workers_account_for_every_task() {
    const TASKS: usize = 10_000;
    let before = sdfr_pool::stats();
    let runs: Vec<AtomicU8> = (0..TASKS).map(|_| AtomicU8::new(0)).collect();
    let sum: u64 = with_threads(8, || {
        assert_eq!(sdfr_pool::stats().threads, 8);
        map_chunked(TASKS, 1, |i| {
            runs[i].fetch_add(1, Ordering::Relaxed);
            chaos(i as u64) % 1000
        })
    })
    .into_iter()
    .sum();
    let expected: u64 = (0..TASKS as u64).map(|i| chaos(i) % 1000).sum();
    assert_eq!(sum, expected);
    assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
    // The counters are process-wide and other tests run concurrently, so
    // this fan-out's chunks are a lower bound on the growth.
    let after = sdfr_pool::stats();
    assert!(after.spawned - before.spawned >= TASKS as u64, "{after:?}");
    assert!(
        after.executed - before.executed >= TASKS as u64,
        "{after:?}"
    );
}

#[test]
fn stress_nested_scopes_under_contention() {
    // 64 outer items each opening an inner fan-out of 16 at width 8: all
    // 1024 inner items run, inline, on at most 8 threads.
    let (inline, threads) = nested_thread_ids(8, 64, 16);
    assert_eq!(inline, 64 * 16);
    assert!(threads.len() <= 8);
}

#[test]
fn invalid_sdfr_threads_is_a_usage_error() {
    // Only invalid values are set, which the default width ignores, so
    // concurrently running tests are unaffected.
    let original = std::env::var_os("SDFR_THREADS");
    for bad in ["0", "garbage"] {
        std::env::set_var("SDFR_THREADS", bad);
        let err = sdfr_pool::env_threads().expect_err("invalid SDFR_THREADS is rejected");
        assert!(err.to_string().contains("positive integer"), "{err}");
        assert!(sdfr_pool::default_threads() >= 1);
    }
    match original {
        Some(v) => std::env::set_var("SDFR_THREADS", v),
        None => std::env::remove_var("SDFR_THREADS"),
    }
}
