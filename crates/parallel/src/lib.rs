//! # ipds-parallel — deterministic scoped fan-out
//!
//! The campaign and fault engines run independently seeded attacks and
//! faults, and the fleet service flushes independent sessions; all three
//! fan their tasks out through [`map_indexed`] (the compiler runs
//! serially). One call is one [`std::thread::scope`]: the caller is
//! worker 0 and spawns `workers - 1` helpers, so borrowed inputs reach
//! them without `Arc`. Participants claim contiguous chunks of the index
//! space from one atomic cursor, so a slow chunk only stops its own
//! participant from claiming; each builds its state with `init` once per
//! call. The chunks come back through `join` tagged with their start
//! index and are stitched into index order, so the output is
//! **bit-identical** to the serial loop for any thread count and any
//! schedule. Batches below [`MIN_TASKS_PER_WORKER`] tasks per worker shed
//! workers ([`effective_workers`]); a one-worker batch runs inline on the
//! caller's thread. Standard library only, with no locks. See
//! `docs/PERF.md`.

use std::num::NonZeroUsize;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

/// Below this many tasks per worker, extra workers cost more in spawning
/// and claim traffic than they recover in parallelism; [`effective_workers`]
/// sheds them. A batch smaller than `2 * MIN_TASKS_PER_WORKER` therefore
/// runs inline on the caller's thread.
pub const MIN_TASKS_PER_WORKER: u32 = 8;

/// Picks a worker count: the machine's available parallelism capped at 8
/// (campaign and fault shards are short; more threads just pay
/// startup cost).
pub fn default_threads() -> usize {
    thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
        .min(8)
}

/// The worker count a `(tasks, threads)` batch is actually run on:
/// `threads`, clamped so every worker has at least [`MIN_TASKS_PER_WORKER`]
/// tasks. `1` means the batch runs inline on the caller's thread and no
/// thread is spawned.
pub fn effective_workers(tasks: u32, threads: usize) -> usize {
    let floor = (tasks / MIN_TASKS_PER_WORKER).max(1) as usize;
    threads.max(1).min(floor)
}

/// The chunk size for a given task/worker ratio: big enough to amortize
/// cursor claims, small enough that the tail still spreads over the
/// workers. Heavyweight shards (few tasks) degrade to chunk 1 — maximum
/// balance; huge index spaces claim in blocks.
fn chunk_size(tasks: u32, workers: usize) -> u32 {
    (tasks / (workers as u32 * 8)).clamp(1, 256)
}

/// Claims the next chunk `[lo, hi)` of `0..tasks` from the shared cursor,
/// or `None` once the index space is drained. The cursor is 64-bit: every
/// participant stops after its first failed claim, so it overshoots
/// `tasks` by at most one chunk per participant and cannot wrap for any
/// `u32` task count.
fn claim(cursor: &AtomicU64, tasks: u32, chunk: u32) -> Option<(u32, u32)> {
    let lo = cursor.fetch_add(u64::from(chunk), Ordering::Relaxed);
    let end = u64::from(tasks);
    (lo < end).then(|| (lo as u32, (lo + u64::from(chunk)).min(end) as u32))
}

/// Runs `run(worker_state, index)` for every index in `0..tasks` across
/// up to `threads` workers and returns the results **in index order**.
/// Each participating worker builds its state once with `init`.
///
/// `threads <= 1` (or a batch below the [`MIN_TASKS_PER_WORKER`] work
/// floor) degenerates to a plain serial loop over one worker state on the
/// calling thread — no spawn, identical results either way. Nested calls
/// are fine: a task that calls `map_indexed` opens its own scope.
///
/// # Panics
///
/// Re-raises a panic from any worker with that worker's own payload
/// (results produced by other workers are dropped, never observed).
pub fn map_indexed<W, R, I, F>(tasks: u32, threads: usize, init: I, run: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> W + Sync,
    F: Fn(&mut W, u32) -> R + Sync,
{
    let workers = effective_workers(tasks, threads);
    if workers <= 1 {
        let mut state = init();
        return (0..tasks).map(|i| run(&mut state, i)).collect();
    }

    let cursor = AtomicU64::new(0);
    let chunk = chunk_size(tasks, workers);
    // One participant's share: claim chunks until the cursor is drained and
    // return the `(chunk start, results)` runs. The worker state is built
    // and dropped on the participant's own thread.
    let participate = || {
        let mut state = init();
        let mut runs = Vec::new();
        while let Some((lo, hi)) = claim(&cursor, tasks, chunk) {
            runs.push((lo, (lo..hi).map(|i| run(&mut state, i)).collect::<Vec<R>>()));
        }
        runs
    };
    let mut runs = thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(participate)).collect();
        let mut runs = participate();
        for helper in helpers {
            match helper.join() {
                Ok(theirs) => runs.extend(theirs),
                Err(payload) => resume_unwind(payload),
            }
        }
        runs
    });

    // The runs partition `0..tasks`: sorted by start, they concatenate
    // into index order.
    runs.sort_unstable_by_key(|&(start, _)| start);
    let mut results = Vec::with_capacity(tasks as usize);
    for (_, chunk) in runs {
        results.extend(chunk);
    }
    debug_assert_eq!(results.len(), tasks as usize);
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicU32, AtomicUsize};

    /// One run counter per task index.
    fn run_counts(tasks: u32) -> Vec<AtomicU32> {
        (0..tasks).map(|_| AtomicU32::new(0)).collect()
    }

    fn each_ran_once(counts: &[AtomicU32]) -> bool {
        counts.iter().all(|c| c.load(Ordering::Relaxed) == 1)
    }

    #[test]
    fn results_are_in_index_order_for_any_thread_count() {
        let serial: Vec<u64> = (0..100).map(|i| (i as u64) * 3 + 1).collect();
        for threads in [0, 1, 2, 3, 7, 16] {
            let got = map_indexed(100, threads, || (), |(), i| (i as u64) * 3 + 1);
            assert_eq!(got, serial, "{threads} threads");
        }
    }

    #[test]
    fn worker_state_is_built_once_per_participant() {
        // Every task runs exactly once, and no participant rebuilds its
        // state per task or per chunk: at most one `init` per worker.
        for (tasks, threads) in [(0u32, 4), (1, 4), (7, 3), (50, 4), (100, 4), (1000, 8)] {
            let inits = AtomicUsize::new(0);
            let counts = run_counts(tasks);
            let results = map_indexed(
                tasks,
                threads,
                || inits.fetch_add(1, Ordering::Relaxed),
                |_, i| {
                    counts[i as usize].fetch_add(1, Ordering::Relaxed);
                    i
                },
            );
            assert_eq!(results, (0..tasks).collect::<Vec<_>>());
            assert!(each_ran_once(&counts), "{tasks}/{threads}");
            let inits = inits.into_inner();
            assert!(
                (1..=effective_workers(tasks, threads)).contains(&inits),
                "{tasks}/{threads}: {inits} inits"
            );
        }
    }

    #[test]
    fn zero_tasks_is_fine() {
        let inits = AtomicUsize::new(0);
        let results = map_indexed(0, 8, || inits.fetch_add(1, Ordering::Relaxed), |_, i| i);
        assert!(results.is_empty());
        assert_eq!(inits.into_inner(), 1, "serial degenerate path");
    }

    #[test]
    fn more_threads_than_tasks_caps_workers() {
        let inits = AtomicUsize::new(0);
        let results = map_indexed(3, 16, || inits.fetch_add(1, Ordering::Relaxed), |_, i| i);
        assert_eq!(results, vec![0, 1, 2]);
        assert!(inits.into_inner() <= 3);
    }

    #[test]
    fn small_batches_run_inline_without_dispatch() {
        // Below the work floor the batch must not spawn at all: one
        // worker state, built and used on the calling thread.
        let me = thread::current().id();
        for tasks in [0u32, 1, 5, 15] {
            let inits = AtomicUsize::new(0);
            let results = map_indexed(
                tasks,
                8,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    assert_eq!(thread::current().id(), me);
                },
                |(), i| {
                    assert_eq!(thread::current().id(), me);
                    u64::from(i) * 2
                },
            );
            assert_eq!(
                results,
                (0..u64::from(tasks)).map(|i| i * 2).collect::<Vec<_>>()
            );
            assert_eq!(inits.into_inner(), 1, "{tasks} tasks must run inline");
        }
        // The floor sheds surplus workers even when some threads spawn.
        assert_eq!(effective_workers(16, 8), 2);
        assert_eq!(effective_workers(100, 8), 8);
        assert_eq!(effective_workers(7, 3), 1);
    }

    #[test]
    fn the_cursor_hands_out_every_index_once_without_wrapping() {
        // The largest index space, with the cursor a few chunks from the
        // end: the claims must tile the tail exactly, and the failed
        // claims every participant makes afterwards must not wrap back
        // into it.
        let tasks = u32::MAX;
        let chunk = chunk_size(tasks, 8);
        assert_eq!(chunk, 256);
        let start = u64::from(tasks) - 3 * u64::from(chunk) - 17;
        let cursor = AtomicU64::new(start);
        let mut next = start;
        while let Some((lo, hi)) = claim(&cursor, tasks, chunk) {
            assert_eq!(u64::from(lo), next, "no index skipped or repeated");
            assert!(lo < hi && hi - lo <= chunk);
            next = u64::from(hi);
        }
        assert_eq!(next, u64::from(tasks), "the tail is fully handed out");
        for _ in 0..64 {
            assert_eq!(claim(&cursor, tasks, chunk), None);
        }
        assert!(cursor.load(Ordering::Relaxed) > u64::from(tasks));
    }

    #[test]
    fn borrowed_inputs_flow_into_workers() {
        let data: Vec<u64> = (0..40).collect();
        let got = map_indexed(40, 4, || (), |(), i| data[i as usize] * 2);
        assert_eq!(got, data.iter().map(|v| v * 2).collect::<Vec<_>>());
    }

    #[test]
    fn heap_results_survive_the_merge() {
        // Non-Copy results are moved through the join handles and the
        // index-order merge.
        let got = map_indexed(64, 4, || (), |(), i| vec![i; (i % 5) as usize]);
        for (i, v) in got.iter().enumerate() {
            assert_eq!(v.len(), i % 5);
            assert!(v.iter().all(|&x| x == i as u32));
        }
    }

    #[test]
    fn a_straggler_chunk_does_not_stall_the_batch() {
        // Task 0 spins for a long time; the remaining tasks must still all
        // run (on other workers when cores allow). Correctness — not
        // wall-clock — is asserted, so the test is sound on any core
        // count.
        let counts = run_counts(64);
        let got = map_indexed(
            64,
            4,
            || (),
            |(), i| {
                if i == 0 {
                    let mut acc = 0u64;
                    for k in 0..2_000_000u64 {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                    }
                    std::hint::black_box(acc);
                }
                counts[i as usize].fetch_add(1, Ordering::Relaxed);
                u64::from(i) * 7
            },
        );
        assert_eq!(got, (0..64u64).map(|i| i * 7).collect::<Vec<_>>());
        assert!(each_ran_once(&counts));
    }

    #[test]
    fn repeated_calls_match_the_serial_loop() {
        // 100 consecutive batches must each be bit-identical to the serial
        // loop and run every task exactly once, at every thread count.
        let serial: Vec<u64> = (0..200)
            .map(|i| (i as u64).wrapping_mul(0x9e37) ^ 7)
            .collect();
        for threads in [1usize, 2, 4, 8] {
            for call in 0..100 {
                let counts = run_counts(200);
                let got = map_indexed(
                    200,
                    threads,
                    || (),
                    |(), i| {
                        counts[i as usize].fetch_add(1, Ordering::Relaxed);
                        (u64::from(i)).wrapping_mul(0x9e37) ^ 7
                    },
                );
                assert_eq!(got, serial, "call {call} at {threads} threads");
                assert!(each_ran_once(&counts), "call {call} at {threads} threads");
            }
        }
    }

    #[test]
    fn nested_calls_match_the_serial_loop() {
        // A task that itself calls map_indexed opens its own scope; the
        // results are the serial loop's.
        let got = map_indexed(
            64,
            4,
            || (),
            |(), i| {
                let inner = map_indexed(64, 4, || (), |(), j| u64::from(j));
                inner.iter().sum::<u64>() + u64::from(i)
            },
        );
        let expect: Vec<u64> = (0..64u64).map(|i| (0..64).sum::<u64>() + i).collect();
        assert_eq!(got, expect);
    }

    /// The message of a caught panic, whichever string type carries it.
    fn panic_message(payload: &(dyn std::any::Any + Send)) -> Option<&str> {
        payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_with_its_payload() {
        // A panicking task (on whichever worker claims it) and a panicking
        // helper (every spawned thread fails in `init`) both reach the
        // caller with their own payload.
        let me = thread::current().id();
        let task = catch_unwind(AssertUnwindSafe(|| {
            map_indexed(
                64,
                4,
                || (),
                |(), i| {
                    assert!(i != 33, "injected failure");
                    i
                },
            )
        }));
        let helper = catch_unwind(AssertUnwindSafe(|| {
            map_indexed(
                64,
                4,
                || assert!(thread::current().id() == me, "injected failure"),
                |(), i| i,
            )
        }));
        for (what, outcome) in [("task", task), ("helper", helper)] {
            let payload = outcome.expect_err("the panic must propagate to the caller");
            assert_eq!(panic_message(&*payload), Some("injected failure"), "{what}");
        }
        // Later calls still return the serial results.
        let got = map_indexed(64, 4, || (), |(), i| i * 2);
        assert_eq!(got, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }
    #[test]
    fn default_threads_is_sane() {
        assert!((1..=8).contains(&default_threads()));
    }
}
