//! # ipds-parallel — the deterministic persistent worker pool
//!
//! The runtime side of the system fans embarrassingly parallel work over
//! threads: the campaign and fault engines run independently seeded
//! attacks and faults, and the fleet service flushes independent sessions.
//! They need the *same* contract, so the pool lives here, below all of
//! them (the compiler's per-function passes run serially):
//!
//! * **Persistent workers.** A [`Pool`] spawns its worker threads once and
//!   parks them on a condvar between calls. Repeated [`map_indexed`] calls
//!   are broadcast to the *same* threads — the per-call cost is one mutex
//!   round-trip and a wakeup, not a fleet of `clone(2)` calls. The
//!   process-wide [`Pool::global`] instance is what the free function
//!   uses, so every campaign shard, fault batch and fleet flush in a
//!   process shares one set of threads.
//! * **One claim cursor.** Participants take contiguous *chunks* of the
//!   index space from one shared atomic cursor (chunk size adapts to the
//!   task/worker ratio, so claim traffic is a small constant per worker,
//!   not one atomic RMW per task). A participant stuck on a slow chunk
//!   only stops claiming; the others keep draining the cursor around it.
//! * **Deterministic merge.** Each participant hands back the chunks it
//!   ran, tagged with their start index, through a slot it writes once;
//!   the chunks partition the index space, so the submitter stitches them
//!   into index order and the output of [`map_indexed`] is
//!   **bit-identical** to the serial loop for any thread count and any
//!   scheduling. Callers fold aggregates over that ordered output.
//! * **Per-worker state.** Each participating worker owns one `W` built by
//!   the `init` closure (an interpreter arena, a checker); it lives for the
//!   whole call — *never* rebuilt per task or per chunk — and is dropped
//!   when the participant finishes.
//! * **A work floor.** Dispatching a batch smaller than
//!   [`MIN_TASKS_PER_WORKER`] tasks per worker wakes workers that find
//!   the cursor already drained, so [`effective_workers`] clamps the
//!   worker count to the batch size and tiny batches run inline on the
//!   caller's thread — no wakeup at all.
//!
//! Standard library only — no external dependencies, and borrowed inputs
//! (programs, analyses, traces) flow into workers without `Arc`: a call
//! publishes a lifetime-erased pointer to its stack context, participates
//! in its own batch, and does not return until every worker that touched
//! the batch has finished with it.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread;

/// Below this many tasks per worker, extra workers cost more in dispatch
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

/// The worker count a `(tasks, threads)` batch is actually dispatched to:
/// `threads`, clamped so every worker has at least [`MIN_TASKS_PER_WORKER`]
/// tasks. `1` means the batch runs inline on the caller's thread with no
/// pool interaction at all.
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

/// What one participant hands back: the `(chunk start, results)` runs it
/// executed.
type Share<R> = Vec<(u32, Vec<R>)>;

thread_local! {
    /// Set while this thread is executing a batch participant. A nested
    /// `map_indexed` from inside the pool would deadlock on the submit
    /// mutex (the outer batch cannot finish until the nested caller
    /// returns), so nested calls run inline instead.
    static IN_POOL_JOB: Cell<bool> = const { Cell::new(false) };
}

/// The borrowed batch context a worker participates in, erased to a raw
/// pointer while published. `needed`/`claimed`/`finished`/`closed` are the
/// completion handshake: workers claim participation slots under the pool
/// mutex while the batch is open; the submitter closes it after draining
/// the index space and then waits until every claimed slot has finished —
/// only then may the stack frame owning the context unwind.
struct Job {
    data: *const (),
    call: unsafe fn(*const (), usize),
    needed: usize,
    claimed: usize,
    finished: usize,
    closed: bool,
    panicked: bool,
}

// SAFETY: the raw context pointer is only dereferenced by participants
// between publication and the completion handshake, while the submitter's
// frame is pinned.
unsafe impl Send for Job {}

struct State {
    shutdown: bool,
    job: Option<Job>,
    /// Worker threads spawned so far.
    helpers: usize,
}

struct Inner {
    state: Mutex<State>,
    /// Workers park here between batches.
    work: Condvar,
    /// The submitter parks here waiting for claimed participants to finish.
    done: Condvar,
}

/// A user panic unwinding through a lock would otherwise poison it and
/// wedge every later batch; the pool's own invariants are restored before
/// any panic propagates, so poisoning carries no information here.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(|e| e.into_inner())
}

/// A persistent worker pool: threads are spawned once (lazily, as batches
/// demand them) and parked between calls. Dropping the
/// pool shuts the workers down and joins them; the process-wide
/// [`Pool::global`] instance lives for the process lifetime.
pub struct Pool {
    inner: Arc<Inner>,
    /// One batch in flight at a time; concurrent calls line up here and
    /// reuse the same workers.
    submit: Mutex<()>,
    handles: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl Pool {
    /// Creates a pool sized for `threads`-wide batches: `threads - 1`
    /// helper threads are spawned up front (the submitting thread is always
    /// worker 0 of its own batch). Wider batches grow the pool on demand.
    pub fn new(threads: usize) -> Pool {
        let pool = Pool {
            inner: Arc::new(Inner {
                state: Mutex::new(State {
                    shutdown: false,
                    job: None,
                    helpers: 0,
                }),
                work: Condvar::new(),
                done: Condvar::new(),
            }),
            submit: Mutex::new(()),
            handles: Mutex::new(Vec::new()),
        };
        pool.ensure_helpers(threads.saturating_sub(1));
        pool
    }

    /// The process-wide pool every free-function call goes through, sized
    /// for [`default_threads`] and grown on demand by wider requests.
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| Pool::new(default_threads()))
    }

    /// Spawns helper threads until there are at least `want` of them.
    fn ensure_helpers(&self, want: usize) {
        let mut st = lock(&self.inner.state);
        let deficit = want.saturating_sub(st.helpers);
        if deficit == 0 {
            return;
        }
        let mut handles = lock(&self.handles);
        for _ in 0..deficit {
            st.helpers += 1;
            let inner = Arc::clone(&self.inner);
            handles.push(
                thread::Builder::new()
                    .name("ipds-pool".into())
                    .spawn(move || worker_loop(&inner))
                    .expect("failed to spawn pool worker"),
            );
        }
    }

    /// Runs `run(worker_state, index)` for every index in `0..tasks` across
    /// up to `threads` pool workers and returns the results **in index
    /// order**. Each participating worker builds its state once with
    /// `init`.
    ///
    /// Small batches (fewer than [`MIN_TASKS_PER_WORKER`] tasks per worker)
    /// shed surplus workers; below two workers' worth of tasks the call
    /// runs inline on the calling thread with no pool interaction.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any worker (results produced by other
    /// workers are dropped, never observed). The pool itself survives and
    /// serves later calls.
    pub fn map_indexed<W, R, I, F>(&self, tasks: u32, threads: usize, init: I, run: F) -> Vec<R>
    where
        R: Send,
        I: Fn() -> W + Sync,
        F: Fn(&mut W, u32) -> R + Sync,
    {
        let workers = effective_workers(tasks, threads);
        if workers <= 1 || IN_POOL_JOB.get() {
            let mut state = init();
            return (0..tasks).map(|i| run(&mut state, i)).collect();
        }

        let ctx = BatchCtx {
            cursor: AtomicU64::new(0),
            tasks,
            chunk: chunk_size(tasks, workers),
            shares: (0..workers).map(|_| Mutex::new(None)).collect(),
            init: &init,
            run: &run,
        };

        let submit = lock(&self.submit);
        self.ensure_helpers(workers - 1);
        {
            let mut st = lock(&self.inner.state);
            st.job = Some(Job {
                data: (&ctx as *const BatchCtx<'_, R, I, F>).cast::<()>(),
                call: participate_thunk::<W, R, I, F>,
                needed: workers - 1,
                claimed: 0,
                finished: 0,
                closed: false,
                panicked: false,
            });
        }
        self.inner.work.notify_all();

        // The submitter is always worker 0 of its own batch: it drains the
        // cursor itself, so the batch completes even if every helper is
        // busy elsewhere.
        IN_POOL_JOB.set(true);
        let mine = catch_unwind(AssertUnwindSafe(|| ctx.participate(0)));
        IN_POOL_JOB.set(false);

        // Completion handshake: close the batch (no new participants), then
        // wait until every claimed participant has finished with `ctx`.
        // Only after that may this frame unwind or read the shares.
        let helper_panicked = {
            let mut st = lock(&self.inner.state);
            st.job
                .as_mut()
                .expect("the job is published until its submitter takes it")
                .closed = true;
            loop {
                let job = st
                    .job
                    .as_ref()
                    .expect("the job is published until its submitter takes it");
                if job.finished >= job.claimed {
                    break;
                }
                st = wait(&self.inner.done, st);
            }
            st.job
                .take()
                .expect("the job is published until its submitter takes it")
                .panicked
        };
        drop(submit);
        if mine.is_err() || helper_panicked {
            panic!("pool worker panicked");
        }

        // The runs partition `0..tasks`: sorted by start, they concatenate
        // into index order.
        let mut runs = Vec::new();
        for share in ctx.shares {
            if let Some(chunks) = share.into_inner().unwrap_or_else(|e| e.into_inner()) {
                runs.extend(chunks);
            }
        }
        runs.sort_unstable_by_key(|&(start, _)| start);
        let mut results = Vec::with_capacity(tasks as usize);
        for (_, chunk) in runs {
            results.extend(chunk);
        }
        debug_assert_eq!(results.len(), tasks as usize);
        results
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.inner.state);
            st.shutdown = true;
        }
        self.inner.work.notify_all();
        for handle in lock(&self.handles).drain(..) {
            let _ = handle.join();
        }
    }
}

/// The borrowed per-batch context shared by all participants.
struct BatchCtx<'a, R, I, F> {
    cursor: AtomicU64,
    tasks: u32,
    chunk: u32,
    /// One write-once hand-back slot per participant.
    shares: Vec<Mutex<Option<Share<R>>>>,
    init: &'a I,
    run: &'a F,
}

impl<R, I, F> BatchCtx<'_, R, I, F> {
    /// Worker `w`'s share of the batch: claim chunks until the cursor is
    /// drained, then hand the results back through slot `w`. The worker
    /// state is built here and dropped here, on the participant's thread.
    fn participate<W>(&self, w: usize)
    where
        I: Fn() -> W,
        F: Fn(&mut W, u32) -> R,
    {
        let mut state = (self.init)();
        let mut runs = Vec::new();
        while let Some((lo, hi)) = claim(&self.cursor, self.tasks, self.chunk) {
            runs.push((lo, (lo..hi).map(|i| (self.run)(&mut state, i)).collect()));
        }
        *lock(&self.shares[w]) = Some(runs);
    }
}

/// Monomorphized trampoline stored in the type-erased [`Job`]: participant
/// slot `s` is worker `s + 1` of the batch (the submitter is worker 0).
///
/// # Safety
///
/// `data` must point to a live `BatchCtx<R, I, F>` (guaranteed by the
/// completion handshake) and `slot + 1` must be a uniquely claimed worker
/// index below the batch's worker count.
unsafe fn participate_thunk<W, R, I, F>(data: *const (), slot: usize)
where
    I: Fn() -> W,
    F: Fn(&mut W, u32) -> R,
{
    let ctx = &*data.cast::<BatchCtx<'_, R, I, F>>();
    ctx.participate::<W>(slot + 1);
}

/// The body of every pool worker thread: batch participation, then park
/// on the condvar.
fn worker_loop(inner: &Inner) {
    let mut st = lock(&inner.state);
    loop {
        if st.shutdown {
            return;
        }
        let claimed_slot = match st.job.as_mut() {
            Some(job) if !job.closed && job.claimed < job.needed => {
                let slot = job.claimed;
                job.claimed += 1;
                Some((slot, job.data, job.call))
            }
            _ => None,
        };
        if let Some((slot, data, call)) = claimed_slot {
            drop(st);
            IN_POOL_JOB.set(true);
            // SAFETY: the submitter keeps the context alive until this
            // participant's finish is recorded below.
            let outcome = catch_unwind(AssertUnwindSafe(|| unsafe { call(data, slot) }));
            IN_POOL_JOB.set(false);
            st = lock(&inner.state);
            let job = st
                .job
                .as_mut()
                .expect("the job outlives its claimed participants");
            job.finished += 1;
            if outcome.is_err() {
                job.panicked = true;
            }
            inner.done.notify_all();
            continue;
        }
        st = wait(&inner.work, st);
    }
}

/// Runs `run(worker_state, index)` for every index in `0..tasks` across
/// `threads` workers of the process-wide [`Pool::global`] pool and returns
/// the results **in index order**.
///
/// `threads <= 1` (or a batch below the [`MIN_TASKS_PER_WORKER`] work
/// floor) degenerates to a plain serial loop over one worker state — no
/// pool interaction, identical results either way.
///
/// # Panics
///
/// Propagates a panic from any worker thread (results produced by other
/// workers are dropped, never observed).
pub fn map_indexed<W, R, I, F>(tasks: u32, threads: usize, init: I, run: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> W + Sync,
    F: Fn(&mut W, u32) -> R + Sync,
{
    Pool::global().map_indexed(tasks, threads, init, run)
}

#[cfg(test)]
mod tests {
    use super::*;
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
        // Below the work floor the batch must not touch the pool at all:
        // one worker state, built and used on the submitting thread.
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
        // The floor sheds surplus workers even when some dispatch happens.
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
        // Non-Copy results are moved through the hand-back slots and the
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
    fn a_dedicated_pool_serves_repeated_calls_deterministically() {
        // 100 consecutive batches through one pool must be bit-identical
        // to a fresh pool and to the serial loop, at every thread count.
        let serial: Vec<u64> = (0..200)
            .map(|i| (i as u64).wrapping_mul(0x9e37) ^ 7)
            .collect();
        for threads in [1usize, 2, 4, 8] {
            let pool = Pool::new(threads);
            for call in 0..100 {
                let counts = run_counts(200);
                let got = pool.map_indexed(
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
            let fresh = Pool::new(threads);
            let got = fresh.map_indexed(
                200,
                threads,
                || (),
                |(), i| (u64::from(i)).wrapping_mul(0x9e37) ^ 7,
            );
            assert_eq!(got, serial, "fresh pool at {threads} threads");
        }
    }

    #[test]
    fn the_global_pool_reuses_its_threads() {
        // Two wide calls back to back: the pool must not grow between them
        // (the same parked helpers serve both).
        let a = map_indexed(128, 4, || (), |(), i| i + 1);
        let helpers_after_first = lock(&Pool::global().inner.state).helpers;
        let b = map_indexed(128, 4, || (), |(), i| i + 1);
        let helpers_after_second = lock(&Pool::global().inner.state).helpers;
        assert_eq!(a, b);
        assert_eq!(
            helpers_after_first, helpers_after_second,
            "repeated batches must reuse parked workers"
        );
    }

    #[test]
    fn nested_calls_run_inline() {
        // A task that itself calls map_indexed must not deadlock on the
        // submit mutex: the nested call runs serially on the worker.
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

    #[test]
    fn a_worker_panic_propagates_and_the_pool_survives() {
        let pool = Pool::new(4);
        let boom = catch_unwind(AssertUnwindSafe(|| {
            pool.map_indexed(
                64,
                4,
                || (),
                |(), i| {
                    assert!(i != 33, "injected failure");
                    i
                },
            )
        }));
        assert!(boom.is_err(), "the panic must propagate to the caller");
        // The same pool must still serve clean batches afterwards.
        let got = pool.map_indexed(64, 4, || (), |(), i| i * 2);
        assert_eq!(got, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn default_threads_is_sane() {
        assert!((1..=8).contains(&default_threads()));
    }
}
