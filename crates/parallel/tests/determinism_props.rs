//! Property tests for `map_indexed`'s determinism contract: the result
//! vector (content *and* order) is identical for every thread count and
//! every task runs exactly once, no matter how adversarially the task
//! durations are skewed (see docs/PERF.md). The case count follows
//! `PROPTEST_CASES` (the vendored harness's default is 256).

use std::sync::atomic::{AtomicU32, Ordering};

use proptest::prelude::*;

/// Thread counts the contract is exercised at (the docs/PERF.md scaling
/// sweep's points).
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Duration-skew shapes an adversarial scheduler would care about.
#[derive(Debug, Clone, Copy)]
enum Skew {
    /// Every task tiny: maximal scheduling churn per unit of work.
    AllTiny,
    /// The first task dwarfs the rest: the worker that claims chunk 0
    /// stalls and everyone else must drain the cursor around it.
    StragglerFirst,
    /// The last task dwarfs the rest: the straggler sits in the chunk
    /// the cursor hands out last.
    StragglerLast,
    /// Sawtooth: adjacent tasks alternate cheap/expensive, so every chunk
    /// has an uneven interior.
    Sawtooth,
    /// Unstructured per-task jitter.
    Random,
}

/// Busy-work the optimizer cannot elide, proportional to `spin`.
fn burn(spin: u64) -> u64 {
    let mut acc = 0u64;
    for i in 0..spin {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        std::hint::black_box(acc);
    }
    acc
}

fn delays(shape: Skew, tasks: u32, jitter: &[u64]) -> Vec<u64> {
    let big = 20_000u64;
    (0..tasks)
        .map(|i| match shape {
            Skew::AllTiny => 1,
            Skew::StragglerFirst => {
                if i == 0 {
                    big
                } else {
                    1
                }
            }
            Skew::StragglerLast => {
                if i + 1 == tasks {
                    big
                } else {
                    1
                }
            }
            Skew::Sawtooth => {
                if i % 2 == 0 {
                    1
                } else {
                    1500
                }
            }
            Skew::Random => jitter.get(i as usize).copied().unwrap_or(0) % 2000,
        })
        .collect()
}

/// What one task deterministically computes (keyed by index only — any
/// dependence on scheduling would be a bug this test must catch).
fn task_value(i: u32) -> u64 {
    (u64::from(i)).wrapping_mul(0x9e3779b97f4a7c15) >> 7
}

proptest! {
    /// For every skew shape and thread count — including zero tasks and
    /// fewer tasks than workers — `map_indexed` returns the serial answer in
    /// index order and executes each task exactly once.
    #[test]
    fn skewed_durations_never_perturb_results(
        tasks in 0u32..40,
        shape_sel in 0u8..5,
        jitter in proptest::collection::vec(0u64..2000, 0..40),
    ) {
        let shape = [
            Skew::AllTiny,
            Skew::StragglerFirst,
            Skew::StragglerLast,
            Skew::Sawtooth,
            Skew::Random,
        ][shape_sel as usize];
        let spins = delays(shape, tasks, &jitter);
        let expect: Vec<u64> = (0..tasks).map(task_value).collect();

        for threads in THREADS {
            let runs: Vec<AtomicU32> = (0..tasks).map(|_| AtomicU32::new(0)).collect();
            let results = ipds_parallel::map_indexed(
                tasks,
                threads,
                || (),
                |(), i| {
                    std::hint::black_box(burn(spins[i as usize]));
                    runs[i as usize].fetch_add(1, Ordering::Relaxed);
                    task_value(i)
                },
            );
            prop_assert_eq!(
                &results, &expect,
                "thread count {} reordered or altered results under {:?}",
                threads, shape
            );
            // Every task ran exactly once.
            prop_assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
        }
    }
}
