//! Acceptance tests for the compiler pass pipeline: a build must be
//! **deterministic** — every workload rebuilt under every optimizer,
//! promotion and pruning setting emits the same image bytes, also when
//! several builds run at once on different threads — and the
//! `verify-tables` pass must hold on all of them, and catch corruption with
//! typed errors.

use ipds::analysis::pipeline::{build_program, BuildOptions};
use ipds::analysis::{verify_tables, AnalysisConfig, TableVerifyError};
use ipds::workloads;

fn options(optimized: bool, verify: bool) -> BuildOptions {
    BuildOptions {
        config: AnalysisConfig::default(),
        optimize: optimized,
        verify,
        ..BuildOptions::default()
    }
}

/// Two builds of one program in one process must agree byte for byte. Each
/// build's hash maps draw fresh random seeds, so an output that depends on
/// hash-map iteration order shows up here as a mismatch.
#[test]
fn images_are_bit_identical_across_rebuilds() {
    for w in workloads::extended() {
        for optimized in [false, true] {
            for promote in [0, 25, 50, 100] {
                for prune_feasibility in [false, true] {
                    let opts = BuildOptions {
                        promote,
                        prune_feasibility,
                        ..options(optimized, false)
                    };
                    let label = format!(
                        "{} (opt={optimized}, promote={promote}, prune={prune_feasibility})",
                        w.name
                    );
                    let first = build_program(w.program(), opts.clone())
                        .unwrap_or_else(|e| panic!("{label}: {e}"));
                    let again = build_program(w.program(), opts)
                        .unwrap_or_else(|e| panic!("{label} rebuilt: {e}"));
                    assert_eq!(
                        first.image.as_bytes(),
                        again.image.as_bytes(),
                        "{label}: image differs between two builds"
                    );
                    assert_eq!(
                        first.counters, again.counters,
                        "{label}: counters differ between two builds"
                    );
                }
            }
        }
    }
}

/// The compiler is serial, so a build's output cannot depend on how many
/// threads it runs on — as long as it keeps no process-wide state. Running
/// 1, 2, 4 and 8 builds of one workload at once, on as many threads, must
/// give every one of them the serial build's image and counters.
#[test]
fn images_are_bit_identical_across_thread_counts() {
    for w in workloads::all() {
        for optimized in [false, true] {
            let opts = options(optimized, false);
            let serial = build_program(w.program(), opts.clone())
                .unwrap_or_else(|e| panic!("{} serial: {e}", w.name));
            for threads in [2usize, 4, 8] {
                let builds: Vec<_> = std::thread::scope(|s| {
                    let handles: Vec<_> = (0..threads)
                        .map(|_| s.spawn(|| build_program(w.program(), opts.clone())))
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                });
                for par in builds {
                    let par = par.unwrap_or_else(|e| panic!("{} x{threads}: {e}", w.name));
                    assert_eq!(
                        serial.image.as_bytes(),
                        par.image.as_bytes(),
                        "{} (opt={optimized}) differs at {threads} threads",
                        w.name
                    );
                    assert_eq!(
                        serial.counters, par.counters,
                        "{} (opt={optimized}) counters differ at {threads} threads",
                        w.name
                    );
                }
            }
        }
    }
}

#[test]
fn verify_tables_passes_on_every_workload() {
    for w in workloads::all() {
        for optimized in [false, true] {
            build_program(w.program(), options(optimized, true)).unwrap_or_else(|e| {
                panic!("{} (opt={optimized}) failed verification: {e}", w.name)
            });
        }
    }
}

#[test]
fn verify_tables_catches_corrupted_bat_entry() {
    let w = &workloads::all()[0];
    let build = build_program(w.program(), options(false, false)).unwrap();
    let program = build.program;
    let mut analysis = build.analysis;
    let f = analysis
        .functions
        .iter_mut()
        .find(|f| !f.bat.is_empty())
        .expect("workload has correlations");
    let row = f.bat.values_mut().next().unwrap();
    row[0].target = 9999;
    let err = verify_tables(&program, &analysis).unwrap_err();
    assert!(
        matches!(err, TableVerifyError::BatTarget { target: 9999, .. }),
        "got {err:?}"
    );
    // Typed, displayable — and definitely not a panic.
    assert!(err.to_string().contains("9999"));
}

#[test]
fn verify_tables_catches_forged_hash() {
    let w = &workloads::all()[0];
    let build = build_program(w.program(), options(false, false)).unwrap();
    let program = build.program;
    let mut analysis = build.analysis;
    let f = analysis
        .functions
        .iter_mut()
        .find(|f| f.branches.len() > 1)
        .expect("workload has branching functions");
    f.hash.log2_size = 0; // every PC now recomputes to slot 0
    let err = verify_tables(&program, &analysis).unwrap_err();
    assert!(
        matches!(
            err,
            TableVerifyError::HashSlot { .. } | TableVerifyError::HashCollision { .. }
        ),
        "got {err:?}"
    );
}

#[test]
fn pipeline_metrics_expose_compile_counters() {
    let w = &workloads::all()[0];
    let build = build_program(w.program(), options(false, true)).unwrap();
    assert_eq!(
        build.metrics.counter("pipeline.branches"),
        build.counters.branches
    );
    assert_eq!(
        build.metrics.counter("pipeline.bat_entries"),
        build.counters.bat_entries
    );
    assert_eq!(
        build.metrics.counter("pipeline.image_bytes"),
        build.image.len() as u64
    );
    let pass_names: Vec<_> = build.timings.iter().map(|t| t.name).collect();
    assert_eq!(
        pass_names,
        [
            "verify-ir",
            "alias",
            "summaries",
            "analyze-functions",
            "image",
            "verify-tables"
        ]
    );
}
