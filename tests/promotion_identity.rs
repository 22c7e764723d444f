//! The `--promote 0` identity guarantee, the strong form: running the
//! `ssa → mem2reg → deconstruct-ssa` window at a zero budget must be a
//! semantic **no-op** — the emitted `TableImage` is byte-identical to the
//! standard pipeline (which skips the window entirely at budget 0) on
//! every stock workload. This is what lets the classic all-memory path
//! and the promotion ablation share one pipeline.

use ipds::analysis::pipeline::{
    build_program, AliasPass, AnalyzeFunctionsPass, BuildOptions, CompilationSession,
    DeconstructSsaPass, ImagePass, Mem2RegPass, PassManager, SsaPass, SummariesPass, VerifyIrPass,
};
use ipds::workloads;

#[test]
fn the_ssa_window_at_budget_zero_is_byte_identical_on_every_stock_workload() {
    for w in workloads::extended() {
        let standard = build_program(w.program(), BuildOptions::default()).expect("standard build");

        // The same pipeline with the window forced in at promote = 0.
        let manager = PassManager::new()
            .with_pass(VerifyIrPass)
            .with_pass(SsaPass)
            .with_pass(Mem2RegPass)
            .with_pass(DeconstructSsaPass)
            .with_pass(AliasPass)
            .with_pass(SummariesPass)
            .with_pass(AnalyzeFunctionsPass)
            .with_pass(ImagePass);
        let mut session = CompilationSession::from_program(
            w.program(),
            BuildOptions {
                promote: 0,
                ..BuildOptions::default()
            },
        );
        manager.run(&mut session).expect("windowed build");

        let windowed = session.image.expect("image emitted");
        assert_eq!(
            standard.image.as_bytes(),
            windowed.as_bytes(),
            "{}: the zero-budget SSA window must not change the image",
            w.name
        );
        assert_eq!(
            session.metrics.counter("pipeline.promoted_vars"),
            0,
            "{}: a zero budget promotes nothing",
            w.name
        );
        assert_eq!(
            session.metrics.counter("pipeline.ssa_phis"),
            0,
            "{}: no promotion set, no phis",
            w.name
        );
    }
}

#[test]
fn every_budget_is_thread_count_invariant() {
    // The ablation's determinism leg: at each promotion level the emitted
    // image is bit-identical whether 1, 2, 4 or 8 builds run at once.
    for w in workloads::extended() {
        for promote in [25, 100] {
            let opts = BuildOptions {
                promote,
                ..BuildOptions::default()
            };
            let mut images = Vec::new();
            for threads in [1usize, 2, 4, 8] {
                std::thread::scope(|s| {
                    let handles: Vec<_> = (0..threads)
                        .map(|_| s.spawn(|| build_program(w.program(), opts.clone())))
                        .collect();
                    for h in handles {
                        let out = h
                            .join()
                            .unwrap()
                            .unwrap_or_else(|e| panic!("{} @ {promote}% x{threads}: {e}", w.name));
                        images.push(out.image.as_bytes().to_vec());
                    }
                });
            }
            assert!(
                images.windows(2).all(|p| p[0] == p[1]),
                "{} @ {promote}%: images differ across thread counts",
                w.name
            );
        }
    }
}
