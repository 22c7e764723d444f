//! Acceptance tests for the interval refiner and the table lint auditor.
//!
//! Four invariants over the full workload suite:
//!
//! 1. **Refinement is sound and deterministic** — a refine-enabled build
//!    passes `verify-tables` on every workload under both optimizer
//!    settings, never demotes a stock directional action (they are all
//!    interval-provable), and a rebuild produces bit-identical images and
//!    stats.
//! 2. **Refined tables keep the zero-false-positive guarantee** — clean
//!    executions of refined programs never alarm, so the extra `SET_T` /
//!    `SET_NT` promotions the refiner adds are actually sound.
//! 3. **Stock tables lint clean** — `lint-tables` reports zero errors on
//!    every workload, and a rebuild reports the same (including its
//!    rendering).
//! 4. **Golden diagnostics** — a deliberately unsound BAT action seeded into
//!    a workload's tables produces at least one `LintError` carrying a
//!    concrete witness path, and auditing again renders the same report
//!    byte for byte.

use ipds::analysis::pipeline::{build_program, BuildOptions};
use ipds::analysis::{lint_program, BatEntry, BrAction, LintSeverity};
use ipds::{workloads, Protected};
use ipds_dataflow::{Facts, PrunedCfg};

fn refine_options(optimized: bool) -> BuildOptions {
    BuildOptions {
        optimize: optimized,
        verify: true,
        refine: true,
        lint: false,
        ..BuildOptions::default()
    }
}

#[test]
fn refined_workloads_verify_and_are_deterministic() {
    for w in workloads::all() {
        for optimized in [false, true] {
            let first = build_program(w.program(), refine_options(optimized))
                .unwrap_or_else(|e| panic!("{} refined: {e}", w.name));
            assert_eq!(
                first.refine.demoted, 0,
                "{} (opt={optimized}): stock directional actions must all re-prove",
                w.name
            );
            let again = build_program(w.program(), refine_options(optimized))
                .unwrap_or_else(|e| panic!("{} refined again: {e}", w.name));
            assert_eq!(
                first.image.as_bytes(),
                again.image.as_bytes(),
                "{} (opt={optimized}) refined image differs between two builds",
                w.name
            );
            assert_eq!(
                first.refine, again.refine,
                "{} (opt={optimized}) refine stats differ between two builds",
                w.name
            );
        }
    }
}

#[test]
fn refined_workloads_stay_false_positive_free() {
    for w in workloads::all() {
        let build = Protected::build()
            .refine_correlations(true)
            .verify_tables(true)
            .from_program(w.program())
            .unwrap_or_else(|e| panic!("{} refined build: {e}", w.name));
        for seed in 0..5 {
            let report = build.protected.run(&w.inputs(seed));
            assert!(
                report.alarms.is_empty(),
                "{} seed {seed} alarmed under refined tables: {:?}",
                w.name,
                report.alarms
            );
        }
    }
}

#[test]
fn stock_workloads_lint_clean_on_every_rebuild() {
    for w in workloads::all() {
        let lint = || {
            Protected::build()
                .lint_tables(true)
                .from_program(w.program())
                .unwrap_or_else(|e| panic!("{} lint build: {e}", w.name))
                .lint
                .expect("lint was requested")
        };
        let first = lint();
        assert_eq!(
            first.error_count(),
            0,
            "{} must lint clean:\n{first}",
            w.name
        );
        let again = lint();
        assert_eq!(
            first, again,
            "{} lint report differs between two builds",
            w.name
        );
        assert_eq!(
            first.to_string(),
            again.to_string(),
            "{} rendered report differs between two builds",
            w.name
        );
    }
}

#[test]
fn seeded_unsound_action_yields_a_stable_error_report() {
    let w = &workloads::all()[0];
    let build = build_program(w.program(), BuildOptions::default()).unwrap();
    let program = build.program;
    let Facts { alias, summaries } = Facts::compute(&program);
    let full = PrunedCfg::full(&program);
    let intervals = ipds_absint::analyze_program(&program, &alias, &summaries, &full);

    // Seed the first row whose corruption actually surfaces as an error:
    // claiming the trigger branch itself went the *opposite* way on an edge
    // is unsound by construction, so the auditor must either contradict it
    // (feasible edge) or — on a statically dead edge — keep hunting.
    let mut seeded = None;
    'hunt: for (fi, func) in build.analysis.functions.iter().enumerate() {
        for &(trigger, dir) in func.bat.keys() {
            let mut analysis = build.analysis.clone();
            let row = analysis.functions[fi].bat.get_mut(&(trigger, dir)).unwrap();
            row.push(BatEntry {
                target: trigger,
                action: if dir {
                    BrAction::SetNotTaken
                } else {
                    BrAction::SetTaken
                },
            });
            row.sort_by_key(|e| e.target);
            let report = lint_program(&program, &alias, &summaries, &intervals, &analysis, &full);
            if report.error_count() > 0 {
                seeded = Some((analysis, report));
                break 'hunt;
            }
        }
    }
    let (analysis, report) = seeded.expect("some feasible row must reject the forged action");

    assert!(report.error_count() >= 1, "forged action must be an error");
    let err = report
        .errors()
        .next()
        .expect("error_count >= 1 implies an error");
    assert_eq!(err.severity, LintSeverity::Error);
    assert!(
        !err.witness.is_empty(),
        "diagnostics must carry a concrete witness path"
    );
    let rendered = report.to_string();
    assert!(
        rendered.contains("witness:"),
        "rendered report must show the witness:\n{rendered}"
    );
    assert!(
        rendered.contains(&err.function),
        "rendered report must name the function:\n{rendered}"
    );

    // The report — struct and rendering — must be stable across audits.
    let again = lint_program(&program, &alias, &summaries, &intervals, &analysis, &full);
    assert_eq!(report, again, "lint report differs between two audits");
    assert_eq!(
        rendered,
        again.to_string(),
        "rendered report differs between two audits"
    );
}
