//! `exp_all <phase>` runs exactly the code and arguments the full run uses
//! for that section, so every phase's stdout must appear verbatim in the
//! checked-in full-run output `results/exp_all.txt`.

use std::process::{Command, Output};

const PHASES: &str =
    "table1 fig7 fig8 fig9 latency ablation promotion feasibility context micro faults fleet";

/// Runs the driver. A single phase writes no files, only stdout/stderr.
fn exp_all(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_exp_all"))
        .args(args)
        .output()
        .expect("exp_all runs")
}

#[test]
fn every_phase_prints_its_section_of_the_full_run_verbatim() {
    let full = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/exp_all.txt"
    ))
    .unwrap();
    for phase in PHASES.split(' ') {
        let out = exp_all(&[phase]);
        assert!(out.status.success(), "{phase}: {out:?}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        // `fig7` appends the contiguous-overflow comparison, which the
        // full run does not print.
        let section = match phase {
            "fig7" => stdout
                .split("\n(extra) same protocol with contiguous")
                .next()
                .unwrap(),
            _ => stdout.as_str(),
        };
        assert!(!section.trim().is_empty(), "{phase} printed nothing");
        assert!(
            full.contains(section),
            "{phase} output is not a block of results/exp_all.txt:\n{section}"
        );
    }
}

#[test]
fn fig7_appends_the_contiguous_overflow_comparison() {
    let out = exp_all(&["fig7", "10"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("Figure 7."), "{stdout}");
    assert!(
        stdout.contains("\n\n(extra) same protocol with contiguous 2-8 cell overflows:\n"),
        "{stdout}"
    );
}

#[test]
fn unknown_phase_exits_nonzero_with_usage() {
    let out = exp_all(&["fig10"]);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("usage: exp_all [PHASE]"), "{stderr}");
    assert!(stderr.contains("fig10"), "{stderr}");
}
