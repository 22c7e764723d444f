//! `exp_all <phase>` runs exactly the code and arguments the full run uses
//! for that section, so every phase's stdout must appear verbatim in the
//! checked-in full-run output `results/exp_all.txt`. The full run itself
//! must reproduce that file and the committed deterministic artifact
//! `results/bench_campaign.json` byte-for-byte at any thread count.

use std::path::Path;
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

/// Reads a file of the checked-in `results/` directory.
fn committed(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn every_phase_prints_its_section_of_the_full_run_verbatim() {
    let full = committed("exp_all.txt");
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

/// The byte gate: the full run, at one thread and at three, each in its own
/// scratch directory so the checked-in `results/` is never written.
#[test]
fn full_run_reproduces_the_committed_artifacts_at_any_thread_count() {
    let stdout = committed("exp_all.txt");
    let campaign = committed("bench_campaign.json");
    for threads in ["1", "3"] {
        let dir =
            std::env::temp_dir().join(format!("ipds-exp-all-{}-{threads}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_exp_all"))
            .args(["100", "--threads", threads])
            .current_dir(&dir)
            .output()
            .expect("exp_all runs");
        assert!(out.status.success(), "--threads {threads}: {out:?}");
        let written = |name: &str| std::fs::read_to_string(dir.join("results").join(name)).unwrap();
        assert!(
            written("bench_campaign.json") == campaign,
            "--threads {threads}: results/bench_campaign.json differs from the committed file"
        );
        assert!(
            String::from_utf8(out.stdout).unwrap() == stdout,
            "--threads {threads}: stdout differs from results/exp_all.txt"
        );

        // The timing file is machine-dependent; check its shape only.
        let timing = written("bench_timing.json");
        let scaling = timing
            .split("\"scaling\": [\n")
            .nth(1)
            .and_then(|rest| rest.split("\n  ]").next())
            .expect("bench_timing.json has a scaling array");
        let rows: Vec<&str> = scaling.lines().collect();
        assert!(
            rows.len() >= 4,
            "--threads {threads}: scaling rows {rows:?}"
        );
        for row in rows {
            for key in [
                "\"threads\":",
                "\"attacks\":",
                "\"seconds\":",
                "\"speedup\":",
            ] {
                assert!(row.contains(key), "scaling row without {key}: {row}");
            }
        }
        // The file holds the scaling curve and the thread count, nothing else.
        let keys: Vec<&str> = timing
            .lines()
            .filter_map(|l| l.strip_prefix("  \""))
            .filter_map(|l| l.split('"').next())
            .collect();
        assert_eq!(keys, ["threads", "scaling"], "{timing}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
