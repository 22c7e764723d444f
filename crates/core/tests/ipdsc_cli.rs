//! `ipdsc` refuses bad input with a usage error instead of panicking or
//! running something else: a program without `main` cannot be run, a
//! program whose clean run faults cannot be attacked, and malformed, negative or unknown flag values are rejected
//! rather than replaced by a default or wrapped into a huge count. Every
//! case must exit with status 1 and one `ipdsc:` message on stderr.

use std::path::PathBuf;
use std::process::Command;

/// A program whose clean run ends in a wild store.
const FAULTING: &str = "fn main() -> int { int x; int *p; x = read_int(); \
    if (x == 1) { print_int(1); } \
    p = 99999999; *p = 1; return 0; }";

/// A well-behaved program for the flag cases.
const BENIGN: &str = "fn main() -> int { int x; x = read_int(); \
    if (x == 1) { print_int(1); } \
    if (x == 1) { print_int(2); } else { print_int(3); } return 0; }";

fn program(name: &str, source: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, source).expect("write the test program");
    path
}

/// Runs `ipdsc` and checks it failed cleanly; returns its stderr.
fn fails_cleanly(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ipdsc"))
        .args(args)
        .output()
        .expect("spawn ipdsc");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.starts_with("ipdsc: "), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    stderr
}

#[test]
fn campaign_and_faults_refuse_a_program_whose_clean_run_faults() {
    let file = program("ipdsc_cli_faulting.mc", FAULTING);
    let file = file.to_str().unwrap();
    for args in [
        vec!["campaign", file, "--attacks", "4", "--input", "0"],
        vec!["faults", file, "--flips", "2", "--input", "0"],
    ] {
        let stderr = fails_cleanly(&args);
        assert!(stderr.contains("clean run faults"), "{args:?}: {stderr}");
        assert!(stderr.contains("store fault"), "names the fault: {stderr}");
    }
}

#[test]
fn commands_that_run_the_program_refuse_one_without_main() {
    let file = program("ipdsc_cli_no_main.mc", "int g; fn f() -> int { return g; }");
    let file = file.to_str().unwrap();
    for args in [
        vec!["run", file],
        vec!["attack", file, "--var", "g", "--value", "1"],
        vec!["campaign", file, "--attacks", "4"],
        vec!["time", file],
        vec!["trace", file],
        vec!["faults", file, "--flips", "2"],
    ] {
        let stderr = fails_cleanly(&args);
        assert!(stderr.contains("no `main`"), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    }
}

#[test]
fn malformed_flag_values_are_usage_errors() {
    let file = program("ipdsc_cli_benign.mc", BENIGN);
    let file = file.to_str().unwrap();
    for (flag, value) in [
        ("--attacks", "abc"),
        ("--attacks", "-1"),
        ("--model", "bof"),
    ] {
        let stderr = fails_cleanly(&["campaign", file, flag, value, "--input", "0"]);
        assert!(
            stderr.contains(flag) && stderr.contains(value),
            "{flag} {value}: {stderr}"
        );
        assert!(stderr.contains("usage:"), "{flag} {value}: {stderr}");
    }
}
