//! `ipdsc` refuses bad input with a usage error instead of panicking or
//! running something else: a program without `main` cannot be run, a
//! program whose clean run faults cannot be attacked, malformed, negative
//! or unknown flag values are rejected rather than replaced by a default or
//! wrapped into a huge count, and a flag the command does not accept (or
//! one given twice) is rejected rather than ignored. Every case must exit
//! with status 1 and one `ipdsc:` message on stderr.

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

#[test]
fn flags_a_command_does_not_accept_are_usage_errors() {
    let file = program("ipdsc_cli_strict.mc", BENIGN);
    let file = file.to_str().unwrap();
    for args in [
        vec!["build", file, "--thread", "4", "--determinsm"],
        vec!["build", file, "--threads", "4"],
        vec!["build", "--workloads", "--determinism"],
        vec!["lint", "--workloads", "--threads", "4"],
        vec!["run", file, "--inputs", "1"],
        vec!["campaign", file, "--attack", "4"],
        vec!["trace", file, "--dump"],
        vec!["serve", "--session", "4"],
    ] {
        let stderr = fails_cleanly(&args);
        let flag = args[1..]
            .iter()
            .find(|a| a.starts_with("--") && **a != "--workloads");
        let flag = flag.expect("each case has one rejected flag");
        assert!(
            stderr.contains(&format!("`{}` does not take `{flag}`", args[0])),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert_eq!(
            stderr.lines().filter(|l| l.starts_with("ipdsc:")).count(),
            1,
            "{args:?}: {stderr}"
        );
    }
    for args in [vec!["run", file, "extra"], vec!["serve", file]] {
        let stderr = fails_cleanly(&args);
        assert!(stderr.contains("FILE"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
    // A repeated flag would otherwise silently drop one of its values.
    let stderr = fails_cleanly(&["campaign", file, "--attacks", "4", "--attacks", "9"]);
    assert!(stderr.contains("`--attacks` is given twice"), "{stderr}");
}

#[test]
fn trace_prints_one_line_per_checked_branch() {
    let file = program("ipdsc_cli_trace.mc", BENIGN);
    let trace = |limit: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_ipdsc"))
            .args(["trace", file.to_str().unwrap(), "--input", "1"])
            .args(["--limit", limit])
            .output()
            .expect("spawn ipdsc");
        assert!(out.status.success(), "{out:?}");
        String::from_utf8(out.stdout).expect("utf-8 trace")
    };
    let tail = "status : Exited(0)\n\
                output : [1, 2]\n\
                summary: 2 branches, 2 verified, 0 alarms\n";
    // The first branch has no expectation yet (UN); it sets the second's.
    let first = "  br    1  pc 0x1010  T   expected UN  verified\n";
    let second = "  br    2  pc 0x1028  T   expected T   verified\n";
    assert_eq!(trace("64"), format!("{first}{second}{tail}"));
    // A limit equal to the branch count drops nothing, so no cap line.
    assert_eq!(trace("2"), format!("{first}{second}{tail}"));
    assert_eq!(
        trace("1"),
        format!("{first}  ... (trace capped at 1 branches; --limit N to widen)\n{tail}")
    );
}

#[test]
fn run_events_writes_one_branch_line_per_branch_and_a_summary() {
    let file = program("ipdsc_cli_events.mc", BENIGN);
    let events = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("ipdsc_cli_events.jsonl");
    let _ = std::fs::remove_file(&events);
    let run = |extra: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_ipdsc"))
            .args(["run", file.to_str().unwrap(), "--input", "1"])
            .args(extra)
            .output()
            .expect("spawn ipdsc");
        assert!(out.status.success(), "{out:?}");
        String::from_utf8(out.stdout).expect("utf-8 stdout")
    };
    let plain = run(&[]);
    assert_eq!(run(&["--events", events.to_str().unwrap()]), plain);
    // Both branches carry the BSV's pre-verify expectation: none yet for
    // the first (`?`), taken for the second, which the first one set.
    let jsonl = std::fs::read_to_string(&events).expect("events file");
    assert_eq!(
        jsonl,
        "{\"type\":\"branch\",\"seq\":1,\"pc\":4112,\"taken\":true,\"expected\":\"?\",\
         \"verified\":true,\"alarm\":false,\"bat_actions\":2,\"bsv_transitions\":2,\
         \"table_accesses\":4}\n\
         {\"type\":\"branch\",\"seq\":2,\"pc\":4136,\"taken\":true,\"expected\":\"T\",\
         \"verified\":true,\"alarm\":false,\"bat_actions\":2,\"bsv_transitions\":0,\
         \"table_accesses\":4}\n\
         {\"type\":\"summary\",\"events\":2,\"dropped\":0}\n"
    );
}
