//! Checker edge cases: multiple alarms, status introspection, deep stacks,
//! malformed event streams, stream replay.

use ipds_analysis::{analyze_program, AnalysisConfig, BranchStatus};
use ipds_runtime::{BranchOutcome, GuestEvent, IpdsChecker, IpdsStats, RuntimeError, Violation};

fn analysis(src: &str) -> ipds_analysis::ProgramAnalysis {
    analyze_program(&ipds_ir::parse(src).unwrap(), &AnalysisConfig::default())
}

#[test]
fn checking_continues_after_an_alarm() {
    let a = analysis(
        "fn main() -> int { int x; x = read_int(); \
         if (x < 5) { print_int(1); } \
         if (x < 5) { print_int(2); } \
         if (x < 5) { print_int(3); } \
         return 0; }",
    );
    let main = &a.functions[0];
    let pcs: Vec<u64> = main.branches.iter().map(|b| b.pc).collect();
    let mut ipds = IpdsChecker::new(&a);
    ipds.on_call(main.func);
    assert!(!ipds.on_branch(pcs[0], true).alarm);
    // Two contradictions in a row: both alarm, both are recorded, and the
    // BAT keeps updating (the second contradiction is measured against the
    // refreshed status).
    assert!(ipds.on_branch(pcs[1], false).alarm);
    assert!(ipds.on_branch(pcs[2], true).alarm, "status became NotTaken");
    assert_eq!(ipds.alarms().len(), 2);
    assert_eq!(ipds.stats().alarms, 2);
    // Alarm records carry ordered sequence numbers.
    assert!(ipds.alarms()[0].branch_seq < ipds.alarms()[1].branch_seq);
}

#[test]
fn expected_status_reflects_frame_stack() {
    let a = analysis(
        "fn leaf(int v) -> int { if (v == 1) { return 1; } return 0; } \
         fn main() -> int { int x; x = read_int(); \
         if (x == 1) { print_int(1); } return leaf(x); }",
    );
    let main = a.functions.iter().find(|f| f.name == "main").unwrap();
    let leaf = a.functions.iter().find(|f| f.name == "leaf").unwrap();
    let mpc = main.branches[0].pc;
    let lpc = leaf.branches[0].pc;

    let mut ipds = IpdsChecker::new(&a);
    assert_eq!(ipds.expected_status(mpc), None, "no frame yet");
    ipds.on_call(main.func);
    ipds.on_branch(mpc, true);
    assert_eq!(ipds.expected_status(mpc), Some(BranchStatus::Taken));
    // Entering the leaf exposes the leaf's fresh frame.
    ipds.on_call(leaf.func);
    assert_eq!(ipds.expected_status(lpc), Some(BranchStatus::Unknown));
    assert_eq!(ipds.depth(), 2);
    ipds.on_return().unwrap();
    // The caller's status survived underneath.
    assert_eq!(ipds.expected_status(mpc), Some(BranchStatus::Taken));
}

#[test]
fn deep_stacks_track_max_depth() {
    let a = analysis("fn f() { } fn main() -> int { f(); return 0; }");
    let f = a.functions.iter().find(|x| x.name == "f").unwrap();
    let mut ipds = IpdsChecker::new(&a);
    for _ in 0..50 {
        ipds.on_call(f.func);
    }
    assert_eq!(ipds.depth(), 50);
    assert_eq!(ipds.stats().max_depth, 50);
    for _ in 0..50 {
        ipds.on_return().unwrap();
    }
    assert_eq!(ipds.depth(), 0);
    assert_eq!(ipds.stats().max_depth, 50, "high-water mark persists");
}

#[test]
fn unbalanced_return_is_reported_not_fatal() {
    let a = analysis("fn main() -> int { return 0; }");
    let mut ipds = IpdsChecker::new(&a);
    assert!(ipds.on_return().is_err());
    assert_eq!(ipds.stats().underflows, 1);
}

#[test]
fn foreign_pc_is_counted_skipped_and_recorded() {
    let a =
        analysis("fn main() -> int { int x; x = read_int(); if (x < 1) { return 1; } return 0; }");
    let main = &a.functions[0];
    let mut ipds = IpdsChecker::new(&a);
    ipds.on_call(main.func);
    let before = *ipds.stats();
    let out = ipds.on_branch(0xDEAD_BEEC, true);
    // Counted as a branch, but no table was touched.
    assert_eq!(out, BranchOutcome::default());
    assert_eq!(
        *ipds.stats(),
        IpdsStats {
            branches: before.branches + 1,
            ..before
        }
    );
    assert_eq!(
        ipds.violation(),
        Some(Violation {
            error: RuntimeError::ForeignBranch { pc: 0xDEAD_BEEC },
            branch_seq: 1,
        })
    );
    // Checking carries on, and a later violation does not overwrite the
    // first.
    ipds.on_branch(main.branches[0].pc, true);
    ipds.on_branch_run(&[(0xDEAD_BEE0, false)]);
    assert_eq!(ipds.stats().branches, 3);
    assert_eq!(ipds.stats().verified, before.verified + 1);
    assert_eq!(ipds.violation().unwrap().branch_seq, 1);
}

#[test]
fn unchecked_branches_still_fire_their_bat_rows() {
    // A branch outside the BCV (no anchors) can still carry kill actions
    // for others; verify its row applies even though it is never verified.
    let a = analysis(
        "fn main() -> int { int x; int y; x = read_int(); y = read_int(); \
         if (x < 5) { print_int(1); } \
         if (y < 0) { x = read_int(); } \
         if (x < 5) { print_int(2); } \
         return 0; }",
    );
    let main = &a.functions[0];
    let pcs: Vec<u64> = main.branches.iter().map(|b| b.pc).collect();
    let mut ipds = IpdsChecker::new(&a);
    ipds.on_call(main.func);
    let o1 = ipds.on_branch(pcs[0], true); // x < 5 taken
    assert!(o1.verified);
    assert_eq!(ipds.expected_status(pcs[2]), Some(BranchStatus::Taken));
    // The y-branch redefining x resets the third branch to unknown even
    // though the y-branch itself is checked-or-not irrelevant here.
    ipds.on_branch(pcs[1], true);
    assert_eq!(ipds.expected_status(pcs[2]), Some(BranchStatus::Unknown));
    assert!(!ipds.on_branch(pcs[2], false).alarm);
}

#[test]
fn replay_equals_the_stream_fed_one_event_at_a_time() {
    let a = analysis(
        "fn main() -> int { int x; x = read_int(); \
         if (x < 5) { print_int(1); } \
         if (x < 5) { print_int(2); } \
         if (x < 5) { print_int(3); } \
         return 0; }",
    );
    let main = &a.functions[0];
    let pcs: Vec<u64> = main.branches.iter().map(|b| b.pc).collect();
    let verdict = |c: &IpdsChecker| (*c.stats(), c.alarms().to_vec(), c.violation());
    let fresh = verdict(&IpdsChecker::new(&a));

    // An empty slice, and a BSV fault with no frame, change nothing.
    let mut ipds = IpdsChecker::new(&a);
    ipds.replay(&[]);
    assert_eq!(verdict(&ipds), fresh);
    let fault = |slot: u32, status| GuestEvent::FaultBsv { slot, status };
    ipds.replay(&[fault(0, BranchStatus::Taken)]);
    assert_eq!((verdict(&ipds), ipds.depth()), (fresh, 0));
    // A branch before any call is counted and recorded.
    ipds.replay(&[GuestEvent::Branch {
        pc: pcs[0],
        taken: true,
    }]);
    assert_eq!(ipds.stats().branches, 1);
    assert_eq!(
        ipds.violation(),
        Some(Violation {
            error: RuntimeError::NoActiveFrame,
            branch_seq: 1,
        })
    );

    // Runs of branches between calls, a nested frame, a BSV fault, a
    // foreign PC and one return too many.
    let branch = |pc: u64, taken: bool| GuestEvent::Branch { pc, taken };
    let slot = main.branches[2].slot;
    let stream = [
        GuestEvent::Call(main.func),
        branch(pcs[0], true),
        branch(pcs[1], false),
        GuestEvent::Call(main.func),
        branch(pcs[0], false),
        GuestEvent::Return,
        fault(slot, BranchStatus::Taken),
        branch(pcs[2], false),
        branch(0xDEAD_BEE0, true),
        GuestEvent::Return,
        GuestEvent::Return,
    ];
    let mut whole = IpdsChecker::new(&a);
    whole.replay(&stream);
    let mut single = IpdsChecker::new(&a);
    single.on_call(main.func);
    single.on_branch(pcs[0], true);
    single.on_branch(pcs[1], false);
    single.on_call(main.func);
    single.on_branch(pcs[0], false);
    single.on_return().unwrap();
    single.inject_bsv(slot as usize, BranchStatus::Taken);
    single.on_branch(pcs[2], false);
    single.on_branch(0xDEAD_BEE0, true);
    single.on_return().unwrap();
    assert!(single.on_return().is_err());
    assert_eq!(verdict(&whole), verdict(&single));
    assert_eq!(whole.alarms().len(), 2, "the contradiction and the fault");
    assert_eq!(whole.stats().underflows, 1);
    assert_eq!(
        whole.violation().map(|v| v.error),
        Some(RuntimeError::ForeignBranch { pc: 0xDEAD_BEE0 })
    );
}
