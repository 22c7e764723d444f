//! A reference IPDS checker written straight from the paper's §5, diffed
//! against `IpdsChecker`.
//!
//! The reference keeps one `BranchStatus` per branch in a plain vector per
//! frame, finds a PC by linear search over the function's branches, reads
//! the BCV as the analysis' `checked` flags and walks
//! `FunctionAnalysis::actions` for the BAT: no perfect hash, no 2-bit
//! packing, no flattened tables. Both checkers replay the same
//! `GuestEvent` streams — golden runs of every stock workload, seeded
//! memory tampers that alarm, golden runs with a `FaultBsv` at a seeded
//! position (the stream a replayed checker-state fault checks), and
//! malformed streams — and must agree on statistics, alarms and the first
//! protocol violation. `IpdsChecker` is driven one event at a time, with
//! its branches batched into `on_branch_run` runs that are cut at seeded
//! points, and through `IpdsChecker::replay` over seeded chunks of the
//! stream, as the service ingests batches. The reference models the
//! checker's one deliberate limit, the [`MAX_FRAME_DEPTH`] frame cap, as a
//! count of skipped calls whose returns pop nothing.

use ipds::analysis::{BranchStatus, ProgramAnalysis};
use ipds::ir::{FuncId, Program};
use ipds::runtime::{Alarm, IpdsChecker, IpdsStats, RuntimeError, Violation, MAX_FRAME_DEPTH};
use ipds::sim::{EventRecorder, ExecLimits, ExecStatus, Input, Interp, StdRng};
use ipds::{GuestEvent, Protected};

/// One function activation: the BSV, one status per branch, indexed like
/// `FunctionAnalysis::branches`.
struct Frame {
    func: FuncId,
    bsv: Vec<BranchStatus>,
}

/// The §5.1 protocol over the compiler's own tables.
struct Reference<'a> {
    analysis: &'a ProgramAnalysis,
    stack: Vec<Frame>,
    /// Calls made at the frame cap whose returns have not arrived yet.
    skipped: usize,
    stats: IpdsStats,
    alarms: Vec<Alarm>,
    violation: Option<Violation>,
}

impl<'a> Reference<'a> {
    fn new(analysis: &'a ProgramAnalysis) -> Self {
        Reference {
            analysis,
            stack: Vec::new(),
            skipped: 0,
            stats: IpdsStats::default(),
            alarms: Vec::new(),
            violation: None,
        }
    }

    fn violate(&mut self, error: RuntimeError) {
        if self.violation.is_none() {
            self.violation = Some(Violation {
                error,
                branch_seq: self.stats.branches,
            });
        }
    }

    fn event(&mut self, event: GuestEvent) {
        match event {
            GuestEvent::Call(func) => {
                self.stats.calls += 1;
                if self.stack.len() == MAX_FRAME_DEPTH {
                    self.skipped += 1;
                    self.violate(RuntimeError::FrameStackOverflow { func });
                    return;
                }
                match self.analysis.functions.get(func.0 as usize) {
                    Some(fa) => {
                        let bsv = vec![BranchStatus::Unknown; fa.branches.len()];
                        self.stack.push(Frame { func, bsv });
                        self.stats.max_depth = self.stats.max_depth.max(self.stack.len());
                    }
                    None => self.violate(RuntimeError::UnknownFunction { func }),
                }
            }
            GuestEvent::Return if self.skipped > 0 => self.skipped -= 1,
            GuestEvent::Return => {
                if self.stack.pop().is_none() {
                    self.stats.underflows += 1;
                    self.violate(RuntimeError::FrameStackUnderflow {
                        component: "checker",
                    });
                }
            }
            GuestEvent::FaultBsv { slot, status } => {
                // A BSV slot holds the branch the perfect hash put there; a
                // slot no branch hashes to is never read.
                if let Some(frame) = self.stack.last_mut() {
                    let fa = &self.analysis.functions[frame.func.0 as usize];
                    if let Some(i) = fa.branches.iter().position(|b| b.slot == slot) {
                        frame.bsv[i] = status;
                    }
                }
            }
            GuestEvent::Branch { pc, taken } => self.branch(pc, taken),
        }
    }

    fn branch(&mut self, pc: u64, taken: bool) {
        self.stats.branches += 1;
        let analysis = self.analysis;
        let Some(frame) = self.stack.last_mut() else {
            self.violate(RuntimeError::NoActiveFrame);
            return;
        };
        let fa = &analysis.functions[frame.func.0 as usize];
        let Some(idx) = fa.branches.iter().position(|b| b.pc == pc) else {
            self.violate(RuntimeError::ForeignBranch { pc });
            return;
        };
        // BCV probe; if marked, verify against the BSV.
        self.stats.table_accesses += 1;
        if fa.checked[idx] {
            self.stats.verified += 1;
            self.stats.table_accesses += 1;
            let expected = frame.bsv[idx];
            if !expected.matches(taken) {
                self.stats.alarms += 1;
                self.alarms.push(Alarm {
                    func: frame.func,
                    pc,
                    expected,
                    actual: taken,
                    branch_seq: self.stats.branches,
                });
            }
        }
        // Apply the BAT row for (branch, direction), checked or not.
        for entry in fa.actions(idx as u32, taken) {
            let target = &mut frame.bsv[entry.target as usize];
            let new = entry.action.applied(*target);
            self.stats.bat_entries_applied += 1;
            self.stats.table_accesses += 1;
            if new != *target {
                self.stats.bsv_transitions += 1;
            }
            *target = new;
        }
    }
}

/// What a checker run is compared on.
type Verdict = (IpdsStats, Vec<Alarm>, Option<Violation>);

fn reference(analysis: &ProgramAnalysis, stream: &[GuestEvent]) -> Verdict {
    let mut r = Reference::new(analysis);
    for &event in stream {
        r.event(event);
    }
    (r.stats, r.alarms, r.violation)
}

/// Replays `stream` through `IpdsChecker`. With `cuts`, branches batch into
/// `on_branch_run` runs, each run also cut before a branch with
/// probability 1/4 drawn from the seed; without, every branch goes through
/// `on_branch`.
fn fast(analysis: &ProgramAnalysis, stream: &[GuestEvent], cuts: Option<u64>) -> Verdict {
    let mut checker = IpdsChecker::new(analysis);
    let mut rng = cuts.map(StdRng::seed_from_u64);
    let mut run = Vec::new();
    for &event in stream {
        if let (Some(rng), GuestEvent::Branch { pc, taken }) = (&mut rng, event) {
            if rng.gen_range(0..4u32) == 0 {
                checker.on_branch_run(&run);
                run.clear();
            }
            run.push((pc, taken));
            continue;
        }
        checker.on_branch_run(&run);
        run.clear();
        match event {
            GuestEvent::Call(func) => checker.on_call(func),
            GuestEvent::Branch { pc, taken } => {
                checker.on_branch(pc, taken);
            }
            GuestEvent::Return => {
                let _ = checker.on_return();
            }
            GuestEvent::FaultBsv { slot, status } => {
                checker.inject_bsv(slot as usize, status);
            }
        }
    }
    checker.on_branch_run(&run);
    verdict(&checker)
}

/// Replays `stream` through one `IpdsChecker` with `replay`, in
/// consecutive chunks of 1 to 64 events drawn from the seed, as the
/// service ingests batches.
fn replayed(analysis: &ProgramAnalysis, stream: &[GuestEvent], seed: u64) -> Verdict {
    let mut checker = IpdsChecker::new(analysis);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rest = stream;
    while !rest.is_empty() {
        let (chunk, tail) = rest.split_at(rng.gen_range(1..65usize).min(rest.len()));
        checker.replay(chunk);
        rest = tail;
    }
    verdict(&checker)
}

fn verdict(checker: &IpdsChecker) -> Verdict {
    let stats = *checker.stats();
    (stats, checker.alarms().to_vec(), checker.violation())
}

/// Diffs the reference against `IpdsChecker` per event, and at three
/// seeded run splittings and replay chunkings; returns the reference
/// verdict.
fn agree(analysis: &ProgramAnalysis, stream: &[GuestEvent], what: &str) -> Verdict {
    let want = reference(analysis, stream);
    assert_eq!(fast(analysis, stream, None), want, "{what}: per event");
    for seed in [1, 2, 2006] {
        assert_eq!(
            fast(analysis, stream, Some(seed)),
            want,
            "{what}: runs cut at seed {seed}"
        );
        let got = replayed(analysis, stream, seed);
        assert_eq!(got, want, "{what}: replayed in chunks at seed {seed}");
    }
    want
}

fn golden(program: &Program, inputs: &[Input]) -> (Vec<GuestEvent>, u64) {
    let mut rec = EventRecorder::new(program.main().expect("workloads define main").id);
    let mut interp = Interp::new(program, inputs.to_vec(), ExecLimits::default());
    interp.run(&mut rec);
    (rec.events, interp.steps())
}

/// A seeded single-bit flip of one live memory cell at a seeded step of
/// the golden run, as the Fig. 7 campaigns tamper; the whole run's stream.
fn tampered(program: &Program, inputs: &[Input], golden_steps: u64, seed: u64) -> Vec<GuestEvent> {
    let limits = ExecLimits {
        max_steps: golden_steps * 4 + 10_000,
        ..ExecLimits::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rec = EventRecorder::new(program.main().expect("workloads define main").id);
    let mut interp = Interp::new(program, inputs.to_vec(), limits);
    interp.run_steps(rng.gen_range(1..golden_steps.max(2)), &mut rec);
    let cells = interp.mem.live_mutable_cells();
    if *interp.status() == ExecStatus::Running && !cells.is_empty() {
        let cell = cells[rng.gen_range(0..cells.len())];
        let old = interp.mem.load(cell);
        interp
            .mem
            .tamper(cell, old ^ (1i64 << rng.gen_range(0..8u32)));
    }
    interp.run(&mut rec);
    rec.events
}

const STATUSES: [BranchStatus; 3] = [
    BranchStatus::Taken,
    BranchStatus::NotTaken,
    BranchStatus::Unknown,
];

/// The golden stream with a BSV fault at a seeded position, as a replayed
/// checker-state fault checks it: the events before the trigger, then a
/// `FaultBsv` whose slot is reduced modulo the innermost open frame's BSV
/// size (followed, one time in four, by a second one with the next status,
/// as the fault engine rotates a status the slot already holds), then the
/// rest.
fn bsv_faulted(analysis: &ProgramAnalysis, golden: &[GuestEvent], seed: u64) -> Vec<GuestEvent> {
    let mut rng = StdRng::seed_from_u64(seed);
    let at = rng.gen_range(1..golden.len() + 1);
    let mut open = Vec::new();
    for event in &golden[..at] {
        match *event {
            GuestEvent::Call(func) => open.push(func),
            GuestEvent::Return => _ = open.pop(),
            _ => {}
        }
    }
    let top = open.last().expect("main stays open until the stream ends");
    let slot = (rng.next_u64() % u64::from(analysis.of(*top).hash.space())) as u32;
    let status = rng.gen_range(0..3usize);
    let mut faults = vec![GuestEvent::FaultBsv {
        slot,
        status: STATUSES[status],
    }];
    if rng.gen_range(0..4u32) == 0 {
        faults.push(GuestEvent::FaultBsv {
            slot,
            status: STATUSES[(status + 1) % 3],
        });
    }
    let mut stream = golden[..at].to_vec();
    stream.extend(faults);
    stream.extend_from_slice(&golden[at..]);
    stream
}

/// A golden stream with seeded protocol damage: dropped events, extra
/// returns, foreign PCs and calls to unknown functions.
fn mangled(golden: &[GuestEvent], functions: usize, seed: u64) -> Vec<GuestEvent> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stream = golden.to_vec();
    for _ in 0..6 {
        let at = rng.gen_range(0..stream.len() + 1);
        match rng.gen_range(0..4u32) {
            0 if at < stream.len() => {
                stream.remove(at);
            }
            1 => stream.insert(at, GuestEvent::Return),
            2 => stream.insert(
                at,
                GuestEvent::Branch {
                    pc: rng.next_u64() >> 40,
                    taken: rng.gen_bool(0.5),
                },
            ),
            _ => stream.insert(
                at,
                GuestEvent::Call(FuncId(rng.gen_range(0..functions as u32 + 2))),
            ),
        }
    }
    stream
}

#[test]
fn reference_agrees_on_golden_and_tampered_streams() {
    let mut alarming = 0;
    for w in ipds::workloads::all() {
        let p = Protected::compile(&w).unwrap();
        for seed in [1, 2006] {
            let inputs = w.inputs(seed);
            let (stream, steps) = golden(&p.program, &inputs);
            let what = format!("{} seed {seed} golden", w.name);
            let (stats, alarms, violation) = agree(&p.analysis, &stream, &what);
            assert!(stats.branches > 0, "{what}");
            assert!(alarms.is_empty() && violation.is_none(), "{what}");
            for k in 0..24 {
                let stream = tampered(&p.program, &inputs, steps, seed * 1000 + k);
                let what = format!("{} seed {seed} tamper {k}", w.name);
                alarming += usize::from(!agree(&p.analysis, &stream, &what).1.is_empty());
            }
        }
    }
    assert!(alarming >= 40, "only {alarming} tampered streams alarmed");
}

#[test]
fn reference_agrees_on_bsv_faulted_streams() {
    let mut alarming = 0;
    for w in ipds::workloads::all() {
        let p = Protected::compile(&w).unwrap();
        for seed in [1, 2006] {
            let (stream, _) = golden(&p.program, &w.inputs(seed));
            for k in 0..24 {
                let stream = bsv_faulted(&p.analysis, &stream, seed * 1000 + k);
                let what = format!("{} seed {seed} BSV fault {k}", w.name);
                alarming += usize::from(!agree(&p.analysis, &stream, &what).1.is_empty());
            }
        }
    }
    assert!(
        alarming >= 12,
        "only {alarming} BSV-faulted streams alarmed"
    );
}

#[test]
fn reference_agrees_on_malformed_streams() {
    let w = &ipds::workloads::all()[0];
    let p = Protected::compile(w).unwrap();
    let main = p.program.main().unwrap().id;
    let fa = p.analysis.of(main);
    let checked = fa.checked.iter().position(|&c| c).unwrap();
    let branch = &fa.branches[checked];
    // Recursion past the cap, then one return more than the calls: the
    // returns of the skipped calls pop nothing, so only the last one
    // underflows.
    let deep: Vec<GuestEvent> = [GuestEvent::Call(main); MAX_FRAME_DEPTH + 3]
        .into_iter()
        .chain([GuestEvent::Return; MAX_FRAME_DEPTH + 4])
        .collect();
    let (stats, _, violation) = agree(&p.analysis, &deep, "recursion past the frame cap");
    assert_eq!((stats.max_depth, stats.underflows), (MAX_FRAME_DEPTH, 1));
    assert_eq!(
        violation.map(|v| v.error),
        Some(RuntimeError::FrameStackOverflow { func: main })
    );
    assert!(
        ExecLimits::default().max_depth <= MAX_FRAME_DEPTH,
        "the interpreter must return before the checker's cap"
    );
    let cases = [
        (
            vec![GuestEvent::Branch { pc: 0, taken: true }],
            RuntimeError::NoActiveFrame,
        ),
        (
            vec![
                GuestEvent::Call(main),
                GuestEvent::Branch {
                    pc: 0xdead_beef,
                    taken: false,
                },
            ],
            RuntimeError::ForeignBranch { pc: 0xdead_beef },
        ),
        (
            vec![GuestEvent::Call(FuncId(9999))],
            RuntimeError::UnknownFunction { func: FuncId(9999) },
        ),
        (
            vec![
                GuestEvent::Call(main),
                GuestEvent::FaultBsv {
                    slot: branch.slot,
                    status: BranchStatus::NotTaken,
                },
                GuestEvent::Branch {
                    pc: branch.pc,
                    taken: true,
                },
                GuestEvent::Return,
                GuestEvent::Return,
            ],
            RuntimeError::FrameStackUnderflow {
                component: "checker",
            },
        ),
    ];
    for (stream, error) in cases {
        let (_, _, violation) = agree(&p.analysis, &stream, &format!("{stream:?}"));
        assert_eq!(violation.map(|v| v.error), Some(error), "{stream:?}");
    }

    let mut violated = 0;
    for w in ipds::workloads::all() {
        let p = Protected::compile(&w).unwrap();
        let (stream, _) = golden(&p.program, &w.inputs(1));
        for seed in 0..8 {
            let stream = mangled(&stream, p.analysis.functions.len(), seed);
            let what = format!("{} mangled {seed}", w.name);
            violated += usize::from(agree(&p.analysis, &stream, &what).2.is_some());
        }
    }
    assert!(violated >= 70, "only {violated} mangled streams violated");
}
