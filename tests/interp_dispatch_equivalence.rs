//! Every observer type gets its own instantiation of the interpreter's
//! dispatch loop, selected by its compile-time `WANTS_*` flags. These tests
//! run each program under an observer with every flag on and one with every
//! flag off, chunked through `run_steps`, and require identical machines at
//! every chunk boundary and identical event streams and output at the end.

use ipds_ir::{FuncId, Program};
use ipds_sim::{ExecLimits, ExecObserver, ExecStatus, Input, Interp};
use ipds_workloads::generator::{generate_program, GenConfig};

/// Records branches, calls and returns, and counts instruction and memory
/// events; `FULL` sets all three capability flags. With the flags on, every
/// branch and memory event must carry the PC of the step `on_inst` last
/// reported: a branch is its block's terminator step, and a load, store or
/// builtin access belongs to the instruction being executed.
#[derive(Default)]
struct Log<const FULL: bool> {
    events: Vec<(u8, u64)>,
    insts: u64,
    mems: u64,
    last_inst: Option<u64>,
}

impl<const FULL: bool> ExecObserver for Log<FULL> {
    const WANTS_INST: bool = FULL;
    const WANTS_MEM: bool = FULL;
    const WANTS_BUILTIN_READS: bool = FULL;

    fn on_inst(&mut self, pc: u64) {
        self.insts += 1;
        self.last_inst = Some(pc);
    }
    fn on_mem(&mut self, pc: u64, addr: usize, store: bool) {
        self.mems += 1;
        assert_eq!(
            Some(pc),
            self.last_inst,
            "on_mem({addr}, {store}) PC is not its step's"
        );
    }
    fn on_branch(&mut self, pc: u64, dir: bool) {
        if FULL {
            assert_eq!(Some(pc), self.last_inst, "on_branch PC is not its step's");
        }
        self.events.push((dir as u8, pc));
    }
    fn on_call(&mut self, func: FuncId) {
        self.events.push((2, func.0 as u64));
    }
    fn on_return(&mut self) {
        self.events.push((3, 0));
    }
}

fn check(program: &Program, inputs: &[Input], limits: ExecLimits, chunk: u64, what: &str) {
    let what = format!("{what} (chunk {chunk}, max_steps {})", limits.max_steps);
    let mut full = Interp::new(program, inputs.to_vec(), limits);
    let mut lean = Interp::new(program, inputs.to_vec(), limits);
    let (mut full_log, mut lean_log) = (Log::<true>::default(), Log::<false>::default());
    while *full.status() == ExecStatus::Running {
        full.run_steps(chunk, &mut full_log);
        lean.run_steps(chunk, &mut lean_log);
        assert_eq!(full.status(), lean.status(), "{what}: status");
        assert_eq!(full.steps(), lean.steps(), "{what}: steps");
        assert_eq!(full.depth(), lean.depth(), "{what}: depth");
        // Snapshots are only defined for a running machine.
        if *full.status() == ExecStatus::Running {
            let all_cells = vec![u64::MAX; full.mem.len().div_ceil(64)];
            let same = full.state_eq_masked(&lean.snapshot(), &all_cells);
            assert!(same, "{what}: state diverged by step {}", full.steps());
        }
    }
    assert_eq!(full_log.events, lean_log.events, "{what}: event streams");
    assert_eq!(full.output(), lean.output(), "{what}: output");
    // A budget overrun counts its step but never commits it.
    let overrun = u64::from(*full.status() == ExecStatus::OutOfBudget);
    assert_eq!(full_log.insts + overrun, full.steps(), "{what}: on_inst");
    assert_eq!((lean_log.insts, lean_log.mems), (0, 0), "{what}: flags off");
    assert!(full_log.mems > 0, "{what}: no memory events to check");
}

const CHUNKS: [u64; 4] = [u64::MAX, 1, 7, 64];

#[test]
fn workloads_agree_at_every_chunk_size() {
    let budget = ExecLimits {
        max_steps: 5_000,
        ..ExecLimits::default()
    };
    for w in ipds_workloads::extended() {
        let p = w.program();
        for seed in [1, 2006] {
            let inputs = w.inputs(seed);
            for chunk in CHUNKS {
                check(&p, &inputs, ExecLimits::default(), chunk, w.name);
            }
            check(&p, &inputs, budget, 7, w.name);
        }
    }
}

#[test]
fn generated_programs_agree() {
    let limits = ExecLimits {
        max_steps: 2_000_000,
        max_depth: 64,
    };
    for seed in 0..32u64 {
        let p = ipds_ir::parse(&generate_program(seed, GenConfig::default())).unwrap();
        let inputs: Vec<Input> = (0..64)
            .map(|i| Input::Int((seed as i64 * 7 + i) % 23 - 11))
            .collect();
        let what = format!("generated seed {seed}");
        for chunk in [u64::MAX, 7] {
            check(&p, &inputs, limits, chunk, &what);
        }
    }
}

#[test]
fn faults_and_builtins_agree() {
    // Out-of-bounds store, negative-pointer strcpy, stack overflow,
    // exit(atoi(..)), and the string and block builtins.
    let programs = [
        "fn main() -> int { int *p; p = 99999999; *p = 1; return 0; }",
        "fn main() -> int { int *p; p = 0 - 8; strcpy(p, \"x\"); return 0; }",
        "fn rec(int n) -> int { return rec(n + 1); } fn main() -> int { return rec(0); }",
        "fn main() -> int { int buf[8]; read_str(buf, 7); exit(atoi(buf)); return 9; }",
        "fn main() -> int { int a[8]; int b[8]; int r; \
         memset(a, 65, 4); a[4] = 0; memcpy(b, a, 5); print_str(b); \
         r = strlen(b); print_int(r); r = strcmp(a, b); print_int(r); \
         read_str(a, 6); r = strcmp(a, b); print_int(r); return r; }",
    ];
    for src in programs {
        let p = ipds_ir::parse(src).unwrap();
        for chunk in CHUNKS {
            check(&p, &[Input::from("42")], ExecLimits::default(), chunk, src);
        }
    }
}
