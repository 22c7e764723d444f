//! A slow reference interpreter, diffed against the decoded `Interp`.
//!
//! The reference walks the IR directly: `func.blocks[block].insts[idx]`
//! per step, every variable through `Memory::addr_of`, every PC recomputed
//! from block lengths, one step per call. It is the dispatch loop `Interp`
//! ran before programs were decoded into a flat op array. Both interpreters
//! run the same programs — the extended workloads, generated programs and
//! hostile cases (wild, read-only and negative-pointer stores, stack
//! overflow, budget exhaustion, a phi) — and must agree on status, step
//! count, output and the whole event stream: every `on_inst` PC, every
//! `on_mem` access, every branch, call and return, in order. A run
//! snapshotted and restored halfway must replay the same suffix, and the
//! decoded interpreter's memory must equal the reference's at every chunk
//! boundary.

use std::collections::VecDeque;

use ipds_ir::{
    Address, Builtin, Callee, FuncId, Function, Inst, Operand, Program, Reg, Terminator, VarId,
};
use ipds_sim::{ExecLimits, ExecObserver, ExecStatus, Input, Interp, Memory};
use ipds_workloads::generator::{generate_program, GenConfig};

/// One observable event, in commit order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    Inst(u64),
    Mem(u64, usize, bool),
    Branch(u64, bool),
    Call(u32),
    Return,
}

/// Records every event `Interp` reports, with every flag on.
#[derive(Default)]
struct Log(Vec<Ev>);

impl ExecObserver for Log {
    const WANTS_INST: bool = true;
    const WANTS_MEM: bool = true;
    const WANTS_BUILTIN_READS: bool = true;

    fn on_inst(&mut self, pc: u64) {
        self.0.push(Ev::Inst(pc));
    }
    fn on_mem(&mut self, pc: u64, addr: usize, store: bool) {
        self.0.push(Ev::Mem(pc, addr, store));
    }
    fn on_branch(&mut self, pc: u64, dir: bool) {
        self.0.push(Ev::Branch(pc, dir));
    }
    fn on_call(&mut self, func: FuncId) {
        self.0.push(Ev::Call(func.0));
    }
    fn on_return(&mut self) {
        self.0.push(Ev::Return);
    }
}

struct Frame {
    func: usize,
    block: usize,
    idx: usize,
    regs: Vec<i64>,
    frame: usize,
    ret: Option<Reg>,
}

/// The reference interpreter.
struct Reference<'p> {
    program: &'p Program,
    block_pcs: Vec<Vec<u64>>,
    mem: Memory,
    inputs: VecDeque<Input>,
    output: Vec<i64>,
    stack: Vec<Frame>,
    status: ExecStatus,
    steps: u64,
    limits: ExecLimits,
    log: Vec<Ev>,
}

/// Each block's first PC, per function: `pc_base` plus 4 per earlier
/// instruction and terminator.
fn block_pcs(program: &Program) -> Vec<Vec<u64>> {
    let pcs = |f: &Function| {
        let mut pc = f.pc_base;
        let mut starts = Vec::new();
        for b in &f.blocks {
            starts.push(pc);
            pc += 4 * (b.insts.len() as u64 + 1);
        }
        starts
    };
    program.functions.iter().map(pcs).collect()
}

impl<'p> Reference<'p> {
    fn new(program: &'p Program, inputs: &[Input], limits: ExecLimits) -> Self {
        let mut r = Reference {
            program,
            block_pcs: block_pcs(program),
            mem: Memory::new(program),
            inputs: inputs.iter().cloned().collect(),
            output: Vec::new(),
            stack: Vec::new(),
            status: ExecStatus::Running,
            steps: 0,
            limits,
            log: Vec::new(),
        };
        let main = program.main().expect("main");
        r.enter(main.id.0 as usize, &[], None);
        r
    }

    fn enter(&mut self, func: usize, args: &[i64], ret: Option<Reg>) {
        let f = &self.program.functions[func];
        let frame = self.mem.push_frame(f);
        for (i, &v) in args.iter().enumerate() {
            let _ = self
                .mem
                .store(self.mem.addr_of(frame, VarId::local(i as u32)), v);
        }
        self.stack.push(Frame {
            func,
            block: f.entry.index(),
            idx: 0,
            regs: vec![0; f.next_reg as usize],
            frame,
            ret,
        });
    }

    fn val(&self, op: Operand) -> i64 {
        match op {
            Operand::Reg(r) => self.stack.last().unwrap().regs[r.0 as usize],
            Operand::Imm(v) => v,
        }
    }

    fn set(&mut self, r: Reg, v: i64) {
        self.stack.last_mut().unwrap().regs[r.0 as usize] = v;
    }

    fn addr(&self, addr: &Address) -> Result<usize, i64> {
        let top = self.stack.last().unwrap();
        let raw = match *addr {
            Address::Var(v) => return Ok(self.mem.addr_of(top.frame, v)),
            Address::Element { base, index } => {
                (self.mem.addr_of(top.frame, base) as i64).wrapping_add(self.val(index))
            }
            Address::Ptr { reg, offset } => top.regs[reg.0 as usize].wrapping_add(offset),
        };
        usize::try_from(raw).map_err(|_| raw)
    }

    fn fault(&mut self, msg: String) {
        self.status = ExecStatus::Fault(msg);
    }

    /// Runs until `target` steps or a terminal state.
    fn run_to(&mut self, target: u64) {
        while self.status == ExecStatus::Running && self.steps < target {
            self.step();
        }
    }

    /// One step: count, budget, `on_inst`, execute.
    fn step(&mut self) {
        self.steps += 1;
        if self.steps > self.limits.max_steps {
            self.status = ExecStatus::OutOfBudget;
            return;
        }
        let program = self.program;
        let top = self.stack.last().unwrap();
        let func = &program.functions[top.func];
        let (block, idx) = (top.block, top.idx);
        let pc = self.block_pcs[top.func][block] + 4 * idx as u64;
        self.log.push(Ev::Inst(pc));
        let bb = &func.blocks[block];
        let Some(inst) = bb.insts.get(idx) else {
            return self.terminate(&bb.term, pc);
        };
        self.stack.last_mut().unwrap().idx += 1;
        match inst {
            Inst::Const { dst, value } => self.set(*dst, *value),
            Inst::BinOp { dst, op, lhs, rhs } => {
                self.set(*dst, op.eval(self.val(*lhs), self.val(*rhs)))
            }
            Inst::Cmp {
                dst,
                pred,
                lhs,
                rhs,
            } => self.set(*dst, pred.eval(self.val(*lhs), self.val(*rhs)) as i64),
            Inst::Load { dst, addr } => match self.addr(addr) {
                Ok(a) => {
                    self.log.push(Ev::Mem(pc, a, false));
                    self.set(*dst, self.mem.load(a));
                }
                Err(raw) => self.fault(format!("load from out-of-bounds address {raw}")),
            },
            Inst::Store { addr, src } => match self.addr(addr) {
                Ok(a) => {
                    self.log.push(Ev::Mem(pc, a, true));
                    if !self.mem.store(a, self.val(*src)) {
                        self.fault(format!("store fault at cell {a}"));
                    }
                }
                Err(raw) => self.fault(format!("store to out-of-bounds address {raw}")),
            },
            Inst::AddrOf { dst, base, offset } => {
                let b = self.mem.addr_of(self.stack.last().unwrap().frame, *base);
                self.set(*dst, (b as i64).wrapping_add(self.val(*offset)));
            }
            Inst::Call { dst, callee, args } => {
                let argv: Vec<i64> = args.iter().map(|&a| self.val(a)).collect();
                match callee {
                    Callee::Direct(f) => {
                        if self.stack.len() >= self.limits.max_depth {
                            return self.fault("call stack overflow".into());
                        }
                        self.enter(f.0 as usize, &argv, *dst);
                        self.log.push(Ev::Call(f.0));
                    }
                    Callee::Builtin(b) => match self.builtin(*b, &argv, pc) {
                        Ok(Some(v)) => {
                            if let Some(d) = dst {
                                self.set(*d, v);
                            }
                        }
                        Ok(None) => {}
                        Err(end) => self.status = end,
                    },
                }
            }
            Inst::Phi { .. } => {
                self.fault("phi reached the simulator (deconstruct-ssa must run first)".into())
            }
        }
    }

    fn terminate(&mut self, term: &Terminator, pc: u64) {
        match *term {
            Terminator::Jump(t) => {
                let top = self.stack.last_mut().unwrap();
                (top.block, top.idx) = (t.index(), 0);
            }
            Terminator::Branch {
                cond,
                taken,
                not_taken,
            } => {
                let top = self.stack.last_mut().unwrap();
                let dir = top.regs[cond.0 as usize] != 0;
                top.block = if dir { taken } else { not_taken }.index();
                top.idx = 0;
                self.log.push(Ev::Branch(pc, dir));
            }
            Terminator::Return(v) => {
                let value = v.map_or(0, |op| self.val(op));
                let done = self.stack.pop().unwrap();
                self.mem.pop_frame();
                if self.stack.is_empty() {
                    self.status = ExecStatus::Exited(value);
                    return;
                }
                self.log.push(Ev::Return);
                if let Some(d) = done.ret {
                    self.set(d, value);
                }
            }
        }
    }

    fn ptr(&self, what: &str, v: i64) -> Result<usize, ExecStatus> {
        usize::try_from(v)
            .map_err(|_| ExecStatus::Fault(format!("{what}: out-of-bounds address {v}")))
    }

    fn read(&mut self, pc: u64, a: usize) -> i64 {
        self.log.push(Ev::Mem(pc, a, false));
        self.mem.load(a)
    }

    fn write(&mut self, pc: u64, a: usize, v: i64) -> bool {
        self.log.push(Ev::Mem(pc, a, true));
        self.mem.store(a, v)
    }

    fn cstr(&mut self, pc: u64, a: usize, max: usize) -> Vec<i64> {
        (0..max)
            .map(|i| self.read(pc, a + i))
            .take_while(|&c| c != 0)
            .collect()
    }

    fn builtin(&mut self, b: Builtin, args: &[i64], pc: u64) -> Result<Option<i64>, ExecStatus> {
        let fault = |msg: String| Err(ExecStatus::Fault(msg));
        match b {
            Builtin::ReadInt => Ok(Some(
                std::iter::from_fn(|| self.inputs.pop_front())
                    .find_map(|i| match i {
                        Input::Int(v) => Some(v),
                        Input::Str(_) => None,
                    })
                    .unwrap_or(0),
            )),
            Builtin::ReadStr => {
                let dst = self.ptr("read_str", args[0])?;
                let max = usize::try_from(args[1]).unwrap_or(0);
                let s = std::iter::from_fn(|| self.inputs.pop_front())
                    .find_map(|i| match i {
                        Input::Str(s) => Some(s),
                        Input::Int(_) => None,
                    })
                    .unwrap_or_default();
                let chars: Vec<char> = s.chars().take(max).collect();
                for (i, &c) in chars.iter().enumerate() {
                    if !self.write(pc, dst + i, c as i64) {
                        return fault(format!("read_str overflow fault at cell {}", dst + i));
                    }
                }
                if !self.write(pc, dst + chars.len(), 0) {
                    return fault("read_str NUL fault".into());
                }
                Ok(Some(chars.len() as i64))
            }
            Builtin::PrintInt => {
                self.output.push(args[0]);
                Ok(None)
            }
            Builtin::PrintStr => {
                let a = self.ptr("print_str", args[0])?;
                let s = self.cstr(pc, a, 4096);
                self.output.extend(s);
                Ok(None)
            }
            Builtin::StrCmp | Builtin::StrNCmp => {
                let limit = match b {
                    Builtin::StrNCmp => usize::try_from(args[2]).unwrap_or(0),
                    _ => 4096,
                };
                let (l, r) = (self.ptr("strcmp", args[0])?, self.ptr("strcmp", args[1])?);
                let (x, y) = (self.cstr(pc, l, limit), self.cstr(pc, r, limit));
                for i in 0..limit {
                    let (a, b) = (
                        x.get(i).copied().unwrap_or(0),
                        y.get(i).copied().unwrap_or(0),
                    );
                    if a != b {
                        return Ok(Some(if a < b { -1 } else { 1 }));
                    }
                    if a == 0 {
                        break;
                    }
                }
                Ok(Some(0))
            }
            Builtin::StrCpy => {
                let dst = self.ptr("strcpy", args[0])?;
                let from = self.ptr("strcpy", args[1])?;
                let s = self.cstr(pc, from, 4096);
                for (i, &c) in s.iter().enumerate() {
                    if !self.write(pc, dst + i, c) {
                        return fault(format!("strcpy fault at cell {}", dst + i));
                    }
                }
                if !self.write(pc, dst + s.len(), 0) {
                    return fault("strcpy NUL fault".into());
                }
                Ok(None)
            }
            Builtin::StrLen => {
                let a = self.ptr("strlen", args[0])?;
                Ok(Some(self.cstr(pc, a, 4096).len() as i64))
            }
            Builtin::Atoi => {
                let a = self.ptr("atoi", args[0])?;
                let text: String = (self.cstr(pc, a, 64).iter())
                    .map(|&c| char::from_u32(c as u32).unwrap_or('\0'))
                    .collect();
                Ok(Some(text.trim().parse().unwrap_or(0)))
            }
            Builtin::MemSet | Builtin::MemCpy => {
                let what = if b == Builtin::MemSet {
                    "memset"
                } else {
                    "memcpy"
                };
                let dst = self.ptr(what, args[0])?;
                let src = if b == Builtin::MemCpy {
                    Some(self.ptr(what, args[1])?)
                } else {
                    None
                };
                for i in 0..usize::try_from(args[2]).unwrap_or(0) {
                    let v = match src {
                        Some(s) => self.read(pc, s + i),
                        None => args[1],
                    };
                    if !self.write(pc, dst + i, v) {
                        return fault(format!("{what} fault at cell {}", dst + i));
                    }
                }
                Ok(None)
            }
            Builtin::Abs => Ok(Some(args[0].wrapping_abs())),
            Builtin::Exit => Err(ExecStatus::Exited(args[0])),
        }
    }
}

/// Memory equality as far as the public API shows it.
fn same_memory(a: &Memory, b: &Memory) -> bool {
    a.len() == b.len() && a.frames() == b.frames() && (0..a.len()).all(|c| a.load(c) == b.load(c))
}

/// Diffs `Interp` against the reference on one run, stepping both in
/// `chunk`-step slices, then replays the second half from a snapshot.
fn check(program: &Program, inputs: &[Input], limits: ExecLimits, chunk: u64, what: &str) {
    let what = format!("{what} (chunk {chunk}, max_steps {})", limits.max_steps);
    let mut reference = Reference::new(program, inputs, limits);
    let mut interp = Interp::new(program, inputs.to_vec(), limits);
    let mut log = Log::default();
    while reference.status == ExecStatus::Running {
        let target = reference.steps.saturating_add(chunk);
        reference.run_to(target);
        interp.run_steps(chunk, &mut log);
        assert_eq!(*interp.status(), reference.status, "{what}: status");
        assert_eq!(interp.steps(), reference.steps, "{what}: steps");
        assert_eq!(interp.depth(), reference.stack.len(), "{what}: depth");
        if reference.status == ExecStatus::Running {
            assert!(
                same_memory(&interp.mem, &reference.mem),
                "{what}: memory at step {}",
                reference.steps
            );
        }
    }
    assert_eq!(log.0.len(), reference.log.len(), "{what}: event count");
    assert!(log.0 == reference.log, "{what}: event streams differ");
    assert_eq!(interp.output(), &reference.output[..], "{what}: output");

    // Snapshot halfway, finish, restore, finish again: the same suffix.
    let half = reference.steps / 2;
    let mut interp = Interp::new(program, inputs.to_vec(), limits);
    interp.run_steps(half, &mut Log::default());
    if *interp.status() != ExecStatus::Running {
        return;
    }
    let snap = interp.snapshot();
    let (mut first, mut second) = (Log::default(), Log::default());
    let end = interp.run(&mut first);
    let out = interp.output().to_vec();
    interp.restore(&snap);
    let all_cells = vec![u64::MAX; interp.mem.len().div_ceil(64)];
    assert!(
        interp.state_eq_masked(&snap, &all_cells),
        "{what}: restored state"
    );
    assert_eq!(interp.run(&mut second), end, "{what}: status after restore");
    assert!(first.0 == second.0, "{what}: suffix after restore");
    assert_eq!(interp.output(), &out[..], "{what}: output after restore");
    assert_eq!(
        &first.0[..],
        &reference.log[reference.log.len() - first.0.len()..]
    );
}

fn generated_inputs(seed: u64) -> Vec<Input> {
    (0..64)
        .map(|i| Input::Int((seed as i64 * 7 + i) % 23 - 11))
        .collect()
}

#[test]
fn workloads_match_the_reference() {
    let budget = ExecLimits {
        max_steps: 5_000,
        ..ExecLimits::default()
    };
    for w in ipds_workloads::extended() {
        let p = w.program();
        for seed in [1, 2006] {
            let inputs = w.inputs(seed);
            for chunk in [u64::MAX, 97] {
                check(&p, &inputs, ExecLimits::default(), chunk, w.name);
            }
            check(&p, &inputs, budget, 7, w.name);
        }
    }
}

#[test]
fn generated_programs_match_the_reference() {
    let limits = ExecLimits {
        max_steps: 2_000_000,
        max_depth: 64,
    };
    for seed in 0..64u64 {
        let p = ipds_ir::parse(&generate_program(seed, GenConfig::default())).unwrap();
        for chunk in [u64::MAX, 13] {
            check(
                &p,
                &generated_inputs(seed),
                limits,
                chunk,
                &format!("generated seed {seed}"),
            );
        }
    }
}

#[test]
fn hostile_programs_match_the_reference() {
    let programs = [
        // Wild, read-only and negative-pointer stores and loads.
        "fn main() -> int { int *p; p = 99999999; *p = 1; return 0; }",
        "fn main() -> int { strcpy(\"abc\", \"xyz\"); return 0; }",
        "fn main() -> int { int *p; p = \"abc\"; *p = 1; return 0; }",
        "fn main() -> int { int *p; p = 0 - 5; *p = 1; return 0; }",
        "fn main() -> int { int *p; int v; p = 0 - 1; v = *p; return v; }",
        "fn main() -> int { int a[4]; int i; i = 0 - 100000; a[i] = 7; return 0; }",
        "fn main() -> int { int *p; p = 0 - 8; strcpy(p, \"x\"); return 0; }",
        "fn main() -> int { int a[4]; a[9] = 3; print_int(a[9]); return a[2]; }",
        // Unbounded recursion and a loop that outlives the budget.
        "fn rec(int n) -> int { return rec(n + 1); } fn main() -> int { return rec(0); }",
        "fn main() -> int { while (1 == 1) { } return 0; }",
        // Builtins, calls with arguments, exit from deep in the stack.
        "fn main() -> int { int buf[8]; read_str(buf, 7); exit(atoi(buf)); return 9; }",
        "fn main() -> int { int a[8]; int b[8]; int r; \
         memset(a, 65, 4); a[4] = 0; memcpy(b, a, 5); print_str(b); \
         r = strlen(b); print_int(r); r = strcmp(a, b); print_int(r); \
         r = strncmp(a, \"AAB\", 3); print_int(r); \
         read_str(a, 6); r = strcmp(a, b); print_int(r); return r; }",
        "int g; fn f(int x, int *p) -> int { *p = x * 3; g = g + x; return x - 1; } \
         fn main() -> int { int v; int n; n = 5; while (n > 0) { n = f(n, &v); } \
         print_int(v); print_int(g); print_int(abs(0 - g)); return g % 7; }",
        "fn deep(int n) -> int { if (n == 0) { exit(42); } return deep(n - 1); } \
         fn main() -> int { print_int(1); deep(10); return 0; }",
    ];
    let roomy = ExecLimits {
        max_steps: 100_000,
        ..ExecLimits::default()
    };
    let tight = ExecLimits {
        max_steps: 1_000,
        max_depth: 64,
    };
    for src in programs {
        let p = ipds_ir::parse(src).unwrap();
        for limits in [roomy, tight] {
            for chunk in [u64::MAX, 1, 7] {
                check(&p, &[Input::from("42"), Input::Int(3)], limits, chunk, src);
            }
        }
    }
}

#[test]
fn phi_faults_like_the_reference() {
    let mut p = ipds_ir::parse(
        "fn main() -> int { int i; int s; s = 0; \
         for (i = 0; i < 4; i = i + 1) { s = s + i; } return s; }",
    )
    .unwrap();
    ipds_ir::build_ssa(&mut p, 100);
    let mut interp = Interp::new(&p, vec![], ExecLimits::default());
    let status = interp.run(&mut Log::default());
    assert!(
        matches!(&status, ExecStatus::Fault(m) if m.contains("phi")),
        "{status:?}"
    );
    check(&p, &[], ExecLimits::default(), 1, "phi");
}

#[cfg(feature = "props")]
mod props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Random generated programs, random `run_steps` chunk sequences
        /// and a random snapshot/restore point: the decoded interpreter
        /// matches the reference step for step.
        #[test]
        fn chunked_runs_with_a_restore_match_the_reference(
            seed in 0u64..100_000,
            chunks in proptest::collection::vec(1u64..200, 1..12),
            restore_at in 0usize..12,
        ) {
            let p = ipds_ir::parse(&generate_program(seed, GenConfig::default())).unwrap();
            let limits = ExecLimits { max_steps: 200_000, max_depth: 64 };
            let inputs = generated_inputs(seed);
            let mut reference = Reference::new(&p, &inputs, limits);
            reference.run_to(u64::MAX);

            let mut interp = Interp::new(&p, inputs.clone(), limits);
            let mut log = Log::default();
            let mut snap = None;
            for (i, &n) in chunks.iter().cycle().enumerate() {
                if *interp.status() != ExecStatus::Running {
                    break;
                }
                if i == restore_at {
                    // Rewind to here after running past it.
                    snap = Some((interp.snapshot(), log.0.len()));
                }
                interp.run_steps(n, &mut log);
                prop_assert!(reference.log.starts_with(&log.0));
                if let Some((s, events)) = snap.take() {
                    interp.restore(&s);
                    log.0.truncate(events);
                }
            }
            prop_assert_eq!(interp.status(), &reference.status);
            prop_assert_eq!(interp.steps(), reference.steps);
            prop_assert_eq!(interp.output(), &reference.output[..]);
            prop_assert!(log.0 == reference.log);
        }
    }
}
