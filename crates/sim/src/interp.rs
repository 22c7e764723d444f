//! The IR interpreter.
//!
//! [`Interp::new`] lowers the [`Program`] once into a flat op array (see
//! `decode.rs`) and every run dispatches over it in one loop, emitting
//! events to an [`ExecObserver`] whose compile-time `WANTS_*` flags select
//! the hooks the loop calls. Step-level control is what the attack injector
//! needs: it runs to a chosen instant, tampers a cell, and resumes.
//!
//! Every op is one step: an instruction, a terminator, or a builtin call
//! (run inline, however many cells it touches). A step is counted, then
//! checked against the budget (an overrun consumes it and stops the run),
//! then reported to `on_inst`, then executed; loads, stores and builtin
//! accesses report `on_mem` before the access. [`Interp::run_steps`] stops
//! exactly at its target.

use std::collections::VecDeque;

use ipds_ir::{Builtin, FuncId, Program};

use crate::decode::{Code, Op, NO_REG};
use crate::memory::{MemSnapshot, Memory};
use crate::observer::ExecObserver;

/// One element of the program's input stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Input {
    /// Consumed by `read_int()`.
    Int(i64),
    /// Consumed by `read_str(dst, max)`.
    Str(String),
}

impl From<i64> for Input {
    fn from(v: i64) -> Self {
        Input::Int(v)
    }
}

impl From<&str> for Input {
    fn from(s: &str) -> Self {
        Input::Str(s.to_string())
    }
}

/// Why execution stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecStatus {
    /// Still runnable.
    Running,
    /// `main` returned or `exit(code)` was called.
    Exited(i64),
    /// A memory fault (wild or read-only write) terminated the program.
    Fault(String),
    /// The step budget ran out (treated as a hang).
    OutOfBudget,
}

/// Execution limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecLimits {
    /// Maximum interpreted steps (instructions + terminators).
    pub max_steps: u64,
    /// Maximum call depth.
    pub max_depth: usize,
}

impl Default for ExecLimits {
    fn default() -> Self {
        ExecLimits {
            max_steps: 10_000_000,
            max_depth: 256,
        }
    }
}

impl ExecLimits {
    /// The execution limits of every run a campaign derives from a golden
    /// run of `golden_steps` steps: four times its steps, but at least
    /// 100,000, and the default call depth. A tampered run that loops
    /// stops there instead of dragging the campaign out, while a run that
    /// follows the clean path always fits.
    pub fn campaign(golden_steps: u64) -> ExecLimits {
        ExecLimits {
            max_steps: golden_steps.saturating_mul(4).max(100_000),
            ..ExecLimits::default()
        }
    }
}

/// One live function activation. Its registers are
/// `regs[reg_base..reg_base + nregs]` of the interpreter's one register
/// file; its locals are the memory frame starting at `frame_base`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Activation {
    func: u32,
    /// The next op to run. The innermost activation's copy is written back
    /// whenever the dispatch loop stops short of a terminal state.
    ip: u32,
    reg_base: u32,
    frame_base: usize,
    /// The caller's register that receives the return value, or
    /// [`NO_REG`].
    ret_dst: u32,
}

/// A point-in-time copy of a *running* interpreter's mutable state (memory,
/// activation stack, register file, remaining inputs, output, step count).
/// Restoring one via [`Interp::restore`] rewinds execution to exactly that
/// instant — the campaign warm-start engine uses mid-run golden snapshots
/// to skip re-executing the shared prefix of every attack. The decoded
/// program is not part of it: it never changes after [`Interp::new`].
#[derive(Debug, Clone, Default)]
pub struct InterpSnapshot {
    mem: MemSnapshot,
    stack: Vec<Activation>,
    regs: Vec<i64>,
    inputs: VecDeque<Input>,
    output: Vec<i64>,
    steps: u64,
}

impl InterpSnapshot {
    /// The step count at which this snapshot was taken.
    pub fn steps(&self) -> u64 {
        self.steps
    }
}

/// The interpreter. It owns the decoded program, so it borrows nothing.
#[derive(Debug)]
pub struct Interp {
    code: Code,
    main: u32,
    /// The simulated memory (public so the attack injector can tamper).
    pub mem: Memory,
    inputs: VecDeque<Input>,
    output: Vec<i64>,
    stack: Vec<Activation>,
    /// Every live activation's registers, outermost first.
    regs: Vec<i64>,
    status: ExecStatus,
    steps: u64,
    limits: ExecLimits,
}

/// Pushes an activation of `func`, whose memory frame starts at
/// `frame_base`, with zeroed registers.
fn activate(
    code: &Code,
    stack: &mut Vec<Activation>,
    regs: &mut Vec<i64>,
    func: u32,
    frame_base: usize,
    ret_dst: u32,
) {
    let f = &code.funcs[func as usize];
    let reg_base = regs.len();
    regs.resize(reg_base + f.nregs as usize, 0);
    stack.push(Activation {
        func,
        ip: f.entry,
        reg_base: reg_base as u32,
        frame_base,
        ret_dst,
    });
}

impl Interp {
    /// Decodes `program` and creates an interpreter poised at the entry of
    /// `main`.
    ///
    /// # Panics
    ///
    /// Panics if the program has no `main`.
    pub fn new(
        program: &Program,
        inputs: impl IntoIterator<Item = Input>,
        limits: ExecLimits,
    ) -> Interp {
        let main = program.main().expect("program must define `main`").id.0;
        let mem = Memory::new(program);
        let code = Code::decode(program, &mem);
        let mut interp = Interp {
            code,
            main,
            mem,
            inputs: VecDeque::new(),
            output: Vec::new(),
            stack: Vec::new(),
            regs: Vec::new(),
            status: ExecStatus::Running,
            steps: 0,
            limits,
        };
        interp.reset(inputs);
        interp
    }

    /// Rewinds the interpreter to the entry of `main` with a fresh input
    /// stream, reusing the decoded program and every allocation already
    /// made (memory image, register file, output buffer). Equivalent to —
    /// but much cheaper than — constructing a new `Interp`.
    pub fn reset(&mut self, inputs: impl IntoIterator<Item = Input>) {
        self.mem.reset();
        self.inputs.clear();
        self.inputs.extend(inputs);
        self.output.clear();
        self.stack.clear();
        self.regs.clear();
        self.status = ExecStatus::Running;
        self.steps = 0;
        let frame = self.mem.push_frame_of(self.main);
        activate(
            &self.code,
            &mut self.stack,
            &mut self.regs,
            self.main,
            frame,
            NO_REG,
        );
    }

    /// The entry function, resolved once by [`Interp::new`]: the frame a
    /// run starts in, which a checker driven alongside enters first.
    pub fn main(&self) -> FuncId {
        FuncId(self.main)
    }

    /// The current status.
    pub fn status(&self) -> &ExecStatus {
        &self.status
    }

    /// Steps executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Values printed so far (`print_int`; `print_str` pushes each cell).
    pub fn output(&self) -> &[i64] {
        &self.output
    }

    /// Current call depth.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Captures the interpreter's mutable state into `snap`, reusing its
    /// allocations (repeated captures into the same snapshot are
    /// allocation-free in steady state). Only meaningful while the status is
    /// [`ExecStatus::Running`].
    pub fn snapshot_into(&self, snap: &mut InterpSnapshot) {
        debug_assert_eq!(self.status, ExecStatus::Running, "snapshot of a dead run");
        self.mem.snapshot_into(&mut snap.mem);
        snap.stack.clone_from(&self.stack);
        snap.regs.clone_from(&self.regs);
        snap.inputs.clone_from(&self.inputs);
        snap.output.clone_from(&self.output);
        snap.steps = self.steps;
    }

    /// True if the interpreter's live state equals the captured snapshot's
    /// on everything future execution depends on: step count, activation
    /// stack, every live register, remaining inputs, and memory on the
    /// cells set in `read_mask` (see [`Memory::state_eq_masked`]).
    /// Collected output is deliberately excluded: it is append-only and
    /// never read back, so it cannot influence the remaining run. Cheapest
    /// discriminators run first.
    pub fn state_eq_masked(&self, snap: &InterpSnapshot, read_mask: &[u64]) -> bool {
        self.steps == snap.steps
            && self.stack == snap.stack
            && self.regs == snap.regs
            && self.inputs == snap.inputs
            && self.mem.state_eq_masked(&snap.mem, read_mask)
    }

    /// Captures the interpreter's mutable state (see
    /// [`Interp::snapshot_into`]).
    pub fn snapshot(&self) -> InterpSnapshot {
        let mut snap = InterpSnapshot::default();
        self.snapshot_into(&mut snap);
        snap
    }

    /// Rewinds the interpreter to a previously captured [`InterpSnapshot`]
    /// (taken from an interpreter over the *same* program). Equivalent to
    /// replaying the original run's first `snap.steps()` steps, but a few
    /// memcpys instead; existing allocations are reused.
    pub fn restore(&mut self, snap: &InterpSnapshot) {
        self.mem.restore(&snap.mem);
        self.stack.clone_from(&snap.stack);
        self.regs.clone_from(&snap.regs);
        self.inputs.clone_from(&snap.inputs);
        self.output.clone_from(&snap.output);
        self.steps = snap.steps;
        self.status = ExecStatus::Running;
    }

    /// Runs until exit/fault/budget, notifying `obs`.
    pub fn run<O: ExecObserver>(&mut self, obs: &mut O) -> ExecStatus {
        self.run_steps(u64::MAX, obs)
    }

    /// Runs at most `n` further steps.
    pub fn run_steps<O: ExecObserver>(&mut self, n: u64, obs: &mut O) -> ExecStatus {
        let target = self.steps.saturating_add(n);
        if self.status == ExecStatus::Running && self.steps < target {
            self.dispatch(target, obs);
        }
        self.status.clone()
    }

    /// The interpreter's dispatch loop: runs ops until `target` steps or a
    /// terminal state, resolving the running activation's function, frame
    /// and registers once per call or return. The step's PC is only formed
    /// when the observer's `WANTS_INST`/`WANTS_MEM` flags ask for it;
    /// branches carry theirs.
    fn dispatch<O: ExecObserver>(&mut self, target: u64, obs: &mut O) {
        let Interp {
            code,
            mem,
            inputs,
            output,
            stack,
            regs,
            status,
            steps,
            limits,
            ..
        } = self;
        let (ops, args, funcs) = (&code.ops[..], &code.args[..], &code.funcs[..]);
        // The step count lives in a local while the loop runs: stores to
        // guest memory cannot alias it.
        let mut now = *steps;
        // Below `stop` a step needs no check: it is short of the target
        // and within the budget.
        let stop = target.min(limits.max_steps);
        'run: loop {
            let depth = stack.len();
            let Some(act) = stack.last_mut() else {
                // Only an empty restored snapshot gets here: its next step
                // ends the run.
                if now < target {
                    now += 1;
                    *status = if now > limits.max_steps {
                        ExecStatus::OutOfBudget
                    } else {
                        ExecStatus::Exited(0)
                    };
                }
                break 'run;
            };
            let func = funcs[act.func as usize];
            let fb = act.frame_base;
            let base = act.reg_base as usize;
            let r = &mut regs[base..base + func.nregs as usize];
            let mut ip = act.ip as usize;
            // A faulting step ends the run: the status is the whole story.
            macro_rules! fault {
                ($($msg:tt)*) => {{
                    *status = ExecStatus::Fault(format!($($msg)*));
                    break 'run;
                }};
            }
            // Runs the branch at `ip`, whose condition register was just set
            // to `$cond`, as the next step of the same dispatch when that
            // step fits before `stop`; the loop's own check stops it
            // otherwise.
            macro_rules! branch {
                ($cond:expr) => {{
                    if now < stop {
                        now += 1;
                        let Op::Branch {
                            taken,
                            not_taken,
                            pc,
                            ..
                        } = ops[ip]
                        else {
                            unreachable!("a paired comparison precedes its branch")
                        };
                        if O::WANTS_INST {
                            obs.on_inst(pc);
                        }
                        let dir = $cond != 0;
                        ip = if dir { taken } else { not_taken } as usize;
                        obs.on_branch(pc, dir);
                    }
                    continue;
                }};
            }
            loop {
                if now >= stop {
                    act.ip = ip as u32;
                    if now < target {
                        // The step past the budget is counted, not run.
                        now += 1;
                        *status = ExecStatus::OutOfBudget;
                    }
                    break 'run;
                }
                now += 1;
                let pc = func.pc_origin.wrapping_add(4 * ip as u64);
                if O::WANTS_INST {
                    obs.on_inst(pc);
                }
                match ops[ip] {
                    Op::Const { dst, value } => r[dst as usize] = value,
                    Op::Bin { op, dst, a, b } => {
                        r[dst as usize] = op.eval(r[a as usize], r[b as usize]);
                    }
                    Op::BinImm { op, dst, a, imm } => {
                        r[dst as usize] = op.eval(r[a as usize], imm);
                    }
                    Op::ImmBin { op, dst, imm, b } => {
                        r[dst as usize] = op.eval(imm, r[b as usize]);
                    }
                    Op::Cmp { pred, dst, a, b } => {
                        r[dst as usize] = pred.eval(r[a as usize], r[b as usize]) as i64;
                    }
                    Op::CmpImm { pred, dst, a, imm } => {
                        r[dst as usize] = pred.eval(r[a as usize], imm) as i64;
                    }
                    Op::CmpBranch { pred, dst, a, b } => {
                        let v = pred.eval(r[a as usize], r[b as usize]) as i64;
                        r[dst as usize] = v;
                        ip += 1;
                        branch!(v);
                    }
                    Op::CmpImmBranch { pred, dst, a, imm } => {
                        let v = pred.eval(r[a as usize], imm) as i64;
                        r[dst as usize] = v;
                        ip += 1;
                        branch!(v);
                    }
                    Op::LoadLocal { dst, off } => {
                        let a = fb + off as usize;
                        if O::WANTS_MEM {
                            obs.on_mem(pc, a, false);
                        }
                        r[dst as usize] = mem.cells[a];
                    }
                    Op::LoadIdx { dst, base, index } => {
                        let raw = base.at(fb).wrapping_add(r[index as usize]);
                        let Ok(a) = usize::try_from(raw) else {
                            fault!("load from out-of-bounds address {raw}")
                        };
                        if O::WANTS_MEM {
                            obs.on_mem(pc, a, false);
                        }
                        r[dst as usize] = mem.load(a);
                    }
                    Op::LoadAt { dst, base } => {
                        let raw = base.at(fb);
                        let Ok(a) = usize::try_from(raw) else {
                            fault!("load from out-of-bounds address {raw}")
                        };
                        if O::WANTS_MEM {
                            obs.on_mem(pc, a, false);
                        }
                        r[dst as usize] = mem.load(a);
                    }
                    Op::StoreLocal { off, src } => {
                        let a = fb + off as usize;
                        if O::WANTS_MEM {
                            obs.on_mem(pc, a, true);
                        }
                        mem.cells[a] = r[src as usize];
                    }
                    Op::StoreLocalImm { off, value } => {
                        let a = fb + off as usize;
                        if O::WANTS_MEM {
                            obs.on_mem(pc, a, true);
                        }
                        mem.cells[a] = value;
                    }
                    Op::StoreIdx { base, index, src } => {
                        let raw = base.at(fb).wrapping_add(r[index as usize]);
                        let Ok(a) = usize::try_from(raw) else {
                            fault!("store to out-of-bounds address {raw}")
                        };
                        if O::WANTS_MEM {
                            obs.on_mem(pc, a, true);
                        }
                        if !mem.store(a, src.get(r)) {
                            fault!("store fault at cell {a}")
                        }
                    }
                    Op::StoreAt { base, src } => {
                        let raw = base.at(fb);
                        let Ok(a) = usize::try_from(raw) else {
                            fault!("store to out-of-bounds address {raw}")
                        };
                        if O::WANTS_MEM {
                            obs.on_mem(pc, a, true);
                        }
                        if !mem.store(a, src.get(r)) {
                            fault!("store fault at cell {a}")
                        }
                    }
                    Op::AddrOf { dst, base } => r[dst as usize] = base.at(fb),
                    Op::AddrOfIdx { dst, base, index } => {
                        r[dst as usize] = base.at(fb).wrapping_add(r[index as usize]);
                    }
                    Op::Call {
                        func: callee,
                        dst,
                        args: start,
                        nargs,
                    } => {
                        if depth >= limits.max_depth {
                            fault!("call stack overflow")
                        }
                        // The frame was just allocated, so only a
                        // zero-sized last parameter can fall outside it.
                        let frame = mem.push_frame_of(callee);
                        for &(off, src) in &args[start as usize..(start + nargs) as usize] {
                            if let Some(cell) = mem.cells.get_mut(frame + off as usize) {
                                *cell = src.get(r);
                            }
                        }
                        act.ip = ip as u32 + 1;
                        activate(code, stack, regs, callee, frame, dst);
                        obs.on_call(FuncId(callee));
                        continue 'run;
                    }
                    Op::Builtin {
                        b,
                        dst,
                        args: start,
                        nargs,
                    } => {
                        // Builtins take at most three arguments
                        // (`Builtin::arity`, which the IR verifier
                        // enforces).
                        let mut argv = [0i64; 3];
                        let args = &args[start as usize..(start + nargs) as usize];
                        for (v, &(_, src)) in argv.iter_mut().zip(args) {
                            *v = src.get(r);
                        }
                        let pc = if O::WANTS_MEM { pc } else { 0 };
                        match builtin(b, &argv, pc, mem, inputs, output, obs) {
                            Ok(Some(v)) if dst != NO_REG => r[dst as usize] = v,
                            Ok(_) => {}
                            Err(end) => {
                                *status = end;
                                break 'run;
                            }
                        }
                    }
                    // Executable programs are post-deconstruction by
                    // contract (the structural verifier rejects phis);
                    // fault rather than guess a predecessor.
                    Op::Phi => {
                        fault!("phi reached the simulator (deconstruct-ssa must run first)")
                    }
                    Op::Jump { to } => {
                        ip = to as usize;
                        continue;
                    }
                    Op::Branch {
                        cond,
                        taken,
                        not_taken,
                        pc,
                    } => {
                        let dir = r[cond as usize] != 0;
                        ip = if dir { taken } else { not_taken } as usize;
                        obs.on_branch(pc, dir);
                        continue;
                    }
                    Op::Ret { value } => {
                        let value = value.get(r);
                        let (reg_base, ret_dst) = (act.reg_base, act.ret_dst);
                        stack.pop();
                        mem.pop_frame();
                        regs.truncate(reg_base as usize);
                        let Some(caller) = stack.last() else {
                            *status = ExecStatus::Exited(value);
                            break 'run;
                        };
                        obs.on_return();
                        if ret_dst != NO_REG {
                            regs[(caller.reg_base + ret_dst) as usize] = value;
                        }
                        continue 'run;
                    }
                }
                ip += 1;
            }
        }
        *steps = now;
    }
}

/// A builtin's pointer argument as a cell address; a negative (tampered)
/// value faults.
fn addr_arg(what: &str, v: i64) -> Result<usize, ExecStatus> {
    usize::try_from(v).map_err(|_| ExecStatus::Fault(format!("{what}: out-of-bounds address {v}")))
}

/// A builtin's store of `v` to `addr`, reported to `on_mem` first;
/// `false` if the cell is not writable.
fn store_cell<O: ExecObserver>(
    mem: &mut Memory,
    obs: &mut O,
    pc: u64,
    addr: usize,
    v: i64,
) -> bool {
    if O::WANTS_MEM {
        obs.on_mem(pc, addr, true);
    }
    mem.store(addr, v)
}

/// The NUL-terminated cell string at `addr`, at most `max` cells.
fn read_cstr<O: ExecObserver>(
    mem: &Memory,
    obs: &mut O,
    addr: usize,
    max: usize,
    pc: u64,
) -> Vec<i64> {
    let mut out = Vec::new();
    for i in 0..max {
        if O::WANTS_BUILTIN_READS {
            obs.on_mem(pc, addr + i, false);
        }
        let c = mem.load(addr + i);
        if c == 0 {
            break;
        }
        out.push(c);
    }
    out
}

/// Runs builtin `b` on `args` as one step. `Ok` carries its result, if it
/// has one; `Err` the status that ends the run (a fault, or `exit`).
/// Kept out of line so the dispatch loop stays small.
#[inline(never)]
fn builtin<O: ExecObserver>(
    b: Builtin,
    args: &[i64; 3],
    pc: u64,
    mem: &mut Memory,
    inputs: &mut VecDeque<Input>,
    output: &mut Vec<i64>,
    obs: &mut O,
) -> Result<Option<i64>, ExecStatus> {
    let fault = |msg: String| Err(ExecStatus::Fault(msg));
    match b {
        Builtin::ReadInt => loop {
            match inputs.pop_front() {
                Some(Input::Int(v)) => return Ok(Some(v)),
                Some(Input::Str(_)) => continue, // skip mismatched input
                None => return Ok(Some(0)),
            }
        },
        Builtin::ReadStr => {
            let dst = addr_arg("read_str", args[0])?;
            // A negative length reads nothing (only the NUL is written).
            let max = usize::try_from(args[1]).unwrap_or(0);
            let s = loop {
                match inputs.pop_front() {
                    Some(Input::Str(s)) => break s,
                    Some(Input::Int(_)) => continue,
                    None => break String::new(),
                }
            };
            // Unbounded against the real buffer: copies up to `max`
            // cells plus NUL. The caller passing a `max` larger than the
            // buffer is the classic overflow bug.
            let mut wrote = 0usize;
            for (i, c) in s.chars().take(max).enumerate() {
                if !store_cell(mem, obs, pc, dst + i, c as i64) {
                    return fault(format!("read_str overflow fault at cell {}", dst + i));
                }
                wrote = i + 1;
            }
            if !store_cell(mem, obs, pc, dst + wrote, 0) {
                return fault("read_str NUL fault".into());
            }
            Ok(Some(wrote as i64))
        }
        Builtin::PrintInt => {
            output.push(args[0]);
            Ok(None)
        }
        Builtin::PrintStr => {
            let a = addr_arg("print_str", args[0])?;
            output.extend(read_cstr(mem, obs, a, 4096, pc));
            Ok(None)
        }
        Builtin::StrCmp | Builtin::StrNCmp => {
            let limit = if b == Builtin::StrNCmp {
                usize::try_from(args[2]).unwrap_or(0)
            } else {
                4096
            };
            let lhs = addr_arg("strcmp", args[0])?;
            let rhs = addr_arg("strcmp", args[1])?;
            let a = read_cstr(mem, obs, lhs, limit, pc);
            let c = read_cstr(mem, obs, rhs, limit, pc);
            for i in 0..limit {
                let x = a.get(i).copied().unwrap_or(0);
                let y = c.get(i).copied().unwrap_or(0);
                if x != y {
                    return Ok(Some(if x < y { -1 } else { 1 }));
                }
                if x == 0 {
                    break;
                }
            }
            Ok(Some(0))
        }
        Builtin::StrCpy => {
            let dst = addr_arg("strcpy", args[0])?;
            let from = addr_arg("strcpy", args[1])?;
            let src = read_cstr(mem, obs, from, 4096, pc);
            for (i, &c) in src.iter().enumerate() {
                if !store_cell(mem, obs, pc, dst + i, c) {
                    return fault(format!("strcpy fault at cell {}", dst + i));
                }
            }
            if !store_cell(mem, obs, pc, dst + src.len(), 0) {
                return fault("strcpy NUL fault".into());
            }
            Ok(None)
        }
        Builtin::StrLen => {
            let a = addr_arg("strlen", args[0])?;
            Ok(Some(read_cstr(mem, obs, a, 4096, pc).len() as i64))
        }
        Builtin::Atoi => {
            let a = addr_arg("atoi", args[0])?;
            let text: String = read_cstr(mem, obs, a, 64, pc)
                .iter()
                .map(|&c| char::from_u32(c as u32).unwrap_or('\0'))
                .collect();
            Ok(Some(text.trim().parse::<i64>().unwrap_or(0)))
        }
        Builtin::MemSet => {
            let dst = addr_arg("memset", args[0])?;
            let v = args[1];
            // A negative count writes nothing.
            let n = usize::try_from(args[2]).unwrap_or(0);
            for i in 0..n {
                if !store_cell(mem, obs, pc, dst + i, v) {
                    return fault(format!("memset fault at cell {}", dst + i));
                }
            }
            Ok(None)
        }
        Builtin::MemCpy => {
            let dst = addr_arg("memcpy", args[0])?;
            let src = addr_arg("memcpy", args[1])?;
            let n = usize::try_from(args[2]).unwrap_or(0);
            for i in 0..n {
                if O::WANTS_BUILTIN_READS {
                    obs.on_mem(pc, src + i, false);
                }
                let v = mem.load(src + i);
                if !store_cell(mem, obs, pc, dst + i, v) {
                    return fault(format!("memcpy fault at cell {}", dst + i));
                }
            }
            Ok(None)
        }
        Builtin::Abs => Ok(Some(args[0].wrapping_abs())),
        Builtin::Exit => Err(ExecStatus::Exited(args[0])),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::NullObserver;

    fn run(src: &str, inputs: Vec<Input>) -> (ExecStatus, Vec<i64>) {
        let p = ipds_ir::parse(src).unwrap();
        let mut i = Interp::new(&p, inputs, ExecLimits::default());
        let s = i.run(&mut NullObserver);
        (s, i.output().to_vec())
    }

    #[test]
    fn arithmetic_and_control_flow() {
        let (s, out) = run(
            "fn main() -> int { int i; int acc; acc = 0; \
             for (i = 1; i <= 5; i = i + 1) { acc = acc + i; } \
             print_int(acc); return acc; }",
            vec![],
        );
        assert_eq!(s, ExecStatus::Exited(15));
        assert_eq!(out, vec![15]);
    }

    #[test]
    fn inputs_and_branching() {
        let src = "fn main() -> int { int x; x = read_int(); \
                   if (x < 10) { print_int(1); } else { print_int(2); } return x; }";
        let (s, out) = run(src, vec![Input::Int(3)]);
        assert_eq!(s, ExecStatus::Exited(3));
        assert_eq!(out, vec![1]);
        let (_, out) = run(src, vec![Input::Int(30)]);
        assert_eq!(out, vec![2]);
    }

    #[test]
    fn function_calls_and_returns() {
        let (s, out) = run(
            "fn sq(int v) -> int { return v * v; } \
             fn main() -> int { int r; r = sq(read_int()); print_int(r); return r; }",
            vec![Input::Int(7)],
        );
        assert_eq!(s, ExecStatus::Exited(49));
        assert_eq!(out, vec![49]);
    }

    #[test]
    fn recursion() {
        let (s, _) = run(
            "fn fib(int n) -> int { if (n < 2) { return n; } return fib(n-1) + fib(n-2); } \
             fn main() -> int { return fib(10); }",
            vec![],
        );
        assert_eq!(s, ExecStatus::Exited(55));
    }

    #[test]
    fn pointers_and_arrays() {
        let (s, _) = run(
            "fn bump(int *p) { *p = *p + 1; } \
             fn main() -> int { int a[3]; int i; \
             for (i = 0; i < 3; i = i + 1) { a[i] = i * 10; } \
             bump(&a[1]); return a[0] + a[1] + a[2]; }",
            vec![],
        );
        assert_eq!(s, ExecStatus::Exited(31)); // 0 + 11 + 20
    }

    #[test]
    fn string_builtins() {
        let (s, out) = run(
            "fn main() -> int { int buf[16]; int r; \
             strcpy(buf, \"admin\"); \
             r = strcmp(buf, \"admin\"); print_int(r); \
             r = strncmp(buf, \"adxxx\", 2); print_int(r); \
             r = strlen(buf); print_int(r); \
             return 0; }",
            vec![],
        );
        assert_eq!(s, ExecStatus::Exited(0));
        assert_eq!(out, vec![0, 0, 5]);
    }

    #[test]
    fn read_str_overflow_clobbers_neighbor() {
        // buf has 4 cells but read_str is allowed 8: the 5th char lands in
        // `flag` (and the NUL in `pad`).
        let (s, out) = run(
            "fn main() -> int { int buf[4]; int flag; int pad; flag = 0; pad = 1; \
             read_str(buf, 8); \
             if (flag == 0) { print_int(0); } else { print_int(1); } return flag; }",
            vec![Input::Str("AAAAZ".into())],
        );
        // 'Z' = 90 lands in flag.
        assert_eq!(s, ExecStatus::Exited('Z' as i64));
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn atoi_and_exit() {
        let (s, _) = run(
            "fn main() -> int { int buf[8]; read_str(buf, 7); exit(atoi(buf)); return 9; }",
            vec![Input::Str("42".into())],
        );
        assert_eq!(s, ExecStatus::Exited(42));
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let p = ipds_ir::parse("fn main() -> int { while (1 == 1) { } return 0; }").unwrap();
        let mut i = Interp::new(
            &p,
            vec![],
            ExecLimits {
                max_steps: 1000,
                max_depth: 64,
            },
        );
        assert_eq!(i.run(&mut NullObserver), ExecStatus::OutOfBudget);
    }

    #[test]
    fn stack_overflow_faults() {
        let p = ipds_ir::parse(
            "fn rec(int n) -> int { return rec(n + 1); } fn main() -> int { return rec(0); }",
        )
        .unwrap();
        let mut i = Interp::new(&p, vec![], ExecLimits::default());
        assert!(matches!(i.run(&mut NullObserver), ExecStatus::Fault(_)));
    }

    #[test]
    fn wild_store_faults() {
        let (s, _) = run(
            "fn main() -> int { int *p; p = 99999999; *p = 1; return 0; }",
            vec![],
        );
        assert!(matches!(s, ExecStatus::Fault(_)), "{s:?}");
    }

    #[test]
    fn negative_pointer_store_faults_instead_of_aliasing_cell_zero() {
        // Regression: `.max(0)` used to clamp this to address 0 and the
        // write landed on a live cell, silently masking the tampering.
        let (s, _) = run(
            "fn main() -> int { int *p; p = 0 - 5; *p = 1; return 0; }",
            vec![],
        );
        assert_eq!(
            s,
            ExecStatus::Fault("store to out-of-bounds address -5".into())
        );
    }

    #[test]
    fn negative_pointer_load_faults_instead_of_reading_zero() {
        // Regression: a clamped load used to quietly return cell 0.
        let (s, out) = run(
            "fn main() -> int { int *p; int v; p = 0 - 1; v = *p; print_int(v); return v; }",
            vec![],
        );
        assert_eq!(
            s,
            ExecStatus::Fault("load from out-of-bounds address -1".into())
        );
        assert!(out.is_empty(), "the faulting load must not produce output");
    }

    #[test]
    fn negative_array_index_faults() {
        let (s, _) = run(
            "fn main() -> int { int a[4]; int i; i = 0 - 100000; a[i] = 7; return 0; }",
            vec![],
        );
        assert!(
            matches!(&s, ExecStatus::Fault(m) if m.contains("out-of-bounds address")),
            "{s:?}"
        );
    }

    #[test]
    fn negative_builtin_pointer_faults() {
        let (s, _) = run(
            "fn main() -> int { int *p; p = 0 - 8; strcpy(p, \"x\"); return 0; }",
            vec![],
        );
        assert!(
            matches!(&s, ExecStatus::Fault(m) if m.contains("out-of-bounds address")),
            "{s:?}"
        );
        let (s, _) = run(
            "fn main() -> int { int *p; int n; p = 0 - 8; n = strlen(p); return n; }",
            vec![],
        );
        assert!(
            matches!(&s, ExecStatus::Fault(m) if m.contains("out-of-bounds address")),
            "{s:?}"
        );
    }

    #[test]
    fn negative_lengths_are_empty_not_wild() {
        // A negative count is a degenerate request, not a tampered address:
        // it copies/sets nothing and execution continues.
        let (s, out) = run(
            "fn main() -> int { int a[4]; int n; n = 0 - 3; \
             a[0] = 5; memset(a, 9, n); print_int(a[0]); return 0; }",
            vec![],
        );
        assert_eq!(s, ExecStatus::Exited(0));
        assert_eq!(out, vec![5], "memset with negative n must be a no-op");
    }

    #[test]
    fn observer_sees_branches_and_calls() {
        use crate::observer::BranchTrace;
        let p = ipds_ir::parse(
            "fn f() -> int { return 1; } \
             fn main() -> int { int x; x = read_int(); if (x < 5) { f(); } return 0; }",
        )
        .unwrap();
        let mut tr = BranchTrace::default();
        let mut i = Interp::new(&p, vec![Input::Int(1)], ExecLimits::default());
        i.run(&mut tr);
        assert_eq!(tr.trace.len(), 1);
        assert!(tr.trace[0].1, "x < 5 taken");
    }
}
