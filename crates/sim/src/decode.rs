//! Lowers a [`Program`] once into the flat op array the interpreter runs.
//!
//! Each function's blocks are laid out in order, each block's instructions
//! followed by its terminator, so one op is one interpreter step and the
//! op index `ip` alone locates it: the step's PC is
//! `pc_base + 4·(ip − first_ip)`, jump and branch targets are op indices,
//! and a branch carries its own PC. Everything the IR names symbolically is
//! resolved here: locals become frame-relative cell offsets, globals
//! absolute cells, operands split into register and immediate forms, and
//! call arguments the callee's frame offsets. A comparison that ends a
//! block and feeds its branch is marked as such, so the loop can run the
//! pair in one dispatch. The interpreter's dispatch loop then never
//! touches the IR.

use ipds_ir::{Address, BinOp, Builtin, Callee, Inst, Operand, Pred, Program, Terminator, VarId};

use crate::memory::Memory;

/// "No register": a call or builtin whose result is discarded.
pub(crate) const NO_REG: u32 = u32::MAX;

/// An operand in decoded form.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Src {
    Reg(u32),
    Imm(i64),
}

impl Src {
    fn of(op: Operand) -> Src {
        match op {
            Operand::Reg(r) => Src::Reg(r.0),
            Operand::Imm(v) => Src::Imm(v),
        }
    }

    #[inline(always)]
    pub(crate) fn get(self, regs: &[i64]) -> i64 {
        match self {
            Src::Reg(r) => regs[r as usize],
            Src::Imm(v) => v,
        }
    }
}

/// The fixed part of a computed address: `k`, plus the activation's frame
/// base when `local`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Base {
    pub(crate) k: i64,
    pub(crate) local: bool,
}

impl Base {
    /// The same base moved by a constant cell offset.
    fn plus(self, offset: i64) -> Base {
        Base {
            k: self.k.wrapping_add(offset),
            ..self
        }
    }

    /// The address before any index is added. Wrapping, like every
    /// address computation: a negative result is a fault, not a panic.
    #[inline(always)]
    pub(crate) fn at(self, frame_base: usize) -> i64 {
        self.k
            .wrapping_add(if self.local { frame_base as i64 } else { 0 })
    }
}

/// One decoded step. Register fields index the running activation's
/// registers.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    Const {
        dst: u32,
        value: i64,
    },
    Bin {
        op: BinOp,
        dst: u32,
        a: u32,
        b: u32,
    },
    BinImm {
        op: BinOp,
        dst: u32,
        a: u32,
        imm: i64,
    },
    /// An immediate left operand of a non-commutative operation.
    ImmBin {
        op: BinOp,
        dst: u32,
        imm: i64,
        b: u32,
    },
    Cmp {
        pred: Pred,
        dst: u32,
        a: u32,
        b: u32,
    },
    CmpImm {
        pred: Pred,
        dst: u32,
        a: u32,
        imm: i64,
    },
    /// A comparison that ends its block, whose [`Op::Branch`] (the next
    /// op) tests `dst`: the loop runs both steps in one dispatch when both
    /// fit before its stop.
    CmpBranch {
        pred: Pred,
        dst: u32,
        a: u32,
        b: u32,
    },
    CmpImmBranch {
        pred: Pred,
        dst: u32,
        a: u32,
        imm: i64,
    },
    /// A scalar (or array head) of the running frame: always in bounds.
    LoadLocal {
        dst: u32,
        off: u32,
    },
    /// `base + regs[index]`: an array element or a pointer dereference.
    LoadIdx {
        dst: u32,
        base: Base,
        index: u32,
    },
    /// `base` alone: a global, an element at a constant index, or a
    /// zero-sized local.
    LoadAt {
        dst: u32,
        base: Base,
    },
    StoreLocal {
        off: u32,
        src: u32,
    },
    StoreLocalImm {
        off: u32,
        value: i64,
    },
    StoreIdx {
        base: Base,
        index: u32,
        src: Src,
    },
    StoreAt {
        base: Base,
        src: Src,
    },
    AddrOf {
        dst: u32,
        base: Base,
    },
    AddrOfIdx {
        dst: u32,
        base: Base,
        index: u32,
    },
    /// A direct call; its arguments are `Code::args[args..args + nargs]`.
    Call {
        func: u32,
        dst: u32,
        args: u32,
        nargs: u32,
    },
    /// A builtin call; its arguments are `Code::args[args..args + nargs]`.
    Builtin {
        b: Builtin,
        dst: u32,
        args: u32,
        nargs: u32,
    },
    /// A phi, which faults: executable programs are post-deconstruction.
    Phi,
    Jump {
        to: u32,
    },
    Branch {
        cond: u32,
        taken: u32,
        not_taken: u32,
        pc: u64,
    },
    Ret {
        value: Src,
    },
}

/// A decoded function.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FuncCode {
    /// Op index of the entry block's first step.
    pub(crate) entry: u32,
    /// Registers per activation.
    pub(crate) nregs: u32,
    /// `pc_base − 4·first_ip` (wrapping): op `ip`'s PC is
    /// `pc_origin + 4·ip`.
    pub(crate) pc_origin: u64,
}

/// A whole program, decoded.
#[derive(Debug, Clone)]
pub(crate) struct Code {
    pub(crate) ops: Vec<Op>,
    /// Call arguments: the callee frame offset a direct call stores each
    /// into (unused for builtins), and the value.
    pub(crate) args: Vec<(u32, Src)>,
    pub(crate) funcs: Vec<FuncCode>,
}

fn commutes(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor
    )
}

impl Code {
    /// Decodes `program` against `mem`'s layout (see the module docs).
    pub(crate) fn decode(program: &Program, mem: &Memory) -> Code {
        let total: usize = program
            .functions
            .iter()
            .map(|f| f.blocks.iter().map(|b| b.insts.len() + 1).sum::<usize>())
            .sum();
        let mut code = Code {
            ops: Vec::with_capacity(total),
            args: Vec::new(),
            funcs: Vec::with_capacity(program.functions.len()),
        };
        let mut block_ip = Vec::new();
        for func in &program.functions {
            let fid = func.id.0;
            let first = code.ops.len();
            block_ip.clear();
            let mut ip = first;
            for b in &func.blocks {
                block_ip.push(ip as u32);
                ip += b.insts.len() + 1;
            }
            let pc_origin = func.pc_base.wrapping_sub(4 * first as u64);
            code.funcs.push(FuncCode {
                entry: block_ip[func.entry.index()],
                nregs: func.next_reg,
                pc_origin,
            });
            // A variable's base address, and whether it is a non-empty
            // local: the one kind of variable whose cell the loop indexes
            // without a check.
            let var = |v: VarId| -> (Base, bool) {
                if v.is_global() {
                    let k = mem.global_cell(v.index()) as i64;
                    (Base { k, local: false }, false)
                } else {
                    let k = mem.local_offset(fid, v.index()) as i64;
                    let direct = func.vars[v.index()].size > 0;
                    (Base { k, local: true }, direct)
                }
            };
            for b in &func.blocks {
                for inst in &b.insts {
                    let op = match *inst {
                        Inst::Const { dst, value } => Op::Const { dst: dst.0, value },
                        Inst::BinOp { dst, op, lhs, rhs } => {
                            let dst = dst.0;
                            match (lhs, rhs) {
                                (Operand::Reg(a), Operand::Reg(b)) => Op::Bin {
                                    op,
                                    dst,
                                    a: a.0,
                                    b: b.0,
                                },
                                (Operand::Reg(a), Operand::Imm(imm)) => Op::BinImm {
                                    op,
                                    dst,
                                    a: a.0,
                                    imm,
                                },
                                (Operand::Imm(imm), Operand::Reg(a)) if commutes(op) => {
                                    Op::BinImm {
                                        op,
                                        dst,
                                        a: a.0,
                                        imm,
                                    }
                                }
                                (Operand::Imm(imm), Operand::Reg(b)) => Op::ImmBin {
                                    op,
                                    dst,
                                    imm,
                                    b: b.0,
                                },
                                (Operand::Imm(a), Operand::Imm(b)) => Op::Const {
                                    dst,
                                    value: op.eval(a, b),
                                },
                            }
                        }
                        Inst::Cmp {
                            dst,
                            pred,
                            lhs,
                            rhs,
                        } => {
                            let dst = dst.0;
                            match (lhs, rhs) {
                                (Operand::Reg(a), Operand::Reg(b)) => Op::Cmp {
                                    pred,
                                    dst,
                                    a: a.0,
                                    b: b.0,
                                },
                                (Operand::Reg(a), Operand::Imm(imm)) => Op::CmpImm {
                                    pred,
                                    dst,
                                    a: a.0,
                                    imm,
                                },
                                (Operand::Imm(imm), Operand::Reg(a)) => Op::CmpImm {
                                    pred: pred.swap(),
                                    dst,
                                    a: a.0,
                                    imm,
                                },
                                (Operand::Imm(a), Operand::Imm(b)) => Op::Const {
                                    dst,
                                    value: pred.eval(a, b) as i64,
                                },
                            }
                        }
                        Inst::Load { dst, addr } => {
                            let dst = dst.0;
                            match addr {
                                Address::Var(v) => match var(v) {
                                    (Base { k, .. }, true) => Op::LoadLocal { dst, off: k as u32 },
                                    (base, false) => Op::LoadAt { dst, base },
                                },
                                Address::Element { base, index } => {
                                    let (base, _) = var(base);
                                    match index {
                                        Operand::Reg(r) => Op::LoadIdx {
                                            dst,
                                            base,
                                            index: r.0,
                                        },
                                        Operand::Imm(i) => Op::LoadAt {
                                            dst,
                                            base: base.plus(i),
                                        },
                                    }
                                }
                                Address::Ptr { reg, offset } => Op::LoadIdx {
                                    dst,
                                    base: Base {
                                        k: offset,
                                        local: false,
                                    },
                                    index: reg.0,
                                },
                            }
                        }
                        Inst::Store { addr, src } => {
                            let src = Src::of(src);
                            match addr {
                                Address::Var(v) => match (var(v), src) {
                                    ((Base { k, .. }, true), Src::Reg(r)) => Op::StoreLocal {
                                        off: k as u32,
                                        src: r,
                                    },
                                    ((Base { k, .. }, true), Src::Imm(value)) => {
                                        Op::StoreLocalImm {
                                            off: k as u32,
                                            value,
                                        }
                                    }
                                    ((base, false), src) => Op::StoreAt { base, src },
                                },
                                Address::Element { base, index } => {
                                    let (base, _) = var(base);
                                    match index {
                                        Operand::Reg(r) => Op::StoreIdx {
                                            base,
                                            index: r.0,
                                            src,
                                        },
                                        Operand::Imm(i) => Op::StoreAt {
                                            base: base.plus(i),
                                            src,
                                        },
                                    }
                                }
                                Address::Ptr { reg, offset } => Op::StoreIdx {
                                    base: Base {
                                        k: offset,
                                        local: false,
                                    },
                                    index: reg.0,
                                    src,
                                },
                            }
                        }
                        Inst::AddrOf { dst, base, offset } => {
                            let (base, _) = var(base);
                            match offset {
                                Operand::Reg(r) => Op::AddrOfIdx {
                                    dst: dst.0,
                                    base,
                                    index: r.0,
                                },
                                Operand::Imm(i) => Op::AddrOf {
                                    dst: dst.0,
                                    base: base.plus(i),
                                },
                            }
                        }
                        Inst::Call {
                            dst,
                            callee,
                            ref args,
                        } => {
                            let dst = dst.map_or(NO_REG, |d| d.0);
                            let start = code.args.len() as u32;
                            let nargs = args.len() as u32;
                            match callee {
                                Callee::Direct(f) => {
                                    for (i, &a) in args.iter().enumerate() {
                                        let off = mem.local_offset(f.0, i);
                                        code.args.push((off as u32, Src::of(a)));
                                    }
                                    Op::Call {
                                        func: f.0,
                                        dst,
                                        args: start,
                                        nargs,
                                    }
                                }
                                Callee::Builtin(b) => {
                                    code.args.extend(args.iter().map(|&a| (0, Src::of(a))));
                                    Op::Builtin {
                                        b,
                                        dst,
                                        args: start,
                                        nargs,
                                    }
                                }
                            }
                        }
                        Inst::Phi { .. } => Op::Phi,
                    };
                    code.ops.push(op);
                }
                // Pair a block-ending comparison with the branch on it.
                if let (&Terminator::Branch { cond, .. }, Some(last)) =
                    (&b.term, code.ops.last_mut())
                {
                    if b.insts.last().is_some_and(|i| i.def() == Some(cond)) {
                        *last = match *last {
                            Op::Cmp { pred, dst, a, b } => Op::CmpBranch { pred, dst, a, b },
                            Op::CmpImm { pred, dst, a, imm } => {
                                Op::CmpImmBranch { pred, dst, a, imm }
                            }
                            other => other,
                        };
                    }
                }
                let term = match b.term {
                    Terminator::Jump(t) => Op::Jump {
                        to: block_ip[t.index()],
                    },
                    Terminator::Branch {
                        cond,
                        taken,
                        not_taken,
                    } => {
                        let ip = code.ops.len() as u64;
                        Op::Branch {
                            cond: cond.0,
                            taken: block_ip[taken.index()],
                            not_taken: block_ip[not_taken.index()],
                            pc: pc_origin.wrapping_add(4 * ip),
                        }
                    }
                    Terminator::Return(v) => Op::Ret {
                        value: v.map_or(Src::Imm(0), Src::of),
                    },
                };
                code.ops.push(term);
            }
        }
        code
    }
}
