//! IR instructions, operands, addresses and built-in functions.
//!
//! The instruction set is deliberately close to what MachSUIF handed the
//! paper's analysis: explicit loads/stores against named memory variables,
//! integer ALU operations over *single-static-definition* virtual registers,
//! comparisons producing a 0/1 register, and calls. Control flow lives in
//! block terminators (see [`crate::function::Terminator`]), not here.

use std::fmt;

use crate::function::{BlockId, VarId};

/// A virtual register.
///
/// Registers are **single static definition**: each `Reg` is written by
/// exactly one static instruction in its function. Loops re-execute the
/// defining instruction; there are no phi nodes because all source variables
/// live in memory. This makes use–def chains a direct index lookup, which the
/// branch-correlation back-trace in `ipds-analysis` relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u32);

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// An operand: either a register or an immediate integer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A virtual register value.
    Reg(Reg),
    /// An immediate (compile-time constant) value.
    Imm(i64),
}

impl Operand {
    /// Returns the register if this operand is one.
    pub fn as_reg(&self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(*r),
            Operand::Imm(_) => None,
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Self {
        Operand::Imm(v)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "{v}"),
        }
    }
}

/// Binary ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Division (defined as 0 on divide-by-zero, like a trapping-free model).
    Div,
    /// Remainder (defined as 0 on divide-by-zero).
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift (shift amount masked to 0..64).
    Shl,
    /// Arithmetic right shift (shift amount masked to 0..64).
    Shr,
}

impl BinOp {
    /// Evaluates the operation on concrete values with the simulator's
    /// wrap-around semantics.
    pub fn eval(self, a: i64, b: i64) -> i64 {
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            BinOp::Rem => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_rem(b)
                }
            }
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.wrapping_shl((b & 63) as u32),
            BinOp::Shr => a.wrapping_shr((b & 63) as u32),
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
        };
        f.write_str(s)
    }
}

/// Comparison predicates for [`Inst::Cmp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pred {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
}

impl Pred {
    /// Evaluates the predicate on concrete values.
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            Pred::Eq => a == b,
            Pred::Ne => a != b,
            Pred::Lt => a < b,
            Pred::Le => a <= b,
            Pred::Gt => a > b,
            Pred::Ge => a >= b,
        }
    }

    /// The predicate holding exactly when `self` does not.
    pub fn negate(self) -> Pred {
        match self {
            Pred::Eq => Pred::Ne,
            Pred::Ne => Pred::Eq,
            Pred::Lt => Pred::Ge,
            Pred::Le => Pred::Gt,
            Pred::Gt => Pred::Le,
            Pred::Ge => Pred::Lt,
        }
    }

    /// The predicate with operands swapped (`a < b` ⇔ `b > a`).
    pub fn swap(self) -> Pred {
        match self {
            Pred::Eq => Pred::Eq,
            Pred::Ne => Pred::Ne,
            Pred::Lt => Pred::Gt,
            Pred::Le => Pred::Ge,
            Pred::Gt => Pred::Lt,
            Pred::Ge => Pred::Le,
        }
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Pred::Eq => "eq",
            Pred::Ne => "ne",
            Pred::Lt => "lt",
            Pred::Le => "le",
            Pred::Gt => "gt",
            Pred::Ge => "ge",
        };
        f.write_str(s)
    }
}

/// A memory address expression used by loads and stores.
///
/// The shape of the address is what the alias analysis keys on:
///
/// * [`Address::Var`] — a direct scalar access; *uniquely aliased* unless the
///   variable's address escapes.
/// * [`Address::Element`] — an indexed access into a known array; the whole
///   array is treated as one may-aliased variable (the paper's analysis drops
///   such loads from inference and treats such stores as killing the array).
/// * [`Address::Ptr`] — a computed pointer; its alias set comes from the
///   points-to analysis and is conservatively "may be anything" when the
///   pointer's origin is unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Address {
    /// Direct access to a scalar variable.
    Var(VarId),
    /// Access to `base[index]`.
    Element {
        /// The array variable.
        base: VarId,
        /// The element index (in cells).
        index: Operand,
    },
    /// Access through a computed pointer value plus a constant cell offset.
    Ptr {
        /// Register holding the pointer (an absolute cell address at run
        /// time).
        reg: Reg,
        /// Constant offset in cells.
        offset: i64,
    },
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Address::Var(v) => write!(f, "{v}"),
            Address::Element { base, index } => write!(f, "{base}[{index}]"),
            Address::Ptr { reg, offset } => {
                if *offset == 0 {
                    write!(f, "*{reg}")
                } else {
                    write!(f, "*({reg}+{offset})")
                }
            }
        }
    }
}

/// Built-in functions with hand-written semantics and side-effect summaries.
///
/// These model the standard C library calls the paper special-cases ("All
/// standard C library function calls are specially handled since we know the
/// exact semantics of those functions"). The interpreter in `ipds-sim` gives
/// them concrete behaviour; `ipds-dataflow` gives them exact side-effect
/// summaries (e.g. `strcmp` writes nothing, `strcpy` writes through its first
/// pointer argument).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Builtin {
    /// Reads the next integer from the program's input stream (0 at EOF).
    ReadInt,
    /// `read_str(dst, max)` — reads up to `max` cells of the next input
    /// string into `dst`, NUL-terminated. **Deliberately unchecked** against
    /// the destination's real size: this is the buffer-overflow surface.
    ReadStr,
    /// Prints an integer to the program's output trace.
    PrintInt,
    /// Prints a NUL-terminated cell string to the output trace.
    PrintStr,
    /// `strcmp(a, b)` — standard three-way comparison over cell strings.
    StrCmp,
    /// `strncmp(a, b, n)` — bounded three-way comparison.
    StrNCmp,
    /// `strcpy(dst, src)` — unbounded copy (overflow surface).
    StrCpy,
    /// `strlen(s)` — length of a NUL-terminated cell string.
    StrLen,
    /// `atoi(s)` — parses a decimal integer from a cell string.
    Atoi,
    /// `memset(dst, value, n)` — fills `n` cells.
    MemSet,
    /// `memcpy(dst, src, n)` — copies `n` cells.
    MemCpy,
    /// `abs(x)`.
    Abs,
    /// Terminates the program with the given exit code.
    Exit,
}

impl Builtin {
    /// Looks a builtin up by its MiniC surface name.
    pub fn from_name(name: &str) -> Option<Builtin> {
        match name {
            "read_int" => Some(Builtin::ReadInt),
            "read_str" => Some(Builtin::ReadStr),
            "print_int" => Some(Builtin::PrintInt),
            "print_str" => Some(Builtin::PrintStr),
            "strcmp" => Some(Builtin::StrCmp),
            "strncmp" => Some(Builtin::StrNCmp),
            "strcpy" => Some(Builtin::StrCpy),
            "strlen" => Some(Builtin::StrLen),
            "atoi" => Some(Builtin::Atoi),
            "memset" => Some(Builtin::MemSet),
            "memcpy" => Some(Builtin::MemCpy),
            "abs" => Some(Builtin::Abs),
            "exit" => Some(Builtin::Exit),
            _ => None,
        }
    }

    /// The MiniC surface name of the builtin.
    pub fn name(self) -> &'static str {
        match self {
            Builtin::ReadInt => "read_int",
            Builtin::ReadStr => "read_str",
            Builtin::PrintInt => "print_int",
            Builtin::PrintStr => "print_str",
            Builtin::StrCmp => "strcmp",
            Builtin::StrNCmp => "strncmp",
            Builtin::StrCpy => "strcpy",
            Builtin::StrLen => "strlen",
            Builtin::Atoi => "atoi",
            Builtin::MemSet => "memset",
            Builtin::MemCpy => "memcpy",
            Builtin::Abs => "abs",
            Builtin::Exit => "exit",
        }
    }

    /// The number of arguments the builtin expects.
    pub fn arity(self) -> usize {
        match self {
            Builtin::ReadInt => 0,
            Builtin::PrintInt | Builtin::PrintStr | Builtin::StrLen | Builtin::Atoi => 1,
            Builtin::Abs | Builtin::Exit => 1,
            Builtin::ReadStr | Builtin::StrCmp | Builtin::StrCpy => 2,
            Builtin::StrNCmp | Builtin::MemSet | Builtin::MemCpy => 3,
        }
    }

    /// Argument positions (0-based) through which the builtin may **write**
    /// memory. This is the exact side-effect summary used to generate pseudo
    /// stores at call sites.
    pub fn writes_through(self) -> &'static [usize] {
        match self {
            Builtin::ReadStr => &[0],
            Builtin::StrCpy => &[0],
            Builtin::MemSet => &[0],
            Builtin::MemCpy => &[0],
            _ => &[],
        }
    }

    /// Whether the builtin returns a value.
    pub fn has_result(self) -> bool {
        !matches!(
            self,
            Builtin::PrintInt
                | Builtin::PrintStr
                | Builtin::StrCpy
                | Builtin::MemSet
                | Builtin::MemCpy
                | Builtin::Exit
        )
    }
}

impl fmt::Display for Builtin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The target of a call instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Callee {
    /// A user-defined function in the same program.
    Direct(crate::function::FuncId),
    /// A modeled C-library builtin.
    Builtin(Builtin),
}

/// A non-terminator IR instruction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Inst {
    /// `dst = value`.
    Const {
        /// Destination register.
        dst: Reg,
        /// The constant.
        value: i64,
    },
    /// `dst = op(lhs, rhs)`.
    BinOp {
        /// Destination register.
        dst: Reg,
        /// The operation.
        op: BinOp,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst = (lhs pred rhs) ? 1 : 0`.
    Cmp {
        /// Destination register.
        dst: Reg,
        /// Comparison predicate.
        pred: Pred,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst = memory[addr]`.
    Load {
        /// Destination register.
        dst: Reg,
        /// Address to read.
        addr: Address,
    },
    /// `memory[addr] = src`.
    Store {
        /// Address to write.
        addr: Address,
        /// Value to store.
        src: Operand,
    },
    /// `dst = &base[offset]` — materializes the run-time cell address of a
    /// variable (marking it address-taken for alias purposes).
    AddrOf {
        /// Destination register.
        dst: Reg,
        /// The variable whose address is taken.
        base: VarId,
        /// Element offset within the variable (for arrays), in cells. May be
        /// a register for dynamic indexing.
        offset: Operand,
    },
    /// `dst = callee(args…)`.
    Call {
        /// Where the return value goes, if used.
        dst: Option<Reg>,
        /// The callee.
        callee: Callee,
        /// Argument operands (pointers are absolute cell addresses).
        args: Vec<Operand>,
    },
    /// `dst = phi [(pred, value)…]` — an SSA join point. Phis exist **only
    /// transiently** inside the SSA construction window of the pipeline
    /// (`ssa → mem2reg → deconstruct-ssa`, see [`crate::ssa`]): the
    /// deconstruction pass lowers every phi back to per-variable memory
    /// slots before any analysis, simulation or table emission runs, which
    /// preserves the paper's single-static-definition, no-phi invariant for
    /// everything downstream.
    Phi {
        /// Destination register.
        dst: Reg,
        /// One incoming value per CFG predecessor of the owning block, in
        /// a fixed (deterministic) predecessor order.
        args: Vec<(BlockId, Operand)>,
    },
}

impl Inst {
    /// The register defined by this instruction, if any.
    pub fn def(&self) -> Option<Reg> {
        match self {
            Inst::Const { dst, .. }
            | Inst::BinOp { dst, .. }
            | Inst::Cmp { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::AddrOf { dst, .. }
            | Inst::Phi { dst, .. } => Some(*dst),
            Inst::Call { dst, .. } => *dst,
            Inst::Store { .. } => None,
        }
    }

    /// Appends every register read by this instruction to `out`.
    pub fn uses(&self, out: &mut Vec<Reg>) {
        fn push(op: &Operand, out: &mut Vec<Reg>) {
            if let Operand::Reg(r) = op {
                out.push(*r);
            }
        }
        match self {
            Inst::Const { .. } => {}
            Inst::BinOp { lhs, rhs, .. } | Inst::Cmp { lhs, rhs, .. } => {
                push(lhs, out);
                push(rhs, out);
            }
            Inst::Load { addr, .. } => addr_uses(addr, out),
            Inst::Store { addr, src } => {
                addr_uses(addr, out);
                push(src, out);
            }
            Inst::AddrOf { offset, .. } => push(offset, out),
            Inst::Call { args, .. } => {
                for a in args {
                    push(a, out);
                }
            }
            Inst::Phi { args, .. } => {
                for (_, a) in args {
                    push(a, out);
                }
            }
        }
    }

    /// True if the instruction is a memory load.
    pub fn is_load(&self) -> bool {
        matches!(self, Inst::Load { .. })
    }

    /// True if the instruction is a memory store.
    pub fn is_store(&self) -> bool {
        matches!(self, Inst::Store { .. })
    }
}

fn addr_uses(addr: &Address, out: &mut Vec<Reg>) {
    match addr {
        Address::Var(_) => {}
        Address::Element { index, .. } => {
            if let Operand::Reg(r) = index {
                out.push(*r);
            }
        }
        Address::Ptr { reg, .. } => out.push(*reg),
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inst::Const { dst, value } => write!(f, "{dst} = const {value}"),
            Inst::BinOp { dst, op, lhs, rhs } => write!(f, "{dst} = {op} {lhs}, {rhs}"),
            Inst::Cmp {
                dst,
                pred,
                lhs,
                rhs,
            } => write!(f, "{dst} = cmp.{pred} {lhs}, {rhs}"),
            Inst::Load { dst, addr } => write!(f, "{dst} = load {addr}"),
            Inst::Store { addr, src } => write!(f, "store {addr}, {src}"),
            Inst::AddrOf { dst, base, offset } => write!(f, "{dst} = addr {base}+{offset}"),
            Inst::Call { dst, callee, args } => {
                if let Some(d) = dst {
                    write!(f, "{d} = call ")?;
                } else {
                    write!(f, "call ")?;
                }
                match callee {
                    Callee::Direct(id) => write!(f, "fn#{}", id.0)?,
                    Callee::Builtin(b) => write!(f, "{b}")?,
                }
                write!(f, "(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Inst::Phi { dst, args } => {
                write!(f, "{dst} = phi ")?;
                for (i, (b, a)) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "[{b}: {a}]")?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_eval_wraps_and_handles_div_zero() {
        assert_eq!(BinOp::Add.eval(i64::MAX, 1), i64::MIN);
        assert_eq!(BinOp::Div.eval(10, 0), 0);
        assert_eq!(BinOp::Rem.eval(10, 0), 0);
        assert_eq!(BinOp::Div.eval(10, 3), 3);
        assert_eq!(BinOp::Shl.eval(1, 3), 8);
        assert_eq!(BinOp::Shr.eval(-8, 1), -4);
    }

    #[test]
    fn pred_eval_matches_rust_semantics() {
        assert!(Pred::Lt.eval(1, 2));
        assert!(!Pred::Lt.eval(2, 2));
        assert!(Pred::Le.eval(2, 2));
        assert!(Pred::Eq.eval(5, 5));
        assert!(Pred::Ne.eval(5, 6));
        assert!(Pred::Gt.eval(3, 2));
        assert!(Pred::Ge.eval(2, 2));
    }

    #[test]
    fn pred_negate_is_involutive_and_complementary() {
        for p in [Pred::Eq, Pred::Ne, Pred::Lt, Pred::Le, Pred::Gt, Pred::Ge] {
            assert_eq!(p.negate().negate(), p);
            for (a, b) in [(1, 2), (2, 2), (3, 2), (-5, 5)] {
                assert_eq!(p.eval(a, b), !p.negate().eval(a, b), "{p:?} {a} {b}");
                assert_eq!(p.eval(a, b), p.swap().eval(b, a), "{p:?} swap {a} {b}");
            }
        }
    }

    #[test]
    fn builtin_roundtrips_by_name() {
        for b in [
            Builtin::ReadInt,
            Builtin::ReadStr,
            Builtin::PrintInt,
            Builtin::PrintStr,
            Builtin::StrCmp,
            Builtin::StrNCmp,
            Builtin::StrCpy,
            Builtin::StrLen,
            Builtin::Atoi,
            Builtin::MemSet,
            Builtin::MemCpy,
            Builtin::Abs,
            Builtin::Exit,
        ] {
            assert_eq!(Builtin::from_name(b.name()), Some(b));
        }
        assert_eq!(Builtin::from_name("nonsense"), None);
    }

    #[test]
    fn inst_def_and_uses() {
        let mut uses = Vec::new();
        let i = Inst::BinOp {
            dst: Reg(3),
            op: BinOp::Add,
            lhs: Operand::Reg(Reg(1)),
            rhs: Operand::Imm(4),
        };
        assert_eq!(i.def(), Some(Reg(3)));
        i.uses(&mut uses);
        assert_eq!(uses, vec![Reg(1)]);

        uses.clear();
        let s = Inst::Store {
            addr: Address::Ptr {
                reg: Reg(7),
                offset: 1,
            },
            src: Operand::Reg(Reg(2)),
        };
        assert_eq!(s.def(), None);
        s.uses(&mut uses);
        assert_eq!(uses, vec![Reg(7), Reg(2)]);
    }

    #[test]
    fn display_is_stable() {
        let i = Inst::Cmp {
            dst: Reg(1),
            pred: Pred::Lt,
            lhs: Operand::Reg(Reg(0)),
            rhs: Operand::Imm(5),
        };
        assert_eq!(i.to_string(), "r1 = cmp.lt r0, 5");
    }
}
