//! Programmatic construction of IR functions.
//!
//! Tests that need an exact CFG shape build IR directly instead of going
//! through MiniC; workloads, microbenchmarks and the random program
//! generator are all MiniC source. The builder hands out fresh registers
//! and blocks and enforces the single-static-definition discipline on
//! `finish` (via the verifier when assembled into a program).
//!
//! # Example
//!
//! ```
//! use ipds_ir::{FunctionBuilder, Pred, Operand, Terminator};
//!
//! let mut b = FunctionBuilder::new("f", 0, true);
//! let x = b.add_scalar("x");
//! let entry = b.entry();
//! let exit_t = b.add_block();
//! let exit_f = b.add_block();
//! b.switch_to(entry);
//! let v = b.load_var(x);
//! let c = b.cmp(Pred::Lt, v.into(), Operand::Imm(5));
//! b.branch(c, exit_t, exit_f);
//! b.switch_to(exit_t);
//! b.ret(Some(Operand::Imm(1)));
//! b.switch_to(exit_f);
//! b.ret(Some(Operand::Imm(0)));
//! let func = b.finish();
//! assert_eq!(func.branch_count(), 1);
//! ```

use crate::function::{
    BasicBlock, BlockId, FuncId, Function, Terminator, VarId, VarKind, Variable,
};
use crate::inst::{Address, BinOp, Builtin, Callee, Inst, Operand, Pred, Reg};

/// Incrementally builds a [`Function`].
#[derive(Debug)]
pub struct FunctionBuilder {
    func: Function,
    current: BlockId,
}

impl FunctionBuilder {
    /// Starts a function named `name` with `param_count` scalar parameters
    /// (named `p0`, `p1`, …). `returns_value` declares a `-> int` result.
    pub fn new(name: impl Into<String>, param_count: u32, returns_value: bool) -> FunctionBuilder {
        let vars = (0..param_count)
            .map(|i| Variable::scalar(format!("p{i}"), VarKind::Param))
            .collect();
        FunctionBuilder {
            func: Function {
                id: FuncId(0),
                name: name.into(),
                vars,
                param_count,
                blocks: vec![BasicBlock::new()],
                entry: BlockId(0),
                next_reg: 0,
                pc_base: 0x1000,
                returns_value,
            },
            current: BlockId(0),
        }
    }

    /// The entry block id.
    pub fn entry(&self) -> BlockId {
        self.func.entry
    }

    /// The block currently being appended to.
    pub fn current(&self) -> BlockId {
        self.current
    }

    /// Adds a fresh empty block (terminated by `ret` until set).
    pub fn add_block(&mut self) -> BlockId {
        let id = BlockId(self.func.blocks.len() as u32);
        self.func.blocks.push(BasicBlock::new());
        id
    }

    /// Redirects subsequent instructions to `block`.
    pub fn switch_to(&mut self, block: BlockId) {
        self.current = block;
    }

    /// Declares a scalar local and returns its id.
    pub fn add_scalar(&mut self, name: impl Into<String>) -> VarId {
        let id = VarId::local(self.func.vars.len() as u32);
        self.func.vars.push(Variable::scalar(name, VarKind::Local));
        id
    }

    fn fresh(&mut self) -> Reg {
        let r = Reg(self.func.next_reg);
        self.func.next_reg += 1;
        r
    }

    fn push(&mut self, inst: Inst) {
        self.func.block_mut(self.current).insts.push(inst);
    }

    /// Emits `dst = const value` and returns `dst`.
    pub fn constant(&mut self, value: i64) -> Reg {
        let dst = self.fresh();
        self.push(Inst::Const { dst, value });
        dst
    }

    /// Emits a load of a scalar variable.
    pub fn load_var(&mut self, var: VarId) -> Reg {
        let dst = self.fresh();
        self.push(Inst::Load {
            dst,
            addr: Address::Var(var),
        });
        dst
    }

    /// Emits a store to a scalar variable.
    pub fn store_var(&mut self, var: VarId, src: Operand) {
        self.push(Inst::Store {
            addr: Address::Var(var),
            src,
        });
    }

    /// Emits `dst = &base[offset]`.
    pub fn addr_of(&mut self, base: VarId, offset: Operand) -> Reg {
        let dst = self.fresh();
        self.push(Inst::AddrOf { dst, base, offset });
        dst
    }

    /// Emits a binary ALU operation.
    pub fn binop(&mut self, op: BinOp, lhs: Operand, rhs: Operand) -> Reg {
        let dst = self.fresh();
        self.push(Inst::BinOp { dst, op, lhs, rhs });
        dst
    }

    /// Emits a comparison producing 0/1.
    pub fn cmp(&mut self, pred: Pred, lhs: Operand, rhs: Operand) -> Reg {
        let dst = self.fresh();
        self.push(Inst::Cmp {
            dst,
            pred,
            lhs,
            rhs,
        });
        dst
    }

    /// Emits a call to a builtin.
    pub fn call_builtin(&mut self, b: Builtin, args: Vec<Operand>) -> Option<Reg> {
        let dst = b.has_result().then(|| self.fresh());
        self.push(Inst::Call {
            dst,
            callee: Callee::Builtin(b),
            args,
        });
        dst
    }

    /// Terminates the current block with an unconditional jump.
    pub fn jump(&mut self, target: BlockId) {
        self.func.block_mut(self.current).term = Terminator::Jump(target);
    }

    /// Terminates the current block with a conditional branch.
    pub fn branch(&mut self, cond: Reg, taken: BlockId, not_taken: BlockId) {
        self.func.block_mut(self.current).term = Terminator::Branch {
            cond,
            taken,
            not_taken,
        };
    }

    /// Terminates the current block with a return.
    pub fn ret(&mut self, value: Option<Operand>) {
        self.func.block_mut(self.current).term = Terminator::Return(value);
    }

    /// Finishes and returns the function (id/pc assignment are the program
    /// assembler's job; defaults are `FuncId(0)` / `0x1000`).
    pub fn finish(self) -> Function {
        self.func
    }
}

/// Assembles standalone-built functions into a [`crate::Program`],
/// renumbering ids, laying out code addresses and verifying the result.
///
/// # Errors
///
/// Returns the verifier error if any function is structurally invalid.
pub fn assemble(
    globals: Vec<Variable>,
    functions: Vec<Function>,
) -> Result<crate::Program, crate::error::VerifyError> {
    let mut program = crate::Program { globals, functions };
    let mut pc = 0x1000u64;
    for (i, f) in program.functions.iter_mut().enumerate() {
        f.id = FuncId(i as u32);
        f.pc_base = pc;
        pc += 4 * f.inst_count() as u64;
        pc = (pc + 15) & !15;
    }
    crate::verify::verify_program(&program)?;
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_a_loop_that_verifies() {
        // s = 0; for (i = 0; i < n; i++) s += i; return s
        let mut b = FunctionBuilder::new("sum", 1, true);
        let i = b.add_scalar("i");
        let s = b.add_scalar("s");
        let header = b.add_block();
        let body = b.add_block();
        let exit = b.add_block();

        b.store_var(i, Operand::Imm(0));
        b.store_var(s, Operand::Imm(0));
        b.jump(header);

        b.switch_to(header);
        let iv = b.load_var(i);
        let nv = b.load_var(VarId::local(0));
        let c = b.cmp(Pred::Lt, iv.into(), nv.into());
        b.branch(c, body, exit);

        b.switch_to(body);
        let iv2 = b.load_var(i);
        let sv = b.load_var(s);
        let ns = b.binop(BinOp::Add, sv.into(), iv2.into());
        b.store_var(s, ns.into());
        let ni = b.binop(BinOp::Add, iv2.into(), Operand::Imm(1));
        b.store_var(i, ni.into());
        b.jump(header);

        b.switch_to(exit);
        let out = b.load_var(s);
        b.ret(Some(out.into()));

        let p = assemble(vec![], vec![b.finish()]).unwrap();
        assert_eq!(p.functions[0].branch_count(), 1);
    }

    #[test]
    fn assemble_renumbers_and_lays_out() {
        let f1 = FunctionBuilder::new("a", 0, false).finish();
        let f2 = FunctionBuilder::new("b", 0, false).finish();
        let p = assemble(vec![], vec![f1, f2]).unwrap();
        assert_eq!(p.functions[0].id, FuncId(0));
        assert_eq!(p.functions[1].id, FuncId(1));
        assert!(p.functions[1].pc_base > p.functions[0].pc_base);
    }
}
