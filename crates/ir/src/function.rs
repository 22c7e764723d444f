//! Functions, basic blocks, terminators and memory variables.

use std::fmt;

use crate::inst::{Inst, Operand, Reg};

/// Identifies a function within a [`crate::Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(pub u32);

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn#{}", self.0)
    }
}

/// Identifies a basic block within a [`Function`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The block's index into [`Function::blocks`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// Identifies a memory-resident variable.
///
/// Globals live in [`crate::Program::globals`]; locals and parameters live in
/// their [`Function::vars`]. The two spaces are distinguished by
/// [`VarId::is_global`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(u32);

const GLOBAL_BIT: u32 = 1 << 31;

impl VarId {
    /// Creates a local/parameter variable id.
    pub fn local(index: u32) -> VarId {
        assert!(index < GLOBAL_BIT, "local variable index overflow");
        VarId(index)
    }

    /// Creates a global variable id.
    pub fn global(index: u32) -> VarId {
        assert!(index < GLOBAL_BIT, "global variable index overflow");
        VarId(index | GLOBAL_BIT)
    }

    /// True if this id names a global variable.
    pub fn is_global(self) -> bool {
        self.0 & GLOBAL_BIT != 0
    }

    /// The index into the owning variable table (function locals or program
    /// globals).
    pub fn index(self) -> usize {
        (self.0 & !GLOBAL_BIT) as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_global() {
            write!(f, "g{}", self.index())
        } else {
            write!(f, "v{}", self.index())
        }
    }
}

/// The storage class of a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarKind {
    /// Program-lifetime global data.
    Global,
    /// Read-only global data (string literals, static constants). The
    /// machine model treats these as tamper-proof, so loads from them are
    /// trusted but also uninteresting for correlation.
    ReadOnly,
    /// Function-local stack variable.
    Local,
    /// Function parameter (also stack resident in our model).
    Param,
    /// A local or parameter promoted to registers by `mem2reg` (see
    /// [`crate::ssa`]). The stack slot still exists — phi deconstruction
    /// spills through it at control-flow joins — but the analyses treat the
    /// variable as register-like: no unique-alias classification, no branch
    /// anchors, no BSV participation. This is the knob the promotion
    /// ablation turns.
    Promoted,
}

/// A memory-resident variable (scalar or array of cells).
///
/// The simulator gives every variable a contiguous run of 64-bit cells; the
/// analyses treat a scalar (`size == 1`, address never taken) as *uniquely
/// aliased* and everything else conservatively.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Variable {
    /// Source-level name (unique within its scope table).
    pub name: String,
    /// Storage class.
    pub kind: VarKind,
    /// Size in cells; 1 for scalars.
    pub size: u32,
    /// Initial cell values (used for globals/read-only data); padded with
    /// zeros to `size` by the simulator. Empty means zero-initialized.
    pub init: Vec<i64>,
}

impl Variable {
    /// Creates a zero-initialized scalar variable.
    pub fn scalar(name: impl Into<String>, kind: VarKind) -> Variable {
        Variable {
            name: name.into(),
            kind,
            size: 1,
            init: Vec::new(),
        }
    }

    /// Creates a zero-initialized array variable of `size` cells.
    pub fn array(name: impl Into<String>, kind: VarKind, size: u32) -> Variable {
        Variable {
            name: name.into(),
            kind,
            size,
            init: Vec::new(),
        }
    }
}

/// A basic block terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Conditional branch: control goes to `taken` when `cond != 0`, else to
    /// `not_taken`. These are the instructions the IPDS monitors.
    Branch {
        /// Condition register (usually defined by a `Cmp`).
        cond: Reg,
        /// Successor when the condition holds.
        taken: BlockId,
        /// Successor when the condition does not hold.
        not_taken: BlockId,
    },
    /// Function return with optional value.
    Return(Option<Operand>),
}

impl Terminator {
    /// Successor blocks of this terminator, in (taken, not-taken) order for
    /// branches.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jump(b) => vec![*b],
            Terminator::Branch {
                taken, not_taken, ..
            } => vec![*taken, *not_taken],
            Terminator::Return(_) => Vec::new(),
        }
    }

    /// True if this is a conditional branch.
    pub fn is_branch(&self) -> bool {
        matches!(self, Terminator::Branch { .. })
    }
}

impl fmt::Display for Terminator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Terminator::Jump(b) => write!(f, "jump {b}"),
            Terminator::Branch {
                cond,
                taken,
                not_taken,
            } => write!(f, "br {cond} ? {taken} : {not_taken}"),
            Terminator::Return(None) => write!(f, "ret"),
            Terminator::Return(Some(v)) => write!(f, "ret {v}"),
        }
    }
}

/// A basic block: straight-line instructions plus one terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// The block's instructions in execution order.
    pub insts: Vec<Inst>,
    /// The block's terminator.
    pub term: Terminator,
}

impl BasicBlock {
    /// Creates an empty block ending in `ret` (placeholder during building).
    pub fn new() -> BasicBlock {
        BasicBlock {
            insts: Vec::new(),
            term: Terminator::Return(None),
        }
    }
}

impl Default for BasicBlock {
    fn default() -> Self {
        BasicBlock::new()
    }
}

/// A single IR function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// The function's id within its program.
    pub id: FuncId,
    /// Source-level name.
    pub name: String,
    /// Local variable table; the first `param_count` entries are parameters
    /// in declaration order.
    pub vars: Vec<Variable>,
    /// How many of `vars` are parameters.
    pub param_count: u32,
    /// Basic blocks; `BlockId(i)` indexes `blocks[i]`.
    pub blocks: Vec<BasicBlock>,
    /// The entry block.
    pub entry: BlockId,
    /// Number of virtual registers allocated (register ids are `0..next_reg`).
    pub next_reg: u32,
    /// Base code address of the function; instruction PCs are assigned
    /// sequentially from here (4 bytes per instruction, like a RISC layout).
    pub pc_base: u64,
    /// Whether the function returns a value.
    pub returns_value: bool,
}

impl Function {
    /// The block with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    /// Mutable access to the block with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block_mut(&mut self, id: BlockId) -> &mut BasicBlock {
        &mut self.blocks[id.index()]
    }

    /// Iterates over `(BlockId, &BasicBlock)` pairs in index order.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &BasicBlock)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId(i as u32), b))
    }

    /// The parameter variable ids in declaration order.
    pub fn params(&self) -> impl Iterator<Item = VarId> + '_ {
        (0..self.param_count).map(VarId::local)
    }

    /// The variable behind a local id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is global or out of range.
    pub fn var(&self, id: VarId) -> &Variable {
        assert!(!id.is_global(), "{id} is not a local of {}", self.name);
        &self.vars[id.index()]
    }

    /// Number of static instructions, counting each terminator as one.
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len() + 1).sum()
    }

    /// Number of conditional branches.
    pub fn branch_count(&self) -> usize {
        self.blocks.iter().filter(|b| b.term.is_branch()).count()
    }

    /// The program counter of block `id`'s terminator.
    ///
    /// Instruction PCs are `pc_base + 4 * linear_index` where the linear
    /// index walks blocks in id order, instructions then terminator. The
    /// paper identifies branches by PC for hashing into BSV/BCV/BAT; this is
    /// our equivalent.
    pub fn terminator_pc(&self, id: BlockId) -> u64 {
        let mut idx = 0u64;
        for (b, block) in self.iter_blocks() {
            if b == id {
                return self.pc_base + 4 * (idx + block.insts.len() as u64);
            }
            idx += block.insts.len() as u64 + 1;
        }
        panic!("block {id} out of range in {}", self.name);
    }

    /// PCs of all conditional branches in block-id order.
    pub fn branch_pcs(&self) -> Vec<u64> {
        let mut pcs = Vec::new();
        let mut idx = 0u64;
        for block in &self.blocks {
            let term_pc = self.pc_base + 4 * (idx + block.insts.len() as u64);
            if block.term.is_branch() {
                pcs.push(term_pc);
            }
            idx += block.insts.len() as u64 + 1;
        }
        pcs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{Inst, Operand, Reg};

    fn tiny_function() -> Function {
        // bb0: r0 = const 1; br r0 ? bb1 : bb2
        // bb1: ret
        // bb2: ret
        Function {
            id: FuncId(0),
            name: "t".into(),
            vars: vec![],
            param_count: 0,
            blocks: vec![
                BasicBlock {
                    insts: vec![Inst::Const {
                        dst: Reg(0),
                        value: 1,
                    }],
                    term: Terminator::Branch {
                        cond: Reg(0),
                        taken: BlockId(1),
                        not_taken: BlockId(2),
                    },
                },
                BasicBlock {
                    insts: vec![],
                    term: Terminator::Return(Some(Operand::Imm(0))),
                },
                BasicBlock {
                    insts: vec![],
                    term: Terminator::Return(Some(Operand::Imm(1))),
                },
            ],
            entry: BlockId(0),
            next_reg: 1,
            pc_base: 0x1000,
            returns_value: true,
        }
    }

    #[test]
    fn var_id_spaces_are_disjoint() {
        let l = VarId::local(3);
        let g = VarId::global(3);
        assert_ne!(l, g);
        assert!(!l.is_global());
        assert!(g.is_global());
        assert_eq!(l.index(), 3);
        assert_eq!(g.index(), 3);
    }

    #[test]
    fn terminator_pcs_are_sequential() {
        let f = tiny_function();
        assert_eq!(f.terminator_pc(BlockId(0)), 0x1000 + 4);
        assert_eq!(f.terminator_pc(BlockId(1)), 0x1000 + 8);
        assert_eq!(f.terminator_pc(BlockId(2)), 0x1000 + 12);
        assert_eq!(f.branch_pcs(), vec![0x1000 + 4]);
        assert_eq!(f.inst_count(), 4);
        assert_eq!(f.branch_count(), 1);
    }

    #[test]
    fn successors_in_taken_not_taken_order() {
        let f = tiny_function();
        assert_eq!(
            f.block(BlockId(0)).term.successors(),
            vec![BlockId(1), BlockId(2)]
        );
        assert!(f.block(BlockId(1)).term.successors().is_empty());
    }
}
