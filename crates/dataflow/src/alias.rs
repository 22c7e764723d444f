//! Flow-insensitive Andersen-style points-to analysis and access
//! classification.
//!
//! The paper's algorithm needs two alias facts (its step 1):
//!
//! 1. for each load/store, the set of memory variables it may touch, and
//! 2. whether the access is *uniquely aliased* (exactly one scalar target),
//!    because only those participate in correlation — "For multiple-aliased
//!    variables, our scheme must be conservative".
//!
//! We compute a context-insensitive, whole-program points-to solution over
//! virtual registers and pointer-holding memory variables: `AddrOf` seeds
//! address constants, loads/stores copy between register and memory points-to
//! sets, pointer arithmetic keeps the target set, calls bind arguments to
//! parameters and return values. A pointer of unknown origin (e.g. read from
//! input) degrades to [`AccessClass::Any`].

use std::collections::{BTreeSet, HashMap};

use ipds_ir::{Address, Builtin, Callee, FuncId, Inst, Operand, Program, Reg, Terminator, VarId};

use crate::memvar::MemVar;

/// The set of memory variables an access (or call side effect) may touch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessClass {
    /// Exactly this uniquely-aliased scalar variable.
    Unique(MemVar),
    /// One of these variables (which one is unknown statically).
    May(BTreeSet<MemVar>),
    /// Potentially any memory (unknown pointer).
    Any,
}

impl AccessClass {
    /// True if the class may include `v`.
    pub fn may_touch(&self, v: MemVar) -> bool {
        match self {
            AccessClass::Unique(u) => *u == v,
            AccessClass::May(s) => s.contains(&v),
            AccessClass::Any => true,
        }
    }

    /// True if the access cannot touch anything (statically dead pointer
    /// with an empty, known points-to set never occurs — empty sets widen to
    /// [`AccessClass::Any`] — so this is only `false` in practice).
    pub fn is_empty(&self) -> bool {
        matches!(self, AccessClass::May(s) if s.is_empty())
    }
}

/// A points-to set: a set of variables, possibly widened to "anything".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct PtsSet {
    any: bool,
    vars: BTreeSet<MemVar>,
}

impl PtsSet {
    fn merge_from(&mut self, other: &PtsSet) -> bool {
        let mut changed = false;
        if other.any && !self.any {
            self.any = true;
            changed = true;
        }
        for v in &other.vars {
            changed |= self.vars.insert(*v);
        }
        changed
    }

    fn insert(&mut self, v: MemVar) -> bool {
        self.vars.insert(v)
    }
}

/// Results of the points-to/alias analysis for a whole program.
#[derive(Debug, Clone)]
pub struct AliasAnalysis {
    /// Points-to sets for registers, keyed by (function, register).
    reg_pts: HashMap<(FuncId, Reg), PtsSet>,
    /// Points-to sets for pointer values stored in memory variables.
    mem_pts: HashMap<MemVar, PtsSet>,
    /// Points-to sets for function return values.
    ret_pts: HashMap<FuncId, PtsSet>,
    /// Variables whose address is taken somewhere.
    address_taken: BTreeSet<MemVar>,
}

impl AliasAnalysis {
    /// Runs the analysis to fixpoint over `program` as seen through `view`:
    /// instructions in blocks the feasibility pruning proved unreachable
    /// contribute nothing, so address-taken sets and points-to solutions
    /// shrink to what feasible paths can actually establish. Pass
    /// [`PrunedCfg::full`](crate::PrunedCfg::full) for the stock analysis.
    pub fn analyze(program: &Program, view: &crate::prune::PrunedCfg) -> AliasAnalysis {
        let mut a = AliasAnalysis {
            reg_pts: HashMap::new(),
            mem_pts: HashMap::new(),
            ret_pts: HashMap::new(),
            address_taken: BTreeSet::new(),
        };
        // Address-taken set is syntactic and stable (over live blocks).
        for func in &program.functions {
            for (bid, block) in func.iter_blocks() {
                if !view.block_live(func.id, bid) {
                    continue;
                }
                for inst in &block.insts {
                    if let Inst::AddrOf { base, .. } = inst {
                        a.address_taken.insert(MemVar::resolve(func.id, *base));
                    }
                }
            }
        }
        // Iterate transfer over all live instructions until stable.
        loop {
            let mut changed = false;
            for func in &program.functions {
                for (bid, block) in func.iter_blocks() {
                    if !view.block_live(func.id, bid) {
                        continue;
                    }
                    for inst in &block.insts {
                        changed |= a.transfer(program, func.id, inst);
                    }
                    if let Terminator::Return(Some(Operand::Reg(r))) = &block.term {
                        let from = a.reg(func.id, *r);
                        let entry = a.ret_pts.entry(func.id).or_default();
                        let before = entry.clone();
                        entry.merge_from(&from);
                        changed |= *entry != before;
                    }
                }
            }
            if !changed {
                return a;
            }
        }
    }

    fn reg(&self, func: FuncId, r: Reg) -> PtsSet {
        self.reg_pts.get(&(func, r)).cloned().unwrap_or_default()
    }

    fn operand(&self, func: FuncId, op: Operand) -> PtsSet {
        match op {
            Operand::Reg(r) => self.reg(func, r),
            Operand::Imm(_) => PtsSet::default(),
        }
    }

    fn merge_into_reg(&mut self, func: FuncId, r: Reg, from: &PtsSet) -> bool {
        self.reg_pts.entry((func, r)).or_default().merge_from(from)
    }

    fn merge_into_mem(&mut self, v: MemVar, from: &PtsSet) -> bool {
        if from.vars.is_empty() && !from.any {
            return false;
        }
        self.mem_pts.entry(v).or_default().merge_from(from)
    }

    /// Memory variables an address may refer to under the current solution.
    fn addr_targets(&self, func: FuncId, addr: &Address) -> PtsSet {
        match addr {
            Address::Var(v) | Address::Element { base: v, .. } => {
                let mut s = PtsSet::default();
                s.insert(MemVar::resolve(func, *v));
                s
            }
            Address::Ptr { reg, .. } => {
                let p = self.reg(func, *reg);
                if p.vars.is_empty() && !p.any {
                    // Unknown-origin pointer: could be any address.
                    PtsSet {
                        any: true,
                        vars: BTreeSet::new(),
                    }
                } else {
                    p
                }
            }
        }
    }

    /// Union of `mem_pts` over a target set (what a load through those
    /// targets may yield).
    fn load_value(&self, targets: &PtsSet) -> PtsSet {
        let mut out = PtsSet::default();
        if targets.any {
            // Loading through an arbitrary pointer can produce a pointer to
            // anything.
            out.any = true;
            return out;
        }
        for v in &targets.vars {
            if let Some(p) = self.mem_pts.get(v) {
                out.merge_from(p);
            }
        }
        out
    }

    fn store_value(&mut self, targets: &PtsSet, value: &PtsSet) -> bool {
        if value.vars.is_empty() && !value.any {
            return false;
        }
        let mut changed = false;
        if targets.any {
            // A store through an unknown pointer may plant the value in any
            // address-taken variable.
            let taken: Vec<MemVar> = self.address_taken.iter().copied().collect();
            for v in taken {
                changed |= self.merge_into_mem(v, &value.clone());
            }
            return changed;
        }
        for v in targets.vars.clone() {
            changed |= self.merge_into_mem(v, value);
        }
        changed
    }

    fn transfer(&mut self, program: &Program, func: FuncId, inst: &Inst) -> bool {
        match inst {
            Inst::AddrOf { dst, base, .. } => {
                let v = MemVar::resolve(func, *base);
                self.reg_pts.entry((func, *dst)).or_default().insert(v)
            }
            Inst::BinOp { dst, lhs, rhs, .. } => {
                // Pointer arithmetic stays within the object (in-bounds
                // language semantics; out-of-bounds behaviour is the attack
                // surface the runtime detects, not a compiler concern).
                let mut s = self.operand(func, *lhs);
                s.merge_from(&self.operand(func, *rhs));
                if s.vars.is_empty() && !s.any {
                    false
                } else {
                    self.merge_into_reg(func, *dst, &s)
                }
            }
            Inst::Load { dst, addr } => {
                let targets = self.addr_targets(func, addr);
                let val = self.load_value(&targets);
                if val.vars.is_empty() && !val.any {
                    false
                } else {
                    self.merge_into_reg(func, *dst, &val)
                }
            }
            Inst::Store { addr, src } => {
                let targets = self.addr_targets(func, addr);
                let val = self.operand(func, *src);
                self.store_value(&targets, &val)
            }
            Inst::Call { dst, callee, args } => {
                let mut changed = false;
                match callee {
                    Callee::Direct(fid) => {
                        let target = program.function(*fid);
                        for (i, arg) in args.iter().enumerate() {
                            let val = self.operand(func, *arg);
                            if i < target.param_count as usize {
                                let pvar = MemVar::local(*fid, VarId::local(i as u32));
                                changed |= self.merge_into_mem(pvar, &val);
                            }
                        }
                        if let Some(d) = dst {
                            if let Some(r) = self.ret_pts.get(fid).cloned() {
                                changed |= self.merge_into_reg(func, *d, &r);
                            }
                        }
                    }
                    Callee::Builtin(b) => {
                        // memcpy may copy pointer-valued cells.
                        if *b == Builtin::MemCpy && args.len() == 3 {
                            let dst_t = match args[0] {
                                Operand::Reg(r) => self.reg(func, r),
                                Operand::Imm(_) => PtsSet {
                                    any: true,
                                    vars: BTreeSet::new(),
                                },
                            };
                            let src_t = match args[1] {
                                Operand::Reg(r) => self.reg(func, r),
                                Operand::Imm(_) => PtsSet {
                                    any: true,
                                    vars: BTreeSet::new(),
                                },
                            };
                            let val = self.load_value(&src_t);
                            changed |= self.store_value(&dst_t, &val);
                        }
                        // Other builtins neither store nor return pointers.
                    }
                }
                changed
            }
            // Phis only exist inside the SSA construction window (before
            // this analysis runs in the standard pipeline), but stay sound
            // if analyzed: the joined value may be any incoming pointer.
            Inst::Phi { dst, args } => {
                let mut s = PtsSet::default();
                for (_, a) in args {
                    s.merge_from(&self.operand(func, *a));
                }
                if s.vars.is_empty() && !s.any {
                    false
                } else {
                    self.merge_into_reg(func, *dst, &s)
                }
            }
            Inst::Const { .. } | Inst::Cmp { .. } => false,
        }
    }

    /// True if `v`'s address is taken anywhere in the program.
    pub fn is_address_taken(&self, v: MemVar) -> bool {
        self.address_taken.contains(&v)
    }

    /// Classifies a memory access appearing in `func`.
    ///
    /// Direct scalar accesses are [`AccessClass::Unique`]; array element
    /// accesses are a known single-object [`AccessClass::May`]; pointer
    /// accesses use the points-to solution and widen to
    /// [`AccessClass::Any`] when the pointer's origin is unknown.
    ///
    /// Variables promoted to registers by `mem2reg` are **register-like**:
    /// their residual memory traffic (phi spills from SSA deconstruction)
    /// never classifies as `Unique`, so they grow no anchors and no BSV
    /// entries — the value lives in registers, where the paper's
    /// memory-tamper threat model cannot check it. This is the knob the
    /// promotion ablation measures.
    pub fn classify(&self, program: &Program, func: FuncId, addr: &Address) -> AccessClass {
        match addr {
            Address::Var(v) => {
                let mv = MemVar::resolve(func, *v);
                if mv.size(program) == 1 && mv.kind(program) != ipds_ir::VarKind::Promoted {
                    AccessClass::Unique(mv)
                } else {
                    AccessClass::May([mv].into_iter().collect())
                }
            }
            Address::Element { base, .. } => {
                let mv = MemVar::resolve(func, *base);
                AccessClass::May([mv].into_iter().collect())
            }
            Address::Ptr { reg, .. } => {
                let p = self.reg(func, *reg);
                if p.any || (p.vars.is_empty()) {
                    AccessClass::Any
                } else {
                    AccessClass::May(p.vars.clone())
                }
            }
        }
    }

    /// Classifies what a pointer-valued operand may point at (for call
    /// arguments).
    pub fn classify_operand(&self, func: FuncId, op: Operand) -> AccessClass {
        match op {
            Operand::Imm(_) => AccessClass::Any,
            Operand::Reg(r) => {
                let p = self.reg(func, r);
                if p.any || p.vars.is_empty() {
                    AccessClass::Any
                } else {
                    AccessClass::May(p.vars.clone())
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(src: &str) -> (Program, AliasAnalysis) {
        let p = ipds_ir::parse(src).unwrap();
        let a = AliasAnalysis::analyze(&p, &crate::PrunedCfg::full(&p));
        (p, a)
    }

    fn local(p: &Program, fname: &str, vname: &str) -> MemVar {
        let f = p.function_by_name(fname).unwrap();
        let idx = f.vars.iter().position(|v| v.name == vname).unwrap();
        MemVar::local(f.id, VarId::local(idx as u32))
    }

    #[test]
    fn direct_scalar_is_unique() {
        let (p, a) = analyze("fn main() -> int { int x; x = 1; return x; }");
        let f = p.main().unwrap();
        let x = local(&p, "main", "x");
        let cls = a.classify(&p, f.id, &Address::Var(ipds_ir::VarId::local(0)));
        assert_eq!(cls, AccessClass::Unique(x));
        assert!(!a.is_address_taken(x));
    }

    #[test]
    fn pointer_to_local_resolves() {
        let (p, a) = analyze("fn main() -> int { int x; int *q; q = &x; *q = 3; return x; }");
        let f = p.main().unwrap();
        let x = local(&p, "main", "x");
        assert!(a.is_address_taken(x));
        // Find the Ptr store and classify it.
        let mut found = false;
        for (_, b) in f.iter_blocks() {
            for inst in &b.insts {
                if let Inst::Store {
                    addr: addr @ Address::Ptr { .. },
                    ..
                } = inst
                {
                    let cls = a.classify(&p, f.id, addr);
                    assert_eq!(cls, AccessClass::May([x].into_iter().collect()));
                    found = true;
                }
            }
        }
        assert!(found, "expected a pointer store");
    }

    #[test]
    fn pointer_across_call_binds_param() {
        let (p, a) =
            analyze("fn set(int *p) { *p = 9; } fn main() -> int { int x; set(&x); return x; }");
        let set = p.function_by_name("set").unwrap();
        let x = local(&p, "main", "x");
        for (_, b) in set.iter_blocks() {
            for inst in &b.insts {
                if let Inst::Store {
                    addr: addr @ Address::Ptr { .. },
                    ..
                } = inst
                {
                    let cls = a.classify(&p, set.id, addr);
                    assert!(cls.may_touch(x), "callee store should may-touch x: {cls:?}");
                    assert!(!matches!(cls, AccessClass::Any));
                }
            }
        }
    }

    #[test]
    fn unknown_pointer_is_any() {
        let (p, a) = analyze("fn main() -> int { int *q; q = read_int(); *q = 1; return 0; }");
        let f = p.main().unwrap();
        for (_, b) in f.iter_blocks() {
            for inst in &b.insts {
                if let Inst::Store {
                    addr: addr @ Address::Ptr { .. },
                    ..
                } = inst
                {
                    assert_eq!(a.classify(&p, f.id, addr), AccessClass::Any);
                }
            }
        }
    }

    #[test]
    fn array_element_is_may_single_object() {
        let (p, a) = analyze("fn main() -> int { int buf[4]; buf[1] = 2; return buf[1]; }");
        let f = p.main().unwrap();
        let buf = local(&p, "main", "buf");
        for (_, b) in f.iter_blocks() {
            for inst in &b.insts {
                if let Inst::Store {
                    addr: addr @ Address::Element { .. },
                    ..
                } = inst
                {
                    let cls = a.classify(&p, f.id, addr);
                    assert_eq!(cls, AccessClass::May([buf].into_iter().collect()));
                    assert!(!matches!(cls, AccessClass::Unique(_)));
                }
            }
        }
    }

    #[test]
    fn pointer_through_global_memory() {
        let (p, a) = analyze(
            "int gp; fn stash(int *p) { gp = p; } fn use_it() { int *q; q = gp; *q = 1; } \
             fn main() -> int { int x; stash(&x); use_it(); return x; }",
        );
        let use_it = p.function_by_name("use_it").unwrap();
        let x = local(&p, "main", "x");
        let mut found = false;
        for (_, b) in use_it.iter_blocks() {
            for inst in &b.insts {
                if let Inst::Store {
                    addr: addr @ Address::Ptr { .. },
                    ..
                } = inst
                {
                    let cls = a.classify(&p, use_it.id, addr);
                    assert!(cls.may_touch(x), "{cls:?}");
                    found = true;
                }
            }
        }
        assert!(found);
    }

    #[test]
    fn return_value_pointer_flows() {
        let (p, a) = analyze(
            "int g; fn get() -> int { return &g; } fn main() -> int { int *q; q = get(); *q = 5; return g; }",
        );
        let f = p.main().unwrap();
        let g = MemVar::global(ipds_ir::VarId::global(0));
        let mut found = false;
        for (_, b) in f.iter_blocks() {
            for inst in &b.insts {
                if let Inst::Store {
                    addr: addr @ Address::Ptr { .. },
                    ..
                } = inst
                {
                    assert!(a.classify(&p, f.id, addr).may_touch(g));
                    found = true;
                }
            }
        }
        assert!(found);
    }
}
