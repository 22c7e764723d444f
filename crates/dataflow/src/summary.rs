//! Callee side-effect summaries and per-instruction may-write sets.
//!
//! §5.3 of the paper converts each call site into "a list of (possibly
//! multiple aliased) store instructions": nothing for pure callees, one
//! pseudo store per dereferenced pointer parameter for well-behaved callees,
//! and a store-that-may-modify-anything otherwise. C library builtins get
//! exact hand-written summaries (`strcmp` writes nothing, `strcpy` writes
//! through its first argument, …).
//!
//! We compute, for every function, the set of *caller-visible* memory
//! variables it may write — its own locals are excluded because they die at
//! return — as a fixpoint over the call graph, using the points-to solution
//! for stores through pointers.

use std::collections::{BTreeSet, HashMap};

use ipds_ir::{Callee, FuncId, Inst, Program};

use crate::alias::{AccessClass, AliasAnalysis};
use crate::memvar::MemVar;

/// What a call site (or any instruction) may write, from the enclosing
/// function's point of view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallEffect {
    /// Writes no memory.
    Nothing,
    /// May write exactly these variables.
    Vars(BTreeSet<MemVar>),
    /// May write anything.
    Any,
}

impl CallEffect {
    /// True if the effect may write `v`.
    pub fn may_write(&self, v: MemVar) -> bool {
        match self {
            CallEffect::Nothing => false,
            CallEffect::Vars(s) => s.contains(&v),
            CallEffect::Any => true,
        }
    }

    /// True if the effect writes nothing.
    pub fn is_nothing(&self) -> bool {
        match self {
            CallEffect::Nothing => true,
            CallEffect::Vars(s) => s.is_empty(),
            CallEffect::Any => false,
        }
    }

    fn absorb(&mut self, other: CallEffect) {
        match (&mut *self, other) {
            (CallEffect::Any, _) | (_, CallEffect::Nothing) => {}
            (_, CallEffect::Any) => *self = CallEffect::Any,
            (CallEffect::Nothing, o) => *self = o,
            (CallEffect::Vars(a), CallEffect::Vars(b)) => a.extend(b),
        }
    }

    fn from_class(cls: AccessClass) -> CallEffect {
        match cls {
            AccessClass::Unique(v) => CallEffect::Vars([v].into_iter().collect()),
            AccessClass::May(s) => CallEffect::Vars(s),
            AccessClass::Any => CallEffect::Any,
        }
    }
}

/// Per-function write summaries for a whole program.
#[derive(Debug, Clone)]
pub struct Summaries {
    per_func: HashMap<FuncId, CallEffect>,
}

impl Summaries {
    /// Computes summaries to fixpoint over the call graph, as seen through
    /// `view`: stores and calls in proved-unreachable blocks cannot happen
    /// on any feasible path, so they do not contribute to the callee's
    /// caller-visible write set.
    pub fn compute(
        program: &Program,
        alias: &AliasAnalysis,
        view: &crate::prune::PrunedCfg,
    ) -> Summaries {
        let mut per_func: HashMap<FuncId, CallEffect> = program
            .functions
            .iter()
            .map(|f| (f.id, CallEffect::Nothing))
            .collect();
        loop {
            let mut changed = false;
            for func in &program.functions {
                let mut eff = CallEffect::Nothing;
                for (bid, block) in func.iter_blocks() {
                    if !view.block_live(func.id, bid) {
                        continue;
                    }
                    for inst in &block.insts {
                        match inst {
                            Inst::Store { addr, .. } => {
                                eff.absorb(CallEffect::from_class(
                                    alias.classify(program, func.id, addr),
                                ));
                            }
                            Inst::Call { callee, args, .. } => match callee {
                                Callee::Direct(fid) => {
                                    eff.absorb(per_func[fid].clone());
                                }
                                Callee::Builtin(b) => {
                                    for &i in b.writes_through() {
                                        if let Some(arg) = args.get(i) {
                                            eff.absorb(CallEffect::from_class(
                                                alias.classify_operand(func.id, *arg),
                                            ));
                                        }
                                    }
                                }
                            },
                            _ => {}
                        }
                    }
                }
                // Drop the function's own locals: they are invisible to
                // callers (discarded on return, as §5.3 argues).
                if let CallEffect::Vars(s) = &mut eff {
                    s.retain(|v| v.func != Some(func.id));
                }
                if per_func[&func.id] != eff {
                    per_func.insert(func.id, eff);
                    changed = true;
                }
            }
            if !changed {
                return Summaries { per_func };
            }
        }
    }

    /// The caller-visible write effect of calling `func`.
    pub fn of(&self, func: FuncId) -> &CallEffect {
        &self.per_func[&func]
    }

    /// The memory this instruction may write, seen from inside `func`:
    /// stores classify directly; calls expand to pseudo stores using the
    /// callee summary (for user functions) or the exact builtin model.
    pub fn may_write(
        &self,
        program: &Program,
        alias: &AliasAnalysis,
        func: FuncId,
        inst: &Inst,
    ) -> CallEffect {
        match inst {
            Inst::Store { addr, .. } => CallEffect::from_class(alias.classify(program, func, addr)),
            Inst::Call { callee, args, .. } => match callee {
                Callee::Direct(fid) => self.of(*fid).clone(),
                Callee::Builtin(b) => {
                    let mut eff = CallEffect::Nothing;
                    for &i in b.writes_through() {
                        if let Some(arg) = args.get(i) {
                            eff.absorb(CallEffect::from_class(alias.classify_operand(func, *arg)));
                        }
                    }
                    eff
                }
            },
            _ => CallEffect::Nothing,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Facts;
    use ipds_ir::{Program, VarId};

    fn setup(src: &str) -> (Program, AliasAnalysis, Summaries) {
        let p = ipds_ir::parse(src).unwrap();
        let Facts { alias, summaries } = Facts::compute(&p);
        (p, alias, summaries)
    }

    fn local(p: &Program, fname: &str, vname: &str) -> MemVar {
        let f = p.function_by_name(fname).unwrap();
        let idx = f.vars.iter().position(|v| v.name == vname).unwrap();
        MemVar::local(f.id, VarId::local(idx as u32))
    }

    #[test]
    fn pure_function_writes_nothing() {
        let (p, _, s) = setup(
            "fn add(int a, int b) -> int { int t; t = a + b; return t; } fn main() -> int { return add(1,2); }",
        );
        let add = p.function_by_name("add").unwrap();
        assert!(s.of(add.id).is_nothing());
    }

    #[test]
    fn pointer_param_writer_is_scoped() {
        let (p, _, s) =
            setup("fn set(int *q) { *q = 1; } fn main() -> int { int x; set(&x); return x; }");
        let set = p.function_by_name("set").unwrap();
        let x = local(&p, "main", "x");
        assert!(s.of(set.id).may_write(x));
        assert!(!matches!(s.of(set.id), CallEffect::Any));
    }

    #[test]
    fn global_writer_reported() {
        let (p, _, s) =
            setup("int g; fn bump() { g = g + 1; } fn main() -> int { bump(); return g; }");
        let bump = p.function_by_name("bump").unwrap();
        let g = MemVar::global(VarId::global(0));
        assert!(s.of(bump.id).may_write(g));
    }

    #[test]
    fn transitive_effects_propagate() {
        let (p, _, s) = setup(
            "int g; fn inner() { g = 1; } fn outer() { inner(); } fn main() -> int { outer(); return g; }",
        );
        let outer = p.function_by_name("outer").unwrap();
        assert!(s.of(outer.id).may_write(MemVar::global(VarId::global(0))));
    }

    #[test]
    fn unknown_pointer_store_is_any() {
        let (p, _, s) = setup(
            "fn evil() { int *q; q = read_int(); *q = 1; } fn main() -> int { evil(); return 0; }",
        );
        let evil = p.function_by_name("evil").unwrap();
        assert_eq!(*s.of(evil.id), CallEffect::Any);
    }

    #[test]
    fn builtin_call_sites_use_exact_models() {
        let (p, a, s) = setup(
            "fn main() -> int { int buf[8]; int x; x = strcmp(buf, \"hi\"); strcpy(buf, \"yo\"); return x; }",
        );
        let f = p.main().unwrap();
        let buf = local(&p, "main", "buf");
        let mut strcmp_eff = None;
        let mut strcpy_eff = None;
        for (_, b) in f.iter_blocks() {
            for inst in &b.insts {
                if let Inst::Call {
                    callee: Callee::Builtin(bi),
                    ..
                } = inst
                {
                    let eff = s.may_write(&p, &a, f.id, inst);
                    match bi {
                        ipds_ir::Builtin::StrCmp => strcmp_eff = Some(eff),
                        ipds_ir::Builtin::StrCpy => strcpy_eff = Some(eff),
                        _ => {}
                    }
                }
            }
        }
        assert!(strcmp_eff.unwrap().is_nothing(), "strcmp writes nothing");
        let cpy = strcpy_eff.unwrap();
        assert!(cpy.may_write(buf), "strcpy writes through dst: {cpy:?}");
        assert!(!matches!(cpy, CallEffect::Any));
    }

    #[test]
    fn local_only_writer_is_pure_to_callers() {
        let (p, _, s) = setup(
            "fn busy() -> int { int t[4]; int i; for (i = 0; i < 4; i = i + 1) { t[i] = i; } return t[0]; } \
             fn main() -> int { return busy(); }",
        );
        let busy = p.function_by_name("busy").unwrap();
        assert!(s.of(busy.id).is_nothing(), "{:?}", s.of(busy.id));
    }

    #[test]
    fn recursive_function_converges() {
        let (p, _, s) = setup(
            "int g; fn rec(int n) { if (n > 0) { g = n; rec(n - 1); } } fn main() -> int { rec(3); return g; }",
        );
        let rec = p.function_by_name("rec").unwrap();
        assert!(s.of(rec.id).may_write(MemVar::global(VarId::global(0))));
    }
}
