//! Branch anchors: connecting conditional branches to memory variables.
//!
//! A branch is *anchored* on memory variable `v` when its condition value
//! `w` satisfies `w = scale·m + offset` where `m` is the value `v` holds in
//! memory when the branch commits. Then
//!
//! * the branch's direction **implies a range** of `v` (making it usable as
//!   a correlation *trigger*, the `bs`/`blp` of Fig. 5), and
//! * a known range of `v` **implies the branch's direction** (making it
//!   *checkable*, the `bl` of Fig. 5).
//!
//! The extraction walks the condition's use–def chain through `Cmp` against
//! a constant and `±constant` arithmetic (Fig. 3.c), looks *through*
//! same-block store-to-load forwarding (so `user = verify(); if (user == 1)`
//! anchors on `user` even though the compared register is the call result),
//! and validates each anchor by checking that nothing may store to `v`
//! between the anchoring access and the branch. Only uniquely-aliased
//! scalars anchor — multi-aliased accesses are dropped from inference
//! exactly as §5.1 prescribes.

use std::collections::BTreeMap;

use ipds_ir::{Address, BlockId, Function, Inst, Operand, Pred, Program, Reg, Terminator};

use crate::alias::{AccessClass, AliasAnalysis};
use crate::memvar::MemVar;
use crate::prune::PrunedFunction;
use crate::range::Range;
use crate::summary::Summaries;

/// How a branch is tied to its anchor variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnchorKind {
    /// The condition chains to a load of the variable: the branch observes
    /// the variable without changing it.
    Load,
    /// The condition value is (an affine image of) a value freshly stored to
    /// the variable in the same block: the branch both redefines and
    /// constrains it (Fig. 3.b).
    Store,
}

/// One anchor of a conditional branch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchAnchor {
    /// The block whose terminator is the anchored branch.
    pub block: BlockId,
    /// The anchored memory variable (uniquely-aliased scalar).
    pub var: MemVar,
    /// Load or store anchoring.
    pub kind: AnchorKind,
    /// Affine scale (`±1`): compared value `w = scale·v + offset`.
    pub scale: i64,
    /// Affine offset.
    pub offset: i64,
    /// Comparison predicate (already normalized so the variable side is on
    /// the left).
    pub pred: Pred,
    /// The comparison constant.
    pub konst: i64,
}

impl BranchAnchor {
    /// The range of the anchor variable implied by the branch going in
    /// direction `dir` (`true` = taken).
    pub fn implied_range(&self, dir: bool) -> Range {
        // w ∈ from_pred; v = (w - offset) / scale with scale ∈ {1,-1}.
        let w = Range::from_pred(self.pred, self.konst, dir);
        let shifted = w.shift(-self.offset);
        if self.scale == 1 {
            shifted
        } else {
            shifted.negate()
        }
    }

    /// The branch direction forced by knowing `v ∈ var_range`, if any.
    pub fn direction_for(&self, var_range: Range) -> Option<bool> {
        var_range
            .affine(self.scale, self.offset)
            .implies_direction(self.pred, self.konst)
    }
}

/// Finds all anchors for every conditional branch of `func` that survives
/// `view`: branches in proved-unreachable blocks grow no anchors (they
/// cannot commit on any feasible path). Under pruning, the facts passed in
/// should be the pruned-view facts so store-freedom checks see the pruned
/// may-write sets.
///
/// Returns a map from branch block to its (possibly several) anchors. A
/// branch with no entry is unanalyzable and will be excluded from checking
/// (left out of the BCV).
pub fn find_anchors(
    program: &Program,
    func: &Function,
    alias: &AliasAnalysis,
    summaries: &Summaries,
    view: &PrunedFunction,
) -> BTreeMap<BlockId, Vec<BranchAnchor>> {
    let finder = AnchorFinder {
        program,
        func,
        alias,
        summaries,
        defs: collect_defs(func),
    };
    let mut out = BTreeMap::new();
    for (bid, block) in func.iter_blocks() {
        if !view.block_live(bid) {
            continue;
        }
        if let Terminator::Branch { cond, .. } = &block.term {
            let anchors = finder.anchors_for(bid, *cond);
            if !anchors.is_empty() {
                out.insert(bid, anchors);
            }
        }
    }
    out
}

/// Maps each register to its unique defining instruction's location.
fn collect_defs(func: &Function) -> BTreeMap<Reg, (BlockId, usize)> {
    let mut defs = BTreeMap::new();
    for (bid, block) in func.iter_blocks() {
        for (i, inst) in block.insts.iter().enumerate() {
            if let Some(d) = inst.def() {
                defs.insert(d, (bid, i));
            }
        }
    }
    defs
}

struct AnchorFinder<'a> {
    program: &'a Program,
    func: &'a Function,
    alias: &'a AliasAnalysis,
    summaries: &'a Summaries,
    defs: BTreeMap<Reg, (BlockId, usize)>,
}

impl<'a> AnchorFinder<'a> {
    fn inst_at(&self, loc: (BlockId, usize)) -> &Inst {
        &self.func.block(loc.0).insts[loc.1]
    }

    /// True if any instruction in `block` with index in `(from, to)`
    /// (exclusive bounds; `to == usize::MAX` means "through the
    /// terminator") may write `v`.
    fn store_free(&self, block: BlockId, from: usize, to: usize, v: MemVar) -> bool {
        let insts = &self.func.block(block).insts;
        let end = to.min(insts.len());
        for inst in insts.iter().take(end).skip(from + 1) {
            let eff = self
                .summaries
                .may_write(self.program, self.alias, self.func.id, inst);
            if eff.may_write(v) {
                return false;
            }
        }
        true
    }

    fn anchors_for(&self, branch_block: BlockId, cond: Reg) -> Vec<BranchAnchor> {
        let mut anchors = Vec::new();
        let Some(&cmp_loc) = self.defs.get(&cond) else {
            return anchors;
        };
        let Inst::Cmp { pred, lhs, rhs, .. } = self.inst_at(cmp_loc) else {
            return anchors;
        };
        let (w, pred, konst) = match (lhs, rhs) {
            (Operand::Reg(r), Operand::Imm(c)) => (*r, *pred, *c),
            (Operand::Imm(c), Operand::Reg(r)) => (*r, pred.swap(), *c),
            _ => return anchors,
        };

        // Walk the affine chain: maintain w = scale·cur + offset.
        let mut cur = w;
        let mut scale = 1i64;
        let mut offset = 0i64;
        // Bound the walk defensively (chains are short in practice).
        for _ in 0..64 {
            let Some(&loc) = self.defs.get(&cur) else {
                return anchors;
            };
            match self.inst_at(loc) {
                Inst::BinOp { op, lhs, rhs, .. } => {
                    use ipds_ir::BinOp;
                    match (op, lhs, rhs) {
                        (BinOp::Add, Operand::Reg(r), Operand::Imm(k))
                        | (BinOp::Add, Operand::Imm(k), Operand::Reg(r)) => {
                            // cur = r + k  ⇒  w = scale·r + (offset + scale·k)
                            offset = match offset.checked_add(scale.wrapping_mul(*k)) {
                                Some(o) => o,
                                None => return anchors,
                            };
                            cur = *r;
                        }
                        (BinOp::Sub, Operand::Reg(r), Operand::Imm(k)) => {
                            // cur = r - k
                            offset = match offset.checked_sub(scale.wrapping_mul(*k)) {
                                Some(o) => o,
                                None => return anchors,
                            };
                            cur = *r;
                        }
                        (BinOp::Sub, Operand::Imm(k), Operand::Reg(r)) => {
                            // cur = k - r  ⇒  scale flips
                            offset = match offset.checked_add(scale.wrapping_mul(*k)) {
                                Some(o) => o,
                                None => return anchors,
                            };
                            scale = -scale;
                            cur = *r;
                        }
                        _ => return anchors,
                    }
                }
                Inst::Load { addr, .. } => {
                    // A load of a uniquely-aliased scalar in the branch's own
                    // block anchors, provided nothing may store to it between
                    // the load and the branch.
                    if loc.0 == branch_block {
                        if let AccessClass::Unique(v) =
                            self.alias.classify(self.program, self.func.id, addr)
                        {
                            if self.store_free(branch_block, loc.1, usize::MAX, v) {
                                anchors.push(BranchAnchor {
                                    block: branch_block,
                                    var: v,
                                    kind: AnchorKind::Load,
                                    scale,
                                    offset,
                                    pred,
                                    konst,
                                });
                            }
                        }
                    }
                    // Look through same-block store-to-load forwarding: if a
                    // prior store in this block wrote the loaded variable
                    // from a register (with no intervening may-store), the
                    // loaded value equals that register — continue the chain.
                    match self.forwarded_source(branch_block, loc, addr) {
                        Some(src) => cur = src,
                        None => return anchors,
                    }
                }
                // Chain dead-ends (constants, calls, comparisons, addresses):
                // check for a store anchor on the dead-end register below.
                _ => break,
            }
            // After stepping to a new root, also consider store anchors of
            // the current register before the next iteration resolves it.
            if let Some(anchor) = self.store_anchor(branch_block, cur, scale, offset, pred, konst) {
                anchors.push(anchor);
            }
        }
        // Chain ended on a non-traceable def (call result, etc.): a store of
        // that register in the branch block still anchors (Fig. 3.b).
        if let Some(anchor) = self.store_anchor(branch_block, cur, scale, offset, pred, konst) {
            if !anchors.contains(&anchor) {
                anchors.push(anchor);
            }
        }
        dedup(anchors)
    }

    /// If `block` stores register `r` to a uniquely-aliased scalar `v`
    /// before the terminator with no later may-store to `v`, the branch is
    /// store-anchored on `v`.
    fn store_anchor(
        &self,
        block: BlockId,
        r: Reg,
        scale: i64,
        offset: i64,
        pred: Pred,
        konst: i64,
    ) -> Option<BranchAnchor> {
        let insts = &self.func.block(block).insts;
        // Find the last qualifying store of r.
        for (i, inst) in insts.iter().enumerate().rev() {
            if let Inst::Store {
                addr,
                src: Operand::Reg(src),
            } = inst
            {
                if *src == r {
                    if let AccessClass::Unique(v) =
                        self.alias.classify(self.program, self.func.id, addr)
                    {
                        if self.store_free(block, i, usize::MAX, v) {
                            return Some(BranchAnchor {
                                block,
                                var: v,
                                kind: AnchorKind::Store,
                                scale,
                                offset,
                                pred,
                                konst,
                            });
                        }
                    }
                }
            }
        }
        None
    }

    /// Store-to-load forwarding within the branch block: returns the source
    /// register whose value the load at `loc` must observe, if provable.
    fn forwarded_source(
        &self,
        branch_block: BlockId,
        loc: (BlockId, usize),
        addr: &Address,
    ) -> Option<Reg> {
        if loc.0 != branch_block {
            return None;
        }
        let AccessClass::Unique(v) = self.alias.classify(self.program, self.func.id, addr) else {
            return None;
        };
        let insts = &self.func.block(loc.0).insts;
        for (i, inst) in insts.iter().enumerate().take(loc.1).rev() {
            let eff = self
                .summaries
                .may_write(self.program, self.alias, self.func.id, inst);
            if !eff.may_write(v) {
                continue;
            }
            // The nearest may-writer: only an exact unique store from a
            // register forwards; anything else blocks.
            if let Inst::Store {
                addr: saddr,
                src: Operand::Reg(src),
            } = inst
            {
                if let AccessClass::Unique(sv) =
                    self.alias.classify(self.program, self.func.id, saddr)
                {
                    if sv == v && self.store_free(loc.0, i, loc.1, v) {
                        return Some(*src);
                    }
                }
            }
            return None;
        }
        None
    }
}

fn dedup(mut anchors: Vec<BranchAnchor>) -> Vec<BranchAnchor> {
    let mut out: Vec<BranchAnchor> = Vec::with_capacity(anchors.len());
    for a in anchors.drain(..) {
        if !out.contains(&a) {
            out.push(a);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Facts;
    use ipds_ir::VarId;

    fn setup(src: &str) -> (Program, AliasAnalysis, Summaries) {
        let p = ipds_ir::parse(src).unwrap();
        let Facts { alias, summaries } = Facts::compute(&p);
        (p, alias, summaries)
    }

    fn anchors_of(src: &str, fname: &str) -> Vec<BranchAnchor> {
        let (p, a, s) = setup(src);
        let f = p.function_by_name(fname).unwrap();
        find_anchors(&p, f, &a, &s, &PrunedFunction::default())
            .into_values()
            .flatten()
            .collect()
    }

    fn local(p: &Program, fname: &str, vname: &str) -> MemVar {
        let f = p.function_by_name(fname).unwrap();
        let idx = f.vars.iter().position(|v| v.name == vname).unwrap();
        MemVar::local(f.id, VarId::local(idx as u32))
    }

    #[test]
    fn simple_load_anchor() {
        let src = "fn main() -> int { int x; x = read_int(); if (x < 5) { return 1; } return 0; }";
        let anchors = anchors_of(src, "main");
        // The reload gives a Load anchor; store-to-load forwarding of the
        // `read_int` result adds a Store anchor on the same variable.
        let a = anchors
            .iter()
            .find(|a| a.kind == AnchorKind::Load)
            .expect("load anchor");
        assert_eq!((a.scale, a.offset), (1, 0));
        assert_eq!(a.pred, Pred::Lt);
        assert_eq!(a.konst, 5);
        // Taken implies x ≤ 4.
        assert_eq!(a.implied_range(true), Range::at_most(4));
        assert_eq!(a.direction_for(Range::at_most(2)), Some(true));
        assert_eq!(a.direction_for(Range::at_least(5)), Some(false));
        assert_eq!(a.direction_for(Range::full()), None);
        // Every anchor of this branch agrees on the implied range.
        for x in &anchors {
            assert_eq!(x.implied_range(true), Range::at_most(4));
        }
    }

    #[test]
    fn affine_chain_fig3c() {
        // if (x - 1 < 10): w = x - 1, taken ⇒ x ∈ (-∞, 10].
        let src =
            "fn main() -> int { int x; x = read_int(); if (x - 1 < 10) { return 1; } return 0; }";
        let anchors = anchors_of(src, "main");
        assert!(!anchors.is_empty());
        for a in &anchors {
            assert_eq!((a.scale, a.offset), (1, -1));
            assert_eq!(a.implied_range(true), Range::at_most(10));
            // Knowing x < 5 forces taken (4 - 1 < 10).
            assert_eq!(a.direction_for(Range::at_most(4)), Some(true));
        }
    }

    #[test]
    fn negated_scale() {
        // if (10 - x < 3) ⇒ w = -x + 10; taken ⇒ w ≤ 2 ⇒ x ≥ 8.
        let src =
            "fn main() -> int { int x; x = read_int(); if (10 - x < 3) { return 1; } return 0; }";
        let anchors = anchors_of(src, "main");
        assert!(!anchors.is_empty());
        for a in &anchors {
            assert_eq!(a.scale, -1);
            assert_eq!(a.implied_range(true), Range::at_least(8));
        }
    }

    #[test]
    fn store_anchor_through_forwarding() {
        // user = read_int(); if (user == 1): the chain forwards through the
        // store, anchoring on `user` as a Store anchor.
        let src = "fn main() -> int { int user; user = read_int(); if (user == 1) { return 1; } return 0; }";
        let (p, a, s) = setup(src);
        let f = p.main().unwrap();
        let user = local(&p, "main", "user");
        let anchors: Vec<BranchAnchor> = find_anchors(&p, f, &a, &s, &PrunedFunction::default())
            .into_values()
            .flatten()
            .collect();
        // Two anchors on the same var: the Load anchor (of the reload) and
        // the forwarded Store anchor.
        assert!(anchors
            .iter()
            .any(|x| x.kind == AnchorKind::Load && x.var == user));
        assert!(anchors
            .iter()
            .any(|x| x.kind == AnchorKind::Store && x.var == user));
        for x in &anchors {
            assert_eq!(x.implied_range(true), Range::exact(1));
            assert_eq!(x.implied_range(false), Range::Ne(1));
        }
    }

    #[test]
    fn copy_gives_two_anchor_vars() {
        // x = y; if (x < 5): anchors on x (store/load) and on y (forwarded
        // load).
        let src = "fn main() -> int { int x; int y; y = read_int(); x = y; if (x < 5) { return 1; } return 0; }";
        let (p, a, s) = setup(src);
        let f = p.main().unwrap();
        let x = local(&p, "main", "x");
        let y = local(&p, "main", "y");
        let anchors: Vec<BranchAnchor> = find_anchors(&p, f, &a, &s, &PrunedFunction::default())
            .into_values()
            .flatten()
            .collect();
        let vars: Vec<MemVar> = anchors.iter().map(|a| a.var).collect();
        assert!(vars.contains(&x), "{anchors:?}");
        assert!(vars.contains(&y), "{anchors:?}");
    }

    #[test]
    fn intervening_store_blocks_anchor() {
        // The call may write x through the pointer ⇒ no anchor on x.
        let src = "fn clobber(int *p) { *p = 0; } \
                   fn main() -> int { int x; int t; x = read_int(); t = x; clobber(&x); if (t < 5) { return 1; } return 0; }";
        let (p, a, s) = setup(src);
        let f = p.main().unwrap();
        let x = local(&p, "main", "x");
        let anchors: Vec<BranchAnchor> = find_anchors(&p, f, &a, &s, &PrunedFunction::default())
            .into_values()
            .flatten()
            .collect();
        // t anchors fine; x must not (the clobber call separates the copy
        // from the branch).
        assert!(anchors.iter().all(|an| an.var != x), "{anchors:?}");
        let t = local(&p, "main", "t");
        assert!(anchors.iter().any(|an| an.var == t));
    }

    #[test]
    fn array_loads_do_not_anchor() {
        let src = "fn main() -> int { int b[4]; b[0] = read_int(); if (b[0] < 5) { return 1; } return 0; }";
        let anchors = anchors_of(src, "main");
        assert!(anchors.is_empty(), "{anchors:?}");
    }

    #[test]
    fn address_taken_scalar_still_anchors() {
        // x's address escapes, but the direct accesses are still exact; the
        // pointer store is covered by kill actions, not by dropping the
        // anchor.
        let src = "fn main() -> int { int x; int *p; p = &x; x = read_int(); if (x < 5) { return 1; } return 0; }";
        let (prog, _, _) = setup(src);
        let x = local(&prog, "main", "x");
        let anchors = anchors_of(src, "main");
        assert!(anchors.iter().any(|a| a.var == x), "{anchors:?}");
    }

    #[test]
    fn unanalyzable_condition_has_no_anchor() {
        // Condition on a call result never stored: nothing to anchor.
        let src = "fn main() -> int { if (read_int() < 5) { return 1; } return 0; }";
        let anchors = anchors_of(src, "main");
        assert!(anchors.is_empty(), "{anchors:?}");
    }

    #[test]
    fn reg_to_reg_compare_has_no_anchor() {
        let src = "fn main() -> int { int x; int y; x = read_int(); y = read_int(); if (x < y) { return 1; } return 0; }";
        let anchors = anchors_of(src, "main");
        assert!(anchors.is_empty(), "{anchors:?}");
    }

    #[test]
    fn swapped_compare_normalizes() {
        // if (5 > x) ≡ x < 5.
        let src = "fn main() -> int { int x; x = read_int(); if (5 > x) { return 1; } return 0; }";
        let anchors = anchors_of(src, "main");
        assert!(!anchors.is_empty());
        for a in &anchors {
            assert_eq!(a.pred, Pred::Lt);
            assert_eq!(a.implied_range(true), Range::at_most(4));
        }
    }

    #[test]
    fn global_anchors_work() {
        let src = "int mode; fn main() -> int { mode = read_int(); if (mode == 2) { return 1; } return 0; }";
        let anchors = anchors_of(src, "main");
        assert!(anchors.iter().any(|a| a.var.is_global()));
    }
}
