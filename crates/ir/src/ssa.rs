//! SSA construction, `mem2reg` promotion and phi deconstruction.
//!
//! The paper's compilation model keeps every source variable memory
//! resident — that is exactly why its branch correlations are checkable at
//! run time. This module implements the ablation the paper never ran: an
//! optional SSA layer that promotes a tunable fraction of the eligible
//! variables to registers (`mem2reg`), so the pipeline can measure how
//! register promotion erodes checked-branch coverage.
//!
//! The lifecycle mirrors the `ssa → mem2reg → deconstruct-ssa` pass window
//! in `ipds-analysis`:
//!
//! 1. [`build_ssa`] selects a deterministic promotion set per function
//!    (ranked by access count, tie-broken by variable index) and rewrites
//!    each function into SSA form with respect to those variables: loads
//!    become uses of the reaching SSA value, stores become definitions, and
//!    join points get [`Inst::Phi`] nodes (maximal placement followed by
//!    trivial-phi removal to a fixpoint, which yields minimal SSA on the
//!    reducible CFGs MiniC lowering produces).
//! 2. [`mark_promoted`] flips the selected variables to
//!    [`VarKind::Promoted`] so the alias analysis stops classifying them as
//!    uniquely-aliased memory (no anchors, no BSV participation).
//! 3. [`verify_ssa`] checks the SSA invariants: phis only at block heads
//!    with one argument per CFG predecessor, single static definitions,
//!    and definitions dominating every use.
//! 4. [`deconstruct_ssa`] lowers each surviving phi back to a per-variable
//!    memory slot — a store in every predecessor, a load at the block head
//!    — restoring the single-static-definition, no-phi form every
//!    downstream consumer (alias, correlation, simulator, tables) assumes.
//!
//! Promoted parameters keep one entry-block load (the calling convention
//! still passes arguments through frame memory); promoted locals start at
//! the simulator's zero initialization, materialized as a `const 0`.

use std::collections::{BTreeSet, HashMap};

use crate::cfg::Cfg;
use crate::error::VerifyError;
use crate::function::{BlockId, FuncId, Function, Terminator, VarId, VarKind};
use crate::inst::{Address, Inst, Operand, Reg};
use crate::program::Program;

/// Program-level bookkeeping produced by [`build_ssa`] and consumed by the
/// later passes of the SSA window.
#[derive(Debug, Clone, Default)]
pub struct SsaForm {
    /// The promotion set per function, in rank order.
    pub selected: HashMap<FuncId, Vec<VarId>>,
    /// The source variable each surviving phi joins (used by
    /// [`deconstruct_ssa`] to pick the spill slot).
    pub phi_vars: HashMap<(FuncId, Reg), VarId>,
    /// Variables eligible for promotion across the program.
    pub eligible: u64,
    /// Variables actually promoted (after applying the budget).
    pub promoted: u64,
    /// Phi nodes surviving trivial-phi removal.
    pub phis: u64,
}

/// Variables eligible for register promotion in `func`: single-cell locals
/// and parameters whose address never escapes. Globals stay memory resident
/// (they are visible across calls), as does anything address-taken.
pub fn eligible_vars(func: &Function) -> Vec<VarId> {
    let mut address_taken: BTreeSet<VarId> = BTreeSet::new();
    for (_, block) in func.iter_blocks() {
        for inst in &block.insts {
            if let Inst::AddrOf { base, .. } = inst {
                address_taken.insert(*base);
            }
        }
    }
    (0..func.vars.len() as u32)
        .map(VarId::local)
        .filter(|v| {
            let var = &func.vars[v.index()];
            var.size == 1
                && matches!(var.kind, VarKind::Local | VarKind::Param)
                && !address_taken.contains(v)
        })
        .collect()
}

/// The deterministic promotion set for `func` under a `pct` percent budget:
/// eligible variables ranked by access count (loads + stores, descending),
/// ties broken by variable index (ascending), truncated to
/// `ceil(pct/100 * eligible)`.
pub fn promotion_set(func: &Function, pct: u32) -> Vec<VarId> {
    let eligible = eligible_vars(func);
    if eligible.is_empty() || pct == 0 {
        return Vec::new();
    }
    let mut counts: HashMap<VarId, u64> = eligible.iter().map(|v| (*v, 0)).collect();
    for (_, block) in func.iter_blocks() {
        for inst in &block.insts {
            let addr = match inst {
                Inst::Load { addr, .. } | Inst::Store { addr, .. } => addr,
                _ => continue,
            };
            if let Address::Var(v) = addr {
                if let Some(c) = counts.get_mut(v) {
                    *c += 1;
                }
            }
        }
    }
    let mut ranked = eligible;
    ranked.sort_by_key(|v| (std::cmp::Reverse(counts[v]), v.index()));
    let pct = pct.min(100) as usize;
    let take = (pct * ranked.len()).div_ceil(100);
    ranked.truncate(take);
    ranked
}

/// A phi under construction: destination register, promotion slot, and the
/// owning block. Arguments are filled in after every block's exit
/// environment is known.
struct PhiBuild {
    dst: Reg,
    slot: usize,
    args: Vec<(BlockId, Operand)>,
}

/// Rewrites every function of `program` into SSA form with respect to its
/// promotion set under `pct`, returning the bookkeeping the rest of the
/// pass window needs. With `pct == 0` this is a no-op returning an empty
/// form.
pub fn build_ssa(program: &mut Program, pct: u32) -> SsaForm {
    let mut form = SsaForm::default();
    for func in &mut program.functions {
        form.eligible += eligible_vars(func).len() as u64;
        let selected = promotion_set(func, pct);
        if selected.is_empty() {
            continue;
        }
        let phis = construct_function(func, &selected, func.id, &mut form.phi_vars);
        form.promoted += selected.len() as u64;
        form.phis += phis;
        form.selected.insert(func.id, selected);
    }
    form
}

/// Flips every selected variable to [`VarKind::Promoted`]. Run after
/// [`build_ssa`] (the `mem2reg` pass): from here on the alias analysis
/// treats these variables as register-like.
pub fn mark_promoted(program: &mut Program, form: &SsaForm) {
    for func in &mut program.functions {
        let Some(selected) = form.selected.get(&func.id) else {
            continue;
        };
        for v in selected {
            func.vars[v.index()].kind = VarKind::Promoted;
        }
    }
}

/// SSA construction for one function. Returns the number of surviving phis
/// and records their spill variables in `phi_vars`.
fn construct_function(
    func: &mut Function,
    selected: &[VarId],
    fid: FuncId,
    phi_vars: &mut HashMap<(FuncId, Reg), VarId>,
) -> u64 {
    let cfg = Cfg::new(func);
    // An entry block with predecessors would make the initial-value
    // preamble unsound; MiniC lowering never produces one, but
    // builder-made IR could. Skip promotion defensively.
    if !cfg.preds(func.entry).is_empty() {
        return 0;
    }
    let nblocks = func.blocks.len();
    let slot_of: HashMap<VarId, usize> =
        selected.iter().enumerate().map(|(i, v)| (*v, i)).collect();

    let fresh = |next_reg: &mut u32| {
        let r = Reg(*next_reg);
        *next_reg += 1;
        r
    };

    // Entry preamble: each promoted local starts at the simulator's zero
    // initialization; each promoted parameter loads the argument the
    // calling convention stored into its frame slot.
    let mut preamble: Vec<Inst> = Vec::new();
    let mut initial: Vec<Operand> = Vec::new();
    for v in selected {
        let r = fresh(&mut func.next_reg);
        if func.vars[v.index()].kind == VarKind::Param {
            preamble.push(Inst::Load {
                dst: r,
                addr: Address::Var(*v),
            });
        } else {
            preamble.push(Inst::Const { dst: r, value: 0 });
        }
        initial.push(Operand::Reg(r));
    }

    // Maximal phi placement: one phi per promoted variable at every join.
    // Duplicate predecessor edges (a branch with both arms on one target)
    // collapse to a single phi argument.
    let mut phi_at: Vec<Vec<Option<PhiBuild>>> = (0..nblocks)
        .map(|b| {
            let preds: BTreeSet<BlockId> = cfg.preds(BlockId(b as u32)).iter().copied().collect();
            (0..selected.len())
                .map(|slot| {
                    (preds.len() >= 2 && BlockId(b as u32) != func.entry).then(|| PhiBuild {
                        dst: Reg(0), // minted below
                        slot,
                        args: Vec::new(),
                    })
                })
                .collect()
        })
        .collect();
    for row in &mut phi_at {
        for p in row.iter_mut().flatten() {
            p.dst = fresh(&mut func.next_reg);
        }
    }

    // Block entry environments. Reachable single-predecessor blocks take
    // their predecessor's exit environment (the predecessor always
    // precedes them in reverse post-order — a single-predecessor edge can
    // never be a back edge); unreachable blocks fall back to the initial
    // values so every use stays defined.
    let mut exit_env: Vec<Option<Vec<Operand>>> = vec![None; nblocks];
    let mut order: Vec<BlockId> = cfg.rpo().to_vec();
    for b in 0..nblocks {
        let b = BlockId(b as u32);
        if !cfg.is_reachable(b) {
            order.push(b);
        }
    }

    let mut subst: HashMap<Reg, Operand> = HashMap::new();
    for &b in &order {
        // Deduplicated, as in phi placement: a branch with both arms on `b`
        // is one predecessor, not a join.
        let preds: BTreeSet<BlockId> = cfg.preds(b).iter().copied().collect();
        let entry_env: Vec<Operand> = if b == func.entry {
            initial.clone()
        } else if phi_at[b.index()].iter().any(Option::is_some) {
            phi_at[b.index()]
                .iter()
                .map(|p| Operand::Reg(p.as_ref().expect("join block has all phis").dst))
                .collect()
        } else if preds.len() == 1 && cfg.is_reachable(b) {
            let pred = preds.first().expect("one predecessor");
            exit_env[pred.index()]
                .clone()
                .unwrap_or_else(|| initial.clone())
        } else {
            initial.clone()
        };

        let mut env = entry_env;
        let block = &mut func.blocks[b.index()];
        let old = std::mem::take(&mut block.insts);
        let mut new_insts = Vec::with_capacity(old.len());
        for mut inst in old {
            rewrite_uses(&mut inst, &subst);
            match &inst {
                Inst::Load {
                    dst,
                    addr: Address::Var(v),
                } if slot_of.contains_key(v) => {
                    subst.insert(*dst, env[slot_of[v]]);
                }
                Inst::Store {
                    addr: Address::Var(v),
                    src,
                } if slot_of.contains_key(v) => {
                    env[slot_of[v]] = *src;
                }
                _ => new_insts.push(inst),
            }
        }
        // Terminators hold bare registers, so an immediate reaching value
        // needs a materializing const.
        match &mut block.term {
            Terminator::Branch { cond, .. } => {
                if let Some(op) = subst.get(cond) {
                    *cond = match op {
                        Operand::Reg(r) => *r,
                        Operand::Imm(value) => {
                            let r = fresh(&mut func.next_reg);
                            new_insts.push(Inst::Const {
                                dst: r,
                                value: *value,
                            });
                            r
                        }
                    };
                }
            }
            Terminator::Return(Some(Operand::Reg(r))) => {
                if let Some(op) = subst.get(r) {
                    block.term = Terminator::Return(Some(*op));
                }
            }
            _ => {}
        }
        block.insts = new_insts;
        exit_env[b.index()] = Some(env);
    }

    // Fill phi arguments from predecessor exit environments.
    for (b, row) in phi_at.iter_mut().enumerate() {
        let preds: BTreeSet<BlockId> = cfg.preds(BlockId(b as u32)).iter().copied().collect();
        for p in row.iter_mut().flatten() {
            p.args = preds
                .iter()
                .map(|pred| {
                    let env = exit_env[pred.index()]
                        .as_ref()
                        .expect("all blocks processed");
                    (*pred, env[p.slot])
                })
                .collect();
        }
    }

    // Trivial-phi removal to a fixpoint: a phi whose arguments (ignoring
    // self references) agree on one value is that value.
    let mut phi_subst: HashMap<Reg, Operand> = HashMap::new();
    loop {
        let mut changed = false;
        for row in &mut phi_at {
            for slot in row.iter_mut() {
                let Some(p) = slot else { continue };
                for (_, a) in &mut p.args {
                    if let Operand::Reg(r) = a {
                        if let Some(res) = resolve(&phi_subst, *r) {
                            *a = res;
                        }
                    }
                }
                let mut unique: Option<Operand> = None;
                let mut trivial = true;
                for (_, a) in &p.args {
                    if *a == Operand::Reg(p.dst) {
                        continue;
                    }
                    match unique {
                        None => unique = Some(*a),
                        Some(u) if u == *a => {}
                        Some(_) => {
                            trivial = false;
                            break;
                        }
                    }
                }
                if trivial {
                    // A phi with only self references can only join the
                    // initial value — but that case is already covered by
                    // `unique == None` never happening for reachable joins
                    // (some predecessor carries a non-self value). Guard
                    // anyway for hand-built IR.
                    let replacement = unique.unwrap_or(initial[p.slot]);
                    phi_subst.insert(p.dst, replacement);
                    *slot = None;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Apply the trivial-phi substitution across the whole function (the
    // construction substitution already landed during the rewrite).
    if !phi_subst.is_empty() {
        for block in &mut func.blocks {
            for inst in &mut block.insts {
                rewrite_uses_resolved(inst, &phi_subst);
            }
            match &mut block.term {
                Terminator::Branch { cond, .. } => {
                    if let Some(op) = resolve(&phi_subst, *cond) {
                        *cond = match op {
                            Operand::Reg(r) => r,
                            Operand::Imm(value) => {
                                let r = fresh(&mut func.next_reg);
                                block.insts.push(Inst::Const { dst: r, value });
                                r
                            }
                        };
                    }
                }
                Terminator::Return(Some(Operand::Reg(r))) => {
                    if let Some(op) = resolve(&phi_subst, *r) {
                        block.term = Terminator::Return(Some(op));
                    }
                }
                _ => {}
            }
        }
        for row in &mut phi_at {
            for p in row.iter_mut().flatten() {
                for (_, a) in &mut p.args {
                    if let Operand::Reg(r) = a {
                        if let Some(res) = resolve(&phi_subst, *r) {
                            *a = res;
                        }
                    }
                }
            }
        }
    }

    // Materialize: phis at block heads (slot order), preamble at the entry
    // head.
    let mut phi_count = 0u64;
    for (bi, row) in phi_at.into_iter().enumerate() {
        let survivors: Vec<Inst> = row
            .into_iter()
            .flatten()
            .map(|p| {
                phi_vars.insert((fid, p.dst), selected[p.slot]);
                phi_count += 1;
                Inst::Phi {
                    dst: p.dst,
                    args: p.args,
                }
            })
            .collect();
        if !survivors.is_empty() {
            let block = &mut func.blocks[bi];
            let rest = std::mem::take(&mut block.insts);
            block.insts = survivors;
            block.insts.extend(rest);
        }
    }
    let entry = func.entry;
    let block = &mut func.blocks[entry.index()];
    let rest = std::mem::take(&mut block.insts);
    block.insts = preamble;
    block.insts.extend(rest);
    phi_count
}

/// Resolves a register through a substitution map, following chains.
fn resolve(subst: &HashMap<Reg, Operand>, mut r: Reg) -> Option<Operand> {
    let mut out = *subst.get(&r)?;
    while let Operand::Reg(next) = out {
        match subst.get(&next) {
            Some(v) if *v != out => {
                r = next;
                out = *v;
            }
            _ => break,
        }
        let _ = r;
    }
    Some(out)
}

/// Replaces register uses according to `subst` (values are already fully
/// resolved by the construction walk).
fn rewrite_uses(inst: &mut Inst, subst: &HashMap<Reg, Operand>) {
    visit_operands(inst, &mut |op| {
        if let Operand::Reg(r) = op {
            if let Some(v) = subst.get(r) {
                *op = *v;
            }
        }
    });
}

/// Replaces register uses following substitution chains (for the
/// trivial-phi fixpoint, whose map can chain phi → phi → value).
fn rewrite_uses_resolved(inst: &mut Inst, subst: &HashMap<Reg, Operand>) {
    visit_operands(inst, &mut |op| {
        if let Operand::Reg(r) = op {
            if let Some(v) = resolve(subst, *r) {
                *op = v;
            }
        }
    });
}

/// Visits every operand-position register use of an instruction.
///
/// [`Address::Ptr`] holds a bare register; promoted variables are never
/// address-taken, so a pointer register can never be substituted by an
/// immediate — the assert below pins that invariant.
fn visit_operands(inst: &mut Inst, f: &mut impl FnMut(&mut Operand)) {
    let visit_addr = |addr: &mut Address, f: &mut dyn FnMut(&mut Operand)| match addr {
        Address::Var(_) => {}
        Address::Element { index, .. } => f(index),
        Address::Ptr { reg, .. } => {
            let mut op = Operand::Reg(*reg);
            f(&mut op);
            match op {
                Operand::Reg(r) => *reg = r,
                Operand::Imm(_) => unreachable!("pointer register substituted by an immediate"),
            }
        }
    };
    match inst {
        Inst::Const { .. } => {}
        Inst::BinOp { lhs, rhs, .. } | Inst::Cmp { lhs, rhs, .. } => {
            f(lhs);
            f(rhs);
        }
        Inst::Load { addr, .. } => visit_addr(addr, f),
        Inst::Store { addr, src } => {
            visit_addr(addr, f);
            f(src);
        }
        Inst::AddrOf { offset, .. } => f(offset),
        Inst::Call { args, .. } => {
            for a in args {
                f(a);
            }
        }
        Inst::Phi { args, .. } => {
            for (_, a) in args {
                f(a);
            }
        }
    }
}

/// Verifies the SSA invariants for every function of a program in the SSA
/// window. See [`verify_ssa_function`].
///
/// # Errors
///
/// Returns the first violation found.
pub fn verify_ssa(program: &Program) -> Result<(), VerifyError> {
    for func in &program.functions {
        verify_ssa_function(func)?;
    }
    Ok(())
}

/// Verifies one function's SSA invariants:
///
/// * registers in range with exactly one static definition;
/// * phis only at block heads, each with one argument per distinct CFG
///   predecessor (reachable blocks);
/// * no stores to [`VarKind::Promoted`] variables (their cells are dormant
///   until deconstruction);
/// * every definition dominates every use — instruction uses within
///   straight-line code, and phi arguments at the end of the matching
///   predecessor. Unreachable blocks are exempt from dominance (they
///   execute never) but still respect single definitions.
///
/// # Errors
///
/// Returns the first violation found.
pub fn verify_ssa_function(func: &Function) -> Result<(), VerifyError> {
    let fail = |message: String| -> Result<(), VerifyError> {
        Err(VerifyError {
            function: func.name.clone(),
            message,
        })
    };
    let cfg = Cfg::new(func);
    let idom = cfg.immediate_dominators(func);

    // Definition sites: block and instruction index per register.
    let mut def_site: HashMap<Reg, (BlockId, usize)> = HashMap::new();
    for (bid, block) in func.iter_blocks() {
        let mut past_phis = false;
        for (i, inst) in block.insts.iter().enumerate() {
            match inst {
                Inst::Phi { args, .. } => {
                    if past_phis {
                        return fail(format!("{bid}: phi after a non-phi instruction"));
                    }
                    let preds: BTreeSet<BlockId> = cfg.preds(bid).iter().copied().collect();
                    let phi_preds: BTreeSet<BlockId> = args.iter().map(|(b, _)| *b).collect();
                    if phi_preds.len() != args.len() {
                        return fail(format!("{bid}: phi with duplicate predecessor entries"));
                    }
                    if cfg.is_reachable(bid) && phi_preds != preds {
                        return fail(format!(
                            "{bid}: phi predecessors {phi_preds:?} do not match CFG \
                             predecessors {preds:?}"
                        ));
                    }
                }
                Inst::Store {
                    addr: Address::Var(v),
                    ..
                } if !v.is_global() && func.vars[v.index()].kind == VarKind::Promoted => {
                    return fail(format!(
                        "{bid}: store to promoted variable `{}` inside the SSA window",
                        func.vars[v.index()].name
                    ));
                }
                _ => past_phis = true,
            }
            if let Some(d) = inst.def() {
                if d.0 >= func.next_reg {
                    return fail(format!("{bid}: register {d} out of range"));
                }
                if def_site.insert(d, (bid, i)).is_some() {
                    return fail(format!("{bid}: register {d} defined more than once"));
                }
            }
        }
    }

    // A definition at (db, di) dominates a use at (ub, ui) when both sit in
    // the same block with di < ui, or db strictly dominates ub.
    let dominates_use = |d: (BlockId, usize), u: (BlockId, usize)| -> bool {
        if d.0 == u.0 {
            d.1 < u.1
        } else {
            cfg.dominates(&idom, d.0, u.0)
        }
    };

    let mut uses: Vec<Reg> = Vec::new();
    for (bid, block) in func.iter_blocks() {
        if !cfg.is_reachable(bid) {
            // Unreachable code only needs its registers defined somewhere.
            let check = |r: Reg| -> bool { def_site.contains_key(&r) };
            for inst in &block.insts {
                uses.clear();
                inst.uses(&mut uses);
                for r in &uses {
                    if !check(*r) {
                        return fail(format!("{bid}: register {r} used but never defined"));
                    }
                }
            }
            if let Terminator::Branch { cond, .. } = &block.term {
                if !check(*cond) {
                    return fail(format!("{bid}: register {cond} used but never defined"));
                }
            }
            continue;
        }
        for (i, inst) in block.insts.iter().enumerate() {
            if let Inst::Phi { args, .. } = inst {
                // A phi argument must be available at the end of its
                // predecessor block.
                for (pred, a) in args {
                    let Operand::Reg(r) = a else { continue };
                    let Some(&d) = def_site.get(r) else {
                        return fail(format!("{bid}: phi argument {r} never defined"));
                    };
                    // An edge out of an unreachable predecessor never
                    // executes; the argument only needs a definition.
                    if !cfg.is_reachable(*pred) {
                        continue;
                    }
                    let pred_end = (*pred, func.block(*pred).insts.len());
                    if !dominates_use(d, pred_end) {
                        return fail(format!(
                            "{bid}: phi argument {r} (defined in {}) does not dominate \
                             predecessor {pred}",
                            d.0
                        ));
                    }
                }
                continue;
            }
            uses.clear();
            inst.uses(&mut uses);
            for r in &uses {
                let Some(&d) = def_site.get(r) else {
                    return fail(format!("{bid}: register {r} used but never defined"));
                };
                if !dominates_use(d, (bid, i)) {
                    return fail(format!(
                        "{bid}: register {r} used before its definition dominates it"
                    ));
                }
            }
        }
        let term_uses: Vec<Reg> = match &block.term {
            Terminator::Branch { cond, .. } => vec![*cond],
            Terminator::Return(Some(Operand::Reg(r))) => vec![*r],
            _ => Vec::new(),
        };
        for r in term_uses {
            let Some(&d) = def_site.get(&r) else {
                return fail(format!("{bid}: register {r} used but never defined"));
            };
            if !dominates_use(d, (bid, block.insts.len())) {
                return fail(format!(
                    "{bid}: register {r} used by the terminator before its definition \
                     dominates it"
                ));
            }
        }
    }
    Ok(())
}

/// Lowers every surviving phi back to memory: each predecessor stores the
/// incoming value into the phi's source-variable slot, and the phi itself
/// becomes a load at the block head. This restores the
/// single-static-definition, no-phi invariant (the phi destination keeps
/// its register; renaming already minted fresh registers everywhere else),
/// so [`crate::verify::verify_program`] accepts the result.
pub fn deconstruct_ssa(program: &mut Program, form: &SsaForm) {
    for func in &mut program.functions {
        let fid = func.id;
        let mut pending: Vec<(BlockId, VarId, Operand)> = Vec::new();
        for (bi, block) in func.blocks.iter_mut().enumerate() {
            let bid = BlockId(bi as u32);
            for inst in &mut block.insts {
                let Inst::Phi { dst, args } = inst else {
                    continue;
                };
                let var = *form
                    .phi_vars
                    .get(&(fid, *dst))
                    .unwrap_or_else(|| panic!("{fid} {bid}: phi {dst} has no spill slot"));
                for (pred, a) in args.iter() {
                    pending.push((*pred, var, *a));
                }
                *inst = Inst::Load {
                    dst: *dst,
                    addr: Address::Var(var),
                };
            }
        }
        // Duplicate (pred, var) pairs can arise when two blocks join the
        // same variable from one predecessor — the incoming value is
        // identical by construction, so keep the first store only.
        let mut seen: BTreeSet<(u32, VarId)> = BTreeSet::new();
        for (pred, var, src) in pending {
            if !seen.insert((pred.0, var)) {
                continue;
            }
            func.blocks[pred.index()].insts.push(Inst::Store {
                addr: Address::Var(var),
                src,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn promoted_source() -> Program {
        parse(
            "fn main() -> int { int x; int s; int i; x = read_int(); s = 0; \
             for (i = 0; i < 8; i = i + 1) { if (x < 5) { s = s + 1; } else { s = s + 2; } } \
             return s; }",
        )
        .unwrap()
    }

    #[test]
    fn eligibility_excludes_arrays_globals_and_address_taken() {
        let p = parse(
            "int g; fn main() -> int { int a; int buf[4]; int t; t = read_int(); \
             read_str(&buf[0], 4); poke(&a); g = t; return a + buf[0]; } \
             fn poke(int *p) { *p = 1; }",
        )
        .unwrap();
        let f = p.main().unwrap();
        let names: Vec<&str> = eligible_vars(f)
            .iter()
            .map(|v| f.vars[v.index()].name.as_str())
            .collect();
        assert_eq!(names, vec!["t"], "only the plain scalar is eligible");
    }

    #[test]
    fn promotion_set_is_ranked_and_budgeted() {
        let p = promoted_source();
        let f = p.main().unwrap();
        let full = promotion_set(f, 100);
        assert_eq!(full.len(), eligible_vars(f).len());
        // Rank is deterministic: access count descending, index ascending.
        let half = promotion_set(f, 50);
        assert_eq!(half.len(), full.len().div_ceil(2));
        assert_eq!(&full[..half.len()], &half[..]);
        assert!(promotion_set(f, 0).is_empty());
    }

    #[test]
    fn construction_verifies_and_deconstruction_restores_ssd() {
        for pct in [25, 50, 75, 100] {
            let mut p = promoted_source();
            let form = build_ssa(&mut p, pct);
            mark_promoted(&mut p, &form);
            verify_ssa(&p).unwrap_or_else(|e| panic!("pct {pct}: {e}"));
            deconstruct_ssa(&mut p, &form);
            crate::verify::verify_program(&p).unwrap_or_else(|e| panic!("pct {pct}: {e}"));
        }
    }

    #[test]
    fn loop_carried_variable_gets_a_phi() {
        let mut p = promoted_source();
        let form = build_ssa(&mut p, 100);
        assert!(form.phis > 0, "loop-carried i/s need phis: {form:?}");
        assert!(form.promoted >= 3);
        // Every surviving phi maps to a promoted variable.
        for ((fid, _), var) in &form.phi_vars {
            assert!(form.selected[fid].contains(var));
        }
    }

    #[test]
    fn straight_line_promotion_needs_no_phis() {
        let mut p =
            parse("fn main() -> int { int a; a = read_int(); a = a + 1; return a; }").unwrap();
        let form = build_ssa(&mut p, 100);
        assert_eq!(form.phis, 0, "{form:?}");
        // The load/store traffic on `a` is gone.
        let f = p.main().unwrap();
        let mem_ops = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| i.is_load() || i.is_store())
            .count();
        assert_eq!(mem_ops, 0, "{f:?}");
    }

    #[test]
    fn execution_is_preserved_across_promotion() {
        // The IR-level golden check: promoted programs are still the same
        // program (full end-to-end equivalence is covered in ipds-sim's
        // integration tests where an interpreter exists).
        let src = "fn sum(int n) -> int { int s; int i; s = 0; \
                   for (i = 0; i < n; i = i + 1) { s = s + i; } return s; } \
                   fn main() -> int { return sum(5); }";
        let mut p = parse(src).unwrap();
        let form = build_ssa(&mut p, 100);
        mark_promoted(&mut p, &form);
        verify_ssa(&p).unwrap();
        deconstruct_ssa(&mut p, &form);
        crate::verify::verify_program(&p).unwrap();
        // Promoted params keep exactly one entry load.
        let sum = p.function_by_name("sum").unwrap();
        let param_loads = sum.blocks[sum.entry.index()]
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::Load { addr: Address::Var(v), .. } if v.index() == 0))
            .count();
        assert_eq!(param_loads, 1);
    }

    #[test]
    fn zero_budget_is_a_no_op() {
        let before = promoted_source();
        let mut after = promoted_source();
        let form = build_ssa(&mut after, 0);
        assert_eq!(form.promoted, 0);
        assert_eq!(before, after, "pct 0 must not touch the program");
    }
}
