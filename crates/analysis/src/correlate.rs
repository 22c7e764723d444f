//! BAT/BCV construction from branch anchors — the Fig. 5 algorithm.
//!
//! The construction unifies the paper's two correlation loops through
//! [`BranchAnchor`]s:
//!
//! * a **store→load correlation** (Fig. 5 lines 6–9) is a *store-anchored*
//!   trigger whose implied range forces a *load-anchored* target's
//!   direction;
//! * a **load→load correlation** (lines 11–14) is a *load-anchored* trigger
//!   doing the same (including the trigger being the target itself —
//!   scenario 2, the loop-iteration case);
//! * the **redefinition pass** (lines 19–21) becomes `SET_UN` entries: a
//!   store-anchored trigger that does not determine a target sets it
//!   unknown, and every other may-store is attached as a `SET_UN` to the
//!   branch edges whose region contains it (see [`crate::region`]).
//!
//! Soundness notes (the zero-false-positive argument):
//!
//! * Only **load-anchored** targets are ever set to a direction: a
//!   load-anchored branch observes the variable's current memory value, so a
//!   trigger's range knowledge transfers. (A store-anchored branch tests the
//!   value it freshly writes, which old knowledge says nothing about.)
//! * A killing store is omitted from region kills only when the block's own
//!   terminating branch is store-anchored on the same variable **and** is
//!   not the target itself: in that case the terminator's BAT row already
//!   rewrites the target's status (with `SET_UN` if undetermined) before any
//!   verification can happen.

use std::collections::BTreeMap;

use ipds_dataflow::{
    find_anchors, AliasAnalysis, AnchorKind, BranchAnchor, MemVar, PrunedFunction, Range, Summaries,
};
use ipds_ir::{BlockId, Function, Inst, Operand, Program, Terminator};

use crate::action::BrAction;
use crate::compile::AnalysisConfig;
use crate::region::branch_edge_regions;
use crate::tables::BatEntry;

/// Raw correlation output before hashing/encoding: branch blocks in index
/// order, the checked set, and BAT rows keyed by (branch index, direction).
#[derive(Debug, Clone)]
pub struct RawTables {
    /// Branch blocks sorted by block id; index in this vector is the branch
    /// index used everywhere else.
    pub branch_blocks: Vec<BlockId>,
    /// BCV bits.
    pub checked: Vec<bool>,
    /// BAT rows.
    pub bat: BTreeMap<(u32, bool), Vec<BatEntry>>,
}

/// Builds the raw BCV/BAT for one function over the feasibility-pruned
/// `view` (`PrunedFunction::default()` for the stock tables).
///
/// The branch inventory (and hence the BCV length and the PCs fed to the
/// perfect hash) stays the **full** inventory — the runtime still observes
/// every branch, and traversing a pruned edge is itself the anomaly. What
/// the view changes is discovery: anchors in dead blocks do not exist, BAT
/// rows are never attached to proved-dead trigger edges, and region kills
/// ignore stores that only feasible-path-unreachable code performs. Under
/// pruning, the `alias` and `summaries` passed here should be the
/// pruned-view facts so store-freedom checks agree with the view.
pub fn build_tables(
    program: &Program,
    func: &Function,
    alias: &AliasAnalysis,
    summaries: &Summaries,
    config: &AnalysisConfig,
    view: &PrunedFunction,
) -> RawTables {
    let branch_blocks: Vec<BlockId> = func
        .iter_blocks()
        .filter(|(_, b)| b.term.is_branch())
        .map(|(id, _)| id)
        .collect();
    let index_of: BTreeMap<BlockId, u32> = branch_blocks
        .iter()
        .enumerate()
        .map(|(i, b)| (*b, i as u32))
        .collect();

    let mut anchors = find_anchors(program, func, alias, summaries, view);
    // Ablation switches: drop whole anchor classes.
    for list in anchors.values_mut() {
        list.retain(|a| match a.kind {
            AnchorKind::Load => config.load_anchors,
            AnchorKind::Store => config.store_anchors,
        });
    }
    anchors.retain(|_, v| !v.is_empty());

    // Targets must be load-anchored (they observe memory; a store-anchored
    // branch tests a freshly written value).
    let load_anchored: BTreeMap<u32, Vec<&BranchAnchor>> = anchors
        .iter()
        .filter_map(|(block, list)| {
            let idx = *index_of.get(block)?;
            let loads: Vec<&BranchAnchor> =
                list.iter().filter(|a| a.kind == AnchorKind::Load).collect();
            (!loads.is_empty()).then_some((idx, loads))
        })
        .collect();

    // Pass 1: directional actions from trigger anchors.
    let mut merged: BTreeMap<(u32, bool), BTreeMap<u32, BrAction>> = BTreeMap::new();
    fn merge_into(
        merged: &mut BTreeMap<(u32, bool), BTreeMap<u32, BrAction>>,
        key: (u32, bool),
        target: u32,
        action: BrAction,
    ) {
        let row = merged.entry(key).or_default();
        let slot = row.entry(target).or_insert(BrAction::NoChange);
        *slot = slot.merge(action);
    }

    for (block, list) in &anchors {
        let Some(&trigger_idx) = index_of.get(block) else {
            continue;
        };
        for a in list {
            for dir in [true, false] {
                // A proved-dead trigger edge never commits on a feasible
                // path: attach nothing to it.
                if !view.edge_live(*block, dir) {
                    continue;
                }
                let implied: Range = a.implied_range(dir);
                for (&target_idx, target_anchors) in &load_anchored {
                    for b in target_anchors {
                        if b.var != a.var {
                            continue;
                        }
                        match b.direction_for(implied) {
                            Some(d) => {
                                merge_into(
                                    &mut merged,
                                    (trigger_idx, dir),
                                    target_idx,
                                    BrAction::set_dir(d),
                                );
                            }
                            None if a.kind == AnchorKind::Store => {
                                // The trigger redefines the variable to a
                                // value that does not determine the target.
                                merge_into(
                                    &mut merged,
                                    (trigger_idx, dir),
                                    target_idx,
                                    BrAction::SetUnknown,
                                );
                            }
                            None => {}
                        }
                    }
                }
            }
        }
    }

    // The checked set: branches that ever receive a directional action.
    let mut checked = vec![false; branch_blocks.len()];
    for row in merged.values() {
        for (&target, &action) in row {
            if matches!(action, BrAction::SetTaken | BrAction::SetNotTaken) {
                checked[target as usize] = true;
            }
        }
    }

    // Optional extension: constant stores pin a variable's exact value; the
    // block's terminating branch (either direction) carries the action.
    if config.const_store {
        for (bid, block) in func.iter_blocks() {
            if !view.block_live(bid) {
                continue;
            }
            let Terminator::Branch { .. } = block.term else {
                continue;
            };
            let trigger_idx = index_of[&bid];
            for (i, inst) in block.insts.iter().enumerate() {
                let Inst::Store {
                    addr,
                    src: Operand::Imm(c),
                } = inst
                else {
                    continue;
                };
                let ipds_dataflow::AccessClass::Unique(v) = alias.classify(program, func.id, addr)
                else {
                    continue;
                };
                if !store_free_after(program, func, alias, summaries, bid, i, v) {
                    continue;
                }
                for (&target_idx, target_anchors) in &load_anchored {
                    if !checked[target_idx as usize] {
                        continue;
                    }
                    for b in target_anchors {
                        if b.var != v {
                            continue;
                        }
                        if let Some(d) = b.direction_for(Range::exact(*c)) {
                            for dir in [true, false] {
                                if !view.edge_live(bid, dir) {
                                    continue;
                                }
                                merge_into(
                                    &mut merged,
                                    (trigger_idx, dir),
                                    target_idx,
                                    BrAction::set_dir(d),
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    // Pass 2: region kills. Any instruction in the region of edge
    // (trigger, dir) that may write a checked target's anchor variable adds
    // SET_UN — unless masked by a store-anchored terminator (see module
    // docs).
    let regions = branch_edge_regions(func);
    // Precompute: per block, the set of vars its terminating branch is
    // store-anchored on.
    let mut store_anchored_at: BTreeMap<BlockId, Vec<MemVar>> = BTreeMap::new();
    for (block, list) in &anchors {
        let vars: Vec<MemVar> = list
            .iter()
            .filter(|a| a.kind == AnchorKind::Store)
            .map(|a| a.var)
            .collect();
        if !vars.is_empty() {
            store_anchored_at.insert(*block, vars);
        }
    }

    for ((trigger_block, dir), locs) in &regions {
        // Regions of proved-dead edges (or of branches in dead blocks)
        // never execute on a feasible path.
        if !view.edge_live(*trigger_block, *dir) {
            continue;
        }
        let trigger_idx = index_of[trigger_block];
        for &(b, i) in locs {
            if !view.block_live(b) {
                continue;
            }
            let inst = &func.block(b).insts[i];
            let eff = summaries.may_write(program, alias, func.id, inst);
            if eff.is_nothing() {
                continue;
            }
            for (&target_idx, target_anchors) in &load_anchored {
                if !checked[target_idx as usize] {
                    continue;
                }
                for anchor in target_anchors {
                    let v = anchor.var;
                    if !eff.may_write(v) {
                        continue;
                    }
                    // Masking: a unique store to v in a block whose own
                    // terminating branch is store-anchored on v is already
                    // accounted for by that branch's BAT row — unless the
                    // target *is* that branch (its verify precedes its own
                    // actions).
                    let masked = is_unique_store_to(program, func, alias, inst, v)
                        && store_anchored_at
                            .get(&b)
                            .is_some_and(|vars| vars.contains(&v))
                        && index_of.get(&b) != Some(&target_idx);
                    if !masked {
                        merge_into(
                            &mut merged,
                            (trigger_idx, *dir),
                            target_idx,
                            BrAction::SetUnknown,
                        );
                    }
                }
            }
        }
    }

    // Assemble rows (skip NoChange remnants).
    let mut bat: BTreeMap<(u32, bool), Vec<BatEntry>> = BTreeMap::new();
    for (key, row) in merged {
        let entries: Vec<BatEntry> = row
            .into_iter()
            .filter(|(_, a)| *a != BrAction::NoChange)
            .map(|(target, action)| BatEntry { target, action })
            .collect();
        if !entries.is_empty() {
            bat.insert(key, entries);
        }
    }

    RawTables {
        branch_blocks,
        checked,
        bat,
    }
}

fn is_unique_store_to(
    program: &Program,
    func: &Function,
    alias: &AliasAnalysis,
    inst: &Inst,
    v: MemVar,
) -> bool {
    if let Inst::Store { addr, .. } = inst {
        alias.classify(program, func.id, addr) == ipds_dataflow::AccessClass::Unique(v)
    } else {
        false
    }
}

fn store_free_after(
    program: &Program,
    func: &Function,
    alias: &AliasAnalysis,
    summaries: &Summaries,
    block: BlockId,
    idx: usize,
    v: MemVar,
) -> bool {
    func.block(block).insts.iter().skip(idx + 1).all(|inst| {
        !summaries
            .may_write(program, alias, func.id, inst)
            .may_write(v)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::AnalysisConfig;
    use ipds_dataflow::Facts;

    fn tables(src: &str) -> (Program, RawTables) {
        let p = ipds_ir::parse(src).unwrap();
        let Facts { alias, summaries } = Facts::compute(&p);
        let f = p.main().unwrap();
        let t = build_tables(
            &p,
            f,
            &alias,
            &summaries,
            &AnalysisConfig::default(),
            &PrunedFunction::default(),
        );
        (p, t)
    }

    #[test]
    fn figure1_pattern_correlates_two_checks() {
        // The motivating example: two `user == 1` tests must agree.
        let (_, t) = tables(
            "fn main() -> int { int user; user = read_int(); \
             if (user == 1) { print_int(1); } \
             print_int(0); \
             if (user == 1) { print_int(2); } \
             return 0; }",
        );
        assert_eq!(t.branch_blocks.len(), 2);
        // Both branches checked (each is forced by the other / itself).
        assert!(t.checked[0]);
        assert!(t.checked[1]);
        // First branch taken ⇒ second set taken; not-taken ⇒ set not-taken.
        let row_t = &t.bat[&(0, true)];
        assert!(row_t
            .iter()
            .any(|e| e.target == 1 && e.action == BrAction::SetTaken));
        let row_nt = &t.bat[&(0, false)];
        assert!(row_nt
            .iter()
            .any(|e| e.target == 1 && e.action == BrAction::SetNotTaken));
    }

    #[test]
    fn subsumption_is_one_directional() {
        // x < 5 (bb A) subsumes x < 10 (bb B): A-taken ⇒ B-taken, but
        // B-taken must NOT force A.
        let (_, t) = tables(
            "fn main() -> int { int x; x = read_int(); \
             if (x < 5) { print_int(1); } \
             if (x < 10) { print_int(2); } \
             return 0; }",
        );
        let a = 0u32;
        let b = 1u32;
        let row = &t.bat[&(a, true)];
        assert!(row
            .iter()
            .any(|e| e.target == b && e.action == BrAction::SetTaken));
        // Not-taken of A (x ≥ 5) does not determine B: any entry for B on
        // that edge can only be the conservative SET_UN from the
        // store-anchored trigger.
        if let Some(row_nt) = t.bat.get(&(a, false)) {
            assert!(row_nt
                .iter()
                .filter(|e| e.target == b)
                .all(|e| e.action == BrAction::SetUnknown));
        }
        // B taken (x ≤ 9) does not determine A; B not-taken (x ≥ 10) forces
        // A not-taken.
        if let Some(rbt) = t.bat.get(&(b, true)) {
            assert!(rbt
                .iter()
                .all(|e| e.target != a || e.action == BrAction::SetUnknown));
        }
        let rbn = &t.bat[&(b, false)];
        assert!(rbn
            .iter()
            .any(|e| e.target == a && e.action == BrAction::SetNotTaken));
    }

    #[test]
    fn loop_self_correlation() {
        // while (x < 10) with x untouched: the loop branch correlates with
        // itself (scenario 2).
        let (p, t) = tables(
            "fn main() -> int { int x; int s; x = read_int(); s = 0; \
             while (x < 10) { s = s + 1; if (s > 100) { break; } } return s; }",
        );
        let f = p.main().unwrap();
        // Find the while-header branch (anchored on x).
        let header_idx = t
            .branch_blocks
            .iter()
            .position(|&b| {
                // its block loads x
                f.block(b).insts.iter().any(|i| matches!(
                    i,
                    Inst::Load { addr: ipds_ir::Address::Var(v), .. } if f.vars[v.index()].name == "x"
                ))
            })
            .unwrap() as u32;
        assert!(t.checked[header_idx as usize]);
        let row = &t.bat[&(header_idx, true)];
        assert!(
            row.iter()
                .any(|e| e.target == header_idx && e.action == BrAction::SetTaken),
            "self-correlation entry missing: {row:?}"
        );
    }

    #[test]
    fn redefinition_in_branch_arm_kills() {
        // Fig. 4: taking the arm that redefines x must set dependent
        // branches unknown.
        let (_, t) = tables(
            "fn main() -> int { int x; int y; x = read_int(); y = read_int(); \
             if (y < 0) { x = read_int(); } \
             if (x < 10) { print_int(1); } \
             if (x < 10) { print_int(2); } \
             return 0; }",
        );
        // Branch 0 is y<0; branches 1 and 2 are the correlated x tests.
        assert!(t.checked[1] || t.checked[2]);
        // Region of (0, taken) contains the x redefinition ⇒ SET_UN for the
        // x-checked branches.
        let row = t.bat.get(&(0, true)).expect("kill row");
        assert!(
            row.iter().any(|e| e.action == BrAction::SetUnknown),
            "{row:?}"
        );
        // The not-taken edge does not redefine x: it must NOT kill.
        if let Some(row_nt) = t.bat.get(&(0, false)) {
            assert!(
                row_nt.iter().all(|e| e.action != BrAction::SetUnknown),
                "{row_nt:?}"
            );
        }
    }

    #[test]
    fn store_anchored_trigger_masks_its_own_kill() {
        // x = read_int() re-anchors at the loop branch each iteration: the
        // redefinition is masked by the store anchor, so the BAT carries the
        // trigger's own SET_UN (value undetermined), not a region kill for
        // other branches... and the self target still gets the region kill.
        let (_, t) = tables(
            "fn main() -> int { int x; x = read_int(); \
             while (x != 0) { x = read_int(); } return 0; }",
        );
        // One checked branch (the loop test, anchored on x).
        let idx = t.checked.iter().position(|&c| c).expect("checked") as u32;
        // Taken edge re-enters the body which redefines x: target must end
        // up unknown, never taken.
        let row = t.bat.get(&(idx, true)).expect("row");
        for e in row {
            if e.target == idx {
                assert_eq!(e.action, BrAction::SetUnknown, "{row:?}");
            }
        }
    }

    #[test]
    fn call_pseudo_store_kills() {
        let (_, t) = tables(
            "fn clobber(int *p) { *p = 7; } \
             fn main() -> int { int x; x = read_int(); \
             if (x < 5) { clobber(&x); } \
             if (x < 5) { print_int(1); } return 0; }",
        );
        // Taken edge of branch 0 calls clobber(&x) ⇒ SET_UN on branch 1.
        let row = t.bat.get(&(0, true)).expect("row");
        assert!(
            row.iter()
                .any(|e| e.target == 1 && e.action == BrAction::SetUnknown),
            "{row:?}"
        );
        // Not-taken edge leaves x alone ⇒ branch 1 forced not-taken there
        // (x ≥ 5 ⇒ second x < 5 not taken).
        let row_nt = t.bat.get(&(0, false)).expect("row");
        assert!(
            row_nt
                .iter()
                .any(|e| e.target == 1 && e.action == BrAction::SetNotTaken),
            "{row_nt:?}"
        );
    }

    #[test]
    fn unanchored_branches_are_unchecked() {
        let (_, t) = tables(
            "fn main() -> int { int x; int y; x = read_int(); y = read_int(); \
             if (x < y) { print_int(1); } return 0; }",
        );
        assert_eq!(t.branch_blocks.len(), 1);
        assert!(!t.checked[0]);
        assert!(t.bat.is_empty());
    }

    #[test]
    fn const_store_extension_adds_actions() {
        // The constant store rides an *unrelated* branch (y < 3): without
        // the extension that branch carries no f-actions at all.
        let src = "fn main() -> int { int f; int y; f = read_int(); y = read_int(); \
             if (f == 1) { print_int(9); } \
             f = 1; \
             if (y < 3) { print_int(2); } \
             if (f == 1) { print_int(1); } return 0; }";
        let p = ipds_ir::parse(src).unwrap();
        let Facts { alias, summaries } = Facts::compute(&p);
        let f = p.main().unwrap();
        let base = build_tables(
            &p,
            f,
            &alias,
            &summaries,
            &AnalysisConfig::default(),
            &PrunedFunction::default(),
        );
        let cfg = AnalysisConfig {
            const_store: true,
            ..AnalysisConfig::default()
        };
        let ext = build_tables(&p, f, &alias, &summaries, &cfg, &PrunedFunction::default());
        // The extension must add SET_T entries (f = 1 forces the second
        // test taken) beyond the baseline.
        let count = |t: &RawTables| -> usize {
            t.bat
                .values()
                .flatten()
                .filter(|e| e.action == BrAction::SetTaken)
                .count()
        };
        assert!(
            count(&ext) > count(&base),
            "ext {:?} base {:?}",
            ext.bat,
            base.bat
        );
    }
}
