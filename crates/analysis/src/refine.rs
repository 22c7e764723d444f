//! Interval-backed refinement of the correlation tables — the
//! `refine-correlations` pass.
//!
//! The correlate pass reasons about pairs of branch *anchors*: affine views
//! of the same memory variable, compared at two branch sites. That misses
//! facts that need flow sensitivity — a constant stored blocks earlier, a
//! bound established by an enclosing branch, a loop exit condition. The
//! interval abstract interpreter ([`ipds_absint`]) carries exactly those
//! facts to every conditional-branch edge, and this pass folds them back
//! into the tables in both directions:
//!
//! * **Promotion** (scenario-3 subsumption beyond anchor pairs): for a
//!   trigger edge `(t, dir)` whose abstract environment forces the
//!   direction of an already-checked, load-anchored target `g`, and whose
//!   BAT row holds no entry for `g`, add `SET_T`/`SET_NT`. This is sound
//!   for the same reason the correlate pass is: the region-kill pass
//!   already emitted `SET_UN` on *every* branch edge whose region may
//!   write any checked target's anchor variable — including this one — so
//!   a row with no entry for `g` means the edge provably leaves `g`'s
//!   anchor variables alone, and the interval fact survives until `g`
//!   executes.
//! * **Demotion** (soundness net): every directional action already in the
//!   tables is re-proven, either by an anchor pair (the correlate pass's
//!   own argument) or by the interval environment on its trigger edge. An
//!   action neither oracle can justify is demoted to `SET_UN` — the
//!   runtime then treats the target as unknown instead of flagging an
//!   infeasible path that may be feasible. On tables the stock pipeline
//!   emits this proves everything and demotes nothing; the net exists to
//!   catch bugs in future emitters (and is what `ipdsc lint` reports on
//!   instead of silently repairing).
//!
//! The pass mutates [`FunctionAnalysis`] in place and recomputes the
//! encoded table sizes whenever it changed a row, keeping the
//! `verify-tables` invariants intact. The pipeline refines one function
//! after another in `FuncId` order.

use std::collections::{BTreeMap, BTreeSet};

use ipds_absint::IntervalAnalysis;
use ipds_dataflow::{
    find_anchors, AliasAnalysis, AnchorKind, BranchAnchor, PrunedFunction, Summaries,
};
use ipds_ir::{BlockId, Function, Program};

use crate::action::BrAction;
use crate::encode::table_sizes;
use crate::tables::{BatEntry, FunctionAnalysis};

/// What the refine pass did to one function (or, summed, to a program).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefineStats {
    /// Directional entries added because the interval environment on the
    /// trigger edge forces the target's direction.
    pub proved: u64,
    /// Directional entries demoted to `SET_UN` because no oracle re-proves
    /// them.
    pub demoted: u64,
}

impl RefineStats {
    /// Accumulates another function's stats.
    pub fn merge(&mut self, other: RefineStats) {
        self.proved += other.proved;
        self.demoted += other.demoted;
    }
}

/// The two proof oracles the refine and lint passes share: anchor-pair
/// subsumption (the correlate pass's own argument) and the interval
/// environment on the trigger edge.
pub(crate) struct DirectionOracle<'a> {
    pub(crate) anchors: &'a BTreeMap<BlockId, Vec<BranchAnchor>>,
    pub(crate) intervals: &'a IntervalAnalysis,
}

impl DirectionOracle<'_> {
    /// Every direction of `target` provable for the moment `trigger`
    /// commits with direction `dir`. Empty means no oracle can say
    /// anything; two elements mean the oracles contradict each other
    /// (possible only on edges whose constraints are degenerate).
    pub(crate) fn provable(&self, trigger: BlockId, dir: bool, target: BlockId) -> BTreeSet<bool> {
        let mut dirs = BTreeSet::new();
        let target_loads: Vec<&BranchAnchor> = self
            .anchors
            .get(&target)
            .map(|list| list.iter().filter(|a| a.kind == AnchorKind::Load).collect())
            .unwrap_or_default();
        if let Some(trigger_anchors) = self.anchors.get(&trigger) {
            for a in trigger_anchors {
                let implied = a.implied_range(dir);
                for b in &target_loads {
                    if b.var == a.var {
                        if let Some(d) = b.direction_for(implied) {
                            dirs.insert(d);
                        }
                    }
                }
            }
        }
        for b in &target_loads {
            let r = self.intervals.var_on_edge(trigger, dir, b.var);
            if let Some(d) = b.direction_for(r) {
                dirs.insert(d);
            }
        }
        dirs
    }
}

/// Refines one function's tables in place against its interval analysis,
/// over the feasibility-pruned `view` (`PrunedFunction::default()` for the
/// stock world): anchors are discovered on the pruned graph and promotions
/// never attach to a proved-dead trigger edge. Under pruning, the facts and
/// intervals should be the pruned-round ones so both oracles agree with the
/// view. Returns what changed; recomputes the encoded sizes if anything
/// did.
#[allow(clippy::too_many_arguments)]
pub fn refine_function(
    program: &Program,
    func: &Function,
    alias: &AliasAnalysis,
    summaries: &Summaries,
    intervals: &IntervalAnalysis,
    tables: &mut FunctionAnalysis,
    view: &PrunedFunction,
) -> RefineStats {
    let anchors = find_anchors(program, func, alias, summaries, view);
    let oracle = DirectionOracle {
        anchors: &anchors,
        intervals,
    };
    let mut stats = RefineStats::default();
    let mut changed = false;
    let branches = tables.branches.clone();

    // Demotion sweep: re-prove every directional entry. Entries on
    // statically infeasible trigger edges can never fire, so they are left
    // alone (the lint pass reports them as dead instead).
    for (&(trigger, dir), entries) in tables.bat.iter_mut() {
        let trigger_block = branches[trigger as usize].block;
        if !intervals.edge_feasible(trigger_block, dir) {
            continue;
        }
        for e in entries.iter_mut() {
            let d = match e.action {
                BrAction::SetTaken => true,
                BrAction::SetNotTaken => false,
                _ => continue,
            };
            let target_block = branches[e.target as usize].block;
            if !oracle
                .provable(trigger_block, dir, target_block)
                .contains(&d)
            {
                e.action = BrAction::SetUnknown;
                stats.demoted += 1;
                changed = true;
            }
        }
    }

    // Promotion sweep: add interval-proved directions for already-checked,
    // load-anchored targets missing from a row. Restricting promotions to
    // checked targets keeps the BCV one-directional invariants (and the
    // region-kill completeness argument) intact.
    for (trigger_idx, trigger) in branches.iter().enumerate() {
        for dir in [false, true] {
            if !intervals.edge_feasible(trigger.block, dir) || !view.edge_live(trigger.block, dir) {
                continue;
            }
            let mut additions: Vec<BatEntry> = Vec::new();
            for (target_idx, target) in branches.iter().enumerate() {
                if !tables.checked[target_idx] {
                    continue;
                }
                let row = tables.bat.get(&(trigger_idx as u32, dir));
                if row.is_some_and(|row| row.iter().any(|e| e.target == target_idx as u32)) {
                    continue;
                }
                let mut forced: Option<bool> = None;
                let mut ambiguous = false;
                for b in anchors
                    .get(&target.block)
                    .into_iter()
                    .flatten()
                    .filter(|a| a.kind == AnchorKind::Load)
                {
                    let r = intervals.var_on_edge(trigger.block, dir, b.var);
                    if let Some(d) = b.direction_for(r) {
                        match forced {
                            None => forced = Some(d),
                            Some(prev) if prev != d => ambiguous = true,
                            Some(_) => {}
                        }
                    }
                }
                if ambiguous {
                    // Two anchors of the same branch forcing opposite
                    // directions means the edge constraints are degenerate;
                    // adding nothing is the conservative move.
                    continue;
                }
                if let Some(d) = forced {
                    additions.push(BatEntry {
                        target: target_idx as u32,
                        action: BrAction::set_dir(d),
                    });
                }
            }
            if !additions.is_empty() {
                let row = tables.bat.entry((trigger_idx as u32, dir)).or_default();
                stats.proved += additions.len() as u64;
                row.extend(additions);
                row.sort_by_key(|e| e.target);
                changed = true;
            }
        }
    }

    if changed {
        tables.sizes = table_sizes(&tables.bat, &tables.branches, &tables.hash);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{analyze_program, AnalysisConfig};
    use ipds_dataflow::Facts;

    fn facts(src: &str) -> (Program, AliasAnalysis, Summaries) {
        let program = ipds_ir::parse(src).unwrap();
        let Facts { alias, summaries } = Facts::compute(&program);
        (program, alias, summaries)
    }

    /// Intervals plus refinement of one function, both over the identity
    /// view.
    fn refine(
        program: &Program,
        alias: &AliasAnalysis,
        summaries: &Summaries,
        func: &Function,
        tables: &mut FunctionAnalysis,
    ) -> RefineStats {
        let full = PrunedFunction::default();
        let ia = IntervalAnalysis::analyze(program, func, alias, summaries, &full);
        refine_function(program, func, alias, summaries, &ia, tables, &full)
    }

    #[test]
    fn stock_tables_are_fully_reproved() {
        // Everything the correlate pass emits must pass its own re-proof:
        // zero demotions on a representative correlated program.
        let (program, alias, summaries) = facts(
            "int mode; \
             fn main() -> int { int x; x = read_int(); mode = x; \
             if (mode < 5) { print_int(1); } \
             if (mode < 5) { print_int(2); } \
             if (mode > 7) { print_int(3); } \
             return 0; }",
        );
        let mut analysis = analyze_program(&program, &AnalysisConfig::default());
        let mut total = RefineStats::default();
        for (func, tables) in program.functions.iter().zip(&mut analysis.functions) {
            total.merge(refine(&program, &alias, &summaries, func, tables));
        }
        assert_eq!(total.demoted, 0, "stock tables must re-prove");
        crate::verify_tables::verify_tables(&program, &analysis)
            .expect("refined tables must still verify");
    }

    #[test]
    fn intervals_promote_beyond_anchor_pairs() {
        // `mode` is pinned to 1 by a store in the entry block; the guard on
        // the unrelated variable `y` then has `mode == 1` in both of its
        // edge environments, so its BAT rows gain SET_NT for the checked
        // `mode > 5` branch — a fact no anchor pair at the `y` branch sees.
        let (program, alias, summaries) = facts(
            "int mode; int y; \
             fn main() -> int { \
             mode = 1; \
             y = read_int(); \
             if (y < 3) { print_int(1); } \
             if (mode > 5) { print_int(2); } \
             if (mode > 5) { print_int(3); } \
             return 0; }",
        );
        let mut analysis = analyze_program(&program, &AnalysisConfig::default());
        let func = &program.functions[0];
        let tables = &mut analysis.functions[0];
        let before = tables.bat_entry_count();
        let stats = refine(&program, &alias, &summaries, func, tables);
        assert!(stats.proved > 0, "interval facts must add entries");
        assert_eq!(stats.demoted, 0);
        assert!(tables.bat_entry_count() > before);
        crate::verify_tables::verify_tables(&program, &analysis)
            .expect("promoted tables must still verify");
    }

    #[test]
    fn unprovable_actions_are_demoted() {
        // Forge an unsound directional action (the guard on `a` says
        // nothing about `b`'s branch) and check the net catches it.
        let (program, alias, summaries) = facts(
            "int a; int b; \
             fn main() -> int { \
             a = read_int(); b = read_int(); \
             if (a < 3) { print_int(1); } \
             if (b < 7) { print_int(2); } \
             if (b < 7) { print_int(3); } \
             return 0; }",
        );
        let mut analysis = analyze_program(&program, &AnalysisConfig::default());
        let func = &program.functions[0];
        let tables = &mut analysis.functions[0];
        let victim = tables
            .branch_index(
                tables.branches[1].block, // the first `b < 7` branch
            )
            .unwrap();
        tables.bat.entry((0, true)).or_default().push(BatEntry {
            target: victim,
            action: BrAction::SetTaken,
        });
        let stats = refine(&program, &alias, &summaries, func, tables);
        assert!(stats.demoted >= 1, "forged action must be demoted");
        let row = &tables.bat[&(0, true)];
        assert!(row
            .iter()
            .any(|e| e.target == victim && e.action == BrAction::SetUnknown));
        crate::verify_tables::verify_tables(&program, &analysis)
            .expect("demoted tables must still verify");
    }
}
