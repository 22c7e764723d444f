//! Table soundness auditing — the `lint-tables` pass behind `ipdsc lint`.
//!
//! The runtime trusts the BAT completely: a directional action the program
//! cannot actually justify turns the zero-false-positive guarantee into a
//! false-alarm generator. This auditor replays every emitted action against
//! two independent oracles — anchor-pair subsumption (the correlate pass's
//! own argument) and the interval abstract interpretation of the trigger
//! edge — and reports, without repairing anything:
//!
//! * **`unprovable-action`** ([`LintSeverity::Error`]): a `SET_T`/`SET_NT`
//!   entry neither oracle can justify. The runtime may mark a feasible path
//!   infeasible.
//! * **`contradicted-action`** ([`LintSeverity::Error`]): the oracles prove
//!   the *opposite* direction of the stored action — a sign bug in the
//!   emitter rather than mere over-claiming.
//! * **`dead-trigger`** ([`LintSeverity::Warning`]): the trigger edge is
//!   statically infeasible, so the entry can never fire. Harmless at
//!   runtime, but dead weight in the tables and usually a symptom.
//!
//! Each diagnostic carries a concrete **witness path**: the terminator PCs
//! of a shortest CFG path from function entry to the trigger branch,
//! continued along the triggering direction to the target branch, so the
//! report pinpoints an execution that reaches the questionable action.
//!
//! Auditing is read-only and runs function by function in `FuncId` order;
//! the report sorts its diagnostics, so its rendering is deterministic.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use ipds_absint::IntervalAnalysis;
use ipds_dataflow::{find_anchors, AliasAnalysis, PrunedCfg, PrunedFunction, Summaries};
use ipds_ir::{BlockId, FuncId, Function, Program, Terminator};

use crate::action::BrAction;
use crate::compile::ProgramAnalysis;
use crate::refine::DirectionOracle;
use crate::tables::FunctionAnalysis;

/// How bad a lint finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintSeverity {
    /// The tables may cause a false anomaly at runtime.
    Error,
    /// The tables carry dead or suspicious weight, but cannot misfire.
    Warning,
}

/// Which audit rule fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintRule {
    /// A directional action no oracle re-proves.
    UnprovableAction,
    /// The oracles prove the opposite of the stored direction.
    ContradictedAction,
    /// The trigger edge is statically infeasible.
    DeadTrigger,
}

impl LintRule {
    /// The rule's stable kebab-case name (report text, docs).
    pub fn name(self) -> &'static str {
        match self {
            LintRule::UnprovableAction => "unprovable-action",
            LintRule::ContradictedAction => "contradicted-action",
            LintRule::DeadTrigger => "dead-trigger",
        }
    }
}

/// One audit finding, fully located.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintDiagnostic {
    /// Error or warning.
    pub severity: LintSeverity,
    /// The rule that fired.
    pub rule: LintRule,
    /// The offending function's id.
    pub func: FuncId,
    /// The offending function's name.
    pub function: String,
    /// Trigger branch index within the function's tables.
    pub trigger: u32,
    /// Trigger branch PC (its hardware identity).
    pub trigger_pc: u64,
    /// Trigger direction (`true` = taken).
    pub dir: bool,
    /// Target branch index.
    pub target: u32,
    /// Target branch PC.
    pub target_pc: u64,
    /// The audited action.
    pub action: BrAction,
    /// Terminator PCs of a shortest path from function entry through the
    /// trigger edge to the target branch (ends at the trigger when the
    /// target is unreachable from the edge).
    pub witness: Vec<u64>,
    /// One-line explanation of what the oracles saw.
    pub detail: String,
}

impl fmt::Display for LintDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            LintSeverity::Error => "error",
            LintSeverity::Warning => "warning",
        };
        write!(
            f,
            "{sev}[{rule}] `{function}`: ({trigger}, {dir}) {action} on branch {target} @ {pc:#x} — {detail}",
            rule = self.rule.name(),
            function = self.function,
            trigger = self.trigger,
            dir = if self.dir { "taken" } else { "not-taken" },
            action = self.action,
            target = self.target,
            pc = self.target_pc,
            detail = self.detail,
        )?;
        if !self.witness.is_empty() {
            write!(f, "\n  witness:")?;
            for pc in &self.witness {
                write!(f, " {pc:#x}")?;
            }
        }
        Ok(())
    }
}

/// Every finding over a program, ranked most-severe first.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintReport {
    /// Findings, sorted by (severity, function, trigger, direction, target).
    pub diagnostics: Vec<LintDiagnostic>,
}

impl LintReport {
    /// The error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &LintDiagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == LintSeverity::Error)
    }

    /// The warning-severity findings.
    pub fn warnings(&self) -> impl Iterator<Item = &LintDiagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == LintSeverity::Warning)
    }

    /// Number of errors.
    pub fn error_count(&self) -> usize {
        self.errors().count()
    }

    /// Number of warnings.
    pub fn warning_count(&self) -> usize {
        self.warnings().count()
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        write!(
            f,
            "lint: {} error(s), {} warning(s)",
            self.error_count(),
            self.warning_count()
        )
    }
}

/// Audits one function's tables against its interval analysis, with the
/// feasibility-pruned `view` as its oracle (`PrunedFunction::default()`
/// for the stock world): anchors are discovered on the pruned graph (so
/// actions only the pruned facts justify still re-prove), and a trigger
/// edge the view pruned is treated exactly like a statically infeasible
/// one. Witness paths always respect the interval feasibility oracle —
/// they never traverse a proved-dead edge, in any mode. Findings come back
/// in (severity, trigger, direction, target) order.
#[allow(clippy::too_many_arguments)]
pub fn lint_function(
    program: &Program,
    func: &Function,
    alias: &AliasAnalysis,
    summaries: &Summaries,
    intervals: &IntervalAnalysis,
    tables: &FunctionAnalysis,
    view: &PrunedFunction,
) -> Vec<LintDiagnostic> {
    let anchors = find_anchors(program, func, alias, summaries, view);
    let oracle = DirectionOracle {
        anchors: &anchors,
        intervals,
    };
    let mut out = Vec::new();
    for (&(trigger, dir), entries) in &tables.bat {
        let trigger_info = &tables.branches[trigger as usize];
        let feasible = intervals.edge_feasible(trigger_info.block, dir)
            && view.edge_live(trigger_info.block, dir);
        for e in entries {
            let target_info = &tables.branches[e.target as usize];
            let diag = |rule, severity, detail| LintDiagnostic {
                severity,
                rule,
                func: func.id,
                function: func.name.clone(),
                trigger,
                trigger_pc: trigger_info.pc,
                dir,
                target: e.target,
                target_pc: target_info.pc,
                action: e.action,
                witness: witness_path(func, intervals, trigger_info.block, dir, target_info.block),
                detail,
            };
            if !feasible {
                out.push(diag(
                    LintRule::DeadTrigger,
                    LintSeverity::Warning,
                    "trigger direction is statically infeasible; the entry can never fire"
                        .to_string(),
                ));
                continue;
            }
            let d = match e.action {
                BrAction::SetTaken => true,
                BrAction::SetNotTaken => false,
                _ => continue,
            };
            let provable = oracle.provable(trigger_info.block, dir, target_info.block);
            if provable.contains(&d) {
                continue;
            }
            if provable.contains(&!d) {
                out.push(diag(
                    LintRule::ContradictedAction,
                    LintSeverity::Error,
                    format!(
                        "oracles prove {}, tables claim {}",
                        BrAction::set_dir(!d),
                        e.action
                    ),
                ));
            } else {
                out.push(diag(
                    LintRule::UnprovableAction,
                    LintSeverity::Error,
                    "no anchor pair or interval fact justifies this direction".to_string(),
                ));
            }
        }
    }
    out.sort_by(|a, b| {
        (a.severity, a.trigger, a.dir, a.target).cmp(&(b.severity, b.trigger, b.dir, b.target))
    });
    out
}

/// Audits every function, in `FuncId` order, with the feasibility-pruned
/// `view` as the oracle ([`PrunedCfg::full`] for the stock world).
pub fn lint_program(
    program: &Program,
    alias: &AliasAnalysis,
    summaries: &Summaries,
    intervals: &[IntervalAnalysis],
    analysis: &ProgramAnalysis,
    view: &PrunedCfg,
) -> LintReport {
    let mut diagnostics: Vec<LintDiagnostic> = program
        .functions
        .iter()
        .zip(intervals)
        .zip(&analysis.functions)
        .flat_map(|((func, intervals), tables)| {
            lint_function(
                program,
                func,
                alias,
                summaries,
                intervals,
                tables,
                view.function(func.id),
            )
        })
        .collect();
    diagnostics.sort_by(|a, b| {
        (a.severity, a.func, a.trigger, a.dir, a.target)
            .cmp(&(b.severity, b.func, b.trigger, b.dir, b.target))
    });
    LintReport { diagnostics }
}

/// Terminator PCs of a shortest *feasible* CFG path entry → `trigger`,
/// continued from the `dir` successor of the trigger branch to `target`
/// when reachable. The search never traverses an interval-proved
/// infeasible branch edge — a witness is supposed to describe an execution
/// benign traffic can actually perform, and proved-dead edges cannot occur
/// on one. When the trigger itself sits behind dead edges only, the
/// witness degenerates to the trigger alone; when the trigger edge is
/// dead, the witness ends at the trigger.
fn witness_path(
    func: &Function,
    intervals: &IntervalAnalysis,
    trigger: BlockId,
    dir: bool,
    target: BlockId,
) -> Vec<u64> {
    let pcs = terminator_pcs(func);
    let mut witness: Vec<u64> = shortest_path(func, intervals, func.entry, trigger)
        .unwrap_or_else(|| vec![trigger])
        .iter()
        .map(|b| pcs[b.index()])
        .collect();
    if !intervals.edge_feasible(trigger, dir) {
        return witness;
    }
    if let Terminator::Branch {
        taken, not_taken, ..
    } = &func.block(trigger).term
    {
        let succ = if dir { *taken } else { *not_taken };
        if let Some(tail) = shortest_path(func, intervals, succ, target) {
            witness.extend(tail.iter().map(|b| pcs[b.index()]));
        }
    }
    witness
}

/// Every block's terminator PC, indexed by block id (one linear walk,
/// matching [`Function::terminator_pc`]).
fn terminator_pcs(func: &Function) -> Vec<u64> {
    let mut pcs = Vec::with_capacity(func.blocks.len());
    let mut idx = 0u64;
    for block in &func.blocks {
        pcs.push(func.pc_base + 4 * (idx + block.insts.len() as u64));
        idx += block.insts.len() as u64 + 1;
    }
    pcs
}

/// BFS shortest path `from` → `to` (inclusive) over **feasible** edges
/// only, successors visited in (taken, not-taken) order for determinism.
fn shortest_path(
    func: &Function,
    intervals: &IntervalAnalysis,
    from: BlockId,
    to: BlockId,
) -> Option<Vec<BlockId>> {
    let mut prev: BTreeMap<u32, u32> = BTreeMap::new();
    let mut queue = VecDeque::new();
    queue.push_back(from);
    prev.insert(from.0, from.0);
    while let Some(b) = queue.pop_front() {
        if b == to {
            let mut path = vec![b];
            let mut cur = b.0;
            while cur != from.0 {
                cur = prev[&cur];
                path.push(BlockId(cur));
            }
            path.reverse();
            return Some(path);
        }
        let succs: Vec<BlockId> = match &func.block(b).term {
            Terminator::Jump(t) => vec![*t],
            Terminator::Branch {
                taken, not_taken, ..
            } => [(*taken, true), (*not_taken, false)]
                .into_iter()
                .filter(|&(_, d)| intervals.edge_feasible(b, d))
                .map(|(s, _)| s)
                .collect(),
            Terminator::Return(_) => Vec::new(),
        };
        for succ in succs {
            prev.entry(succ.0).or_insert_with(|| {
                queue.push_back(succ);
                b.0
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{analyze_program, AnalysisConfig};
    use crate::tables::BatEntry;
    use ipds_dataflow::Facts;

    fn setup(src: &str) -> (Program, AliasAnalysis, Summaries, ProgramAnalysis) {
        let program = ipds_ir::parse(src).unwrap();
        let Facts { alias, summaries } = Facts::compute(&program);
        let analysis = analyze_program(&program, &AnalysisConfig::default());
        (program, alias, summaries, analysis)
    }

    /// Intervals plus the audit, both over the identity view.
    fn lint(
        program: &Program,
        alias: &AliasAnalysis,
        summaries: &Summaries,
        analysis: &ProgramAnalysis,
    ) -> LintReport {
        let full = PrunedCfg::full(program);
        let intervals = ipds_absint::analyze_program(program, alias, summaries, &full);
        lint_program(program, alias, summaries, &intervals, analysis, &full)
    }

    const CORRELATED: &str = "int mode; \
        fn main() -> int { int x; x = read_int(); mode = x; \
        if (mode < 5) { print_int(1); } \
        if (mode < 5) { print_int(2); } \
        return 0; }";

    #[test]
    fn stock_tables_lint_clean() {
        let (program, alias, summaries, analysis) = setup(CORRELATED);
        let report = lint(&program, &alias, &summaries, &analysis);
        assert_eq!(report.error_count(), 0, "{report}");
    }

    #[test]
    fn forged_action_is_reported_with_witness() {
        let (program, alias, summaries, mut analysis) = setup(
            "int a; int b; \
             fn main() -> int { \
             a = read_int(); b = read_int(); \
             if (a < 3) { print_int(1); } \
             if (b < 7) { print_int(2); } \
             if (b < 7) { print_int(3); } \
             return 0; }",
        );
        // The `a < 3` guard says nothing about `b`; claiming it does is
        // exactly the class of emitter bug the auditor exists to catch.
        let tables = &mut analysis.functions[0];
        tables.bat.entry((0, true)).or_default().push(BatEntry {
            target: 1,
            action: BrAction::SetTaken,
        });
        let report = lint(&program, &alias, &summaries, &analysis);
        assert_eq!(report.error_count(), 1, "{report}");
        let d = report.errors().next().unwrap();
        assert_eq!(d.rule, LintRule::UnprovableAction);
        assert_eq!(d.function, "main");
        assert!(!d.witness.is_empty(), "diagnostic must carry a path");
        assert_eq!(d.trigger_pc, analysis.functions[0].branches[0].pc);
    }

    #[test]
    fn contradicted_action_is_distinguished() {
        let (program, alias, summaries, mut analysis) = setup(CORRELATED);
        // Flip a provable direction: the oracles prove the opposite.
        let tables = &mut analysis.functions[0];
        let row = tables
            .bat
            .values_mut()
            .find(|row| {
                row.iter()
                    .any(|e| matches!(e.action, BrAction::SetTaken | BrAction::SetNotTaken))
            })
            .expect("stock tables have directional entries");
        let e = row
            .iter_mut()
            .find(|e| matches!(e.action, BrAction::SetTaken | BrAction::SetNotTaken))
            .unwrap();
        e.action = match e.action {
            BrAction::SetTaken => BrAction::SetNotTaken,
            _ => BrAction::SetTaken,
        };
        let report = lint(&program, &alias, &summaries, &analysis);
        assert!(
            report
                .errors()
                .any(|d| d.rule == LintRule::ContradictedAction),
            "{report}"
        );
    }

    #[test]
    fn dead_trigger_is_a_warning_not_an_error() {
        // `mode` is pinned to 1, so `mode > 5` can never be taken; its
        // taken-direction row (fed by the scenario-2 pair) never fires.
        let (program, alias, summaries, analysis) = setup(
            "int mode; \
             fn main() -> int { mode = 1; \
             if (mode > 5) { print_int(1); } \
             if (mode > 5) { print_int(2); } \
             return 0; }",
        );
        let report = lint(&program, &alias, &summaries, &analysis);
        assert_eq!(report.error_count(), 0, "{report}");
        assert!(
            report.warnings().any(|d| d.rule == LintRule::DeadTrigger),
            "{report}"
        );
    }

    #[test]
    fn witness_never_traverses_infeasible_edges() {
        // The target branch is only reachable through the (mode > 5) taken
        // edge, which the intervals prove dead (`mode` is pinned to 1). A
        // witness that routed through it would describe an execution benign
        // traffic cannot perform — the search must stop at the trigger.
        let (program, alias, summaries, mut analysis) = setup(
            "int mode; \
             fn main() -> int { int x; int y; mode = 1; x = read_int(); y = read_int(); \
             if (x < 5) { if (mode > 5) { if (y < 7) { print_int(1); } } } \
             return 0; }",
        );
        let tables = &mut analysis.functions[0];
        assert_eq!(tables.branches.len(), 3);
        // Forge an unprovable action from the x-guard onto the y-branch.
        tables.bat.entry((0, true)).or_default().push(BatEntry {
            target: 2,
            action: BrAction::SetTaken,
        });
        let report = lint(&program, &alias, &summaries, &analysis);
        let d = report
            .errors()
            .find(|d| d.rule == LintRule::UnprovableAction)
            .expect("forged action must be unprovable");
        assert!(d.witness.contains(&d.trigger_pc), "{:?}", d.witness);
        assert!(
            !d.witness.contains(&d.target_pc),
            "witness {:?} reaches the target only through a proved-dead edge",
            d.witness
        );
    }
}
