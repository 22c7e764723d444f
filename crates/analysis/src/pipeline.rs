//! The compiler pass pipeline.
//!
//! Compilation is an ordered sequence of named [`Pass`]es over a
//! [`CompilationSession`]: **parse → lower → verify-ir → opt → alias →
//! summaries → intervals → prune-cfg → analyze-functions →
//! refine-correlations → image → verify-tables → lint-tables** (the
//! interval, prune, refine and lint passes are opt-in; see
//! [`BuildOptions`]). Each pass reads the session products
//! earlier passes deposited and adds its own; the [`PassManager`] runs them
//! in order, records a wall-clock [`PassSpan`] per pass, and stops at the
//! first typed [`PipelineError`].
//!
//! The `analyze-functions` pass is where the paper's per-function work
//! (correlate → perfect hash → encode) lives. Like every per-function pass
//! it is a plain loop in `FuncId` order, so a build is deterministic: the
//! pipeline tests build every workload twice and compare image bytes.
//!
//! Every analysis pass reads the session's one set of facts and its CFG
//! view ([`CompilationSession::view`]). The view starts as the identity;
//! when `prune-cfg` runs it replaces the view, the alias facts, the
//! summaries and the intervals in place, and the later passes run
//! unchanged over the pruned world.
//!
//! Each pass also feeds the session's [`MetricsRegistry`] (branches seen,
//! correlations emitted, hash retries, image bytes, loads forwarded), which
//! the bench layer surfaces per workload.
//!
//! The plain one-call drivers remain ([`crate::analyze_program`],
//! `ipds_ir::parse`); this layer is for callers that want staged products,
//! timings or table verification: [`build_source`] and
//! [`build_program`] are the two entry points, and [`PassManager::standard`]
//! is the canonical pass order they run.

use std::error::Error;
use std::fmt;
use std::time::Instant;

use std::collections::BTreeSet;

use ipds_absint::IntervalAnalysis;
use ipds_dataflow::{AliasAnalysis, PrunedCfg, Summaries};
use ipds_ir::ast::Item;
use ipds_ir::opt::OptStats;
use ipds_ir::{BlockId, CompileError, Program};
use ipds_telemetry::MetricsRegistry;

use crate::compile::{
    analyze_functions, AnalysisConfig, AnalysisCounters, FunctionHashError, ProgramAnalysis,
};
use crate::image::TableImage;
use crate::lint::{lint_program, LintReport};
use crate::refine::{refine_function, RefineStats};
use crate::verify_tables::{verify_tables, TableVerifyError};

/// Every `pipeline.*` counter the passes can emit, in pipeline order. This
/// is the canonical list the observability docs mirror and the docs smoke
/// test asserts against; add new counters here and in both docs together.
pub const PIPELINE_COUNTERS: &[&str] = &[
    "pipeline.tokens",
    "pipeline.functions",
    "pipeline.promoted_vars",
    "pipeline.ssa_phis",
    "pipeline.loads_forwarded",
    "pipeline.pruned_edges",
    "pipeline.pruned_blocks",
    "pipeline.prune_rounds",
    "pipeline.branches",
    "pipeline.checked_branches",
    "pipeline.bat_entries",
    "pipeline.hash_retries",
    "pipeline.refine_proved",
    "pipeline.refine_demoted",
    "pipeline.image_bytes",
    "pipeline.lint_errors",
    "pipeline.lint_warnings",
];

/// Cap on feasibility-pruning fixpoint rounds. Two rounds cover the common
/// cascade (prune → sharper facts → prune again); further rounds buy
/// nothing on the stock workloads and a cap keeps build time predictable.
const MAX_PRUNE_ROUNDS: u64 = 2;

/// What to build and how: the knobs `ipdsc build` exposes. The default
/// runs the stock pipeline with every opt-in pass off.
#[derive(Debug, Clone, Default)]
pub struct BuildOptions {
    /// Analysis tuning (the ablation switches).
    pub config: AnalysisConfig,
    /// Register-promotion budget in percent (`0..=100`). When non-zero the
    /// `ssa → mem2reg → deconstruct-ssa` window runs between verify-ir and
    /// the analyses: the top `promote`% of eligible variables (ranked by
    /// access count, deterministically) become register-resident, eroding
    /// the anchor set the correlation analysis can check. `0` skips the
    /// window entirely — the build is byte-identical to a pre-SSA pipeline.
    pub promote: u32,
    /// Run the load-forwarding optimizer between verify-ir and alias.
    pub optimize: bool,
    /// Append the `verify-tables` pass after image emission.
    pub verify: bool,
    /// Run the interval analyzer and the `refine-correlations` pass before
    /// image emission (see [`crate::refine`]).
    pub refine: bool,
    /// Run the `prune-cfg` pass: drop interval-proved infeasible edges from
    /// the discovery CFG and re-run alias classification, summaries, anchor
    /// discovery and correlation discovery over the pruned view (to a
    /// capped fixpoint). The branch inventory, PCs and perfect hashes stay
    /// those of the full function — pruning only sharpens what discovery
    /// may use, it never drops a branch from the tables.
    pub prune_feasibility: bool,
    /// Append the `lint-tables` auditor after everything else (see
    /// [`crate::lint`]). Findings land in [`BuildOutput::lint`]; the build
    /// itself still succeeds — callers decide what a `LintError` costs.
    pub lint: bool,
}

/// Wall-clock record of one executed pass.
#[derive(Debug, Clone, PartialEq)]
pub struct PassSpan {
    /// The pass's name (as shown by `--timings` and the bench JSON).
    pub name: &'static str,
    /// Elapsed seconds.
    pub seconds: f64,
}

/// Mutable state threaded through the passes: the source and every staged
/// product, plus metrics and per-pass timings.
///
/// Products are `Option`s deposited in pipeline order; a pass that finds its
/// input missing fails with [`PipelineError::MissingStage`] instead of
/// panicking, so custom pass orders are diagnosable.
#[derive(Debug, Default)]
pub struct CompilationSession {
    /// MiniC source text (input to `parse`).
    pub source: Option<String>,
    /// Parsed AST items (`parse` output, `lower` input).
    pub items: Option<Vec<Item>>,
    /// The IR program (`lower` output; every later pass reads it).
    pub program: Option<Program>,
    /// SSA bookkeeping (`ssa` output; consumed by `mem2reg` and
    /// `deconstruct-ssa`, present only while the window is enabled).
    pub ssa: Option<ipds_ir::SsaForm>,
    /// Optimizer statistics (`opt` output, when the pass runs).
    pub opt_stats: Option<OptStats>,
    /// The CFG view every analysis runs over. It starts as the identity
    /// view; `prune-cfg` replaces it with the interval-proved dead edges
    /// (and the blocks they orphan). The branch inventory downstream
    /// encoding works from is never pruned.
    pub view: PrunedCfg,
    /// Whole-program points-to facts over [`view`](Self::view) (`alias`
    /// output, replaced by `prune-cfg`).
    pub alias: Option<AliasAnalysis>,
    /// Callee side-effect summaries over the view (`summaries` output,
    /// replaced by `prune-cfg`).
    pub summaries: Option<Summaries>,
    /// Per-function interval analyses in `FuncId` order (`intervals`
    /// output, present when refine, lint or prune runs; replaced by
    /// `prune-cfg`).
    pub intervals: Option<Vec<IntervalAnalysis>>,
    /// Per-function tables (`analyze-functions` output).
    pub analysis: Option<ProgramAnalysis>,
    /// Work counters summed over all functions.
    pub counters: AnalysisCounters,
    /// What the `refine-correlations` pass changed (zero when it did not
    /// run).
    pub refine_stats: RefineStats,
    /// The table audit (`lint-tables` output, when the pass runs).
    pub lint: Option<LintReport>,
    /// The serialized table image (`image` output).
    pub image: Option<TableImage>,
    /// Build knobs the passes consult.
    pub options: BuildOptions,
    /// Pass-scoped counters (pipeline.* keys).
    pub metrics: MetricsRegistry,
    /// Wall-clock span per executed pass, in execution order.
    pub timings: Vec<PassSpan>,
}

impl CompilationSession {
    /// A session starting from source text.
    pub fn from_source(source: impl Into<String>, options: BuildOptions) -> CompilationSession {
        CompilationSession {
            source: Some(source.into()),
            options,
            ..CompilationSession::default()
        }
    }

    /// A session starting from an already-parsed (or hand-built) IR
    /// program; the front-end passes are skipped.
    pub fn from_program(program: Program, options: BuildOptions) -> CompilationSession {
        CompilationSession {
            program: Some(program),
            options,
            ..CompilationSession::default()
        }
    }

    fn need_program(&self, pass: &'static str) -> Result<&Program, PipelineError> {
        self.program.as_ref().ok_or(PipelineError::MissingStage {
            pass,
            needs: "program",
        })
    }
}

/// A typed pipeline failure: which stage broke and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The front end rejected the source (parse/lower/verify-ir).
    Compile(CompileError),
    /// A function's perfect-hash search failed (analyze-functions).
    Hash(FunctionHashError),
    /// The emitted tables failed cross-checking (verify-tables).
    Verify(TableVerifyError),
    /// A pass ran before the pass that produces its input — a pipeline
    /// ordering bug, reported instead of panicking.
    MissingStage {
        /// The pass that could not run.
        pass: &'static str,
        /// The session product it needed.
        needs: &'static str,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Compile(e) => write!(f, "{e}"),
            PipelineError::Hash(e) => write!(f, "{e}"),
            PipelineError::Verify(e) => write!(f, "{e}"),
            PipelineError::MissingStage { pass, needs } => {
                write!(
                    f,
                    "pass `{pass}` ran without `{needs}` (pipeline ordering bug)"
                )
            }
        }
    }
}

impl Error for PipelineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PipelineError::Compile(e) => Some(e),
            PipelineError::Hash(e) => Some(e),
            PipelineError::Verify(e) => Some(e),
            PipelineError::MissingStage { .. } => None,
        }
    }
}

impl From<CompileError> for PipelineError {
    fn from(e: CompileError) -> Self {
        PipelineError::Compile(e)
    }
}

impl From<FunctionHashError> for PipelineError {
    fn from(e: FunctionHashError) -> Self {
        PipelineError::Hash(e)
    }
}

impl From<TableVerifyError> for PipelineError {
    fn from(e: TableVerifyError) -> Self {
        PipelineError::Verify(e)
    }
}

/// One named compilation stage.
pub trait Pass {
    /// The pass's stable name (timings, `--timings` output, bench JSON).
    fn name(&self) -> &'static str;
    /// Runs the pass over the session.
    ///
    /// # Errors
    ///
    /// A [`PipelineError`] if the stage's input is missing or its work fails.
    fn run(&self, session: &mut CompilationSession) -> Result<(), PipelineError>;
}

/// An ordered list of passes plus the machinery to run them.
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
}

impl PassManager {
    /// An empty manager (compose with [`with_pass`](PassManager::with_pass)).
    pub fn new() -> PassManager {
        PassManager::default()
    }

    /// Appends a pass.
    pub fn with_pass(mut self, pass: impl Pass + 'static) -> PassManager {
        self.passes.push(Box::new(pass));
        self
    }

    /// The canonical pipeline for `options`: parse → lower → verify-ir →
    /// \[ssa → mem2reg → deconstruct-ssa\] → \[opt\] → alias → summaries →
    /// \[intervals\] → \[prune-cfg\] → analyze-functions →
    /// \[refine-correlations\] → image → \[verify-tables\] →
    /// \[lint-tables\], with the bracketed passes present when the
    /// corresponding option is set (the SSA window when `promote > 0`;
    /// `intervals` runs whenever refine, lint or prune needs it; `prune-cfg`
    /// when `prune_feasibility` is set). When `from_source` is false the
    /// front-end passes (parse/lower) are omitted — the session must start
    /// with a program.
    pub fn standard(options: &BuildOptions, from_source: bool) -> PassManager {
        let mut pm = PassManager::new();
        if from_source {
            pm = pm.with_pass(ParsePass).with_pass(LowerPass);
        }
        pm = pm.with_pass(VerifyIrPass);
        if options.promote > 0 {
            pm = pm
                .with_pass(SsaPass)
                .with_pass(Mem2RegPass)
                .with_pass(DeconstructSsaPass);
        }
        if options.optimize {
            pm = pm.with_pass(OptPass);
        }
        pm = pm.with_pass(AliasPass).with_pass(SummariesPass);
        if options.refine || options.lint || options.prune_feasibility {
            pm = pm.with_pass(IntervalsPass);
        }
        if options.prune_feasibility {
            pm = pm.with_pass(PruneCfgPass);
        }
        pm = pm.with_pass(AnalyzeFunctionsPass);
        if options.refine {
            pm = pm.with_pass(RefineCorrelationsPass);
        }
        pm = pm.with_pass(ImagePass);
        if options.verify {
            pm = pm.with_pass(VerifyTablesPass);
        }
        if options.lint {
            pm = pm.with_pass(LintTablesPass);
        }
        pm
    }

    /// The pass names, in execution order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Runs every pass in order, timing each into `session.timings`. Stops
    /// at (and returns) the first failure.
    ///
    /// # Errors
    ///
    /// The first [`PipelineError`] any pass reports.
    pub fn run(&self, session: &mut CompilationSession) -> Result<(), PipelineError> {
        for pass in &self.passes {
            let start = Instant::now();
            let result = pass.run(session);
            session.timings.push(PassSpan {
                name: pass.name(),
                seconds: start.elapsed().as_secs_f64(),
            });
            result?;
        }
        Ok(())
    }
}

/// Lex + parse the source into AST items.
pub struct ParsePass;

impl Pass for ParsePass {
    fn name(&self) -> &'static str {
        "parse"
    }

    fn run(&self, session: &mut CompilationSession) -> Result<(), PipelineError> {
        let source = session.source.as_ref().ok_or(PipelineError::MissingStage {
            pass: "parse",
            needs: "source",
        })?;
        let tokens = ipds_ir::lexer::lex(source).map_err(CompileError::Parse)?;
        let items = ipds_ir::parser::parse_items(&tokens).map_err(CompileError::Parse)?;
        session.metrics.add("pipeline.tokens", tokens.len() as u64);
        session.items = Some(items);
        Ok(())
    }
}

/// Lower AST items to the CFG IR.
pub struct LowerPass;

impl Pass for LowerPass {
    fn name(&self) -> &'static str {
        "lower"
    }

    fn run(&self, session: &mut CompilationSession) -> Result<(), PipelineError> {
        let items = session.items.as_ref().ok_or(PipelineError::MissingStage {
            pass: "lower",
            needs: "items",
        })?;
        let program = ipds_ir::lower::lower(items)?;
        session
            .metrics
            .add("pipeline.functions", program.functions.len() as u64);
        session.program = Some(program);
        Ok(())
    }
}

/// Check the IR's structural invariants (single static definitions,
/// in-range successors, callee arities).
pub struct VerifyIrPass;

impl Pass for VerifyIrPass {
    fn name(&self) -> &'static str {
        "verify-ir"
    }

    fn run(&self, session: &mut CompilationSession) -> Result<(), PipelineError> {
        let program = session.need_program("verify-ir")?;
        ipds_ir::verify::verify_program(program)
            .map_err(|e| PipelineError::Compile(CompileError::Verify(e)))?;
        Ok(())
    }
}

/// SSA construction over the promotion set (the `promote` knob): loads and
/// stores of selected variables become register def–use chains, with phis
/// at the joins. First pass of the `ssa → mem2reg → deconstruct-ssa`
/// window.
pub struct SsaPass;

impl Pass for SsaPass {
    fn name(&self) -> &'static str {
        "ssa"
    }

    fn run(&self, session: &mut CompilationSession) -> Result<(), PipelineError> {
        let promote = session.options.promote;
        let program = session
            .program
            .as_mut()
            .ok_or(PipelineError::MissingStage {
                pass: "ssa",
                needs: "program",
            })?;
        let form = ipds_ir::build_ssa(program, promote);
        session.metrics.add("pipeline.ssa_phis", form.phis);
        session.ssa = Some(form);
        Ok(())
    }
}

/// Register promotion proper: marks the SSA-rewritten variables
/// [`ipds_ir::VarKind::Promoted`] — from here on the alias analysis treats
/// them as register-like (no unique-alias class, no anchors, no BSV entry)
/// — and checks the SSA invariants ([`ipds_ir::verify_ssa`]).
pub struct Mem2RegPass;

impl Pass for Mem2RegPass {
    fn name(&self) -> &'static str {
        "mem2reg"
    }

    fn run(&self, session: &mut CompilationSession) -> Result<(), PipelineError> {
        let form = session.ssa.take().ok_or(PipelineError::MissingStage {
            pass: "mem2reg",
            needs: "ssa",
        })?;
        let program = session
            .program
            .as_mut()
            .ok_or(PipelineError::MissingStage {
                pass: "mem2reg",
                needs: "program",
            })?;
        ipds_ir::mark_promoted(program, &form);
        ipds_ir::verify_ssa(program)
            .map_err(|e| PipelineError::Compile(CompileError::Verify(e)))?;
        session.metrics.add("pipeline.promoted_vars", form.promoted);
        session.ssa = Some(form);
        Ok(())
    }
}

/// Closes the SSA window: each surviving phi is lowered back to a spill
/// through its source variable's stack slot, restoring the no-phi,
/// single-static-definition form every downstream analysis assumes (and
/// re-checking it with the structural verifier).
pub struct DeconstructSsaPass;

impl Pass for DeconstructSsaPass {
    fn name(&self) -> &'static str {
        "deconstruct-ssa"
    }

    fn run(&self, session: &mut CompilationSession) -> Result<(), PipelineError> {
        let form = session.ssa.take().ok_or(PipelineError::MissingStage {
            pass: "deconstruct-ssa",
            needs: "ssa",
        })?;
        let program = session
            .program
            .as_mut()
            .ok_or(PipelineError::MissingStage {
                pass: "deconstruct-ssa",
                needs: "program",
            })?;
        ipds_ir::deconstruct_ssa(program, &form);
        ipds_ir::verify::verify_program(program)
            .map_err(|e| PipelineError::Compile(CompileError::Verify(e)))?;
        Ok(())
    }
}

/// Block-local load forwarding (the `optimize` knob).
pub struct OptPass;

impl Pass for OptPass {
    fn name(&self) -> &'static str {
        "opt"
    }

    fn run(&self, session: &mut CompilationSession) -> Result<(), PipelineError> {
        let program = session
            .program
            .as_mut()
            .ok_or(PipelineError::MissingStage {
                pass: "opt",
                needs: "program",
            })?;
        let stats = ipds_ir::opt::forward_loads(program);
        session
            .metrics
            .add("pipeline.loads_forwarded", stats.loads_removed as u64);
        session.opt_stats = Some(stats);
        Ok(())
    }
}

/// Whole-program Andersen-style points-to analysis.
pub struct AliasPass;

impl Pass for AliasPass {
    fn name(&self) -> &'static str {
        "alias"
    }

    fn run(&self, session: &mut CompilationSession) -> Result<(), PipelineError> {
        let program = session.need_program("alias")?;
        session.alias = Some(AliasAnalysis::analyze(program, &session.view));
        Ok(())
    }
}

/// Callee side-effect summaries over the alias facts.
pub struct SummariesPass;

impl Pass for SummariesPass {
    fn name(&self) -> &'static str {
        "summaries"
    }

    fn run(&self, session: &mut CompilationSession) -> Result<(), PipelineError> {
        let program = session.need_program("summaries")?;
        let alias = session.alias.as_ref().ok_or(PipelineError::MissingStage {
            pass: "summaries",
            needs: "alias",
        })?;
        session.summaries = Some(Summaries::compute(program, alias, &session.view));
        Ok(())
    }
}

/// Per-function interval abstract interpretation (the feasibility oracle
/// the refine and lint passes consume), in function-id order.
pub struct IntervalsPass;

impl Pass for IntervalsPass {
    fn name(&self) -> &'static str {
        "intervals"
    }

    fn run(&self, session: &mut CompilationSession) -> Result<(), PipelineError> {
        let program = session.need_program("intervals")?;
        let (alias, summaries) = need_facts(session, "intervals")?;
        let intervals = ipds_absint::analyze_program(program, alias, summaries, &session.view);
        session.intervals = Some(intervals);
        Ok(())
    }
}

/// The feasibility-aware analysis loop: collects interval-proved dead
/// edges into a [`PrunedCfg`] view, recomputes alias facts, summaries,
/// anchors and intervals over the pruned graph, and repeats while the
/// sharper facts expose new dead edges (capped at `MAX_PRUNE_ROUNDS`
/// rounds). Each round replaces the session's view and its alias,
/// summaries and intervals in place, so every later pass reads the pruned
/// world through the same fields an unpruned build uses. When nothing is
/// provably dead the session is left untouched.
pub struct PruneCfgPass;

impl PruneCfgPass {
    /// Folds every infeasible conditional-branch edge of `intervals` into
    /// `dead`; true when a new edge was added.
    fn collect_dead(
        program: &Program,
        intervals: &[IntervalAnalysis],
        dead: &mut [BTreeSet<(BlockId, bool)>],
    ) -> bool {
        let mut grew = false;
        for func in &program.functions {
            for (bid, block) in func.iter_blocks() {
                if !block.term.is_branch() {
                    continue;
                }
                for dir in [true, false] {
                    if !intervals[func.id.0 as usize].edge_feasible(bid, dir)
                        && dead[func.id.0 as usize].insert((bid, dir))
                    {
                        grew = true;
                    }
                }
            }
        }
        grew
    }
}

impl Pass for PruneCfgPass {
    fn name(&self) -> &'static str {
        "prune-cfg"
    }

    fn run(&self, session: &mut CompilationSession) -> Result<(), PipelineError> {
        // A field borrow, so the loop below can replace the facts beside it.
        let program = session
            .program
            .as_ref()
            .ok_or(PipelineError::MissingStage {
                pass: "prune-cfg",
                needs: "program",
            })?;
        need_facts(session, "prune-cfg")?;

        // The dead-edge set only ever grows across rounds: an edge proved
        // infeasible against the stock facts stays pruned even if a later
        // (sharper) round no longer mentions it, so the loop is monotone
        // and trivially terminates at the cap.
        let mut dead: Vec<BTreeSet<(BlockId, bool)>> =
            vec![BTreeSet::new(); program.functions.len()];
        let mut rounds = 0u64;
        while rounds < MAX_PRUNE_ROUNDS {
            let intervals = need_intervals(session, "prune-cfg")?;
            if !Self::collect_dead(program, intervals, &mut dead) {
                break;
            }
            rounds += 1;
            let view = PrunedCfg::from_oracle(program, |fid, b, dir| {
                dead[fid.0 as usize].contains(&(b, dir))
            });
            let alias = AliasAnalysis::analyze(program, &view);
            let summaries = Summaries::compute(program, &alias, &view);
            let intervals = ipds_absint::analyze_program(program, &alias, &summaries, &view);
            session.view = view;
            session.alias = Some(alias);
            session.summaries = Some(summaries);
            session.intervals = Some(intervals);
        }
        session
            .metrics
            .add("pipeline.pruned_edges", session.view.pruned_edges());
        session
            .metrics
            .add("pipeline.pruned_blocks", session.view.pruned_blocks());
        session.metrics.add("pipeline.prune_rounds", rounds);
        Ok(())
    }
}

/// Folds interval facts back into the tables: promotes interval-proved
/// directions, demotes directional actions no oracle re-proves (see
/// [`crate::refine`]). Refines each function's tables in place.
pub struct RefineCorrelationsPass;

impl Pass for RefineCorrelationsPass {
    fn name(&self) -> &'static str {
        "refine-correlations"
    }

    fn run(&self, session: &mut CompilationSession) -> Result<(), PipelineError> {
        let mut analysis = session.analysis.take().ok_or(PipelineError::MissingStage {
            pass: "refine-correlations",
            needs: "analysis",
        })?;
        let program = session.need_program("refine-correlations")?;
        let (alias, summaries) = need_facts(session, "refine-correlations")?;
        let intervals = need_intervals(session, "refine-correlations")?;
        let mut stats = RefineStats::default();
        for (tables, intervals) in analysis.functions.iter_mut().zip(intervals) {
            let func = &program.functions[tables.func.0 as usize];
            stats.merge(refine_function(
                program,
                func,
                alias,
                summaries,
                intervals,
                tables,
                session.view.function(func.id),
            ));
        }
        session.metrics.add("pipeline.refine_proved", stats.proved);
        session
            .metrics
            .add("pipeline.refine_demoted", stats.demoted);
        session.refine_stats = stats;
        session.analysis = Some(analysis);
        Ok(())
    }
}

/// Audits every emitted BAT action against the interval oracle and the
/// anchor pairs (see [`crate::lint`]). Read-only: findings go to
/// [`CompilationSession::lint`]; deciding what an error costs is the
/// caller's job.
pub struct LintTablesPass;

impl Pass for LintTablesPass {
    fn name(&self) -> &'static str {
        "lint-tables"
    }

    fn run(&self, session: &mut CompilationSession) -> Result<(), PipelineError> {
        let program = session.need_program("lint-tables")?;
        let (alias, summaries) = need_facts(session, "lint-tables")?;
        let intervals = need_intervals(session, "lint-tables")?;
        let analysis = session
            .analysis
            .as_ref()
            .ok_or(PipelineError::MissingStage {
                pass: "lint-tables",
                needs: "analysis",
            })?;
        // Under pruning the auditor's oracle is the pruned graph: witness
        // paths may not traverse a proved-dead edge, and actions the
        // pruned-fact intervals justify are accepted.
        let report = lint_program(
            program,
            alias,
            summaries,
            intervals,
            analysis,
            &session.view,
        );
        session
            .metrics
            .add("pipeline.lint_errors", report.error_count() as u64);
        session
            .metrics
            .add("pipeline.lint_warnings", report.warning_count() as u64);
        session.lint = Some(report);
        Ok(())
    }
}

/// The per-function intervals, or the pass's `MissingStage` error.
fn need_intervals<'a>(
    session: &'a CompilationSession,
    pass: &'static str,
) -> Result<&'a [IntervalAnalysis], PipelineError> {
    session
        .intervals
        .as_deref()
        .ok_or(PipelineError::MissingStage {
            pass,
            needs: "intervals",
        })
}

/// Both whole-program fact products, or the pass's `MissingStage` error.
fn need_facts<'a>(
    session: &'a CompilationSession,
    pass: &'static str,
) -> Result<(&'a AliasAnalysis, &'a Summaries), PipelineError> {
    match (&session.alias, &session.summaries) {
        (Some(a), Some(s)) => Ok((a, s)),
        (None, _) => Err(PipelineError::MissingStage {
            pass,
            needs: "alias",
        }),
        (_, None) => Err(PipelineError::MissingStage {
            pass,
            needs: "summaries",
        }),
    }
}

/// Per-function correlate → perfect-hash → encode, in function-id order
/// (see [`analyze_functions`]).
pub struct AnalyzeFunctionsPass;

impl Pass for AnalyzeFunctionsPass {
    fn name(&self) -> &'static str {
        "analyze-functions"
    }

    fn run(&self, session: &mut CompilationSession) -> Result<(), PipelineError> {
        let program = session.need_program("analyze-functions")?;
        let (alias, summaries) = need_facts(session, "analyze-functions")?;
        let (analysis, counters) = analyze_functions(
            program,
            alias,
            summaries,
            &session.options.config,
            &session.view,
        )?;
        session.metrics.add("pipeline.branches", counters.branches);
        session
            .metrics
            .add("pipeline.checked_branches", counters.checked);
        session
            .metrics
            .add("pipeline.bat_entries", counters.bat_entries);
        session
            .metrics
            .add("pipeline.hash_retries", counters.hash_retries);
        session.counters = counters;
        session.analysis = Some(analysis);
        Ok(())
    }
}

/// Serialize the analysis into the attachable table image.
pub struct ImagePass;

impl Pass for ImagePass {
    fn name(&self) -> &'static str {
        "image"
    }

    fn run(&self, session: &mut CompilationSession) -> Result<(), PipelineError> {
        let analysis = session
            .analysis
            .as_ref()
            .ok_or(PipelineError::MissingStage {
                pass: "image",
                needs: "analysis",
            })?;
        let image = TableImage::build(analysis);
        session
            .metrics
            .add("pipeline.image_bytes", image.len() as u64);
        session.image = Some(image);
        Ok(())
    }
}

/// Cross-check the emitted tables and image against the IR (see
/// [`crate::verify_tables()`]).
pub struct VerifyTablesPass;

impl Pass for VerifyTablesPass {
    fn name(&self) -> &'static str {
        "verify-tables"
    }

    fn run(&self, session: &mut CompilationSession) -> Result<(), PipelineError> {
        let program = session.need_program("verify-tables")?;
        let analysis = session
            .analysis
            .as_ref()
            .ok_or(PipelineError::MissingStage {
                pass: "verify-tables",
                needs: "analysis",
            })?;
        verify_tables(program, analysis)?;
        Ok(())
    }
}

/// Everything a finished build produces.
#[derive(Debug)]
pub struct BuildOutput {
    /// The (possibly optimized) IR program.
    pub program: Program,
    /// Per-function tables.
    pub analysis: ProgramAnalysis,
    /// The serialized table image.
    pub image: TableImage,
    /// Work counters summed over all functions.
    pub counters: AnalysisCounters,
    /// What the `refine-correlations` pass changed (zero when disabled).
    pub refine: RefineStats,
    /// The table audit, when `lint` was requested.
    pub lint: Option<LintReport>,
    /// Per-pass wall-clock spans, in execution order.
    pub timings: Vec<PassSpan>,
    /// Pass-scoped counters (pipeline.* keys).
    pub metrics: MetricsRegistry,
}

/// Compiles MiniC source through the standard pipeline.
///
/// # Errors
///
/// The first [`PipelineError`] any pass reports.
pub fn build_source(source: &str, options: BuildOptions) -> Result<BuildOutput, PipelineError> {
    let manager = PassManager::standard(&options, true);
    let mut session = CompilationSession::from_source(source, options);
    manager.run(&mut session)?;
    finish(session)
}

/// Runs the standard pipeline (minus the front end) over an existing IR
/// program, such as a parsed workload's.
///
/// # Errors
///
/// The first [`PipelineError`] any pass reports.
pub fn build_program(
    program: Program,
    options: BuildOptions,
) -> Result<BuildOutput, PipelineError> {
    let manager = PassManager::standard(&options, false);
    let mut session = CompilationSession::from_program(program, options);
    manager.run(&mut session)?;
    finish(session)
}

fn finish(session: CompilationSession) -> Result<BuildOutput, PipelineError> {
    let CompilationSession {
        program,
        analysis,
        counters,
        refine_stats,
        lint,
        image,
        metrics,
        timings,
        ..
    } = session;
    let missing = |needs| PipelineError::MissingStage {
        pass: "finish",
        needs,
    };
    Ok(BuildOutput {
        program: program.ok_or(missing("program"))?,
        analysis: analysis.ok_or(missing("analysis"))?,
        image: image.ok_or(missing("image"))?,
        counters,
        refine: refine_stats,
        lint,
        timings,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "int mode; \
        fn helper(int v) -> int { if (v < 3) { return 1; } return 0; } \
        fn main() -> int { int x; x = read_int(); mode = x; \
        if (mode < 5) { print_int(1); } \
        if (mode < 5) { print_int(2); } \
        return helper(x); }";

    #[test]
    fn standard_pipeline_builds_and_verifies() {
        let out = build_source(
            SRC,
            BuildOptions {
                verify: true,
                ..BuildOptions::default()
            },
        )
        .expect("pipeline must succeed");
        assert_eq!(out.analysis.functions.len(), 2);
        assert!(out.counters.branches >= 3);
        assert!(out.image.len() > 12);
        let names: Vec<_> = out.timings.iter().map(|t| t.name).collect();
        assert_eq!(
            names,
            [
                "parse",
                "lower",
                "verify-ir",
                "alias",
                "summaries",
                "analyze-functions",
                "image",
                "verify-tables"
            ]
        );
    }

    #[test]
    fn opt_pass_is_gated_and_named() {
        let opts = BuildOptions {
            optimize: true,
            ..BuildOptions::default()
        };
        assert!(PassManager::standard(&opts, true)
            .pass_names()
            .contains(&"opt"));
        let out = build_source(SRC, opts).unwrap();
        assert!(out.timings.iter().any(|t| t.name == "opt"));
        assert!(out.metrics.counter("pipeline.loads_forwarded") > 0);
    }

    #[test]
    fn parse_errors_are_typed() {
        let err = build_source("fn main( {", BuildOptions::default()).unwrap_err();
        assert!(matches!(err, PipelineError::Compile(_)));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn missing_stage_is_reported_not_panicked() {
        // An image pass with no analysis behind it: ordering bug, typed error.
        let manager = PassManager::new().with_pass(ImagePass);
        let mut session = CompilationSession::from_source(
            "fn main() -> int { return 0; }",
            BuildOptions::default(),
        );
        let err = manager.run(&mut session).unwrap_err();
        assert!(matches!(
            err,
            PipelineError::MissingStage {
                pass: "image",
                needs: "analysis"
            }
        ));
    }

    #[test]
    fn build_program_skips_front_end() {
        let program = ipds_ir::parse(SRC).unwrap();
        let out = build_program(
            program,
            BuildOptions {
                verify: true,
                ..BuildOptions::default()
            },
        )
        .unwrap();
        assert!(out.timings.iter().all(|t| t.name != "parse"));
        assert_eq!(out.analysis.functions.len(), 2);
    }

    #[test]
    fn refine_and_lint_passes_are_gated() {
        let opts = BuildOptions {
            refine: true,
            lint: true,
            verify: true,
            ..BuildOptions::default()
        };
        let out = build_source(SRC, opts).expect("refined pipeline must succeed");
        let names: Vec<_> = out.timings.iter().map(|t| t.name).collect();
        assert_eq!(
            names,
            [
                "parse",
                "lower",
                "verify-ir",
                "alias",
                "summaries",
                "intervals",
                "analyze-functions",
                "refine-correlations",
                "image",
                "verify-tables",
                "lint-tables"
            ]
        );
        let report = out.lint.as_ref().expect("lint report present");
        assert_eq!(report.error_count(), 0, "{report}");
    }

    #[test]
    fn counter_list_matches_a_full_featured_build() {
        let out = build_source(
            SRC,
            BuildOptions {
                promote: 100,
                optimize: true,
                verify: true,
                refine: true,
                prune_feasibility: true,
                lint: true,
                ..BuildOptions::default()
            },
        )
        .unwrap();
        let emitted: std::collections::BTreeSet<&str> =
            out.metrics.counters().map(|(k, _)| k).collect();
        let canonical: std::collections::BTreeSet<&str> =
            PIPELINE_COUNTERS.iter().copied().collect();
        assert_eq!(emitted, canonical);
    }

    /// `mode = 1` makes the `mode > 5` taken edge provably dead, which
    /// orphans its then-block; the two `x < 5` branches stay live and keep
    /// correlation discovery busy.
    const PRUNE_SRC: &str = "int mode; \
        fn main() -> int { int x; x = read_int(); mode = 1; \
        if (mode > 5) { print_int(9); } \
        if (x < 5) { mode = 2; } \
        if (x < 5) { print_int(1); } \
        return 0; }";

    #[test]
    fn prune_pass_is_gated_and_named() {
        let off = PassManager::standard(&BuildOptions::default(), true);
        assert!(!off.pass_names().contains(&"prune-cfg"));
        let on = PassManager::standard(
            &BuildOptions {
                prune_feasibility: true,
                ..BuildOptions::default()
            },
            true,
        );
        let names = on.pass_names();
        let prune = names.iter().position(|n| *n == "prune-cfg").unwrap();
        // Pruning needs the interval oracle and must precede discovery.
        assert_eq!(names[prune - 1], "intervals");
        assert_eq!(names[prune + 1], "analyze-functions");
    }

    #[test]
    fn pruned_build_prunes_and_verifies() {
        let opts = BuildOptions {
            prune_feasibility: true,
            verify: true,
            refine: true,
            lint: true,
            ..BuildOptions::default()
        };
        let out = build_source(PRUNE_SRC, opts).expect("pruned pipeline must succeed");
        assert!(
            out.metrics.counter("pipeline.pruned_edges") >= 1,
            "the mode > 5 taken edge is provably dead"
        );
        assert!(
            out.metrics.counter("pipeline.pruned_blocks") >= 1,
            "the dead edge orphans its then-block"
        );
        assert!(out.metrics.counter("pipeline.prune_rounds") >= 1);
        let report = out.lint.as_ref().expect("lint report present");
        assert_eq!(report.error_count(), 0, "{report}");
    }

    #[test]
    fn prune_without_dead_edges_is_byte_identical_to_baseline() {
        // SRC has no interval-provable dead edge, so the pruned world is
        // the stock world and the image must not move.
        let base = build_source(SRC, BuildOptions::default()).unwrap();
        let pruned = build_source(
            SRC,
            BuildOptions {
                prune_feasibility: true,
                ..BuildOptions::default()
            },
        )
        .unwrap();
        assert_eq!(pruned.metrics.counter("pipeline.pruned_edges"), 0);
        assert_eq!(pruned.metrics.counter("pipeline.prune_rounds"), 0);
        assert_eq!(base.image.as_bytes(), pruned.image.as_bytes());
        assert_eq!(base.counters, pruned.counters);
    }

    #[test]
    fn prune_never_loses_branches_from_the_inventory() {
        // Pruning restricts discovery, never the branch inventory: the
        // pruned build reports exactly as many branches as the baseline,
        // and verify-tables re-proves the inventory against the IR.
        let base = build_source(PRUNE_SRC, BuildOptions::default()).unwrap();
        let pruned = build_source(
            PRUNE_SRC,
            BuildOptions {
                prune_feasibility: true,
                verify: true,
                ..BuildOptions::default()
            },
        )
        .unwrap();
        assert_eq!(base.counters.branches, pruned.counters.branches);
    }

    #[test]
    fn ssa_window_is_gated_and_named() {
        let off = PassManager::standard(&BuildOptions::default(), true);
        assert!(!off.pass_names().contains(&"ssa"));
        let on = PassManager::standard(
            &BuildOptions {
                promote: 50,
                ..BuildOptions::default()
            },
            true,
        );
        let names = on.pass_names();
        let ssa = names.iter().position(|n| *n == "ssa").unwrap();
        assert_eq!(names[ssa..ssa + 3], ["ssa", "mem2reg", "deconstruct-ssa"]);
        assert!(ssa > names.iter().position(|n| *n == "verify-ir").unwrap());
        assert!(ssa < names.iter().position(|n| *n == "alias").unwrap());
    }

    #[test]
    fn promote_zero_is_byte_identical_to_the_pre_ssa_pipeline() {
        let base = build_source(SRC, BuildOptions::default()).unwrap();
        let zero = build_source(
            SRC,
            BuildOptions {
                promote: 0,
                ..BuildOptions::default()
            },
        )
        .unwrap();
        assert_eq!(base.image.as_bytes(), zero.image.as_bytes());
        assert_eq!(base.counters, zero.counters);
    }

    #[test]
    fn promotion_levels_verify_and_lint_clean() {
        for promote in [25, 50, 75, 100] {
            let opts = BuildOptions {
                promote,
                verify: true,
                refine: true,
                lint: true,
                ..BuildOptions::default()
            };
            let out = build_source(SRC, opts).unwrap_or_else(|e| panic!("promote {promote}: {e}"));
            let report = out.lint.as_ref().unwrap();
            assert_eq!(report.error_count(), 0, "promote {promote}: {report}");
        }
    }

    #[test]
    fn promotion_erodes_checked_branch_coverage() {
        // The headline ablation effect, in miniature: promoting everything
        // strips the memory anchors correlation discovery needs, so checked
        // coverage can only shrink.
        let base = build_source(SRC, BuildOptions::default()).unwrap();
        let full = build_source(
            SRC,
            BuildOptions {
                promote: 100,
                ..BuildOptions::default()
            },
        )
        .unwrap();
        assert!(base.counters.checked > 0);
        assert!(
            full.counters.checked < base.counters.checked,
            "promotion must erode coverage: base {} vs promoted {}",
            base.counters.checked,
            full.counters.checked
        );
    }

    #[test]
    fn metrics_cover_the_acceptance_counters() {
        let out = build_source(SRC, BuildOptions::default()).unwrap();
        // branches seen, correlations found, hash retries, BAT bytes: all
        // present as pipeline.* keys (retries may legitimately be zero).
        assert!(out.metrics.counter("pipeline.branches") >= 3);
        assert!(out.metrics.counter("pipeline.bat_entries") > 0);
        assert!(out.metrics.counter("pipeline.image_bytes") > 0);
        let keys: Vec<_> = out.metrics.counters().map(|(k, _)| k).collect();
        assert!(keys.contains(&"pipeline.hash_retries") || out.counters.hash_retries == 0);
    }
}
