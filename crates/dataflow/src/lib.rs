//! # ipds-dataflow — program analyses feeding the IPDS branch-correlation pass
//!
//! The paper's BAT-construction algorithm (Fig. 5) starts from "alias
//! analysis and identify memory resident values" and leans on knowing, for
//! every load/store, *which* variables it may touch and whether the access is
//! uniquely aliased. This crate supplies those facts plus the value-range
//! machinery:
//!
//! * [`memvar`] — program-wide naming of memory variables and may-access
//!   sets.
//! * [`alias`] — flow-insensitive Andersen-style points-to analysis and
//!   per-access classification (unique scalar / known set / anything).
//! * [`summary`] — callee side-effect summaries (pure, writes-through-
//!   pointer-parameters, writes-anything) with exact models for the C
//!   library builtins, used to expand call sites into pseudo stores exactly
//!   as §5.3 describes.
//! * [`range`] — the interval-with-disequality value range domain, range
//!   implication (`subsumes`) and the affine shifts needed for Fig. 3.c.
//! * [`anchor`] — extraction of *branch anchors*: for each conditional
//!   branch, the memory variable, affine transform and predicate such that
//!   the branch's direction implies a range of that variable (and vice
//!   versa).
//! * [`prune`] — feasibility-pruned CFG views: the overlay that removes
//!   interval-proved dead edges (and the blocks they orphan) so the other
//!   analyses can be re-run over feasible paths only.

pub mod alias;
pub mod anchor;
pub mod memvar;
pub mod prune;
pub mod range;
pub mod summary;

pub use alias::{AccessClass, AliasAnalysis};
pub use anchor::{find_anchors, AnchorKind, BranchAnchor};
pub use memvar::MemVar;
pub use prune::{PrunedCfg, PrunedFunction};
pub use range::Range;
pub use summary::{CallEffect, Summaries};

use ipds_ir::Program;

/// The whole-program facts the correlation pass consumes, bundled so the
/// compiler pipeline can treat "alias" and "summaries" as staged passes with
/// one typed hand-off.
///
/// Order matters: summaries are computed *over* the alias results. The
/// pipeline runs them as separate named passes; [`Facts::compute`] is the
/// one-shot form the plain drivers use.
#[derive(Debug)]
pub struct Facts {
    /// Flow-insensitive points-to results and per-access classification.
    pub alias: AliasAnalysis,
    /// Callee side-effect summaries (pseudo-store expansion for calls).
    pub summaries: Summaries,
}

impl Facts {
    /// Runs both analyses in their required order over the whole program
    /// (the identity [`PrunedCfg`] view).
    pub fn compute(program: &Program) -> Facts {
        let full = PrunedCfg::full(program);
        let alias = AliasAnalysis::analyze(program, &full);
        let summaries = Summaries::compute(program, &alias, &full);
        Facts { alias, summaries }
    }
}
