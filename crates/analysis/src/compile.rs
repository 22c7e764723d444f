//! The whole-program analysis driver.
//!
//! [`analyze_program`] is the one-shot convenience: stock facts, the
//! identity view, panicking. The [`crate::pipeline`] pass manager runs what
//! sits underneath: [`analyze_functions`], a loop over
//! [`try_analyze_function`] in function-id order, fallible, counted and
//! taking the feasibility-pruned view as an argument.

use std::error::Error;
use std::fmt;

use ipds_dataflow::{AliasAnalysis, Facts, PrunedCfg, PrunedFunction, Summaries};
use ipds_ir::{FuncId, Function, Program};

use crate::correlate::build_tables;
use crate::encode::table_sizes;
use crate::hash::{find_perfect_hash_counted, PerfectHashError};
use crate::tables::{BranchInfo, FunctionAnalysis};

/// Upper bound on each function's perfect-hash space (log2). The identity
/// fallback always fits below it for functions of up to `2^24`
/// instructions; a larger function fails with [`FunctionHashError`].
const MAX_HASH_LOG2: u32 = 24;

/// Tuning knobs for the analysis (the ablation switches).
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Use load-anchored triggers/targets (the paper's load→load loop).
    pub load_anchors: bool,
    /// Use store-anchored triggers (the paper's store→load loop).
    pub store_anchors: bool,
    /// Extension (off by default, documented in DESIGN.md): constant stores
    /// pin exact values and emit actions through the block's terminating
    /// branch.
    pub const_store: bool,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            load_anchors: true,
            store_anchors: true,
            const_store: false,
        }
    }
}

/// Analysis results for a whole program: one [`FunctionAnalysis`] per
/// function, in function-id order.
#[derive(Debug, Clone)]
pub struct ProgramAnalysis {
    /// Per-function tables, indexed by `FuncId`.
    pub functions: Vec<FunctionAnalysis>,
}

impl ProgramAnalysis {
    /// The analysis for `func`.
    ///
    /// # Panics
    ///
    /// Panics if `func` is out of range.
    pub fn of(&self, func: FuncId) -> &FunctionAnalysis {
        &self.functions[func.0 as usize]
    }

    /// Total branches across the program.
    pub fn branch_count(&self) -> usize {
        self.functions.iter().map(|f| f.branches.len()).sum()
    }

    /// Total checked branches across the program.
    pub fn checked_count(&self) -> usize {
        self.functions.iter().map(|f| f.checked_count()).sum()
    }
}

/// The perfect-hash search failed for one function — the only way
/// per-function analysis can fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionHashError {
    /// The function whose branch PCs defeated the search.
    pub function: String,
    /// The underlying search failure.
    pub error: PerfectHashError,
}

impl fmt::Display for FunctionHashError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "function `{}`: {}", self.function, self.error)
    }
}

impl Error for FunctionHashError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(&self.error)
    }
}

/// Work counters from analyzing one function (or, summed, a program) —
/// the pipeline surfaces these as pass-scoped metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalysisCounters {
    /// Conditional branches seen.
    pub branches: u64,
    /// Branches whose BCV bit is set (correlations found a direction).
    pub checked: u64,
    /// BAT entries emitted across all rows.
    pub bat_entries: u64,
    /// Hash parameter sets rejected before each function's search succeeded.
    pub hash_retries: u64,
}

impl AnalysisCounters {
    /// Element-wise sum (commutative — safe to fold in any order).
    pub fn merge(&mut self, other: &AnalysisCounters) {
        self.branches += other.branches;
        self.checked += other.checked;
        self.bat_entries += other.bat_entries;
        self.hash_retries += other.hash_retries;
    }
}

/// Fallible, counted per-function analysis: correlate → hash → encode for
/// one function over the feasibility-pruned `view`
/// (`PrunedFunction::default()` for the stock tables). Correlation
/// discovery skips proved-dead edges and blocks, while the branch
/// inventory, PCs and perfect hash stay those of the full function.
///
/// # Errors
///
/// [`FunctionHashError`] when no collision-free hash exists within a
/// `2^24`-slot space (only possible for a function with more than `2^24`
/// instructions).
pub fn try_analyze_function(
    program: &Program,
    func: &Function,
    alias: &AliasAnalysis,
    summaries: &Summaries,
    config: &AnalysisConfig,
    view: &PrunedFunction,
) -> Result<(FunctionAnalysis, AnalysisCounters), FunctionHashError> {
    let raw = build_tables(program, func, alias, summaries, config, view);
    let pcs: Vec<u64> = raw
        .branch_blocks
        .iter()
        .map(|&b| func.terminator_pc(b))
        .collect();
    let (hash, hash_retries) = find_perfect_hash_counted(&pcs, func.pc_base, MAX_HASH_LOG2)
        .map_err(|error| FunctionHashError {
            function: func.name.clone(),
            error,
        })?;
    let branches: Vec<BranchInfo> = raw
        .branch_blocks
        .iter()
        .zip(&pcs)
        .map(|(&block, &pc)| BranchInfo {
            block,
            pc,
            slot: hash.slot(pc),
        })
        .collect();
    let sizes = table_sizes(&raw.bat, &branches, &hash);
    let counters = AnalysisCounters {
        branches: branches.len() as u64,
        checked: raw.checked.iter().filter(|&&c| c).count() as u64,
        bat_entries: raw.bat.values().map(|v| v.len() as u64).sum(),
        hash_retries,
    };
    let analysis = FunctionAnalysis {
        func: func.id,
        name: func.name.clone(),
        branches,
        checked: raw.checked,
        bat: raw.bat,
        hash,
        sizes,
    };
    Ok((analysis, counters))
}

/// Runs alias analysis, summaries and per-function correlation over the
/// whole program (the identity view).
///
/// # Panics
///
/// Panics if a perfect-hash search fails within a `2^24`-slot space
/// (possible only for pathological functions with more than `2^24`
/// instructions).
pub fn analyze_program(program: &Program, config: &AnalysisConfig) -> ProgramAnalysis {
    let facts = Facts::compute(program);
    let full = PrunedCfg::full(program);
    analyze_functions(program, &facts.alias, &facts.summaries, config, &full)
        .map(|(analysis, _)| analysis)
        .expect("perfect hash search must succeed within the identity fallback")
}

/// Per-function correlation/hash/encode over precomputed whole-program
/// facts and the feasibility-pruned `view` ([`PrunedCfg::full`] for the
/// stock tables), one function after another in [`FuncId`] order, with the
/// counters summed.
///
/// # Errors
///
/// The first (in function-id order) [`FunctionHashError`], if any function's
/// hash search fails.
pub fn analyze_functions(
    program: &Program,
    alias: &AliasAnalysis,
    summaries: &Summaries,
    config: &AnalysisConfig,
    view: &PrunedCfg,
) -> Result<(ProgramAnalysis, AnalysisCounters), FunctionHashError> {
    let mut functions = Vec::with_capacity(program.functions.len());
    let mut counters = AnalysisCounters::default();
    for func in &program.functions {
        let (analysis, func_counters) = try_analyze_function(
            program,
            func,
            alias,
            summaries,
            config,
            view.function(func.id),
        )?;
        counters.merge(&func_counters);
        functions.push(analysis);
    }
    Ok((ProgramAnalysis { functions }, counters))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyzes_multi_function_programs() {
        let p = ipds_ir::parse(
            "int mode; \
             fn check() -> int { if (mode == 1) { return 1; } return 0; } \
             fn main() -> int { mode = read_int(); if (mode == 1) { print_int(1); } return check(); }",
        )
        .unwrap();
        let a = analyze_program(&p, &AnalysisConfig::default());
        assert_eq!(a.functions.len(), 2);
        assert_eq!(a.branch_count(), 2);
        // Hash slots are collision-free per function.
        for f in &a.functions {
            let mut seen = std::collections::HashSet::new();
            for b in &f.branches {
                assert!(seen.insert(b.slot), "collision in {}", f.name);
            }
        }
    }

    #[test]
    fn sizes_are_populated() {
        let p = ipds_ir::parse(
            "fn main() -> int { int x; x = read_int(); \
             if (x < 5) { print_int(1); } if (x < 5) { print_int(2); } return 0; }",
        )
        .unwrap();
        let a = analyze_program(&p, &AnalysisConfig::default());
        let m = a.of(ipds_ir::FuncId(0));
        assert!(m.sizes.bsv_bits >= 2 * m.branches.len());
        assert!(m.sizes.bat_bits > 16, "correlations present ⇒ BAT content");
        // Shape from the paper: BAT dominates BSV, BSV ≥ BCV.
        assert!(m.sizes.bat_bits > m.sizes.bcv_bits);
        assert_eq!(m.sizes.bsv_bits, 2 * m.sizes.bcv_bits);
    }

    #[test]
    fn ablation_switches_reduce_content() {
        let src = "fn main() -> int { int x; x = read_int(); \
             if (x < 5) { print_int(1); } if (x < 10) { print_int(2); } return 0; }";
        let p = ipds_ir::parse(src).unwrap();
        let full = analyze_program(&p, &AnalysisConfig::default());
        let none = analyze_program(
            &p,
            &AnalysisConfig {
                load_anchors: false,
                store_anchors: false,
                ..AnalysisConfig::default()
            },
        );
        assert!(full.checked_count() > 0);
        assert_eq!(none.checked_count(), 0);
        assert!(none.of(ipds_ir::FuncId(0)).bat.is_empty());
    }
}
