//! # ipds-analysis — the IPDS compiler side (the paper's contribution)
//!
//! Implements §5 of *"Using Branch Correlation to Identify Infeasible Paths
//! for Anomaly Detection"*: for every function, build the three structures
//! the runtime checker consumes —
//!
//! * **BSV** (Branch Status Vector): 2 bits per branch slot holding the
//!   expected direction (taken / not-taken / unknown); the runtime's mutable
//!   state, initialized to all-unknown on function entry.
//! * **BCV** (Branch Check Vector): 1 bit per branch slot marking branches
//!   whose outcome the compiler can ever infer — only those are verified.
//! * **BAT** (Branch Action Table): per (branch, direction), the list of
//!   `(target branch, action)` updates — `SET_T`, `SET_NT`, `SET_UN`, or no
//!   entry (`NC`) — applied after the branch commits.
//!
//! The construction follows Fig. 5 with the three correlation scenarios of
//! §4 (redefinition ⇒ unknown, no redefinition ⇒ repeat, range subsumption ⇒
//! forced direction), handles function calls as pseudo stores (§5.3), and
//! finds a collision-free shift/XOR hash per function so the packed tables
//! need no tags (§5.2).
//!
//! ## Pipeline
//!
//! ```
//! use ipds_analysis::{analyze_program, AnalysisConfig};
//!
//! let program = ipds_ir::parse(r#"
//!     fn main() -> int {
//!         int user;
//!         user = read_int();
//!         if (user == 1) { print_int(1); }
//!         if (user == 1) { print_int(2); }
//!         return 0;
//!     }
//! "#).expect("valid MiniC");
//! let analysis = analyze_program(&program, &AnalysisConfig::default());
//! let main = &analysis.functions[0];
//! assert_eq!(main.branches.len(), 2);       // two correlated branches
//! assert!(main.checked.iter().any(|&c| c)); // at least one is checked
//! ```

pub mod action;
pub mod compile;
pub mod correlate;
pub mod encode;
pub mod hash;
pub mod image;
pub mod lint;
pub mod pipeline;
pub mod refine;
pub mod region;
pub mod stats;
pub mod tables;
pub mod verify_tables;

pub use action::{BrAction, BranchStatus};
pub use compile::{
    analyze_functions, analyze_program, try_analyze_function, AnalysisConfig, AnalysisCounters,
    FunctionHashError, ProgramAnalysis,
};
pub use encode::{BitReader, BitWriter, TableSizes};
pub use hash::{find_perfect_hash, find_perfect_hash_counted, HashParams, PerfectHashError};
pub use image::{ImageError, TableImage};
pub use lint::{lint_function, lint_program, LintDiagnostic, LintReport, LintRule, LintSeverity};
pub use pipeline::{
    build_program, build_source, BuildOptions, BuildOutput, CompilationSession, Pass, PassManager,
    PassSpan, PipelineError, PIPELINE_COUNTERS,
};
pub use refine::{refine_function, RefineStats};
pub use stats::SizeStats;
pub use tables::{BatEntry, BranchInfo, FunctionAnalysis};
pub use verify_tables::{verify_tables, TableVerifyError};
