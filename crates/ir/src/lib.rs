//! # ipds-ir — MiniC front end and CFG-based IR
//!
//! This crate is the compiler substrate of the IPDS reproduction. The paper
//! implemented its analysis inside SUIF/MachSUIF over C programs; here we
//! provide the equivalent foundation:
//!
//! * **MiniC**, a small C-like language ([`lexer`], [`parser`], [`ast`]) with
//!   `int` scalars, `int` arrays, pointers, functions, string literals and
//!   the control constructs that matter for branch correlation (`if`/`else`,
//!   `while`, `for`, `&&`/`||` short-circuiting).
//! * A **CFG-based IR** ([`inst`], [`function`], [`program`]) in which every
//!   source variable is *memory resident* (accessed via explicit loads and
//!   stores) and every virtual register has a **single static definition**.
//!   This is the pre-`mem2reg` form the paper's machine model assumes: the
//!   attacker tampers memory, registers are only transiently live.
//! * **Lowering** from the AST to the IR ([`lower`]), a structural
//!   [`verify`]-er, a [`pretty`] printer, and a programmatic
//!   [`builder::FunctionBuilder`] used by tests that need an exact CFG.
//! * CFG utilities ([`mod@cfg`]): predecessors, reverse post-order, dominators.
//!
//! ## Example
//!
//! ```
//! use ipds_ir::parse;
//!
//! let program = parse(r#"
//!     fn main() -> int {
//!         int x;
//!         x = read_int();
//!         if (x < 5) { print_int(1); } else { print_int(0); }
//!         return 0;
//!     }
//! "#).expect("valid MiniC");
//! assert_eq!(program.functions.len(), 1);
//! ```

pub mod ast;
pub mod builder;
pub mod cfg;
pub mod emit;
pub mod error;
pub mod function;
pub mod inst;
pub mod lexer;
pub mod lower;
pub mod opt;
pub mod parser;
pub mod pretty;
pub mod program;
pub mod ssa;
pub mod token;
pub mod verify;

pub use ast::{BinaryOp, Expr, Item, Stmt, UnaryOp};
pub use builder::FunctionBuilder;
pub use emit::emit_items;
pub use error::{CompileError, ParseError};
pub use function::{BasicBlock, BlockId, FuncId, Function, Terminator, VarId, VarKind, Variable};
pub use inst::{Address, BinOp, Builtin, Callee, Inst, Operand, Pred, Reg};
pub use program::Program;
pub use ssa::{build_ssa, deconstruct_ssa, mark_promoted, verify_ssa, SsaForm};

/// Parses MiniC source text into an IR [`Program`].
///
/// This is the one-stop entry point: it lexes, parses and lowers the source,
/// then runs the structural [`verify`] pass so downstream analyses can rely
/// on the single-static-definition and terminator invariants.
///
/// # Errors
///
/// Returns a [`CompileError`] describing the first lexical, syntactic or
/// semantic (e.g. undefined variable) problem encountered.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), ipds_ir::CompileError> {
/// let program = ipds_ir::parse("fn main() -> int { return 42; }")?;
/// assert_eq!(program.functions[0].name, "main");
/// # Ok(())
/// # }
/// ```
pub fn parse(source: &str) -> Result<Program, CompileError> {
    let tokens = lexer::lex(source).map_err(CompileError::Parse)?;
    let items = parser::parse_items(&tokens).map_err(CompileError::Parse)?;
    let program = lower::lower(&items)?;
    verify::verify_program(&program).map_err(CompileError::Verify)?;
    Ok(program)
}
