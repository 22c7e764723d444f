//! Typed protocol errors for the runtime models.
//!
//! A tampered guest, an injected fault or a hostile client can feed the
//! IPDS an event stream no real execution produces — e.g. a corrupted
//! return address that pops a frame the hardware never pushed, or a branch
//! PC the running function does not contain. The models surface that as a
//! [`RuntimeError`] instead of panicking, so a fault campaign records the
//! event as an anomaly and keeps running, and the fleet service flags the
//! one session that sent it.

use std::error::Error;
use std::fmt;

use ipds_ir::FuncId;

/// A call/return/branch protocol violation one of the runtime models caught.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeError {
    /// A return event arrived with no active frame — the call/return
    /// stream is unbalanced (e.g. a corrupted return address).
    FrameStackUnderflow {
        /// Which model caught it (`"checker"` or `"onchip"`).
        component: &'static str,
    },
    /// A branch event arrived with no active frame to check it against.
    NoActiveFrame,
    /// A branch event's PC is not a branch of the active frame's function.
    ForeignBranch {
        /// The offending PC.
        pc: u64,
    },
    /// A call event named a function the tables do not describe.
    UnknownFunction {
        /// The offending function id.
        func: FuncId,
    },
    /// A call event arrived with the checker's frame stack already at
    /// [`MAX_FRAME_DEPTH`](crate::MAX_FRAME_DEPTH) frames — unbounded
    /// recursion no interpreter run produces.
    FrameStackOverflow {
        /// The function the skipped call entered.
        func: FuncId,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::FrameStackUnderflow { component } => write!(
                f,
                "{component} frame stack underflow: unbalanced call/return events"
            ),
            RuntimeError::NoActiveFrame => write!(f, "branch event with no active frame"),
            RuntimeError::ForeignBranch { pc } => {
                write!(f, "pc {pc:#x} is not a branch of the active function")
            }
            RuntimeError::UnknownFunction { func } => {
                write!(f, "call to unknown function {func}")
            }
            RuntimeError::FrameStackOverflow { func } => write!(
                f,
                "call to {func} past the {} frame cap",
                crate::MAX_FRAME_DEPTH
            ),
        }
    }
}

impl Error for RuntimeError {}
