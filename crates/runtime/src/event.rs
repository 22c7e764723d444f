//! The committed control-flow event vocabulary.

use ipds_analysis::BranchStatus;
use ipds_ir::FuncId;

/// One event of a run's committed execution stream.
///
/// This is what the IPDS unit sees (§5.4, Fig. 6): committed calls,
/// conditional branches and returns, in order. `ipds-sim`'s
/// `EventRecorder` records it from the interpreter, the fleet service
/// receives it from guests in `Vec<GuestEvent>` batches, and
/// [`IpdsChecker::replay`](crate::IpdsChecker::replay) checks it. A stream
/// that breaks the call/branch/return protocol is still checked: the
/// checker skips each offending event and records the first one as its
/// [`Violation`](crate::Violation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuestEvent {
    /// Control entered `func` (every stream starts with the entry
    /// function's `Call`).
    Call(FuncId),
    /// A conditional branch committed at `pc` with direction `taken`.
    Branch {
        /// PC of the committed branch.
        pc: u64,
        /// Committed direction (`true` = taken).
        taken: bool,
    },
    /// Control returned from the current function.
    Return,
    /// Fault-injection hook: overwrite BSV `slot` of the innermost frame
    /// with `status` before the next event. Real guests never emit this;
    /// the deterministic fleet driver uses it to model a bit flip in the
    /// checker's on-chip state (the `FaultSite::CheckerState` of
    /// `docs/FAULTS.md`) flowing through the service path.
    FaultBsv {
        /// BSV slot index within the innermost frame.
        slot: u32,
        /// The corrupted expectation written into the slot.
        status: BranchStatus,
    },
}
