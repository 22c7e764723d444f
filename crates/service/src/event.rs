//! The guest-side event vocabulary.

use ipds_analysis::BranchStatus;
use ipds_ir::FuncId;

/// One event of a guest session's committed execution stream.
///
/// This is the wire format between a monitored guest and the service: the
/// guest (here: the synthetic fleet driver's instrumented interpreter)
/// reports committed control-flow events in order, chopped into
/// `Vec<GuestEvent>` batches. The service's flush replays them through
/// the session's pooled [`IpdsChecker`](ipds_runtime::IpdsChecker) —
/// consecutive `Branch` events are buffered and flushed through the flat
/// batch entry point
/// [`on_branch_run`](ipds_runtime::IpdsChecker::on_branch_run). A stream
/// that breaks the call/branch/return protocol is still checked: the
/// checker skips each offending event, and the session's first one opens
/// a [`ProtocolViolation`](crate::IncidentKind::ProtocolViolation).
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
    /// Fault-injection hook for the synthetic fleet: overwrite BSV `slot`
    /// of the innermost frame with `status` before the next event. Real
    /// guests never emit this; the deterministic fleet driver uses it to
    /// model a bit flip in the checker's on-chip state (the
    /// `FaultSite::CheckerState` of `docs/FAULTS.md`) flowing through the
    /// service path.
    FaultBsv {
        /// BSV slot index within the innermost frame.
        slot: u32,
        /// The corrupted expectation written into the slot.
        status: BranchStatus,
    },
}
