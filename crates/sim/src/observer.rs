//! Execution observers: how the interpreter feeds the IPDS and the timing
//! model.
//!
//! [`IpdsObserver`] owns an [`EventSink`] and asks it, through the
//! compile-time [`EventSink::WANTS_BRANCHES`], whether to report at all.
//! With the default [`NullSink`] the flag is `false`: the record path (the
//! pre-verify BSV probe and the [`BranchRecord`]) is compiled out, and the
//! zero-sized sink adds no bytes to the observer.

use ipds_analysis::BranchStatus;
use ipds_ir::FuncId;
use ipds_runtime::IpdsChecker;
use ipds_telemetry::{BranchRecord, EventSink, Expectation, NullSink};

/// Maps the analysis-side expected status onto the telemetry mirror type.
pub fn expectation_of(status: BranchStatus) -> Expectation {
    match status {
        BranchStatus::Taken => Expectation::Taken,
        BranchStatus::NotTaken => Expectation::NotTaken,
        BranchStatus::Unknown => Expectation::Unknown,
    }
}

/// Events a consumer of the execution stream can react to.
///
/// Default implementations ignore everything, so observers implement only
/// what they need. The interpreter calls these in commit order.
pub trait ExecObserver {
    /// Whether this observer consumes [`ExecObserver::on_inst`]. The flag
    /// is a compile-time constant: each observer type gets its own
    /// instantiation of the interpreter's dispatch loop, and for observers
    /// that leave it `false` (the default) that instantiation contains
    /// neither the per-step PC computation nor the call. An observer that
    /// overrides `on_inst` must set it to `true` or the interpreter never
    /// calls it.
    const WANTS_INST: bool = false;
    /// Whether this observer consumes [`ExecObserver::on_mem`]; same
    /// contract as [`ExecObserver::WANTS_INST`].
    const WANTS_MEM: bool = false;
    /// Whether this observer additionally wants the *builtin-level* memory
    /// reads (`print_str`/`strcmp`/`strlen`/`atoi` string walks, the
    /// `memcpy` source) reported through [`ExecObserver::on_mem`]. Kept
    /// separate from [`ExecObserver::WANTS_MEM`] so read-set capture (the
    /// warm-start engine's reconvergence masks) can opt in without
    /// perturbing observers — like the timing model — calibrated to the
    /// instruction-level access stream.
    const WANTS_BUILTIN_READS: bool = false;

    /// An instruction (of any kind) committed at `pc`.
    fn on_inst(&mut self, pc: u64) {
        let _ = pc;
    }
    /// A data memory access committed (`store == true` for writes).
    fn on_mem(&mut self, pc: u64, addr: usize, store: bool) {
        let _ = (pc, addr, store);
    }
    /// A conditional branch committed with direction `dir`.
    fn on_branch(&mut self, pc: u64, dir: bool) {
        let _ = (pc, dir);
    }
    /// Control entered `func`.
    fn on_call(&mut self, func: FuncId) {
        let _ = func;
    }
    /// Control returned from the current function.
    fn on_return(&mut self) {}
}

/// An observer that ignores everything (baseline runs).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl ExecObserver for NullObserver {}

/// Adapts the functional [`IpdsChecker`] to the observer interface.
///
/// This is the wiring of Fig. 6: every committed branch is sent to the IPDS;
/// calls and returns push/pop table frames. When its sink's
/// [`EventSink::WANTS_BRANCHES`] is `true`, the observer additionally
/// forwards one [`BranchRecord`] per committed branch to it.
#[derive(Debug)]
pub struct IpdsObserver<S: EventSink = NullSink> {
    /// The wrapped checker (exposed for result inspection).
    pub checker: IpdsChecker,
    sink: S,
}

impl IpdsObserver {
    /// Wraps a checker with telemetry disabled.
    pub fn new(checker: IpdsChecker) -> IpdsObserver {
        IpdsObserver::with_sink(checker, NullSink)
    }
}

impl<S: EventSink> IpdsObserver<S> {
    /// Wraps a checker, reporting every checked branch to `sink`.
    pub fn with_sink(checker: IpdsChecker, sink: S) -> IpdsObserver<S> {
        IpdsObserver { checker, sink }
    }
}

impl<S: EventSink> ExecObserver for IpdsObserver<S> {
    fn on_branch(&mut self, pc: u64, dir: bool) {
        // The pre-verify BSV probe and the record are paid only by sinks
        // that read them; for the rest this branch is the whole hook.
        if !S::WANTS_BRANCHES {
            self.checker.on_branch(pc, dir);
            return;
        }
        let expected = self.checker.expected_status(pc).map(expectation_of);
        let out = self.checker.on_branch(pc, dir);
        self.sink.on_branch(&BranchRecord {
            seq: self.checker.stats().branches,
            pc,
            taken: dir,
            expected,
            verified: out.verified,
            alarm: out.alarm,
            bat_actions: out.bat_entries,
            bsv_transitions: out.bsv_transitions,
            table_accesses: out.table_accesses,
        });
    }

    fn on_call(&mut self, func: FuncId) {
        self.checker.on_call(func);
    }

    fn on_return(&mut self) {
        // The interpreter keeps call/return balanced structurally; an Err
        // here can only come from injected state corruption, which the
        // checker already counted in `stats().underflows`.
        let _ = self.checker.on_return();
    }
}

/// Fans one event stream out to two observers.
#[derive(Debug)]
pub struct Tee<'a, A, B> {
    /// First receiver.
    pub a: &'a mut A,
    /// Second receiver.
    pub b: &'a mut B,
}

impl<'a, A: ExecObserver, B: ExecObserver> Tee<'a, A, B> {
    /// Creates a tee over two observers.
    pub fn new(a: &'a mut A, b: &'a mut B) -> Tee<'a, A, B> {
        Tee { a, b }
    }
}

impl<A: ExecObserver, B: ExecObserver> ExecObserver for Tee<'_, A, B> {
    const WANTS_INST: bool = A::WANTS_INST || B::WANTS_INST;
    const WANTS_MEM: bool = A::WANTS_MEM || B::WANTS_MEM;
    const WANTS_BUILTIN_READS: bool = A::WANTS_BUILTIN_READS || B::WANTS_BUILTIN_READS;

    fn on_inst(&mut self, pc: u64) {
        self.a.on_inst(pc);
        self.b.on_inst(pc);
    }
    fn on_mem(&mut self, pc: u64, addr: usize, store: bool) {
        self.a.on_mem(pc, addr, store);
        self.b.on_mem(pc, addr, store);
    }
    fn on_branch(&mut self, pc: u64, dir: bool) {
        self.a.on_branch(pc, dir);
        self.b.on_branch(pc, dir);
    }
    fn on_call(&mut self, func: FuncId) {
        self.a.on_call(func);
        self.b.on_call(func);
    }
    fn on_return(&mut self) {
        self.a.on_return();
        self.b.on_return();
    }
}

/// Records the committed branch trace (for control-flow diffing).
#[derive(Debug, Default, Clone)]
pub struct BranchTrace {
    /// `(pc, direction)` pairs in commit order, capped at `cap`.
    pub trace: Vec<(u64, bool)>,
    /// Maximum entries kept (0 = unlimited).
    pub cap: usize,
}

impl BranchTrace {
    /// Creates a trace recorder keeping at most `cap` entries (0 =
    /// unlimited).
    pub fn with_cap(cap: usize) -> BranchTrace {
        BranchTrace {
            trace: Vec::new(),
            cap,
        }
    }

    /// Empties the recorded trace, keeping its allocation for reuse.
    pub fn clear(&mut self) {
        self.trace.clear();
    }
}

impl ExecObserver for BranchTrace {
    fn on_branch(&mut self, pc: u64, dir: bool) {
        if self.cap == 0 || self.trace.len() < self.cap {
            self.trace.push((pc, dir));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_default_sink_adds_nothing_to_the_observer() {
        assert_eq!(
            std::mem::size_of::<IpdsObserver>(),
            std::mem::size_of::<IpdsChecker>()
        );
    }
}
