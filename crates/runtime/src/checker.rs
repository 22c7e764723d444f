//! The functional IPDS checker: verify-then-update per committed branch.
//!
//! # Hot-path layout
//!
//! A campaign commits hundreds of thousands of branches per second, so the
//! per-branch work is laid out the way the paper's hardware would see it,
//! not the way the compiler emitted it:
//!
//! * **PC lookup is the perfect hash, not a `HashMap`.** The compiler
//!   already searched a collision-free shift/XOR hash per function (§5.2);
//!   the checker reuses it: `hash.slot(pc)` indexes a flat dense array of
//!   one packed record per hash slot — the branch's PC, BSV slot, BCV bit
//!   and both BAT row bounds — so one multiply-free hash and one record
//!   load resolve everything a branch needs: no SipHash, no probing, no
//!   parallel arrays.
//! * **The BSV is 2-bit packed.** A frame's status vector is a word array
//!   with 32 statuses per `u64` (the same `BranchStatus::to_bits`
//!   encoding as the table image), so an activation's whole BSV is a few
//!   words — push/pop/copy are memcpys and the snapshot support below is
//!   cheap.
//! * **The BAT is flattened.** Per function, all BAT rows live in one flat
//!   array of `(target slot, action bits)` pairs; a branch's record bounds
//!   its not-taken and taken rows, replacing the per-branch `BTreeMap` walk
//!   with a slice.
//!
//! The verify-then-update protocol itself is written once, as the private
//! `step` below: [`IpdsChecker::on_branch`] resolves the frame stack and
//! runs it for one branch, and one private run loop resolves it once for a
//! whole *run* of committed branches: [`IpdsChecker::on_branch_run`] feeds
//! it one run, and [`IpdsChecker::replay`] each run of a [`GuestEvent`]
//! stream, with calls, returns and BSV faults as the barriers between runs.
//! Callers that replay recorded streams (the fleet service,
//! microbenchmarks) thus pay the stack touch once per run, not per event.
//!
//! # Malformed event streams
//!
//! The checker is total over any call/branch/return sequence. A branch
//! with no active frame, a branch PC foreign to the active function, a
//! call to an unknown function, a call past [`MAX_FRAME_DEPTH`] active
//! frames and a return with no frame are each counted, skipped and
//! recorded as a typed [`RuntimeError`]. Only the first is kept
//! ([`IpdsChecker::violation`]), and the frame stack never grows past the
//! cap, so a hostile stream cannot grow memory, and checking carries on
//! with the next event.

use ipds_analysis::{BranchStatus, FunctionAnalysis, ProgramAnalysis};
use ipds_ir::FuncId;

use crate::error::RuntimeError;
use crate::event::GuestEvent;

/// The canonical `checker.*` metric keys the campaign engine emits
/// (documented in `docs/PERF.md`, enforced by `tests/docs_metrics.rs`).
/// All but the pool high water are [`IpdsStats`] fields summed over a
/// campaign's attacks, under the field's own name.
pub const CHECKER_COUNTERS: &[&str] = &[
    "checker.bsv_pool_high_water",
    "checker.branches",
    "checker.verified",
    "checker.bat_entries_applied",
    "checker.bsv_transitions",
    "checker.table_accesses",
    "checker.alarms",
];

/// Retired-BSV pool cap: deep-recursion workloads retire one buffer per
/// live activation at [`IpdsChecker::reset`]; buffers beyond this many are
/// dropped instead of pooled so a single pathological run cannot pin
/// memory for the rest of the campaign.
pub const BSV_POOL_CAP: usize = 64;

/// Frame-stack cap: a call that would push a frame past this many active
/// ones is counted, skipped and recorded as
/// [`RuntimeError::FrameStackOverflow`], and the return matching it pops
/// nothing. Four times the interpreter's default call-depth limit (256),
/// so no run the interpreter completes reaches it; only a hostile or
/// corrupted event stream does.
pub const MAX_FRAME_DEPTH: usize = 1024;

/// A detected infeasible path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alarm {
    /// Function in which the mismatch occurred.
    pub func: FuncId,
    /// PC of the offending branch.
    pub pc: u64,
    /// Expected direction from the BSV.
    pub expected: BranchStatus,
    /// Actual committed direction (`true` = taken).
    pub actual: bool,
    /// The checker's branch sequence number at detection time.
    pub branch_seq: u64,
}

/// The first protocol violation a checker recorded (see the module docs'
/// "Malformed event streams").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// What was wrong with the offending event.
    pub error: RuntimeError,
    /// The checker's branch sequence number when it was recorded: the
    /// offending branch's own number, or the branches committed before an
    /// offending call or return.
    pub branch_seq: u64,
}

/// Cost summary for one committed branch, consumed by the timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BranchOutcome {
    /// An alarm was raised.
    pub alarm: bool,
    /// The branch was marked in the BCV and verified.
    pub verified: bool,
    /// Number of IPDS table accesses this branch generated: the BCV probe,
    /// the BSV read (if verified), and one access per BAT entry walked (the
    /// BAT "implements a link list" — §6).
    pub table_accesses: u32,
    /// BAT entries walked for this (branch, direction).
    pub bat_entries: u32,
    /// BAT actions that actually changed a BSV slot's value (a status
    /// transition, as opposed to a rewrite of the same expectation).
    pub bsv_transitions: u32,
}

/// Running statistics of a checker instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IpdsStats {
    /// Committed conditional branches observed.
    pub branches: u64,
    /// Branches verified against the BSV (BCV hits).
    pub verified: u64,
    /// BAT entries applied.
    pub bat_entries_applied: u64,
    /// BAT actions that changed a BSV slot's value.
    pub bsv_transitions: u64,
    /// Total IPDS table accesses.
    pub table_accesses: u64,
    /// Alarms raised.
    pub alarms: u64,
    /// Call events observed (a call to an unknown function pushes no
    /// frame).
    pub calls: u64,
    /// Deepest stack observed.
    pub max_depth: usize,
    /// Return events that arrived with no frame on the stack.
    pub underflows: u64,
}

/// One stacked function activation's mutable checking state. The BSV is
/// 2-bit packed, 32 statuses per word ([`BranchStatus::to_bits`]).
#[derive(Debug, Clone)]
struct Frame {
    func: FuncId,
    bsv: Vec<u64>,
}

/// Sentinel BSV slot of an empty perfect-hash slot's record.
const NO_BRANCH: u32 = u32::MAX;

/// Everything one committed branch needs from its function's tables, in
/// one record: the hash slot's branch PC (validating the hash hit: a
/// foreign PC can alias an occupied slot), its BSV slot ([`NO_BRANCH`] for
/// an empty hash slot), its BCV bit, and its two BAT rows — not-taken
/// `bat[0]..bat[1]`, taken `bat[1]..bat[2]` — as offsets into
/// [`FuncTables::bat`].
#[derive(Debug, Clone, Copy)]
struct BranchRecord {
    pc: u64,
    bsv_slot: u32,
    checked: bool,
    bat: [u32; 3],
}

const EMPTY: BranchRecord = BranchRecord {
    pc: 0,
    bsv_slot: NO_BRANCH,
    checked: false,
    bat: [0; 3],
};

/// Per-function immutable lookup state derived from the compiler tables,
/// flattened for the per-branch fast path (see module docs).
#[derive(Debug)]
struct FuncTables {
    hash: ipds_analysis::HashParams,
    /// Hash slot → branch record. Length is exactly `hash.space()`, so a
    /// masked slot indexes without a bounds branch.
    records: Box<[BranchRecord]>,
    /// Flat BAT entries: the target branch's BSV slot and the action's
    /// 2-bit encoding ([`ipds_analysis::BrAction::to_bits`]).
    bat: Box<[(u32, u8)]>,
    /// Packed words per BSV frame.
    bsv_words: usize,
    /// BSV slots per frame (= `hash.space()`).
    bsv_slots: usize,
}

#[inline]
fn bsv_get(words: &[u64], slot: usize) -> u8 {
    ((words[slot >> 5] >> ((slot & 31) * 2)) & 0b11) as u8
}

#[inline]
fn bsv_set(words: &mut [u64], slot: usize, bits: u8) {
    let shift = (slot & 31) * 2;
    let word = &mut words[slot >> 5];
    *word = (*word & !(0b11u64 << shift)) | (u64::from(bits) << shift);
}

impl FuncTables {
    fn build(fa: &FunctionAnalysis) -> FuncTables {
        let space = fa.hash.space() as usize;
        let mut records = vec![EMPTY; space];
        let mut bat = Vec::new();
        for (i, b) in fa.branches.iter().enumerate() {
            let mut rows = [bat.len() as u32; 3];
            for (dir, end) in [false, true].into_iter().zip(&mut rows[1..]) {
                for entry in fa.actions(i as u32, dir) {
                    let target = fa.branches[entry.target as usize].slot;
                    bat.push((target, entry.action.to_bits()));
                }
                *end = bat.len() as u32;
            }
            let h = fa.hash.slot(b.pc) as usize;
            debug_assert_eq!(records[h].bsv_slot, NO_BRANCH, "perfect hash collision");
            records[h] = BranchRecord {
                pc: b.pc,
                bsv_slot: b.slot,
                checked: fa.checked.get(i).copied().unwrap_or(false),
                bat: rows,
            };
        }
        FuncTables {
            hash: fa.hash,
            records: records.into_boxed_slice(),
            bat: bat.into_boxed_slice(),
            bsv_words: space.div_ceil(32).max(1),
            bsv_slots: space,
        }
    }

    /// Resolves a PC to its branch record, `None` for foreign PCs.
    #[inline]
    fn record(&self, pc: u64) -> Option<&BranchRecord> {
        let rec = &self.records[self.hash.slot(pc) as usize];
        (rec.pc == pc && rec.bsv_slot != NO_BRANCH).then_some(rec)
    }
}

/// The verify-then-update protocol of §5.1 for one committed branch of
/// `frame`, whose function's tables are `tables`: verify against the BSV if
/// the BCV marks the branch, then apply the BAT row for the actual
/// direction. `None` (and no state touched) for a PC that is not a branch
/// of the frame's function. The caller has already counted the branch in
/// `stats.branches`.
#[inline(always)]
fn step(
    tables: &FuncTables,
    frame: &mut Frame,
    stats: &mut IpdsStats,
    alarms: &mut Vec<Alarm>,
    pc: u64,
    dir: bool,
) -> Option<BranchOutcome> {
    let rec = tables.record(pc)?;
    let mut outcome = BranchOutcome {
        // The BCV probe.
        table_accesses: 1,
        ..BranchOutcome::default()
    };

    // 1. Verify.
    if rec.checked {
        outcome.verified = true;
        outcome.table_accesses += 1; // BSV read
        stats.verified += 1;
        let expected = BranchStatus::from_bits(bsv_get(&frame.bsv, rec.bsv_slot as usize));
        if !expected.matches(dir) {
            outcome.alarm = true;
            stats.alarms += 1;
            alarms.push(Alarm {
                func: frame.func,
                pc,
                expected,
                actual: dir,
                branch_seq: stats.branches,
            });
        }
    }

    // 2. Update: walk the flattened BAT row for (branch, direction).
    let d = usize::from(dir);
    for &(tslot, action) in &tables.bat[rec.bat[d] as usize..rec.bat[d + 1] as usize] {
        let tslot = tslot as usize;
        let old = bsv_get(&frame.bsv, tslot);
        // Action bits 01/10/11 install taken/not-taken/unknown; 00 (NC)
        // is never stored in the BAT but would leave the slot untouched.
        let new = match action {
            0b01 => 0b01,
            0b10 => 0b10,
            0b11 => 0b00,
            _ => old,
        };
        bsv_set(&mut frame.bsv, tslot, new);
        outcome.table_accesses += 1;
        outcome.bat_entries += 1;
        if new != old {
            outcome.bsv_transitions += 1;
            stats.bsv_transitions += 1;
        }
        stats.bat_entries_applied += 1;
    }

    stats.table_accesses += u64::from(outcome.table_accesses);
    Some(outcome)
}

/// Records `error` at `branch_seq` in `first` unless an earlier violation
/// already is there. Cold, so the checking paths that call it lay out for
/// well-formed streams.
#[cold]
#[inline(never)]
fn violate(first: &mut Option<Violation>, error: RuntimeError, branch_seq: u64) {
    first.get_or_insert(Violation { error, branch_seq });
}

/// A point-in-time copy of a checker's mutable state (frame stack,
/// statistics, alarms, first violation), cheap to take thanks to the
/// packed BSV frames. Restoring one rewinds the checker to exactly that
/// point — the warm-start engine uses this to resume campaigns from
/// mid-run golden checkpoints.
#[derive(Debug, Clone, Default)]
pub struct CheckerSnapshot {
    frames: Vec<(FuncId, Vec<u64>)>,
    skipped_calls: usize,
    stats: IpdsStats,
    alarms: Vec<Alarm>,
    violation: Option<Violation>,
}

/// The functional IPDS checker.
///
/// Drives the verify-then-update protocol of §5.1 against the per-function
/// BSV stack. This is the *behavioural* model; queueing/latency effects are
/// layered on by the pipeline model in `ipds-sim` using the returned
/// [`BranchOutcome`] costs. The checker owns flat copies of the tables it
/// needs, so it does not borrow the analysis it was built from.
///
/// # Example
///
/// ```
/// use ipds_analysis::{analyze_program, AnalysisConfig};
/// use ipds_runtime::IpdsChecker;
///
/// let program = ipds_ir::parse(
///     "fn main() -> int { int x; x = read_int();
///      if (x < 5) { print_int(1); } if (x < 5) { print_int(2); } return 0; }",
/// ).expect("valid MiniC");
/// let analysis = analyze_program(&program, &AnalysisConfig::default());
/// let mut ipds = IpdsChecker::new(&analysis);
///
/// let main = &analysis.functions[0];
/// let pcs: Vec<u64> = main.branches.iter().map(|b| b.pc).collect();
/// ipds.on_call(main.func);
/// // Feasible path: both branches taken — no alarm.
/// assert!(!ipds.on_branch(pcs[0], true).alarm);
/// assert!(!ipds.on_branch(pcs[1], true).alarm);
/// // Infeasible: the second execution contradicting the first would alarm.
/// assert!(ipds.on_branch(pcs[1], false).alarm);
/// ```
#[derive(Debug)]
pub struct IpdsChecker {
    tables: Vec<FuncTables>,
    stack: Vec<Frame>,
    /// Calls skipped at [`MAX_FRAME_DEPTH`] whose returns have not arrived
    /// yet; each such return pops nothing.
    skipped_calls: usize,
    alarms: Vec<Alarm>,
    violation: Option<Violation>,
    stats: IpdsStats,
    /// Retired BSV word buffers, recycled by `on_call` so steady-state
    /// checking (and campaign reuse via [`IpdsChecker::reset`]) allocates no
    /// per-activation table storage. Capped at [`BSV_POOL_CAP`].
    bsv_pool: Vec<Vec<u64>>,
}

impl IpdsChecker {
    /// Creates a checker over a program's analysis results.
    pub fn new(analysis: &ProgramAnalysis) -> IpdsChecker {
        IpdsChecker {
            tables: analysis.functions.iter().map(FuncTables::build).collect(),
            stack: Vec::new(),
            skipped_calls: 0,
            alarms: Vec::new(),
            violation: None,
            stats: IpdsStats::default(),
            bsv_pool: Vec::new(),
        }
    }

    /// Clears all per-run state (frames, alarms, violation, statistics)
    /// while keeping the derived lookup tables and pooled BSV storage.
    /// After `reset` the checker is indistinguishable from a freshly
    /// constructed one, minus the allocations.
    pub fn reset(&mut self) {
        for frame in self.stack.drain(..) {
            if self.bsv_pool.len() < BSV_POOL_CAP {
                self.bsv_pool.push(frame.bsv);
            }
        }
        self.skipped_calls = 0;
        self.alarms.clear();
        self.violation = None;
        self.stats = IpdsStats::default();
    }

    /// Pushes a fresh all-unknown BSV frame for `func` (function entry). A
    /// call with [`MAX_FRAME_DEPTH`] frames already active pushes nothing
    /// and is recorded as [`RuntimeError::FrameStackOverflow`]; so does a
    /// function the tables do not describe, recorded as
    /// [`RuntimeError::UnknownFunction`].
    #[inline]
    pub fn on_call(&mut self, func: FuncId) {
        self.stats.calls += 1;
        if self.stack.len() >= MAX_FRAME_DEPTH {
            self.skipped_calls += 1;
            let error = RuntimeError::FrameStackOverflow { func };
            violate(&mut self.violation, error, self.stats.branches);
            return;
        }
        let Some(tables) = self.tables.get(func.0 as usize) else {
            let error = RuntimeError::UnknownFunction { func };
            violate(&mut self.violation, error, self.stats.branches);
            return;
        };
        let mut bsv = self.bsv_pool.pop().unwrap_or_default();
        bsv.clear();
        bsv.resize(tables.bsv_words, 0);
        self.stack.push(Frame { func, bsv });
        self.stats.max_depth = self.stats.max_depth.max(self.stack.len());
    }

    /// Pops the top frame (function return). The return of a call skipped
    /// at [`MAX_FRAME_DEPTH`] pops nothing.
    ///
    /// A return with no active frame means the call/return event stream is
    /// unbalanced — e.g. a corrupted return address under fault injection.
    /// The checker counts it, records it and degrades gracefully instead of
    /// aborting.
    #[inline]
    pub fn on_return(&mut self) -> Result<(), RuntimeError> {
        if self.skipped_calls > 0 {
            self.skipped_calls -= 1;
            return Ok(());
        }
        let Some(frame) = self.stack.pop() else {
            let error = RuntimeError::FrameStackUnderflow {
                component: "checker",
            };
            self.stats.underflows += 1;
            violate(&mut self.violation, error, self.stats.branches);
            return Err(error);
        };
        if self.bsv_pool.len() < BSV_POOL_CAP {
            self.bsv_pool.push(frame.bsv);
        }
        Ok(())
    }

    /// Fault-injection hook: overwrites one BSV slot of the top frame,
    /// returning the previous status. `None` if there is no active frame or
    /// the slot is out of range — the fault engine treats that as a miss.
    pub fn inject_bsv(&mut self, slot: usize, status: BranchStatus) -> Option<BranchStatus> {
        let frame = self.stack.last_mut()?;
        if slot >= self.tables[frame.func.0 as usize].bsv_slots {
            return None;
        }
        let old = BranchStatus::from_bits(bsv_get(&frame.bsv, slot));
        bsv_set(&mut frame.bsv, slot, status.to_bits());
        Some(old)
    }

    /// Number of BSV slots in the top frame (the fault engine uses this to
    /// pick an in-range injection slot). Zero when no frame is active.
    pub fn top_bsv_len(&self) -> usize {
        self.stack
            .last()
            .map_or(0, |f| self.tables[f.func.0 as usize].bsv_slots)
    }

    /// Current stack depth.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Processes a committed conditional branch of the current (top) frame:
    /// verify against the BSV if the BCV marks it, then apply the BAT
    /// actions for the actual direction. A branch with no active frame or
    /// with a PC foreign to the top frame's function is counted, skipped
    /// (a zero outcome) and recorded as a violation.
    #[inline]
    pub fn on_branch(&mut self, pc: u64, dir: bool) -> BranchOutcome {
        self.stats.branches += 1;
        let Some(frame) = self.stack.last_mut() else {
            violate(
                &mut self.violation,
                RuntimeError::NoActiveFrame,
                self.stats.branches,
            );
            return BranchOutcome::default();
        };
        let tables = &self.tables[frame.func.0 as usize];
        step(tables, frame, &mut self.stats, &mut self.alarms, pc, dir).unwrap_or_else(|| {
            let error = RuntimeError::ForeignBranch { pc };
            violate(&mut self.violation, error, self.stats.branches);
            BranchOutcome::default()
        })
    }

    /// Batched [`IpdsChecker::on_branch`]: processes a *run* of committed
    /// branches — all of the current (top) frame, since branches never
    /// push or pop activations — resolving the frame stack and the
    /// function tables once for the whole slice. Results land in
    /// [`IpdsChecker::stats`], [`IpdsChecker::alarms`] and
    /// [`IpdsChecker::violation`] exactly as if each branch had gone
    /// through `on_branch`.
    pub fn on_branch_run(&mut self, events: &[(u64, bool)]) {
        self.run(events.iter().copied());
    }

    /// Checks a committed event stream in order: each run of consecutive
    /// `Branch` events as [`IpdsChecker::on_branch_run`] does, and `Call`,
    /// `Return` and `FaultBsv` as [`IpdsChecker::on_call`],
    /// [`IpdsChecker::on_return`] and [`IpdsChecker::inject_bsv`] do. Any
    /// sequence is accepted, and replaying a stream whole or in pieces
    /// gives the same state.
    pub fn replay(&mut self, events: &[GuestEvent]) {
        let mut at = 0;
        while let Some(&event) = events.get(at) {
            match event {
                GuestEvent::Branch { .. } => {
                    at += self.run(events[at..].iter().map_while(|e| match *e {
                        GuestEvent::Branch { pc, taken } => Some((pc, taken)),
                        _ => None,
                    }));
                    continue;
                }
                GuestEvent::Call(func) => self.on_call(func),
                GuestEvent::Return => _ = self.on_return(),
                GuestEvent::FaultBsv { slot, status } => _ = self.inject_bsv(slot as usize, status),
            }
            at += 1;
        }
    }

    /// Checks every branch `branches` yields against the top frame,
    /// resolved once, and returns how many it consumed.
    #[inline(always)]
    fn run(&mut self, branches: impl Iterator<Item = (u64, bool)>) -> usize {
        let mut consumed = 0;
        let Some(frame) = self.stack.last_mut() else {
            for (pc, dir) in branches {
                self.on_branch(pc, dir);
                consumed += 1;
            }
            return consumed;
        };
        let tables = &self.tables[frame.func.0 as usize];
        for (pc, dir) in branches {
            consumed += 1;
            self.stats.branches += 1;
            if step(tables, frame, &mut self.stats, &mut self.alarms, pc, dir).is_none() {
                let error = RuntimeError::ForeignBranch { pc };
                violate(&mut self.violation, error, self.stats.branches);
            }
        }
        consumed
    }

    /// Reads the expected status currently recorded for a branch of the top
    /// frame (test/diagnostic hook).
    pub fn expected_status(&self, pc: u64) -> Option<BranchStatus> {
        let frame = self.stack.last()?;
        let rec = self.tables[frame.func.0 as usize].record(pc)?;
        Some(BranchStatus::from_bits(bsv_get(
            &frame.bsv,
            rec.bsv_slot as usize,
        )))
    }

    /// Captures the checker's mutable state. [`IpdsChecker::restore`]
    /// rewinds to it exactly; repeated snapshot/restore cycles reuse the
    /// snapshot's and the checker's allocations.
    pub fn snapshot(&self) -> CheckerSnapshot {
        CheckerSnapshot {
            frames: self.stack.iter().map(|f| (f.func, f.bsv.clone())).collect(),
            skipped_calls: self.skipped_calls,
            stats: self.stats,
            alarms: self.alarms.clone(),
            violation: self.violation,
        }
    }

    /// Rewinds the checker to a previously captured [`CheckerSnapshot`]
    /// (taken from a checker over the *same* analysis). The derived tables
    /// and the retired-BSV pool are untouched.
    pub fn restore(&mut self, snap: &CheckerSnapshot) {
        while self.stack.len() > snap.frames.len() {
            let frame = self.stack.pop().expect("len checked");
            if self.bsv_pool.len() < BSV_POOL_CAP {
                self.bsv_pool.push(frame.bsv);
            }
        }
        for (i, (func, bsv)) in snap.frames.iter().enumerate() {
            if let Some(frame) = self.stack.get_mut(i) {
                frame.func = *func;
                frame.bsv.clone_from(bsv);
            } else {
                let mut buf = self.bsv_pool.pop().unwrap_or_default();
                buf.clone_from(bsv);
                self.stack.push(Frame {
                    func: *func,
                    bsv: buf,
                });
            }
        }
        self.skipped_calls = snap.skipped_calls;
        self.stats = snap.stats;
        self.alarms.clone_from(&snap.alarms);
        self.violation = snap.violation;
    }

    /// All alarms raised so far.
    pub fn alarms(&self) -> &[Alarm] {
        &self.alarms
    }

    /// The first protocol violation recorded since construction or the
    /// last [`IpdsChecker::reset`], if any.
    pub fn violation(&self) -> Option<Violation> {
        self.violation
    }

    /// Statistics so far.
    pub fn stats(&self) -> &IpdsStats {
        &self.stats
    }

    /// True if at least one alarm fired.
    pub fn detected(&self) -> bool {
        !self.alarms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipds_analysis::{analyze_program, AnalysisConfig};

    fn setup(src: &str) -> (ipds_ir::Program, ipds_analysis::ProgramAnalysis) {
        let p = ipds_ir::parse(src).unwrap();
        let a = analyze_program(&p, &AnalysisConfig::default());
        (p, a)
    }

    #[test]
    fn figure4_walkthrough() {
        // Reproduces the paper's Fig. 4 narrative with our tables: a loop
        // whose BR1 (y-test) repeats its direction while y is untouched, a
        // BR2 (x-test) whose taken arm redefines x.
        let (_, a) = setup(
            "fn main() -> int { int x; int y; int i; \
             x = read_int(); y = read_int(); \
             for (i = 0; i < 2; i = i + 1) { \
               if (y < 5) { print_int(1); } \
               if (x > 10) { x = read_int(); } \
             } return 0; }",
        );
        let main = &a.functions[0];
        let mut ipds = IpdsChecker::new(&a);
        ipds.on_call(main.func);
        // Replay a feasible trace: i<2 taken, y<5 taken, x>10 not-taken,
        // i<2 taken, y<5 taken (same), x>10 not-taken (same), i<2 not-taken.
        // Identify branches by anchor order: find their pcs via blocks.
        let pcs: Vec<u64> = main.branches.iter().map(|b| b.pc).collect();
        // Branch order by block id follows source order: for-header, y-test,
        // x-test.
        let (for_pc, y_pc, x_pc) = (pcs[0], pcs[1], pcs[2]);
        for _ in 0..2 {
            assert!(!ipds.on_branch(for_pc, true).alarm);
            assert!(!ipds.on_branch(y_pc, true).alarm);
            assert!(!ipds.on_branch(x_pc, false).alarm);
        }
        assert!(!ipds.on_branch(for_pc, false).alarm);
        assert!(!ipds.detected());
    }

    #[test]
    fn tampered_repeat_is_detected() {
        // Two consecutive `user == 1` tests taking different directions is
        // infeasible without tampering.
        let (_, a) = setup(
            "fn main() -> int { int user; user = read_int(); \
             if (user == 1) { print_int(1); } \
             if (user == 1) { print_int(2); } return 0; }",
        );
        let main = &a.functions[0];
        let pcs: Vec<u64> = main.branches.iter().map(|b| b.pc).collect();
        let mut ipds = IpdsChecker::new(&a);
        ipds.on_call(main.func);
        assert!(!ipds.on_branch(pcs[0], true).alarm);
        let out = ipds.on_branch(pcs[1], false);
        assert!(out.alarm, "divergent repeat must alarm");
        assert_eq!(ipds.alarms().len(), 1);
        assert_eq!(ipds.alarms()[0].expected, BranchStatus::Taken);
    }

    #[test]
    fn redefinition_resets_to_unknown() {
        // If the path goes through the arm that redefines x, the x-test may
        // legally flip.
        let (_, a) = setup(
            "fn main() -> int { int x; int y; x = read_int(); y = read_int(); \
             if (x < 10) { print_int(1); } \
             if (y < 0) { x = read_int(); } \
             if (x < 10) { print_int(2); } return 0; }",
        );
        let main = &a.functions[0];
        let pcs: Vec<u64> = main.branches.iter().map(|b| b.pc).collect();
        let mut ipds = IpdsChecker::new(&a);
        ipds.on_call(main.func);
        assert!(!ipds.on_branch(pcs[0], true).alarm); // x < 10 taken
        assert!(!ipds.on_branch(pcs[1], true).alarm); // y < 0 taken → redefines x
                                                      // The third branch may go either way now.
        assert!(!ipds.on_branch(pcs[2], false).alarm);
        assert!(!ipds.detected());
    }

    #[test]
    fn fresh_frame_per_activation() {
        let (_, a) = setup(
            "fn check(int v) -> int { if (v == 1) { return 1; } return 0; } \
             fn main() -> int { return check(read_int()); }",
        );
        let check = a.functions.iter().find(|f| f.name == "check").unwrap();
        let pc = check.branches[0].pc;
        let mut ipds = IpdsChecker::new(&a);
        // Two activations with opposite directions are fine: the BSV stacks.
        ipds.on_call(check.func);
        assert!(!ipds.on_branch(pc, true).alarm);
        ipds.on_return().unwrap();
        ipds.on_call(check.func);
        assert!(!ipds.on_branch(pc, false).alarm);
        ipds.on_return().unwrap();
        assert!(!ipds.detected());
        assert_eq!(ipds.stats().calls, 2);
    }

    #[test]
    fn nested_frames_do_not_interfere() {
        let (_, a) = setup(
            "fn inner(int v) -> int { if (v == 1) { return 1; } return 0; } \
             fn main() -> int { int x; x = read_int(); \
             if (x == 1) { print_int(1); } \
             inner(0); \
             if (x == 1) { print_int(2); } return 0; }",
        );
        let main = a.functions.iter().find(|f| f.name == "main").unwrap();
        let inner = a.functions.iter().find(|f| f.name == "inner").unwrap();
        let mpcs: Vec<u64> = main.branches.iter().map(|b| b.pc).collect();
        let ipc = inner.branches[0].pc;
        let mut ipds = IpdsChecker::new(&a);
        ipds.on_call(main.func);
        assert!(!ipds.on_branch(mpcs[0], true).alarm);
        ipds.on_call(inner.func);
        assert!(!ipds.on_branch(ipc, false).alarm);
        ipds.on_return().unwrap();
        // Back in main: x == 1 must still be expected taken.
        let out = ipds.on_branch(mpcs[1], false);
        assert!(out.alarm, "stacked BSV must survive the call");
    }

    #[test]
    fn reset_behaves_like_fresh_checker() {
        let (_, a) = setup(
            "fn main() -> int { int user; user = read_int(); \
             if (user == 1) { print_int(1); } \
             if (user == 1) { print_int(2); } return 0; }",
        );
        let main = &a.functions[0];
        let pcs: Vec<u64> = main.branches.iter().map(|b| b.pc).collect();
        let mut ipds = IpdsChecker::new(&a);
        ipds.on_call(main.func);
        assert!(!ipds.on_branch(pcs[0], true).alarm);
        assert!(ipds.on_branch(pcs[1], false).alarm);
        assert!(ipds.detected());

        ipds.reset();
        assert!(!ipds.detected());
        assert_eq!(ipds.stats(), &IpdsStats::default());
        assert_eq!(ipds.depth(), 0);
        // The same infeasible replay behaves exactly as on a new checker.
        ipds.on_call(main.func);
        assert!(!ipds.on_branch(pcs[0], false).alarm);
        assert!(ipds.on_branch(pcs[1], true).alarm);
        assert_eq!(ipds.alarms().len(), 1);
    }

    #[test]
    fn unbalanced_return_is_a_typed_error() {
        let (_, a) = setup("fn main() -> int { return 0; }");
        let mut ipds = IpdsChecker::new(&a);
        let err = ipds.on_return().unwrap_err();
        assert_eq!(
            err,
            crate::error::RuntimeError::FrameStackUnderflow {
                component: "checker"
            }
        );
        assert_eq!(ipds.stats().underflows, 1);
        assert_eq!(
            ipds.violation(),
            Some(Violation {
                error: err,
                branch_seq: 0
            })
        );
        // The checker keeps working after the violation.
        ipds.on_call(a.functions[0].func);
        ipds.on_return().unwrap();
        assert_eq!(ipds.stats().underflows, 1);
        ipds.reset();
        assert_eq!(ipds.violation(), None);
    }

    #[test]
    fn injected_bsv_corruption_raises_an_alarm() {
        // Flip the recorded expectation for a checked repeat: the very next
        // (feasible!) execution of the correlated branch now mismatches, so
        // the corruption itself is what gets detected.
        let (_, a) = setup(
            "fn main() -> int { int user; user = read_int(); \
             if (user == 1) { print_int(1); } \
             if (user == 1) { print_int(2); } return 0; }",
        );
        let main = &a.functions[0];
        let pcs: Vec<u64> = main.branches.iter().map(|b| b.pc).collect();
        let slot = main.branches[1].slot as usize;
        let mut ipds = IpdsChecker::new(&a);
        ipds.on_call(main.func);
        assert!(!ipds.on_branch(pcs[0], true).alarm);
        let old = ipds.inject_bsv(slot, BranchStatus::NotTaken).unwrap();
        assert_eq!(old, BranchStatus::Taken);
        assert!(ipds.on_branch(pcs[1], true).alarm, "tampered BSV must trip");
    }

    #[test]
    fn inject_bsv_misses_without_a_frame_or_slot() {
        let (_, a) = setup("fn main() -> int { return 0; }");
        let mut ipds = IpdsChecker::new(&a);
        assert_eq!(ipds.top_bsv_len(), 0);
        assert!(ipds.inject_bsv(0, BranchStatus::Taken).is_none());
        ipds.on_call(a.functions[0].func);
        let len = ipds.top_bsv_len();
        assert!(ipds.inject_bsv(len, BranchStatus::Taken).is_none());
    }

    #[test]
    fn outcome_costs_reflect_bat_walks() {
        let (_, a) = setup(
            "fn main() -> int { int x; x = read_int(); \
             if (x < 5) { print_int(1); } if (x < 5) { print_int(2); } return 0; }",
        );
        let main = &a.functions[0];
        let pcs: Vec<u64> = main.branches.iter().map(|b| b.pc).collect();
        let mut ipds = IpdsChecker::new(&a);
        ipds.on_call(main.func);
        let out = ipds.on_branch(pcs[0], true);
        // BCV probe + BSV read + ≥1 BAT entry.
        assert!(out.verified);
        assert!(out.table_accesses >= 3, "{out:?}");
        assert!(ipds.stats().table_accesses >= out.table_accesses as u64);
    }

    #[test]
    fn snapshot_restore_rewinds_exactly() {
        let (_, a) = setup(
            "fn inner(int v) -> int { if (v == 1) { return 1; } return 0; } \
             fn main() -> int { int x; x = read_int(); \
             if (x == 1) { print_int(1); } \
             inner(0); \
             if (x == 1) { print_int(2); } return 0; }",
        );
        let main = a.functions.iter().find(|f| f.name == "main").unwrap();
        let inner = a.functions.iter().find(|f| f.name == "inner").unwrap();
        let mpcs: Vec<u64> = main.branches.iter().map(|b| b.pc).collect();
        let ipc = inner.branches[0].pc;

        let mut ipds = IpdsChecker::new(&a);
        ipds.on_call(main.func);
        ipds.on_branch(mpcs[0], true);
        ipds.on_call(inner.func);
        let snap = ipds.snapshot();
        let stats_at_snap = *ipds.stats();

        // Diverge: finish the inner call, trip an alarm in main and a
        // violation past it.
        ipds.on_branch(ipc, false);
        ipds.on_return().unwrap();
        assert!(ipds.on_branch(mpcs[1], false).alarm);
        ipds.on_branch(ipc, false);
        assert!(ipds.violation().is_some());

        // Rewind and replay a clean suffix instead.
        ipds.restore(&snap);
        assert_eq!(ipds.stats(), &stats_at_snap);
        assert_eq!(ipds.depth(), 2);
        assert!(!ipds.detected());
        assert_eq!(ipds.violation(), None);
        ipds.on_branch(ipc, true);
        ipds.on_return().unwrap();
        assert!(!ipds.on_branch(mpcs[1], true).alarm);
        assert!(!ipds.detected());
    }

    #[test]
    fn bsv_pool_is_capped() {
        let (_, a) = setup(
            "fn rec(int n) -> int { if (n < 1) { return 0; } return rec(n - 1); } \
             fn main() -> int { return rec(read_int()); }",
        );
        let rec = a.functions.iter().find(|f| f.name == "rec").unwrap();
        let mut ipds = IpdsChecker::new(&a);
        assert!(ipds.bsv_pool.is_empty());
        // Simulate a deep recursion, then reset: the retired buffers must
        // not accumulate beyond the cap.
        for _ in 0..(BSV_POOL_CAP + 40) {
            ipds.on_call(rec.func);
        }
        ipds.reset();
        assert_eq!(ipds.bsv_pool.len(), BSV_POOL_CAP);
        // Another deep run drains and refills the pool without growing it.
        for _ in 0..(BSV_POOL_CAP + 40) {
            ipds.on_call(rec.func);
        }
        ipds.reset();
        assert_eq!(ipds.bsv_pool.len(), BSV_POOL_CAP);
    }
}
