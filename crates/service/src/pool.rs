//! Pooled per-session checker state.

use std::sync::Arc;

use ipds_runtime::IpdsChecker;

use crate::cache::WorkloadArtifact;
use crate::event::GuestEvent;
use crate::incident::{Incident, IncidentKind};

/// Pool traffic counters (the `service.pool_*` telemetry keys).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionPoolStats {
    /// Sessions checked out (fresh or recycled).
    pub checkouts: u64,
    /// Checkouts served from the free list — no fresh checker was built.
    pub reuses: u64,
    /// Sessions returned to the free list on close.
    pub recycled: u64,
    /// Most sessions simultaneously checked out.
    pub high_water: u64,
}

/// Everything one open guest session owns on the service side: the pooled
/// checker (borrowing the shared artifact's tables), the branch-batch
/// scratch arena, and the incident fold state. Recycled — not dropped —
/// on close, so the BSV frame pool and scratch allocations survive into
/// the next session of the same workload.
#[derive(Debug)]
pub struct SessionState<'a> {
    /// The wrapped checker (exposed for inspection; tests and the shadow
    /// validator read alarms and stats off it).
    pub checker: IpdsChecker<'a>,
    /// Index of the workload artifact this session runs.
    pub workload: usize,
    session: u64,
    events: u64,
    batches: u64,
    scratch: Vec<(u64, bool)>,
    incidents: Vec<Incident>,
    alarms_folded: usize,
}

impl<'a> SessionState<'a> {
    /// Builds a fresh (un-pooled) session over loaded tables — the shadow
    /// validator's entry point; the service itself checks sessions out of
    /// a [`SessionPool`].
    pub fn fresh(
        analysis: &'a ipds_analysis::ProgramAnalysis,
        workload: usize,
        session: u64,
    ) -> Self {
        SessionState {
            checker: IpdsChecker::new(analysis),
            workload,
            session,
            events: 0,
            batches: 0,
            scratch: Vec::new(),
            incidents: Vec::new(),
            alarms_folded: 0,
        }
    }

    /// Re-arms recycled state for a new session (tables and arenas kept).
    fn rebind(&mut self, session: u64) {
        self.checker.reset();
        self.session = session;
        self.events = 0;
        self.batches = 0;
        self.scratch.clear();
        self.incidents.clear();
        self.alarms_folded = 0;
    }

    /// The session id this state is bound to.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Events ingested so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Batches ingested so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Incidents opened so far (at most one per kind-class, alarms fold).
    pub fn incidents(&self) -> &[Incident] {
        &self.incidents
    }

    /// Replays one batch through the checker. Consecutive `Branch` events
    /// buffer into the scratch arena and flush through the flat SoA batch
    /// entry point [`IpdsChecker::on_branch_run`]; call/return/fault
    /// events are barriers. New alarms fold into the session's incident.
    pub fn ingest(&mut self, workload_name: &str, events: &[GuestEvent]) {
        self.batches += 1;
        self.events += events.len() as u64;
        for ev in events {
            match *ev {
                GuestEvent::Branch { pc, taken } => self.scratch.push((pc, taken)),
                GuestEvent::Call(func) => {
                    flush(&mut self.checker, &mut self.scratch);
                    self.checker.on_call(func);
                }
                GuestEvent::Return => {
                    flush(&mut self.checker, &mut self.scratch);
                    if self.checker.on_return().is_err() {
                        let seq = self.checker.stats().branches;
                        self.open(workload_name, IncidentKind::ProtocolViolation, seq);
                    }
                }
                GuestEvent::FaultBsv { slot, status } => {
                    flush(&mut self.checker, &mut self.scratch);
                    self.checker.inject_bsv(slot as usize, status);
                }
            }
        }
        flush(&mut self.checker, &mut self.scratch);
        self.fold_alarms(workload_name);
    }

    /// Opens an incident at committed-branch sequence `seq` unless the
    /// session already has one of the same class. `seq` comes from the
    /// triggering event itself (an alarm's `branch_seq`, or the branch
    /// count at a protocol violation), so it is invariant under batching.
    fn open(&mut self, workload_name: &str, kind: IncidentKind, seq: u64) {
        let same_class = |k: &IncidentKind| {
            matches!(
                (k, &kind),
                (
                    IncidentKind::ProtocolViolation,
                    IncidentKind::ProtocolViolation
                ) | (
                    IncidentKind::InfeasiblePath { .. },
                    IncidentKind::InfeasiblePath { .. }
                )
            )
        };
        if self.incidents.iter().any(|inc| same_class(&inc.kind)) {
            return;
        }
        self.incidents.push(Incident {
            session: self.session,
            workload: workload_name.to_string(),
            kind,
            seq,
            alarm_count: 0,
        });
    }

    /// Folds alarms raised since the last batch: the first one opens the
    /// session's `InfeasiblePath` incident, the rest bump its count.
    fn fold_alarms(&mut self, workload_name: &str) {
        let alarms = self.checker.alarms();
        if alarms.len() <= self.alarms_folded {
            return;
        }
        let fresh = (alarms.len() - self.alarms_folded) as u64;
        let first = alarms[self.alarms_folded].clone();
        self.alarms_folded = alarms.len();
        self.open(
            workload_name,
            IncidentKind::InfeasiblePath {
                pc: first.pc,
                expected: first.expected,
                actual: first.actual,
            },
            first.branch_seq,
        );
        if let Some(inc) = self
            .incidents
            .iter_mut()
            .find(|inc| matches!(inc.kind, IncidentKind::InfeasiblePath { .. }))
        {
            inc.alarm_count += fresh;
        }
    }
}

/// Flushes buffered branch events through the SoA hot path. Free function
/// so the borrow of the scratch arena and the mutable borrow of the
/// checker stay visibly disjoint.
fn flush(checker: &mut IpdsChecker<'_>, scratch: &mut Vec<(u64, bool)>) {
    if !scratch.is_empty() {
        checker.on_branch_run(scratch);
        scratch.clear();
    }
}

/// The service's free lists of recycled [`SessionState`], one per workload
/// (checkers are table-bound, so state only recycles within a workload).
#[derive(Debug)]
pub struct SessionPool<'a> {
    artifacts: &'a [Arc<WorkloadArtifact>],
    free: Vec<Vec<SessionState<'a>>>,
    live: u64,
    stats: SessionPoolStats,
}

impl<'a> SessionPool<'a> {
    /// Creates an empty pool over the service's verified artifacts.
    pub fn new(artifacts: &'a [Arc<WorkloadArtifact>]) -> SessionPool<'a> {
        SessionPool {
            artifacts,
            free: artifacts.iter().map(|_| Vec::new()).collect(),
            live: 0,
            stats: SessionPoolStats::default(),
        }
    }

    /// Checks out session state for `workload`, recycling a closed
    /// session's state when one is free.
    pub fn checkout(&mut self, session: u64, workload: usize) -> SessionState<'a> {
        self.stats.checkouts += 1;
        self.live += 1;
        self.stats.high_water = self.stats.high_water.max(self.live);
        if let Some(mut state) = self.free[workload].pop() {
            self.stats.reuses += 1;
            state.rebind(session);
            state
        } else {
            SessionState::fresh(&self.artifacts[workload].analysis, workload, session)
        }
    }

    /// Returns closed session state to the free list (arenas kept).
    pub fn recycle(&mut self, state: SessionState<'a>) {
        self.live = self.live.saturating_sub(1);
        self.stats.recycled += 1;
        self.free[state.workload].push(state);
    }

    /// Pool traffic so far.
    pub fn stats(&self) -> SessionPoolStats {
        self.stats
    }
}
