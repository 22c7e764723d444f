//! Pooled per-session checker state.

use std::sync::Arc;

use ipds_runtime::{GuestEvent, IpdsChecker};

use crate::cache::WorkloadArtifact;
use crate::incident::{Incident, IncidentKind};

/// Pool traffic counters (the `service.pool_*` telemetry keys).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionPoolStats {
    /// Sessions checked out (fresh or recycled).
    pub checkouts: u64,
    /// Checkouts served from the free list — no fresh checker was built.
    pub reuses: u64,
    /// Most sessions simultaneously checked out.
    pub high_water: u64,
}

/// Everything one open guest session owns on the service side: the pooled
/// checker (built from the shared artifact's tables) and the incident fold
/// state. Recycled — not dropped — on close, so the checker's tables and
/// BSV frame pool survive into the next session of the same workload.
#[derive(Debug)]
pub struct SessionState {
    /// The wrapped checker (exposed for inspection; tests read alarms and
    /// stats off it).
    pub checker: IpdsChecker,
    /// Index of the workload artifact this session runs.
    pub workload: usize,
    session: u64,
    events: u64,
    batches: u64,
    incidents: Vec<Incident>,
    alarms_folded: usize,
}

impl SessionState {
    /// Builds a fresh (un-pooled) session over loaded tables — the fleet
    /// planner's ground-truth entry point; the service itself checks
    /// sessions out of a [`SessionPool`].
    pub fn fresh(analysis: &ipds_analysis::ProgramAnalysis, workload: usize, session: u64) -> Self {
        SessionState {
            checker: IpdsChecker::new(analysis),
            workload,
            session,
            events: 0,
            batches: 0,
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

    /// Incidents opened so far (at most one per kind, alarms fold).
    pub fn incidents(&self) -> &[Incident] {
        &self.incidents
    }

    /// Replays one batch through the checker with
    /// [`IpdsChecker::replay`], which accepts any event sequence: it skips
    /// and records malformed events itself. New alarms and the checker's
    /// first violation then fold into the session's incidents.
    pub fn ingest(&mut self, workload_name: &str, events: &[GuestEvent]) {
        self.batches += 1;
        self.events += events.len() as u64;
        self.checker.replay(events);
        self.fold(workload_name);
    }

    /// Folds what the checker recorded since the last batch. The first
    /// alarm opens the session's `InfeasiblePath` incident and every alarm
    /// bumps its count; the first violation opens its `ProtocolViolation`.
    /// Both open in branch-sequence order, the alarm first on a tie (an
    /// alarm's branch precedes a violating call or return at the same
    /// count), so where batches split the stream never shows.
    fn fold(&mut self, workload_name: &str) {
        let fresh = &self.checker.alarms()[self.alarms_folded..];
        self.alarms_folded += fresh.len();
        let path = fresh.first().map(|a| {
            let kind = IncidentKind::InfeasiblePath {
                pc: a.pc,
                expected: a.expected,
                actual: a.actual,
            };
            (a.branch_seq, kind, fresh.len() as u64)
        });
        let violation = self.checker.violation().map(|v| {
            let kind = IncidentKind::ProtocolViolation { error: v.error };
            (v.branch_seq, kind, 0)
        });
        // A stable sort: the alarm stays first on a tie.
        let mut opened = [path, violation];
        opened.sort_by_key(|o| o.as_ref().map(|(seq, ..)| *seq));
        for (seq, kind, alarms) in opened.into_iter().flatten() {
            self.open(workload_name, kind, seq, alarms);
        }
    }

    /// Adds `alarms` to the session's incident of `kind`'s class, opening
    /// it at committed-branch sequence `seq` if the session has none yet.
    /// `seq` comes from the triggering event itself (an alarm's or a
    /// violation's `branch_seq`), so it is invariant under batching.
    fn open(&mut self, workload_name: &str, kind: IncidentKind, seq: u64, alarms: u64) {
        let class = std::mem::discriminant(&kind);
        if let Some(inc) = self
            .incidents
            .iter_mut()
            .find(|inc| std::mem::discriminant(&inc.kind) == class)
        {
            inc.alarm_count += alarms;
            return;
        }
        self.incidents.push(Incident {
            session: self.session,
            workload: workload_name.to_string(),
            kind,
            seq,
            alarm_count: alarms,
        });
    }
}

/// The service's free lists of recycled [`SessionState`], one per workload
/// (checkers are table-bound, so state only recycles within a workload).
#[derive(Debug)]
pub struct SessionPool<'a> {
    artifacts: &'a [Arc<WorkloadArtifact>],
    free: Vec<Vec<SessionState>>,
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
    pub fn checkout(&mut self, session: u64, workload: usize) -> SessionState {
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
    pub fn recycle(&mut self, state: SessionState) {
        self.live = self.live.saturating_sub(1);
        self.free[state.workload].push(state);
    }

    /// Pool traffic so far.
    pub fn stats(&self) -> SessionPoolStats {
        self.stats
    }
}
