//! The long-lived service: a control plane that buffers each session's
//! batches and flushes them, one [`ipds_parallel::map_indexed`] task per
//! session, on scoped worker threads.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

use ipds_runtime::{GuestEvent, IpdsStats};
use ipds_telemetry::MetricsRegistry;

use crate::cache::WorkloadArtifact;
use crate::incident::{correlate, Incident, IncidentKind, RootCause, MIN_CLUSTER};
use crate::pool::{SessionPool, SessionState};
use crate::ServiceError;

/// Buffered events, summed over all sessions, that trigger a flush: 64Ki,
/// about what a 256-message queue of 256-event batches held.
const FLUSH_EVENTS: usize = 1 << 16;

/// One session's life, summarized at close (or at service shutdown for
/// sessions still open). Pure function of the session's event stream —
/// the bit-identity unit for the worker-count determinism guarantee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSummary {
    /// The guest session id.
    pub session: u64,
    /// The workload it ran.
    pub workload: String,
    /// Whether the session was rejected at open (image never verified).
    pub rejected: bool,
    /// Whether the guest closed the session (false: still open at
    /// shutdown, or rejected).
    pub closed: bool,
    /// Events ingested.
    pub events: u64,
    /// Batches ingested.
    pub batches: u64,
    /// The checker's final statistics.
    pub stats: IpdsStats,
    /// Incidents the session opened.
    pub incidents: Vec<Incident>,
}

/// Everything the service observed, merged deterministically at shutdown.
#[derive(Debug)]
pub struct ServiceReport {
    /// Every session, in session-id order (including rejected ones).
    pub sessions: Vec<SessionSummary>,
    /// Every incident, in session-id order (stable within a session).
    pub incidents: Vec<Incident>,
    /// The correlation stage's fleet-level verdicts.
    pub root_causes: Vec<RootCause>,
    /// The `service.*` / `fleet.*` counters and histograms (see
    /// `docs/SERVICE.md` for the canonical table).
    pub metrics: MetricsRegistry,
}

/// An open session: its pooled checker state and the batches submitted
/// since the last flush, in submission order.
#[derive(Debug)]
struct Live {
    state: SessionState,
    pending: Vec<Vec<GuestEvent>>,
}

/// The `ipdsd` engine: a control plane that checks guest sessions out of
/// one [`SessionPool`], buffers their batches, and checks the buffered
/// batches on scoped threads of [`ipds_parallel::map_indexed`].
///
/// `submit` only appends a batch to its session's pending list. A *flush*
/// runs one [`ipds_parallel::map_indexed`] task per session with pending
/// batches, in session-id order, each task replaying its session's batches
/// in submission order. Flushes happen when the buffered events reach a
/// fixed bound (64Ki events, so guest memory use stays capped), at every
/// [`Service::close`] and at [`Service::finish`]. A batch of fewer than 16
/// sessions runs inline on the caller's thread, so a one-worker service
/// never leaves it.
///
/// Checker state is per-session and the artifacts are immutable, so a
/// session's results depend only on its own stream: fleet results,
/// including the pool counters, are bit-identical for every worker count.
#[derive(Debug)]
pub struct Service<'a> {
    artifacts: &'a [Arc<WorkloadArtifact>],
    workers: usize,
    names: HashMap<&'a str, usize>,
    pool: SessionPool<'a>,
    live: BTreeMap<u64, Live>,
    buffered: usize,
    summaries: Vec<SessionSummary>,
    metrics: MetricsRegistry,
    closed: u64,
    batches: u64,
    events: u64,
    rejected: Vec<(u64, String)>,
}

impl<'a> Service<'a> {
    /// Starts a service over the verified artifacts that checks sessions
    /// on up to `workers` threads. Sessions open by workload *name*;
    /// a name with no verified artifact is refused (see
    /// [`Service::open`]).
    pub fn start(artifacts: &'a [Arc<WorkloadArtifact>], workers: usize) -> Service<'a> {
        Service {
            artifacts,
            workers,
            names: artifacts
                .iter()
                .enumerate()
                .map(|(i, a)| (a.name.as_str(), i))
                .collect(),
            pool: SessionPool::new(artifacts),
            live: BTreeMap::new(),
            buffered: 0,
            summaries: Vec::new(),
            metrics: MetricsRegistry::new(),
            closed: 0,
            batches: 0,
            events: 0,
            rejected: Vec::new(),
        }
    }

    /// True if `session` is currently open.
    pub fn is_open(&self, session: u64) -> bool {
        self.live.contains_key(&session)
    }

    /// Opens a guest session against `workload`.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownWorkload`] if no verified artifact carries
    /// that name. For the service this *is* the tamper surface — a
    /// rejected image never produced an artifact — so the refusal is also
    /// recorded as an [`IncidentKind::ImageTamper`] incident for the
    /// correlation stage.
    pub fn open(&mut self, session: u64, workload: &str) -> Result<(), ServiceError> {
        debug_assert!(!self.is_open(session), "session {session} already open");
        let Some(&idx) = self.names.get(workload) else {
            self.rejected.push((session, workload.to_string()));
            return Err(ServiceError::UnknownWorkload {
                name: workload.to_string(),
            });
        };
        let state = self.pool.checkout(session, idx);
        self.live.insert(
            session,
            Live {
                state,
                pending: Vec::new(),
            },
        );
        Ok(())
    }

    /// Submits one batch of the session's committed event stream. The batch
    /// is buffered; it is checked by the next flush.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] if the session is not open.
    pub fn submit(&mut self, session: u64, events: Vec<GuestEvent>) -> Result<(), ServiceError> {
        let Some(live) = self.live.get_mut(&session) else {
            return Err(ServiceError::UnknownSession { session });
        };
        self.batches += 1;
        self.events += events.len() as u64;
        self.buffered += events.len();
        self.metrics
            .observe("service.batch_events", events.len() as u64);
        live.pending.push(events);
        if self.buffered >= FLUSH_EVENTS {
            self.flush();
        }
        Ok(())
    }

    /// Closes a session: flushes every buffered batch, then summarizes the
    /// session and recycles its state into the pool.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] if the session is not open.
    pub fn close(&mut self, session: u64) -> Result<(), ServiceError> {
        if !self.is_open(session) {
            return Err(ServiceError::UnknownSession { session });
        }
        self.flush();
        let live = self.live.remove(&session).expect("checked open above");
        self.closed += 1;
        self.retire(live.state, true);
        Ok(())
    }

    /// Checks every buffered batch: one `map_indexed` task per session with
    /// pending batches, in session-id order.
    fn flush(&mut self) {
        self.buffered = 0;
        let artifacts = self.artifacts;
        // Each task locks only its own session, so the locks never contend;
        // they hand `map_indexed`'s shared `Fn` closure mutable access.
        let tasks: Vec<Mutex<&mut Live>> = self
            .live
            .values_mut()
            .filter(|live| !live.pending.is_empty())
            .map(Mutex::new)
            .collect();
        ipds_parallel::map_indexed(
            tasks.len() as u32,
            self.workers,
            || (),
            |(), i| {
                let mut guard = tasks[i as usize]
                    .lock()
                    .expect("one task per session: never poisoned");
                let Live { state, pending } = &mut **guard;
                let name = &artifacts[state.workload].name;
                for batch in pending.drain(..) {
                    state.ingest(name, &batch);
                }
            },
        );
    }

    /// Summarizes a session and returns its state to the pool.
    fn retire(&mut self, state: SessionState, closed: bool) {
        self.summaries.push(SessionSummary {
            session: state.session(),
            workload: self.artifacts[state.workload].name.clone(),
            rejected: false,
            closed,
            events: state.events(),
            batches: state.batches(),
            stats: *state.checker.stats(),
            incidents: state.incidents().to_vec(),
        });
        self.pool.recycle(state);
    }

    /// Shuts the service down: flushes every buffered batch, summarizes the
    /// sessions still open, merges per-session results in session-id order,
    /// runs the correlation stage and assembles the canonical counters.
    pub fn finish(mut self) -> ServiceReport {
        self.flush();
        // Sessions still open at shutdown summarize too, in id order.
        for live in std::mem::take(&mut self.live).into_values() {
            self.retire(live.state, false);
        }
        let mut sessions = self.summaries;
        for (session, workload) in &self.rejected {
            sessions.push(SessionSummary {
                session: *session,
                workload: workload.clone(),
                rejected: true,
                closed: false,
                events: 0,
                batches: 0,
                stats: IpdsStats::default(),
                incidents: vec![Incident {
                    session: *session,
                    workload: workload.clone(),
                    kind: IncidentKind::ImageTamper,
                    seq: 0,
                    alarm_count: 0,
                }],
            });
        }
        sessions.sort_by_key(|s| s.session);
        let incidents: Vec<Incident> = sessions
            .iter()
            .flat_map(|s| s.incidents.iter().cloned())
            .collect();
        let root_causes = correlate(&incidents, MIN_CLUSTER);
        let pool = self.pool.stats();
        let mut metrics = self.metrics;
        // Every accepted open is one checkout, and the pool's high water is
        // the fleet's concurrent-session peak.
        metrics.add("service.sessions_opened", pool.checkouts);
        metrics.add("service.sessions_closed", self.closed);
        metrics.add("service.sessions_rejected", self.rejected.len() as u64);
        metrics.add("service.peak_sessions", pool.high_water);
        metrics.add("service.batches_ingested", self.batches);
        metrics.add("service.events_ingested", self.events);
        metrics.add("service.incidents_opened", incidents.len() as u64);
        metrics.add("service.pool_checkouts", pool.checkouts);
        metrics.add("service.pool_reuses", pool.reuses);
        metrics.add("service.pool_high_water", pool.high_water);
        metrics.add("fleet.root_causes", root_causes.len() as u64);
        let count = |f: fn(&RootCause) -> bool| root_causes.iter().filter(|c| f(c)).count() as u64;
        metrics.add(
            "fleet.tampered_images",
            count(|c| matches!(c, RootCause::TamperedImage { .. })),
        );
        metrics.add(
            "fleet.hot_regions",
            count(|c| matches!(c, RootCause::HotMemoryRegion { .. })),
        );
        metrics.add(
            "fleet.isolated_noise",
            count(|c| matches!(c, RootCause::IsolatedNoise { .. })),
        );
        ServiceReport {
            sessions,
            incidents,
            root_causes,
            metrics,
        }
    }
}
