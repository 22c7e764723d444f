//! The deterministic synthetic fleet: seeded per-session attack/fault
//! schedules, shadow-validated injections, ground-truth verification and
//! throughput accounting. This is what `ipdsc serve` and the `exp_all`
//! fleet phase drive.

use std::sync::Arc;
use std::time::Instant;

use ipds_analysis::{analyze_program, AnalysisConfig, BranchStatus, ProgramAnalysis, TableImage};
use ipds_ir::Program;
use ipds_runtime::{GuestEvent, IpdsChecker};
use ipds_sim::rng::{split_seed, StdRng};
use ipds_sim::{EventRecorder, ExecLimits, ExecStatus, Input, Interp};
use ipds_telemetry::MetricsRegistry;
use ipds_workloads::Workload;

use crate::cache::ImageCache;
use crate::engine::{Service, SessionSummary};
use crate::incident::{correlate, Incident, IncidentKind, RootCause, MIN_CLUSTER};
use crate::pool::SessionState;

/// Candidate schedules tried per injection before giving up (every try is
/// shadow-validated; the accept rate is the per-attack detection rate, so
/// a run of this many consecutive misses is practically impossible).
const SEARCH_TRIES: u64 = 256;

/// Spec for a deterministic synthetic fleet run — the service-layer
/// sibling of `CampaignSpec`/`FaultSpec`, sharing their `threads`/`seed`
/// vocabulary.
///
/// The plan derived from a spec is a pure function of the spec: workload
/// list, session count and seed fully determine every session's event
/// stream and every injected tamper, and the injections are
/// *shadow-validated* (replayed through a reference checker) at planning
/// time, so a correct service surfaces **all** of them — a missed one is
/// a service bug, which is exactly what the `ipdsc serve` CI gate checks.
#[derive(Debug, Clone)]
pub struct ServiceSpec {
    workloads: Vec<Workload>,
    sessions: usize,
    batch: usize,
    threads: usize,
    seed: u64,
    window: usize,
}

impl Default for ServiceSpec {
    fn default() -> ServiceSpec {
        ServiceSpec {
            workloads: ipds_workloads::all(),
            sessions: 64,
            batch: 256,
            threads: ipds_sim::default_threads(),
            seed: 0x1bd5,
            window: 16,
        }
    }
}

impl ServiceSpec {
    /// Starts from the defaults: all ten workloads, 64 sessions, batches
    /// of 256 events, a 16-session concurrency window, machine-default
    /// worker threads, seed `0x1bd5`.
    pub fn new() -> ServiceSpec {
        ServiceSpec::default()
    }

    /// The workload set sessions draw from, round-robin (default: all
    /// ten).
    pub fn workloads(mut self, workloads: Vec<Workload>) -> Self {
        assert!(!workloads.is_empty(), "fleet needs at least one workload");
        self.workloads = workloads;
        self
    }

    /// Guest sessions in the fleet (default 64).
    pub fn sessions(mut self, sessions: usize) -> Self {
        self.sessions = sessions;
        self
    }

    /// Events per ingested batch (default 256).
    pub fn batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Worker threads the service's flushes may use (default: machine-wide
    /// [`ipds_sim::default_threads`]). Fleet results are bit-identical
    /// for every value.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Fleet master seed (default `0x1bd5`); every per-session schedule
    /// derives its own xoshiro stream from it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sessions concurrently open (default 16): the driver opens a window,
    /// interleaves its batches round-robin, closes it, and moves on — so
    /// the session pool actually recycles.
    pub fn window(mut self, window: usize) -> Self {
        self.window = window.max(1);
        self
    }

    /// Builds the deterministic fleet plan: compiles the workloads, picks
    /// the injection roles, generates and shadow-validates every session
    /// stream. Expensive (it interprets every session once) — tests that
    /// execute the same fleet at several worker counts should plan once.
    pub fn plan(&self) -> FleetPlan {
        plan_fleet(self)
    }

    /// Plans and executes the fleet with the spec's worker count.
    pub fn run(&self) -> FleetReport {
        self.plan().execute(self.threads)
    }
}

/// One session's script: which workload it opens and the committed event
/// stream it pushes (empty for sessions of the image-tampered workload —
/// they are refused at open).
#[derive(Debug, Clone)]
struct SessionScript {
    workload: String,
    events: Arc<Vec<GuestEvent>>,
}

/// A fully generated fleet: registration images, per-session scripts and
/// the ground-truth expectation. Pure data — execute it at any worker
/// count.
#[derive(Debug)]
pub struct FleetPlan {
    images: Vec<(String, TableImage)>,
    scripts: Vec<SessionScript>,
    expected_incidents: Vec<Incident>,
    expected_causes: Vec<RootCause>,
    batch: usize,
    window: usize,
}

/// The worker-count-invariant projection of a fleet run — what the
/// bit-identity guarantee (and its test) covers. Excludes wall-clock
/// throughput and the `service.pool_reuses`/`service.pool_high_water`
/// pair.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutcome {
    /// Every session summary, in session-id order.
    pub sessions: Vec<SessionSummary>,
    /// Every incident, in session-id order.
    pub incidents: Vec<Incident>,
    /// The correlation verdicts.
    pub root_causes: Vec<RootCause>,
    /// `service.*`/`fleet.*` counters, sorted by key
    /// (`service.pool_reuses` and `service.pool_high_water` excluded).
    pub counters: Vec<(String, u64)>,
}

/// Result of one fleet execution.
#[derive(Debug)]
pub struct FleetReport {
    /// The deterministic part (bit-identical across worker counts).
    pub outcome: FleetOutcome,
    /// Ground-truth violations: injected tampers the service failed to
    /// surface, unexpected incidents, or wrong root-cause verdicts.
    /// Empty means the fleet behaved exactly as planned.
    pub missed: Vec<String>,
    /// Full metrics (including cache, fleet and scheduler-shaped keys).
    pub metrics: MetricsRegistry,
    /// Ingest wall time in seconds (open → drained).
    pub elapsed: f64,
    /// Sessions per second of ingest wall time.
    pub sessions_per_sec: f64,
    /// Events per second of ingest wall time.
    pub events_per_sec: f64,
}

impl FleetReport {
    /// True if every injected tamper surfaced with the right root cause
    /// and nothing alarmed that should not have.
    pub fn ok(&self) -> bool {
        self.missed.is_empty()
    }
}

/// Tag spaces keeping every derived stream disjoint.
const TAG_INPUTS: u64 = 0x20_0000;
const TAG_HOT: u64 = 0x30_0000;
const TAG_MEM: u64 = 0x40_0000;
const TAG_BSV: u64 = 0x50_0000;
const TAG_IMAGE: u64 = 0x60_0000;

/// One compiled workload.
struct CompiledWorkload {
    name: String,
    program: Program,
    analysis: ProgramAnalysis,
}

/// Replays a stream through a reference checker — the replay the
/// service's flushes run.
fn shadow(analysis: &ProgramAnalysis, events: &[GuestEvent]) -> IpdsChecker {
    let mut checker = IpdsChecker::new(analysis);
    checker.replay(events);
    checker
}

/// Interprets one clean session once under the default limits, returning
/// its committed stream and step count.
fn clean_run(cw: &CompiledWorkload, inputs: &[Input]) -> (Vec<GuestEvent>, u64) {
    let mut interp = Interp::new(&cw.program, inputs.to_vec(), ExecLimits::default());
    let mut rec = EventRecorder::new(interp.main());
    let status = interp.run(&mut rec);
    assert!(
        matches!(status, ExecStatus::Exited(_)),
        "workload `{}` golden run must exit cleanly",
        cw.name
    );
    (rec.events, interp.steps())
}

/// Searches seeded candidates for a memory tamper the checker *detects*:
/// run to a trigger step, flip one bit of one live cell, run out, shadow
/// replay. Mirrors the Fig. 7 attack shape (single-location tampering of
/// live data).
fn detected_mem_stream(
    cw: &CompiledWorkload,
    inputs: &[Input],
    golden_steps: u64,
    seed: u64,
) -> Vec<GuestEvent> {
    let limits = ExecLimits::campaign(golden_steps);
    let mut interp = Interp::new(&cw.program, inputs.to_vec(), limits);
    for k in 0..SEARCH_TRIES {
        let mut rng = StdRng::seed_from_u64(split_seed(seed, k));
        let trigger = rng.gen_range(1..golden_steps.max(2));
        interp.reset(inputs.iter().cloned());
        let mut rec = EventRecorder::new(interp.main());
        interp.run_steps(trigger, &mut rec);
        if *interp.status() != ExecStatus::Running {
            continue;
        }
        let cells = interp.mem.live_mutable_cells();
        if cells.is_empty() {
            continue;
        }
        let cell = cells[rng.gen_range(0..cells.len())];
        let old = interp.mem.load(cell);
        interp.mem.tamper(cell, old ^ (1i64 << rng.gen_range(0..8)));
        interp.run(&mut rec);
        if shadow(&cw.analysis, &rec.events).detected() {
            return rec.events;
        }
    }
    panic!(
        "no detectable memory tamper found for `{}` in {SEARCH_TRIES} tries",
        cw.name
    );
}

/// Searches seeded candidates for a BSV bit flip the checker detects: a
/// `FaultBsv` event spliced into the clean stream, its corrupted status
/// chosen to contradict the slot's current expectation.
fn detected_bsv_stream(cw: &CompiledWorkload, clean: &[GuestEvent], seed: u64) -> Vec<GuestEvent> {
    for k in 0..SEARCH_TRIES {
        let mut rng = StdRng::seed_from_u64(split_seed(seed, k));
        if clean.len() < 2 {
            break;
        }
        let pos = rng.gen_range(1..clean.len());
        // Learn the injection surface at `pos` from a shadow prefix.
        let mut prefix = shadow(&cw.analysis, &clean[..pos]);
        let slots = prefix.top_bsv_len();
        if slots == 0 || prefix.detected() {
            continue;
        }
        let slot = rng.gen_range(0..slots) as u32;
        let status = match prefix.inject_bsv(slot as usize, BranchStatus::Taken) {
            Some(BranchStatus::Taken) => BranchStatus::NotTaken,
            Some(_) => BranchStatus::Taken,
            None => continue,
        };
        let mut events = Vec::with_capacity(clean.len() + 1);
        events.extend_from_slice(&clean[..pos]);
        events.push(GuestEvent::FaultBsv { slot, status });
        events.extend_from_slice(&clean[pos..]);
        if shadow(&cw.analysis, &events).detected() {
            return events;
        }
    }
    panic!(
        "no detectable BSV flip found for `{}` in {SEARCH_TRIES} tries",
        cw.name
    );
}

fn plan_fleet(spec: &ServiceSpec) -> FleetPlan {
    let w = &spec.workloads;
    assert!(!w.is_empty(), "fleet needs at least one workload");
    let mut rng = StdRng::seed_from_u64(split_seed(spec.seed, 0));
    let compiled: Vec<CompiledWorkload> = w
        .iter()
        .map(|wl| {
            let program = wl.program();
            let analysis = analyze_program(&program, &AnalysisConfig::default());
            CompiledWorkload {
                name: wl.name.to_string(),
                program,
                analysis,
            }
        })
        .collect();

    // Injection roles: one workload's image is tampered (all its sessions
    // refused), one workload hosts the shared "hot region" tamper, and up
    // to two sessions on other workloads get isolated one-off tampers.
    let image_victim = (w.len() >= 2).then(|| rng.gen_range(0..w.len()));
    let hot_victim = (w.len() >= 2).then(|| {
        let mut pick = rng.gen_range(0..w.len());
        while Some(pick) == image_victim {
            pick = rng.gen_range(0..w.len());
        }
        pick
    });
    let is_role = |wi: usize| Some(wi) == image_victim || Some(wi) == hot_victim;
    let mut free_sessions = (0..spec.sessions).filter(|s| !is_role(s % w.len()));
    let mem_session = free_sessions.next();
    let bsv_session = {
        let mem_wl = mem_session.map(|s| s % w.len());
        let mut rest = free_sessions.peekable();
        let fallback = rest.peek().copied();
        rest.find(|s| Some(s % w.len()) != mem_wl).or(fallback)
    };

    // Each session is interpreted clean once: that run is its stream, and
    // its step count sets the campaign limits of a tampered run (so one
    // that loops cannot drag the plan out).
    let session_inputs = |s: usize| {
        let wl = &w[s % w.len()];
        wl.inputs(split_seed(spec.seed, TAG_INPUTS + s as u64))
    };

    // The hot workload's sessions all replay the *same* tampered stream —
    // one corrupted shared resource, many victims — so they alarm at the
    // same PC.
    let hot_stream: Option<Arc<Vec<GuestEvent>>> = hot_victim.map(|hv| {
        let cw = &compiled[hv];
        let inputs = w[hv].inputs(split_seed(spec.seed, TAG_HOT));
        let (_, steps) = clean_run(cw, &inputs);
        Arc::new(detected_mem_stream(
            cw,
            &inputs,
            steps,
            split_seed(spec.seed, TAG_HOT + 1),
        ))
    });

    let mut scripts = Vec::with_capacity(spec.sessions);
    for s in 0..spec.sessions {
        let wi = s % w.len();
        let cw = &compiled[wi];
        let events = if Some(wi) == image_victim {
            Arc::new(Vec::new())
        } else if Some(wi) == hot_victim {
            Arc::clone(hot_stream.as_ref().expect("hot stream planned"))
        } else {
            let inputs = session_inputs(s);
            let (clean, steps) = clean_run(cw, &inputs);
            if mem_session == Some(s) {
                Arc::new(detected_mem_stream(
                    cw,
                    &inputs,
                    steps,
                    split_seed(spec.seed, TAG_MEM + s as u64),
                ))
            } else if bsv_session == Some(s) {
                Arc::new(detected_bsv_stream(
                    cw,
                    &clean,
                    split_seed(spec.seed, TAG_BSV + s as u64),
                ))
            } else {
                Arc::new(clean)
            }
        };
        scripts.push(SessionScript {
            workload: cw.name.clone(),
            events,
        });
    }

    // Registration images: genuine bytes for everyone except the image
    // victim, whose payload gets one bit flipped (the loader's checksum
    // rejects every single-bit flip — `tests/table_image.rs`).
    let images = compiled
        .iter()
        .enumerate()
        .map(|(wi, cw)| {
            let image = TableImage::build(&cw.analysis);
            if Some(wi) == image_victim {
                let mut bytes = image.as_bytes().to_vec();
                let payload = image.payload_offset().expect("built image has a header");
                let mut rng = StdRng::seed_from_u64(split_seed(spec.seed, TAG_IMAGE));
                let off = (payload + rng.gen_range(0..(bytes.len() - payload).max(1)))
                    .min(bytes.len() - 1);
                bytes[off] ^= 1u8 << rng.gen_range(0..8);
                (cw.name.clone(), TableImage::from_bytes(bytes))
            } else {
                (cw.name.clone(), image)
            }
        })
        .collect();

    // Ground truth: ingest every script into a fresh `SessionState` — the
    // expected incidents are *exactly* what a correct service must
    // produce, and the expected causes follow from the documented
    // correlation rules.
    let mut expected_incidents = Vec::new();
    for (s, script) in scripts.iter().enumerate() {
        let wi = s % w.len();
        if Some(wi) == image_victim {
            expected_incidents.push(Incident {
                session: s as u64,
                workload: script.workload.clone(),
                kind: IncidentKind::ImageTamper,
                seq: 0,
                alarm_count: 0,
            });
            continue;
        }
        let mut state = SessionState::fresh(&compiled[wi].analysis, 0, 0);
        state.ingest(&script.workload, &script.events);
        expected_incidents.extend(state.incidents().iter().map(|inc| Incident {
            session: s as u64,
            ..inc.clone()
        }));
    }
    let expected_causes = correlate(&expected_incidents, MIN_CLUSTER);

    FleetPlan {
        images,
        scripts,
        expected_incidents,
        expected_causes,
        batch: spec.batch,
        window: spec.window,
    }
}

impl FleetPlan {
    /// Sessions in the plan.
    pub fn sessions(&self) -> usize {
        self.scripts.len()
    }

    /// Total events the fleet will push.
    pub fn events(&self) -> u64 {
        self.scripts.iter().map(|s| s.events.len() as u64).sum()
    }

    /// Executes the plan at the given ingestion-worker count and verifies
    /// the outcome against the plan's ground truth.
    pub fn execute(&self, threads: usize) -> FleetReport {
        let mut cache = ImageCache::new();
        let mut artifacts = Vec::new();
        for (name, image) in &self.images {
            if let Ok(artifact) = cache.load(name, image) {
                artifacts.push(artifact);
            }
        }
        let started = Instant::now();
        let mut service = Service::start(&artifacts, threads);
        let mut s = 0;
        while s < self.scripts.len() {
            let end = (s + self.window).min(self.scripts.len());
            for id in s..end {
                let _ = service.open(id as u64, &self.scripts[id].workload);
            }
            // Round-robin the window's batches: every open session makes
            // progress each turn, like interleaved guest traffic would.
            let mut cursors = vec![0usize; end - s];
            loop {
                let mut any = false;
                for (j, id) in (s..end).enumerate() {
                    if !service.is_open(id as u64) {
                        continue;
                    }
                    let events = &self.scripts[id].events;
                    let at = cursors[j];
                    if at < events.len() {
                        let hi = (at + self.batch).min(events.len());
                        let _ = service.submit(id as u64, events[at..hi].to_vec());
                        cursors[j] = hi;
                        any = true;
                    }
                }
                if !any {
                    break;
                }
            }
            for id in s..end {
                if service.is_open(id as u64) {
                    let _ = service.close(id as u64);
                }
            }
            s = end;
        }
        let report = service.finish();
        let elapsed = started.elapsed().as_secs_f64().max(1e-9);

        let mut metrics = report.metrics;
        metrics.add("service.images_verified", cache.stats().verified);
        metrics.add("service.image_hits", cache.stats().hits);
        metrics.add("service.image_rejects", cache.stats().rejects);

        let mut missed = Vec::new();
        for exp in &self.expected_incidents {
            if !report.incidents.contains(exp) {
                missed.push(format!(
                    "missed incident: session {} {} {:?}",
                    exp.session, exp.workload, exp.kind
                ));
            }
        }
        for got in &report.incidents {
            if !self.expected_incidents.contains(got) {
                missed.push(format!(
                    "unexpected incident: session {} {} {:?}",
                    got.session, got.workload, got.kind
                ));
            }
        }
        if report.root_causes != self.expected_causes {
            missed.push(format!(
                "root causes diverge: expected {:?}, got {:?}",
                self.expected_causes, report.root_causes
            ));
        }

        let events_total: u64 = report.sessions.iter().map(|s| s.events).sum();
        let counters = {
            let mut c: Vec<(String, u64)> = metrics
                .counters()
                // The pool pair is worker-count-invariant too, but folding
                // it in would change every recorded fleet digest.
                .filter(|(k, _)| *k != "service.pool_reuses" && *k != "service.pool_high_water")
                .map(|(k, v)| (k.to_string(), v))
                .collect();
            c.sort();
            c
        };
        FleetReport {
            outcome: FleetOutcome {
                sessions: report.sessions,
                incidents: report.incidents,
                root_causes: report.root_causes,
                counters,
            },
            missed,
            metrics,
            elapsed,
            sessions_per_sec: self.scripts.len() as f64 / elapsed,
            events_per_sec: events_total as f64 / elapsed,
        }
    }
}
