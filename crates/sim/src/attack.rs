//! Simulated memory-tampering attacks and detection campaigns (§6).
//!
//! The paper's protocol: attack each server program 100 times
//! *independently*, each attack tampering one (randomly selected) memory
//! location at one instant — format-string bugs give an arbitrary-location
//! write, buffer overflows are restricted to stack data. For each attack it
//! is recorded whether the tampering changed the program's control flow at
//! all, and whether the IPDS detected it. IPDS is not designed to catch
//! tamperings that leave control flow unchanged.
//!
//! [`AttackRunner::run`] reproduces one such experiment: a golden (clean)
//! run records the branch trace; the attack run replays the same inputs,
//! tampers at the trigger step, feeds every committed branch through the
//! [`IpdsChecker`], and diffs traces.

use ipds_analysis::ProgramAnalysis;
use ipds_ir::Program;
use ipds_runtime::{IpdsChecker, IpdsStats, BSV_POOL_CAP};
use ipds_telemetry::MetricsRegistry;

use crate::interp::{ExecLimits, ExecStatus, Input, Interp, InterpSnapshot};
use crate::observer::{BranchTrace, IpdsObserver, Tee};
use crate::rng::{split_seed, StdRng};
use ipds_runtime::CheckerSnapshot;

/// The canonical `campaign.*` counter list. docs/OBSERVABILITY.md documents
/// exactly these keys, and every [`CampaignResult::metrics`] registry holds
/// exactly this set plus the `checker.*` keys (enforced by
/// `tests/docs_metrics.rs`).
pub const CAMPAIGN_COUNTERS: &[&str] = &[
    "campaign.attacks",
    "campaign.attacks_tampered",
    "campaign.attacks_cf_changed",
    "campaign.attacks_detected",
];

/// The canonical `campaign.*` histogram list (same contract as
/// [`CAMPAIGN_COUNTERS`]). `campaign.detection_lag_branches` is observed
/// only for detected attacks, so a campaign without detections omits it.
pub const CAMPAIGN_HISTOGRAMS: &[&str] =
    &["campaign.attack_steps", "campaign.detection_lag_branches"];

/// Which vulnerability class the attack models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackModel {
    /// Format-string: the attacker can write an arbitrary live memory cell
    /// (globals or any active stack frame).
    FormatString,
    /// Buffer overflow: the attacker can write stack cells only (the
    /// paper's refined single-location variant).
    BufferOverflow,
    /// Contiguous buffer overflow: the attacker smashes a run of adjacent
    /// stack cells, the shape §6 mentions real overflows take before the
    /// paper refines to single locations ("buffer overflow attacks normally
    /// tamper a continuous block of memory"). The payload is ASCII-like
    /// filler, as an overlong string would plant.
    ContiguousOverflow,
}

/// Outcome of one attack experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackOutcome {
    /// The tampering happened (a live cell existed at the trigger point).
    pub tampered: bool,
    /// The branch trace diverged from the golden run.
    pub control_flow_changed: bool,
    /// The IPDS raised at least one alarm.
    pub detected: bool,
    /// Committed branches between the first trace divergence and the first
    /// alarm (a semantic detection latency), when both happened.
    pub detection_lag_branches: Option<u64>,
    /// How the attacked run terminated.
    pub status: ExecStatus,
    /// Interpreter steps the attacked run took.
    pub steps: u64,
    /// The checker's work over the whole attacked run: BCV probes, BSV
    /// verifications, BAT updates and alarms (§5.1).
    pub checker: IpdsStats,
}

/// Aggregate results of a campaign (one bar pair of Fig. 7).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// Attacks executed.
    pub attacks: u32,
    /// Attacks whose tampering changed control flow.
    pub cf_changed: u32,
    /// Attacks detected by the IPDS.
    pub detected: u32,
    /// Mean semantic detection lag in branches (over detected attacks).
    pub mean_lag_branches: f64,
    /// The same fold's named metrics: the [`CAMPAIGN_COUNTERS`], the
    /// [`CAMPAIGN_HISTOGRAMS`] and the summed `checker.*` work.
    pub metrics: MetricsRegistry,
}

impl CampaignResult {
    /// Fraction of attacks that changed control flow (Fig. 7's first bar).
    pub fn cf_changed_rate(&self) -> f64 {
        self.cf_changed as f64 / self.attacks.max(1) as f64
    }

    /// Fraction of attacks detected (Fig. 7's second bar).
    pub fn detected_rate(&self) -> f64 {
        self.detected as f64 / self.attacks.max(1) as f64
    }

    /// Detection rate among control-flow-changing attacks (the paper's
    /// 59.3% headline).
    pub fn detected_given_cf(&self) -> f64 {
        self.detected as f64 / self.cf_changed.max(1) as f64
    }
}

/// A campaign specification.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Number of independent attacks (the paper uses 100).
    pub attacks: u32,
    /// RNG seed (attacks are derived deterministically from it).
    pub seed: u64,
    /// Vulnerability model.
    pub model: AttackModel,
    /// Execution limits per run.
    pub limits: ExecLimits,
}

impl Default for Campaign {
    fn default() -> Self {
        Campaign {
            attacks: 100,
            seed: 0x1bd5,
            model: AttackModel::FormatString,
            limits: ExecLimits::default(),
        }
    }
}

/// Artifacts of the clean reference execution: the golden branch trace plus
/// run metadata. Captured once per (program, input script) and shared —
/// immutably — by every attack and every worker thread of a campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenRun {
    /// `(pc, direction)` pairs in commit order.
    pub trace: Vec<(u64, bool)>,
    /// Interpreter steps the clean run took.
    pub steps: u64,
    /// How the clean run terminated.
    pub status: ExecStatus,
}

impl GoldenRun {
    /// Runs the golden (clean) execution and records its branch trace.
    pub fn capture(program: &Program, inputs: &[Input], limits: ExecLimits) -> GoldenRun {
        let mut interp = Interp::new(program, inputs.to_vec(), limits);
        let mut trace = BranchTrace::default();
        let status = interp.run(&mut trace);
        GoldenRun {
            trace: trace.trace,
            steps: interp.steps(),
            status,
        }
    }
}

/// Periodic snapshots of the clean execution: interpreter state, checker
/// state and committed-branch count captured every few thousand steps of
/// one golden run. Every attack's pre-trigger phase re-executes a prefix of
/// exactly that run, so a campaign captures one `WarmStart` and each attack
/// restores the nearest snapshot at-or-before its trigger step — a few
/// memcpys — instead of re-interpreting the whole prefix. Snapshots are
/// immutable after capture and shared by reference across worker threads.
///
/// Warm starts are transparent to campaign results: restoring a snapshot
/// and replaying the remaining steps commits the same state, branch trace
/// suffix and checker verdicts as interpreting from scratch (the prefix is
/// deterministic), and the trace diff accounts for the elided golden
/// prefix. Checker statistics stay exact too: a restored snapshot carries
/// the prefix's [`IpdsStats`], and a reconverged attack ends with the clean
/// run's final stats.
#[derive(Debug)]
pub struct WarmStart {
    snaps: Vec<WarmSnap>,
    /// Steps the full clean run took (the fast-forward outcome's step
    /// count).
    final_steps: u64,
    /// How the clean run terminated.
    final_status: ExecStatus,
    /// The checker's statistics at the end of the clean run: a reconverged
    /// attack's remaining run is the golden suffix, so these are its stats.
    final_stats: IpdsStats,
    /// True if the clean run raised no checker alarm — the precondition for
    /// reconvergence fast-forwarding (a clean suffix implies an alarm-free
    /// suffix). Always true in practice: the checker is zero-false-positive
    /// on benign traces.
    clean: bool,
}

#[derive(Debug)]
struct WarmSnap {
    /// Interpreter steps executed at capture time.
    steps: u64,
    /// Golden branches committed at capture time (the trace-diff offset).
    trace_len: usize,
    interp: InterpSnapshot,
    checker: CheckerSnapshot,
    /// Bitmask over cell addresses: every cell the golden run reads from
    /// this snapshot to the end of the run (instruction loads and builtin
    /// string/copy reads). Reconvergence only requires memory equality on
    /// these cells — a tampered value the remaining run never looks at
    /// cannot change its behaviour.
    suffix_reads: Vec<u64>,
}

/// Observer recording every cell address read by execution (instruction
/// loads plus builtin-level reads) as a bitmask. Teed alongside the golden
/// capture run to build the per-snapshot suffix read-sets.
#[derive(Debug, Default)]
struct ReadSetRecorder {
    bits: Vec<u64>,
}

impl ReadSetRecorder {
    /// Hands the accumulated segment mask to the caller and starts the next
    /// segment empty.
    fn take_segment(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.bits)
    }
}

impl crate::observer::ExecObserver for ReadSetRecorder {
    const WANTS_MEM: bool = true;
    const WANTS_BUILTIN_READS: bool = true;

    fn on_mem(&mut self, _pc: u64, addr: usize, store: bool) {
        if !store {
            let w = addr / 64;
            if w >= self.bits.len() {
                self.bits.resize(w + 1, 0);
            }
            self.bits[w] |= 1u64 << (addr % 64);
        }
    }
}

/// In-place union of two address bitmasks (`dst |= src`).
fn or_mask_into(dst: &mut Vec<u64>, src: &[u64]) {
    if src.len() > dst.len() {
        dst.resize(src.len(), 0);
    }
    for (d, s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

impl WarmStart {
    /// Snapshot cadence: aim for ~128 snapshots across the run, but never
    /// denser than every 64 steps (below that restoring costs about as much
    /// as the replay it saves).
    fn interval(golden_steps: u64) -> u64 {
        (golden_steps / 128).max(64)
    }

    /// Re-runs the golden execution once, capturing a snapshot at step 0
    /// and then at a fixed cadence (about 128 snapshots per run, never
    /// closer than 64 steps apart). The checker is driven exactly as
    /// [`AttackRunner::run`] drives it, so restored state is
    /// indistinguishable from a cold prefix execution.
    pub fn capture(
        program: &Program,
        analysis: &ProgramAnalysis,
        inputs: &[Input],
        golden_steps: u64,
        limits: ExecLimits,
    ) -> WarmStart {
        let interval = WarmStart::interval(golden_steps);
        let mut interp = Interp::new(program, inputs.to_vec(), limits);
        let mut ipds = IpdsObserver::new(IpdsChecker::new(analysis));
        ipds.checker.on_call(interp.main());
        let mut trace = BranchTrace::default();
        let mut reads = ReadSetRecorder::default();
        let mut snaps = Vec::new();
        let mut segments = Vec::new();
        while *interp.status() == ExecStatus::Running {
            snaps.push(WarmSnap {
                steps: interp.steps(),
                trace_len: trace.trace.len(),
                interp: interp.snapshot(),
                checker: ipds.checker.snapshot(),
                suffix_reads: Vec::new(),
            });
            let mut inner = Tee::new(&mut trace, &mut ipds);
            let mut tee = Tee::new(&mut inner, &mut reads);
            interp.run_steps(interval, &mut tee);
            // Cells read between this snapshot and the next (or the end).
            segments.push(reads.take_segment());
        }
        debug_assert_eq!(
            interp.steps(),
            golden_steps,
            "capture must replay the golden run"
        );
        // Each snapshot's mask must cover every read from it to the END of
        // the run (reconvergence skips the whole tail), so accumulate the
        // per-segment sets back to front.
        let mut suffix = Vec::new();
        for (snap, seg) in snaps.iter_mut().zip(segments).rev() {
            or_mask_into(&mut suffix, &seg);
            snap.suffix_reads = suffix.clone();
        }
        WarmStart {
            snaps,
            final_steps: interp.steps(),
            final_status: interp.status().clone(),
            final_stats: *ipds.checker.stats(),
            clean: !ipds.checker.detected(),
        }
    }

    /// The snapshot with the greatest step count ≤ `trigger_step`. Always
    /// exists: capture starts with a step-0 snapshot.
    fn nearest(&self, trigger_step: u64) -> &WarmSnap {
        let i = self.snaps.partition_point(|s| s.steps <= trigger_step);
        &self.snaps[i - 1]
    }

    /// The first snapshot strictly after `steps`, if any.
    fn next_after(&self, steps: u64) -> Option<&WarmSnap> {
        self.snaps
            .get(self.snaps.partition_point(|s| s.steps <= steps))
    }

    /// Number of snapshots held.
    pub fn len(&self) -> usize {
        self.snaps.len()
    }

    /// True if no snapshots were captured (never happens for a program that
    /// runs at least one step).
    pub fn is_empty(&self) -> bool {
        self.snaps.is_empty()
    }
}

/// Reusable attack executor: one interpreter arena, one checker, one trace
/// buffer, recycled across every attack it runs (§6's 100-attack protocol
/// allocates its scratch once instead of per attack). Each worker of
/// [`run_campaign`] owns one `AttackRunner`; the borrowed program,
/// analysis and golden trace are shared by all of them.
#[derive(Debug)]
pub struct AttackRunner<'a> {
    inputs: &'a [Input],
    golden: &'a [(u64, bool)],
    interp: Interp,
    ipds: IpdsObserver,
    trace: BranchTrace,
    warm: Option<&'a WarmStart>,
}

impl<'a> AttackRunner<'a> {
    /// Builds a runner over shared campaign artifacts.
    ///
    /// # Panics
    ///
    /// Panics if the program has no `main`.
    pub fn new(
        program: &'a Program,
        analysis: &'a ProgramAnalysis,
        inputs: &'a [Input],
        golden: &'a [(u64, bool)],
        limits: ExecLimits,
    ) -> AttackRunner<'a> {
        AttackRunner {
            inputs,
            golden,
            interp: Interp::new(program, inputs.to_vec(), limits),
            ipds: IpdsObserver::new(IpdsChecker::new(analysis)),
            trace: BranchTrace::default(),
            warm: None,
        }
    }

    /// Attaches golden-run snapshots: subsequent [`AttackRunner::run`] calls
    /// restore the nearest snapshot at-or-before the trigger instead of
    /// re-interpreting the clean prefix (see [`WarmStart`]).
    pub fn with_warm_start(mut self, warm: &'a WarmStart) -> Self {
        self.warm = Some(warm);
        self
    }

    /// Runs one attack: execute to `trigger_step`, tamper cell(s) chosen by
    /// `rng` under `model`, continue with IPDS checking, and compare against
    /// the golden trace. All scratch state is reset (not reallocated) first.
    pub fn run(
        &mut self,
        trigger_step: u64,
        model: AttackModel,
        rng: &mut StdRng,
    ) -> AttackOutcome {
        self.trace.clear();

        // Phase 1: reach the trigger point. With warm start the clean
        // prefix comes from a golden snapshot (a few memcpys) plus a short
        // replay; the trace buffer then holds only the suffix from the
        // snapshot on, and `trace_offset` golden branches are implied.
        let trace_offset = if let Some(warm) = self.warm {
            let snap = warm.nearest(trigger_step);
            self.interp.restore(&snap.interp);
            self.ipds.checker.restore(&snap.checker);
            let mut tee = Tee::new(&mut self.trace, &mut self.ipds);
            self.interp.run_steps(trigger_step - snap.steps, &mut tee);
            snap.trace_len
        } else {
            self.interp.reset(self.inputs.iter().cloned());
            self.ipds.checker.reset();
            // Mirror the interpreter's startup convention: main's frame is
            // active.
            self.ipds.checker.on_call(self.interp.main());
            let mut tee = Tee::new(&mut self.trace, &mut self.ipds);
            self.interp.run_steps(trigger_step, &mut tee);
            0
        };

        // Phase 2: tamper.
        let candidates = match model {
            AttackModel::FormatString => self.interp.mem.live_mutable_cells(),
            AttackModel::BufferOverflow | AttackModel::ContiguousOverflow => {
                self.interp.mem.live_stack_cells()
            }
        };
        let tampered = if self.interp.status() == &ExecStatus::Running && !candidates.is_empty() {
            if model == AttackModel::ContiguousOverflow {
                // Smash a run of 2–8 adjacent cells with string-like bytes.
                let start = rng.gen_range(0..candidates.len());
                let len = rng.gen_range(2..=8usize);
                let mut any = false;
                for i in 0..len.min(candidates.len() - start) {
                    let cell = candidates[start + i];
                    any |= self.interp.mem.tamper(cell, rng.gen_range(0x20..0x7f));
                }
                any
            } else {
                let cell = candidates[rng.gen_range(0..candidates.len())];
                let old = self.interp.mem.load(cell);
                // Values drawn from a small, plausible-data distribution:
                // flipping flags and IDs is the non-control-data attack of
                // interest. A wild 64-bit value would be caught by trivial
                // means. Tampering always *changes* the cell (writing back
                // the same value is not an attack).
                let mut value = old;
                while value == old {
                    value = match rng.gen_range(0..4) {
                        0 => rng.gen_range(-2..=2),
                        1 => rng.gen_range(0..=1),
                        2 => old ^ (1i64 << rng.gen_range(0..8)),
                        _ => rng.gen_range(-1000..=1000),
                    };
                }
                self.interp.mem.tamper(cell, value)
            }
        } else {
            false
        };

        // Phase 3: run to completion under checking. With warm start the
        // run pauses at each golden snapshot boundary and checks whether it
        // has *reconverged* with the clean run: trace still a golden prefix
        // (same count, same entries — which pins the whole instruction
        // path, including calls/returns, and therefore the checker state)
        // and interpreter state equal to the snapshot on everything the
        // remaining golden run can observe — the activation stack with its
        // registers, the input stream, and every memory cell the suffix
        // will ever read (`WarmSnap::suffix_reads`; a tampered value the
        // tail never looks at cannot steer it). From such a point the
        // remainder commits the golden suffix verbatim: no divergence, no
        // alarms (the clean run has none), terminal status, exit value and
        // step count already known — so the tail is skipped outright. Once
        // the trace diverges no reconvergence shortcut exists and the run
        // simply plays out.
        let status = 'run: {
            let Some(warm) = self.warm.filter(|w| w.clean) else {
                let mut tee = Tee::new(&mut self.trace, &mut self.ipds);
                break 'run self.interp.run(&mut tee);
            };
            let mut matched = 0usize;
            loop {
                let Some(snap) = warm.next_after(self.interp.steps()) else {
                    let mut tee = Tee::new(&mut self.trace, &mut self.ipds);
                    break 'run self.interp.run(&mut tee);
                };
                {
                    let mut tee = Tee::new(&mut self.trace, &mut self.ipds);
                    self.interp
                        .run_steps(snap.steps - self.interp.steps(), &mut tee);
                }
                if *self.interp.status() != ExecStatus::Running {
                    break 'run self.interp.status().clone();
                }
                // Verify the branches committed since the last checkpoint
                // against the golden trace (each entry is compared once).
                let new = &self.trace.trace[matched..];
                let gstart = trace_offset + matched;
                let still_prefix = gstart + new.len() <= self.golden.len()
                    && *new == self.golden[gstart..gstart + new.len()];
                if !still_prefix {
                    // Diverged: play the rest out under checking.
                    let mut tee = Tee::new(&mut self.trace, &mut self.ipds);
                    break 'run self.interp.run(&mut tee);
                }
                matched = self.trace.trace.len();
                if trace_offset + matched == snap.trace_len
                    && self
                        .interp
                        .state_eq_masked(&snap.interp, &snap.suffix_reads)
                {
                    // Reconverged with the clean run: the tail is golden.
                    return AttackOutcome {
                        tampered,
                        control_flow_changed: false,
                        detected: self.ipds.checker.detected(),
                        detection_lag_branches: None,
                        status: warm.final_status.clone(),
                        steps: warm.final_steps,
                        checker: warm.final_stats,
                    };
                }
            }
        };

        // Diff against the golden trace (offset past the elided prefix).
        let divergence = first_divergence_from(self.golden, &self.trace.trace, trace_offset);
        let control_flow_changed = divergence.is_some();
        let detected = self.ipds.checker.detected();
        let detection_lag_branches = match (divergence, self.ipds.checker.alarms().first()) {
            (Some(div), Some(alarm)) => Some(alarm.branch_seq.saturating_sub(div as u64 + 1)),
            _ => None,
        };

        // Zero-false-positive sanity: an alarm without control-flow change
        // is impossible (identical traces drive identical checker state).
        debug_assert!(
            !detected || control_flow_changed,
            "alarm fired on an unchanged trace"
        );

        AttackOutcome {
            tampered,
            control_flow_changed,
            detected,
            detection_lag_branches,
            status,
            steps: self.interp.steps(),
            checker: *self.ipds.checker.stats(),
        }
    }
}

/// First index at which `golden` and the attacked trace differ, where the
/// attacked trace is known to start with `golden[..offset]` (elided by a
/// warm start) followed by `tail`. Returns an index into the full traces;
/// `offset == 0` is the plain whole-trace diff.
fn first_divergence_from(
    golden: &[(u64, bool)],
    tail: &[(u64, bool)],
    offset: usize,
) -> Option<usize> {
    let golden_tail = &golden[offset.min(golden.len())..];
    let n = golden_tail.len().min(tail.len());
    for i in 0..n {
        if golden_tail[i] != tail[i] {
            return Some(offset + i);
        }
    }
    if golden_tail.len() != tail.len() {
        Some(offset + n)
    } else {
        None
    }
}

/// The derived RNG seed of attack `i` (the campaign seed split by a
/// splitmix-style multiplicative stream).
pub fn attack_seed(campaign: &Campaign, i: u32) -> u64 {
    split_seed(campaign.seed, u64::from(i))
}

/// Draws a trigger step anywhere in the first 95% of a golden run of
/// `golden_steps`, so the perturbation has room to manifest. Attacks and
/// live-state faults share this draw.
pub(crate) fn trigger_in_run(rng: &mut StdRng, golden_steps: u64) -> u64 {
    let hi = (golden_steps.saturating_mul(95) / 100).max(2);
    rng.gen_range(1..hi)
}

/// Derives attack `i`'s RNG stream and trigger step: the per-attack seeding
/// protocol. It depends on nothing but the campaign and the index, so
/// [`run_campaign`] (at any thread count) and a hand-driven
/// [`AttackRunner`] loop produce bit-identical outcomes.
pub fn attack_rng(campaign: &Campaign, golden_steps: u64, i: u32) -> (StdRng, u64) {
    let mut rng = StdRng::seed_from_u64(attack_seed(campaign, i));
    let trigger = trigger_in_run(&mut rng, golden_steps);
    (rng, trigger)
}

/// Folds per-attack outcomes (in seed order) into a [`CampaignResult`]: the
/// typed Fig. 7 figures and, in one pass, its [`MetricsRegistry`] — the
/// [`CAMPAIGN_COUNTERS`], the [`CAMPAIGN_HISTOGRAMS`] and the summed checker
/// work under the `checker.*` keys. Every thread count folds through this
/// one function — same fold, same floating-point association order,
/// bit-identical means — so a hand-driven [`AttackRunner`] loop and
/// [`run_campaign`] at any thread count produce the same result.
pub fn aggregate(attacks: u32, outcomes: &[AttackOutcome]) -> CampaignResult {
    let mut metrics = MetricsRegistry::new();
    let (mut tampered, mut cf_changed, mut detected) = (0, 0, 0);
    let (mut lag_sum, mut lags) = (0.0, 0u32);
    let mut work = IpdsStats::default();
    for outcome in outcomes {
        tampered += u32::from(outcome.tampered);
        cf_changed += u32::from(outcome.control_flow_changed);
        detected += u32::from(outcome.detected);
        metrics.observe("campaign.attack_steps", outcome.steps);
        if let Some(lag) = outcome.detection_lag_branches {
            lag_sum += lag as f64;
            lags += 1;
            metrics.observe("campaign.detection_lag_branches", lag);
        }
        let s = &outcome.checker;
        work.branches += s.branches;
        work.verified += s.verified;
        work.bat_entries_applied += s.bat_entries_applied;
        work.bsv_transitions += s.bsv_transitions;
        work.table_accesses += s.table_accesses;
        work.alarms += s.alarms;
        work.max_depth = work.max_depth.max(s.max_depth);
    }
    metrics.add("campaign.attacks", outcomes.len() as u64);
    metrics.add("campaign.attacks_tampered", u64::from(tampered));
    metrics.add("campaign.attacks_cf_changed", u64::from(cf_changed));
    metrics.add("campaign.attacks_detected", u64::from(detected));
    // A checker allocates a BSV buffer only when every buffer it owns is
    // live, so a cold worker's pool retains as many buffers as the deepest
    // frame stack it ran, up to the cap. The whole-run `max_depth` gives
    // that figure whether or not an attack's prefix was warm-started.
    let high_water = work.max_depth.min(BSV_POOL_CAP);
    metrics.add("checker.bsv_pool_high_water", high_water as u64);
    metrics.add("checker.branches", work.branches);
    metrics.add("checker.verified", work.verified);
    metrics.add("checker.bat_entries_applied", work.bat_entries_applied);
    metrics.add("checker.bsv_transitions", work.bsv_transitions);
    metrics.add("checker.table_accesses", work.table_accesses);
    metrics.add("checker.alarms", work.alarms);
    CampaignResult {
        attacks,
        cf_changed,
        detected,
        mean_lag_branches: if lags == 0 {
            0.0
        } else {
            lag_sum / f64::from(lags)
        },
        metrics,
    }
}

/// The campaign engine: runs `campaign.attacks` seeded attacks against
/// `program` over a precomputed golden run, across up to `threads` scoped
/// worker threads of [`ipds_parallel::map_indexed`].
///
/// A campaign is embarrassingly parallel: every attack is seeded
/// independently ([`attack_seed`]), runs against the same immutable
/// artifacts (program, analysis, inputs, golden trace) and contributes one
/// [`AttackOutcome`]. Each worker owns one reusable [`AttackRunner`] arena;
/// the workers claim attack indices dynamically (attack durations vary
/// wildly — a tamper that sends the victim into a budget-exhausting loop
/// costs orders of magnitude more than one that crashes it immediately)
/// and the outcomes come back in seed order, so [`aggregate`] folds the
/// same sequence whatever the thread count.
/// A batch too small to split (`threads <= 1`, or below
/// [`ipds_parallel`]'s per-worker work floor) runs inline on the calling
/// thread as a plain loop.
///
/// The [`CampaignResult`] is therefore **bit-identical** for every thread
/// count, its registry and its `f64` lag mean (which is sensitive to
/// summation order) included. See `docs/PERF.md`.
///
/// `warm` is a precomputed [`WarmStart`], so a driver running many
/// campaigns against the same artifacts (the scaling sweep, the ablation
/// grid) captures the golden snapshots once instead of once per campaign;
/// `None` captures on demand. Single-attack campaigns skip the warm path
/// (capture costs about one clean run); results are bit-identical with and
/// without a warm start.
///
/// # Panics
///
/// Panics if the golden run faulted — benign traffic must be fault-free —
/// or if a worker thread panics.
pub fn run_campaign(
    program: &Program,
    analysis: &ProgramAnalysis,
    inputs: &[Input],
    golden: &GoldenRun,
    campaign: &Campaign,
    threads: usize,
    warm: Option<&WarmStart>,
) -> CampaignResult {
    assert!(
        !matches!(golden.status, ExecStatus::Fault(_)),
        "golden run must not fault: {:?}",
        golden.status
    );
    // One golden-snapshot set, captured (or taken precomputed) here and
    // shared immutably by every worker.
    let use_warm = campaign.attacks > 1;
    let owned = (use_warm && warm.is_none())
        .then(|| WarmStart::capture(program, analysis, inputs, golden.steps, campaign.limits));
    let warm = if use_warm {
        warm.or(owned.as_ref())
    } else {
        None
    };

    let outcomes = ipds_parallel::map_indexed(
        campaign.attacks,
        threads,
        || {
            let runner =
                AttackRunner::new(program, analysis, inputs, &golden.trace, campaign.limits);
            match warm {
                Some(warm) => runner.with_warm_start(warm),
                None => runner,
            }
        },
        |runner, i| {
            let (mut rng, trigger) = attack_rng(campaign, golden.steps, i);
            runner.run(trigger, campaign.model, &mut rng)
        },
    );
    aggregate(campaign.attacks, &outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipds_analysis::{analyze_program, AnalysisConfig};

    /// The Figure-1 privilege-escalation victim: correlated `user` checks
    /// with input in between.
    const VICTIM: &str = "fn main() -> int { int user; int req; \
        user = read_int(); \
        if (user == 1) { print_int(100); } \
        req = read_int(); \
        print_int(req); \
        if (user == 1) { print_int(200); } else { print_int(300); } \
        return 0; }";

    /// A looping variant of [`VICTIM`]: enough branches per run that a
    /// 40-attack campaign splits across several workers.
    const LOOP_VICTIM: &str = "fn main() -> int { int user; int req; int i; \
        user = read_int(); \
        for (i = 0; i < 6; i = i + 1) { \
          if (user == 1) { print_int(100); } \
          req = read_int(); \
          print_int(req); \
          if (user == 1) { print_int(200); } else { print_int(300); } \
        } return 0; }";

    fn setup(src: &str) -> (Program, ProgramAnalysis) {
        let p = ipds_ir::parse(src).unwrap();
        let a = analyze_program(&p, &AnalysisConfig::default());
        (p, a)
    }

    /// Captures the golden run and runs `c` across `threads` workers.
    fn campaign(
        p: &Program,
        a: &ProgramAnalysis,
        inputs: &[Input],
        c: &Campaign,
        threads: usize,
    ) -> CampaignResult {
        let golden = GoldenRun::capture(p, inputs, c.limits);
        run_campaign(p, a, inputs, &golden, c, threads, None)
    }

    #[test]
    fn golden_capture_never_alarms() {
        let (p, a) = setup(VICTIM);
        let inputs = vec![Input::Int(0), Input::Int(7)];
        let golden = GoldenRun::capture(&p, &inputs, ExecLimits::default());
        assert!(matches!(golden.status, ExecStatus::Exited(_)));
        assert_eq!(golden.trace.len(), 2);
        // Replay through the checker manually: no alarms.
        let mut interp = Interp::new(&p, inputs, ExecLimits::default());
        let mut obs = IpdsObserver::new(IpdsChecker::new(&a));
        obs.checker.on_call(p.main().unwrap().id);
        interp.run(&mut obs);
        assert!(!obs.checker.detected());
    }

    #[test]
    fn targeted_tamper_is_detected() {
        // Deterministically tamper `user` between the two checks: the
        // second check flips direction ⇒ alarm.
        let (p, a) = setup(VICTIM);
        let inputs = vec![Input::Int(0), Input::Int(7)];
        let golden = GoldenRun::capture(&p, &inputs, ExecLimits::default());

        let mut interp = Interp::new(&p, inputs, ExecLimits::default());
        let mut ipds = IpdsObserver::new(IpdsChecker::new(&a));
        ipds.checker.on_call(p.main().unwrap().id);
        let mut trace = BranchTrace::default();

        // Run until the first branch committed (user == 1, not taken).
        loop {
            let done = {
                let mut tee = Tee::new(&mut trace, &mut ipds);
                interp.run_steps(1, &mut tee);
                !trace.trace.is_empty() || interp.status() != &ExecStatus::Running
            };
            if done {
                break;
            }
        }
        // Tamper user (frame 0, local 0) to 1 — privilege escalation.
        let addr = interp.mem.addr_of(0, ipds_ir::VarId::local(0));
        assert!(interp.mem.tamper(addr, 1));
        {
            let mut tee = Tee::new(&mut trace, &mut ipds);
            interp.run(&mut tee);
        }
        assert!(ipds.checker.detected(), "the flipped check must alarm");
        assert_ne!(trace.trace, golden.trace);
    }

    #[test]
    fn campaign_statistics_are_consistent() {
        let (p, a) = setup(VICTIM);
        let inputs = vec![Input::Int(0), Input::Int(7)];
        let c = Campaign {
            attacks: 50,
            seed: 42,
            model: AttackModel::FormatString,
            limits: ExecLimits::default(),
        };
        let r = campaign(&p, &a, &inputs, &c, 1);
        assert_eq!(r.attacks, 50);
        assert!(r.detected <= r.cf_changed, "detected ⊆ cf-changed: {r:?}");
        assert!(r.cf_changed <= r.attacks);
        // This victim's control flow is entirely user-driven: some attacks
        // must both land and be detected.
        assert!(r.detected > 0, "{r:?}");
    }

    #[test]
    fn warm_start_matches_cold_execution_per_attack() {
        // Run the same attacks cold and warm-started and require identical
        // outcomes — divergence index arithmetic, detection lag, steps and
        // status all go through the elided-prefix path.
        let (p, a) = setup(VICTIM);
        let inputs = vec![Input::Int(1), Input::Int(3)];
        let limits = ExecLimits::default();
        let golden = GoldenRun::capture(&p, &inputs, limits);
        let warm = WarmStart::capture(&p, &a, &inputs, golden.steps, limits);
        assert!(!warm.is_empty());
        for model in [
            AttackModel::FormatString,
            AttackModel::BufferOverflow,
            AttackModel::ContiguousOverflow,
        ] {
            let c = Campaign {
                attacks: 30,
                seed: 2006,
                model,
                limits,
            };
            let mut cold = AttackRunner::new(&p, &a, &inputs, &golden.trace, limits);
            let mut warmed =
                AttackRunner::new(&p, &a, &inputs, &golden.trace, limits).with_warm_start(&warm);
            for i in 0..c.attacks {
                let (mut rng_c, trigger) = attack_rng(&c, golden.steps, i);
                let (mut rng_w, _) = attack_rng(&c, golden.steps, i);
                let a_cold = cold.run(trigger, c.model, &mut rng_c);
                let a_warm = warmed.run(trigger, c.model, &mut rng_w);
                assert_eq!(a_cold, a_warm, "{model:?} attack {i} trigger {trigger}");
            }
        }
    }

    #[test]
    fn warm_snapshots_cover_every_trigger() {
        // Trigger steps right on, before and after snapshot boundaries all
        // restore a snapshot at-or-before the trigger.
        let (p, a) = setup(VICTIM);
        let inputs = vec![Input::Int(0), Input::Int(7)];
        let limits = ExecLimits::default();
        let golden = GoldenRun::capture(&p, &inputs, limits);
        let warm = WarmStart::capture(&p, &a, &inputs, golden.steps, limits);
        for trigger in 1..golden.steps {
            let snap = warm.nearest(trigger);
            assert!(snap.steps <= trigger, "trigger {trigger}");
        }
    }

    #[test]
    fn campaigns_are_deterministic() {
        let (p, a) = setup(VICTIM);
        let inputs = vec![Input::Int(1), Input::Int(7)];
        let c = Campaign {
            attacks: 25,
            seed: 7,
            model: AttackModel::BufferOverflow,
            limits: ExecLimits::default(),
        };
        let r1 = campaign(&p, &a, &inputs, &c, 1);
        let r2 = campaign(&p, &a, &inputs, &c, 1);
        assert_eq!(r1, r2);
    }

    #[test]
    fn stack_model_restricts_targets() {
        // A program whose decisions live in a global: stack-only tampering
        // must detect strictly less than arbitrary tampering.
        let src = "int mode; fn main() -> int { int i; mode = read_int(); \
            for (i = 0; i < 8; i = i + 1) { \
              if (mode == 1) { print_int(1); } else { print_int(2); } \
            } return 0; }";
        let (p, a) = setup(src);
        let inputs = vec![Input::Int(0)];
        let mk = |model| Campaign {
            attacks: 60,
            seed: 11,
            model,
            limits: ExecLimits::default(),
        };
        let fs = campaign(&p, &a, &inputs, &mk(AttackModel::FormatString), 1);
        let bo = campaign(&p, &a, &inputs, &mk(AttackModel::BufferOverflow), 1);
        assert!(
            fs.detected >= bo.detected,
            "format-string reaches the global, overflow does not: {fs:?} vs {bo:?}"
        );
    }

    fn loop_setup() -> (Program, ProgramAnalysis, Vec<Input>) {
        let (p, a) = setup(LOOP_VICTIM);
        let inputs: Vec<Input> = (0..7).map(|i| Input::Int(i % 3)).collect();
        (p, a, inputs)
    }

    #[test]
    fn every_thread_count_is_bit_identical_to_one() {
        let (p, a, inputs) = loop_setup();
        for model in [AttackModel::FormatString, AttackModel::ContiguousOverflow] {
            let c = Campaign {
                attacks: 40,
                seed: 99,
                model,
                limits: ExecLimits::default(),
            };
            let one = campaign(&p, &a, &inputs, &c, 1);
            for threads in [2, 3, 4, 7] {
                let many = campaign(&p, &a, &inputs, &c, threads);
                assert_eq!(one, many, "{model:?} with {threads} threads");
                assert_eq!(
                    one.mean_lag_branches.to_bits(),
                    many.mean_lag_branches.to_bits(),
                    "{model:?} lag mean must be bit-identical"
                );
            }
        }
    }

    #[test]
    fn more_threads_than_attacks_is_fine() {
        let (p, a, inputs) = loop_setup();
        let c = Campaign {
            attacks: 3,
            seed: 5,
            model: AttackModel::BufferOverflow,
            limits: ExecLimits::default(),
        };
        let one = campaign(&p, &a, &inputs, &c, 1);
        for threads in [4, 16] {
            assert_eq!(one, campaign(&p, &a, &inputs, &c, threads), "{threads}");
        }
    }

    #[test]
    fn zero_threads_is_one_thread() {
        let (p, a, inputs) = loop_setup();
        let c = Campaign {
            attacks: 10,
            seed: 1,
            model: AttackModel::FormatString,
            limits: ExecLimits::default(),
        };
        assert_eq!(
            campaign(&p, &a, &inputs, &c, 0),
            campaign(&p, &a, &inputs, &c, 1),
        );
    }
}
