//! Deterministic seeded fault injection and detection-latency accounting.
//!
//! The paper's §7 evaluation axis is not just *whether* the IPDS flags
//! tampering but *how fast*; this module supplies the systematic engine the
//! attack campaigns lack. A fault campaign perturbs three sites:
//!
//! * **table image** — bit flips in the serialized [`TableImage`] before the
//!   loader maps it. With the loader's checksum on (the shipped
//!   configuration) every flip must be rejected at load time; with the
//!   checksum off (restamped after corruption, modeling a loader without
//!   integrity checking) the corrupted tables load and the campaign measures
//!   whether the *runtime* catches them;
//! * **checker state** — a live BSV entry of the active frame forced to a
//!   chosen status mid-run, the paper's protected-memory-corruption threat;
//! * **guest memory** — a single bit of a live interpreter cell flipped
//!   mid-run, the soft-error / tampering model of the attack campaigns but
//!   graded on latency.
//!
//! Every fault is described by a [`FaultPlan`] (site × trigger step ×
//! mutation) derived purely from the campaign seed via the in-repo
//! splitmix64/xoshiro256** generator — the exact per-index protocol the
//! attack engine uses — so a campaign is **bit-identical at any thread
//! count**. Outcomes are graded [`Detected`](FaultOutcome::Detected) /
//! [`Masked`](FaultOutcome::Masked) / [`Crashed`](FaultOutcome::Crashed),
//! and each detection records its **latency in committed branches** between
//! the injection instant and the flag (zero for load-time rejections); the
//! latencies feed the `faults.detect_latency_branches` histogram and the
//! exact-median `detect_latency_p50` the benchmark JSON carries.
//!
//! The checker only observes the run (Fig. 6): nothing it holds can steer
//! the interpreter. So a checker-state fault and a checksum-off image fault
//! leave the program on its clean path, and [`FaultRunner`] checks them by
//! replaying the clean run's committed event stream, recorded once per
//! runner, through [`IpdsChecker::replay`]. Only memory faults, which can
//! change the path, re-run the interpreter.

use ipds_analysis::{BranchStatus, ProgramAnalysis, TableImage};
use ipds_ir::{FuncId, Program};
use ipds_runtime::{IpdsChecker, RuntimeError};
use ipds_telemetry::MetricsRegistry;

use crate::attack::{trigger_in_run, GoldenRun};
use crate::interp::{ExecLimits, ExecStatus, Input, Interp};
use crate::observer::{EventRecorder, ExecObserver, IpdsObserver};
use crate::rng::{split_seed, StdRng};

/// The canonical `faults.*` counter list. `docs/FAULTS.md` documents exactly
/// these keys and every fault campaign emits exactly this set (enforced by
/// `tests/docs_metrics.rs`).
pub const FAULT_COUNTERS: &[&str] = &[
    "faults.injected",
    "faults.image",
    "faults.checker",
    "faults.memory",
    "faults.detected",
    "faults.masked",
    "faults.crashed",
    "faults.image_undetected",
];

/// The canonical `faults.*` histogram list (same contract as
/// [`FAULT_COUNTERS`]): detection latency in committed branches.
pub const FAULT_HISTOGRAMS: &[&str] = &["faults.detect_latency_branches"];

/// Which state a fault perturbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// The serialized table image, before the loader maps it.
    TableImage,
    /// A live BSV entry of the checker's top frame.
    CheckerState,
    /// A live interpreter memory cell.
    Memory,
}

/// The mutation a fault applies. Raw draws (`bits`, `slot`, `cell`) are
/// reduced modulo the live target space at injection time, so plans are
/// derivable from the seed alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultMutation {
    /// XOR the given bit positions into the image bytes (reduced modulo the
    /// image size, or the payload pool when the checksum is restamped).
    ImageBits(Vec<u64>),
    /// Force a BSV slot of the live top frame to `status` (rotated to the
    /// next status if the slot already holds it — a fault must change
    /// state).
    BsvStatus {
        /// Raw slot draw, reduced modulo the top frame's BSV length.
        slot: u64,
        /// The status to force.
        status: BranchStatus,
    },
    /// Flip one bit of a live memory cell.
    MemoryBit {
        /// Raw cell draw, reduced modulo the live mutable cell count.
        cell: u64,
        /// Bit position within the 64-bit cell.
        bit: u32,
    },
}

/// One planned fault: site × trigger step × mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Fault index within the campaign (also selects its RNG stream).
    pub index: u32,
    /// Interpreter step after which the fault is injected. Always 0 for
    /// image faults — they strike before the program runs.
    pub trigger_step: u64,
    /// What the fault does.
    pub mutation: FaultMutation,
}

impl FaultPlan {
    /// The site this plan perturbs.
    pub fn site(&self) -> FaultSite {
        match self.mutation {
            FaultMutation::ImageBits(_) => FaultSite::TableImage,
            FaultMutation::BsvStatus { .. } => FaultSite::CheckerState,
            FaultMutation::MemoryBit { .. } => FaultSite::Memory,
        }
    }
}

/// What the campaign observed for one fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnomalyReport {
    /// The loader rejected the corrupted image (typed [`ImageError`]
    /// rendered to text), or its structural cross-check failed.
    ///
    /// [`ImageError`]: ipds_analysis::ImageError
    ImageRejected(String),
    /// The checker raised an alarm after the injection.
    Alarm {
        /// PC of the flagging branch.
        pc: u64,
        /// The checker's branch sequence number at the flag.
        branch_seq: u64,
    },
    /// A runtime model caught a protocol violation.
    Runtime(RuntimeError),
}

/// Graded outcome of one fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultOutcome {
    /// An anomaly was flagged, `latency_branches` committed branches after
    /// the injection (0 = rejected at load / flagged by the very next
    /// branch).
    Detected {
        /// What flagged the fault.
        report: AnomalyReport,
        /// Committed branches strictly between injection and flag.
        latency_branches: u64,
    },
    /// The run completed cleanly with no anomaly — the fault was absorbed
    /// (or found no live target to strike).
    Masked,
    /// The run terminated abnormally (memory fault or budget exhaustion)
    /// without an IPDS flag.
    Crashed {
        /// How the run ended.
        status: ExecStatus,
    },
}

/// A fault-campaign specification.
#[derive(Debug, Clone)]
pub struct FaultCampaign {
    /// Faults *per site*: the campaign injects `flips` image faults,
    /// `flips` checker-state faults and `flips` memory faults.
    pub flips: u32,
    /// RNG seed; every fault's stream derives from it.
    pub seed: u64,
    /// Whether the loader verifies the image checksum. On (the default),
    /// image faults are single-bit flips anywhere in the image and every
    /// one must be rejected at load. Off, the corruption lands in the
    /// payload pool, the checksum is restamped, and detection falls to the
    /// runtime.
    pub checksum: bool,
    /// Execution limits per run.
    pub limits: ExecLimits,
}

impl Default for FaultCampaign {
    fn default() -> Self {
        FaultCampaign {
            flips: 32,
            seed: 0x1bd5,
            checksum: true,
            limits: ExecLimits::default(),
        }
    }
}

impl FaultCampaign {
    /// Total faults the campaign injects (all three sites).
    pub fn total(&self) -> u32 {
        self.flips.saturating_mul(3)
    }
}

/// Aggregate results of a fault campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultCampaignResult {
    /// Faults injected in total.
    pub injected: u32,
    /// Image faults injected.
    pub image: u32,
    /// Checker-state faults injected.
    pub checker: u32,
    /// Memory faults injected.
    pub memory: u32,
    /// Faults flagged as anomalies.
    pub detected: u32,
    /// Faults absorbed without any observable anomaly.
    pub masked: u32,
    /// Faults that crashed the run without an IPDS flag.
    pub crashed: u32,
    /// Image faults that loaded despite the checksum being on — must be 0.
    pub image_undetected: u32,
    /// Detection latencies in fault-index order (one entry per detected
    /// fault), so the exact percentiles are reproducible.
    pub latencies: Vec<u64>,
    /// The same fold's named metrics: every [`FAULT_COUNTERS`] key and the
    /// [`FAULT_HISTOGRAMS`] latency histogram.
    pub metrics: MetricsRegistry,
}

impl FaultCampaignResult {
    /// Fraction of injected faults that were detected.
    pub fn detected_rate(&self) -> f64 {
        self.detected as f64 / self.injected.max(1) as f64
    }

    /// Exact median detection latency in branches (0 when nothing was
    /// detected).
    pub fn detect_latency_p50(&self) -> u64 {
        if self.latencies.is_empty() {
            return 0;
        }
        let mut sorted = self.latencies.clone();
        sorted.sort_unstable();
        sorted[sorted.len() / 2]
    }
}

/// The derived RNG seed of fault `i` — the same xor-splitmix stream
/// protocol the attack engine uses, so campaigns are bit-identical at every
/// thread count.
pub fn fault_seed(campaign: &FaultCampaign, i: u32) -> u64 {
    split_seed(campaign.seed, u64::from(i))
}

/// The site fault `i` strikes: round-robin over the three sites, so every
/// campaign size covers all of them evenly.
pub fn fault_site(i: u32) -> FaultSite {
    match i % 3 {
        0 => FaultSite::TableImage,
        1 => FaultSite::CheckerState,
        _ => FaultSite::Memory,
    }
}

/// Derives fault `i`'s complete plan from the campaign seed. Pure function
/// of `(campaign, golden_steps, i)`, whichever worker runs it.
pub fn fault_plan(campaign: &FaultCampaign, golden_steps: u64, i: u32) -> FaultPlan {
    let mut rng = StdRng::seed_from_u64(fault_seed(campaign, i));
    match fault_site(i) {
        FaultSite::TableImage => {
            // Checksum on: a single-bit flip (the acceptance matrix the
            // loader must reject exhaustively). Checksum off: 1–3 flips in
            // the payload pool.
            let nbits = if campaign.checksum {
                1
            } else {
                1 + rng.gen_range(0..3usize)
            };
            let bits = (0..nbits).map(|_| rng.next_u64()).collect();
            FaultPlan {
                index: i,
                trigger_step: 0,
                mutation: FaultMutation::ImageBits(bits),
            }
        }
        FaultSite::CheckerState => {
            let trigger_step = trigger_in_run(&mut rng, golden_steps);
            let status = match rng.gen_range(0..3u32) {
                0 => BranchStatus::Taken,
                1 => BranchStatus::NotTaken,
                _ => BranchStatus::Unknown,
            };
            FaultPlan {
                index: i,
                trigger_step,
                mutation: FaultMutation::BsvStatus {
                    slot: rng.next_u64(),
                    status,
                },
            }
        }
        FaultSite::Memory => {
            let trigger_step = trigger_in_run(&mut rng, golden_steps);
            FaultPlan {
                index: i,
                trigger_step,
                mutation: FaultMutation::MemoryBit {
                    cell: rng.next_u64(),
                    bit: rng.gen_range(0..64u32),
                },
            }
        }
    }
}

/// An [`EventRecorder`] that also stamps each event with the interpreter
/// step that committed it.
#[derive(Debug)]
struct StampedRecorder {
    rec: EventRecorder,
    /// `stamps[k]` is the step count when `rec.events[k]` committed: 0 for
    /// the opening `Call(main)`, then non-decreasing.
    stamps: Vec<u64>,
    step: u64,
}

impl StampedRecorder {
    fn new(main: FuncId) -> StampedRecorder {
        StampedRecorder {
            rec: EventRecorder::new(main),
            stamps: vec![0],
            step: 0,
        }
    }
}

impl ExecObserver for StampedRecorder {
    // Every executed step is reported to `on_inst` before it commits
    // anything, so the count is the step number of the events that follow.
    const WANTS_INST: bool = true;

    fn on_inst(&mut self, _pc: u64) {
        self.step += 1;
    }
    fn on_branch(&mut self, pc: u64, taken: bool) {
        self.rec.on_branch(pc, taken);
        self.stamps.push(self.step);
    }
    fn on_call(&mut self, func: FuncId) {
        self.rec.on_call(func);
        self.stamps.push(self.step);
    }
    fn on_return(&mut self) {
        self.rec.on_return();
        self.stamps.push(self.step);
    }
}

/// Reusable fault executor. It records the clean run once, when it is
/// built, as the committed [`GuestEvent`](ipds_runtime::GuestEvent) stream
/// with each event stamped by the interpreter step that committed it.
/// Checker-state and checksum-off image faults cannot change the program's
/// path, so they replay that stream through a checker; memory faults re-run
/// one interpreter arena, recycled across faults. Each worker of
/// [`run_fault_campaign`] owns one `FaultRunner`; the borrowed program,
/// analysis, image and inputs are shared by all of them.
#[derive(Debug)]
pub struct FaultRunner<'a> {
    analysis: &'a ProgramAnalysis,
    image: &'a TableImage,
    inputs: &'a [Input],
    interp: Interp,
    ipds: IpdsObserver,
    golden: StampedRecorder,
    golden_steps: u64,
    golden_status: ExecStatus,
}

impl<'a> FaultRunner<'a> {
    /// Builds a runner over shared campaign artifacts and records the clean
    /// run of `program` on `inputs` under `limits`.
    ///
    /// # Panics
    ///
    /// Panics if the program has no `main`.
    pub fn new(
        program: &'a Program,
        analysis: &'a ProgramAnalysis,
        image: &'a TableImage,
        inputs: &'a [Input],
        limits: ExecLimits,
    ) -> FaultRunner<'a> {
        let mut interp = Interp::new(program, inputs.to_vec(), limits);
        let mut golden = StampedRecorder::new(interp.main());
        let golden_status = interp.run(&mut golden);
        FaultRunner {
            analysis,
            image,
            inputs,
            golden_steps: interp.steps(),
            interp,
            ipds: IpdsObserver::new(IpdsChecker::new(analysis)),
            golden,
            golden_status,
        }
    }

    /// Executes one planned fault and grades its outcome.
    pub fn run(&mut self, campaign: &FaultCampaign, plan: &FaultPlan) -> FaultOutcome {
        match plan.mutation {
            FaultMutation::ImageBits(ref bits) => self.run_image_fault(campaign, bits),
            FaultMutation::BsvStatus { slot, status } => {
                self.run_checker_fault(plan.trigger_step, slot, status)
            }
            FaultMutation::MemoryBit { cell, bit } => {
                self.run_memory_fault(plan.trigger_step, cell, bit)
            }
        }
    }

    /// Corrupts the image bytes, then either expects the loader to reject
    /// them (checksum on) or loads them restamped and measures runtime
    /// detection (checksum off).
    fn run_image_fault(&mut self, campaign: &FaultCampaign, bits: &[u64]) -> FaultOutcome {
        let mut bytes = self.image.as_bytes().to_vec();
        let (lo_bit, span_bits) = if campaign.checksum {
            (0u64, (bytes.len() * 8) as u64)
        } else {
            // Restrict to the payload pool: header/info corruption is
            // caught structurally whether or not the checksum runs, so the
            // interesting no-checksum surface is the table payload.
            let pool = self.image.payload_offset().unwrap_or(0).min(bytes.len());
            ((pool * 8) as u64, ((bytes.len() - pool) * 8).max(1) as u64)
        };
        // Dedup after reduction so paired draws cannot cancel each other.
        let mut positions: Vec<u64> = bits.iter().map(|b| lo_bit + b % span_bits).collect();
        positions.sort_unstable();
        positions.dedup();
        for pos in positions {
            bytes[(pos / 8) as usize] ^= 1 << (pos % 8);
        }
        let mut corrupted = TableImage::from_bytes(bytes);
        if !campaign.checksum {
            corrupted.restamp_checksum();
        }
        let loaded = match corrupted.load() {
            Err(e) => {
                return FaultOutcome::Detected {
                    report: AnomalyReport::ImageRejected(e.to_string()),
                    latency_branches: 0,
                }
            }
            Ok(a) => a,
        };
        if campaign.checksum {
            // The loader accepted a flipped image: the undetected case the
            // CLI gate fails on. Graded masked; the recorder counts it.
            return FaultOutcome::Masked;
        }
        if loaded.functions.len() != self.analysis.functions.len() {
            // The loader cross-checks the function count against the
            // binary's own function table.
            return FaultOutcome::Detected {
                report: AnomalyReport::ImageRejected("function count mismatch".into()),
                latency_branches: 0,
            };
        }
        // Check the clean run under the corrupted tables: any alarm on
        // this benign trace is the runtime detecting the corruption. A PC
        // the corrupted tables no longer know is an unverifiable probe
        // miss: the checker skips it and records a violation, which is
        // not graded as a detection.
        let mut checker = IpdsChecker::new(&loaded);
        checker.replay(&self.golden.rec.events);
        grade_run(&checker, 0, true, &self.golden_status)
    }

    /// Replays the clean stream up to the trigger step, forces a BSV slot
    /// of the live top frame, replays the rest and grades the checker's
    /// verdict with the clean run's final status.
    fn run_checker_fault(
        &mut self,
        trigger_step: u64,
        slot: u64,
        status: BranchStatus,
    ) -> FaultOutcome {
        if trigger_step >= self.golden_steps {
            // The run ended before the trigger: nothing live to strike.
            return FaultOutcome::Masked;
        }
        // Every event committed within the first `trigger_step` steps.
        let at = self.golden.stamps.partition_point(|&s| s <= trigger_step);
        let events = &self.golden.rec.events;
        let checker = &mut self.ipds.checker;
        checker.reset();
        checker.replay(&events[..at]);
        let branches_at_injection = checker.stats().branches;
        let len = checker.top_bsv_len();
        let injected = len > 0 && {
            let s = (slot % len as u64) as usize;
            match checker.inject_bsv(s, status) {
                // The slot already held the forced status: rotate so the
                // fault actually changes state.
                Some(old) if old == status => {
                    let rotated = match status {
                        BranchStatus::Taken => BranchStatus::NotTaken,
                        BranchStatus::NotTaken => BranchStatus::Unknown,
                        BranchStatus::Unknown => BranchStatus::Taken,
                    };
                    checker.inject_bsv(s, rotated).is_some()
                }
                Some(_) => true,
                None => false,
            }
        };
        if !injected {
            return FaultOutcome::Masked;
        }
        checker.replay(&events[at..]);
        grade_run(checker, branches_at_injection, false, &self.golden_status)
    }

    /// Runs the interpreter to the trigger step, flips one bit of a live
    /// memory cell, and grades how the rest of the run ends.
    fn run_memory_fault(&mut self, trigger_step: u64, cell: u64, bit: u32) -> FaultOutcome {
        self.interp.reset(self.inputs.iter().cloned());
        self.ipds.checker.reset();
        self.ipds.checker.on_call(self.interp.main());
        self.interp.run_steps(trigger_step, &mut self.ipds);

        let branches_at_injection = self.ipds.checker.stats().branches;
        let injected = self.interp.status() == &ExecStatus::Running && {
            let live = self.interp.mem.live_mutable_cells();
            !live.is_empty() && {
                let a = live[(cell % live.len() as u64) as usize];
                let old = self.interp.mem.load(a);
                self.interp.mem.tamper(a, old ^ (1i64 << bit))
            }
        };
        if !injected {
            // No live target at the trigger instant: the fault missed.
            return FaultOutcome::Masked;
        }
        let status = self.interp.run(&mut self.ipds);
        grade_run(&self.ipds.checker, branches_at_injection, false, &status)
    }
}

/// Grades a completed post-injection run: first alarm after the injection
/// wins, then runtime protocol violations, then the termination status.
fn grade_run(
    checker: &IpdsChecker,
    branches_at_injection: u64,
    counted_underflows_expected: bool,
    status: &ExecStatus,
) -> FaultOutcome {
    if let Some(alarm) = checker
        .alarms()
        .iter()
        .find(|a| a.branch_seq > branches_at_injection)
    {
        return FaultOutcome::Detected {
            report: AnomalyReport::Alarm {
                pc: alarm.pc,
                branch_seq: alarm.branch_seq,
            },
            latency_branches: alarm
                .branch_seq
                .saturating_sub(branches_at_injection)
                .saturating_sub(1),
        };
    }
    if !counted_underflows_expected && checker.stats().underflows > 0 {
        return FaultOutcome::Detected {
            report: AnomalyReport::Runtime(RuntimeError::FrameStackUnderflow {
                component: "checker",
            }),
            latency_branches: checker
                .stats()
                .branches
                .saturating_sub(branches_at_injection),
        };
    }
    match status {
        ExecStatus::Exited(_) => FaultOutcome::Masked,
        status => FaultOutcome::Crashed {
            status: status.clone(),
        },
    }
}

/// Folds per-fault outcomes (in index order) into a
/// [`FaultCampaignResult`]: the typed tallies and, in the same pass, its
/// [`MetricsRegistry`] — every [`FAULT_COUNTERS`] key (zero when no fault
/// reached it) and the [`FAULT_HISTOGRAMS`] latency histogram. Every thread
/// count folds through this one function — same fold, same latency order.
pub fn aggregate_faults(
    campaign: &FaultCampaign,
    outcomes: &[FaultOutcome],
) -> FaultCampaignResult {
    let mut result = FaultCampaignResult {
        injected: outcomes.len() as u32,
        image: 0,
        checker: 0,
        memory: 0,
        detected: 0,
        masked: 0,
        crashed: 0,
        image_undetected: 0,
        latencies: Vec::new(),
        metrics: MetricsRegistry::new(),
    };
    for (i, outcome) in outcomes.iter().enumerate() {
        let site = fault_site(i as u32);
        match site {
            FaultSite::TableImage => result.image += 1,
            FaultSite::CheckerState => result.checker += 1,
            FaultSite::Memory => result.memory += 1,
        }
        match outcome {
            FaultOutcome::Detected {
                latency_branches, ..
            } => {
                result.detected += 1;
                result.latencies.push(*latency_branches);
                result
                    .metrics
                    .observe("faults.detect_latency_branches", *latency_branches);
            }
            FaultOutcome::Masked => {
                result.masked += 1;
                if site == FaultSite::TableImage && campaign.checksum {
                    result.image_undetected += 1;
                }
            }
            FaultOutcome::Crashed { .. } => result.crashed += 1,
        }
    }
    for (key, value) in [
        ("faults.injected", result.injected),
        ("faults.image", result.image),
        ("faults.checker", result.checker),
        ("faults.memory", result.memory),
        ("faults.detected", result.detected),
        ("faults.masked", result.masked),
        ("faults.crashed", result.crashed),
        ("faults.image_undetected", result.image_undetected),
    ] {
        result.metrics.add(key, u64::from(value));
    }
    result
}

/// Runs a fault campaign across up to `threads` scoped worker threads of
/// [`ipds_parallel::map_indexed`] (a batch too small to split runs inline
/// as a plain loop). Results — including the latency vector and the metrics
/// registry — are bit-identical for every thread count: faults are
/// independently seeded, outcomes come back in index order, and
/// [`aggregate_faults`] folds them (see `docs/PERF.md`).
///
/// `golden` is the clean run of `program` on `inputs` (captured once by the
/// caller, as for [`crate::attack::run_campaign`]); fault triggers are
/// spread over its length.
///
/// # Panics
///
/// Panics if the golden (clean) run faulted, or if a worker thread panics.
pub fn run_fault_campaign(
    program: &Program,
    analysis: &ProgramAnalysis,
    image: &TableImage,
    inputs: &[Input],
    golden: &GoldenRun,
    campaign: &FaultCampaign,
    threads: usize,
) -> FaultCampaignResult {
    assert!(
        !matches!(golden.status, ExecStatus::Fault(_)),
        "golden run must not fault: {:?}",
        golden.status
    );
    let outcomes = ipds_parallel::map_indexed(
        campaign.total(),
        threads,
        || FaultRunner::new(program, analysis, image, inputs, campaign.limits),
        |runner, i| runner.run(campaign, &fault_plan(campaign, golden.steps, i)),
    );
    aggregate_faults(campaign, &outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipds_analysis::{analyze_program, AnalysisConfig};

    const VICTIM: &str = "fn main() -> int { int user; int req; int i; \
        user = read_int(); \
        for (i = 0; i < 6; i = i + 1) { \
          if (user == 1) { print_int(100); } \
          req = read_int(); \
          print_int(req); \
          if (user == 1) { print_int(200); } else { print_int(300); } \
        } return 0; }";

    /// Captures the golden run under the campaign's limits and runs it.
    fn run(
        p: &Program,
        a: &ProgramAnalysis,
        image: &TableImage,
        inputs: &[Input],
        c: &FaultCampaign,
        threads: usize,
    ) -> FaultCampaignResult {
        let golden = GoldenRun::capture(p, inputs, c.limits);
        run_fault_campaign(p, a, image, inputs, &golden, c, threads)
    }

    fn setup() -> (Program, ProgramAnalysis, TableImage, Vec<Input>) {
        let p = ipds_ir::parse(VICTIM).unwrap();
        let a = analyze_program(&p, &AnalysisConfig::default());
        let image = TableImage::build(&a);
        let inputs: Vec<Input> = (0..7).map(|i| Input::Int(i % 3)).collect();
        (p, a, image, inputs)
    }

    #[test]
    fn plans_are_pure_functions_of_the_seed() {
        let c = FaultCampaign::default();
        for i in 0..12 {
            assert_eq!(fault_plan(&c, 500, i), fault_plan(&c, 500, i));
            assert_eq!(fault_plan(&c, 500, i).site(), fault_site(i));
        }
        let c2 = FaultCampaign {
            seed: c.seed + 1,
            ..c.clone()
        };
        assert_ne!(fault_plan(&c, 500, 1), fault_plan(&c2, 500, 1));
    }

    #[test]
    fn checksum_on_rejects_every_image_fault() {
        let (p, a, image, inputs) = setup();
        let c = FaultCampaign {
            flips: 16,
            seed: 7,
            checksum: true,
            limits: ExecLimits::default(),
        };
        let r = run(&p, &a, &image, &inputs, &c, 1);
        assert_eq!(r.injected, 48);
        assert_eq!(r.image, 16);
        assert_eq!(r.image_undetected, 0, "checksum must catch every flip");
        assert_eq!(r.metrics.counter("faults.image_undetected"), 0);
        // Image rejections are latency-0 detections.
        assert!(r.detected >= r.image);
        assert_eq!(r.detected as usize, r.latencies.len());
    }

    #[test]
    fn campaigns_are_bit_identical_across_thread_counts() {
        let (p, a, image, inputs) = setup();
        for checksum in [true, false] {
            let c = FaultCampaign {
                flips: 10,
                seed: 2006,
                checksum,
                limits: ExecLimits::default(),
            };
            let serial = run(&p, &a, &image, &inputs, &c, 1);
            for threads in [2, 4, 8] {
                let par = run(&p, &a, &image, &inputs, &c, threads);
                // Equality covers the whole registry too.
                assert_eq!(serial, par, "checksum={checksum} threads={threads}");
            }
        }
    }

    #[test]
    fn outcome_counts_are_consistent() {
        let (p, a, image, inputs) = setup();
        let c = FaultCampaign {
            flips: 12,
            seed: 3,
            checksum: true,
            limits: ExecLimits::default(),
        };
        let r = run(&p, &a, &image, &inputs, &c, 1);
        let metrics = &r.metrics;
        assert_eq!(r.detected + r.masked + r.crashed, r.injected);
        assert_eq!(r.image + r.checker + r.memory, r.injected);
        assert_eq!(metrics.counter("faults.injected"), u64::from(r.injected));
        assert_eq!(metrics.counter("faults.detected"), u64::from(r.detected));
        assert_eq!(metrics.counter("faults.masked"), u64::from(r.masked));
        assert_eq!(metrics.counter("faults.crashed"), u64::from(r.crashed));
        // This victim's control flow is user-driven: some live faults must
        // be caught, so the latency histogram exists.
        assert!(r.detected > 0);
        let h = metrics
            .histogram("faults.detect_latency_branches")
            .expect("latency histogram");
        assert_eq!(h.count, u64::from(r.detected));
    }

    #[test]
    fn checksum_off_measures_runtime_detection() {
        let (p, a, image, inputs) = setup();
        let c = FaultCampaign {
            flips: 12,
            seed: 11,
            checksum: false,
            limits: ExecLimits::default(),
        };
        let r = run(&p, &a, &image, &inputs, &c, 1);
        // Restamped images load (unless structurally broken), so not every
        // image fault can be a load-time rejection — the masked/detected
        // split comes from the runtime.
        assert_eq!(r.image_undetected, 0, "only counted in checksum-on mode");
        assert_eq!(r.detected + r.masked + r.crashed, r.injected);
    }

    #[test]
    fn canonical_counters_are_always_emitted() {
        let (p, a, image, inputs) = setup();
        let c = FaultCampaign {
            flips: 2,
            seed: 1,
            checksum: true,
            limits: ExecLimits::default(),
        };
        let r = run(&p, &a, &image, &inputs, &c, 1);
        let emitted: Vec<&str> = r.metrics.counters().map(|(k, _)| k).collect();
        let mut canonical: Vec<&str> = FAULT_COUNTERS.to_vec();
        canonical.sort_unstable();
        assert_eq!(emitted, canonical);
    }
}
