//! The interpreted fault paths, rebuilt from public API, diffed against
//! `FaultRunner`.
//!
//! `FaultRunner` checks a checker-state fault and a checksum-off image
//! fault by replaying the clean run's recorded event stream: the checker
//! only observes the run, so neither fault can change the program's path.
//! The oracle here runs them the way the engine did before it recorded the
//! stream: a fresh `Interp` driving an `IpdsObserver` to the trigger step,
//! `inject_bsv` on the live top frame (rotated when the slot already holds
//! the forced status), the rest of the run, and the same grading: first
//! alarm after the injection, then a counted frame-stack underflow, then
//! the run's own end. Image faults corrupt, restamp and load the image the
//! same way and run the whole program under the loaded tables.
//!
//! Both must give the same `FaultOutcome` on the stock workloads' seeded
//! campaigns, with the checksum on and off; at every trigger step of a
//! small victim that calls a function in a loop, so triggers land on
//! `Call` and `Return` steps; on a one-step program, where the trigger
//! falls past the end; and on a program whose clean run exhausts its
//! budget.

use ipds::analysis::{BranchStatus, ProgramAnalysis, TableImage};
use ipds::ir::{FuncId, Program};
use ipds::runtime::{IpdsChecker, RuntimeError};
use ipds::sim::{
    fault_plan, AnomalyReport, ExecLimits, ExecObserver, ExecStatus, FaultCampaign, FaultMutation,
    FaultOutcome, FaultPlan, FaultRunner, FaultSite, GoldenRun, Input, Interp, IpdsObserver,
};
use ipds::{Config, Protected};

/// Everything one fault runs against.
struct Target<'a> {
    program: &'a Program,
    analysis: &'a ProgramAnalysis,
    image: &'a TableImage,
    inputs: &'a [Input],
    limits: ExecLimits,
}

/// The grading both engines share: the first alarm after the injection,
/// then a counted frame-stack underflow (unless underflows are expected),
/// then how the run ended.
fn grade(
    checker: &IpdsChecker,
    at: u64,
    underflows_expected: bool,
    status: ExecStatus,
) -> FaultOutcome {
    if let Some(alarm) = checker.alarms().iter().find(|a| a.branch_seq > at) {
        return FaultOutcome::Detected {
            report: AnomalyReport::Alarm {
                pc: alarm.pc,
                branch_seq: alarm.branch_seq,
            },
            latency_branches: alarm.branch_seq.saturating_sub(at).saturating_sub(1),
        };
    }
    if !underflows_expected && checker.stats().underflows > 0 {
        return FaultOutcome::Detected {
            report: AnomalyReport::Runtime(RuntimeError::FrameStackUnderflow {
                component: "checker",
            }),
            latency_branches: checker.stats().branches.saturating_sub(at),
        };
    }
    match status {
        ExecStatus::Exited(_) => FaultOutcome::Masked,
        status => FaultOutcome::Crashed { status },
    }
}

/// A checker-state fault, interpreted: run to the trigger, force the slot,
/// run the rest.
fn interpreted_checker_fault(
    t: &Target,
    trigger: u64,
    slot: u64,
    status: BranchStatus,
) -> FaultOutcome {
    let mut interp = Interp::new(t.program, t.inputs.to_vec(), t.limits);
    let mut obs = IpdsObserver::new(IpdsChecker::new(t.analysis));
    obs.checker.on_call(interp.main());
    interp.run_steps(trigger, &mut obs);
    let at = obs.checker.stats().branches;
    let len = obs.checker.top_bsv_len();
    let injected = *interp.status() == ExecStatus::Running && len > 0 && {
        let s = (slot % len as u64) as usize;
        match obs.checker.inject_bsv(s, status) {
            Some(old) if old == status => {
                let rotated = match status {
                    BranchStatus::Taken => BranchStatus::NotTaken,
                    BranchStatus::NotTaken => BranchStatus::Unknown,
                    BranchStatus::Unknown => BranchStatus::Taken,
                };
                obs.checker.inject_bsv(s, rotated).is_some()
            }
            Some(_) => true,
            None => false,
        }
    };
    let end = interp.run(&mut obs);
    if !injected {
        return FaultOutcome::Masked;
    }
    grade(&obs.checker, at, false, end)
}

/// An image fault, interpreted: corrupt, (restamp,) load, and run the
/// whole program under the loaded tables.
fn interpreted_image_fault(t: &Target, checksum: bool, bits: &[u64]) -> FaultOutcome {
    let mut bytes = t.image.as_bytes().to_vec();
    let (lo, span) = if checksum {
        (0, bytes.len() as u64 * 8)
    } else {
        let pool = t.image.payload_offset().unwrap_or(0).min(bytes.len());
        (pool as u64 * 8, ((bytes.len() - pool) as u64 * 8).max(1))
    };
    let mut positions: Vec<u64> = bits.iter().map(|b| lo + b % span).collect();
    positions.sort_unstable();
    positions.dedup();
    for pos in positions {
        bytes[(pos / 8) as usize] ^= 1 << (pos % 8);
    }
    let mut corrupted = TableImage::from_bytes(bytes);
    if !checksum {
        corrupted.restamp_checksum();
    }
    let loaded = match corrupted.load() {
        Err(e) => {
            return FaultOutcome::Detected {
                report: AnomalyReport::ImageRejected(e.to_string()),
                latency_branches: 0,
            }
        }
        Ok(loaded) => loaded,
    };
    if checksum {
        return FaultOutcome::Masked;
    }
    if loaded.functions.len() != t.analysis.functions.len() {
        return FaultOutcome::Detected {
            report: AnomalyReport::ImageRejected("function count mismatch".into()),
            latency_branches: 0,
        };
    }
    let mut interp = Interp::new(t.program, t.inputs.to_vec(), t.limits);
    let mut obs = IpdsObserver::new(IpdsChecker::new(&loaded));
    obs.checker.on_call(interp.main());
    let end = interp.run(&mut obs);
    grade(&obs.checker, 0, true, end)
}

/// The oracle for every plan the runner replays.
fn interpreted(t: &Target, campaign: &FaultCampaign, plan: &FaultPlan) -> FaultOutcome {
    match plan.mutation {
        FaultMutation::BsvStatus { slot, status } => {
            interpreted_checker_fault(t, plan.trigger_step, slot, status)
        }
        FaultMutation::ImageBits(ref bits) => interpreted_image_fault(t, campaign.checksum, bits),
        FaultMutation::MemoryBit { .. } => unreachable!("memory faults run the interpreter"),
    }
}

fn runner<'a>(t: &Target<'a>) -> FaultRunner<'a> {
    FaultRunner::new(t.program, t.analysis, t.image, t.inputs, t.limits)
}

fn checker_plan(trigger_step: u64, slot: u64, status: BranchStatus) -> FaultPlan {
    FaultPlan {
        index: 1,
        trigger_step,
        mutation: FaultMutation::BsvStatus { slot, status },
    }
}

const STATUSES: [BranchStatus; 3] = [
    BranchStatus::Taken,
    BranchStatus::NotTaken,
    BranchStatus::Unknown,
];

/// The clean run's step count and the steps at which it committed a call
/// or a return.
#[derive(Default)]
struct CallSteps {
    step: u64,
    at: Vec<u64>,
}

impl ExecObserver for CallSteps {
    const WANTS_INST: bool = true;
    fn on_inst(&mut self, _pc: u64) {
        self.step += 1;
    }
    fn on_call(&mut self, _func: FuncId) {
        self.at.push(self.step);
    }
    fn on_return(&mut self) {
        self.at.push(self.step);
    }
}

/// Diffs every checker-state fault at triggers `0..=steps + 1` (each
/// status, a few slot draws) and returns the outcomes.
fn diff_every_trigger(t: &Target, what: &str) -> Vec<FaultOutcome> {
    let steps = GoldenRun::capture(t.program, t.inputs, t.limits).steps;
    let campaign = FaultCampaign {
        flips: 1,
        seed: 0,
        checksum: false,
        limits: t.limits,
    };
    let mut r = runner(t);
    let mut outcomes = Vec::new();
    for trigger in 0..=steps + 1 {
        for status in STATUSES {
            for slot in [0, 1, 5, u64::MAX] {
                let plan = checker_plan(trigger, slot, status);
                let want = interpreted(t, &campaign, &plan);
                assert_eq!(r.run(&campaign, &plan), want, "{what}: {plan:?}");
                outcomes.push(want);
            }
        }
    }
    outcomes
}

#[test]
fn replayed_faults_equal_interpreted_ones_on_every_workload() {
    let mut replayed = 0;
    for w in ipds::workloads::all() {
        let p = Protected::from_program(w.program(), &Config::default());
        let image = TableImage::build(&p.analysis);
        for seed in [1, 2006] {
            let inputs = w.inputs(seed);
            let (golden, limits) = p.campaign_artifacts(&inputs);
            let t = Target {
                program: &p.program,
                analysis: &p.analysis,
                image: &image,
                inputs: &inputs,
                limits,
            };
            let mut r = runner(&t);
            for checksum in [true, false] {
                let campaign = FaultCampaign {
                    flips: 16,
                    seed,
                    checksum,
                    limits,
                };
                for i in 0..campaign.total() {
                    let plan = fault_plan(&campaign, golden.steps, i);
                    if plan.site() == FaultSite::Memory {
                        continue;
                    }
                    let what = format!("{} seed {seed} checksum {checksum}: {plan:?}", w.name);
                    assert_eq!(
                        r.run(&campaign, &plan),
                        interpreted(&t, &campaign, &plan),
                        "{what}"
                    );
                    replayed += 1;
                }
            }
        }
    }
    assert_eq!(replayed, 10 * 2 * 2 * 32);
}

#[test]
fn every_trigger_step_of_a_calling_victim_agrees() {
    let src = "fn check(int v) -> int { int r; r = 0; \
          if (v > 2) { r = 1; } if (v > 2) { r = r + 2; } return r; } \
        fn main() -> int { int user; int i; int s; user = read_int(); s = 0; \
          for (i = 0; i < 4; i = i + 1) { \
            if (user == 1) { print_int(100); } \
            s = s + check(read_int()); \
            if (user == 1) { print_int(200); } else { print_int(300); } \
          } return s; }";
    let p = Protected::compile(src).unwrap();
    let image = TableImage::build(&p.analysis);
    let inputs: Vec<Input> = [1, 0, 5, 3, 1].into_iter().map(Input::Int).collect();
    let t = Target {
        program: &p.program,
        analysis: &p.analysis,
        image: &image,
        inputs: &inputs,
        limits: ExecLimits::default(),
    };
    let mut calls = CallSteps::default();
    let mut interp = Interp::new(&p.program, inputs.clone(), t.limits);
    assert_eq!(interp.run(&mut calls), ExecStatus::Exited(6));
    // Four calls and four returns, each at a step a trigger can hit.
    assert_eq!(calls.at.len(), 8);
    assert!(calls.at.iter().all(|&s| s > 0 && s < interp.steps()));

    let outcomes = diff_every_trigger(&t, "calling victim");
    let detected = outcomes
        .iter()
        .filter(|o| matches!(o, FaultOutcome::Detected { .. }))
        .count();
    assert!(detected > 0, "no checker-state fault was detected");
    assert!(outcomes.contains(&FaultOutcome::Masked));
}

#[test]
fn a_trigger_past_a_one_step_run_is_masked() {
    let src = "fn main() -> int { int x; exit(7); x = read_int(); \
        if (x > 0) { print_int(1); } if (x > 0) { print_int(2); } return x; }";
    let p = Protected::compile(src).unwrap();
    let image = TableImage::build(&p.analysis);
    let (golden, limits) = p.campaign_artifacts(&[]);
    assert_eq!((golden.steps, &golden.status), (1, &ExecStatus::Exited(7)));
    let t = Target {
        program: &p.program,
        analysis: &p.analysis,
        image: &image,
        inputs: &[],
        limits,
    };
    let campaign = FaultCampaign {
        flips: 4,
        seed: 2006,
        checksum: false,
        limits,
    };
    let mut r = runner(&t);
    for i in 0..campaign.total() {
        let plan = fault_plan(&campaign, golden.steps, i);
        if plan.site() == FaultSite::Memory {
            continue;
        }
        let got = r.run(&campaign, &plan);
        assert_eq!(got, interpreted(&t, &campaign, &plan), "{plan:?}");
        if plan.site() == FaultSite::CheckerState {
            // The only trigger a one-step run draws is the step it ends at.
            assert_eq!((plan.trigger_step, got), (1, FaultOutcome::Masked));
        }
    }
    diff_every_trigger(&t, "one-step program");
}

#[test]
fn a_clean_run_that_exhausts_its_budget_agrees() {
    let src = "fn main() -> int { int x; int n; x = read_int(); n = 0; \
        while (x > 0) { if (x > 5) { n = n + 1; } if (x > 5) { n = n - 1; } } return n; }";
    let p = Protected::compile(src).unwrap();
    let image = TableImage::build(&p.analysis);
    let inputs = [Input::Int(7)];
    let limits = ExecLimits {
        max_steps: 300,
        ..ExecLimits::default()
    };
    let t = Target {
        program: &p.program,
        analysis: &p.analysis,
        image: &image,
        inputs: &inputs,
        limits,
    };
    let golden = GoldenRun::capture(&p.program, &inputs, limits);
    assert_eq!(golden.status, ExecStatus::OutOfBudget);
    let outcomes = diff_every_trigger(&t, "budget-exhausting program");
    assert!(outcomes.contains(&FaultOutcome::Crashed {
        status: ExecStatus::OutOfBudget
    }));
    assert!(outcomes
        .iter()
        .any(|o| matches!(o, FaultOutcome::Detected { .. })));
    // Checksum-off image faults replay the same exhausted stream.
    let campaign = FaultCampaign {
        flips: 24,
        seed: 9,
        checksum: false,
        limits,
    };
    let mut r = runner(&t);
    for i in (0..campaign.total()).filter(|i| i % 3 == 0) {
        let plan = fault_plan(&campaign, golden.steps, i);
        assert_eq!(
            r.run(&campaign, &plan),
            interpreted(&t, &campaign, &plan),
            "{plan:?}"
        );
    }
}

#[cfg(feature = "props")]
mod props {
    use super::*;
    use ipds_workloads::generator::{generate_program, GenConfig};
    use proptest::prelude::*;

    proptest! {
        /// Random generated programs, random trigger steps (past the end
        /// included) and random BSV mutations: the replayed fault equals
        /// the interpreted one.
        #[test]
        fn replayed_checker_faults_match_the_interpreter(
            seed in 0u64..100_000,
            faults in proptest::collection::vec((0u64..1_100, any::<u64>(), 0usize..3), 1..12),
        ) {
            let p = Protected::compile(generate_program(seed, GenConfig::default()).as_str())
                .unwrap();
            let image = TableImage::build(&p.analysis);
            let inputs: Vec<Input> = (0..64)
                .map(|i| Input::Int((seed as i64 * 7 + i) % 23 - 11))
                .collect();
            let limits = ExecLimits { max_steps: 200_000, max_depth: 64 };
            let t = Target {
                program: &p.program,
                analysis: &p.analysis,
                image: &image,
                inputs: &inputs,
                limits,
            };
            let steps = GoldenRun::capture(&p.program, &inputs, limits).steps;
            let campaign = FaultCampaign { flips: 1, seed, checksum: false, limits };
            let mut r = runner(&t);
            for (per_mille, slot, status) in faults {
                let plan = checker_plan(steps * per_mille / 1_000, slot, STATUSES[status]);
                prop_assert_eq!(r.run(&campaign, &plan), interpreted(&t, &campaign, &plan));
            }
        }
    }
}
