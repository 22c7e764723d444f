//! Workspace-level guarantee for the parallel campaign engine: for every
//! workload and every attack model, the scoped worker threads of
//! `ipds_parallel::map_indexed` produce results bit-identical to the serial
//! path, and the whole protocol is deterministic under the in-repo RNG
//! (same seed ⇒ same figures, on any machine, at any thread count, no
//! matter how many campaigns already ran in the process). Telemetry rides
//! the same guarantee: a campaign's registry is one fold over its
//! seed-ordered outcomes, so it is bit-identical too, and warm-started
//! attacks report exactly what cold ones do, on the stock workloads and on
//! generated programs.

use ipds_sim::attack::{aggregate, attack_rng};
use ipds_sim::{AttackModel, AttackRunner, Campaign, ExecLimits, GoldenRun, Input, WarmStart};
use ipds_workloads::generator::{generate_program, GenConfig};

const ATTACKS: u32 = 24;
const SEED: u64 = 2006;
const INPUT_SEED: u64 = 2006;

fn protect(w: &ipds_workloads::Workload) -> ipds::Protected {
    ipds::Protected::from_program(w.program(), &ipds::Config::default())
}

fn campaign_pair(
    w: &ipds_workloads::Workload,
    model: AttackModel,
    threads: usize,
) -> (ipds::CampaignResult, ipds::CampaignResult) {
    let protected = protect(w);
    let inputs = w.inputs(INPUT_SEED);
    let serial = protected
        .campaign_spec()
        .inputs(&inputs)
        .attacks(ATTACKS)
        .seed(SEED)
        .model(model)
        .run();
    let parallel = protected
        .campaign_spec()
        .inputs(&inputs)
        .attacks(ATTACKS)
        .seed(SEED)
        .model(model)
        .threads(threads)
        .run();
    (serial, parallel)
}

/// Runs one campaign of the workload's own attack model.
fn own_model_campaign(w: &ipds_workloads::Workload, threads: usize) -> ipds::CampaignResult {
    let protected = protect(w);
    let inputs = w.inputs(INPUT_SEED);
    protected
        .campaign_spec()
        .inputs(&inputs)
        .attacks(ATTACKS)
        .seed(SEED)
        .model(w.vuln)
        .threads(threads)
        .run()
}

#[test]
fn parallel_is_bit_identical_to_serial_on_every_workload() {
    for w in ipds_workloads::all() {
        for model in [AttackModel::FormatString, AttackModel::ContiguousOverflow] {
            let (serial, parallel) = campaign_pair(&w, model, 4);
            assert_eq!(serial, parallel, "{}/{model:?}", w.name);
            // PartialEq on f64 can hide NaN or -0.0 mismatches; the mean
            // lag must match to the bit.
            assert_eq!(
                serial.mean_lag_branches.to_bits(),
                parallel.mean_lag_branches.to_bits(),
                "{}/{model:?}",
                w.name
            );
        }
    }
}

#[test]
fn campaigns_are_deterministic_under_the_in_repo_rng() {
    // Two independent Protected instances and input scripts: nothing may
    // leak state between campaigns, and the seeded protocol alone must
    // pin every figure.
    for w in ipds_workloads::all() {
        let (a_serial, a_par) = campaign_pair(&w, w.vuln, 3);
        let (b_serial, b_par) = campaign_pair(&w, w.vuln, 7);
        assert_eq!(a_serial, b_serial, "{} serial reruns must agree", w.name);
        assert_eq!(a_par, b_par, "{} parallel reruns must agree", w.name);
        assert_eq!(a_serial, b_par, "{} thread count must not matter", w.name);
    }
}

#[test]
fn metered_registries_are_bit_identical_across_thread_counts() {
    for w in ipds_workloads::all() {
        let base = own_model_campaign(&w, 1);
        assert_eq!(
            base.metrics.counter("campaign.attacks"),
            u64::from(ATTACKS),
            "{}",
            w.name
        );
        assert_eq!(
            base.metrics.counter("campaign.attacks_detected"),
            u64::from(base.detected),
            "{}",
            w.name
        );
        for threads in [2, 4, 8] {
            // The result carries its registry, so this compares it whole.
            assert_eq!(
                base,
                own_model_campaign(&w, threads),
                "{} {threads} threads",
                w.name
            );
        }
    }
}

#[test]
fn campaign_registry_is_the_outcome_fold_of_a_cold_loop() {
    // The engine warm-starts its attacks; a hand-driven runner without a
    // warm start runs every attack cold from step 0. Folding the cold
    // outcomes with the public `aggregate` must give the engine's whole
    // result: the typed figures and the registry, checker work included.
    for w in ipds_workloads::all() {
        let protected = protect(&w);
        let inputs = w.inputs(INPUT_SEED);
        let (golden, limits) = protected.campaign_artifacts(&inputs);
        let campaign = Campaign {
            attacks: ATTACKS,
            seed: SEED,
            model: w.vuln,
            limits,
        };
        let mut cold = AttackRunner::new(
            &protected.program,
            &protected.analysis,
            &inputs,
            &golden.trace,
            limits,
        );
        let outcomes: Vec<_> = (0..ATTACKS)
            .map(|i| {
                let (mut rng, trigger) = attack_rng(&campaign, golden.steps, i);
                cold.run(trigger, w.vuln, &mut rng)
            })
            .collect();
        assert_eq!(
            own_model_campaign(&w, 2),
            aggregate(ATTACKS, &outcomes),
            "{}",
            w.name
        );
    }
}

#[test]
fn campaign_engine_equals_a_hand_driven_warm_loop() {
    // The engine's own shape, written out: one warm-started runner, the
    // seeded per-attack RNG, the outcome fold. At one thread and at two
    // the engine must return exactly that loop's result and registry.
    for w in ipds_workloads::all() {
        let protected = protect(&w);
        let inputs = w.inputs(INPUT_SEED);
        let (golden, limits) = protected.campaign_artifacts(&inputs);
        let campaign = Campaign {
            attacks: ATTACKS,
            seed: SEED,
            model: w.vuln,
            limits,
        };
        let warm = protected.warm_start(&inputs, &golden, limits);
        let mut runner = AttackRunner::new(
            &protected.program,
            &protected.analysis,
            &inputs,
            &golden.trace,
            limits,
        )
        .with_warm_start(&warm);
        let outcomes: Vec<_> = (0..ATTACKS)
            .map(|i| {
                let (mut rng, trigger) = attack_rng(&campaign, golden.steps, i);
                runner.run(trigger, w.vuln, &mut rng)
            })
            .collect();
        let by_hand = aggregate(ATTACKS, &outcomes);
        for threads in [1, 2] {
            let result = own_model_campaign(&w, threads);
            assert_eq!(result, by_hand, "{} @ {threads} threads", w.name);
            assert_eq!(
                result.mean_lag_branches.to_bits(),
                by_hand.mean_lag_branches.to_bits(),
                "{} @ {threads} threads",
                w.name
            );
        }
    }
}

#[test]
fn warm_start_matches_cold_execution_on_every_workload() {
    // The differential oracle for the warm-start fast path: the same
    // seeded attacks, run cold from step 0 and warm from golden snapshots
    // (with reconvergence fast-forward), must produce identical outcomes,
    // checker statistics included.
    const ORACLE_ATTACKS: u32 = 60;
    for w in ipds_workloads::all() {
        let protected = protect(&w);
        let inputs = w.inputs(INPUT_SEED);
        let (golden, limits) = protected.campaign_artifacts(&inputs);
        let warm = protected.warm_start(&inputs, &golden, limits);
        let (program, analysis) = (&protected.program, &protected.analysis);
        let mut cold = AttackRunner::new(program, analysis, &inputs, &golden.trace, limits);
        let mut warmed = AttackRunner::new(program, analysis, &inputs, &golden.trace, limits)
            .with_warm_start(&warm);
        for model in [
            AttackModel::FormatString,
            AttackModel::BufferOverflow,
            AttackModel::ContiguousOverflow,
        ] {
            let campaign = Campaign {
                attacks: ORACLE_ATTACKS,
                seed: SEED,
                model,
                limits,
            };
            for i in 0..ORACLE_ATTACKS {
                let (mut rng_cold, trigger) = attack_rng(&campaign, golden.steps, i);
                let (mut rng_warm, _) = attack_rng(&campaign, golden.steps, i);
                assert_eq!(
                    cold.run(trigger, model, &mut rng_cold),
                    warmed.run(trigger, model, &mut rng_warm),
                    "{} {model:?} attack {i} trigger {trigger}",
                    w.name
                );
            }
        }
    }
}

#[test]
fn warm_start_matches_cold_execution_on_generated_programs() {
    // The same oracle on programs the stock workloads do not cover: for
    // every generated program and attack model, warm-started attacks must
    // report exactly what cold ones do, and the four-thread engine must
    // fold to the cold outcomes' result and registry.
    const ORACLE_ATTACKS: u32 = 32;
    let cfg = GenConfig {
        num_vars: 8,
        max_stmts: 10,
        max_depth: 4,
        loop_bound: 8,
    };
    let inputs: Vec<Input> = (0..48).map(|i| Input::Int(i % 13 - 6)).collect();
    let limits = ExecLimits {
        max_steps: 2_000_000,
        max_depth: 64,
    };
    let mut cf_changed = 0;
    for seed in 0..32u64 {
        let program = ipds_ir::parse(&generate_program(seed, cfg)).unwrap();
        let protected = ipds::Protected::from_program(program, &ipds::Config::default());
        let (program, analysis) = (&protected.program, &protected.analysis);
        let golden = GoldenRun::capture(program, &inputs, limits);
        let warm = WarmStart::capture(program, analysis, &inputs, golden.steps, limits);
        let mut cold = AttackRunner::new(program, analysis, &inputs, &golden.trace, limits);
        let mut warmed = AttackRunner::new(program, analysis, &inputs, &golden.trace, limits)
            .with_warm_start(&warm);
        for model in [
            AttackModel::FormatString,
            AttackModel::BufferOverflow,
            AttackModel::ContiguousOverflow,
        ] {
            let campaign = Campaign {
                attacks: ORACLE_ATTACKS,
                seed: SEED,
                model,
                limits,
            };
            let mut outcomes = Vec::new();
            for i in 0..ORACLE_ATTACKS {
                let (mut rng_cold, trigger) = attack_rng(&campaign, golden.steps, i);
                let (mut rng_warm, _) = attack_rng(&campaign, golden.steps, i);
                let outcome = cold.run(trigger, model, &mut rng_cold);
                assert_eq!(
                    outcome,
                    warmed.run(trigger, model, &mut rng_warm),
                    "seed {seed} {model:?} attack {i} trigger {trigger}"
                );
                cf_changed += usize::from(outcome.control_flow_changed);
                outcomes.push(outcome);
            }
            let result = ipds_sim::run_campaign(
                program,
                analysis,
                &inputs,
                &golden,
                &campaign,
                4,
                Some(&warm),
            );
            assert_eq!(
                result,
                aggregate(ORACLE_ATTACKS, &outcomes),
                "seed {seed} {model:?}"
            );
        }
    }
    assert!(cf_changed > 0, "no attack changed control flow");
}

#[test]
fn null_sink_campaign_matches_uninstrumented_engine() {
    // Campaigns carry no event sink, so the plain engine at its default
    // thread count is the uninstrumented baseline: an explicit thread
    // count must not perturb the protocol, and the result has to be
    // byte-identical to the default run's.
    for w in ipds_workloads::all() {
        let protected = protect(&w);
        let inputs = w.inputs(INPUT_SEED);
        let plain = protected
            .campaign_spec()
            .inputs(&inputs)
            .attacks(ATTACKS)
            .seed(SEED)
            .model(w.vuln)
            .run();
        for threads in [1, 4] {
            let explicit = protected
                .campaign_spec()
                .inputs(&inputs)
                .attacks(ATTACKS)
                .seed(SEED)
                .model(w.vuln)
                .threads(threads)
                .run();
            assert_eq!(plain, explicit, "{} @ {threads} threads", w.name);
            assert_eq!(
                plain.mean_lag_branches.to_bits(),
                explicit.mean_lag_branches.to_bits(),
                "{} @ {threads} threads",
                w.name
            );
        }
    }
}

#[test]
fn repeated_campaigns_stay_bit_identical() {
    // 101 consecutive campaigns in one process (one serial base, then 25
    // rounds at 1, 2, 4 and 8 threads), with the golden run and warm
    // start captured once and amortized across all of them: every
    // repetition at every thread count must match the first serial result
    // bit for bit. This is the shape of a campaign-per-shard driver
    // hammering the engine in a loop.
    let w = ipds_workloads::all()
        .into_iter()
        .find(|w| w.name == "telnetd")
        .unwrap();
    let protected = protect(&w);
    let inputs = w.inputs(INPUT_SEED);
    let (golden, limits) = protected.campaign_artifacts(&inputs);
    let warm = protected.warm_start(&inputs, &golden, limits);
    let run = |threads: usize| {
        protected
            .campaign_spec()
            .inputs(&inputs)
            .attacks(ATTACKS)
            .seed(SEED)
            .model(w.vuln)
            .threads(threads)
            .golden(&golden, limits)
            .warm_start(&warm)
            .run()
    };
    let base = run(1);
    for round in 0..25 {
        for threads in [1, 2, 4, 8] {
            assert_eq!(base, run(threads), "round {round} @ {threads} threads");
        }
    }
}

#[test]
fn attack_step_histogram_accounts_for_every_attack() {
    let w = ipds_workloads::all()
        .into_iter()
        .find(|w| w.name == "telnetd")
        .unwrap();
    let result = own_model_campaign(&w, 4);
    let steps = result
        .metrics
        .histogram("campaign.attack_steps")
        .expect("campaign.attack_steps");
    assert_eq!(steps.count, u64::from(ATTACKS));
    // Detection lag is only recorded for detected attacks.
    let detected = u64::from(result.detected);
    match result.metrics.histogram("campaign.detection_lag_branches") {
        Some(lag) => assert_eq!(lag.count, detected),
        None => assert_eq!(detected, 0),
    }
}
