//! Workspace-level guarantee for the parallel campaign engine: for every
//! workload and every attack model, the persistent worker pool produces
//! results bit-identical to the serial path, and the whole protocol is
//! deterministic under the in-repo RNG (same seed ⇒ same figures, on any
//! machine, at any thread count, no matter how many campaigns already ran
//! through the pool). Telemetry rides the same guarantee: all metric
//! aggregation commutes, so merged registries are bit-identical too, and
//! warm-started attacks report exactly what cold ones do.

use ipds::telemetry::{EventSink, JsonlSink, MetricsRegistry, NULL_SINK};
use ipds_sim::attack::attack_rng;
use ipds_sim::{AttackModel, AttackRunner, Campaign};

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

/// Runs one metered campaign with `sink` attached. `NULL_SINK` lets the
/// engine warm-start attacks; a detail sink such as `JsonlSink` makes it
/// run every attack cold from step 0.
fn metered<S: EventSink>(
    w: &ipds_workloads::Workload,
    threads: usize,
    sink: &S,
) -> (ipds::CampaignResult, MetricsRegistry) {
    let protected = protect(w);
    let inputs = w.inputs(INPUT_SEED);
    protected
        .campaign_spec()
        .inputs(&inputs)
        .attacks(ATTACKS)
        .seed(SEED)
        .model(w.vuln)
        .threads(threads)
        .sink(sink)
        .run_metered()
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
        let (base_result, base_metrics) = metered(&w, 1, &NULL_SINK);
        assert_eq!(
            base_metrics.counter("campaign.attacks"),
            u64::from(ATTACKS),
            "{}",
            w.name
        );
        assert_eq!(
            base_metrics.counter("campaign.attacks_detected"),
            u64::from(base_result.detected),
            "{}",
            w.name
        );
        // A detail sink forces every attack cold; its registry, checker
        // work included, must match the warm-started one.
        let cold_sink = JsonlSink::buffered(1);
        let cold = metered(&w, 1, &cold_sink);
        let runs = [2, 4, 8].map(|threads| {
            (
                format!("{threads} threads"),
                metered(&w, threads, &NULL_SINK),
            )
        });
        for (label, (result, metrics)) in runs.into_iter().chain([("cold".to_string(), cold)]) {
            assert_eq!(base_result, result, "{} {label}", w.name);
            assert_eq!(base_metrics, metrics, "{} {label}", w.name);
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
fn null_sink_campaign_matches_uninstrumented_engine() {
    // Attaching the default NullSink must not perturb the protocol: the
    // result has to be byte-identical to the plain engine's.
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
            let with_null = protected
                .campaign_spec()
                .inputs(&inputs)
                .attacks(ATTACKS)
                .seed(SEED)
                .model(w.vuln)
                .threads(threads)
                .run();
            assert_eq!(plain, with_null, "{} @ {threads} threads", w.name);
            assert_eq!(
                plain.mean_lag_branches.to_bits(),
                with_null.mean_lag_branches.to_bits(),
                "{} @ {threads} threads",
                w.name
            );
        }
    }
}

#[test]
fn repeated_campaigns_reuse_the_persistent_pool_bit_identically() {
    // 100 consecutive campaigns through the shared persistent pool, with
    // the golden run and warm start captured once and amortized across
    // all of them: every repetition at every thread count must match the
    // first serial result bit for bit. This is the regression shape that
    // motivated the pool rework — a campaign-per-shard driver hammering
    // the engine in a loop.
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
    let (result, metrics) = metered(&w, 4, &NULL_SINK);
    let steps = metrics
        .histogram("campaign.attack_steps")
        .expect("campaign.attack_steps");
    assert_eq!(steps.count, u64::from(ATTACKS));
    // Detection lag is only recorded for detected attacks.
    let detected = u64::from(result.detected);
    match metrics.histogram("campaign.detection_lag_branches") {
        Some(lag) => assert_eq!(lag.count, detected),
        None => assert_eq!(detected, 0),
    }
}
