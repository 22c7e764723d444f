//! Property-test half of the zero-false-positive invariant (feature
//! `props`): random programs, random input streams, every analysis
//! variant — never an alarm without tampering. The deterministic half
//! lives in `zero_false_positive.rs` and always runs.

use ipds::{Config, Input, Protected};
use ipds_sim::ExecLimits;
use ipds_workloads::generator::{generate_program, GenConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random programs, random input streams, every analysis variant:
    /// never an alarm without tampering.
    #[test]
    fn random_programs_never_false_alarm(
        seed in 0u64..10_000,
        input_seed in 0u64..1000,
        store_anchors in proptest::bool::ANY,
        const_store in proptest::bool::ANY,
    ) {
        let src = generate_program(seed, GenConfig::default());
        let cfg = Config {
            store_anchors,
            const_store,
            ..Config::default()
        };
        let protected = Protected::from_program(
            ipds::ir::parse(&src).expect("generated program compiles"),
            &cfg,
        );
        let inputs: Vec<Input> = (0..48)
            .map(|i| Input::Int(((input_seed as i64).wrapping_mul(31) + i * 7) % 41 - 20))
            .collect();
        let report = protected
            .session()
            .inputs(&inputs)
            .limits(ExecLimits { max_steps: 2_000_000, max_depth: 64 })
            .run()
            .expect("clean session runs");
        prop_assert!(
            report.alarms.is_empty(),
            "seed {} raised {:?}\n{}",
            seed,
            report.alarms,
            src
        );
    }

    /// Tampering may or may not be detected, but a detection must imply the
    /// control flow actually changed (consistency of the experiment
    /// machinery itself).
    #[test]
    fn detection_implies_control_flow_change(
        seed in 0u64..2000,
        attack_seed in 0u64..1000,
    ) {
        let src = generate_program(seed, GenConfig::default());
        let program = ipds_ir::parse(&src).expect("generated program compiles");
        let analysis = ipds_analysis::analyze_program(&program, &Config::default());
        let inputs: Vec<Input> = (0..48).map(|i| Input::Int(i % 13 - 6)).collect();
        let limits = ExecLimits { max_steps: 2_000_000, max_depth: 64 };
        let golden = ipds_sim::GoldenRun::capture(&program, &inputs, limits);
        prop_assume!(golden.steps > 4);
        let mut rng = ipds_sim::rng::StdRng::seed_from_u64(attack_seed);
        let trigger = 1 + attack_seed % (golden.steps - 2);
        let outcome = ipds_sim::AttackRunner::new(&program, &analysis, &inputs, &golden.trace, limits)
            .run(trigger, ipds_sim::AttackModel::FormatString, &mut rng);
        prop_assert!(
            !outcome.detected || outcome.control_flow_changed,
            "alarm without control-flow change: {outcome:?}\n{src}"
        );
    }
}
