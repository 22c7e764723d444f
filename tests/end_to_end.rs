//! Cross-crate integration: compile → analyze → run → attack → time, over
//! the full workload suite.

use ipds::telemetry::JsonlSink;
use ipds::{Config, Protected};
use ipds_runtime::HwConfig;
use ipds_sim::AttackModel;

#[test]
fn campaigns_detect_something_on_every_correlated_workload() {
    // Every workload has correlated scalar state; a big enough seeded
    // campaign must land at least one detected attack.
    for w in ipds_workloads::all() {
        let protected = Protected::from_program(w.program(), &Config::default());
        let inputs = w.inputs(1);
        let r = protected
            .campaign_spec()
            .inputs(&inputs)
            .attacks(60)
            .seed(99)
            .model(w.vuln)
            .run();
        assert!(
            r.cf_changed > 0,
            "{}: no attack changed control flow",
            w.name
        );
        assert!(
            r.detected > 0,
            "{}: nothing detected out of {} cf-changing attacks",
            w.name,
            r.cf_changed
        );
        assert!(r.detected <= r.cf_changed, "{}: {r:?}", w.name);
    }
}

#[test]
fn campaigns_are_reproducible() {
    let w = ipds_workloads::by_name("httpd").unwrap();
    let protected = Protected::from_program(w.program(), &Config::default());
    let inputs = w.inputs(3);
    let a = protected
        .campaign_spec()
        .inputs(&inputs)
        .attacks(30)
        .seed(5)
        .model(AttackModel::BufferOverflow)
        .run();
    let b = protected
        .campaign_spec()
        .inputs(&inputs)
        .attacks(30)
        .seed(5)
        .model(AttackModel::BufferOverflow)
        .run();
    assert_eq!(a, b, "same seed must reproduce exactly");
}

#[test]
fn timing_runs_preserve_function_and_bound_overhead() {
    let hw = HwConfig::table1_default();
    for w in ipds_workloads::all() {
        let protected = Protected::from_program(w.program(), &Config::default());
        let inputs = w.inputs(2);
        let base = protected.timed_baseline(&inputs, &hw);
        let with = protected.timed(&inputs, &hw);
        assert_eq!(base.instructions, with.instructions, "{}", w.name);
        assert_eq!(base.branches, with.branches, "{}", w.name);
        assert_eq!(with.alarms, 0, "{}: clean timed run alarmed", w.name);
        let norm = with.cycles as f64 / base.cycles.max(1) as f64;
        assert!(norm >= 1.0 - 1e-9, "{}: {norm}", w.name);
        assert!(norm < 1.25, "{}: overhead {norm} out of band", w.name);
    }
}

#[test]
fn perfect_hash_is_collision_free_for_every_function() {
    for w in ipds_workloads::all() {
        let protected = Protected::from_program(w.program(), &Config::default());
        for f in &protected.analysis.functions {
            let mut seen = std::collections::HashSet::new();
            for b in &f.branches {
                assert_eq!(b.slot, f.hash.slot(b.pc), "{}::{}", w.name, f.name);
                assert!(
                    seen.insert(b.slot),
                    "{}::{} has a hash collision",
                    w.name,
                    f.name
                );
                assert!(b.slot < f.hash.space());
            }
        }
    }
}

#[test]
fn bat_encoding_roundtrips_for_every_function() {
    for w in ipds_workloads::all() {
        let protected = Protected::from_program(w.program(), &Config::default());
        for f in &protected.analysis.functions {
            let bytes = ipds_analysis::encode::encode_bat(&f.bat, &f.branches, &f.hash);
            let back = ipds_analysis::encode::decode_bat(&bytes, &f.branches, &f.hash)
                .unwrap_or_else(|| panic!("{}::{} failed to decode", w.name, f.name));
            assert_eq!(back, f.bat, "{}::{}", w.name, f.name);
            assert!(
                f.sizes.bat_bits <= bytes.len() * 8,
                "{}::{} size accounting exceeds the encoding",
                w.name,
                f.name
            );
        }
    }
}

#[test]
fn ablation_variants_analyze_every_workload() {
    for variant in [
        Config::default(),
        Config {
            store_anchors: false,
            ..Config::default()
        },
        Config {
            load_anchors: false,
            ..Config::default()
        },
        Config {
            const_store: true,
            ..Config::default()
        },
    ] {
        for w in ipds_workloads::all() {
            let protected = Protected::from_program(w.program(), &variant);
            // Clean runs stay clean under every variant.
            let r = protected.run(&w.inputs(0));
            assert!(r.alarms.is_empty(), "{} under {variant:?}", w.name);
        }
    }
}

#[test]
fn detection_lag_is_reported_in_branches() {
    let w = ipds_workloads::by_name("telnetd").unwrap();
    let protected = Protected::from_program(w.program(), &Config::default());
    let inputs = w.inputs(0);
    let r = protected
        .campaign_spec()
        .inputs(&inputs)
        .attacks(80)
        .seed(17)
        .model(AttackModel::BufferOverflow)
        .run();
    if r.detected > 0 {
        assert!(r.mean_lag_branches >= 0.0);
        // A detection within the same session should happen within the
        // session's branch budget.
        assert!(r.mean_lag_branches < 10_000.0, "{r:?}");
    }
}

#[test]
fn contiguous_overflows_hit_harder_than_single_cells() {
    // The block-smash model perturbs 2-8 cells per attack: across the
    // suite it must change control flow at least as often as single-cell
    // tampering (per-workload noise aside, the aggregate ordering is
    // robust).
    let mut single_cf = 0u32;
    let mut block_cf = 0u32;
    for w in ipds_workloads::all() {
        let protected = Protected::from_program(w.program(), &Config::default());
        let inputs = w.inputs(9);
        single_cf += protected
            .campaign_spec()
            .inputs(&inputs)
            .attacks(40)
            .seed(13)
            .model(AttackModel::BufferOverflow)
            .run()
            .cf_changed;
        block_cf += protected
            .campaign_spec()
            .inputs(&inputs)
            .attacks(40)
            .seed(13)
            .model(AttackModel::ContiguousOverflow)
            .run()
            .cf_changed;
    }
    assert!(
        block_cf > single_cf,
        "block {block_cf} should exceed single {single_cf}"
    );
}

#[test]
fn jsonl_sink_sees_every_branch_without_changing_the_run() {
    // Streaming per-branch records is an observer: the session's report
    // is the same with or without a sink, and the sink writes exactly one
    // branch line per branch the checker counted.
    for w in ipds_workloads::all() {
        let protected = Protected::from_program(w.program(), &Config::default());
        let inputs = w.inputs(1);
        let plain = protected.session().inputs(&inputs).run().unwrap();
        let mut sink = JsonlSink::buffered();
        let streamed = protected
            .session()
            .inputs(&inputs)
            .sink(&mut sink)
            .run()
            .unwrap();
        assert_eq!(format!("{streamed:?}"), format!("{plain:?}"), "{}", w.name);
        let jsonl = String::from_utf8(sink.finish().unwrap()).unwrap();
        let branches = jsonl
            .lines()
            .filter(|l| l.starts_with("{\"type\":\"branch\","))
            .count();
        assert_eq!(branches as u64, plain.stats.branches, "{}", w.name);
        assert!(plain.stats.branches > 0, "{}", w.name);
        assert_eq!(
            jsonl.lines().last(),
            Some(format!("{{\"type\":\"summary\",\"events\":{branches},\"dropped\":0}}").as_str()),
            "{}",
            w.name
        );
    }
}
