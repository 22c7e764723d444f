//! Regression bands for the experiment drivers.
//!
//! Everything is seeded and deterministic, so these run the (small) versions
//! of each experiment and pin the results to bands around the currently
//! measured values. A change that moves a number out of its band is either
//! a bug or a deliberate recalibration — either way it should be noticed,
//! and EXPERIMENTS.md updated alongside this file.

use ipds_runtime::HwConfig;

#[test]
fn fig8_table_sizes_band() {
    let r = ipds_bench::fig8::run();
    let m = &r.merged;
    // Currently ~37.9 / 18.9 / 412.6 (paper: 34 / 17 / 393).
    assert!(m.avg_bsv_bits > 20.0 && m.avg_bsv_bits < 70.0, "{m:?}");
    assert!(m.avg_bcv_bits > 10.0 && m.avg_bcv_bits < 35.0, "{m:?}");
    assert!(m.avg_bat_bits > 200.0 && m.avg_bat_bits < 800.0, "{m:?}");
    assert!((m.avg_bsv_bits - 2.0 * m.avg_bcv_bits).abs() < 1e-9);
}

#[test]
fn fig7_detection_band() {
    // 30 attacks per workload keeps this quick in debug; bands are wide
    // accordingly.
    let targets = ipds_bench::fig7::targets(2006);
    let rows = ipds_bench::fig7::run(&targets, 30, 2006, None, ipds_sim::default_threads());
    let (cf, det, given) = ipds_bench::fig7::averages(&rows);
    assert!(cf > 0.15 && cf < 0.65, "cf-changed {cf}");
    assert!(det > 0.03 && det < 0.40, "detected {det}");
    assert!(given > 0.15 && given < 0.75, "det|cf {given}");
    for r in &rows {
        assert!(r.detected_rate <= r.cf_changed_rate + 1e-9, "{r:?}");
    }
}

#[test]
fn fig9_overhead_band() {
    let rows = ipds_bench::fig9::run(&HwConfig::table1_default(), 2006);
    let mean = ipds_bench::fig9::mean_normalized(&rows);
    // Currently ~1.015 (paper 1.0079).
    assert!((1.0 - 1e-9..1.06).contains(&mean), "mean normalized {mean}");
    for r in &rows {
        assert!(r.normalized < 1.15, "{r:?}");
    }
}

#[test]
fn latency_band() {
    let rows = ipds_bench::latency::run(&HwConfig::table1_default(), 2006);
    let mean = ipds_bench::latency::mean(&rows);
    // Currently ~10.9 (paper 11.7).
    assert!(mean > 2.0 && mean < 25.0, "mean latency {mean}");
    for r in &rows {
        assert!(r.p50_cycles <= r.p95_cycles + 1e-9, "{r:?}");
        assert!(r.mean_cycles < 60.0, "{r:?}");
    }
}

#[test]
fn context_switch_band() {
    let rows = ipds_bench::context::run(&HwConfig::table1_default());
    for (pair, strategies) in &rows {
        // Blocking costs sit in the hundreds of cycles, not millions.
        for s in strategies {
            assert!(s.blocking_cycles < 5_000, "{pair}: {s:?}");
        }
    }
}

#[test]
fn experiments_are_deterministic() {
    let threads = ipds_sim::default_threads();
    let a = ipds_bench::fig7::run(&ipds_bench::fig7::targets(7), 15, 7, None, threads);
    let b = ipds_bench::fig7::run(&ipds_bench::fig7::targets(7), 15, 7, None, threads);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.cf_changed_rate, y.cf_changed_rate, "{}", x.name);
        assert_eq!(x.detected_rate, y.detected_rate, "{}", x.name);
    }
}
