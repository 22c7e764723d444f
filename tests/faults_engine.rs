//! The fault-injection engine's two headline contracts, exercised across
//! the facade (see docs/FAULTS.md):
//!
//! 1. **Determinism** — a seeded campaign is bit-identical at any thread
//!    count: same outcome counts, same latency vector, same merged
//!    `faults.*` metrics.
//! 2. **Loader integrity** — with the checksum on, every single-bit flip
//!    of the table image is rejected at load time (`image_undetected`
//!    stays 0 and image detections are latency-0).

use ipds::{Config, Protected};

fn protect(name: &str) -> (Protected, Vec<ipds::Input>) {
    let w = ipds::workloads::all()
        .into_iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| panic!("workload `{name}`"));
    let inputs = w.inputs(2006);
    (
        Protected::from_program(w.program(), &Config::default()),
        inputs,
    )
}

#[test]
fn campaigns_are_bit_identical_across_thread_counts() {
    let (p, inputs) = protect("telnetd");
    for checksum in [true, false] {
        let serial = p
            .fault_spec()
            .inputs(&inputs)
            .flips(8)
            .seed(2006)
            .checksum(checksum)
            .threads(1)
            .run();
        for threads in [2usize, 4, 8] {
            let parallel = p
                .fault_spec()
                .inputs(&inputs)
                .flips(8)
                .seed(2006)
                .checksum(checksum)
                .threads(threads)
                .run();
            // The result carries its registry, so this compares it whole.
            assert_eq!(
                serial, parallel,
                "checksum={checksum} threads={threads}: results must be bit-identical"
            );
        }
    }
}

#[test]
fn every_single_bit_image_flip_is_detected_at_load() {
    for w in ipds::workloads::all().into_iter().take(3) {
        let inputs = w.inputs(2006);
        let p = Protected::from_program(w.program(), &Config::default());
        let r = p
            .fault_spec()
            .inputs(&inputs)
            .flips(16)
            .seed(0x5eed)
            .threads(4)
            .run();
        assert_eq!(
            r.image_undetected, 0,
            "{}: a checksummed loader must reject every flip",
            w.name
        );
        // Image faults are load-time rejections: all detected, and the
        // campaign's detections are at least as many.
        assert!(r.detected >= r.image, "{}", w.name);
        assert_eq!(r.image, 16, "{}", w.name);
        // Latency-0 detections at least cover the image rejections.
        let zero_latency = r.latencies.iter().filter(|&&l| l == 0).count() as u32;
        assert!(zero_latency >= r.image, "{}", w.name);
    }
}

#[test]
fn seeds_select_distinct_campaigns() {
    let (p, inputs) = protect("crond");
    let a = p.fault_spec().inputs(&inputs).flips(8).seed(1).run();
    let b = p.fault_spec().inputs(&inputs).flips(8).seed(2).run();
    // Outcome tallies may coincide, but the plans differ, so the full
    // result (latency vector included) almost surely does; at minimum the
    // campaign must be internally consistent either way.
    assert_eq!(a.detected + a.masked + a.crashed, a.injected);
    assert_eq!(b.detected + b.masked + b.crashed, b.injected);
    assert_eq!(a.injected, 24);
    assert_eq!(b.injected, 24);
}
