//! A fixed piece of work that measures how fast the host runs right now.
//!
//! Other tenants share the reference box's cores, and while they are busy
//! every round takes 1.6× to 2× as long, in stretches of seconds to tens
//! of minutes (see "Noise" in `README.md`). The probe slows down with them
//! by nearly the same factor: it sorts ten thousand short heap-allocated
//! strings, which leans on the allocator, unpredictable branches and an
//! L2-sized working set, as the library's rounds do. Timing the probe next
//! to every round and scaling the round by `REFERENCE_NS / probe` gives the
//! round's time on the host at the speed where the probe takes
//! [`REFERENCE_NS`], which is what the end-to-end metrics report.
//!
//! The probe depends on nothing but the standard library, so no change to
//! the library can make it faster or slower.

use std::hint::black_box;
use std::time::Instant;

/// Strings the probe sorts.
const STRINGS: usize = 10_000;

/// What the probe takes on the reference box (2-vCPU Intel Xeon Sapphire
/// Rapids at 2.0 GHz) while its neighbours are quiet.
pub const REFERENCE_NS: f64 = 2.1e6;

/// Runs the probe once and returns how long it took, in nanoseconds.
pub fn time() -> u64 {
    let t0 = Instant::now();
    black_box(sort_strings(black_box(STRINGS)));
    t0.elapsed().as_nanos() as u64
}

/// `ns` measured while the probe took `probe_ns`, scaled to the host speed
/// at which the probe takes [`REFERENCE_NS`].
pub fn scale(ns: u64, probe_ns: u64) -> u64 {
    (ns as f64 * REFERENCE_NS / probe_ns as f64).round() as u64
}

/// Formats `n` pseudo-random keys, sorts them and counts the distinct ones.
fn sort_strings(n: usize) -> usize {
    let mut state = 9u64;
    let mut keys: Vec<String> = (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            format!("k{:x}", state >> 20)
        })
        .collect();
    keys.sort();
    keys.dedup();
    keys.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_work_is_fixed() {
        assert_eq!(sort_strings(STRINGS), sort_strings(STRINGS));
        assert!(time() > 0);
    }

    #[test]
    fn scaling_is_proportional() {
        let reference = REFERENCE_NS as u64;
        assert_eq!(scale(1_000, reference), 1_000);
        assert_eq!(scale(1_000, 2 * reference), 500);
    }
}
