//! §6 detection latency — "On average, it is 11.7 cycles."
//!
//! Measured exactly as the paper describes: from the moment a committed
//! branch is sent to the IPDS to the moment its verification completes,
//! under the Table 1 configuration. The claim to reproduce: the latency is
//! well below the ~20-stage pipeline depth, so checking initiated at decode
//! resolves before retirement.

use ipds_runtime::HwConfig;
use ipds_workloads::all;

/// Per-workload latency row.
#[derive(Debug, Clone)]
pub struct LatencyRow {
    /// Workload name.
    pub name: &'static str,
    /// Mean branch→verification latency in cycles.
    pub mean_cycles: f64,
    /// Median latency in cycles.
    pub p50_cycles: f64,
    /// 95th-percentile latency in cycles.
    pub p95_cycles: f64,
    /// Peak IPDS queue occupancy.
    pub max_queue: usize,
}

/// Runs the latency measurement.
pub fn run(hw: &HwConfig, input_seed: u64) -> Vec<LatencyRow> {
    let mut rows = Vec::new();
    for w in all() {
        let protected = crate::artifacts::protected(&w, &ipds::Config::default(), false);
        let inputs = w.inputs(input_seed);
        let report = protected.timed(&inputs, hw);
        rows.push(LatencyRow {
            name: w.name,
            mean_cycles: report.mean_detection_latency,
            p50_cycles: report.p50_detection_latency,
            p95_cycles: report.p95_detection_latency,
            max_queue: report.max_queue_depth,
        });
    }
    rows
}

/// Mean over workloads.
pub fn mean(rows: &[LatencyRow]) -> f64 {
    rows.iter().map(|r| r.mean_cycles).sum::<f64>() / rows.len().max(1) as f64
}

/// Prints the measurement.
pub fn print(rows: &[LatencyRow]) {
    println!("Detection latency (branch sent to IPDS -> verification done)");
    println!("{:-<64}", "");
    println!(
        "{:<10} {:>12} {:>10} {:>10} {:>12}",
        "benchmark", "mean cyc", "p50", "p95", "max queue"
    );
    for r in rows {
        println!(
            "{:<10} {:>12.2} {:>10.1} {:>10.1} {:>12}",
            r.name, r.mean_cycles, r.p50_cycles, r.p95_cycles, r.max_queue
        );
    }
    println!("{:-<64}", "");
    println!(
        "mean: {:.2} cycles  (paper: 11.7 cycles, within a >20-stage pipeline)",
        mean(rows)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_pipeline_scale() {
        let rows = run(&HwConfig::table1_default(), 3);
        let m = mean(&rows);
        assert!(m > 0.0);
        assert!(
            m < 25.0,
            "mean latency {m} should sit within a pipeline depth"
        );
    }
}
