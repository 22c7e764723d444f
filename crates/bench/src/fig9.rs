//! Figure 9 — performance normalized to the no-IPDS baseline.
//!
//! Each workload runs twice under the timing model with Table 1 parameters:
//! with and without the IPDS unit attached. The paper's mean slowdown is
//! 0.79%; the shape to reproduce is "negligible, always ≥ 1.0×, worst cases
//! from spill traffic and queue pressure".

use ipds::Protected;
use ipds_runtime::HwConfig;
use ipds_sim::Input;
use ipds_workloads::all;

/// One bar of Fig. 9.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Workload name.
    pub name: &'static str,
    /// Baseline cycles (no IPDS).
    pub base_cycles: u64,
    /// Cycles with IPDS attached.
    pub ipds_cycles: u64,
    /// `ipds_cycles / base_cycles`.
    pub normalized: f64,
    /// Committed instructions (identical in both runs).
    pub instructions: u64,
    /// Cycles lost to IPDS queue back-pressure.
    pub stall_cycles: u64,
    /// Table-stack spill/fill events.
    pub spills: u64,
}

/// Runs the Fig. 9 experiment with the given hardware config.
pub fn run(hw: &HwConfig, input_seed: u64) -> Vec<Fig9Row> {
    all()
        .iter()
        .map(|w| {
            let protected = crate::compile(w, &ipds::Config::default(), false).protected;
            measure(w.name, &protected, &w.inputs(input_seed), hw)
        })
        .collect()
}

/// Times one compiled workload under `hw`, without and with the IPDS unit.
pub fn measure(
    name: &'static str,
    protected: &Protected,
    inputs: &[Input],
    hw: &HwConfig,
) -> Fig9Row {
    let base = protected.timed_baseline(inputs, hw);
    let with = protected.timed(inputs, hw);
    assert_eq!(
        base.instructions, with.instructions,
        "{name}: timing must not change function"
    );
    Fig9Row {
        name,
        base_cycles: base.cycles,
        ipds_cycles: with.cycles,
        normalized: with.cycles as f64 / base.cycles.max(1) as f64,
        instructions: base.instructions,
        stall_cycles: with.ipds_stall_cycles,
        spills: with.spills,
    }
}

/// Mean normalized performance across workloads.
pub fn mean_normalized(rows: &[Fig9Row]) -> f64 {
    rows.iter().map(|r| r.normalized).sum::<f64>() / rows.len().max(1) as f64
}

/// Prints the figure as a table.
pub fn print(rows: &[Fig9Row]) {
    println!("Figure 9. Performance normalized to the no-IPDS baseline");
    println!("{:-<78}", "");
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>10} {:>8} {:>8}",
        "benchmark", "insts", "base cyc", "ipds cyc", "normalized", "stalls", "spills"
    );
    for r in rows {
        println!(
            "{:<10} {:>12} {:>12} {:>12} {:>10.4} {:>8} {:>8}",
            r.name,
            r.instructions,
            r.base_cycles,
            r.ipds_cycles,
            r.normalized,
            r.stall_cycles,
            r.spills
        );
    }
    println!("{:-<78}", "");
    println!(
        "mean normalized: {:.4}  (paper: 1.0079, i.e. 0.79% average degradation)",
        mean_normalized(rows)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_nonnegative_and_small() {
        let rows = run(&HwConfig::table1_default(), 2);
        assert_eq!(rows.len(), 10);
        for r in &rows {
            assert!(r.normalized >= 1.0 - 1e-9, "{r:?}");
            assert!(r.normalized < 1.10, "overhead too large: {r:?}");
        }
        let mean = mean_normalized(&rows);
        assert!(mean < 1.05, "mean slowdown {mean} too large");
    }
}
