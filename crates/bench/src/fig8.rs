//! Figure 8 — average sizes (in bits) of the BSV, BCV and BAT tables.
//!
//! Per-function sizes come from the real packed encoding in
//! `ipds-analysis::encode`; the paper measured averages of 34 / 17 / 393
//! bits on its benchmarks. The *shape* to reproduce: BAT ≫ BSV = 2×BCV.

use ipds::SizeStats;
use ipds_workloads::all;

/// Per-workload size statistics plus the merged average.
#[derive(Debug, Clone)]
pub struct Fig8Result {
    /// `(workload name, stats)` rows.
    pub rows: Vec<(&'static str, SizeStats)>,
    /// Function-weighted average across all workloads.
    pub merged: SizeStats,
}

/// Runs the Fig. 8 measurement.
pub fn run() -> Fig8Result {
    let mut rows = Vec::new();
    for w in all() {
        let protected = crate::compile(&w, &ipds::Config::default(), false).protected;
        rows.push((w.name, protected.size_stats()));
    }
    let merged = SizeStats::merge(&rows.iter().map(|(_, s)| *s).collect::<Vec<_>>());
    Fig8Result { rows, merged }
}

/// Prints the figure as a table.
pub fn print(result: &Fig8Result) {
    println!("Figure 8. Average sizes (in bits) of BSV, BCV and BAT tables");
    println!("{:-<74}", "");
    println!(
        "{:<10} {:>6} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "benchmark", "fns", "BSV", "BCV", "BAT", "branches", "checked"
    );
    for (name, s) in &result.rows {
        println!(
            "{:<10} {:>6} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            name,
            s.functions,
            s.avg_bsv_bits,
            s.avg_bcv_bits,
            s.avg_bat_bits,
            s.avg_branches,
            s.avg_checked
        );
    }
    println!("{:-<74}", "");
    let m = &result.merged;
    println!(
        "{:<10} {:>6} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
        "average",
        m.functions,
        m.avg_bsv_bits,
        m.avg_bcv_bits,
        m.avg_bat_bits,
        m.avg_branches,
        m.avg_checked
    );
    println!("(paper: BSV 34, BCV 17, BAT 393 bits per function)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_shape_matches_paper() {
        let r = run();
        assert_eq!(r.rows.len(), 10);
        let m = &r.merged;
        // Shape: BSV = 2×BCV exactly; BAT dominates both.
        assert!((m.avg_bsv_bits - 2.0 * m.avg_bcv_bits).abs() < 1e-9);
        assert!(m.avg_bat_bits > m.avg_bsv_bits, "{m:?}");
        // Order of magnitude: tens of bits for BSV/BCV, hundreds for BAT.
        assert!(m.avg_bsv_bits > 4.0 && m.avg_bsv_bits < 500.0, "{m:?}");
        assert!(m.avg_bat_bits > 50.0, "{m:?}");
    }
}
