//! Context-switch cost study (§5.4, last paragraph).
//!
//! The paper sketches three strategies and argues the cost is manageable:
//! swap everything synchronously (naive), swap only the ~1 Kbit stack tops
//! and overlap the rest (their proposal), and additionally split the BAT
//! into regions and load only the active one. This experiment prices all
//! three with the real per-workload table footprints.

use ipds_runtime::context::{
    context_switch_cost, context_switch_cost_split, switch_to_unprotected,
};
use ipds_runtime::HwConfig;
use ipds_workloads::all;

/// One strategy's costs for a given workload pair.
#[derive(Debug, Clone)]
pub struct ContextRow {
    /// Strategy label.
    pub strategy: &'static str,
    /// Cycles the incoming process is blocked.
    pub blocking_cycles: u64,
    /// Overlapped background cycles.
    pub deferred_cycles: u64,
}

/// Prices a switch between two protected processes whose resident table
/// state is each workload's whole-program footprint (a pessimistic "deep
/// call chain" assumption) with the top frame being `main`'s tables.
pub fn run(hw: &HwConfig) -> Vec<(String, Vec<ContextRow>)> {
    let compiled: Vec<_> = all()
        .iter()
        .map(|w| {
            let build = crate::compile(w, &ipds::Config::default(), false);
            (w.name, build.protected)
        })
        .collect();
    let mut out = Vec::new();
    for pair in compiled.windows(2) {
        let ((a, fa), (b, fb)) = (&pair[0], &pair[1]);
        let resident_a: usize = fa.analysis.functions.iter().map(|f| f.sizes.total()).sum();
        let resident_b: usize = fb.analysis.functions.iter().map(|f| f.sizes.total()).sum();
        let top_a = fa
            .analysis
            .functions
            .iter()
            .find(|f| f.name == "main")
            .map(|f| f.sizes.total())
            .unwrap_or(0);

        let naive = context_switch_cost(resident_a, resident_b, resident_a.max(resident_b), hw);
        let tops = context_switch_cost(resident_a, resident_b, top_a, hw);
        let split = context_switch_cost_split(resident_a, resident_b, top_a, 4, hw);
        let unprot = switch_to_unprotected();

        out.push((
            format!("{a} -> {b}"),
            vec![
                ContextRow {
                    strategy: "full synchronous swap",
                    blocking_cycles: naive.blocking_cycles,
                    deferred_cycles: naive.deferred_cycles,
                },
                ContextRow {
                    strategy: "swap tops, overlap rest",
                    blocking_cycles: tops.blocking_cycles,
                    deferred_cycles: tops.deferred_cycles,
                },
                ContextRow {
                    strategy: "split BAT (4 regions)",
                    blocking_cycles: split.blocking_cycles,
                    deferred_cycles: split.deferred_cycles,
                },
                ContextRow {
                    strategy: "to unprotected process",
                    blocking_cycles: unprot.blocking_cycles,
                    deferred_cycles: unprot.deferred_cycles,
                },
            ],
        ));
    }
    out
}

/// Prints the study.
pub fn print(rows: &[(String, Vec<ContextRow>)]) {
    println!("Context-switch cost between protected processes (§5.4)");
    println!("{:-<64}", "");
    for (pair, strategies) in rows.iter().take(3) {
        println!("{pair}:");
        for s in strategies {
            println!(
                "  {:<26} blocking {:>5} cyc   deferred {:>5} cyc",
                s.strategy, s.blocking_cycles, s.deferred_cycles
            );
        }
    }
    if let Some((_, strategies)) = rows.first() {
        let naive = strategies[0].blocking_cycles.max(1);
        let tops = strategies[1].blocking_cycles;
        println!(
            "\nswapping only the stack tops blocks for {:.0}% of the naive cost\n\
             (paper: swap ~1K bits first, context the lower layers in parallel)",
            100.0 * tops as f64 / naive as f64
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategies_are_ordered() {
        let rows = run(&HwConfig::table1_default());
        assert!(!rows.is_empty());
        for (pair, strategies) in &rows {
            let naive = strategies[0].blocking_cycles;
            let tops = strategies[1].blocking_cycles;
            let split = strategies[2].blocking_cycles;
            let unprot = strategies[3].blocking_cycles;
            assert!(tops <= naive, "{pair}: tops {tops} > naive {naive}");
            assert!(split <= tops, "{pair}: split {split} > tops {tops}");
            assert_eq!(unprot, 0, "{pair}");
        }
    }
}
