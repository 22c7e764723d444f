//! Figure 7 — detection rate for simulated attacks.
//!
//! For each of the ten server workloads: 100 independent seeded attacks
//! under the workload's own vulnerability model (format string ⇒ arbitrary
//! live cell, buffer overflow ⇒ stack cells). Reported per workload: the
//! fraction of tamperings that changed control flow and the fraction
//! detected. The paper measured 49.4% / 29.3% on average (⇒ 59.3% of
//! control-flow-changing attacks detected).

use ipds_workloads::all;

/// One bar pair of Fig. 7.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Workload name.
    pub name: &'static str,
    /// Attacks run.
    pub attacks: u32,
    /// Fraction whose tampering changed control flow.
    pub cf_changed_rate: f64,
    /// Fraction detected by IPDS.
    pub detected_rate: f64,
    /// Detection rate among control-flow-changing attacks.
    pub detected_given_cf: f64,
}

/// Runs the Fig. 7 experiment.
///
/// `attacks` is per workload (paper: 100); `seed` controls the campaign,
/// `input_seed` the benign traffic. Uses every available core — the
/// campaign engine is bit-identical at every thread count, so the figure
/// does not depend on it.
pub fn run(attacks: u32, seed: u64, input_seed: u64) -> Vec<Fig7Row> {
    run_threaded(attacks, seed, input_seed, None, ipds_sim::default_threads())
}

/// The fully parameterized driver behind [`run`]: explicit attack model
/// override (the contiguous-overflow comparison, the block-smash shape §6
/// says real overflows take before the paper refines to single locations)
/// and worker-thread count. Compiles and golden-runs each workload at most
/// once per process via the [`crate::artifacts`] cache.
pub fn run_threaded(
    attacks: u32,
    seed: u64,
    input_seed: u64,
    model: Option<ipds_sim::AttackModel>,
    threads: usize,
) -> Vec<Fig7Row> {
    let mut rows = Vec::new();
    for w in all() {
        let art =
            crate::artifacts::campaign_artifacts(&w, &ipds::Config::default(), false, input_seed);
        let warm = crate::artifacts::warm_start(&w, &ipds::Config::default(), false, input_seed);
        let r = art
            .protected
            .campaign_spec()
            .inputs(&art.inputs)
            .golden(&art.golden, art.limits)
            .warm_start(&warm)
            .attacks(attacks)
            .seed(seed ^ w.name.len() as u64)
            .model(model.unwrap_or(w.vuln))
            .threads(threads)
            .run();
        rows.push(Fig7Row {
            name: w.name,
            attacks,
            cf_changed_rate: r.cf_changed_rate(),
            detected_rate: r.detected_rate(),
            detected_given_cf: r.detected_given_cf(),
        });
    }
    rows
}

/// Averages across workloads (the paper's summary sentence).
pub fn averages(rows: &[Fig7Row]) -> (f64, f64, f64) {
    let n = rows.len().max(1) as f64;
    let cf = rows.iter().map(|r| r.cf_changed_rate).sum::<f64>() / n;
    let det = rows.iter().map(|r| r.detected_rate).sum::<f64>() / n;
    let given = if cf > 0.0 { det / cf } else { 0.0 };
    (cf, det, given)
}

/// Prints the figure as a table.
pub fn print(rows: &[Fig7Row]) {
    println!("Figure 7. Detection rate for simulated attacks");
    println!("{:-<62}", "");
    println!(
        "{:<10} {:>8} {:>14} {:>12} {:>12}",
        "benchmark", "attacks", "cf-changed", "detected", "det|cf"
    );
    for r in rows {
        println!(
            "{:<10} {:>8} {:>14} {:>12} {:>12}",
            r.name,
            r.attacks,
            crate::pct(r.cf_changed_rate),
            crate::pct(r.detected_rate),
            crate::pct(r.detected_given_cf),
        );
    }
    let (cf, det, given) = averages(rows);
    println!("{:-<62}", "");
    println!(
        "{:<10} {:>8} {:>14} {:>12} {:>12}",
        "average",
        "",
        crate::pct(cf),
        crate::pct(det),
        crate::pct(given),
    );
    println!("(paper: cf-changed 49.4%, detected 29.3%, detected|cf 59.3%)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_fig7_run_has_sane_shape() {
        let rows = run(20, 1, 1);
        assert_eq!(rows.len(), 10);
        for r in &rows {
            assert!(r.detected_rate <= r.cf_changed_rate + 1e-9, "{r:?}");
            assert!(r.cf_changed_rate <= 1.0);
        }
        let (cf, det, _) = averages(&rows);
        assert!(cf > 0.0, "some attacks must change control flow");
        assert!(det > 0.0, "some attacks must be detected");
        assert!(det < cf, "IPDS cannot catch every cf change");
    }

    #[test]
    fn thread_count_does_not_change_the_figure() {
        let serial = run_threaded(12, 2, 2, None, 1);
        let par = run_threaded(12, 2, 2, None, 4);
        assert_eq!(serial.len(), par.len());
        for (a, b) in serial.iter().zip(&par) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.cf_changed_rate.to_bits(), b.cf_changed_rate.to_bits());
            assert_eq!(a.detected_rate.to_bits(), b.detected_rate.to_bits());
            assert_eq!(a.detected_given_cf.to_bits(), b.detected_given_cf.to_bits());
        }
    }
}
