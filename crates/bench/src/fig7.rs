//! Figure 7 — detection rate for simulated attacks.
//!
//! For each of the ten server workloads: 100 independent seeded attacks
//! under the workload's own vulnerability model (format string ⇒ arbitrary
//! live cell, buffer overflow ⇒ stack cells). Reported per workload: the
//! fraction of tamperings that changed control flow and the fraction
//! detected. The paper measured 49.4% / 29.3% on average (⇒ 59.3% of
//! control-flow-changing attacks detected).

use ipds::{GoldenRun, Protected, WarmStart};
use ipds_sim::{AttackModel, ExecLimits, Input};
use ipds_workloads::Workload;

/// One workload prepared for Fig. 7 campaigns: compiled under the default
/// analysis, with the golden run, campaign limits and warm start captured
/// for one benign input script. None of it depends on the campaign
/// parameters, so a driver that launches several campaigns (the figure,
/// the contiguous-overflow extra, the thread-scaling sweep) prepares the
/// targets once with [`targets`] and passes them to each [`run`].
pub struct Target {
    /// The server workload.
    pub workload: Workload,
    /// The compiled program plus its IPDS tables.
    pub protected: Protected,
    /// The benign input script the golden run consumed.
    pub inputs: Vec<Input>,
    /// The clean reference execution.
    pub golden: GoldenRun,
    /// Campaign limits derived from the golden run.
    pub limits: ExecLimits,
    /// Golden snapshots campaigns fast-forward from.
    pub warm: WarmStart,
}

/// Prepares every server workload for campaigns against the benign traffic
/// of `input_seed`: one compile, one golden run and one warm-start capture
/// each.
pub fn targets(input_seed: u64) -> Vec<Target> {
    ipds_workloads::all()
        .into_iter()
        .map(|workload| {
            let protected = crate::compile(&workload, &ipds::Config::default(), false).protected;
            let inputs = workload.inputs(input_seed);
            let (golden, limits) = protected.campaign_artifacts(&inputs);
            let warm = protected.warm_start(&inputs, &golden, limits);
            Target {
                workload,
                protected,
                inputs,
                golden,
                limits,
                warm,
            }
        })
        .collect()
}

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

/// Runs the Fig. 7 experiment over prepared `targets`, one row each.
///
/// `attacks` is per workload (paper: 100) and `seed` controls the
/// campaign. `model` overrides every workload's own attack model (the
/// contiguous-overflow comparison: the block-smash shape §6 says real
/// overflows take before the paper refines to single locations). The
/// campaign engine is bit-identical at every `threads`, so the figure does
/// not depend on it.
pub fn run(
    targets: &[Target],
    attacks: u32,
    seed: u64,
    model: Option<AttackModel>,
    threads: usize,
) -> Vec<Fig7Row> {
    targets
        .iter()
        .map(|t| {
            let w = &t.workload;
            let r = t
                .protected
                .campaign_spec()
                .inputs(&t.inputs)
                .golden(&t.golden, t.limits)
                .warm_start(&t.warm)
                .attacks(attacks)
                .seed(seed ^ w.name.len() as u64)
                .model(model.unwrap_or(w.vuln))
                .threads(threads)
                .run();
            Fig7Row {
                name: w.name,
                attacks,
                cf_changed_rate: r.cf_changed_rate(),
                detected_rate: r.detected_rate(),
                detected_given_cf: r.detected_given_cf(),
            }
        })
        .collect()
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
        let rows = run(&targets(1), 20, 1, None, ipds_sim::default_threads());
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

    /// The prepared golden run, limits and warm start change nothing: at 1
    /// and 3 threads, every row equals a fresh compile's campaign that
    /// captures its own golden run and starts every attack cold.
    #[test]
    fn prepared_targets_reproduce_direct_campaigns() {
        let prepared = targets(3);
        let direct: Vec<_> = prepared
            .iter()
            .map(|t| {
                let w = &t.workload;
                crate::compile(w, &ipds::Config::default(), false)
                    .protected
                    .campaign_spec()
                    .inputs(&w.inputs(3))
                    .attacks(12)
                    .seed(9 ^ w.name.len() as u64)
                    .model(w.vuln)
                    .run()
            })
            .collect();
        for threads in [1, 3] {
            let rows = run(&prepared, 12, 9, None, threads);
            assert_eq!(rows.len(), direct.len());
            for (row, r) in rows.iter().zip(&direct) {
                let got = [
                    row.cf_changed_rate,
                    row.detected_rate,
                    row.detected_given_cf,
                ];
                let want = [
                    r.cf_changed_rate(),
                    r.detected_rate(),
                    r.detected_given_cf(),
                ];
                assert_eq!(
                    got.map(f64::to_bits),
                    want.map(f64::to_bits),
                    "{} at {threads} threads",
                    row.name
                );
            }
        }
    }
}
