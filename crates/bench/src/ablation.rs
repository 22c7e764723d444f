//! Ablation studies (beyond the paper): the contribution of each anchor
//! class, the constant-store extension, and the on-chip buffer sizing.
//!
//! DESIGN.md motivates these as the design choices the paper makes
//! implicitly: store→load vs load→load correlation (Fig. 5's two loops),
//! and the hardware budget of §5.4.

use ipds::{Config, SizeStats};
use ipds_runtime::HwConfig;
use ipds_workloads::all;

/// One analysis variant under test.
#[derive(Debug, Clone)]
pub struct Variant {
    /// Display name.
    pub name: &'static str,
    /// The analysis switches.
    pub config: Config,
}

/// The standard variant set.
pub fn variants() -> Vec<Variant> {
    vec![
        Variant {
            name: "full",
            config: Config::default(),
        },
        Variant {
            name: "no-store",
            config: Config {
                store_anchors: false,
                ..Config::default()
            },
        },
        Variant {
            name: "no-load",
            config: Config {
                load_anchors: false,
                ..Config::default()
            },
        },
        Variant {
            name: "+const-store",
            config: Config {
                const_store: true,
                ..Config::default()
            },
        },
    ]
}

/// Detection/size results for one variant.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Variant name.
    pub name: &'static str,
    /// Mean detection rate over the workloads.
    pub mean_detected: f64,
    /// Mean control-flow-change rate (identical across variants; sanity).
    pub mean_cf_changed: f64,
    /// Merged table sizes.
    pub sizes: SizeStats,
}

/// Runs the correlation-class ablation. The extra `optimized` row applies
/// the block-local load-forwarding pass first, reproducing the paper's
/// observation that "compiler optimizations can remove some correlations,
/// reducing the detection rate". Campaigns run on `threads` workers; the
/// rows are bit-identical at every count.
pub fn run(attacks: u32, seed: u64, input_seed: u64, threads: usize) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for v in variants() {
        rows.push(measure(
            v.name, &v.config, false, attacks, seed, input_seed, threads,
        ));
    }
    rows.push(measure(
        "optimized",
        &Config::default(),
        true,
        attacks,
        seed,
        input_seed,
        threads,
    ));
    rows
}

fn measure(
    name: &'static str,
    config: &Config,
    optimize: bool,
    attacks: u32,
    seed: u64,
    input_seed: u64,
    threads: usize,
) -> AblationRow {
    let mut det = 0.0;
    let mut cf = 0.0;
    let mut stats = Vec::new();
    for w in all() {
        let protected = crate::compile(&w, config, optimize).protected;
        let r = protected
            .campaign_spec()
            .inputs(&w.inputs(input_seed))
            .attacks(attacks)
            .seed(seed ^ w.name.len() as u64)
            .model(w.vuln)
            .threads(threads)
            .run();
        det += r.detected_rate();
        cf += r.cf_changed_rate();
        stats.push(protected.size_stats());
    }
    let n = all().len() as f64;
    AblationRow {
        name,
        mean_detected: det / n,
        mean_cf_changed: cf / n,
        sizes: SizeStats::merge(&stats),
    }
}

/// One point of the register-promotion ablation: a workload compiled at a
/// given `mem2reg` budget.
#[derive(Debug, Clone)]
pub struct PromotionRow {
    /// Workload name.
    pub workload: &'static str,
    /// Promotion budget (percent of eligible scalars).
    pub promote: u32,
    /// Scalars actually promoted.
    pub promoted_vars: u64,
    /// Conditional branches in the program.
    pub branches: u64,
    /// Branches the tables check (have a correlation direction).
    pub checked: u64,
    /// BAT entries emitted.
    pub bat_entries: u64,
    /// Mean BSV bits per function.
    pub avg_bsv_bits: f64,
    /// Lint errors (must stay 0 — promotion may erode coverage, never
    /// soundness).
    pub lint_errors: usize,
    /// Lint warnings.
    pub lint_warnings: usize,
}

impl PromotionRow {
    /// Checked-branch coverage at this budget.
    pub fn coverage(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.checked as f64 / self.branches as f64
        }
    }
}

/// The promotion budgets the ablation sweeps.
pub const PROMOTION_LEVELS: [u32; 5] = [0, 25, 50, 75, 100];

/// Runs the register-promotion ablation: every extended-suite workload is
/// compiled (and linted) at each budget in [`PROMOTION_LEVELS`]. Promoted
/// scalars stop being unique memory cells, so the checked-branch coverage
/// curve falls as the budget rises — the quantitative version of the
/// paper's "compiler optimizations can remove some correlations" remark.
/// Compile-and-lint only; no simulations run.
pub fn promotion_sweep() -> Vec<PromotionRow> {
    let mut rows = Vec::new();
    for w in ipds_workloads::extended() {
        for pct in PROMOTION_LEVELS {
            let build = ipds::Protected::build()
                .promote(pct)
                .lint_tables(true)
                .compile(w.source)
                .unwrap_or_else(|e| panic!("{} @ {pct}%: {e}", w.name));
            let lint = build.lint.as_ref().expect("lint requested");
            rows.push(PromotionRow {
                workload: w.name,
                promote: pct,
                promoted_vars: build.metrics.counter("pipeline.promoted_vars"),
                branches: build.counters.branches,
                checked: build.counters.checked,
                bat_entries: build.counters.bat_entries,
                avg_bsv_bits: build.protected.size_stats().avg_bsv_bits,
                lint_errors: lint.error_count(),
                lint_warnings: lint.warning_count(),
            });
        }
    }
    rows
}

/// Prints the promotion ablation as one coverage curve per workload.
pub fn print_promotion(rows: &[PromotionRow]) {
    println!("Ablation C. Register promotion vs checked-branch coverage");
    println!("{:-<72}", "");
    println!(
        "{:<10} {:>8} {:>9} {:>9} {:>9} {:>9} {:>10} {:>5}",
        "workload", "promote", "promoted", "branches", "checked", "BAT", "BSV bits", "lint"
    );
    for r in rows {
        println!(
            "{:<10} {:>7}% {:>9} {:>9} {:>9} {:>9} {:>10.1} {:>5}",
            r.workload,
            r.promote,
            r.promoted_vars,
            r.branches,
            r.checked,
            r.bat_entries,
            r.avg_bsv_bits,
            r.lint_errors
        );
    }
}

/// One point of the feasibility ablation: a workload compiled with or
/// without the `prune-cfg` pass at a given promotion budget.
#[derive(Debug, Clone)]
pub struct FeasibilityRow {
    /// Workload name.
    pub workload: &'static str,
    /// Promotion budget (percent of eligible scalars).
    pub promote: u32,
    /// Whether the `prune-cfg` pass ran.
    pub prune: bool,
    /// Interval-proved dead edges removed from the discovery CFG.
    pub pruned_edges: u64,
    /// Blocks unreachable once dead edges are removed.
    pub pruned_blocks: u64,
    /// Prune/re-analyze fixpoint rounds executed.
    pub prune_rounds: u64,
    /// Conditional branches in the program (inventory; never pruned).
    pub branches: u64,
    /// Branches the tables check.
    pub checked: u64,
    /// Checked branches gained over the same build without pruning.
    pub coverage_lift: u64,
    /// Unknown-direction entries the refiner proved.
    pub refine_proved: u64,
    /// Lint errors (must stay 0 — pruning sharpens discovery, never
    /// soundness).
    pub lint_errors: usize,
    /// Lint warnings.
    pub lint_warnings: usize,
}

impl FeasibilityRow {
    /// Checked-branch coverage at this point.
    pub fn coverage(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.checked as f64 / self.branches as f64
        }
    }
}

/// The promotion budgets the feasibility ablation crosses with prune
/// on/off: the classic all-memory pipeline and a half-promoted one (where
/// interval precision depends on the promoted-scalar tracking of
/// `docs/ABSINT.md`).
pub const FEASIBILITY_PROMOTE: [u32; 2] = [0, 50];

/// Runs the feasibility ablation: every extended-suite workload is built
/// (refined and linted) at prune off/on × promote 0/50%. Pruning removes
/// interval-proved dead edges from the discovery CFG and re-runs alias
/// classification, anchor discovery and correlation discovery over the
/// pruned view, so stores on infeasible paths stop killing correlations —
/// the lift shows up as extra checked branches or extra refiner proofs.
/// Compile-and-lint only; no simulations run.
pub fn feasibility_sweep() -> Vec<FeasibilityRow> {
    let mut rows = Vec::new();
    for w in ipds_workloads::extended() {
        for pct in FEASIBILITY_PROMOTE {
            // The prune-off build runs first; its checked count is the
            // baseline the pruned build's coverage lift is measured from.
            let mut base_checked = None;
            for prune in [false, true] {
                let build = ipds::Protected::build()
                    .promote(pct)
                    .refine_correlations(true)
                    .prune_feasibility(prune)
                    .lint_tables(true)
                    .compile(w.source)
                    .unwrap_or_else(|e| panic!("{} @ {pct}% prune={prune}: {e}", w.name));
                let lint = build.lint.as_ref().expect("lint requested");
                let checked = build.counters.checked;
                let base_checked = *base_checked.get_or_insert(checked);
                rows.push(FeasibilityRow {
                    workload: w.name,
                    promote: pct,
                    prune,
                    pruned_edges: build.metrics.counter("pipeline.pruned_edges"),
                    pruned_blocks: build.metrics.counter("pipeline.pruned_blocks"),
                    prune_rounds: build.metrics.counter("pipeline.prune_rounds"),
                    branches: build.counters.branches,
                    checked,
                    coverage_lift: checked.saturating_sub(base_checked),
                    refine_proved: build.metrics.counter("pipeline.refine_proved"),
                    lint_errors: lint.error_count(),
                    lint_warnings: lint.warning_count(),
                });
            }
        }
    }
    rows
}

/// Prints the feasibility ablation, one prune-off/on pair per line.
pub fn print_feasibility(rows: &[FeasibilityRow]) {
    println!("Ablation D. Feasibility pruning vs discovery coverage");
    println!("{:-<78}", "");
    println!(
        "{:<10} {:>8} {:>6} {:>6} {:>7} {:>9} {:>8} {:>5} {:>7} {:>5}",
        "workload",
        "promote",
        "edges",
        "blocks",
        "rounds",
        "checked",
        "lift",
        "BCV+",
        "proved",
        "lint"
    );
    for r in rows.iter().filter(|r| r.prune) {
        let base = rows
            .iter()
            .find(|b| !b.prune && b.workload == r.workload && b.promote == r.promote)
            .expect("paired unpruned row");
        println!(
            "{:<10} {:>7}% {:>6} {:>6} {:>7} {:>9} {:>8} {:>+5} {:>+7} {:>5}",
            r.workload,
            r.promote,
            r.pruned_edges,
            r.pruned_blocks,
            r.prune_rounds,
            r.checked,
            r.coverage_lift,
            r.checked as i64 - base.checked as i64,
            r.refine_proved as i64 - base.refine_proved as i64,
            r.lint_errors,
        );
    }
}

/// On-chip buffer sweep: normalized performance as the BAT buffer shrinks.
#[derive(Debug, Clone)]
pub struct BufferRow {
    /// Total on-chip bits.
    pub onchip_bits: usize,
    /// Mean normalized performance across workloads.
    pub mean_normalized: f64,
    /// Total spill/fill events.
    pub spills: u64,
}

/// Runs the buffer-sizing sweep: the Fig. 9 measurement at five on-chip
/// buffer sizes, over one compile per workload.
pub fn buffer_sweep(input_seed: u64) -> Vec<BufferRow> {
    let programs: Vec<_> = all()
        .iter()
        .map(|w| {
            let protected = crate::compile(w, &Config::default(), false).protected;
            (w.name, protected, w.inputs(input_seed))
        })
        .collect();
    let mut rows = Vec::new();
    for shift in [0u32, 2, 4, 6, 8] {
        let mut hw = HwConfig::table1_default();
        hw.bat_stack_bits >>= shift;
        hw.bsv_stack_bits >>= shift;
        hw.bcv_stack_bits >>= shift;
        let fig9: Vec<_> = programs
            .iter()
            .map(|(name, protected, inputs)| crate::fig9::measure(name, protected, inputs, &hw))
            .collect();
        rows.push(BufferRow {
            onchip_bits: hw.total_onchip_bits(),
            mean_normalized: crate::fig9::mean_normalized(&fig9),
            spills: fig9.iter().map(|r| r.spills).sum(),
        });
    }
    rows
}

/// Prints both ablations.
pub fn print(rows: &[AblationRow], buffers: &[BufferRow]) {
    println!("Ablation A. Correlation classes vs detection rate and BAT size");
    println!("{:-<64}", "");
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>10}",
        "variant", "detected", "cf-changed", "BAT bits", "checked"
    );
    for r in rows {
        println!(
            "{:<14} {:>12} {:>12} {:>12.1} {:>10.1}",
            r.name,
            crate::pct(r.mean_detected),
            crate::pct(r.mean_cf_changed),
            r.sizes.avg_bat_bits,
            r.sizes.avg_checked
        );
    }
    println!();
    println!("Ablation B. On-chip buffer sizing vs slowdown");
    println!("{:-<46}", "");
    println!(
        "{:<14} {:>14} {:>12}",
        "on-chip bits", "normalized", "spills"
    );
    for b in buffers {
        println!(
            "{:<14} {:>14.4} {:>12}",
            b.onchip_bits, b.mean_normalized, b.spills
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabling_anchors_reduces_detection() {
        let rows = run(15, 5, 5, 2);
        let full = rows.iter().find(|r| r.name == "full").unwrap();
        let no_load = rows.iter().find(|r| r.name == "no-load").unwrap();
        assert!(full.mean_detected >= no_load.mean_detected, "{rows:?}");
        // Control-flow-change rate is a property of the attack, not the
        // analysis variant — except for the `optimized` row, which runs a
        // different (shorter) program and therefore a different campaign.
        for r in rows.iter().filter(|r| r.name != "optimized") {
            assert!((r.mean_cf_changed - full.mean_cf_changed).abs() < 1e-9);
        }
        // The optimizer strictly shrinks the correlation surface.
        let optimized = rows.iter().find(|r| r.name == "optimized").unwrap();
        assert!(
            optimized.sizes.avg_checked < full.sizes.avg_checked,
            "{rows:?}"
        );
    }

    #[test]
    fn promotion_erodes_coverage_without_lint_errors() {
        let rows = promotion_sweep();
        let names: Vec<&str> = ipds_workloads::extended().iter().map(|w| w.name).collect();
        for name in names {
            let curve: Vec<&PromotionRow> = rows.iter().filter(|r| r.workload == name).collect();
            assert_eq!(curve.len(), PROMOTION_LEVELS.len(), "{name}");
            // Coverage is monotonically non-increasing in the budget, and
            // full promotion strictly erodes it on every workload.
            for pair in curve.windows(2) {
                assert!(
                    pair[1].checked <= pair[0].checked,
                    "{name}: {} -> {}",
                    pair[0].promote,
                    pair[1].promote
                );
            }
            assert!(
                curve.last().unwrap().checked < curve.first().unwrap().checked,
                "{name}: full promotion should remove some correlations"
            );
            // Soundness: the lint auditor never finds an error at any level.
            for r in &curve {
                assert_eq!(r.lint_errors, 0, "{name} @ {}%", r.promote);
            }
            // Budget 0 promotes nothing; budget 100 promotes something.
            assert_eq!(curve[0].promoted_vars, 0, "{name}");
            assert!(curve.last().unwrap().promoted_vars > 0, "{name}");
        }
    }

    #[test]
    fn feasibility_pruning_lifts_discovery_without_lint_errors() {
        let rows = feasibility_sweep();
        // A build without the pass reports no prune activity.
        for r in rows.iter().filter(|r| !r.prune) {
            assert_eq!(
                (
                    r.pruned_edges,
                    r.pruned_blocks,
                    r.prune_rounds,
                    r.coverage_lift
                ),
                (0, 0, 0, 0),
                "{} @ {}%",
                r.workload,
                r.promote
            );
        }
        // Soundness: the auditor never finds an error, pruned or not, and
        // the branch inventory is identical across the prune axis.
        for r in &rows {
            assert_eq!(
                r.lint_errors, 0,
                "{} @ {}% prune={}",
                r.workload, r.promote, r.prune
            );
        }
        let mut lifted = false;
        for w in ipds_workloads::all() {
            for pct in FEASIBILITY_PROMOTE {
                let pick = |prune: bool| {
                    rows.iter()
                        .find(|r| r.prune == prune && r.workload == w.name && r.promote == pct)
                        .unwrap()
                };
                let (base, pruned) = (pick(false), pick(true));
                assert_eq!(
                    pruned.branches, base.branches,
                    "{}: pruning must not shrink the branch inventory",
                    w.name
                );
                if pruned.checked > base.checked || pruned.refine_proved > base.refine_proved {
                    lifted = true;
                }
            }
        }
        // The point of the pass: on at least one stock workload, pruning
        // interval-dead edges buys strictly more checked branches or more
        // refiner proofs than the unpruned build.
        assert!(
            lifted,
            "no stock workload gained checked coverage or proofs from pruning"
        );
    }

    #[test]
    fn shrinking_buffers_increases_spills() {
        let rows = buffer_sweep(4);
        assert!(rows.first().unwrap().spills <= rows.last().unwrap().spills);
        for r in &rows {
            assert!(r.mean_normalized >= 1.0 - 1e-9);
        }
    }
}
