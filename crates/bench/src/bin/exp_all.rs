//! The experiment driver: runs every experiment in sequence (the full paper
//! reproduction) and writes its two artifacts, or runs one phase of it.
//!
//! Usage: `cargo run --release -p ipds-bench --bin exp_all -- [PHASE] [ATTACKS] [--threads T]`
//!
//! * `PHASE` — one of [`PHASES`]. A phase runs exactly the code and
//!   arguments the full run uses for its section, so its stdout is that
//!   section of `results/exp_all.txt` verbatim; it writes no JSON. `fig7`
//!   additionally prints the contiguous-overflow comparison.
//! * `ATTACKS` — Fig. 7 attacks per workload (default 100; the ablation
//!   grid runs at most 50).
//! * `--threads T` — campaign, fault and fleet workers, 1 to 64 (default:
//!   the machine's parallelism, capped at 8). Results are bit-identical
//!   for every `T`.
//!
//! The full run writes two files. `results/bench_campaign.json` holds only
//! values that follow from the seed (counts, coverage, lint, faults, fleet
//! outcome): it is byte-identical at every `--threads`, committed, and
//! gated byte-for-byte (`crates/bench/tests/exp_all_phases.rs`).
//! `results/bench_timing.json` holds the thread-scaling sweep that
//! `scripts/ci.sh` gates (and the thread count it ran at); it is
//! wall-clock dependent and not committed. Per-pass compile times come
//! from `ipdsc build --timings`, per-layer costs from the `benchmark/`
//! workspace's `--trace 1` pass.
//!
//! Every seeded protocol runs at the constant seed 2006 the results files
//! are generated at.

use std::time::Instant;

use ipds::analysis::AnalysisCounters;
use ipds_bench::ablation::{FeasibilityRow, PromotionRow};
use ipds_bench::fig7::Target;
use ipds_runtime::HwConfig;
use ipds_telemetry::MetricsRegistry;

/// The sections of the full run, in the order it prints them.
const PHASES: &str =
    "table1 fig7 fig8 fig9 latency ablation promotion feasibility context micro faults fleet";

/// The widest `--threads` accepted: a campaign or fleet flush may start
/// that many OS threads at once.
const MAX_THREADS: usize = 64;

fn usage_error(msg: &str) -> ! {
    eprintln!("exp_all: {msg}\nusage: exp_all [PHASE] [ATTACKS] [--threads T]\nphases: {PHASES}");
    std::process::exit(2)
}

fn main() {
    let mut phase: Option<String> = None;
    let mut attacks: Option<u32> = None;
    let mut threads = ipds_sim::default_threads();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|t| t.parse().ok())
                    .filter(|t| (1..=MAX_THREADS).contains(t))
                    .unwrap_or_else(|| {
                        usage_error(&format!("--threads takes a number from 1 to {MAX_THREADS}"))
                    })
            }
            a if attacks.is_none() && a.parse::<u32>().is_ok() => attacks = a.parse().ok(),
            a if phase.is_none() && PHASES.split(' ').any(|p| p == a) => phase = Some(arg),
            a => usage_error(&format!("unexpected argument `{a}`")),
        }
    }
    let attacks = attacks.unwrap_or(100);
    let phase = phase.as_deref();
    let runs = |name: &str| phase.is_none_or(|p| p == name);
    // The full run separates its sections with a blank line; a single
    // phase prints its section alone.
    let gap = || {
        if phase.is_none() {
            println!();
        }
    };
    let hw = HwConfig::table1_default();

    if runs("table1") {
        ipds_bench::table1::print(&hw);
        gap();
    }
    // Prepared once: the figure, its extra section and the scaling sweep
    // all campaign against the same targets.
    let targets = runs("fig7").then(|| {
        let targets = ipds_bench::fig7::targets(2006);
        let f7 = ipds_bench::fig7::run(&targets, attacks, 2006, None, threads);
        ipds_bench::fig7::print(&f7);
        gap();
        if phase == Some("fig7") {
            print_contiguous_overflow(&targets, attacks, threads);
        }
        targets
    });
    if runs("fig8") {
        let f8 = ipds_bench::fig8::run();
        ipds_bench::fig8::print(&f8);
        gap();
    }
    if runs("fig9") {
        let f9 = ipds_bench::fig9::run(&hw, 2006);
        ipds_bench::fig9::print(&f9);
        gap();
    }
    if runs("latency") {
        let lat = ipds_bench::latency::run(&hw, 2006);
        ipds_bench::latency::print(&lat);
        gap();
    }
    if runs("ablation") {
        let ab = ipds_bench::ablation::run(attacks.min(50), 2006, 2006, threads);
        let buf = ipds_bench::ablation::buffer_sweep(2006);
        ipds_bench::ablation::print(&ab, &buf);
        gap();
    }
    let promotion = runs("promotion").then(|| {
        let rows = ipds_bench::ablation::promotion_sweep();
        ipds_bench::ablation::print_promotion(&rows);
        gap();
        rows
    });
    let feasibility = runs("feasibility").then(|| {
        let rows = ipds_bench::ablation::feasibility_sweep();
        ipds_bench::ablation::print_feasibility(&rows);
        gap();
        rows
    });
    if runs("context") {
        let ctx = ipds_bench::context::run(&hw);
        ipds_bench::context::print(&ctx);
        gap();
    }
    if runs("micro") {
        let micro = ipds_bench::micro::run(&hw);
        ipds_bench::micro::print(&micro);
    }
    let faults = runs("faults").then(|| {
        let faults = fault_campaigns(24, threads);
        println!(
            "fault injection: {} faults, {} detected, {} masked, {} crashed, \
             {} image flips undetected, p50 latency {} branches",
            faults.injected,
            faults.detected,
            faults.masked,
            faults.crashed,
            faults.image_undetected,
            faults.p50
        );
        gap();
        faults
    });
    let fleet = runs("fleet").then(|| {
        let fleet = fleet_phase(threads);
        println!(
            "fleet service: {} sessions ({} rejected), {} events, {} incidents -> \
             {} root causes ({} tampered image, {} hot region, {} isolated noise), \
             every injected tamper surfaced",
            fleet.sessions,
            fleet.rejected,
            fleet.events,
            fleet.incidents,
            fleet.root_causes,
            fleet.tampered_images,
            fleet.hot_regions,
            fleet.isolated_noise,
        );
        gap();
        fleet
    });
    // A single phase ends here: the sweep and the artifacts need every
    // section's results.
    let (Some(targets), Some(promotion), Some(feasibility), Some(faults), Some(fleet)) =
        (targets, promotion, feasibility, faults, fleet)
    else {
        return;
    };

    let scaling = scaling_sweep(&targets, attacks, threads);
    // Wall-clock-dependent, so stderr: stdout stays byte-identical run-to-run.
    for s in &scaling {
        eprintln!(
            "scaling: {}T, {} attacks/workload in {:.3}s -> {:.0} attacks/s (speedup {:.2}x)",
            s.threads, s.attacks, s.seconds, s.attacks_per_sec, s.speedup
        );
    }
    let counters = campaign_counters(&targets, attacks.min(50), threads);
    let compiles = compile_reports();
    let campaign = campaign_json(
        attacks,
        &counters,
        &compiles,
        &promotion,
        &feasibility,
        &faults,
        &fleet,
    );
    let timing = timing_json(threads, &scaling);
    for (path, json) in [
        ("results/bench_campaign.json", campaign),
        ("results/bench_timing.json", timing),
    ] {
        if let Err(e) = std::fs::create_dir_all("results").and_then(|()| std::fs::write(path, json))
        {
            eprintln!("exp_all: could not write {path}: {e}");
            std::process::exit(1);
        }
        // stderr, so stdout stays exactly results/exp_all.txt.
        eprintln!("written to {path}");
    }
}

/// The `fig7` phase's extra section: the same protocol with every
/// workload's model overridden by the contiguous-block overflow (the
/// unrefined shape §6 says real overflows take) — smashing a run of cells
/// hits correlated state more often.
fn print_contiguous_overflow(targets: &[Target], attacks: u32, threads: usize) {
    let rows = ipds_bench::fig7::run(
        targets,
        attacks,
        2006,
        Some(ipds_sim::AttackModel::ContiguousOverflow),
        threads,
    );
    println!();
    println!("(extra) same protocol with contiguous 2-8 cell overflows:");
    let (cf, det, given) = ipds_bench::fig7::averages(&rows);
    println!(
        "  cf-changed {:.1}%  detected {:.1}%  detected|cf {:.1}%",
        100.0 * cf,
        100.0 * det,
        100.0 * given
    );
}

/// One row of the thread-scaling sweep.
struct Scaling {
    threads: usize,
    /// Attacks per workload this point ran (after calibration — every row
    /// of one sweep uses the same count).
    attacks: u32,
    /// Median wall time over the sweep's repeats.
    seconds: f64,
    attacks_per_sec: f64,
    /// Median over the repeats of this point's throughput relative to the
    /// 1-thread point of the same repeat.
    speedup: f64,
}

/// Every sweep point must run at least this long, or the curve measures
/// dispatch overhead and timer noise instead of the checker (an earlier
/// sweep timed ~17 ms of work per point and concluded threads were a
/// loss).
const MIN_POINT_SECONDS: f64 = 0.25;

/// Interleaved repeats of the whole sweep after calibration. One timing
/// per point cannot resolve a 10–15% change on a shared box (the 1-thread
/// point alone has ranged over almost 2x between runs); interleaving puts
/// every point of a repeat under the same load, and the median of the
/// per-repeat ratios sheds the outliers.
const SWEEP_REPEATS: usize = 5;

/// Median of a non-empty sample ([`SWEEP_REPEATS`] is odd).
fn median(mut sample: Vec<f64>) -> f64 {
    sample.sort_by(f64::total_cmp);
    sample[sample.len() / 2]
}

/// Re-runs the Fig. 7 campaign at 1/2/4/8 threads (plus the machine
/// default if it is higher). The targets' compiles, golden runs and warm
/// starts were prepared before the first timed point, so this times the
/// campaign engine alone. The per-workload attack count is calibrated
/// upward until the 1-thread point takes at least [`MIN_POINT_SECONDS`], so
/// the sweep never degenerates into a thread-dispatch benchmark. Then every
/// point is timed once per repeat, [`SWEEP_REPEATS`] times, interleaved;
/// each row records the calibrated `attacks`, its median `seconds` and the
/// median per-repeat speedup, so the curve is interpretable. On an N-core machine the sweep
/// shows the near-linear speedup (bit-identical results at every point).
/// `scripts/ci.sh` gates on every point of the resulting curve — see
/// docs/PERF.md for the methodology.
fn scaling_sweep(targets: &[Target], attacks: u32, default_threads: usize) -> Vec<Scaling> {
    let workloads = targets.len() as u64;
    let time_point = |attacks: u32, threads: usize| -> f64 {
        let start = Instant::now();
        ipds_bench::fig7::run(targets, attacks, 2006, None, threads);
        start.elapsed().as_secs_f64()
    };

    // Calibrate the work floor on the 1-thread engine. Aim a little above
    // the floor so the scaled run cannot land just under it; cap the growth
    // so a pathological timer cannot run away.
    let mut attacks = attacks.max(1);
    let mut base_seconds = time_point(attacks, 1);
    for _ in 0..12 {
        if base_seconds >= MIN_POINT_SECONDS || attacks >= 1_000_000 {
            break;
        }
        let factor = (MIN_POINT_SECONDS * 1.3 / base_seconds.max(1e-6)).clamp(2.0, 64.0);
        attacks = ((f64::from(attacks) * factor) as u32).min(1_000_000);
        base_seconds = time_point(attacks, 1);
    }

    let total_attacks = (u64::from(attacks) * workloads) as f64;
    let mut counts = vec![1usize, 2, 4, 8];
    if !counts.contains(&default_threads) {
        counts.push(default_threads);
    }
    // times[k][r]: point `counts[k]` in repeat `r`; counts[0] is 1 thread.
    let mut times = vec![Vec::with_capacity(SWEEP_REPEATS); counts.len()];
    for _ in 0..SWEEP_REPEATS {
        for (k, &t) in counts.iter().enumerate() {
            times[k].push(time_point(attacks, t));
        }
    }
    counts
        .iter()
        .zip(&times)
        .map(|(&threads, point)| {
            let seconds = median(point.clone());
            let ratios = times[0].iter().zip(point);
            Scaling {
                threads,
                attacks,
                seconds,
                attacks_per_sec: if seconds > 0.0 {
                    total_attacks / seconds
                } else {
                    0.0
                },
                speedup: median(
                    ratios
                        .map(|(t1, tn)| if *tn > 0.0 { t1 / tn } else { 0.0 })
                        .collect(),
                ),
            }
        })
        .collect()
}

/// Aggregated fault-injection results across every workload (see
/// `docs/FAULTS.md`): outcome totals, the exact-median detection latency
/// over every detection, and the merged latency histogram.
struct FaultsSummary {
    flips_per_site: u32,
    injected: u64,
    detected: u64,
    masked: u64,
    crashed: u64,
    image_undetected: u64,
    p50: u64,
    latency: ipds_telemetry::Histogram,
}

/// Runs one seeded fault campaign per workload (deterministic for any
/// `threads`) and folds the results. Each campaign captures its own golden
/// run.
fn fault_campaigns(flips: u32, threads: usize) -> FaultsSummary {
    let mut summary = FaultsSummary {
        flips_per_site: flips,
        injected: 0,
        detected: 0,
        masked: 0,
        crashed: 0,
        image_undetected: 0,
        p50: 0,
        latency: ipds_telemetry::Histogram::default(),
    };
    let mut latencies: Vec<u64> = Vec::new();
    for w in ipds_workloads::all() {
        let r = ipds_bench::compile(&w, &ipds::Config::default(), false)
            .protected
            .fault_spec()
            .inputs(&w.inputs(2006))
            .flips(flips)
            .seed(2006)
            .threads(threads)
            .run();
        summary.injected += u64::from(r.injected);
        summary.detected += u64::from(r.detected);
        summary.masked += u64::from(r.masked);
        summary.crashed += u64::from(r.crashed);
        summary.image_undetected += u64::from(r.image_undetected);
        for &l in &r.latencies {
            summary.latency.observe(l);
        }
        latencies.extend_from_slice(&r.latencies);
    }
    latencies.sort_unstable();
    summary.p50 = latencies.get(latencies.len() / 2).copied().unwrap_or(0);
    summary
}

/// The `ipdsd` fleet phase for the JSON: one deterministic synthetic
/// fleet (see docs/SERVICE.md) with shadow-validated tampered images, a
/// hot-memory-region cluster and isolated injections. `FleetReport::ok()`
/// is ground truth — the phase hard-fails if any injected tamper goes
/// unsurfaced or any root cause comes out wrong.
struct FleetSummary {
    sessions: usize,
    rejected: u64,
    events: u64,
    incidents: u64,
    root_causes: u64,
    tampered_images: u64,
    hot_regions: u64,
    isolated_noise: u64,
}

fn fleet_phase(threads: usize) -> FleetSummary {
    let sessions = 64;
    let report = ipds::ServiceSpec::new()
        .sessions(sessions)
        .threads(threads)
        .seed(2006)
        .run();
    assert!(
        report.ok(),
        "fleet must surface every injected tamper with its expected root cause: {:?}",
        report.missed
    );
    let m = &report.metrics;
    FleetSummary {
        sessions,
        rejected: m.counter("service.sessions_rejected"),
        events: m.counter("service.events_ingested"),
        incidents: m.counter("service.incidents_opened"),
        root_causes: m.counter("fleet.root_causes"),
        tampered_images: m.counter("fleet.tampered_images"),
        hot_regions: m.counter("fleet.hot_regions"),
        isolated_noise: m.counter("fleet.isolated_noise"),
    }
}

/// One metered cold campaign against telnetd's Fig. 7 target, for the
/// event-count section of the JSON (what the checker actually did, not how
/// long it took).
fn campaign_counters(targets: &[Target], attacks: u32, threads: usize) -> MetricsRegistry {
    let t = targets
        .iter()
        .find(|t| t.workload.name == "telnetd")
        .expect("telnetd workload");
    t.protected
        .campaign_spec()
        .inputs(&t.inputs)
        .golden(&t.golden, t.limits)
        .attacks(attacks)
        .seed(0x0bed)
        .model(t.workload.vuln)
        .threads(threads)
        .run()
        .metrics
}

/// Compile record for one workload variant: table sizes, lint and refine
/// counts and how hard the perfect-hash search worked.
struct CompileReport {
    /// Workload name.
    workload: &'static str,
    /// Whether the load-forwarding optimizer ran.
    optimized: bool,
    /// Analysis counters (branches, checked, BAT entries, hash retries).
    counters: AnalysisCounters,
    /// Serialized table-image size in bytes.
    image_bytes: usize,
    /// Encoded BAT size across all functions, in bytes (rounded up).
    bat_bytes: usize,
    /// `lint-tables` errors (always 0 for stock workloads; the build would
    /// be rejected otherwise).
    lint_errors: u64,
    /// `lint-tables` warnings (dead-trigger diagnostics and the like).
    lint_warnings: u64,
    /// Directional BAT actions the interval refiner re-proved, measured on a
    /// separate refine-enabled build whose tables are discarded.
    refine_proved: u64,
    /// Directional BAT actions the interval refiner demoted to `SET_UN` on
    /// that same discarded build.
    refine_demoted: u64,
}

/// Compile reports for every workload under the default config, both
/// optimizer settings.
fn compile_reports() -> Vec<CompileReport> {
    let config = ipds::Config::default();
    let mut reports = Vec::new();
    for w in ipds_workloads::all() {
        for optimized in [false, true] {
            let build = ipds_bench::compile(&w, &config, optimized);
            let lint = build.lint.as_ref().expect("lint was requested");
            // The reported tables are the campaigns' tables, so the refiner
            // runs on a second build: only its counters are kept.
            let refine = ipds::Protected::build()
                .analysis(config.clone())
                .optimize(optimized)
                .verify_tables(true)
                .refine_correlations(true)
                .from_program(w.program())
                .unwrap_or_else(|e| panic!("{} failed to build refined: {e}", w.name))
                .refine;
            let bat_bits: usize = build
                .protected
                .analysis
                .functions
                .iter()
                .map(|f| f.sizes.bat_bits)
                .sum();
            reports.push(CompileReport {
                workload: w.name,
                optimized,
                counters: build.counters,
                image_bytes: build.image.len(),
                bat_bytes: bat_bits.div_ceil(8),
                lint_errors: lint.error_count() as u64,
                lint_warnings: lint.warning_count() as u64,
                refine_proved: refine.proved,
                refine_demoted: refine.demoted,
            });
        }
    }
    reports
}

/// Renders a JSON array's rows, one per line at `indent`, comma-separated.
fn rows<T>(items: &[T], indent: &str, row: impl Fn(&T) -> String) -> String {
    items
        .iter()
        .map(|item| format!("{indent}{}", row(item)))
        .collect::<Vec<_>>()
        .join(",\n")
}

/// Renders `results/bench_campaign.json`: only values that follow from the
/// seed — attack counts, the per-workload compile breakdown (image and BAT
/// bytes, branches, hash retries, lint and refine counts), the promotion
/// and feasibility sweeps, the fault totals and latency histogram, the
/// fleet's counts and one campaign's checker counters. Nothing here
/// depends on wall-clock or `--threads`, so the file is byte-identical at
/// every `T`.
fn campaign_json(
    attacks: u32,
    counters: &MetricsRegistry,
    compiles: &[CompileReport],
    promotion: &[PromotionRow],
    feasibility: &[FeasibilityRow],
    faults: &FaultsSummary,
    fleet: &FleetSummary,
) -> String {
    let total_attacks = u64::from(attacks) * ipds_workloads::all().len() as u64;
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"attacks_per_workload\": {attacks},\n"));
    json.push_str(&format!(
        "  \"fig7\": {{\n    \"total_attacks\": {total_attacks}\n  }},\n"
    ));
    let compile = rows(compiles, "    ", |r| {
        format!(
            "{{ \"workload\": \"{}\", \"optimized\": {}, \"image_bytes\": {}, \
             \"bat_bytes\": {}, \"branches\": {}, \"checked\": {}, \"bat_entries\": {}, \
             \"hash_retries\": {}, \"lint_errors\": {}, \"lint_warnings\": {}, \
             \"refine_proved\": {}, \"refine_demoted\": {} }}",
            r.workload,
            r.optimized,
            r.image_bytes,
            r.bat_bytes,
            r.counters.branches,
            r.counters.checked,
            r.counters.bat_entries,
            r.counters.hash_retries,
            r.lint_errors,
            r.lint_warnings,
            r.refine_proved,
            r.refine_demoted
        )
    });
    json.push_str(&format!("  \"compile\": [\n{compile}\n  ],\n"));
    let promotion = rows(promotion, "    ", |r| {
        format!(
            "{{ \"workload\": \"{}\", \"promote\": {}, \"promoted_vars\": {}, \
             \"branches\": {}, \"checked\": {}, \"coverage\": {:.4}, \"bat_entries\": {}, \
             \"avg_bsv_bits\": {:.1}, \"lint_errors\": {}, \"lint_warnings\": {} }}",
            r.workload,
            r.promote,
            r.promoted_vars,
            r.branches,
            r.checked,
            r.coverage(),
            r.bat_entries,
            r.avg_bsv_bits,
            r.lint_errors,
            r.lint_warnings
        )
    });
    json.push_str(&format!("  \"promotion\": [\n{promotion}\n  ],\n"));
    let feasibility = rows(feasibility, "    ", |r| {
        format!(
            "{{ \"workload\": \"{}\", \"promote\": {}, \"prune\": {}, \
             \"pruned_edges\": {}, \"pruned_blocks\": {}, \"prune_rounds\": {}, \
             \"branches\": {}, \"checked\": {}, \"coverage\": {:.4}, \
             \"coverage_lift\": {}, \"refine_proved\": {}, \"lint_errors\": {}, \
             \"lint_warnings\": {} }}",
            r.workload,
            r.promote,
            r.prune,
            r.pruned_edges,
            r.pruned_blocks,
            r.prune_rounds,
            r.branches,
            r.checked,
            r.coverage(),
            r.coverage_lift,
            r.refine_proved,
            r.lint_errors,
            r.lint_warnings
        )
    });
    json.push_str(&format!("  \"feasibility\": [\n{feasibility}\n  ],\n"));
    json.push_str("  \"faults\": {\n");
    json.push_str(&format!(
        "    \"flips_per_site\": {},\n",
        faults.flips_per_site
    ));
    json.push_str(&format!("    \"faults_injected\": {},\n", faults.injected));
    json.push_str(&format!("    \"faults_detected\": {},\n", faults.detected));
    json.push_str(&format!("    \"faults_masked\": {},\n", faults.masked));
    json.push_str(&format!("    \"faults_crashed\": {},\n", faults.crashed));
    json.push_str(&format!(
        "    \"faults_image_undetected\": {},\n",
        faults.image_undetected
    ));
    json.push_str(&format!("    \"detect_latency_p50\": {},\n", faults.p50));
    json.push_str("    \"detect_latency_histogram\": {\n");
    json.push_str(&format!("      \"count\": {},\n", faults.latency.count));
    json.push_str(&format!("      \"mean\": {:.3},\n", faults.latency.mean()));
    json.push_str(&format!(
        "      \"max\": {},\n      \"buckets\": [{}]\n",
        faults.latency.max,
        faults
            .latency
            .buckets
            .iter()
            .map(|b| b.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str("    }\n");
    json.push_str("  },\n");
    json.push_str("  \"fleet\": {\n");
    json.push_str(&format!("    \"sessions\": {},\n", fleet.sessions));
    json.push_str(&format!("    \"sessions_rejected\": {},\n", fleet.rejected));
    json.push_str(&format!("    \"events_ingested\": {},\n", fleet.events));
    json.push_str(&format!("    \"incidents\": {},\n", fleet.incidents));
    json.push_str(&format!("    \"root_causes\": {},\n", fleet.root_causes));
    json.push_str(&format!(
        "    \"tampered_images\": {},\n",
        fleet.tampered_images
    ));
    json.push_str(&format!("    \"hot_regions\": {},\n", fleet.hot_regions));
    json.push_str(&format!(
        "    \"isolated_noise\": {},\n",
        fleet.isolated_noise
    ));
    json.push_str("    \"all_tampers_surfaced\": true\n");
    json.push_str("  },\n");
    // JSON field name -> registry key.
    let fields: [(&str, &str); 8] = [
        ("attacks", "campaign.attacks"),
        ("tampers", "campaign.attacks_tampered"),
        ("cf_changes", "campaign.attacks_cf_changed"),
        ("detections", "campaign.attacks_detected"),
        ("branches", "checker.branches"),
        ("checked", "checker.verified"),
        ("bsv_transitions", "checker.bsv_transitions"),
        ("bat_actions", "checker.bat_entries_applied"),
    ];
    let counters = rows(&fields, "      ", |(name, key)| {
        format!("\"{name}\": {}", counters.counter(key))
    });
    json.push_str(&format!(
        "  \"telemetry\": {{\n    \"campaign_counters\": {{\n{counters}\n    }}\n  }}\n"
    ));
    json.push_str("}\n");
    json
}

/// Renders `results/bench_timing.json`: the thread count of the run and
/// the scaling sweep `scripts/ci.sh` gates — the only wall-clock numbers
/// `exp_all` keeps.
fn timing_json(threads: usize, scaling: &[Scaling]) -> String {
    let scaling = rows(scaling, "    ", |s| {
        format!(
            "{{ \"threads\": {}, \"attacks\": {}, \"seconds\": {:.6}, \
             \"attacks_per_sec\": {:.1}, \"speedup\": {:.3} }}",
            s.threads, s.attacks, s.seconds, s.attacks_per_sec, s.speedup
        )
    });
    format!("{{\n  \"threads\": {threads},\n  \"scaling\": [\n{scaling}\n  ]\n}}\n")
}

#[cfg(test)]
mod tests {
    #[test]
    fn compile_reports_count_the_tables() {
        let reports = super::compile_reports();
        assert_eq!(reports.len(), 2 * ipds_workloads::all().len());
        for r in &reports {
            let variant = format!("{} optimized={}", r.workload, r.optimized);
            assert!(r.counters.branches > 0, "{variant} has branches");
            assert!(r.image_bytes > 0, "{variant}: image must be serialized");
            assert_eq!(r.lint_errors, 0, "{variant}: stock workloads lint clean");
            assert_eq!(
                r.refine_demoted, 0,
                "{variant}: stock directional actions are all interval-provable"
            );
        }
    }
}
