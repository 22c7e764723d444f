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
//! * `--threads T` — campaign, fault and fleet workers (default: the
//!   machine's parallelism, capped at 8). Results are bit-identical for
//!   every `T`.
//!
//! The full run writes two files. `results/bench_campaign.json` holds only
//! values that follow from the seed (counts, coverage, lint, faults, fleet
//! outcome): it is byte-identical at every `--threads`, committed, and
//! gated byte-for-byte (`crates/bench/tests/exp_all_phases.rs`).
//! `results/bench_timing.json` holds everything wall-clock or
//! thread-count dependent (phase seconds, the scaling sweep, per-pass
//! compile seconds, the NullSink overhead probe, fleet rates) and is not
//! committed.
//!
//! Every seeded protocol runs at the constant seed 2006 the results files
//! are generated at.

use std::fmt::Display;
use std::sync::Arc;
use std::time::Instant;

use ipds_bench::ablation::{FeasibilityRow, PromotionRow};
use ipds_bench::artifacts::CompileReport;
use ipds_runtime::HwConfig;
use ipds_sim::attack::{aggregate, attack_rng, AttackRunner, Campaign};
use ipds_telemetry::{MetricsRegistry, PhaseRecorder, NULL_SINK};

/// The sections of the full run, in the order it prints them.
const PHASES: &str =
    "table1 fig7 fig8 fig9 latency ablation promotion feasibility context micro faults fleet";

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
                    .unwrap_or_else(|| usage_error("--threads takes a number"))
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
    // Per-phase wall-clock for the timing file's `phases` array, in run order.
    let wall = PhaseRecorder::new();

    if runs("table1") {
        ipds_bench::table1::print(&hw);
        gap();
    }
    if runs("fig7") {
        let f7 = wall.time("fig7", || {
            ipds_bench::fig7::run_threaded(attacks, 2006, 2006, None, threads)
        });
        ipds_bench::fig7::print(&f7);
        gap();
        if phase == Some("fig7") {
            print_contiguous_overflow(attacks, threads);
        }
    }
    if runs("fig8") {
        let f8 = wall.time("fig8", ipds_bench::fig8::run);
        ipds_bench::fig8::print(&f8);
        gap();
    }
    if runs("fig9") {
        let f9 = wall.time("fig9", || ipds_bench::fig9::run(&hw, 2006));
        ipds_bench::fig9::print(&f9);
        gap();
    }
    if runs("latency") {
        let lat = wall.time("latency", || ipds_bench::latency::run(&hw, 2006));
        ipds_bench::latency::print(&lat);
        gap();
    }
    if runs("ablation") {
        let ab = wall.time("ablation", || {
            ipds_bench::ablation::run(attacks.min(50), 2006, 2006)
        });
        let buf = wall.time("buffer_sweep", || ipds_bench::ablation::buffer_sweep(2006));
        ipds_bench::ablation::print(&ab, &buf);
        gap();
    }
    let promotion = runs("promotion").then(|| {
        let rows = wall.time("promotion", ipds_bench::ablation::promotion_sweep);
        ipds_bench::ablation::print_promotion(&rows);
        gap();
        rows
    });
    let feasibility = runs("feasibility").then(|| {
        let rows = wall.time("feasibility", ipds_bench::ablation::feasibility_sweep);
        ipds_bench::ablation::print_feasibility(&rows);
        gap();
        rows
    });
    if runs("context") {
        let ctx = wall.time("context", || ipds_bench::context::run(&hw));
        ipds_bench::context::print(&ctx);
        gap();
    }
    if runs("micro") {
        let micro = wall.time("micro", || ipds_bench::micro::run(&hw));
        ipds_bench::micro::print(&micro);
    }
    let faults = runs("faults").then(|| {
        let faults = wall.time("faults", || fault_campaigns(24, threads));
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
        let fleet = wall.time("fleet", || fleet_phase(threads));
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
        // Throughput is wall-clock-dependent, so stderr like the overhead probe.
        eprintln!(
            "fleet throughput: {:.0} sessions/s, {:.0} events/s ({threads} threads)",
            fleet.sessions_per_sec, fleet.events_per_sec
        );
        gap();
        fleet
    });
    // A single phase ends here: the sweep, the probes and the artifacts
    // need every section's results.
    let (Some(promotion), Some(feasibility), Some(faults), Some(fleet)) =
        (promotion, feasibility, faults, fleet)
    else {
        return;
    };

    let scaling = scaling_sweep(attacks, threads);
    // Wall-clock-dependent, so stderr: stdout stays byte-identical run-to-run.
    for s in &scaling {
        eprintln!(
            "scaling: {}T, {} attacks/workload in {:.3}s -> {:.0} attacks/s (speedup {:.2}x)",
            s.threads, s.attacks, s.seconds, s.attacks_per_sec, s.speedup
        );
    }
    let overhead = null_sink_overhead(300, 5);
    // Wall-clock-dependent, so stderr: stdout stays byte-identical run-to-run.
    eprintln!(
        "NullSink telemetry overhead: {:+.2}% \
         (bare engine {:.0} attacks/s, instrumented {:.0} attacks/s)",
        overhead.percent, overhead.bare_aps, overhead.instrumented_aps
    );
    let counters = campaign_counters(attacks.min(50), threads);
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
    let timing = timing_json(
        attacks,
        threads,
        &wall.snapshot(),
        &scaling,
        &overhead,
        &compiles,
        &fleet,
    );
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
fn print_contiguous_overflow(attacks: u32, threads: usize) {
    let rows = ipds_bench::fig7::run_threaded(
        attacks,
        2006,
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
    seconds: f64,
    attacks_per_sec: f64,
    /// Throughput relative to the 1-thread row of the same sweep.
    speedup: f64,
}

/// Every sweep point must run at least this long, or the curve measures
/// dispatch overhead and timer noise instead of the checker (an earlier
/// sweep timed ~17 ms of work per point and concluded threads were a
/// loss).
const MIN_POINT_SECONDS: f64 = 0.25;

/// Re-runs the Fig. 7 campaign at 1/2/4/8 threads (plus the machine
/// default if it is higher). All compiles, golden runs and warm starts are
/// already cached by the earlier phases, so this times the campaign engine
/// alone. The per-workload attack count is calibrated upward until the
/// 1-thread point takes at least [`MIN_POINT_SECONDS`], so the sweep never
/// degenerates into a thread-dispatch benchmark; each row records the
/// calibrated `attacks` and its own `seconds` so the curve is
/// interpretable. On an N-core machine the sweep shows the near-linear
/// speedup (bit-identical results at every point). `scripts/ci.sh` gates
/// on every point of the resulting curve — see docs/PERF.md for the
/// methodology.
fn scaling_sweep(attacks: u32, default_threads: usize) -> Vec<Scaling> {
    let workloads = ipds_workloads::all().len() as u64;
    let time_point = |attacks: u32, threads: usize| -> f64 {
        let start = Instant::now();
        ipds_bench::fig7::run_threaded(attacks, 2006, 2006, None, threads);
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
    let mut rows: Vec<Scaling> = counts
        .into_iter()
        .map(|t| {
            let seconds = if t == 1 {
                base_seconds
            } else {
                time_point(attacks, t)
            };
            Scaling {
                threads: t,
                attacks,
                seconds,
                attacks_per_sec: if seconds > 0.0 {
                    total_attacks / seconds
                } else {
                    0.0
                },
                speedup: 0.0,
            }
        })
        .collect();
    let base = rows
        .iter()
        .find(|s| s.threads == 1)
        .map(|s| s.attacks_per_sec)
        .unwrap_or(0.0);
    for row in &mut rows {
        row.speedup = if base > 0.0 {
            row.attacks_per_sec / base
        } else {
            0.0
        };
    }
    rows
}

/// The telemetry zero-cost claim, measured: attacks/sec of a bare
/// single-threaded loop (the pre-telemetry shape: runner + RNG + fold, no
/// sink anywhere in sight) vs the campaign engine at one thread carrying a
/// [`NULL_SINK`]. Best-of-`reps` to shed scheduler noise.
struct Overhead {
    bare_aps: f64,
    instrumented_aps: f64,
    /// Instrumented slowdown in percent (negative = faster).
    percent: f64,
}

fn null_sink_overhead(attacks: u32, reps: u32) -> Overhead {
    let w = ipds_workloads::all()
        .into_iter()
        .find(|w| w.name == "telnetd")
        .expect("telnetd workload");
    let art = ipds_bench::artifacts::campaign_artifacts(&w, &ipds::Config::default(), false, 2006);
    let campaign = Campaign {
        attacks,
        seed: 0x0bed,
        model: w.vuln,
        limits: art.limits,
    };

    let mut bare_best = f64::INFINITY;
    let mut instr_best = f64::INFINITY;
    for _ in 0..reps {
        // Bare loop: the engine shape with no sink anywhere — including
        // the golden-snapshot capture the instrumented engine performs
        // per call, so the probe isolates telemetry cost rather than the
        // warm-start win (docs/PERF.md describes both).
        let start = Instant::now();
        let warm = ipds_sim::WarmStart::capture(
            &art.protected.program,
            &art.protected.analysis,
            &art.inputs,
            art.golden.steps,
            art.limits,
        );
        let mut runner = AttackRunner::new(
            &art.protected.program,
            &art.protected.analysis,
            &art.inputs,
            &art.golden.trace,
            campaign.limits,
        )
        .with_warm_start(&warm);
        let outcomes: Vec<_> = (0..attacks)
            .map(|i| {
                let (mut rng, trigger) = attack_rng(&campaign, art.golden.steps, i);
                runner.run(trigger, campaign.model, &mut rng)
            })
            .collect();
        let bare_result = aggregate(attacks, &outcomes);
        bare_best = bare_best.min(start.elapsed().as_secs_f64());

        // Instrumented engine, NullSink: must compile down to the same.
        let start = Instant::now();
        let (instr_result, _) = ipds_sim::run_campaign(
            &art.protected.program,
            &art.protected.analysis,
            &art.inputs,
            &art.golden,
            &campaign,
            1,
            &NULL_SINK,
            None,
        );
        instr_best = instr_best.min(start.elapsed().as_secs_f64());
        assert_eq!(
            bare_result, instr_result,
            "NullSink engine must be byte-identical to the bare loop"
        );
    }
    Overhead {
        bare_aps: f64::from(attacks) / bare_best,
        instrumented_aps: f64::from(attacks) / instr_best,
        percent: 100.0 * (instr_best / bare_best - 1.0),
    }
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
/// `threads`) and folds the results. Compiles and golden runs come from the
/// shared artifact cache the earlier figures already populated.
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
        let art =
            ipds_bench::artifacts::campaign_artifacts(&w, &ipds::Config::default(), false, 2006);
        let (r, metrics) = art
            .protected
            .fault_spec()
            .inputs(&art.inputs)
            .flips(flips)
            .seed(2006)
            .threads(threads)
            .run_metered();
        summary.injected += u64::from(r.injected);
        summary.detected += u64::from(r.detected);
        summary.masked += u64::from(r.masked);
        summary.crashed += u64::from(r.crashed);
        summary.image_undetected += u64::from(r.image_undetected);
        latencies.extend_from_slice(&r.latencies);
        if let Some(h) = metrics.histogram("faults.detect_latency_branches") {
            summary.latency.merge(h);
        }
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
    sessions_per_sec: f64,
    events_per_sec: f64,
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
        sessions_per_sec: report.sessions_per_sec,
        events_per_sec: report.events_per_sec,
    }
}

/// One metered campaign, for the event-count section of the JSON (what the
/// checker actually did, not how long it took).
fn campaign_counters(attacks: u32, threads: usize) -> MetricsRegistry {
    let w = ipds_workloads::all()
        .into_iter()
        .find(|w| w.name == "telnetd")
        .expect("telnetd workload");
    let art = ipds_bench::artifacts::campaign_artifacts(&w, &ipds::Config::default(), false, 2006);
    art.protected
        .campaign_spec()
        .inputs(&art.inputs)
        .golden(&art.golden, art.limits)
        .attacks(attacks)
        .seed(0x0bed)
        .model(w.vuln)
        .threads(threads)
        .run_metered()
        .1
}

/// Per-pass compile breakdown for every workload under the default config,
/// both optimizer settings. The earlier figures already compiled all of
/// these through the pass pipeline, so this only reads the artifact cache.
fn compile_reports() -> Vec<Arc<CompileReport>> {
    let config = ipds::Config::default();
    let mut reports = Vec::new();
    for w in ipds_workloads::all() {
        for optimized in [false, true] {
            reports.push(ipds_bench::artifacts::compile_report(
                &w, &config, optimized,
            ));
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
    compiles: &[Arc<CompileReport>],
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

/// Renders `results/bench_timing.json`: everything wall-clock or
/// `--threads` dependent — the thread count, the Fig. 7 campaign's seconds
/// and attacks/sec, the scaling sweep, per-phase wall-clock, per-pass
/// compile seconds, the NullSink overhead probe and the fleet's rates.
fn timing_json(
    attacks: u32,
    threads: usize,
    wall: &[(String, f64)],
    scaling: &[Scaling],
    overhead: &Overhead,
    compiles: &[Arc<CompileReport>],
    fleet: &FleetSummary,
) -> String {
    let fig7_seconds = wall
        .iter()
        .find(|(name, _)| name == "fig7")
        .map(|&(_, seconds)| seconds)
        .unwrap_or(0.0);
    let total_attacks = u64::from(attacks) * ipds_workloads::all().len() as u64;
    let attacks_per_sec = if fig7_seconds > 0.0 {
        total_attacks as f64 / fig7_seconds
    } else {
        0.0
    };
    fn span(&(ref name, seconds): &(impl Display, f64)) -> String {
        format!("{{ \"name\": \"{name}\", \"seconds\": {seconds:.6} }}")
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str(&format!(
        "  \"fig7\": {{\n    \"seconds\": {fig7_seconds:.6},\n    \
         \"attacks_per_sec\": {attacks_per_sec:.1}\n  }},\n"
    ));
    let scaling = rows(scaling, "    ", |s| {
        format!(
            "{{ \"threads\": {}, \"attacks\": {}, \"seconds\": {:.6}, \
             \"attacks_per_sec\": {:.1}, \"speedup\": {:.3} }}",
            s.threads, s.attacks, s.seconds, s.attacks_per_sec, s.speedup
        )
    });
    json.push_str(&format!("  \"scaling\": [\n{scaling}\n  ],\n"));
    json.push_str(&format!(
        "  \"phases\": [\n{}\n  ],\n",
        rows(wall, "    ", span)
    ));
    let compile = rows(compiles, "    ", |r| {
        format!(
            "{{ \"workload\": \"{}\", \"optimized\": {},\n      \"passes\": [\n{}\n      ] }}",
            r.workload,
            r.optimized,
            rows(&r.passes, "        ", span)
        )
    });
    json.push_str(&format!("  \"compile\": [\n{compile}\n  ],\n"));
    json.push_str(&format!(
        "  \"null_sink\": {{\n    \"bare_attacks_per_sec\": {:.1},\n    \
         \"instrumented_attacks_per_sec\": {:.1},\n    \"overhead_percent\": {:.3}\n  }},\n",
        overhead.bare_aps, overhead.instrumented_aps, overhead.percent
    ));
    json.push_str(&format!(
        "  \"fleet\": {{\n    \"sessions_per_sec\": {:.1},\n    \
         \"events_per_sec\": {:.1}\n  }}\n",
        fleet.sessions_per_sec, fleet.events_per_sec
    ));
    json.push_str("}\n");
    json
}
