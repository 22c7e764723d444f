//! The IPDS benchmark: four closed-loop workloads, each driven by one
//! client that starts a round only after the previous round finished.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--trace-dir DIR]
//! ```
//!
//! An untraced run prints the end-to-end metrics; a traced run prints the
//! per-layer metrics and writes its spans as JSONL. Either way the last
//! line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. Without `--workload` the binary
//! runs itself once per workload, so set-up time and peak memory are per
//! workload. The end-to-end times are scaled by a host-speed probe timed
//! next to every round and set-up (see `probe.rs`), so that other tenants'
//! load does not move them. `README.md` describes the workloads and every
//! metric.

#[cfg(target_os = "linux")]
mod pin;
mod probe;
mod trace;
mod workloads;

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use trace::Tracer;
use workloads::{Outcome, NAMES};

const USAGE: &str = "usage: ipds-benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--trace-dir DIR]";

/// Default `--seconds`; equal to `run_seconds` in `BENCHMARK.json`, which
/// the bounds there were calibrated at.
const RUN_SECONDS: f64 = 20.0;
/// An untraced run sets the workload up afresh at least [`MIN_SETUPS`]
/// times and until [`SETUP_SECONDS`] have passed; `setup_s` is the median
/// of the scaled set-up times.
const MIN_SETUPS: usize = 5;
const SETUP_SECONDS: f64 = 2.0;
/// Rounds every run makes at least; the printed digest folds this many.
const DIGEST_ROUNDS: u64 = 3;
/// Cap on traced rounds of the workload under test.
const TRACED_ROUNDS: u64 = 200;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: Option<PathBuf>,
}

fn parse_args(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 2006,
        seconds: RUN_SECONDS,
        trace: false,
        trace_dir: None,
    };
    while let Some(flag) = raw.next() {
        let value = raw
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !NAMES.contains(&value.as_str()) {
                    return Err(format!(
                        "unknown workload `{value}`; expected one of {NAMES:?}"
                    ));
                }
                args.workload = Some(value);
            }
            "--seed" => {
                args.seed = value
                    .parse::<u64>()
                    .map_err(|_| format!("`--seed` takes a whole number, not `{value}`"))?;
            }
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("`--seconds` takes a duration, not `{value}`"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("`--trace` takes 0 or 1, not `{value}`")),
                }
            }
            "--trace-dir" => args.trace_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(name) = args.workload.clone() else {
        return run_each_workload();
    };
    #[cfg(target_os = "linux")]
    if pin::to_one_cpu().is_none() {
        eprintln!("warning: could not pin the benchmark to one CPU");
    }
    let report = if args.trace {
        run_traced(&name, &args)
    } else {
        run_untraced(&name, &args)
    };
    match report {
        Ok(report) => {
            report.print();
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {name}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs this binary once per workload with the same flags.
fn run_each_workload() -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate the benchmark binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut code = ExitCode::SUCCESS;
    for name in NAMES {
        let status = Command::new(&exe)
            .args(std::env::args().skip(1))
            .args(["--workload", name])
            .status();
        if !status.is_ok_and(|s| s.success()) {
            eprintln!("error: workload {name} failed");
            code = ExitCode::FAILURE;
        }
    }
    code
}

/// One metric as printed: name, value, unit.
struct Metric(&'static str, f64, &'static str);

struct Report {
    attempted: u64,
    failed: u64,
    /// Printed before the JSON line, for a reader.
    notes: Vec<String>,
    metrics: Vec<Metric>,
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0
    }

    fn print(&self) {
        let mut out = std::io::stdout().lock();
        for note in &self.notes {
            let _ = writeln!(out, "{note}");
        }
        for Metric(name, value, unit) in &self.metrics {
            let _ = writeln!(out, "{name:<34} {value:>16.4} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|Metric(name, value, unit)| {
                // JSON has no NaN or infinity; a metric with no samples is 0.
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// The rounds of one measured phase.
#[derive(Default)]
struct Phase {
    times_ns: Vec<u64>,
    outcomes: Vec<Outcome>,
}

/// Calls `round(0)`, `round(1)`, … back to back until `seconds` have
/// passed, at least [`DIGEST_ROUNDS`] and at most `cap` times.
fn rounds_for(seconds: f64, cap: u64, mut round: impl FnMut(u64)) {
    let start = Instant::now();
    let mut r = 0;
    while r < cap && (r < DIGEST_ROUNDS || start.elapsed().as_secs_f64() < seconds) {
        round(r);
        r += 1;
    }
}

impl Phase {
    fn record(&mut self, round: impl FnOnce() -> Outcome) {
        let t0 = Instant::now();
        let outcome = round();
        self.times_ns.push(t0.elapsed().as_nanos() as u64);
        self.outcomes.push(outcome);
    }

    fn rounds(&self) -> u64 {
        self.times_ns.len() as u64
    }

    fn failed(&self) -> u64 {
        self.outcomes.iter().map(|o| o.failed).sum()
    }

    fn sorted_ns(&self) -> Vec<u64> {
        let mut sorted = self.times_ns.clone();
        sorted.sort_unstable();
        sorted
    }

    /// FNV-1a over the first [`DIGEST_ROUNDS`] round digests.
    fn digest(&self) -> u64 {
        let mut h = workloads::Fnv::new();
        for o in self.outcomes.iter().take(DIGEST_ROUNDS as usize) {
            h.u64(o.digest);
        }
        h.finish()
    }
}

/// Nearest-rank percentile of an ascending sample.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

fn median_f64(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn run_untraced(name: &str, args: &Args) -> Result<Report, String> {
    let mut setup_s = Vec::new();
    let mut workload = None;
    let setups_start = Instant::now();
    while setup_s.len() < MIN_SETUPS || setups_start.elapsed().as_secs_f64() < SETUP_SECONDS {
        drop(workload.take());
        // A set-up of the fleet takes a third of a second, longer than the
        // host keeps one speed, so it is scaled by probes on both sides.
        let before = probe::time();
        let t0 = Instant::now();
        workload = Some(workloads::setup(name, args.seed, &mut Tracer::disabled())?);
        let ns = t0.elapsed().as_nanos() as u64;
        let after = probe::time();
        setup_s.push(probe::scale(ns, (before + after) / 2) as f64 / 1e9);
    }
    let mut w = workload.expect("at least one set-up");

    // One round before timing lets lazy state (the worker pool, allocator
    // arenas) settle; it must reproduce the first measured round.
    let warm = w.round(0);
    let mut phase = Phase::default();
    let mut probe_ns = Vec::new();
    rounds_for(args.seconds, u64::MAX, |r| {
        phase.record(|| w.round(r));
        probe_ns.push(probe::time());
    });
    let failed = warm.failed + phase.failed() + u64::from(warm.digest != phase.outcomes[0].digest);
    let attempted = (phase.rounds() + 1) * w.ops();

    let (unit, work) = w.work();
    let mut sorted: Vec<u64> = phase
        .times_ns
        .iter()
        .zip(&probe_ns)
        .map(|(&ns, &probe)| probe::scale(ns, probe))
        .collect();
    sorted.sort_unstable();
    probe_ns.sort_unstable();
    let ms = |ns: u64| ns as f64 / 1e6;
    let n = sorted.len();
    // Throughput from the median round, not the mean: one client in a
    // closed loop does one round at a time, and the median keeps a noisy
    // neighbour's burst out of it.
    let work_per_s = work as f64 / (percentile(&sorted, 0.5) as f64 / 1e9);
    // Tails are printed, not gated: every build and fleet round does the
    // same work, so their tail measures the machine, not the program.
    let tail = |q: f64| {
        format!(
            "round_p{}_ms {:.4} ms (n={n}, {} rounds beyond)",
            (q * 100.0).round(),
            ms(percentile(&sorted, q)),
            n - (q * n as f64).ceil() as usize
        )
    };
    let notes = vec![
        format!(
            "workload {name} seed {} set-ups {} rounds {n} ({work} {unit} each) closed loop, \
             one client",
            args.seed,
            setup_s.len()
        ),
        format!("{unit}_per_s {work_per_s:.1} {unit}/s"),
        format!(
            "unscaled round_p50_ms {:.4} ms; probe p50 {:.4} ms (reference {:.4} ms)",
            ms(percentile(&phase.sorted_ns(), 0.5)),
            ms(percentile(&probe_ns, 0.5)),
            probe::REFERENCE_NS / 1e6
        ),
        tail(0.9),
        tail(0.99),
        format!(
            "error_rate {} ({failed} of {attempted} checked operations failed)",
            failed as f64 / attempted as f64
        ),
        format!("digest {:016x}", phase.digest()),
    ];
    Ok(Report {
        attempted,
        failed,
        notes,
        metrics: vec![
            Metric("work_per_s", work_per_s, "1/s"),
            Metric("round_p50_ms", ms(percentile(&sorted, 0.5)), "ms"),
            Metric("setup_s", median_f64(setup_s), "s"),
            Metric("peak_rss_mib", peak_rss_mib()?, "MiB"),
        ],
    })
}

/// What the traced pass keeps of one workload's phases.
struct Traced {
    workload: &'static str,
    round_span: &'static str,
    work: u64,
    untraced_p50_ns: f64,
    traced_p50_ns: f64,
    traced_rounds: u64,
}

impl Traced {
    fn of<'a>(traced: &'a [Traced], workload: &str) -> &'a Traced {
        traced
            .iter()
            .find(|p| p.workload == workload)
            .expect("every workload is traced")
    }
}

/// Every workload is set up and run in a traced run, so that every
/// per-layer metric is measured whichever workload is under test: the one
/// under test for `--seconds` (at most [`TRACED_ROUNDS`] rounds each way),
/// the others for [`DIGEST_ROUNDS`] rounds each way. The layer probes run
/// on the campaign programs.
fn run_traced(name: &str, args: &Args) -> Result<Report, String> {
    let mut t = Tracer::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut traced = Vec::new();
    for v in NAMES {
        t.set_round(None);
        let mut w = workloads::setup(v, args.seed, &mut t)?;
        let (seconds, cap) = if v == name {
            (args.seconds, TRACED_ROUNDS)
        } else {
            (0.0, DIGEST_ROUNDS)
        };
        // Untraced and traced rounds alternate, so both see the same
        // machine and the overhead compares like with like.
        let mut plain = Phase::default();
        let mut timed = Phase::default();
        rounds_for(seconds, cap, |r| {
            plain.record(|| w.round(r));
            timed.record(|| {
                t.set_round(Some(r));
                t.enter(w.round_span());
                let outcome = w.traced_round(r, &mut t);
                t.exit();
                outcome
            });
        });
        t.set_round(None);
        // The layer-by-layer round must reproduce the facade's outputs.
        let diverged = plain
            .outcomes
            .iter()
            .zip(&timed.outcomes)
            .filter(|(a, b)| a.digest != b.digest)
            .count() as u64;
        if diverged > 0 {
            eprintln!("{v}: {diverged} traced rounds diverged from the untraced rounds");
        }
        let (probe_ops, probe_failed) = w.probe(&mut t);
        attempted += (plain.rounds() + timed.rounds()) * w.ops() + probe_ops;
        failed += plain.failed() + timed.failed() + diverged * w.ops() + probe_failed;
        let p50 = |p: &Phase| percentile(&p.sorted_ns(), 0.5) as f64;
        traced.push(Traced {
            workload: v,
            round_span: w.round_span(),
            work: w.work().1,
            untraced_p50_ns: p50(&plain),
            traced_p50_ns: p50(&timed),
            traced_rounds: timed.rounds(),
        });
    }

    let dir = match &args.trace_dir {
        Some(dir) => dir.clone(),
        None => default_trace_dir()?,
    };
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{name}-{}.jsonl", args.seed));
    let write = || -> std::io::Result<()> {
        let mut out = BufWriter::new(File::create(&path)?);
        t.write_jsonl(&mut out)?;
        out.flush()
    };
    write().map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    let under_test = Traced::of(&traced, name);
    let mut metrics = layer_metrics(&t, &traced);
    metrics.push(Metric(
        "trace_overhead",
        under_test.traced_p50_ns / under_test.untraced_p50_ns - 1.0,
        "share",
    ));
    Ok(Report {
        attempted,
        failed,
        notes: vec![format!(
            "workload {name} seed {} traced, {} spans written to {}",
            args.seed,
            t.spans().len(),
            path.display()
        )],
        metrics,
    })
}

/// `<target dir>/bench-trace`, next to the build output of this binary.
fn default_trace_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the binary: {e}"))?;
    exe.parent()
        .and_then(|profile| profile.parent())
        .map(|target| target.join("bench-trace"))
        .ok_or_else(|| format!("no target directory above {}", exe.display()))
}

/// Self time and call count per span name.
struct SelfTimes(std::collections::BTreeMap<&'static str, (u64, u64)>);

impl SelfTimes {
    fn of(t: &Tracer) -> SelfTimes {
        let mut by_name = std::collections::BTreeMap::new();
        for (span, own) in t.spans().iter().zip(t.self_ns()) {
            let e: &mut (u64, u64) = by_name.entry(span.name).or_default();
            e.0 += 1;
            e.1 += own;
        }
        SelfTimes(by_name)
    }

    fn total_ns(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |&(_, ns)| ns as f64)
    }

    /// Mean self time per call, in microseconds.
    fn mean_us(&self, name: &str) -> f64 {
        self.0
            .get(name)
            .map_or(0.0, |&(n, ns)| ns as f64 / n as f64 / 1e3)
    }
}

fn layer_metrics(t: &Tracer, traced: &[Traced]) -> Vec<Metric> {
    let st = SelfTimes::of(t);
    let own = t.self_ns();
    // 1 − (time inside the timed calls of a traced round) ÷ (untraced
    // round), medians over rounds.
    let residual = |workload: &str| {
        let p = Traced::of(traced, workload);
        let covered: Vec<f64> = t
            .spans()
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == p.round_span)
            .map(|(s, own)| (s.duration_ns() - own) as f64)
            .collect();
        1.0 - median_f64(covered) / p.untraced_p50_ns
    };
    let per_round = |count: &str, workload: &str| {
        t.counts(count) as f64 / Traced::of(traced, workload).traced_rounds as f64
    };
    let mut attack: Vec<u64> = t
        .spans()
        .iter()
        .filter(|s| s.name == "sim.attack")
        .map(|s| s.duration_ns())
        .collect();
    attack.sort_unstable();
    let ns_per = |span: &str, count: &str| st.total_ns(span) / t.counts(count) as f64;
    let ingest_ns = ns_per("service.ingest", "runtime.events");
    let fleet = Traced::of(traced, "fleet");
    let fleet_covered = fleet.work as f64 * ingest_ns + st.mean_us("service.correlate") * 1e3;

    let mut metrics: Vec<Metric> = [
        ("ir.parse_us", "ir.parse"),
        ("ir.lower_us", "ir.lower"),
        ("ir.verify_us", "ir.verify"),
        ("dataflow.alias_us", "dataflow.alias"),
        ("dataflow.summaries_us", "dataflow.summaries"),
        ("absint.intervals_us", "absint.intervals"),
        ("analysis.prune_cfg_us", "analysis.prune_cfg"),
        (
            "analysis.analyze_functions_us",
            "analysis.analyze_functions",
        ),
        ("analysis.refine_us", "analysis.refine"),
        ("analysis.image_us", "analysis.image"),
        ("analysis.verify_tables_us", "analysis.verify_tables"),
        ("analysis.lint_us", "analysis.lint"),
        ("analysis.image_load_us", "analysis.image_load"),
        ("sim.fault_image_us", "sim.fault_image"),
        ("sim.fault_checker_us", "sim.fault_checker"),
        ("sim.fault_memory_us", "sim.fault_memory"),
        ("service.image_verify_us", "service.image_verify"),
        ("service.correlate_us", "service.correlate"),
    ]
    .into_iter()
    .map(|(metric, span)| Metric(metric, st.mean_us(span), "us"))
    .collect();
    metrics.extend([
        Metric(
            "ir.tokens_per_s",
            t.counts("pipeline.tokens") as f64 / (st.total_ns("ir.parse") / 1e9),
            "tokens/s",
        ),
        Metric(
            "analysis.hash_retries",
            per_round("analysis.hash_retries", "build"),
            "count",
        ),
        Metric("build.residual_share", residual("build"), "share"),
        Metric(
            "sim.attack_us_p50",
            percentile(&attack, 0.5) as f64 / 1e3,
            "us",
        ),
        Metric(
            "sim.attack_us_p90",
            percentile(&attack, 0.9) as f64 / 1e3,
            "us",
        ),
        Metric(
            "sim.interp_ns_per_step",
            ns_per("sim.interp", "sim.interp.steps"),
            "ns",
        ),
        Metric(
            "sim.golden_capture_ms",
            st.total_ns("sim.golden_capture") / 1e6,
            "ms",
        ),
        Metric(
            "sim.warm_capture_ms",
            st.total_ns("sim.warm_capture") / 1e6,
            "ms",
        ),
        Metric(
            "sim.warm_snapshots",
            t.counts("sim.warm_snapshots") as f64,
            "count",
        ),
        Metric(
            "campaign.engine_residual_share",
            residual("campaign"),
            "share",
        ),
        Metric("faults.engine_residual_share", residual("faults"), "share"),
        Metric(
            "runtime.on_branch_ns",
            ns_per("runtime.on_branch", "runtime.events"),
            "ns",
        ),
        Metric(
            "runtime.on_branch_run_ns",
            ns_per("runtime.on_branch_run", "runtime.events"),
            "ns",
        ),
        Metric("service.ingest_ns_per_event", ingest_ns, "ns"),
        Metric(
            "service.backpressure_stalls",
            per_round("service.backpressure_stalls", "fleet"),
            "count",
        ),
        Metric(
            "service.pool_reuses",
            per_round("service.pool_reuses", "fleet"),
            "count",
        ),
        Metric(
            "fleet.residual_share",
            1.0 - fleet_covered / fleet.untraced_p50_ns,
            "share",
        ),
    ]);
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn flags_parse_and_bad_input_is_refused() {
        let a = args("--workload fleet --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("fleet"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 2.5, true));
        let d = args("").unwrap();
        assert_eq!((d.seed, d.seconds, d.trace), (2006, RUN_SECONDS, false));
        for bad in [
            "--workload nope",
            "--seed -1",
            "--trace 2",
            "--seconds inf",
            "--seed",
            "--bogus 1",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 0.5), 5);
        assert_eq!(percentile(&v, 0.9), 9);
        assert_eq!(percentile(&v, 0.99), 10);
        assert_eq!(percentile(&[4], 0.5), 4);
    }
}
