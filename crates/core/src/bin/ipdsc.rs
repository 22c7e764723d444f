//! `ipdsc` — the IPDS command-line driver.
//!
//! ```text
//! ipdsc compile FILE [--dump]           parse + analyze, print table summary
//! ipdsc build (FILE | --workloads) [--optimize] [--timings]
//!             [--verify-tables] [--promote PCT] [--prune]
//!             explicit pass pipeline
//! ipdsc lint (FILE | --workloads) [--optimize] [--refine]
//!             [--promote PCT] [--prune]   audit emitted tables; exit
//!             nonzero on any lint error
//! ipdsc faults (FILE | --workloads) [--flips N] [--seed S] [--threads T]
//!             [--no-checksum] [--input LIST]   fault-injection campaign
//! ipdsc run FILE [--input LIST] [--events FILE]   run under IPDS checking
//! ipdsc attack FILE --var NAME --value V --step N [--input LIST] [--events FILE]
//! ipdsc campaign FILE [--attacks N] [--seed S] [--model fs|boa|block] [--input LIST]
//! ipdsc serve [--workloads LIST|all] [--sessions N] [--batch B] [--threads T]
//!             [--seed S] [--window W]   run the ipdsd fleet service
//! ipdsc time FILE [--input LIST]        cycle model, baseline vs IPDS
//! ipdsc trace FILE [--input LIST] [--limit N]   per-branch check trace
//! ```
//!
//! `serve` drives a deterministic synthetic fleet through the long-lived
//! `ipdsd` service (`crates/service`, `docs/SERVICE.md`): shared image
//! cache, pooled per-session checkers, sharded batch ingestion and the
//! incident-correlation stage. The injected image/memory/BSV tampers are
//! shadow-validated at planning time, so a nonzero exit means the service
//! itself failed to surface one — the CI smoke gate.
//!
//! `faults` and `serve` take `--threads T` from 1 to 64 (default 1); any
//! other count is a usage error. Results are identical at every `T`.
//!
//! `build` drives the explicit pass pipeline, one function after another:
//! `--timings` prints per-pass wall-clock spans and `--verify-tables`
//! appends the table-verification pass. `--promote PCT` opens the
//! SSA/`mem2reg` window at that register-promotion budget before analysis.
//! `--prune` runs the `prune-cfg` pass: interval-proved dead edges are
//! dropped from the discovery CFG and correlation discovery re-runs over
//! the pruned view (see `docs/PIPELINE.md`). `--workloads` builds every
//! bundled workload under **both** optimizer settings instead of reading a
//! file — the CI gate.
//!
//! `lint` replays every emitted BAT action against the interval-analysis
//! and anchor-pair oracles (see `docs/ABSINT.md`) and prints one ranked
//! diagnostic per finding, each with a concrete witness path. Exit status
//! is nonzero iff any `error`-severity finding exists, so it works as a CI
//! gate; `--refine` audits the refined tables instead of the stock ones.
//!
//! `--input` is a comma-separated list; bare integers become `read_int`
//! items, `s:text` becomes a `read_str` item. Example:
//! `--input 1,42,s:hello,0`. `--events FILE` streams one JSON object per
//! checked branch (see `docs/OBSERVABILITY.md` for the schema).
//!
//! Each command accepts only its own flags, each at most once: an unknown,
//! misspelled or repeated flag, or a second positional argument, is a
//! usage error. Numeric flags parse strictly into their own type: a value
//! that is missing, malformed, negative where a count is expected, or out
//! of range is a usage error, as is an unknown `--model`. `run`, `attack`,
//! `campaign`, `time`, `trace` and `faults FILE` refuse a program without
//! a `main`, and `campaign FILE` and `faults FILE` check the program's
//! clean run first and refuse to attack a program whose clean run faults.
//! Every error exits with status 1 and one message on stderr.

use std::fmt;
use std::io::BufWriter;
use std::process::ExitCode;
use std::str::FromStr;

use ipds::sim::{ExecStatus, GoldenRun};
use ipds::telemetry::{BranchRecord, EventSink, Expectation, JsonlSink};
use ipds::{Config, Input, Protected, RunReport};
use ipds_runtime::HwConfig;
use ipds_sim::AttackModel;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ipdsc: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Why a command stopped.
#[derive(Debug)]
enum CliError {
    /// The command line is malformed: an unknown or repeated flag, a
    /// missing or unparsable flag value, an unknown `--model`, a missing
    /// or extra FILE.
    Usage(String),
    /// The program's clean run faults, so there is no golden run for a
    /// campaign to attack.
    CleanRunFaults {
        /// The program file.
        file: String,
        /// The fault that ended the clean run.
        fault: String,
    },
    /// Anything else: I/O, compile errors, a failed gate.
    Failed(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}\n{}", usage()),
            CliError::CleanRunFaults { file, fault } => write!(
                f,
                "{file}: the clean run faults ({fault}), so there is no golden run to attack"
            ),
            CliError::Failed(msg) => f.write_str(msg),
        }
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> CliError {
        CliError::Failed(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> CliError {
        CliError::Failed(msg.to_string())
    }
}

fn run(args: &[String]) -> Result<(), CliError> {
    let Some(cmd) = args.first() else {
        return Err(CliError::Usage("missing command".into()));
    };
    let Some((values, switches)) = accepted_flags(cmd) else {
        return Err(CliError::Usage(format!("unknown command `{cmd}`")));
    };
    let rest = &args[1..];
    let file = positional(cmd, rest, values, switches)?;
    match cmd.as_str() {
        "build" => return build_cmd(rest, file),
        "lint" => return lint_cmd(rest, file),
        "faults" => return faults_cmd(rest, file),
        "serve" => {
            if let Some(file) = file {
                return Err(CliError::Usage(format!(
                    "`serve` takes no FILE, got `{file}`"
                )));
            }
            return serve_cmd(rest);
        }
        _ => {}
    }
    let Some(file) = file else {
        return Err(CliError::Usage(format!("`{cmd}` needs a FILE")));
    };
    let source = std::fs::read_to_string(file).map_err(|e| format!("reading {file}: {e}"))?;
    let source = source.as_str();
    match cmd.as_str() {
        "compile" => compile(source, has_flag(rest, "--dump")),
        "run" => run_program(
            file,
            source,
            &inputs_of(rest)?,
            flag_value(rest, "--events")?,
        ),
        "attack" => attack(
            file,
            source,
            &inputs_of(rest)?,
            &flag_value(rest, "--var")?.ok_or("attack requires --var NAME")?,
            flag(rest, "--value")?.ok_or("attack requires --value V")?,
            flag(rest, "--step")?.unwrap_or(10),
            flag_value(rest, "--events")?,
        ),
        "campaign" => campaign(
            file,
            source,
            &inputs_of(rest)?,
            flag(rest, "--attacks")?.unwrap_or(100),
            flag(rest, "--seed")?.unwrap_or(2006),
            attack_model(rest)?,
        ),
        "time" => time(file, source, &inputs_of(rest)?),
        "trace" => trace(
            file,
            source,
            &inputs_of(rest)?,
            flag(rest, "--limit")?.unwrap_or(64),
        ),
        other => unreachable!("`{other}` has accepted flags but no command"),
    }
}

fn usage() -> String {
    "usage: ipdsc <compile|build|lint|faults|serve|run|attack|campaign|time|trace> FILE [options]\n\
     (build, lint and faults also accept --workloads instead of FILE)\n\
     build options: --optimize --timings --verify-tables --promote PCT --prune\n\
     lint options: --optimize --refine --promote PCT --prune\n\
     faults options: --flips N --seed S --threads T --no-checksum --input LIST\n\
     serve options: --workloads LIST|all --sessions N --batch B --threads T --seed S --window W\n\
     see `ipdsc` module docs for options"
        .to_string()
}

/// The flags `cmd` accepts: first those that take a value, then the
/// switches. `None` for an unknown command.
fn accepted_flags(cmd: &str) -> Option<(&'static [&'static str], &'static [&'static str])> {
    Some(match cmd {
        "compile" => (&[], &["--dump"]),
        "build" => (
            &["--promote"],
            &[
                "--workloads",
                "--optimize",
                "--timings",
                "--verify-tables",
                "--prune",
            ],
        ),
        "lint" => (
            &["--promote"],
            &["--workloads", "--optimize", "--refine", "--prune"],
        ),
        "faults" => (
            &["--flips", "--seed", "--threads", "--input"],
            &["--workloads", "--no-checksum"],
        ),
        "serve" => (
            &[
                "--workloads",
                "--sessions",
                "--batch",
                "--threads",
                "--seed",
                "--window",
            ],
            &[],
        ),
        "run" => (&["--input", "--events"], &[]),
        "attack" => (&["--var", "--value", "--step", "--input", "--events"], &[]),
        "campaign" => (&["--attacks", "--seed", "--model", "--input"], &[]),
        "time" => (&["--input"], &[]),
        "trace" => (&["--input", "--limit"], &[]),
        _ => return None,
    })
}

/// Checks every argument after the command against the flags it accepts
/// and returns the one positional argument (the FILE), if given. An
/// unknown or repeated flag or a second positional argument is a usage
/// error; a value flag's missing value is left for [`flag_value`] to
/// report.
fn positional<'a>(
    cmd: &str,
    args: &'a [String],
    values: &[&str],
    switches: &[&str],
) -> Result<Option<&'a String>, CliError> {
    let mut file = None;
    let mut seen: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let takes_value = values.contains(&arg.as_str());
        i += if takes_value { 2 } else { 1 };
        if takes_value || switches.contains(&arg.as_str()) {
            if seen.contains(&arg.as_str()) {
                return Err(CliError::Usage(format!("`{arg}` is given twice")));
            }
            seen.push(arg);
            continue;
        }
        if arg.starts_with("--") {
            return Err(CliError::Usage(format!("`{cmd}` does not take `{arg}`")));
        }
        if let Some(first) = file.replace(arg) {
            return Err(CliError::Usage(format!(
                "`{cmd}` takes one FILE, got `{first}` and `{arg}`"
            )));
        }
    }
    Ok(file)
}

/// `ipdsc serve`: runs the `ipdsd` fleet service against a deterministic
/// synthetic fleet (see `docs/SERVICE.md`). Every session's schedule is
/// derived from `--seed`, the planned image/memory/BSV tampers are
/// shadow-validated to be detectable, and the exit status is nonzero if
/// the service misses any of them or assigns a wrong fleet-level root
/// cause — the CI smoke gate.
fn serve_cmd(args: &[String]) -> Result<(), CliError> {
    let mut spec = ipds::ServiceSpec::new();
    if let Some(list) = flag_value(args, "--workloads")? {
        if list != "all" {
            let picked: Vec<_> = ipds::workloads::all()
                .into_iter()
                .filter(|w| list.split(',').any(|n| n == w.name))
                .collect();
            if picked.is_empty() {
                return Err(CliError::Usage(format!(
                    "no bundled workload matches `{list}`"
                )));
            }
            spec = spec.workloads(picked);
        }
    }
    if let Some(n) = flag::<usize>(args, "--sessions")? {
        spec = spec.sessions(n.max(1));
    }
    if let Some(b) = flag::<usize>(args, "--batch")? {
        spec = spec.batch(b.max(1));
    }
    if let Some(t) = threads_flag(args)? {
        spec = spec.threads(t);
    }
    if let Some(s) = flag(args, "--seed")? {
        spec = spec.seed(s);
    }
    if let Some(w) = flag::<usize>(args, "--window")? {
        spec = spec.window(w.max(1));
    }
    let report = spec.run();
    let sessions = report.outcome.sessions.len();
    let counter = |key: &str| {
        report
            .outcome
            .counters
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0, |(_, v)| *v)
    };
    println!(
        "fleet  : {sessions} sessions ({} rejected at open), {} events in {} batches",
        counter("service.sessions_rejected"),
        counter("service.events_ingested"),
        counter("service.batches_ingested"),
    );
    println!(
        "rate   : {:.0} sessions/s, {:.0} events/s ({:.3}s ingest)",
        report.sessions_per_sec, report.events_per_sec, report.elapsed
    );
    println!(
        "images : {} verified, {} cache hits, {} rejected",
        counter("service.images_verified"),
        counter("service.image_hits"),
        counter("service.image_rejects"),
    );
    println!("incidents: {}", report.outcome.incidents.len());
    for cause in &report.outcome.root_causes {
        println!("  cause: {cause}");
    }
    for miss in &report.missed {
        println!("MISSED : {miss}");
    }
    if !report.ok() {
        return Err(CliError::Failed(format!(
            "fleet verification failed: {} divergence(s) from the injected ground truth",
            report.missed.len()
        )));
    }
    println!("verdict: every injected tamper surfaced with the expected root cause");
    Ok(())
}

/// `ipdsc lint`: audit the emitted tables of a file or every bundled
/// workload. Exit status reflects error-severity findings only.
fn lint_cmd(args: &[String], file: Option<&String>) -> Result<(), CliError> {
    let optimized = has_flag(args, "--optimize");
    let refine = has_flag(args, "--refine");
    let promote = promote_pct(args)?;
    let prune = has_flag(args, "--prune");
    let spec = || {
        Protected::build()
            .optimize(optimized)
            .refine_correlations(refine)
            .promote(promote)
            .prune_feasibility(prune)
            .lint_tables(true)
    };

    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut audit = |label: &str, build: ipds::Build| {
        let report = build.lint.expect("lint pass was requested");
        for d in &report.diagnostics {
            println!("{label}: {d}");
        }
        errors += report.error_count();
        warnings += report.warning_count();
    };

    if has_flag(args, "--workloads") {
        for w in ipds::workloads::all() {
            let build = spec()
                .from_program(w.program())
                .map_err(|e| format!("{}: {e}", w.name))?;
            audit(w.name, build);
        }
        println!(
            "linted {} workloads: {errors} error(s), {warnings} warning(s)",
            ipds::workloads::all().len()
        );
    } else {
        let file = file.ok_or_else(|| CliError::Usage("missing FILE".into()))?;
        let source = std::fs::read_to_string(file).map_err(|e| format!("reading {file}: {e}"))?;
        let build = spec()
            .compile(&source)
            .map_err(|e| format!("{file}: {e}"))?;
        audit(file, build);
        println!("lint: {errors} error(s), {warnings} warning(s)");
    }
    if errors > 0 {
        return Err(CliError::Failed(format!("lint found {errors} error(s)")));
    }
    Ok(())
}

/// `ipdsc faults`: a seeded fault-injection campaign over a file or every
/// bundled workload (see `docs/FAULTS.md`). Exit status is nonzero when
/// any table-image flip survives the loader with the checksum on.
fn faults_cmd(args: &[String], file: Option<&String>) -> Result<(), CliError> {
    let flips = flag::<u32>(args, "--flips")?.unwrap_or(32).max(1);
    let seed = flag(args, "--seed")?.unwrap_or(2006);
    let threads = threads_flag(args)?.unwrap_or(1);
    let checksum = !has_flag(args, "--no-checksum");

    let mut undetected = 0u32;
    let mut report = |label: &str, r: ipds::FaultCampaignResult| {
        println!(
            "{label}: {} faults (image {}, checker {}, memory {}): \
             {} detected ({:.1}%), {} masked, {} crashed, p50 latency {} branches",
            r.injected,
            r.image,
            r.checker,
            r.memory,
            r.detected,
            100.0 * r.detected_rate(),
            r.masked,
            r.crashed,
            r.detect_latency_p50(),
        );
        if r.image_undetected > 0 {
            println!(
                "{label}: {} image flip(s) LOADED despite the checksum",
                r.image_undetected
            );
        }
        undetected += r.image_undetected;
    };

    if has_flag(args, "--workloads") {
        for w in ipds::workloads::all() {
            let p = Protected::from_program(w.program(), &Config::default());
            let inputs = w.inputs(seed);
            let r = p
                .fault_spec()
                .inputs(&inputs)
                .flips(flips)
                .seed(seed)
                .checksum(checksum)
                .threads(threads)
                .run();
            report(w.name, r);
        }
    } else {
        let file = file.ok_or_else(|| CliError::Usage("missing FILE".into()))?;
        let source = std::fs::read_to_string(file).map_err(|e| format!("reading {file}: {e}"))?;
        let p = runnable(file, &source)?;
        let inputs = inputs_of(args)?;
        let (golden, _) = p.campaign_artifacts(&inputs);
        clean_run_ok(file, &golden)?;
        let r = p
            .fault_spec()
            .inputs(&inputs)
            .flips(flips)
            .seed(seed)
            .checksum(checksum)
            .threads(threads)
            .run();
        report(file, r);
    }
    if undetected > 0 {
        return Err(CliError::Failed(format!(
            "{undetected} corrupted table image(s) loaded undetected"
        )));
    }
    Ok(())
}

/// `ipdsc build`: the explicit pass pipeline over a file or every bundled
/// workload.
fn build_cmd(args: &[String], file: Option<&String>) -> Result<(), CliError> {
    let timings = has_flag(args, "--timings");
    let verify = has_flag(args, "--verify-tables");
    let promote = promote_pct(args)?;
    let prune = has_flag(args, "--prune");
    let spec = |optimized| {
        Protected::build()
            .optimize(optimized)
            .verify_tables(verify)
            .promote(promote)
            .prune_feasibility(prune)
    };

    if has_flag(args, "--workloads") {
        let mut total_image_bytes = 0usize;
        for w in ipds::workloads::all() {
            for optimized in [false, true] {
                let label = format!("{} (opt={optimized})", w.name);
                let build = spec(optimized).from_program(w.program());
                total_image_bytes += report_build(&label, build, timings)?;
            }
        }
        println!(
            "built {} workloads x 2 optimizer settings, {total_image_bytes} image bytes total{}",
            ipds::workloads::all().len(),
            if verify { ", tables verified" } else { "" },
        );
        return Ok(());
    }

    let file = file.ok_or_else(|| CliError::Usage("missing FILE".into()))?;
    let source = std::fs::read_to_string(file).map_err(|e| format!("reading {file}: {e}"))?;
    let build = spec(has_flag(args, "--optimize")).compile(&source);
    report_build(file, build, timings)?;
    Ok(())
}

/// Prints one build's summary (and its per-pass timings when asked);
/// returns its image size.
fn report_build(
    label: &str,
    build: Result<ipds::Build, ipds::Error>,
    timings: bool,
) -> Result<usize, String> {
    let build = build.map_err(|e| format!("{label}: {e}"))?;
    println!(
        "{label}: {} functions, {} branches ({} checked), {} BAT entries, {} hash retries, image {} bytes",
        build.protected.analysis.functions.len(),
        build.counters.branches,
        build.counters.checked,
        build.counters.bat_entries,
        build.counters.hash_retries,
        build.image.len(),
    );
    if timings {
        for span in &build.timings {
            println!("  {:<18} {:>9.3} ms", span.name, span.seconds * 1e3);
        }
    }
    Ok(build.image.len())
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Parses `--promote PCT` (a 0..=100 register-promotion budget; default 0,
/// which keeps the pipeline on its classic all-memory path).
fn promote_pct(args: &[String]) -> Result<u32, CliError> {
    match flag::<u32>(args, "--promote")? {
        None => Ok(0),
        Some(pct) if pct <= 100 => Ok(pct),
        Some(pct) => Err(CliError::Usage(format!(
            "--promote takes a percentage 0..=100, got `{pct}`"
        ))),
    }
}

/// The value after flag `name`, if the flag is given. A flag given without
/// a value is a usage error.
fn flag_value(args: &[String], name: &str) -> Result<Option<String>, CliError> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(v) => Ok(Some(v.clone())),
        None => Err(CliError::Usage(format!("{name} needs a value"))),
    }
}

/// Parses the value of flag `name` as a `T`. A value that does not parse —
/// malformed, negative for an unsigned count, out of range — is a usage
/// error, never a silent default.
fn flag<T: FromStr>(args: &[String], name: &str) -> Result<Option<T>, CliError> {
    flag_value(args, name)?
        .map(|v| {
            v.parse().map_err(|_| {
                CliError::Usage(format!(
                    "{name} takes a {}, got `{v}`",
                    std::any::type_name::<T>()
                ))
            })
        })
        .transpose()
}

/// The widest `--threads` accepted: a campaign or fleet flush may start
/// that many OS threads at once.
const MAX_THREADS: usize = 64;

/// Parses `--threads T`, refusing a count outside `1..=MAX_THREADS`.
fn threads_flag(args: &[String]) -> Result<Option<usize>, CliError> {
    match flag::<usize>(args, "--threads")? {
        Some(t) if !(1..=MAX_THREADS).contains(&t) => Err(CliError::Usage(format!(
            "--threads takes 1 to {MAX_THREADS}, got `{t}`"
        ))),
        t => Ok(t),
    }
}

/// Parses `--model fs|boa|block` (default `fs`, the format-string model).
fn attack_model(args: &[String]) -> Result<AttackModel, CliError> {
    match flag_value(args, "--model")?.as_deref() {
        None | Some("fs") => Ok(AttackModel::FormatString),
        Some("boa") => Ok(AttackModel::BufferOverflow),
        Some("block") => Ok(AttackModel::ContiguousOverflow),
        Some(other) => Err(CliError::Usage(format!(
            "--model takes fs, boa or block, got `{other}`"
        ))),
    }
}

/// Campaigns attack a benign execution, so a program whose clean run
/// faults has nothing to attack.
fn clean_run_ok(file: &str, golden: &GoldenRun) -> Result<(), CliError> {
    match &golden.status {
        ExecStatus::Fault(fault) => Err(CliError::CleanRunFaults {
            file: file.to_string(),
            fault: fault.clone(),
        }),
        _ => Ok(()),
    }
}

fn inputs_of(args: &[String]) -> Result<Vec<Input>, CliError> {
    let Some(list) = flag_value(args, "--input")? else {
        return Ok(Vec::new());
    };
    list.split(',')
        .filter(|s| !s.is_empty())
        .map(|item| {
            if let Some(text) = item.strip_prefix("s:") {
                Ok(Input::Str(text.to_string()))
            } else {
                item.parse::<i64>().map(Input::Int).map_err(|_| {
                    CliError::Usage(format!("bad input item `{item}` (use INT or s:TEXT)"))
                })
            }
        })
        .collect()
}

fn protect(source: &str) -> Result<Protected, CliError> {
    Protected::compile(source).map_err(|e| CliError::Failed(e.to_string()))
}

/// [`protect`] for the commands that execute the program, which needs a
/// `main`.
fn runnable(file: &str, source: &str) -> Result<Protected, CliError> {
    let p = protect(source)?;
    if p.program.main().is_none() {
        return Err(CliError::Failed(format!("{file}: {}", ipds::Error::NoMain)));
    }
    Ok(p)
}

fn compile(source: &str, dump: bool) -> Result<(), CliError> {
    let p = protect(source)?;
    println!(
        "{} function(s), {} branches, {} checked",
        p.analysis.functions.len(),
        p.analysis.branch_count(),
        p.analysis.checked_count()
    );
    for f in &p.analysis.functions {
        println!(
            "  {:<16} branches {:>3}  checked {:>3}  BAT entries {:>4}  bits BSV/BCV/BAT {}/{}/{}  hash 2^{}",
            f.name,
            f.branches.len(),
            f.checked_count(),
            f.bat_entry_count(),
            f.sizes.bsv_bits,
            f.sizes.bcv_bits,
            f.sizes.bat_bits,
            f.hash.log2_size,
        );
    }
    if dump {
        println!("\n== IR ==\n{}", p.program);
        println!("== BAT ==");
        for f in &p.analysis.functions {
            for ((t, d), entries) in &f.bat {
                let acts: Vec<String> = entries
                    .iter()
                    .map(|e| format!("#{}<-{}", e.target, e.action))
                    .collect();
                println!(
                    "  {}#{} {}: {}",
                    f.name,
                    t,
                    if *d { "T " } else { "NT" },
                    acts.join(" ")
                );
            }
        }
    }
    Ok(())
}

/// Runs a configured session, streaming branch events to `events` (a JSONL
/// path) when requested.
fn run_session(
    p: &Protected,
    inputs: &[Input],
    tamper: Option<(u64, &str, i64)>,
    events: Option<&str>,
) -> Result<RunReport, CliError> {
    let session = p.session().inputs(inputs);
    let session = match tamper {
        Some((step, var, value)) => session.tamper(step, var, value),
        None => session,
    };
    match events {
        Some(path) => {
            let file = std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
            let mut sink = JsonlSink::new(BufWriter::new(file));
            let report = session
                .sink(&mut sink)
                .run()
                .map_err(|e| CliError::Failed(e.to_string()))?;
            sink.finish().map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("events : {path}");
            Ok(report)
        }
        None => session.run().map_err(|e| CliError::Failed(e.to_string())),
    }
}

fn run_program(
    file: &str,
    source: &str,
    inputs: &[Input],
    events: Option<String>,
) -> Result<(), CliError> {
    let p = runnable(file, source)?;
    let r = run_session(&p, inputs, None, events.as_deref())?;
    println!("status : {:?}", r.status);
    println!("output : {:?}", r.output);
    println!(
        "checked: {} branches verified, {} BAT entries applied",
        r.stats.verified, r.stats.bat_entries_applied
    );
    if r.alarms.is_empty() {
        println!("alarms : none (feasible path)");
    } else {
        for a in &r.alarms {
            println!(
                "ALARM  : pc {:#x} expected {} got {}",
                a.pc,
                a.expected,
                if a.actual { "taken" } else { "not-taken" }
            );
        }
    }
    Ok(())
}

fn attack(
    file: &str,
    source: &str,
    inputs: &[Input],
    var: &str,
    value: i64,
    step: u64,
    events: Option<String>,
) -> Result<(), CliError> {
    let p = runnable(file, source)?;
    let r = run_session(&p, inputs, Some((step, var, value)), events.as_deref())?;
    println!("tampered `{var}` = {value} after {step} steps");
    println!("status : {:?}", r.status);
    println!("output : {:?}", r.output);
    if r.detected() {
        let a = &r.alarms[0];
        println!(
            "DETECTED: infeasible path at pc {:#x} (expected {}, got {})",
            a.pc,
            a.expected,
            if a.actual { "taken" } else { "not-taken" }
        );
    } else {
        println!("not detected (control flow may be unchanged or unanchored)");
    }
    Ok(())
}

fn campaign(
    file: &str,
    source: &str,
    inputs: &[Input],
    attacks: u32,
    seed: u64,
    model: AttackModel,
) -> Result<(), CliError> {
    let p = runnable(file, source)?;
    let (golden, limits) = p.campaign_artifacts(inputs);
    clean_run_ok(file, &golden)?;
    let r = p
        .campaign_spec()
        .inputs(inputs)
        .golden(&golden, limits)
        .attacks(attacks)
        .seed(seed)
        .model(model)
        .run();
    println!("{attacks} attacks under {model:?}:");
    println!(
        "  control flow changed: {:>4} ({:.1}%)",
        r.cf_changed,
        100.0 * r.cf_changed_rate()
    );
    println!(
        "  detected            : {:>4} ({:.1}%)",
        r.detected,
        100.0 * r.detected_rate()
    );
    println!(
        "  detected | cf      :        ({:.1}%)",
        100.0 * r.detected_given_cf()
    );
    Ok(())
}

/// Prints one line per checked branch, for the first `limit` branches:
/// the `ipdsc trace` rendering of the per-branch records a run session
/// streams.
struct TraceSink {
    limit: u64,
}

impl EventSink for TraceSink {
    const WANTS_BRANCHES: bool = true;

    fn on_branch(&mut self, record: &BranchRecord) {
        // `seq` counts branches from 1, so it is also the line number.
        if record.seq > self.limit {
            return;
        }
        let expected = match record.expected {
            Some(Expectation::Taken) => "T",
            Some(Expectation::NotTaken) => "NT",
            Some(Expectation::Unknown) => "UN",
            None => "?",
        };
        println!(
            "  br {:>4}  pc {:#06x}  {}  expected {:<2}  {}{}",
            record.seq,
            record.pc,
            if record.taken { "T " } else { "NT" },
            expected,
            if record.verified {
                "verified"
            } else {
                "unchecked"
            },
            if record.alarm { "  <-- ALARM" } else { "" },
        );
    }
}

fn trace(file: &str, source: &str, inputs: &[Input], limit: usize) -> Result<(), CliError> {
    let p = runnable(file, source)?;
    let limit = limit as u64;
    let r = p
        .session()
        .inputs(inputs)
        .sink(TraceSink { limit })
        .run()
        .map_err(|e| CliError::Failed(e.to_string()))?;
    if r.stats.branches > limit {
        println!("  ... (trace capped at {limit} branches; --limit N to widen)");
    }
    println!("status : {:?}", r.status);
    println!("output : {:?}", r.output);
    println!(
        "summary: {} branches, {} verified, {} alarms",
        r.stats.branches, r.stats.verified, r.stats.alarms,
    );
    Ok(())
}

fn time(file: &str, source: &str, inputs: &[Input]) -> Result<(), CliError> {
    let p = runnable(file, source)?;
    let hw = HwConfig::table1_default();
    let base = p.timed_baseline(inputs, &hw);
    let with = p.timed(inputs, &hw);
    println!(
        "baseline : {:>10} cycles  IPC {:.2}",
        base.cycles,
        base.ipc()
    );
    println!(
        "with IPDS: {:>10} cycles  (+{:.3}%)  check latency {:.1} cyc  stalls {}  spills {}",
        with.cycles,
        100.0 * (with.cycles as f64 / base.cycles.max(1) as f64 - 1.0),
        with.mean_detection_latency,
        with.ipds_stall_cycles,
        with.spills
    );
    Ok(())
}
