//! Process-wide cache of expensive campaign artifacts.
//!
//! The experiment driver's phases (`exp_all fig7`, `ablation`, …) repeat
//! the same two costly steps across figures: compiling a workload's
//! analysis ([`ipds::Protected`]) and capturing its golden run for a given
//! benign input script. Neither depends on the campaign parameters, so this
//! module memoizes both behind a process-global two-level cache:
//!
//! 1. **Protected programs**, keyed by `(workload, analysis fingerprint,
//!    optimized)`. The fingerprint is the `Debug` rendering of the
//!    [`ipds::Config`], so every ablation variant gets its own slot while
//!    figures sharing the default config share one compile.
//! 2. **Golden runs**, keyed by `(workload, optimized, input_seed)`. A
//!    golden run depends only on the *program* and its inputs — not on the
//!    analysis switches — so all ablation variants of a workload reuse a
//!    single clean execution.
//!
//! Everything handed out is behind an [`Arc`]; entries live for the process
//! lifetime (the driver binaries are short-lived, and the whole suite's
//! worth of artifacts is a few megabytes).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use ipds::analysis::AnalysisCounters;
use ipds::{Config, GoldenRun, Protected, WarmStart};
use ipds_sim::{ExecLimits, Input};
use ipds_workloads::Workload;

/// Everything needed to launch campaigns against one workload variant.
#[derive(Clone)]
pub struct CampaignArtifacts {
    /// The compiled program plus its IPDS tables.
    pub protected: Arc<Protected>,
    /// The benign input script the golden run consumed.
    pub inputs: Arc<Vec<Input>>,
    /// The clean reference execution.
    pub golden: Arc<GoldenRun>,
    /// Campaign limits derived from the golden run.
    pub limits: ExecLimits,
}

/// Per-pass compile record for one workload variant, kept alongside the
/// cached [`Protected`] so `exp_all` can report how compile time splits
/// across the pass pipeline (and how hard the perfect-hash search worked).
#[derive(Clone)]
pub struct CompileReport {
    /// Workload name.
    pub workload: &'static str,
    /// `Debug` fingerprint of the analysis config this variant used.
    pub config: String,
    /// Whether the load-forwarding optimizer ran.
    pub optimized: bool,
    /// Wall-clock seconds per pipeline pass, in execution order.
    pub passes: Vec<(&'static str, f64)>,
    /// Analysis counters (branches, checked, BAT entries, hash retries).
    pub counters: AnalysisCounters,
    /// Serialized table-image size in bytes.
    pub image_bytes: usize,
    /// Encoded BAT size across all functions, in bytes (rounded up).
    pub bat_bytes: usize,
    /// `lint-tables` errors for this variant (always 0 for stock workloads;
    /// the build would be rejected otherwise).
    pub lint_errors: u64,
    /// `lint-tables` warnings (dead-trigger diagnostics and the like).
    pub lint_warnings: u64,
    /// Directional BAT actions the interval refiner re-proved, measured on a
    /// separate refine-enabled build whose tables are discarded.
    pub refine_proved: u64,
    /// Directional BAT actions the interval refiner demoted to `SET_UN` on
    /// that same discarded build.
    pub refine_demoted: u64,
}

/// Level-1 key: workload name, analysis fingerprint, optimizer on/off.
type ProtectedKey = (&'static str, String, bool);
/// Level-2 key: workload name, optimizer on/off, input seed.
type GoldenKey = (&'static str, bool, u64);
type GoldenEntry = (Arc<Vec<Input>>, Arc<GoldenRun>, ExecLimits);
/// Level-3 key: a warm start is checker state, so unlike the golden run it
/// *does* depend on the analysis fingerprint.
type WarmKey = (&'static str, String, bool, u64);

#[derive(Default)]
struct Inner {
    protected: HashMap<ProtectedKey, (Arc<Protected>, Arc<CompileReport>)>,
    golden: HashMap<GoldenKey, GoldenEntry>,
    warm: HashMap<WarmKey, Arc<WarmStart>>,
}

fn cache() -> &'static Mutex<Inner> {
    static CACHE: OnceLock<Mutex<Inner>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(Inner::default()))
}

/// Compiles (or fetches) the workload under `config`, optionally running
/// the block-local load-forwarding pass first. Compilation goes through
/// the full pass pipeline so every bench compile is timed per pass and
/// verified (`verify-tables`) before any campaign consumes its tables.
pub fn protected(w: &Workload, config: &Config, optimize: bool) -> Arc<Protected> {
    compile(w, config, optimize).0
}

/// Fetches the per-pass compile report for a workload variant, compiling
/// it first if no campaign has touched it yet.
pub fn compile_report(w: &Workload, config: &Config, optimize: bool) -> Arc<CompileReport> {
    compile(w, config, optimize).1
}

fn compile(w: &Workload, config: &Config, optimize: bool) -> (Arc<Protected>, Arc<CompileReport>) {
    let key = (w.name, format!("{config:?}"), optimize);
    let mut inner = cache().lock().unwrap();
    if let Some((p, r)) = inner.protected.get(&key) {
        return (Arc::clone(p), Arc::clone(r));
    }
    let program = w.program();
    let build = Protected::build()
        .analysis(config.clone())
        .optimize(optimize)
        .verify_tables(true)
        .lint_tables(true)
        .from_program(program)
        .unwrap_or_else(|e| panic!("{} failed to build: {e}", w.name));
    let lint = build.lint.as_ref().expect("lint was requested");
    // Campaigns must consume tables identical to a plain compile, so the
    // refiner runs on a throwaway build: only its counters are kept.
    let refine = Protected::build()
        .analysis(config.clone())
        .optimize(optimize)
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
    let report = Arc::new(CompileReport {
        workload: w.name,
        config: key.1.clone(),
        optimized: optimize,
        passes: build.timings.iter().map(|s| (s.name, s.seconds)).collect(),
        counters: build.counters,
        image_bytes: build.image.len(),
        bat_bytes: bat_bits.div_ceil(8),
        lint_errors: lint.error_count() as u64,
        lint_warnings: lint.warning_count() as u64,
        refine_proved: refine.proved,
        refine_demoted: refine.demoted,
    });
    let p = Arc::new(build.protected);
    inner
        .protected
        .insert(key, (Arc::clone(&p), Arc::clone(&report)));
    (p, report)
}

/// Fetches the full artifact bundle for a workload variant and input seed,
/// capturing the golden run on first use and reusing it afterwards — also
/// across analysis configs, which cannot change the clean execution.
pub fn campaign_artifacts(
    w: &Workload,
    config: &Config,
    optimize: bool,
    input_seed: u64,
) -> CampaignArtifacts {
    let protected = self::protected(w, config, optimize);
    let key = (w.name, optimize, input_seed);
    let mut inner = cache().lock().unwrap();
    if let Some((inputs, golden, limits)) = inner.golden.get(&key) {
        return CampaignArtifacts {
            protected,
            inputs: Arc::clone(inputs),
            golden: Arc::clone(golden),
            limits: *limits,
        };
    }
    let inputs = Arc::new(w.inputs(input_seed));
    let (golden, limits) = protected.campaign_artifacts(&inputs);
    let golden = Arc::new(golden);
    inner
        .golden
        .insert(key, (Arc::clone(&inputs), Arc::clone(&golden), limits));
    CampaignArtifacts {
        protected,
        inputs,
        golden,
        limits,
    }
}

/// Fetches (capturing on first use) the golden-snapshot warm start for a
/// workload variant and input seed. Capture costs about one clean run —
/// drivers that launch many campaigns against the same artifacts (the
/// scaling sweep above all, which replays every workload at four thread
/// counts) pay it once per artifact set instead of once per campaign.
pub fn warm_start(
    w: &Workload,
    config: &Config,
    optimize: bool,
    input_seed: u64,
) -> Arc<WarmStart> {
    let art = campaign_artifacts(w, config, optimize, input_seed);
    let key = (w.name, format!("{config:?}"), optimize, input_seed);
    let mut inner = cache().lock().unwrap();
    if let Some(warm) = inner.warm.get(&key) {
        return Arc::clone(warm);
    }
    let warm = Arc::new(
        art.protected
            .warm_start(&art.inputs, &art.golden, art.limits),
    );
    inner.warm.insert(key, Arc::clone(&warm));
    warm
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipds_sim::AttackModel;

    fn telnetd() -> Workload {
        ipds_workloads::all()
            .into_iter()
            .find(|w| w.name == "telnetd")
            .unwrap()
    }

    #[test]
    fn protected_is_shared_per_config() {
        let w = telnetd();
        let a = protected(&w, &Config::default(), false);
        let b = protected(&w, &Config::default(), false);
        assert!(Arc::ptr_eq(&a, &b), "same key must hit the cache");
        let c = protected(
            &w,
            &Config {
                store_anchors: false,
                ..Config::default()
            },
            false,
        );
        assert!(!Arc::ptr_eq(&a, &c), "different config must not collide");
    }

    #[test]
    fn golden_is_shared_across_configs() {
        let w = telnetd();
        let full = campaign_artifacts(&w, &Config::default(), false, 11);
        let no_store = campaign_artifacts(
            &w,
            &Config {
                store_anchors: false,
                ..Config::default()
            },
            false,
            11,
        );
        assert!(
            Arc::ptr_eq(&full.golden, &no_store.golden),
            "golden run must be reused across analysis variants"
        );
        assert!(!Arc::ptr_eq(&full.protected, &no_store.protected));
    }

    #[test]
    fn compile_reports_expose_per_pass_timings() {
        let w = telnetd();
        let r = compile_report(&w, &Config::default(), false);
        let names: Vec<_> = r.passes.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            [
                "verify-ir",
                "alias",
                "summaries",
                "intervals",
                "analyze-functions",
                "image",
                "verify-tables",
                "lint-tables"
            ]
        );
        assert!(r.counters.branches > 0, "telnetd has branches");
        assert!(r.image_bytes > 0, "image must be serialized");
        assert_eq!(r.lint_errors, 0, "stock workloads must lint clean");
        assert_eq!(
            r.refine_demoted, 0,
            "stock directional actions are all interval-provable"
        );
        let again = compile_report(&w, &Config::default(), false);
        assert!(Arc::ptr_eq(&r, &again), "report must be cached");
        let optimized = compile_report(&w, &Config::default(), true);
        assert!(
            optimized.passes.iter().any(|(n, _)| *n == "opt"),
            "optimized variant must run the opt pass"
        );
    }

    #[test]
    fn cached_artifacts_reproduce_direct_campaigns() {
        let w = telnetd();
        let art = campaign_artifacts(&w, &Config::default(), false, 3);
        let via_cache = art
            .protected
            .campaign_spec()
            .inputs(&art.inputs)
            .golden(&art.golden, art.limits)
            .attacks(25)
            .seed(9)
            .model(AttackModel::FormatString)
            .run();
        let direct = protected(&w, &Config::default(), false)
            .campaign_spec()
            .inputs(&w.inputs(3))
            .attacks(25)
            .seed(9)
            .model(AttackModel::FormatString)
            .run();
        assert_eq!(via_cache, direct);
    }
}
