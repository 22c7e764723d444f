//! # ipds — Infeasible Path Detection System
//!
//! A full reproduction of *"Using Branch Correlation to Identify Infeasible
//! Paths for Anomaly Detection"* (MICRO 2006): a compiler pass that derives
//! correlations between conditional branches over memory-resident data, and
//! a modeled hardware runtime that verifies every committed branch against
//! the expected direction those correlations imply. Memory tampering that
//! changes control flow onto an *infeasible path* trips the check; clean
//! executions never do (zero false positives).
//!
//! This crate is the facade: compile MiniC source, get a [`Protected`]
//! program, run it cleanly, under attack, or under the cycle-level timing
//! model. Runs and campaigns are configured through builders
//! ([`Protected::session`], [`Protected::campaign_spec`]); fallible
//! operations return [`Error`] instead of panicking, so applications can
//! use `?` end to end.
//!
//! ```
//! use ipds::{Input, Protected};
//!
//! fn main() -> Result<(), ipds::Error> {
//!     let protected = Protected::compile(
//!         r#"
//!     fn main() -> int {
//!         int user;
//!         user = read_int();
//!         if (user == 1) { print_int(100); }
//!         if (user == 1) { print_int(200); } else { print_int(300); }
//!         return 0;
//!     }
//! "#,
//!     )?;
//!
//!     // A clean run never alarms.
//!     let clean = protected.run(&[Input::Int(0)]);
//!     assert!(clean.alarms.is_empty());
//!
//!     // Tampering `user` between the two checks is detected.
//!     let report = protected
//!         .session()
//!         .inputs(&[Input::Int(0)])
//!         .tamper(6, "user", 1)
//!         .run()?;
//!     assert!(report.detected());
//!     Ok(())
//! }
//! ```
//!
//! To see what the checker did, read a run's [`RunReport::stats`] or the
//! `checker.*` counters in a campaign result's
//! [`metrics`](CampaignResult::metrics); to
//! stream one run's per-branch records, attach an [`EventSink`] with
//! [`RunSession::sink`] — see `docs/OBSERVABILITY.md`:
//!
//! ```
//! use ipds::{Input, Protected};
//!
//! let protected = Protected::compile(
//!     "fn main() -> int { int x; x = read_int(); \
//!      if (x == 1) { print_int(1); } return 0; }",
//! )
//! .unwrap();
//! let report = protected.session().inputs(&[Input::Int(1)]).run().unwrap();
//! assert!(report.stats.branches > 0);
//!
//! let campaign = protected
//!     .campaign_spec()
//!     .inputs(&[Input::Int(1)])
//!     .attacks(8)
//!     .run();
//! assert_eq!(campaign.metrics.counter("campaign.attacks"), 8);
//! assert!(campaign.metrics.counter("checker.branches") > 0);
//! ```

use std::fmt;

use ipds_analysis::pipeline::{build_program, build_source, BuildOptions, BuildOutput};
use ipds_analysis::{
    analyze_program, AnalysisConfig, AnalysisCounters, ImageError, ProgramAnalysis, TableImage,
};
use ipds_ir::{CompileError, Program, VarId};
use ipds_runtime::{Alarm, HwConfig, IpdsChecker, IpdsStats, RuntimeError};
use ipds_sim::pipeline::core::timed_run;
use ipds_sim::{AttackModel, Campaign, ExecLimits, ExecStatus, Interp, IpdsObserver, PerfReport};
use ipds_telemetry::{EventSink, MetricsRegistry, NullSink};

pub use ipds_analysis::{
    self as analysis, BrAction, BranchStatus, LintDiagnostic, LintReport, LintRule, LintSeverity,
    PassSpan, PipelineError, RefineStats, SizeStats, TableVerifyError,
};
pub use ipds_dataflow as dataflow;
pub use ipds_ir::{self as ir};
pub use ipds_runtime::{self as runtime};
pub use ipds_service as service;
pub use ipds_sim::{self as sim, Input as SimInput};
pub use ipds_telemetry as telemetry;
pub use ipds_workloads as workloads;

// The fleet-service vocabulary, first-class at the root: configure a
// deterministic synthetic fleet with [`ServiceSpec`], or drive the
// long-lived [`Service`] engine directly (see `docs/SERVICE.md`).
pub use ipds_service::{
    correlate, FleetOutcome, FleetPlan, FleetReport, GuestEvent, ImageCache, Incident,
    IncidentKind, RootCause, Service, ServiceError, ServiceReport, ServiceSpec, SessionPool,
    SessionSummary, WorkloadArtifact,
};

// Re-export the most used leaf types at the top level.
pub use ipds_analysis::AnalysisConfig as Config;
pub use ipds_runtime::HwConfig as Hardware;
pub use ipds_sim::{
    AnomalyReport, CampaignResult, FaultCampaign, FaultCampaignResult, FaultOutcome, FaultSite,
    GoldenRun, Input, WarmStart,
};

/// Everything that can fail across the facade and service APIs, unified:
/// every layer's error converts via `From`, so `?` works end to end, and
/// [`Error::kind`] gives a stable coarse classification that survives
/// variant payload changes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// MiniC compilation failed (lexical, syntactic or semantic).
    Compile(CompileError),
    /// A tamper specification was invalid.
    Tamper(TamperError),
    /// The pass pipeline failed (hash search, table verification, ordering).
    Pipeline(PipelineError),
    /// The runtime checker rejected the event stream (frame-stack
    /// underflow and friends).
    Runtime(RuntimeError),
    /// A serialized table image failed verification on load.
    Image(ImageError),
    /// The fleet service refused an operation (unknown workload or
    /// session, rejected image registration).
    Service(ServiceError),
    /// The program defines no `main`, so there is nothing to execute. It
    /// still compiles: only running it fails.
    NoMain,
}

/// Coarse classification of an [`Error`] — one tag per layer, stable
/// across payload evolution, so callers can branch without matching the
/// full variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// Front-end ([`Error::Compile`]).
    Compile,
    /// Tamper specification ([`Error::Tamper`]).
    Tamper,
    /// Pass pipeline ([`Error::Pipeline`]).
    Pipeline,
    /// Runtime checker ([`Error::Runtime`]).
    Runtime,
    /// Table image ([`Error::Image`]).
    Image,
    /// Fleet service ([`Error::Service`]).
    Service,
    /// Execution ([`Error::NoMain`]).
    Exec,
}

impl Error {
    /// The layer this error came from.
    pub fn kind(&self) -> ErrorKind {
        match self {
            Error::Compile(_) => ErrorKind::Compile,
            Error::Tamper(_) => ErrorKind::Tamper,
            Error::Pipeline(_) => ErrorKind::Pipeline,
            Error::Runtime(_) => ErrorKind::Runtime,
            Error::Image(_) => ErrorKind::Image,
            Error::Service(_) => ErrorKind::Service,
            Error::NoMain => ErrorKind::Exec,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Compile(e) => write!(f, "compile error: {e}"),
            Error::Tamper(e) => write!(f, "tamper error: {e}"),
            Error::Pipeline(e) => write!(f, "pipeline error: {e}"),
            Error::Runtime(e) => write!(f, "runtime error: {e}"),
            Error::Image(e) => write!(f, "image error: {e}"),
            Error::Service(e) => write!(f, "service error: {e}"),
            Error::NoMain => {
                f.write_str("the program defines no `main`, so there is nothing to run")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Compile(e) => Some(e),
            Error::Tamper(e) => Some(e),
            Error::Pipeline(e) => Some(e),
            Error::Runtime(e) => Some(e),
            Error::Image(e) => Some(e),
            Error::Service(e) => Some(e),
            Error::NoMain => None,
        }
    }
}

impl From<CompileError> for Error {
    fn from(e: CompileError) -> Error {
        Error::Compile(e)
    }
}

impl From<TamperError> for Error {
    fn from(e: TamperError) -> Error {
        Error::Tamper(e)
    }
}

impl From<PipelineError> for Error {
    fn from(e: PipelineError) -> Error {
        // Front-end failures keep their original facade variant so existing
        // `Error::Compile` matches continue to work.
        match e {
            PipelineError::Compile(c) => Error::Compile(c),
            other => Error::Pipeline(other),
        }
    }
}

impl From<RuntimeError> for Error {
    fn from(e: RuntimeError) -> Error {
        Error::Runtime(e)
    }
}

impl From<ImageError> for Error {
    fn from(e: ImageError) -> Error {
        Error::Image(e)
    }
}

impl From<ServiceError> for Error {
    fn from(e: ServiceError) -> Error {
        Error::Service(e)
    }
}

/// An invalid tamper specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TamperError {
    /// The named variable exists neither in `main`'s frame nor globally.
    UnknownVar {
        /// The name that failed to resolve.
        name: String,
        /// Every name that *would* resolve (main locals, then globals).
        candidates: Vec<String>,
    },
}

impl fmt::Display for TamperError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TamperError::UnknownVar { name, candidates } => {
                write!(
                    f,
                    "no variable named `{name}` in main or globals (candidates: {})",
                    candidates.join(", ")
                )
            }
        }
    }
}

impl std::error::Error for TamperError {}

/// Anything [`Protected::compile`] can start from: MiniC source text, an
/// already-built IR program, or a bundled workload.
#[derive(Debug, Clone)]
pub enum Source {
    /// MiniC source text, to be parsed.
    Text(String),
    /// An IR program built elsewhere (generators, workloads, tests).
    Program(Program),
}

impl From<&str> for Source {
    fn from(text: &str) -> Source {
        Source::Text(text.to_string())
    }
}

impl From<String> for Source {
    fn from(text: String) -> Source {
        Source::Text(text)
    }
}

impl From<Program> for Source {
    fn from(program: Program) -> Source {
        Source::Program(program)
    }
}

impl From<&ipds_workloads::Workload> for Source {
    fn from(workload: &ipds_workloads::Workload) -> Source {
        Source::Program(workload.program())
    }
}

/// Result of one protected execution.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// How the program terminated.
    pub status: ExecStatus,
    /// Everything the program printed.
    pub output: Vec<i64>,
    /// Alarms the IPDS raised (empty for clean runs, by construction).
    pub alarms: Vec<Alarm>,
    /// Checker statistics.
    pub stats: IpdsStats,
}

impl RunReport {
    /// True if the IPDS flagged an infeasible path.
    pub fn detected(&self) -> bool {
        !self.alarms.is_empty()
    }
}

/// A compiled-and-analyzed program: the unit everything else operates on.
#[derive(Debug, Clone)]
pub struct Protected {
    /// The IR program.
    pub program: Program,
    /// The compiler-side tables (BSV/BCV/BAT + hashes) per function.
    pub analysis: ProgramAnalysis,
}

impl Protected {
    /// Compiles anything [`Source`]-shaped — MiniC text, a prebuilt IR
    /// [`Program`], or a bundled [`Workload`](ipds_workloads::Workload)
    /// reference — and runs the full correlation analysis with default
    /// settings.
    ///
    /// # Errors
    ///
    /// [`Error::Compile`] on lexical, syntactic or semantic problems
    /// (text sources only; programs and workloads are already parsed).
    pub fn compile(source: impl Into<Source>) -> Result<Protected, Error> {
        let program = match source.into() {
            Source::Text(text) => ipds_ir::parse(&text)?,
            Source::Program(program) => program,
        };
        Ok(Protected::from_program(program, &AnalysisConfig::default()))
    }

    /// Wraps an already-built IR program.
    pub fn from_program(program: Program, config: &AnalysisConfig) -> Protected {
        let analysis = analyze_program(&program, config);
        Protected { program, analysis }
    }

    /// Starts configuring a build through the explicit pass pipeline —
    /// per-pass timings, optional table verification. Defaults: default
    /// analysis config, optimizer off, no verification.
    ///
    /// ```
    /// # fn main() -> Result<(), ipds::Error> {
    /// let build = ipds::Protected::build()
    ///     .verify_tables(true)
    ///     .compile("fn main() -> int { return 0; }")?;
    /// assert!(!build.timings.is_empty());
    /// # Ok(())
    /// # }
    /// ```
    pub fn build() -> BuildSpec {
        BuildSpec {
            options: BuildOptions::default(),
        }
    }

    /// Starts configuring a single protected execution. Defaults: no
    /// inputs, default limits, no tamper, telemetry disabled.
    pub fn session(&self) -> RunSession<'_, NullSink> {
        RunSession {
            protected: self,
            inputs: &[],
            limits: ExecLimits::default(),
            tamper: None,
            sink: NullSink,
        }
    }

    /// Starts configuring an attack campaign (the Fig. 7 protocol).
    /// Defaults: no inputs, 100 attacks, seed `0x1bd5`, format-string
    /// model, serial execution, golden run captured on demand.
    pub fn campaign_spec(&self) -> CampaignSpec<'_> {
        CampaignSpec {
            protected: self,
            inputs: &[],
            attacks: 100,
            seed: 0x1bd5,
            model: AttackModel::FormatString,
            threads: 1,
            golden: None,
            warm: None,
        }
    }

    /// Starts configuring a fault-injection campaign (see
    /// `docs/FAULTS.md`). Defaults: no inputs, 32 flips per site, seed
    /// `0x1bd5`, loader checksum on, serial execution.
    pub fn fault_spec(&self) -> FaultSpec<'_> {
        FaultSpec {
            protected: self,
            inputs: &[],
            flips: 32,
            seed: 0x1bd5,
            checksum: true,
            threads: 1,
        }
    }

    /// Executes cleanly under IPDS checking.
    ///
    /// # Panics
    ///
    /// Panics if the program has no `main`; [`Protected::session`] reports
    /// that as [`Error::NoMain`] instead.
    pub fn run(&self, inputs: &[Input]) -> RunReport {
        self.run_impl(inputs, ExecLimits::default(), None, NullSink)
    }

    /// Resolves a variable name against `main`'s frame, then the globals.
    ///
    /// # Errors
    ///
    /// [`TamperError::UnknownVar`] carrying every name that would have
    /// resolved.
    pub fn resolve_var(&self, name: &str) -> Result<VarId, TamperError> {
        let locals = self.program.main().map_or(&[][..], |main| &main.vars[..]);
        if let Some(i) = locals.iter().position(|v| v.name == name) {
            return Ok(VarId::local(i as u32));
        }
        if let Some(i) = self.program.globals.iter().position(|v| v.name == name) {
            return Ok(VarId::global(i as u32));
        }
        Err(TamperError::UnknownVar {
            name: name.to_string(),
            candidates: locals
                .iter()
                .chain(self.program.globals.iter())
                .map(|v| v.name.clone())
                .collect(),
        })
    }

    /// The one execution engine behind [`RunSession`], [`Protected::run`]
    /// and the CLI: optional single tamper, any sink.
    fn run_impl<S: EventSink>(
        &self,
        inputs: &[Input],
        limits: ExecLimits,
        tamper: Option<(u64, VarId, i64)>,
        sink: S,
    ) -> RunReport {
        let mut interp = Interp::new(&self.program, inputs.to_vec(), limits);
        let mut obs = IpdsObserver::with_sink(IpdsChecker::new(&self.analysis), sink);
        obs.checker.on_call(interp.main());
        if let Some((trigger_step, var, value)) = tamper {
            interp.run_steps(trigger_step, &mut obs);
            // Tampering is a no-op when the program already finished (the
            // trigger landed past the end) or main's frame is gone.
            if interp.status() == &ExecStatus::Running && !interp.mem.frames().is_empty() {
                let addr = interp.mem.addr_of(0, var);
                interp.mem.tamper(addr, value);
            }
        }
        let status = interp.run(&mut obs);
        RunReport {
            status,
            output: interp.output().to_vec(),
            alarms: obs.checker.alarms().to_vec(),
            stats: *obs.checker.stats(),
        }
    }

    /// Captures the golden (clean) run once and derives the campaign
    /// execution limits from it — a tampered run that loops cannot drag a
    /// campaign out indefinitely. The golden run is valid under the derived
    /// limits (they only ever extend the budget it completed within), so
    /// callers can cache and reuse both across campaigns (pass them to
    /// [`CampaignSpec::golden`]).
    pub fn campaign_artifacts(&self, inputs: &[Input]) -> (GoldenRun, ExecLimits) {
        let golden = GoldenRun::capture(&self.program, inputs, ExecLimits::default());
        let limits = ExecLimits::campaign(golden.steps);
        (golden, limits)
    }

    /// Captures the golden-snapshot set campaigns use to fast-forward past
    /// the untampered prefix. Capture costs about one clean run; a driver
    /// launching many campaigns against the same artifacts caches the
    /// result and passes it to [`CampaignSpec::warm_start`] so the cost is
    /// paid once per artifact set instead of once per campaign.
    pub fn warm_start(
        &self,
        inputs: &[Input],
        golden: &GoldenRun,
        limits: ExecLimits,
    ) -> WarmStart {
        WarmStart::capture(&self.program, &self.analysis, inputs, golden.steps, limits)
    }

    /// Cycle-level run **with** the IPDS attached.
    pub fn timed(&self, inputs: &[Input], hw: &HwConfig) -> PerfReport {
        timed_run(
            &self.program,
            inputs,
            Some(&self.analysis),
            hw,
            ExecLimits::default(),
        )
    }

    /// Cycle-level run **without** the IPDS (the Fig. 9 baseline).
    pub fn timed_baseline(&self, inputs: &[Input], hw: &HwConfig) -> PerfReport {
        timed_run(&self.program, inputs, None, hw, ExecLimits::default())
    }

    /// Table-size statistics over this program (the Fig. 8 quantities).
    pub fn size_stats(&self) -> SizeStats {
        SizeStats::collect(&self.analysis)
    }
}

/// Builder for a pipeline build (see [`Protected::build`]).
#[derive(Debug, Clone, Default)]
pub struct BuildSpec {
    options: BuildOptions,
}

impl BuildSpec {
    /// Analysis tuning (the ablation switches).
    pub fn analysis(mut self, config: AnalysisConfig) -> Self {
        self.options.config = config;
        self
    }

    /// Run the load-forwarding optimizer before analysis (default off).
    pub fn optimize(mut self, on: bool) -> Self {
        self.options.optimize = on;
        self
    }

    /// Register-promotion budget for the SSA/`mem2reg` window, as a
    /// percentage of eligible scalars (0 = window skipped entirely, the
    /// paper's memory-resident model; 100 = promote every eligible local).
    /// Promoted variables stop being unique memory cells, so their branches
    /// lose anchors — the promotion-ablation experiment sweeps this knob.
    /// Values above 100 are clamped.
    pub fn promote(mut self, pct: u32) -> Self {
        self.options.promote = pct.min(100);
        self
    }

    /// Append the `verify-tables` pass: cross-check the emitted tables and
    /// image against the IR (default off).
    pub fn verify_tables(mut self, on: bool) -> Self {
        self.options.verify = on;
        self
    }

    /// Run the interval analyzer and fold its facts back into the tables
    /// before image emission: prove additional subsumptions, demote
    /// directional actions no oracle re-proves (default off).
    pub fn refine_correlations(mut self, on: bool) -> Self {
        self.options.refine = on;
        self
    }

    /// Run the `prune-cfg` pass: drop interval-proved infeasible edges
    /// from the discovery CFG and re-run alias classification, anchors and
    /// correlation discovery over the pruned view (default off). The
    /// branch inventory and table layout stay those of the full function —
    /// pruning only sharpens what discovery may use.
    pub fn prune_feasibility(mut self, on: bool) -> Self {
        self.options.prune_feasibility = on;
        self
    }

    /// Append the `lint-tables` auditor: replay every BAT action against
    /// the interval and anchor oracles and collect ranked diagnostics into
    /// [`Build::lint`] (default off). The build succeeds regardless of
    /// findings — callers decide what a [`LintSeverity::Error`] costs.
    pub fn lint_tables(mut self, on: bool) -> Self {
        self.options.lint = on;
        self
    }

    /// Compiles MiniC source through the pipeline.
    ///
    /// # Errors
    ///
    /// [`Error::Compile`] for front-end failures, [`Error::Pipeline`] for
    /// hash-search or table-verification failures.
    pub fn compile(self, source: &str) -> Result<Build, Error> {
        Ok(Build::from_output(build_source(source, self.options)?))
    }

    /// Runs the pipeline (minus the front end) over an existing IR program.
    ///
    /// # Errors
    ///
    /// See [`BuildSpec::compile`].
    pub fn from_program(self, program: Program) -> Result<Build, Error> {
        Ok(Build::from_output(build_program(program, self.options)?))
    }
}

/// A finished pipeline build: the [`Protected`] program plus the artifacts
/// and diagnostics the plain constructors discard.
#[derive(Debug)]
pub struct Build {
    /// The compiled-and-analyzed program, ready to run.
    pub protected: Protected,
    /// The serialized table image (what would be attached to the binary).
    pub image: TableImage,
    /// Work counters summed over all functions (branches, checked,
    /// BAT entries, hash retries).
    pub counters: AnalysisCounters,
    /// What the `refine-correlations` pass changed (zero when disabled).
    pub refine: RefineStats,
    /// The table audit, when [`BuildSpec::lint_tables`] was requested.
    pub lint: Option<LintReport>,
    /// Per-pass wall-clock spans, in execution order.
    pub timings: Vec<PassSpan>,
    /// Pass-scoped counters (`pipeline.*` keys).
    pub metrics: MetricsRegistry,
}

impl Build {
    fn from_output(out: BuildOutput) -> Build {
        Build {
            protected: Protected {
                program: out.program,
                analysis: out.analysis,
            },
            image: out.image,
            counters: out.counters,
            refine: out.refine,
            lint: out.lint,
            timings: out.timings,
            metrics: out.metrics,
        }
    }
}

/// Builder for one protected execution (see [`Protected::session`]).
///
/// The session owns its sink. The sink type parameter defaults to
/// [`NullSink`], so uninstrumented sessions monomorphize to exactly the
/// code the plain `run*` methods produce; to keep a sink after the run,
/// attach it by `&mut` borrow.
#[derive(Debug)]
pub struct RunSession<'a, S: EventSink = NullSink> {
    protected: &'a Protected,
    inputs: &'a [Input],
    limits: ExecLimits,
    tamper: Option<(u64, &'a str, i64)>,
    sink: S,
}

impl<'a, S: EventSink> RunSession<'a, S> {
    /// The program's input script (each `read_int()` consumes one entry).
    pub fn inputs(mut self, inputs: &'a [Input]) -> Self {
        self.inputs = inputs;
        self
    }

    /// Execution budget (steps, call depth).
    pub fn limits(mut self, limits: ExecLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Schedules a single tamper: after `trigger_step` interpreter steps,
    /// overwrite `var` (a `main` local or a global) with `value`.
    pub fn tamper(mut self, trigger_step: u64, var: &'a str, value: i64) -> Self {
        self.tamper = Some((trigger_step, var, value));
        self
    }

    /// Attaches an event sink; every committed branch is reported to it.
    /// Pass `&mut sink` to keep the sink (say, to finish a
    /// [`JsonlSink`](ipds_telemetry::JsonlSink)) after the run.
    pub fn sink<T: EventSink>(self, sink: T) -> RunSession<'a, T> {
        RunSession {
            protected: self.protected,
            inputs: self.inputs,
            limits: self.limits,
            tamper: self.tamper,
            sink,
        }
    }

    /// Executes the configured session.
    ///
    /// # Errors
    ///
    /// [`Error::NoMain`] if the program has no `main`, and
    /// [`Error::Tamper`] if a scheduled tamper names an unknown variable —
    /// both validated before anything executes.
    pub fn run(self) -> Result<RunReport, Error> {
        if self.protected.program.main().is_none() {
            return Err(Error::NoMain);
        }
        let tamper = match self.tamper {
            Some((step, name, value)) => Some((step, self.protected.resolve_var(name)?, value)),
            None => None,
        };
        Ok(self
            .protected
            .run_impl(self.inputs, self.limits, tamper, self.sink))
    }
}

/// Builder for an attack campaign (see [`Protected::campaign_spec`]).
///
/// Every knob is defaultable.
#[derive(Debug)]
pub struct CampaignSpec<'a> {
    protected: &'a Protected,
    inputs: &'a [Input],
    attacks: u32,
    seed: u64,
    model: AttackModel,
    threads: usize,
    golden: Option<(&'a GoldenRun, ExecLimits)>,
    warm: Option<&'a WarmStart>,
}

impl<'a> CampaignSpec<'a> {
    /// The victim's input script (shared by the golden run and every
    /// attack).
    pub fn inputs(mut self, inputs: &'a [Input]) -> Self {
        self.inputs = inputs;
        self
    }

    /// Number of independently seeded attacks (default 100).
    pub fn attacks(mut self, attacks: u32) -> Self {
        self.attacks = attacks;
        self
    }

    /// Campaign master seed (default `0x1bd5`); attack `i` derives its own
    /// stream via [`ipds_sim::attack_seed`].
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attack model (default [`AttackModel::FormatString`]).
    pub fn model(mut self, model: AttackModel) -> Self {
        self.model = model;
        self
    }

    /// Worker threads (default 1 = serial). Results are bit-identical for
    /// every thread count; use [`ipds_sim::default_threads`] for a
    /// machine-wide default.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Reuses a precomputed golden run and its derived limits (from
    /// [`Protected::campaign_artifacts`]) instead of capturing one per
    /// campaign.
    pub fn golden(mut self, golden: &'a GoldenRun, limits: ExecLimits) -> Self {
        self.golden = Some((golden, limits));
        self
    }

    /// Reuses a precomputed warm start (golden-snapshot set, from
    /// [`Protected::warm_start`]) instead of capturing one per campaign.
    /// Results are bit-identical with or without it — the warm path is
    /// gated exactly as the on-demand capture (single-attack campaigns run
    /// cold).
    pub fn warm_start(mut self, warm: &'a WarmStart) -> Self {
        self.warm = Some(warm);
        self
    }

    /// Runs the campaign. The result's
    /// [`metrics`](CampaignResult::metrics) hold the `campaign.*` attack
    /// counters, the step and detection-lag histograms and the checker's
    /// summed `checker.*` work, folded from the seed-ordered outcomes with
    /// the typed figures by [`ipds_sim::attack::aggregate`]. The whole
    /// result is bit-identical for every thread count (see
    /// `docs/PERF.md`).
    ///
    /// # Panics
    ///
    /// Panics if the program has no `main`, the golden run faults (a
    /// campaign over a crashing victim is meaningless) or a worker thread
    /// panics.
    pub fn run(&self) -> CampaignResult {
        match self.golden {
            Some((golden, limits)) => self.run_against(golden, limits),
            None => {
                let (golden, limits) = self.protected.campaign_artifacts(self.inputs);
                self.run_against(&golden, limits)
            }
        }
    }

    fn run_against(&self, golden: &GoldenRun, limits: ExecLimits) -> CampaignResult {
        let campaign = Campaign {
            attacks: self.attacks,
            seed: self.seed,
            model: self.model,
            limits,
        };
        ipds_sim::run_campaign(
            &self.protected.program,
            &self.protected.analysis,
            self.inputs,
            golden,
            &campaign,
            self.threads,
            self.warm,
        )
    }
}

/// Builder for a fault-injection campaign (see [`Protected::fault_spec`]
/// and `docs/FAULTS.md`).
///
/// The campaign serializes the program's tables to a [`TableImage`] and
/// injects `flips` faults into each of the three sites (image bytes,
/// live checker state, guest memory); results are bit-identical for every
/// thread count.
#[derive(Debug)]
pub struct FaultSpec<'a> {
    protected: &'a Protected,
    inputs: &'a [Input],
    flips: u32,
    seed: u64,
    checksum: bool,
    threads: usize,
}

impl<'a> FaultSpec<'a> {
    /// The victim's input script (shared by the golden run and every
    /// faulted run).
    pub fn inputs(mut self, inputs: &'a [Input]) -> Self {
        self.inputs = inputs;
        self
    }

    /// Faults per site (default 32); the campaign injects `3 * flips`
    /// faults in total.
    pub fn flips(mut self, flips: u32) -> Self {
        self.flips = flips;
        self
    }

    /// Campaign master seed (default `0x1bd5`); fault `i` derives its own
    /// stream via [`ipds_sim::fault_seed`].
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Whether the loader verifies the image checksum (default `true`).
    /// Off, corrupted images are restamped and detection falls to the
    /// runtime.
    pub fn checksum(mut self, on: bool) -> Self {
        self.checksum = on;
        self
    }

    /// Worker threads (default 1 = serial). Results are bit-identical for
    /// every thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Runs the campaign. The result's
    /// [`metrics`](FaultCampaignResult::metrics) hold the `faults.*`
    /// counters and the detection-latency histogram, folded from the
    /// index-ordered outcomes with the typed tallies by
    /// [`ipds_sim::faults::aggregate_faults`]. The whole result is
    /// bit-identical for every thread count.
    ///
    /// # Panics
    ///
    /// Panics if the program has no `main`, the golden run faults or a
    /// worker thread panics.
    pub fn run(&self) -> FaultCampaignResult {
        let image = TableImage::build(&self.protected.analysis);
        let (golden, limits) = self.protected.campaign_artifacts(self.inputs);
        let campaign = FaultCampaign {
            flips: self.flips,
            seed: self.seed,
            checksum: self.checksum,
            limits,
        };
        ipds_sim::run_fault_campaign(
            &self.protected.program,
            &self.protected.analysis,
            &image,
            self.inputs,
            &golden,
            &campaign,
            self.threads,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "fn main() -> int { int user; user = read_int(); \
        if (user == 1) { print_int(1); } \
        print_int(read_int()); \
        if (user == 1) { print_int(2); } else { print_int(3); } \
        return 0; }";

    #[test]
    fn clean_runs_never_alarm() {
        let p = Protected::compile(SRC).unwrap();
        for user in [-1, 0, 1, 2] {
            let r = p.run(&[Input::Int(user), Input::Int(9)]);
            assert!(!r.detected(), "user={user}: {:?}", r.alarms);
            assert!(matches!(r.status, ExecStatus::Exited(_)));
        }
    }

    #[test]
    fn tamper_between_checks_detected() {
        let p = Protected::compile(SRC).unwrap();
        // Flip user from 0 to 1 after the first check has committed.
        let r = p
            .session()
            .inputs(&[Input::Int(0), Input::Int(9)])
            .tamper(8, "user", 1)
            .run()
            .unwrap();
        assert!(r.detected());
        let a = &r.alarms[0];
        assert_eq!(a.expected, BranchStatus::NotTaken);
        assert!(a.actual);
    }

    #[test]
    fn plain_run_matches_the_session_builder() {
        let p = Protected::compile(SRC).unwrap();
        let inputs = [Input::Int(0), Input::Int(9)];
        let plain = p.run(&inputs);
        let built = p.session().inputs(&inputs).run().unwrap();
        assert_eq!(plain.output, built.output);
        assert_eq!(plain.status, built.status);
    }

    #[test]
    fn compile_accepts_programs_and_workloads() {
        // Identical tables whether compiled from text, from the parsed
        // program, or from a workload reference.
        let from_text = Protected::compile(SRC).unwrap();
        let from_program = Protected::compile(ipds_ir::parse(SRC).unwrap()).unwrap();
        assert_eq!(
            TableImage::build(&from_text.analysis).as_bytes(),
            TableImage::build(&from_program.analysis).as_bytes()
        );
        let w = &ipds_workloads::all()[0];
        let from_workload = Protected::compile(w).unwrap();
        let direct = Protected::from_program(w.program(), &AnalysisConfig::default());
        assert_eq!(
            TableImage::build(&from_workload.analysis).as_bytes(),
            TableImage::build(&direct.analysis).as_bytes()
        );
    }

    #[test]
    fn spec_setters_reach_every_spec() {
        let p = Protected::compile(SRC).unwrap();
        let inputs = [Input::Int(0), Input::Int(9)];

        // CampaignSpec and FaultSpec take threads and seed directly; the
        // thread count never changes the result.
        let campaign = |threads, seed| {
            p.campaign_spec()
                .inputs(&inputs)
                .attacks(20)
                .seed(seed)
                .threads(threads)
                .run()
        };
        assert_eq!(campaign(1, 3), campaign(2, 3));
        let faults = |threads, seed| {
            p.fault_spec()
                .inputs(&inputs)
                .flips(4)
                .seed(seed)
                .threads(threads)
                .run()
        };
        assert_eq!(faults(1, 3), faults(2, 3));

        // RunSession picks up the limits; a starved budget must show.
        let r = p
            .session()
            .inputs(&inputs)
            .limits(ExecLimits {
                max_steps: 1,
                max_depth: 4,
            })
            .run()
            .unwrap();
        assert!(matches!(r.status, ExecStatus::OutOfBudget));
    }

    #[test]
    fn error_kind_is_stable() {
        let err = Protected::compile("fn main( {").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Compile);
        let p = Protected::compile(SRC).unwrap();
        let err = p.session().tamper(1, "ghost", 1).run().unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Tamper);
        // Cross-layer errors convert via `From` and classify by layer.
        let err = Error::from(ipds_runtime::RuntimeError::FrameStackUnderflow {
            component: "checker",
        });
        assert_eq!(err.kind(), ErrorKind::Runtime);
        let image = TableImage::from_bytes(vec![0u8; 4]);
        let err = Error::from(image.load().unwrap_err());
        assert_eq!(err.kind(), ErrorKind::Image);
        let err = Error::from(ServiceError::UnknownSession { session: 7 });
        assert_eq!(err.kind(), ErrorKind::Service);
        assert!(err.to_string().contains("service error"));
    }

    #[test]
    fn a_session_without_main_is_a_typed_error() {
        let p = Protected::compile("int g; fn f() -> int { return g; }").unwrap();
        assert_eq!(p.session().run().unwrap_err(), Error::NoMain);
        let err = p.session().tamper(1, "g", 1).run().unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Exec);
        assert!(err.to_string().contains("no `main`"), "{err}");
        // Tamper names still resolve against the globals.
        assert_eq!(p.resolve_var("g"), Ok(VarId::global(0)));
    }

    #[test]
    fn campaign_smoke() {
        let p = Protected::compile(SRC).unwrap();
        let r = p
            .campaign_spec()
            .inputs(&[Input::Int(0), Input::Int(9)])
            .attacks(40)
            .seed(3)
            .model(AttackModel::FormatString)
            .run();
        assert!(r.detected <= r.cf_changed);
        assert!(r.detected > 0);
    }

    #[test]
    fn campaign_threads_knob_is_bit_identical() {
        let p = Protected::compile(SRC).unwrap();
        let inputs = [Input::Int(0), Input::Int(9)];
        let serial = p
            .campaign_spec()
            .inputs(&inputs)
            .attacks(30)
            .seed(3)
            .model(AttackModel::FormatString)
            .run();
        for threads in [2, 4] {
            let par = p
                .campaign_spec()
                .inputs(&inputs)
                .attacks(30)
                .seed(3)
                .model(AttackModel::FormatString)
                .threads(threads)
                .run();
            assert_eq!(serial, par, "{threads} threads");
        }
    }

    #[test]
    fn campaign_artifacts_are_reusable() {
        let p = Protected::compile(SRC).unwrap();
        let inputs = [Input::Int(0), Input::Int(9)];
        let (golden, limits) = p.campaign_artifacts(&inputs);
        let direct = p
            .campaign_spec()
            .inputs(&inputs)
            .attacks(20)
            .seed(3)
            .model(AttackModel::FormatString)
            .run();
        let cached = p
            .campaign_spec()
            .inputs(&inputs)
            .golden(&golden, limits)
            .attacks(20)
            .seed(3)
            .model(AttackModel::FormatString)
            .threads(2)
            .run();
        assert_eq!(direct, cached);
    }

    #[test]
    fn pipeline_build_matches_plain_compile() {
        let plain = Protected::compile(SRC).unwrap();
        let build = Protected::build().verify_tables(true).compile(SRC).unwrap();
        assert_eq!(
            TableImage::build(&plain.analysis).as_bytes(),
            build.image.as_bytes(),
            "pipeline and plain compile must emit identical tables"
        );
        assert!(build.counters.branches > 0);
        assert!(build.timings.iter().any(|t| t.name == "verify-tables"));
        // Same behavior end to end.
        let inputs = [Input::Int(0), Input::Int(9)];
        assert_eq!(
            plain.run(&inputs).output,
            build.protected.run(&inputs).output
        );
    }

    #[test]
    fn refined_and_linted_build_stays_sound() {
        let build = Protected::build()
            .refine_correlations(true)
            .lint_tables(true)
            .verify_tables(true)
            .compile(SRC)
            .unwrap();
        let report = build.lint.as_ref().expect("lint report present");
        assert_eq!(report.error_count(), 0, "{report}");
        assert_eq!(build.refine.demoted, 0, "stock tables must re-prove");
        // Refined tables keep the zero-false-positive property.
        for user in [-1, 0, 1, 2] {
            let r = build.protected.run(&[Input::Int(user), Input::Int(9)]);
            assert!(!r.detected(), "user={user}: {:?}", r.alarms);
        }
        // And still catch the tamper the plain tables catch.
        let r = build
            .protected
            .session()
            .inputs(&[Input::Int(0), Input::Int(9)])
            .tamper(8, "user", 1)
            .run()
            .unwrap();
        assert!(r.detected());
    }

    #[test]
    fn pipeline_front_end_errors_stay_compile_errors() {
        let err = Protected::build().compile("fn main( {").unwrap_err();
        assert!(matches!(err, Error::Compile(_)));
    }

    #[test]
    fn timing_baseline_vs_protected() {
        let p = Protected::compile(
            "fn main() -> int { int i; int s; s = 0; \
             for (i = 0; i < 500; i = i + 1) { if (s < 100000) { s = s + i; } } return s; }",
        )
        .unwrap();
        let hw = HwConfig::table1_default();
        let base = p.timed_baseline(&[], &hw);
        let with = p.timed(&[], &hw);
        assert_eq!(base.instructions, with.instructions);
        assert!(with.cycles >= base.cycles);
        assert_eq!(with.alarms, 0);
    }

    #[test]
    fn size_stats_exposed() {
        let p = Protected::compile(SRC).unwrap();
        let s = p.size_stats();
        assert_eq!(s.functions, 1);
        assert!(s.avg_bat_bits > 0.0);
    }

    #[test]
    fn tamper_unknown_var_is_reported() {
        let p = Protected::compile(SRC).unwrap();
        let err = p.resolve_var("ghost").unwrap_err();
        let TamperError::UnknownVar { name, candidates } = err;
        assert_eq!(name, "ghost");
        assert!(candidates.contains(&"user".to_string()), "{candidates:?}");
        // The builder surfaces the same error wrapped in `Error`, with a
        // readable message.
        let err = p.session().tamper(1, "ghost", 1).run().unwrap_err();
        assert!(matches!(err, Error::Tamper(TamperError::UnknownVar { .. })));
        assert!(err.to_string().contains("ghost"));
        assert!(std::error::Error::source(&err).is_some());
    }
}
