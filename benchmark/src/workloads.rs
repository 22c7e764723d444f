//! The four closed-loop workloads. Each has a set-up, a round through the
//! library's public facade (the untraced, measured path) and the same round
//! taken apart into per-layer calls for the traced pass. Both paths must
//! produce the same outputs; the round digests prove it.

use ipds::analysis::pipeline::{
    AliasPass, AnalyzeFunctionsPass, ImagePass, IntervalsPass, LintTablesPass, LowerPass,
    ParsePass, PruneCfgPass, RefineCorrelationsPass, SummariesPass, VerifyIrPass, VerifyTablesPass,
};
use ipds::analysis::{BuildOptions, CompilationSession, Pass, PassManager, TableImage};
use ipds::runtime::IpdsChecker;
use ipds::service::{correlate, FleetOutcome, FleetPlan, GuestEvent, ImageCache, SessionState};
use ipds::sim::attack::{aggregate, attack_rng};
use ipds::sim::faults::aggregate_faults;
use ipds::sim::{
    AttackModel, AttackRunner, ExecLimits, ExecObserver, FaultCampaign, FaultRunner, Interp,
    NullObserver,
};
use ipds::workloads::generator::{generate_program, GenConfig};
use ipds::{CampaignResult, FaultCampaignResult, GoldenRun, Input, Protected, WarmStart};

use crate::trace::Tracer;

/// Workload names, in the order a run without `--workload` takes them.
pub const NAMES: [&str; 4] = ["campaign", "faults", "build", "fleet"];

/// What one round produced: a digest of its outputs and how many of its
/// checked operations failed.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    pub digest: u64,
    pub failed: u64,
}

pub trait Workload {
    /// Name of the root span of a traced round.
    fn round_span(&self) -> &'static str;
    /// The unit of work and how many units one round does.
    fn work(&self) -> (&'static str, u64);
    /// Checked operations per round.
    fn ops(&self) -> u64;
    /// One round through the public facade.
    fn round(&mut self, round: u64) -> Outcome;
    /// The same round, one span per call into a layer.
    fn traced_round(&mut self, round: u64, t: &mut Tracer) -> Outcome;
    /// Times layers the rounds do not reach in isolation; returns
    /// `(checked operations, failed)`.
    fn probe(&self, _t: &mut Tracer) -> (u64, u64) {
        (0, 0)
    }
}

/// Builds workload `name` from `seed`, recording set-up spans into `t`.
pub fn setup(name: &str, seed: u64, t: &mut Tracer) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "campaign" => Box::new(Campaign::setup(seed, t)?),
        "faults" => Box::new(Faults::setup(seed)?),
        "build" => Box::new(Build::setup(seed)?),
        "fleet" => Box::new(Fleet::setup(seed, t)?),
        _ => {
            return Err(format!(
                "unknown workload `{name}`; expected one of {NAMES:?}"
            ))
        }
    })
}

/// 64-bit FNV-1a.
#[derive(Debug)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Fnv {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Fnv {
        self.bytes(&v.to_le_bytes())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The per-index seed split every seeded protocol of the library uses.
fn derive(seed: u64, k: u64) -> u64 {
    seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(k.wrapping_add(1))
}

/// One of the ten Fig. 7 programs, compiled and golden-run once.
struct Target {
    name: &'static str,
    model: AttackModel,
    protected: Protected,
    inputs: Vec<Input>,
    golden: GoldenRun,
    limits: ExecLimits,
}

/// Seed of the benign traffic every program runs. It is fixed, not drawn
/// from `--seed`: the length of a program's clean run sets the cost of
/// every attack and fault on it, and a traffic script that ends early
/// would make a seed look fast. The seed drives the attacks and faults.
const TRAFFIC_SEED: u64 = 2006;

/// Compiles the ten Fig. 7 programs as the experiment drivers do (tables
/// verified and linted) and captures their golden runs on the benign
/// traffic. A clean run that alarms breaks the paper's zero-false-positive
/// contract and refuses the set-up.
fn targets(t: &mut Tracer) -> Result<Vec<Target>, String> {
    let mut targets = Vec::new();
    for w in ipds::workloads::all() {
        let build = Protected::build()
            .verify_tables(true)
            .lint_tables(true)
            .from_program(w.program())
            .map_err(|e| format!("{} failed to build: {e}", w.name))?;
        if build.lint.as_ref().is_some_and(|l| l.error_count() > 0) {
            return Err(format!("{} has lint errors", w.name));
        }
        let protected = build.protected;
        let inputs = w.inputs(TRAFFIC_SEED);
        if protected.run(&inputs).detected() {
            return Err(format!("{}: a clean run raised an alarm", w.name));
        }
        let (golden, limits) = t.time("sim.golden_capture", || {
            protected.campaign_artifacts(&inputs)
        });
        targets.push(Target {
            name: w.name,
            model: w.vuln,
            protected,
            inputs,
            golden,
            limits,
        });
    }
    Ok(targets)
}

fn fold_campaign(h: &mut Fnv, r: &CampaignResult) {
    h.u64(u64::from(r.attacks))
        .u64(u64::from(r.cf_changed))
        .u64(u64::from(r.detected))
        .u64(r.mean_lag_branches.to_bits());
}

/// The Fig. 7 protocol: 100 attacks on each of the ten programs per round,
/// warm-started from snapshots captured at set-up.
struct Campaign {
    seed: u64,
    targets: Vec<Target>,
    warm: Vec<WarmStart>,
}

impl Campaign {
    const ATTACKS: u32 = 100;

    fn setup(seed: u64, t: &mut Tracer) -> Result<Campaign, String> {
        let targets = targets(t)?;
        let warm = targets
            .iter()
            .map(|g| {
                let warm = t.time("sim.warm_capture", || {
                    g.protected.warm_start(&g.inputs, &g.golden, g.limits)
                });
                t.count("sim.warm_snapshots", warm.len() as u64);
                warm
            })
            .collect();
        Ok(Campaign {
            seed,
            targets,
            warm,
        })
    }

    fn campaign_seed(&self, round: u64, target: &Target) -> u64 {
        self.seed ^ round ^ target.name.len() as u64
    }
}

impl Workload for Campaign {
    fn round_span(&self) -> &'static str {
        "campaign.round"
    }

    fn work(&self) -> (&'static str, u64) {
        (
            "attacks",
            u64::from(Self::ATTACKS) * self.targets.len() as u64,
        )
    }

    fn ops(&self) -> u64 {
        self.targets.len() as u64
    }

    fn round(&mut self, round: u64) -> Outcome {
        let mut h = Fnv::new();
        let mut failed = 0;
        for (g, warm) in self.targets.iter().zip(&self.warm) {
            let r = g
                .protected
                .campaign_spec()
                .inputs(&g.inputs)
                .golden(&g.golden, g.limits)
                .warm_start(warm)
                .attacks(Self::ATTACKS)
                .seed(self.campaign_seed(round, g))
                .model(g.model)
                .threads(1)
                .run();
            failed += u64::from(r.detected > r.cf_changed);
            fold_campaign(&mut h, &r);
        }
        Outcome {
            digest: h.finish(),
            failed,
        }
    }

    fn traced_round(&mut self, round: u64, t: &mut Tracer) -> Outcome {
        let mut h = Fnv::new();
        let mut failed = 0;
        for (g, warm) in self.targets.iter().zip(&self.warm) {
            let campaign = ipds::sim::Campaign {
                attacks: Self::ATTACKS,
                seed: self.campaign_seed(round, g),
                model: g.model,
                limits: g.limits,
            };
            let p = &g.protected;
            let mut runner = AttackRunner::new(
                &p.program,
                &p.analysis,
                &g.inputs,
                &g.golden.trace,
                g.limits,
            )
            .with_warm_start(warm);
            let outcomes: Vec<_> = (0..Self::ATTACKS)
                .map(|i| {
                    let (mut rng, trigger) = attack_rng(&campaign, g.golden.steps, i);
                    t.time("sim.attack", || runner.run(trigger, g.model, &mut rng))
                })
                .collect();
            let r = aggregate(Self::ATTACKS, &outcomes);
            failed += u64::from(r.detected > r.cf_changed);
            fold_campaign(&mut h, &r);
        }
        Outcome {
            digest: h.finish(),
            failed,
        }
    }

    fn probe(&self, t: &mut Tracer) -> (u64, u64) {
        let mut failed = 0;
        for g in &self.targets {
            failed += u64::from(!probe_target(g, t));
        }
        (self.targets.len() as u64, failed)
    }
}

/// Records a run's committed control-flow events, as a monitored guest
/// would report them to the service.
#[derive(Default)]
struct Recorder(Vec<GuestEvent>);

impl ExecObserver for Recorder {
    fn on_branch(&mut self, pc: u64, taken: bool) {
        self.0.push(GuestEvent::Branch { pc, taken });
    }
    fn on_call(&mut self, func: ipds::ir::FuncId) {
        self.0.push(GuestEvent::Call(func));
    }
    fn on_return(&mut self) {
        self.0.push(GuestEvent::Return);
    }
}

/// Events per ingested batch, as the fleet service batches them.
const BATCH: usize = 256;

/// Times the interpreter, both checker entry points, session ingestion
/// and image loading on one program's golden inputs. Every path replays a
/// clean run, so any alarm or rejected image is a failure.
fn probe_target(g: &Target, t: &mut Tracer) -> bool {
    let p = &g.protected;
    let steps = t.time("sim.interp", || {
        let mut interp = Interp::new(&p.program, g.inputs.iter().cloned(), g.limits);
        interp.run(&mut NullObserver);
        interp.steps()
    });
    t.count("sim.interp.steps", steps);

    let mut recorder = Recorder::default();
    let main = p.program.main().expect("workloads define main").id;
    recorder.0.push(GuestEvent::Call(main));
    Interp::new(&p.program, g.inputs.iter().cloned(), g.limits).run(&mut recorder);
    let events = recorder.0;

    let per_event = t.time("runtime.on_branch", || {
        let mut checker = IpdsChecker::new(&p.analysis);
        for ev in &events {
            match *ev {
                GuestEvent::Branch { pc, taken } => {
                    checker.on_branch(pc, taken);
                }
                GuestEvent::Call(func) => checker.on_call(func),
                GuestEvent::Return => {
                    let _ = checker.on_return();
                }
                GuestEvent::FaultBsv { .. } => unreachable!("clean streams carry no faults"),
            }
        }
        checker.detected()
    });
    let batched = t.time("runtime.on_branch_run", || {
        let mut checker = IpdsChecker::new(&p.analysis);
        let mut run = Vec::new();
        for ev in &events {
            match *ev {
                GuestEvent::Branch { pc, taken } => run.push((pc, taken)),
                _ => {
                    if !run.is_empty() {
                        checker.on_branch_run(&run);
                        run.clear();
                    }
                    match *ev {
                        GuestEvent::Call(func) => checker.on_call(func),
                        _ => {
                            let _ = checker.on_return();
                        }
                    }
                }
            }
        }
        if !run.is_empty() {
            checker.on_branch_run(&run);
        }
        checker.detected()
    });
    let ingested = t.time("service.ingest", || {
        let mut state = SessionState::fresh(&p.analysis, 0, 0);
        for batch in events.chunks(BATCH) {
            state.ingest(g.name, batch);
        }
        state.incidents().is_empty()
    });
    t.count("runtime.events", events.len() as u64);

    let image = TableImage::build(&p.analysis);
    let loaded = t.time("analysis.image_load", || {
        TableImage::from_bytes(image.as_bytes().to_vec()).load()
    });
    let verified = t.time("service.image_verify", || {
        ImageCache::new().load(g.name, &image)
    });
    !per_event && !batched && ingested && loaded.is_ok() && verified.is_ok()
}

fn fold_faults(h: &mut Fnv, r: &FaultCampaignResult) {
    for v in [
        r.injected,
        r.image,
        r.checker,
        r.memory,
        r.detected,
        r.masked,
        r.crashed,
        r.image_undetected,
    ] {
        h.u64(u64::from(v));
    }
    for &l in &r.latencies {
        h.u64(l);
    }
}

/// Fault injection: 12 faults per site (image, checker state, memory) on
/// each of the ten programs per round, cold and full length.
struct Faults {
    seed: u64,
    targets: Vec<Target>,
}

impl Faults {
    const FLIPS: u32 = 12;

    fn setup(seed: u64) -> Result<Faults, String> {
        Ok(Faults {
            seed,
            targets: targets(&mut Tracer::disabled())?,
        })
    }
}

impl Workload for Faults {
    fn round_span(&self) -> &'static str {
        "faults.round"
    }

    fn work(&self) -> (&'static str, u64) {
        (
            "faults",
            u64::from(Self::FLIPS) * 3 * self.targets.len() as u64,
        )
    }

    fn ops(&self) -> u64 {
        self.targets.len() as u64
    }

    fn round(&mut self, round: u64) -> Outcome {
        let mut h = Fnv::new();
        let mut failed = 0;
        for g in &self.targets {
            let r = g
                .protected
                .fault_spec()
                .inputs(&g.inputs)
                .flips(Self::FLIPS)
                .seed(self.seed.wrapping_add(round))
                .threads(1)
                .run();
            failed += u64::from(r.image_undetected > 0);
            fold_faults(&mut h, &r);
        }
        Outcome {
            digest: h.finish(),
            failed,
        }
    }

    fn traced_round(&mut self, round: u64, t: &mut Tracer) -> Outcome {
        let mut h = Fnv::new();
        let mut failed = 0;
        for g in &self.targets {
            let p = &g.protected;
            // The same calls, in the same order, as `FaultSpec::run`.
            let image = t.time("faults.image_build", || TableImage::build(&p.analysis));
            let (_, limits) = t.time("faults.golden_capture", || p.campaign_artifacts(&g.inputs));
            let campaign = FaultCampaign {
                flips: Self::FLIPS,
                seed: self.seed.wrapping_add(round),
                checksum: true,
                limits,
            };
            let golden = t.time("faults.golden_capture", || {
                GoldenRun::capture(&p.program, &g.inputs, limits)
            });
            let mut runner = FaultRunner::new(&p.program, &p.analysis, &image, &g.inputs, limits);
            let outcomes: Vec<_> = (0..campaign.total())
                .map(|i| {
                    let plan = ipds::sim::fault_plan(&campaign, golden.steps, i);
                    let span = match plan.site() {
                        ipds::FaultSite::TableImage => "sim.fault_image",
                        ipds::FaultSite::CheckerState => "sim.fault_checker",
                        ipds::FaultSite::Memory => "sim.fault_memory",
                    };
                    t.time(span, || runner.run(&campaign, &plan))
                })
                .collect();
            let r = aggregate_faults(&campaign, &outcomes);
            failed += u64::from(r.image_undetected > 0);
            fold_faults(&mut h, &r);
        }
        Outcome {
            digest: h.finish(),
            failed,
        }
    }
}

/// Every pass of a full-option build, in `PassManager::standard` order,
/// with the span each is timed under.
static PASSES: [(&(dyn Pass + Sync), &str); 12] = [
    (&ParsePass, "ir.parse"),
    (&LowerPass, "ir.lower"),
    (&VerifyIrPass, "ir.verify"),
    (&AliasPass, "dataflow.alias"),
    (&SummariesPass, "dataflow.summaries"),
    (&IntervalsPass, "absint.intervals"),
    (&PruneCfgPass, "analysis.prune_cfg"),
    (&AnalyzeFunctionsPass, "analysis.analyze_functions"),
    (&RefineCorrelationsPass, "analysis.refine"),
    (&ImagePass, "analysis.image"),
    (&VerifyTablesPass, "analysis.verify_tables"),
    (&LintTablesPass, "analysis.lint"),
];

/// Every opt-in pass on: table verification, interval refinement,
/// feasibility pruning and the table linter.
fn full_options() -> BuildOptions {
    BuildOptions {
        verify: true,
        refine: true,
        prune_feasibility: true,
        lint: true,
        ..BuildOptions::default()
    }
}

/// What a build round checks per program: it built, linted clean, and
/// emitted the image bytes of the first round.
fn build_failed(image: Option<&[u8]>, lint_errors: usize, reference: Option<&[u8]>) -> bool {
    match image {
        None => true,
        Some(bytes) => lint_errors > 0 || reference.is_some_and(|r| r != bytes),
    }
}

/// The whole compiler: full-option builds of the twelve extended programs
/// and eight generated ones per round.
struct Build {
    sources: Vec<String>,
    /// Image bytes of the first round, one per source, and their digest.
    reference: Option<(Vec<Vec<u8>>, u64)>,
}

impl Build {
    /// Build times of generated programs of one size still spread by ±30%
    /// around the mean, so a round builds several small ones rather than
    /// a few large ones: their sum then moves little from seed to seed.
    const GENERATED: usize = 8;
    const GEN: GenConfig = GenConfig {
        num_vars: 8,
        max_stmts: 6,
        max_depth: 4,
        loop_bound: 4,
    };

    /// Seeded candidates the generated programs are drawn from.
    const CANDIDATES: u64 = 64;
    /// Size of a generated program, in tokens. Build time grows with about
    /// the square of program size and generated sizes spread over 4×, so
    /// the size is held here and the seed picks the content.
    const TARGET_TOKENS: usize = 1000;

    /// Takes the generated programs whose size is nearest
    /// [`Self::TARGET_TOKENS`] among the seeded candidates, skipping any
    /// that does not build lint-clean so that no round can fail on a
    /// generator or pipeline defect.
    fn setup(seed: u64) -> Result<Build, String> {
        let ours: Vec<&str> = PASSES.iter().map(|(p, _)| p.name()).collect();
        let standard = PassManager::standard(&full_options(), true).pass_names();
        if ours != standard {
            return Err(format!(
                "the benchmark's pass list {ours:?} differs from the pipeline's {standard:?}"
            ));
        }
        let mut candidates: Vec<(usize, String)> = (0..Self::CANDIDATES)
            .map(|k| {
                let source = generate_program(derive(seed, k), Self::GEN);
                let tokens = ipds::ir::lexer::lex(&source).map_or(usize::MAX, |t| t.len());
                (tokens.abs_diff(Self::TARGET_TOKENS), source)
            })
            .collect();
        candidates.sort_by_key(|(distance, _)| *distance);
        let generated: Vec<String> = candidates
            .into_iter()
            .map(|(_, source)| source)
            .filter(|source| {
                Self::facade(source).is_ok_and(|b| b.lint.is_some_and(|l| l.error_count() == 0))
            })
            .take(Self::GENERATED)
            .collect();
        if generated.len() < Self::GENERATED {
            return Err("too few generated programs build lint-clean".into());
        }
        let mut sources: Vec<String> = ipds::workloads::extended()
            .iter()
            .map(|w| w.source.to_string())
            .collect();
        sources.extend(generated);
        Ok(Build {
            sources,
            reference: None,
        })
    }

    fn facade(source: &str) -> Result<ipds::Build, ipds::Error> {
        Protected::build()
            .verify_tables(true)
            .refine_correlations(true)
            .prune_feasibility(true)
            .lint_tables(true)
            .compile(source)
    }

    /// Compares a round's images with the first round's; the first round
    /// becomes the reference.
    fn settle(&mut self, images: Vec<Vec<u8>>, mut failed: u64) -> Outcome {
        let digest = |images: &[Vec<u8>]| {
            let mut h = Fnv::new();
            for image in images {
                h.u64(image.len() as u64).bytes(image);
            }
            h.finish()
        };
        let digest = match &self.reference {
            Some((reference, d)) if *reference == images => *d,
            Some(_) => {
                failed = failed.max(1);
                digest(&images)
            }
            None => {
                let d = digest(&images);
                self.reference = Some((images, d));
                d
            }
        };
        Outcome { digest, failed }
    }

    fn reference(&self, k: usize) -> Option<&[u8]> {
        self.reference.as_ref().map(|(r, _)| r[k].as_slice())
    }
}

impl Workload for Build {
    fn round_span(&self) -> &'static str {
        "build.round"
    }

    fn work(&self) -> (&'static str, u64) {
        ("builds", self.sources.len() as u64)
    }

    fn ops(&self) -> u64 {
        self.sources.len() as u64
    }

    fn round(&mut self, _round: u64) -> Outcome {
        let mut failed = 0;
        let mut images = Vec::with_capacity(self.sources.len());
        for (k, source) in self.sources.iter().enumerate() {
            let build = Self::facade(source).ok();
            let lint_errors = build
                .as_ref()
                .and_then(|b| b.lint.as_ref())
                .map_or(0, |l| l.error_count());
            let image = build.map(|b| b.image.as_bytes().to_vec());
            failed += u64::from(build_failed(
                image.as_deref(),
                lint_errors,
                self.reference(k),
            ));
            images.push(image.unwrap_or_default());
        }
        self.settle(images, failed)
    }

    fn traced_round(&mut self, _round: u64, t: &mut Tracer) -> Outcome {
        let mut failed = 0;
        let mut images = Vec::with_capacity(self.sources.len());
        for (k, source) in self.sources.iter().enumerate() {
            let mut session = CompilationSession::from_source(source.as_str(), full_options());
            let mut ok = true;
            for (pass, span) in &PASSES {
                if t.time(span, || pass.run(&mut session)).is_err() {
                    ok = false;
                    break;
                }
            }
            t.count(
                "pipeline.tokens",
                session.metrics.counter("pipeline.tokens"),
            );
            t.count("analysis.hash_retries", session.counters.hash_retries);
            let lint_errors = session.lint.as_ref().map_or(0, |l| l.error_count());
            let image = session.image.filter(|_| ok).map(|i| i.as_bytes().to_vec());
            failed += u64::from(build_failed(
                image.as_deref(),
                lint_errors,
                self.reference(k),
            ));
            images.push(image.unwrap_or_default());
        }
        self.settle(images, failed)
    }
}

/// The fleet service: one closed-loop execution of a 256-session plan per
/// round, through one ingestion worker.
struct Fleet {
    plan: FleetPlan,
    /// The first round's outcome and its digest.
    reference: Option<(FleetOutcome, u64)>,
}

impl Fleet {
    const SESSIONS: usize = 256;
    /// The service's default same-PC cluster threshold.
    const MIN_CLUSTER: usize = 3;
    /// Seeded candidate plans the fleet is drawn from.
    const CANDIDATES: u64 = 6;
    /// Events of a fleet round. Which workload a plan's seed makes the
    /// image victim (its sessions push nothing) moves a plan's event count
    /// by ±10%, so the size is held here and the seed picks the content.
    const TARGET_EVENTS: u64 = 280_000;

    /// Takes the candidate plan whose size is nearest
    /// [`Self::TARGET_EVENTS`]. Candidates are planned and dropped one at a
    /// time and the chosen one planned again, so peak memory does not
    /// depend on how large the others were. Planning panics for about one
    /// spec seed in sixty (no detectable memory tamper is found for a short
    /// telnetd session); such candidates are skipped.
    fn setup(seed: u64, t: &mut Tracer) -> Result<Fleet, String> {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut plan = |k: u64| {
            t.time("service.plan", || {
                std::panic::catch_unwind(|| {
                    ipds::ServiceSpec::new()
                        .seed(derive(seed, k))
                        .sessions(Self::SESSIONS)
                        .threads(1)
                        .plan()
                })
                .ok()
            })
        };
        let best = (0..Self::CANDIDATES)
            .filter_map(|k| Some((k, plan(k)?.events())))
            .min_by_key(|&(_, events)| events.abs_diff(Self::TARGET_EVENTS));
        let plan = best.and_then(|(k, _)| plan(k));
        std::panic::set_hook(hook);
        Ok(Fleet {
            plan: plan.ok_or("every candidate fleet plan failed")?,
            reference: None,
        })
    }

    fn settle(&mut self, outcome: FleetOutcome, ok: bool) -> Outcome {
        let digest = |o: &FleetOutcome| Fnv::new().bytes(format!("{o:?}").as_bytes()).finish();
        let (digest, same) = match &self.reference {
            Some((reference, d)) if *reference == outcome => (*d, true),
            Some(_) => (digest(&outcome), false),
            None => {
                let d = digest(&outcome);
                self.reference = Some((outcome, d));
                (d, true)
            }
        };
        Outcome {
            digest,
            failed: u64::from(!(ok && same)),
        }
    }
}

impl Workload for Fleet {
    fn round_span(&self) -> &'static str {
        "fleet.round"
    }

    fn work(&self) -> (&'static str, u64) {
        ("events", self.plan.events())
    }

    fn ops(&self) -> u64 {
        1
    }

    fn round(&mut self, _round: u64) -> Outcome {
        let report = self.plan.execute(1);
        let ok = report.ok();
        self.settle(report.outcome, ok)
    }

    fn traced_round(&mut self, _round: u64, t: &mut Tracer) -> Outcome {
        let report = t.time("service.fleet_execute", || self.plan.execute(1));
        let causes = t.time("service.correlate", || {
            correlate(&report.outcome.incidents, Self::MIN_CLUSTER)
        });
        for key in ["service.backpressure_stalls", "service.pool_reuses"] {
            t.count(key, report.metrics.counter(key));
        }
        let ok = report.ok() && causes == report.outcome.root_causes;
        self.settle(report.outcome, ok)
    }
}
