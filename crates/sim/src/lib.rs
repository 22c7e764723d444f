//! # ipds-sim — execution substrate: interpreter, attacks, timing
//!
//! The paper evaluated IPDS in two simulators: Bochs (whole-system, for the
//! attack/detection experiments) and SimpleScalar (cycle-level, for the
//! performance experiments). This crate plays both roles for our IR:
//!
//! * [`memory`] — a flat cell memory with stack frames laid out
//!   contiguously, so out-of-bounds writes clobber neighbouring variables
//!   exactly like a real stack smash;
//! * [`interp`] — a step-able interpreter that decodes the program once
//!   into a flat op array and emits execution events (instructions,
//!   memory accesses, branches, calls) to pluggable [`observer`]s;
//! * [`attack`] — the §6 experiment protocol: golden run, single-location
//!   memory tampering at a chosen instant (format-string = any live cell,
//!   buffer-overflow = stack cells), control-flow diffing and detection
//!   measurement over seeded campaigns, sharded over the persistent
//!   [`ipds_parallel`] worker pool with results bit-identical at every
//!   thread count (attacks are independently seeded; outcomes merge in
//!   seed order);
//! * [`faults`] — a deterministic seeded fault-injection engine striking
//!   the table image, live checker state and guest memory, grading each
//!   fault detected/masked/crashed and measuring detection latency in
//!   committed branches;
//! * [`rng`] — the in-repo splitmix64/xoshiro256** generator behind every
//!   seeded protocol (no external `rand` dependency);
//! * [`pipeline`] — a simplified superscalar timing model with the Table 1
//!   caches, 2-level branch predictor and the IPDS request queue /
//!   spill-fill costs, producing the Fig. 9 normalized-performance numbers
//!   and the mean detection latency.
//!
//! Per-branch telemetry flows through an [`EventSink`] (re-exported from
//! [`ipds-telemetry`](ipds_telemetry)) owned by an [`IpdsObserver`]; with
//! [`NullSink`], whose `WANTS_BRANCHES` is `false`, the record path is
//! compiled out and the uninstrumented behaviour — and performance — is
//! preserved bit-for-bit. Campaign and
//! fault registries are folds over index-ordered outcomes
//! ([`campaign_metrics`], [`fault_metrics`]), not sink output.

pub mod attack;
mod decode;
pub mod faults;
pub mod interp;
pub mod memory;
pub mod observer;
pub mod pipeline;
pub mod rng;

pub use ipds_telemetry as telemetry;

pub use attack::{
    attack_seed, campaign_metrics, run_campaign, AttackModel, AttackOutcome, AttackRunner,
    Campaign, CampaignResult, GoldenRun, WarmStart, CAMPAIGN_COUNTERS, CAMPAIGN_HISTOGRAMS,
};
pub use faults::{
    fault_metrics, fault_plan, fault_seed, fault_site, run_fault_campaign, AnomalyReport,
    FaultCampaign, FaultCampaignResult, FaultMutation, FaultOutcome, FaultPlan, FaultRunner,
    FaultSite, FAULT_COUNTERS, FAULT_HISTOGRAMS,
};
pub use interp::{ExecLimits, ExecStatus, Input, Interp};
pub use ipds_parallel::default_threads;
pub use memory::Memory;
pub use observer::{expectation_of, ExecObserver, IpdsObserver, NullObserver};
pub use pipeline::{PerfReport, TimingModel};
pub use rng::{SplitMix64, StdRng};
pub use telemetry::{EventSink, JsonlSink, MetricsRegistry, NullSink};
