//! # ipds-service — `ipdsd`, the long-lived multi-session protection service
//!
//! Everything below this crate is batch: one program, one campaign, exit.
//! This crate is the deployment mode the paper gestures at when it frames
//! BSV/BAT checking as an always-on hardware monitor — IPDS as a
//! *persistent* fleet service that protects many concurrent guest sessions
//! against shared, checksummed table images:
//!
//! * [`ImageCache`] — immutable [`WorkloadArtifact`]s behind `Arc`, keyed
//!   by workload + content checksum. An image is verified (checksum +
//!   structural load) **once**; every later registration of identical
//!   bytes shares the verified artifact. Corrupted images never enter the
//!   cache.
//! * [`SessionPool`] — pooled per-session checker state (the checker's
//!   flat tables and BSV arenas are recycled on session close instead of
//!   rebuilt).
//! * [`Service`] — buffered batched ingestion: guest sessions submit
//!   [`GuestEvent`] batches that the control plane buffers per session
//!   (a fixed 64Ki-event bound caps guest memory use). Each flush runs one
//!   [`ipds_parallel::map_indexed`] task per session on scoped threads,
//!   replaying each buffered batch through the flat checker hot path
//!   ([`IpdsChecker::replay`](ipds_runtime::IpdsChecker::replay)).
//!   Per-session results merge in session-id order, so fleet results are
//!   bit-identical for every ingestion-worker count. Any event stream is
//!   accepted: the checker skips and records malformed events, and a
//!   session's first one becomes its [`IncidentKind::ProtocolViolation`].
//! * [`Incident`] / [`RootCause`] — per-session anomalies open typed
//!   incidents; [`correlate`] folds concurrent incidents into fleet-level
//!   root causes (one tampered image vs. one hot memory region vs.
//!   isolated noise).
//! * [`ServiceSpec`] — a deterministic synthetic fleet driver: seeded
//!   per-session attack/fault schedules (from the in-repo xoshiro stream)
//!   with shadow-validated injections, ground-truth verification and
//!   throughput accounting. This is what `ipdsc serve` and the `exp_all`
//!   fleet phase run.
//!
//! The crate is std-only — `ipds-parallel`'s scoped threads, no async
//! runtime — and every observable result is deterministic given the spec. See
//! `docs/SERVICE.md` for the architecture, the session lifecycle and the
//! canonical counter tables below.

#![deny(missing_docs)]

mod cache;
mod engine;
mod error;
mod fleet;
mod incident;
mod pool;

pub use cache::{CacheStats, ImageCache, WorkloadArtifact};
pub use engine::{Service, ServiceReport, SessionSummary};
pub use error::ServiceError;
pub use fleet::{FleetOutcome, FleetPlan, FleetReport, ServiceSpec};
pub use incident::{correlate, Incident, IncidentKind, RootCause};
pub use ipds_runtime::GuestEvent;
pub use pool::{SessionPool, SessionPoolStats, SessionState};

/// Canonical `service.*` counter keys, in the order documented in
/// `docs/SERVICE.md` (asserted by `tests/docs_metrics.rs`).
///
/// All of them are invariant across ingestion-worker counts: the service
/// has one session pool, driven by the control plane.
pub const SERVICE_COUNTERS: &[&str] = &[
    "service.images_verified",
    "service.image_hits",
    "service.image_rejects",
    "service.sessions_opened",
    "service.sessions_closed",
    "service.sessions_rejected",
    "service.peak_sessions",
    "service.batches_ingested",
    "service.events_ingested",
    "service.incidents_opened",
    "service.pool_checkouts",
    "service.pool_reuses",
    "service.pool_high_water",
];

/// Canonical `service.*` histogram keys (events per ingested batch).
pub const SERVICE_HISTOGRAMS: &[&str] = &["service.batch_events"];

/// Canonical `fleet.*` counter keys emitted by the correlation stage.
pub const FLEET_COUNTERS: &[&str] = &[
    "fleet.root_causes",
    "fleet.tampered_images",
    "fleet.hot_regions",
    "fleet.isolated_noise",
];
