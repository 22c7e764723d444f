//! Incident lifecycle and fleet-level root-cause correlation.

use std::collections::BTreeMap;
use std::fmt;

use ipds_analysis::BranchStatus;
use ipds_runtime::RuntimeError;

/// What kind of anomaly a session surfaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncidentKind {
    /// The session's table image failed verification at open — the session
    /// never ran.
    ImageTamper,
    /// The checker flagged an infeasible path: a committed branch
    /// contradicted the BSV expectation at `pc`.
    InfeasiblePath {
        /// PC of the first offending branch.
        pc: u64,
        /// The expectation the BSV held.
        expected: BranchStatus,
        /// The committed direction.
        actual: bool,
    },
    /// The event stream itself was malformed: e.g. a `Return` with no
    /// frame on the checker's stack, or a branch PC the running function
    /// does not contain. Opened at the session's first such event.
    ProtocolViolation {
        /// Why the checker rejected the event.
        error: RuntimeError,
    },
}

/// One per-session anomaly, opened by the session's checker (or, for image
/// rejects, by the control plane) and folded over the session's lifetime:
/// later alarms of the same session increment [`Incident::alarm_count`]
/// instead of opening new incidents, so one compromised session is one
/// incident no matter how long it keeps diverging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Incident {
    /// The guest session.
    pub session: u64,
    /// The workload the session ran.
    pub workload: String,
    /// The anomaly class (with its identifying detail).
    pub kind: IncidentKind,
    /// The checker's committed-branch sequence number when the incident
    /// opened (0 for control-plane incidents).
    pub seq: u64,
    /// Checker alarms folded into this incident.
    pub alarm_count: u64,
}

/// A fleet-level explanation the correlation stage assigns to a group of
/// concurrent incidents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RootCause {
    /// Every registration of one workload's image failed verification:
    /// the image itself is bad, not the sessions.
    TamperedImage {
        /// The workload whose image was rejected.
        workload: String,
        /// Sessions refused against it.
        sessions: u64,
    },
    /// Several sessions of one workload alarmed at the *same* branch PC —
    /// the signature of a shared corrupted resource (one hot memory
    /// region under the data those branches key on), not of independent
    /// per-session attacks.
    HotMemoryRegion {
        /// The workload whose sessions clustered.
        workload: String,
        /// The shared first-alarm PC.
        pc: u64,
        /// Sessions in the cluster.
        sessions: u64,
    },
    /// A single session's anomaly with no fleet-wide pattern behind it.
    IsolatedNoise {
        /// The workload the session ran.
        workload: String,
        /// The lone session.
        session: u64,
    },
}

impl fmt::Display for RootCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RootCause::TamperedImage { workload, sessions } => {
                write!(
                    f,
                    "tampered image: {workload} ({sessions} sessions refused)"
                )
            }
            RootCause::HotMemoryRegion {
                workload,
                pc,
                sessions,
            } => write!(
                f,
                "hot memory region: {workload} pc={pc} ({sessions} sessions)"
            ),
            RootCause::IsolatedNoise { workload, session } => {
                write!(f, "isolated noise: {workload} session {session}")
            }
        }
    }
}

/// The same-PC cluster size at which the service's correlation stage calls
/// a group of alarming sessions a [`RootCause::HotMemoryRegion`].
pub(crate) const MIN_CLUSTER: usize = 3;

/// Folds concurrent incidents into fleet-level root causes.
///
/// Rules, in order:
///
/// 1. [`IncidentKind::ImageTamper`] incidents group by workload — any such
///    group is a [`RootCause::TamperedImage`] (image rejection is
///    deterministic, one refused registration already convicts the image).
/// 2. [`IncidentKind::InfeasiblePath`] incidents group by
///    `(workload, pc)`; groups of at least `min_cluster` sessions become
///    a [`RootCause::HotMemoryRegion`], smaller groups dissolve into
///    per-session [`RootCause::IsolatedNoise`].
/// 3. [`IncidentKind::ProtocolViolation`] incidents are always isolated
///    noise (a malformed stream convicts its own session only).
///
/// Output order is deterministic: tampered images by workload, then hot
/// regions by `(workload, pc)`, then isolated noise by session id.
pub fn correlate(incidents: &[Incident], min_cluster: usize) -> Vec<RootCause> {
    let mut images: BTreeMap<&str, u64> = BTreeMap::new();
    let mut paths: BTreeMap<(&str, u64), Vec<&Incident>> = BTreeMap::new();
    let mut noise: Vec<&Incident> = Vec::new();
    for inc in incidents {
        match inc.kind {
            IncidentKind::ImageTamper => *images.entry(&inc.workload).or_default() += 1,
            IncidentKind::InfeasiblePath { pc, .. } => {
                paths.entry((&inc.workload, pc)).or_default().push(inc);
            }
            IncidentKind::ProtocolViolation { .. } => noise.push(inc),
        }
    }
    let mut causes = Vec::new();
    for (workload, sessions) in images {
        causes.push(RootCause::TamperedImage {
            workload: workload.to_string(),
            sessions,
        });
    }
    for ((workload, pc), group) in paths {
        if group.len() >= min_cluster.max(1) {
            causes.push(RootCause::HotMemoryRegion {
                workload: workload.to_string(),
                pc,
                sessions: group.len() as u64,
            });
        } else {
            noise.extend(group);
        }
    }
    noise.sort_by_key(|inc| inc.session);
    causes.extend(noise.into_iter().map(|inc| RootCause::IsolatedNoise {
        workload: inc.workload.clone(),
        session: inc.session,
    }));
    causes
}
