//! # ipds-runtime — the modeled IPDS hardware (§5.4)
//!
//! The paper adds a small hardware unit next to the core: every committed
//! conditional branch is sent to the IPDS, which
//!
//! 1. looks the branch up in the current function's **BCV**; if marked, it
//!    verifies the actual direction against the expected direction in the
//!    **BSV** — a mismatch is an infeasible path (an alarm), and
//! 2. queues an update that applies the **BAT** actions for (branch,
//!    direction) to the BSV — regardless of the BCV bit.
//!
//! Tables stack on call/return; only the top of the stack is on chip
//! (BSV 2 Kbit / BCV 1 Kbit / BAT 32 Kbit buffers, Table 1), lower frames
//! spill to protected memory like Itanium's register stack engine.
//!
//! This crate provides the *functional* checker ([`checker::IpdsChecker`]) —
//! used directly by the attack-detection experiments and fed whole
//! committed streams ([`event::GuestEvent`]) through
//! [`IpdsChecker::replay`] by the fleet service — plus the cost
//! bookkeeping the timing model in `ipds-sim` consumes: per-branch request
//! costs ([`checker::BranchOutcome`]), on-chip occupancy and spill/fill
//! traffic ([`onchip::OnChipModel`]), and context-switch costs
//! ([`context`]).

pub mod checker;
pub mod config;
pub mod context;
pub mod error;
pub mod event;
pub mod onchip;

pub use checker::{
    Alarm, BranchOutcome, CheckerSnapshot, IpdsChecker, IpdsStats, Violation, BSV_POOL_CAP,
    CHECKER_COUNTERS, MAX_FRAME_DEPTH,
};
pub use config::HwConfig;
pub use error::RuntimeError;
pub use event::GuestEvent;
pub use onchip::{OnChipModel, SpillStats};
