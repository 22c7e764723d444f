//! Cycle-level timing model (the SimpleScalar stand-in).
//!
//! The paper's performance numbers (Fig. 9, the 0.79% mean slowdown, and
//! the 11.7-cycle mean detection latency) come from a cycle-accurate
//! SimpleScalar model of Table 1's 8-wide out-of-order core with the IPDS
//! unit attached. We model the same machine at reduced fidelity but with the
//! mechanisms that matter for those numbers:
//!
//! * an 8-wide commit front end (base throughput `1/commit_width` cycles
//!   per instruction);
//! * L1/L2/memory hierarchy with Table 1 latencies — load misses stall
//!   partially (an out-of-order core hides much of the latency; the model
//!   uses a fixed overlap factor calibrated to SimpleScalar-like CPIs);
//! * a 2-level branch predictor whose mispredictions charge a refill
//!   penalty;
//! * the IPDS request queue: every committed branch enqueues its table
//!   accesses; the engine retires [`ipds_runtime::HwConfig::ipds_ops_per_cycle`]
//!   accesses per cycle; commit stalls only when the queue is full; spills
//!   and fills of the table stacks occupy the engine.
//!
//! Detection latency is measured exactly as the paper describes: from the
//! moment a branch is sent to the IPDS to the moment its verification
//! completes.

pub mod cache;
pub mod core;
pub mod predictor;

pub use cache::{Cache, CacheStats, Hierarchy};
pub use core::{timed_run, PerfReport, TimingModel};
pub use predictor::TwoLevelPredictor;
