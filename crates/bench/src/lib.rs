//! # ipds-bench — experiment drivers regenerating the paper's results
//!
//! One module per table/figure of the evaluation section (§6), each with a
//! `run()` producing structured rows and a `print()` rendering the same
//! table the paper reports. The one binary, `exp_all`, runs them all in
//! sequence or one phase at a time (`exp_all <phase>`). Its full run also
//! writes `results/bench_campaign.json` (the deterministic counts, gated
//! byte-for-byte) and `results/bench_timing.json` (wall-clock numbers, not
//! committed); the per-layer costs are measured by the `benchmark/`
//! workspace's `--trace 1` pass.
//!
//! | Paper artifact | Module | `exp_all` phase |
//! |---|---|---|
//! | Table 1 processor config | [`table1`] | `table1` |
//! | Fig. 7 detection rates | [`fig7`] | `fig7` |
//! | Fig. 8 table sizes | [`fig8`] | `fig8` |
//! | Fig. 9 normalized performance | [`fig9`] | `fig9` |
//! | §6 detection latency (11.7 cycles) | [`latency`] | `latency` |
//! | Ablations (ours) | [`ablation`] | `ablation`, `promotion`, `feasibility` |
//! | §5.4 context-switch costs | [`context`] | `context` |
//! | Timing-model microbenchmarks | [`micro`] | `micro` |

pub mod ablation;
pub mod artifacts;
pub mod context;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod latency;
pub mod micro;
pub mod table1;

/// Renders a percentage for table output.
pub fn pct(x: f64) -> String {
    format!("{:5.1}%", x * 100.0)
}
