//! The core timing model and the IPDS engine timing.

use std::collections::VecDeque;

use ipds_analysis::ProgramAnalysis;
use ipds_ir::{FuncId, Program};
use ipds_runtime::{HwConfig, IpdsChecker, OnChipModel};

use crate::interp::{ExecLimits, ExecStatus, Input, Interp};
use crate::observer::ExecObserver;
use crate::pipeline::cache::Hierarchy;
use crate::pipeline::predictor::TwoLevelPredictor;

/// Millicycles per cycle (fixed-point time base).
const MC: u64 = 1000;

/// Performance results of one timed run.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Total cycles (fixed point rounded up).
    pub cycles: u64,
    /// Committed instructions.
    pub instructions: u64,
    /// Committed conditional branches.
    pub branches: u64,
    /// Branch misprediction rate.
    pub branch_miss_rate: f64,
    /// L1-D miss rate.
    pub l1d_miss_rate: f64,
    /// Whether the IPDS was attached.
    pub ipds_enabled: bool,
    /// Cycles the core stalled because the IPDS queue was full.
    pub ipds_stall_cycles: u64,
    /// Mean branch→verification-complete latency in cycles.
    pub mean_detection_latency: f64,
    /// Median (p50) verification latency in cycles.
    pub p50_detection_latency: f64,
    /// Tail (p95) verification latency in cycles.
    pub p95_detection_latency: f64,
    /// Maximum observed IPDS queue occupancy.
    pub max_queue_depth: usize,
    /// Table-stack spill/fill events.
    pub spills: u64,
    /// Alarms raised (0 for clean runs).
    pub alarms: u64,
    /// How the run terminated.
    pub status: ExecStatus,
}

impl PerfReport {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

/// The cycle-level model. Implements [`ExecObserver`] so the interpreter
/// drives it directly in commit order.
#[derive(Debug)]
pub struct TimingModel<'a> {
    config: HwConfig,
    hierarchy: Hierarchy,
    predictor: TwoLevelPredictor,
    /// Some(…) when the IPDS unit is attached.
    ipds: Option<IpdsTiming<'a>>,
    /// Current time in millicycles.
    now_mc: u64,
    instructions: u64,
    branches: u64,
    ipds_stall_mc: u64,
}

#[derive(Debug)]
struct IpdsTiming<'a> {
    checker: IpdsChecker,
    onchip: OnChipModel<'a>,
    /// Completion times (millicycles) of outstanding requests.
    queue: VecDeque<u64>,
    /// When the engine becomes free (millicycles).
    engine_free_mc: u64,
    latency_sum_mc: u64,
    latency_count: u64,
    /// All verification latencies (millicycles), for percentile reporting.
    latencies_mc: Vec<u64>,
    max_queue: usize,
}

impl<'a> TimingModel<'a> {
    /// Creates a model; pass `Some(analysis)` to attach the IPDS unit.
    pub fn new(config: HwConfig, analysis: Option<&'a ProgramAnalysis>) -> TimingModel<'a> {
        let hierarchy = Hierarchy::new(&config);
        let ipds = analysis.map(|a| IpdsTiming {
            checker: IpdsChecker::new(a),
            onchip: OnChipModel::new(a, &config),
            queue: VecDeque::new(),
            engine_free_mc: 0,
            latency_sum_mc: 0,
            latency_count: 0,
            latencies_mc: Vec::new(),
            max_queue: 0,
        });
        TimingModel {
            config,
            hierarchy,
            predictor: TwoLevelPredictor::new(14),
            ipds,
            now_mc: 0,
            instructions: 0,
            branches: 0,
            ipds_stall_mc: 0,
        }
    }

    /// Finalizes the run into a report.
    pub fn report(&self, status: ExecStatus) -> PerfReport {
        let (ipds_enabled, stalls, latency, p50, p95, maxq, spills, alarms) = match &self.ipds {
            Some(i) => {
                let mean = if i.latency_count == 0 {
                    0.0
                } else {
                    i.latency_sum_mc as f64 / (i.latency_count as f64 * MC as f64)
                };
                let mut sorted = i.latencies_mc.clone();
                sorted.sort_unstable();
                let pct = |q: f64| -> f64 {
                    if sorted.is_empty() {
                        0.0
                    } else {
                        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
                        sorted[idx] as f64 / MC as f64
                    }
                };
                (
                    true,
                    self.ipds_stall_mc.div_ceil(MC),
                    mean,
                    pct(0.50),
                    pct(0.95),
                    i.max_queue,
                    i.onchip.stats().spills + i.onchip.stats().fills,
                    i.checker.stats().alarms,
                )
            }
            None => (false, 0, 0.0, 0.0, 0.0, 0, 0, 0),
        };
        PerfReport {
            cycles: self.now_mc.div_ceil(MC),
            instructions: self.instructions,
            branches: self.branches,
            branch_miss_rate: self.predictor.miss_rate(),
            l1d_miss_rate: self.hierarchy.l1d.stats().miss_rate(),
            ipds_enabled,
            ipds_stall_cycles: stalls,
            mean_detection_latency: latency,
            p50_detection_latency: p50,
            p95_detection_latency: p95,
            max_queue_depth: maxq,
            spills,
            alarms,
            status,
        }
    }

    /// Read access to the attached checker (for alarm inspection).
    pub fn checker(&self) -> Option<&IpdsChecker> {
        self.ipds.as_ref().map(|i| &i.checker)
    }

    fn drain_queue(queue: &mut VecDeque<u64>, now_mc: u64) {
        while queue.front().is_some_and(|&c| c <= now_mc) {
            queue.pop_front();
        }
    }
}

impl ExecObserver for TimingModel<'_> {
    const WANTS_INST: bool = true;
    const WANTS_MEM: bool = true;

    fn on_inst(&mut self, pc: u64) {
        self.instructions += 1;
        // Base commit throughput.
        self.now_mc += MC / self.config.commit_width as u64;
        // Instruction fetch: misses stall the front end, partially hidden
        // by the fetch queue (half the extra latency is exposed).
        let lat = self.hierarchy.fetch(pc);
        if lat > self.config.l1_latency {
            self.now_mc += (lat - self.config.l1_latency) as u64 * MC / 2;
        }
    }

    fn on_mem(&mut self, _pc: u64, addr: usize, store: bool) {
        // Cells are 8 bytes.
        let lat = self.hierarchy.data((addr as u64) * 8);
        if !store && lat > self.config.l1_latency {
            // Out-of-order execution hides part of a load miss; expose 40%.
            self.now_mc += (lat - self.config.l1_latency) as u64 * MC * 2 / 5;
        }
    }

    fn on_branch(&mut self, pc: u64, dir: bool) {
        self.branches += 1;
        if !self.predictor.predict_and_update(pc, dir) {
            self.now_mc += self.config.mispredict_penalty as u64 * MC;
        }
        let config = &self.config;
        if let Some(ipds) = &mut self.ipds {
            // Functional check: counts the table accesses this branch costs.
            let outcome = ipds.checker.on_branch(pc, dir);
            Self::drain_queue(&mut ipds.queue, self.now_mc);
            // Queue-full back-pressure: commit waits for the oldest request.
            while ipds.queue.len() >= config.ipds_queue_entries as usize {
                let head = *ipds.queue.front().expect("non-empty full queue");
                let stall = head.saturating_sub(self.now_mc);
                self.ipds_stall_mc += stall;
                self.now_mc = head;
                Self::drain_queue(&mut ipds.queue, self.now_mc);
            }
            let per_access_mc =
                config.table_access_latency as u64 * MC / config.ipds_ops_per_cycle as u64;
            let start = ipds.engine_free_mc.max(self.now_mc);
            let completion = start + outcome.table_accesses as u64 * per_access_mc;
            ipds.engine_free_mc = completion;
            ipds.queue.push_back(completion);
            ipds.max_queue = ipds.max_queue.max(ipds.queue.len());
            if outcome.verified {
                ipds.latency_sum_mc += completion - self.now_mc;
                ipds.latency_count += 1;
                ipds.latencies_mc.push(completion - self.now_mc);
            }
        }
    }

    fn on_call(&mut self, func: FuncId) {
        // Call overhead (link/stack management).
        self.now_mc += MC;
        let config = &self.config;
        if let Some(ipds) = &mut self.ipds {
            ipds.checker.on_call(func);
            let spill_cycles = ipds.onchip.on_call(func, config);
            // Spills occupy the IPDS engine, not the core.
            ipds.engine_free_mc = ipds.engine_free_mc.max(self.now_mc) + spill_cycles * MC;
        }
    }

    fn on_return(&mut self) {
        self.now_mc += MC;
        let config = &self.config;
        if let Some(ipds) = &mut self.ipds {
            // Underflows are counted inside the models; the timing model
            // just skips the fill cost for a return that had no frame.
            let _ = ipds.checker.on_return();
            let fill_cycles = ipds.onchip.on_return(config).unwrap_or(0);
            ipds.engine_free_mc = ipds.engine_free_mc.max(self.now_mc) + fill_cycles * MC;
        }
    }
}

/// Convenience driver: execute `program` on `inputs` under the timing model
/// and return the report. Attach the IPDS by passing `Some(analysis)`.
pub fn timed_run(
    program: &Program,
    inputs: &[Input],
    analysis: Option<&ProgramAnalysis>,
    config: &HwConfig,
    limits: ExecLimits,
) -> PerfReport {
    let mut interp = Interp::new(program, inputs.to_vec(), limits);
    let mut model = TimingModel::new(config.clone(), analysis);
    if let Some(ipds) = &mut model.ipds {
        ipds.checker.on_call(interp.main());
        ipds.onchip.on_call(interp.main(), config);
    }
    let status = interp.run(&mut model);
    model.report(status)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipds_analysis::{analyze_program, AnalysisConfig};

    const LOOPY: &str = "fn work(int n) -> int { int i; int acc; acc = 0; \
        for (i = 0; i < n; i = i + 1) { \
          if (acc > 1000) { acc = acc - 1000; } \
          acc = acc + i; \
        } return acc; } \
        fn main() -> int { int r; int j; r = 0; \
        for (j = 0; j < 50; j = j + 1) { r = r + work(40); } return r; }";

    #[test]
    fn baseline_and_ipds_agree_functionally() {
        let p = ipds_ir::parse(LOOPY).unwrap();
        let a = analyze_program(&p, &AnalysisConfig::default());
        let cfg = HwConfig::table1_default();
        let base = timed_run(&p, &[], None, &cfg, ExecLimits::default());
        let with = timed_run(&p, &[], Some(&a), &cfg, ExecLimits::default());
        assert_eq!(base.instructions, with.instructions);
        assert_eq!(base.branches, with.branches);
        assert_eq!(with.alarms, 0, "clean run must not alarm");
        assert!(matches!(base.status, ExecStatus::Exited(_)));
    }

    #[test]
    fn ipds_overhead_is_small() {
        let p = ipds_ir::parse(LOOPY).unwrap();
        let a = analyze_program(&p, &AnalysisConfig::default());
        let cfg = HwConfig::table1_default();
        let base = timed_run(&p, &[], None, &cfg, ExecLimits::default());
        let with = timed_run(&p, &[], Some(&a), &cfg, ExecLimits::default());
        let overhead = with.cycles as f64 / base.cycles as f64 - 1.0;
        assert!(overhead >= 0.0);
        assert!(overhead < 0.05, "IPDS overhead {overhead:.4} too large");
    }

    #[test]
    fn detection_latency_is_pipeline_scale() {
        let p = ipds_ir::parse(LOOPY).unwrap();
        let a = analyze_program(&p, &AnalysisConfig::default());
        let cfg = HwConfig::table1_default();
        let with = timed_run(&p, &[], Some(&a), &cfg, ExecLimits::default());
        assert!(with.mean_detection_latency > 0.0);
        assert!(
            with.mean_detection_latency < 30.0,
            "latency {} should be within ~a pipeline depth",
            with.mean_detection_latency
        );
    }

    #[test]
    fn starved_engine_creates_stalls() {
        let p = ipds_ir::parse(LOOPY).unwrap();
        let a = analyze_program(&p, &AnalysisConfig::default());
        let mut cfg = HwConfig::table1_default();
        // Throttle the engine hard and shrink the queue: stalls must appear.
        cfg.table_access_latency = 8;
        cfg.ipds_ops_per_cycle = 1;
        cfg.ipds_queue_entries = 2;
        let with = timed_run(&p, &[], Some(&a), &cfg, ExecLimits::default());
        assert!(with.ipds_stall_cycles > 0);
        let base = timed_run(&p, &[], None, &cfg, ExecLimits::default());
        assert!(with.cycles > base.cycles);
    }

    #[test]
    fn ipc_is_sane() {
        let p = ipds_ir::parse(LOOPY).unwrap();
        let cfg = HwConfig::table1_default();
        let r = timed_run(&p, &[], None, &cfg, ExecLimits::default());
        let ipc = r.ipc();
        assert!(ipc > 0.5 && ipc <= cfg.commit_width as f64, "ipc {ipc}");
    }
}
