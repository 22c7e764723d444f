//! # ipds-telemetry — structured events, metrics and phase profiling
//!
//! The IPDS is a *monitoring* device: its value is the telemetry it emits
//! (alarms, check rates, BAT activity, detection statistics, overhead
//! accounting). This crate is the observability substrate every other layer
//! threads that telemetry through:
//!
//! * [`EventSink`] — the structured event interface. The interpreter-side
//!   observers and the campaign engines report per-branch and per-attack
//!   records to a sink shared by reference. Two implementations ship:
//!   [`NullSink`] (the default; every hook is an empty inlined body, so the
//!   instrumented code paths compile down to the uninstrumented ones) and
//!   [`JsonlSink`] (a bounded-buffer JSON-lines writer for per-event
//!   records). Sinks keep no counters: the checker's own `IpdsStats` and
//!   the [`MetricsRegistry`] are the one counting vocabulary.
//! * [`MetricsRegistry`] — named monotonic counters and log₂-bucketed
//!   [`Histogram`]s with `snapshot`/[`merge`](MetricsRegistry::merge)
//!   semantics. Campaign worker threads own private registries that fold
//!   deterministically into one result (all merge operations commute).
//! * [`PhaseRecorder`] — accumulating wall-clock spans per named phase;
//!   the experiment driver times each of its sections with one.
//!
//! The crate depends only on `std` and sits below every other IPDS crate.
//!
//! ## Determinism
//!
//! Every quantity a registry accumulates is a sum of per-attack (or
//! per-branch) contributions that are themselves deterministic under the
//! seeded protocol. Addition commutes, histogram buckets commute, and
//! min/max commute — so merged registries are **bit-identical across
//! thread counts and scheduling orders**. Only the *line order* of a
//! [`JsonlSink`] fed by concurrent workers depends on scheduling (each line
//! is self-describing, carrying its attack index).

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Write};
use std::sync::Mutex;
use std::time::Instant;

/// Expected direction of a checked branch, as the BSV records it.
///
/// Mirror of the analysis-side `BranchStatus` so this crate stays
/// dependency-free; the observers translate at the boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// The BSV expects the branch taken.
    Taken,
    /// The BSV expects the branch not-taken.
    NotTaken,
    /// No expectation is recorded — any direction verifies.
    Unknown,
}

impl fmt::Display for Expectation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Expectation::Taken => "T",
            Expectation::NotTaken => "NT",
            Expectation::Unknown => "?",
        })
    }
}

/// One committed conditional branch as the checker processed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchRecord {
    /// The checker's branch sequence number (1-based commit order).
    pub seq: u64,
    /// PC of the branch.
    pub pc: u64,
    /// Actual committed direction (`true` = taken).
    pub taken: bool,
    /// Expected direction read from the BSV *before* the verify-then-update
    /// step. Populated only when the sink asks for details
    /// ([`EventSink::wants_branch_details`]); the probe costs one extra BSV
    /// read per branch.
    pub expected: Option<Expectation>,
    /// The BCV marked this branch and it was verified against the BSV.
    pub verified: bool,
    /// The verification mismatched — an alarm fired.
    pub alarm: bool,
    /// BAT entries walked for this (branch, direction).
    pub bat_actions: u32,
    /// BAT actions that changed a BSV slot's value.
    pub bsv_transitions: u32,
    /// Total IPDS table accesses (BCV probe + BSV read + BAT walk).
    pub table_accesses: u32,
}

/// One completed attack of a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackRecord {
    /// Attack index within the campaign (seed order).
    pub index: u32,
    /// The attack's derived RNG seed.
    pub seed: u64,
    /// Interpreter step at which the tamper triggered.
    pub trigger_step: u64,
    /// Interpreter steps the attacked run took.
    pub steps: u64,
    /// A live cell existed at the trigger point and was tampered.
    pub tampered: bool,
    /// The branch trace diverged from the golden run.
    pub control_flow_changed: bool,
    /// The IPDS raised at least one alarm.
    pub detected: bool,
}

/// Consumer of the structured event stream.
///
/// Sinks are shared by reference across campaign worker threads, so every
/// hook takes `&self` and implementations use interior mutability (a mutex
/// for writers). Default bodies ignore everything — [`NullSink`] is exactly
/// the defaults, and monomorphization inlines the empty bodies away,
/// keeping the disabled path zero-cost.
pub trait EventSink: Sync {
    /// True if this sink consumes the per-branch record stream and
    /// [`BranchRecord::expected`] should be populated (the extra pre-verify
    /// probe). Defaults to `false`, as for [`NullSink`]: an engine may then
    /// elide re-executing deterministic work whose branch records nobody
    /// reads, e.g. warm-starting attacks from golden-run snapshots.
    #[inline]
    fn wants_branch_details(&self) -> bool {
        false
    }

    /// A committed conditional branch was checked.
    #[inline]
    fn on_branch(&self, record: &BranchRecord) {
        let _ = record;
    }

    /// A campaign attack completed.
    #[inline]
    fn on_attack(&self, record: &AttackRecord) {
        let _ = record;
    }
}

/// The default sink: ignores every event at zero cost.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl EventSink for NullSink {}

/// Shared reference to the canonical [`NullSink`] instance.
pub static NULL_SINK: NullSink = NullSink;

struct JsonlInner<W: Write> {
    writer: W,
    written: u64,
    dropped: u64,
}

/// Bounded JSON-lines event writer.
///
/// Each event becomes one self-describing JSON object per line (schema in
/// `docs/OBSERVABILITY.md`). At most `cap` event lines are written
/// (0 = unlimited); further events are counted as dropped and reported by
/// the trailing `summary` line that [`JsonlSink::finish`] appends. Writes
/// go through a mutex — this is the *detail* sink, not the hot-path one.
pub struct JsonlSink<W: Write + Send> {
    inner: Mutex<JsonlInner<W>>,
    cap: u64,
}

impl<W: Write + Send> fmt::Debug for JsonlSink<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock().unwrap();
        f.debug_struct("JsonlSink")
            .field("cap", &self.cap)
            .field("written", &inner.written)
            .field("dropped", &inner.dropped)
            .finish()
    }
}

impl<W: Write + Send> JsonlSink<W> {
    /// Creates a sink writing at most `cap` event lines (0 = unlimited).
    pub fn new(writer: W, cap: u64) -> JsonlSink<W> {
        JsonlSink {
            inner: Mutex::new(JsonlInner {
                writer,
                written: 0,
                dropped: 0,
            }),
            cap,
        }
    }

    fn emit(&self, line: fmt::Arguments<'_>) {
        let mut inner = self.inner.lock().unwrap();
        if self.cap != 0 && inner.written >= self.cap {
            inner.dropped += 1;
            return;
        }
        // I/O errors surface on finish(); events are best-effort.
        if inner.writer.write_fmt(line).is_ok() {
            inner.written += 1;
        } else {
            inner.dropped += 1;
        }
    }

    /// Writes the trailing summary line, flushes, and returns the writer.
    pub fn finish(self) -> io::Result<W> {
        let inner = self.inner.into_inner().unwrap();
        let mut writer = inner.writer;
        writeln!(
            writer,
            "{{\"type\":\"summary\",\"events\":{},\"dropped\":{}}}",
            inner.written, inner.dropped
        )?;
        writer.flush()?;
        Ok(writer)
    }
}

impl JsonlSink<Vec<u8>> {
    /// In-memory sink (tests, small traces).
    pub fn buffered(cap: u64) -> JsonlSink<Vec<u8>> {
        JsonlSink::new(Vec::new(), cap)
    }
}

fn opt_expectation(e: Option<Expectation>) -> &'static str {
    match e {
        Some(Expectation::Taken) => "\"T\"",
        Some(Expectation::NotTaken) => "\"NT\"",
        Some(Expectation::Unknown) => "\"?\"",
        None => "null",
    }
}

impl<W: Write + Send> EventSink for JsonlSink<W> {
    fn wants_branch_details(&self) -> bool {
        true
    }

    fn on_branch(&self, r: &BranchRecord) {
        self.emit(format_args!(
            "{{\"type\":\"branch\",\"seq\":{},\"pc\":{},\"taken\":{},\"expected\":{},\
             \"verified\":{},\"alarm\":{},\"bat_actions\":{},\"bsv_transitions\":{},\
             \"table_accesses\":{}}}\n",
            r.seq,
            r.pc,
            r.taken,
            opt_expectation(r.expected),
            r.verified,
            r.alarm,
            r.bat_actions,
            r.bsv_transitions,
            r.table_accesses,
        ));
    }

    fn on_attack(&self, r: &AttackRecord) {
        self.emit(format_args!(
            "{{\"type\":\"attack\",\"index\":{},\"seed\":{},\"trigger_step\":{},\"steps\":{},\
             \"tampered\":{},\"cf_changed\":{},\"detected\":{}}}\n",
            r.index,
            r.seed,
            r.trigger_step,
            r.steps,
            r.tampered,
            r.control_flow_changed,
            r.detected,
        ));
    }
}

/// Number of log₂ buckets a [`Histogram`] keeps: bucket `i` counts values
/// whose bit length is `i` (bucket 0 counts zeros).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` observations.
///
/// Bucketing by bit length keeps merge exact and order-independent: two
/// histograms merge by bucket-wise addition, and `min`/`max`/`sum`/`count`
/// all commute, so merged results are independent of worker scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    /// Observations recorded.
    pub count: u64,
    /// Sum of observed values (wrapping on overflow).
    pub sum: u64,
    /// Smallest observed value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// Bucket `i` counts values with bit length `i`.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[(u64::BITS - value.leading_zeros()) as usize] += 1;
    }

    /// Folds another histogram in (bucket-wise; commutative).
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// Mean of the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Named monotonic counters and histograms with deterministic merge.
///
/// Worker threads of a campaign each own a private registry; the engine
/// merges them after the join. Every merge operation commutes, so the
/// folded registry is bit-identical for any thread count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `delta` to the named monotonic counter.
    pub fn add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Reads a counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Records one observation into the named histogram.
    pub fn observe(&mut self, name: &'static str, value: u64) {
        self.histograms.entry(name).or_default().observe(value);
    }

    /// Reads a histogram.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Folds `other` into `self` (commutative and associative).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, v) in &other.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name).or_default().merge(h);
        }
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&n, &v)| (n, v))
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(&n, h)| (n, h))
    }
}

/// Accumulating wall-clock spans per named phase.
///
/// Spans with the same name accumulate; snapshot order is first-recorded
/// order, so a driver serializes its phases in the order it ran them.
#[derive(Debug, Default)]
pub struct PhaseRecorder {
    inner: Mutex<Vec<(String, f64)>>,
}

impl PhaseRecorder {
    /// Creates an empty recorder.
    pub fn new() -> PhaseRecorder {
        PhaseRecorder::default()
    }

    /// Runs `f`, accumulating its wall-clock under `name`.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(name, start.elapsed().as_secs_f64());
        out
    }

    /// Adds `seconds` to the named phase.
    pub fn add(&self, name: &str, seconds: f64) {
        let mut inner = self.inner.lock().unwrap();
        match inner.iter_mut().find(|(n, _)| n == name) {
            Some((_, total)) => *total += seconds,
            None => inner.push((name.to_string(), seconds)),
        }
    }

    /// All phases in first-recorded order with accumulated seconds.
    pub fn snapshot(&self) -> Vec<(String, f64)> {
        self.inner.lock().unwrap().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn branch(seq: u64, alarm: bool) -> BranchRecord {
        BranchRecord {
            seq,
            pc: 0x40,
            taken: true,
            expected: None,
            verified: true,
            alarm,
            bat_actions: 2,
            bsv_transitions: 1,
            table_accesses: 4,
        }
    }

    #[test]
    fn jsonl_sink_bounds_and_summarizes() {
        let sink = JsonlSink::buffered(2);
        for i in 0..5 {
            sink.on_branch(&branch(i, false));
        }
        let out = String::from_utf8(sink.finish().unwrap()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "2 events + summary: {out}");
        assert!(lines[0].contains("\"type\":\"branch\""));
        assert!(lines[0].contains("\"seq\":0"));
        assert!(lines[2].contains("\"events\":2"));
        assert!(lines[2].contains("\"dropped\":3"));
    }

    #[test]
    fn histogram_merge_is_order_independent() {
        let mut all = Histogram::default();
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for v in [0u64, 1, 2, 3, 100, 5000, u64::MAX] {
            all.observe(v);
        }
        for v in [0u64, 2, 5000] {
            a.observe(v);
        }
        for v in [1u64, 3, 100, u64::MAX] {
            b.observe(v);
        }
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab, all);
        assert_eq!(ab.count, 7);
        assert_eq!(ab.min, 0);
        assert_eq!(ab.max, u64::MAX);
    }

    #[test]
    fn registry_merge_commutes() {
        let mut a = MetricsRegistry::new();
        a.add("attacks", 3);
        a.observe("steps", 10);
        let mut b = MetricsRegistry::new();
        b.add("attacks", 4);
        b.add("alarms", 1);
        b.observe("steps", 900);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("attacks"), 7);
        assert_eq!(ab.counter("alarms"), 1);
        assert_eq!(ab.counter("missing"), 0);
        assert_eq!(ab.histogram("steps").unwrap().count, 2);
    }

    #[test]
    fn phase_recorder_accumulates_in_order() {
        let rec = PhaseRecorder::new();
        rec.time("compile", || {});
        rec.add("golden", 0.25);
        rec.add("compile", 1.0);
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].0, "compile");
        assert!(snap[0].1 >= 1.0);
        assert_eq!(snap[1], ("golden".to_string(), 0.25));
    }

    #[test]
    fn null_sink_ignores_everything() {
        NULL_SINK.on_branch(&branch(1, true));
        NULL_SINK.on_attack(&AttackRecord {
            index: 0,
            seed: 0,
            trigger_step: 0,
            steps: 0,
            tampered: false,
            control_flow_changed: false,
            detected: false,
        });
        assert!(!NULL_SINK.wants_branch_details());
    }
}
