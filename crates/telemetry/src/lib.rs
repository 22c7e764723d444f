//! # ipds-telemetry — structured events and metrics
//!
//! The IPDS is a *monitoring* device: its value is the telemetry it emits
//! (alarms, check rates, BAT activity, detection statistics). This crate is
//! the observability substrate every other layer threads that telemetry
//! through:
//!
//! * [`EventSink`] — the structured event interface. The interpreter-side
//!   observer owns a sink and reports one record per checked branch to it.
//!   Two implementations ship: [`NullSink`] (the default; its
//!   [`EventSink::WANTS_BRANCHES`] is `false`, so the observer builds no
//!   record and the instrumented code compiles to the uninstrumented
//!   code) and [`JsonlSink`] (a JSON-lines writer for per-event records).
//!   Sinks keep no counters: the checker's own `IpdsStats` and the
//!   [`MetricsRegistry`] are the one counting vocabulary.
//! * [`MetricsRegistry`] — named monotonic counters and log₂-bucketed
//!   [`Histogram`]s. A campaign's registry is one fold over its
//!   index-ordered outcomes, computed after the parallel map.
//!
//! The crate depends only on `std` and sits below every other IPDS crate.
//! It measures no time: wall-clock belongs to the benchmark's traced pass
//! and to `ipdsc build --timings`.
//!
//! ## Determinism
//!
//! Every quantity a registry accumulates is a function of per-attack (or
//! per-branch) contributions that are themselves deterministic under the
//! seeded protocol, and the engines fold them from outcomes already in
//! index order — so registries are **bit-identical across thread counts
//! and scheduling orders**.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Write};

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
    /// step (one extra BSV read per branch, paid only by sinks whose
    /// [`EventSink::WANTS_BRANCHES`] is `true`).
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

/// Consumer of the structured event stream.
///
/// A sink is owned by the one run that feeds it, so its hook takes
/// `&mut self` and needs no interior mutability. The default body ignores
/// everything — [`NullSink`] is exactly the defaults — and
/// [`EventSink::WANTS_BRANCHES`] tells the observer at compile time
/// whether to build records at all.
pub trait EventSink {
    /// Whether this sink consumes [`EventSink::on_branch`]. The flag is a
    /// compile-time constant, like the interpreter observers' `WANTS_*`:
    /// when it is `false` (the default, as for [`NullSink`]) the observer
    /// neither probes the BSV for [`BranchRecord::expected`] nor builds the
    /// record, so the disabled path compiles to the bare checker step. A
    /// sink that overrides `on_branch` must set it to `true` or it is
    /// never called.
    const WANTS_BRANCHES: bool = false;

    /// A committed conditional branch was checked.
    #[inline]
    fn on_branch(&mut self, record: &BranchRecord) {
        let _ = record;
    }
}

/// A borrowed sink reports to the sink it borrows, so a caller can attach
/// a sink to a run and still own it afterwards (to call
/// [`JsonlSink::finish`], say).
impl<S: EventSink> EventSink for &mut S {
    const WANTS_BRANCHES: bool = S::WANTS_BRANCHES;

    #[inline]
    fn on_branch(&mut self, record: &BranchRecord) {
        (**self).on_branch(record);
    }
}

/// The default sink: ignores every event at zero cost.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl EventSink for NullSink {}

/// JSON-lines event writer.
///
/// Each event becomes one self-describing JSON object per line (schema in
/// `docs/OBSERVABILITY.md`); [`JsonlSink::finish`] appends a trailing
/// `summary` line with the number of lines written and the number of
/// writes that failed (`dropped`).
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    written: u64,
    dropped: u64,
}

impl<W: Write> JsonlSink<W> {
    /// Creates a sink writing to `writer`.
    pub fn new(writer: W) -> JsonlSink<W> {
        JsonlSink {
            writer,
            written: 0,
            dropped: 0,
        }
    }

    /// Writes the trailing summary line, flushes, and returns the writer.
    pub fn finish(mut self) -> io::Result<W> {
        writeln!(
            self.writer,
            "{{\"type\":\"summary\",\"events\":{},\"dropped\":{}}}",
            self.written, self.dropped
        )?;
        self.writer.flush()?;
        Ok(self.writer)
    }
}

impl JsonlSink<Vec<u8>> {
    /// In-memory sink (tests, small traces).
    pub fn buffered() -> JsonlSink<Vec<u8>> {
        JsonlSink::new(Vec::new())
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

impl<W: Write> EventSink for JsonlSink<W> {
    const WANTS_BRANCHES: bool = true;

    fn on_branch(&mut self, r: &BranchRecord) {
        // I/O errors surface on finish(); events are best-effort.
        let line = writeln!(
            self.writer,
            "{{\"type\":\"branch\",\"seq\":{},\"pc\":{},\"taken\":{},\"expected\":{},\
             \"verified\":{},\"alarm\":{},\"bat_actions\":{},\"bsv_transitions\":{},\
             \"table_accesses\":{}}}",
            r.seq,
            r.pc,
            r.taken,
            opt_expectation(r.expected),
            r.verified,
            r.alarm,
            r.bat_actions,
            r.bsv_transitions,
            r.table_accesses,
        );
        if line.is_ok() {
            self.written += 1;
        } else {
            self.dropped += 1;
        }
    }
}

/// Number of log₂ buckets a [`Histogram`] keeps: bucket `i` counts values
/// whose bit length is `i` (bucket 0 counts zeros).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` observations.
///
/// Bucketing by bit length keeps merge exact and order-independent: two
/// histograms merge by bucket-wise addition, and `min`/`max`/`sum`/`count`
/// all commute, so merged results are independent of merge order.
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

/// Named monotonic counters and histograms.
///
/// The campaign engines build one registry per campaign by folding its
/// index-ordered outcomes after the parallel map, so the registry is
/// bit-identical for any thread count.
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

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&n, &v)| (n, v))
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(&n, h)| (n, h))
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
    fn jsonl_sink_writes_every_event_and_summarizes() {
        // Lent by `&mut`, as `ipdsc` lends its sink to a run session.
        fn report(mut sink: impl EventSink, record: &BranchRecord) {
            sink.on_branch(record);
        }
        let mut sink = JsonlSink::buffered();
        for i in 0..3 {
            report(&mut sink, &branch(i, false));
        }
        let out = String::from_utf8(sink.finish().unwrap()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4, "3 events + summary: {out}");
        assert!(lines[0].contains("\"type\":\"branch\""));
        assert!(lines[0].contains("\"seq\":0"));
        assert_eq!(
            lines[3],
            "{\"type\":\"summary\",\"events\":3,\"dropped\":0}"
        );
    }

    /// A writer whose every write fails.
    struct Broken;

    impl Write for Broken {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::Error::other("broken"))
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_sink_counts_failed_writes_as_dropped() {
        let mut sink = JsonlSink::new(Broken);
        sink.on_branch(&branch(1, true));
        sink.on_branch(&branch(2, false));
        assert_eq!((sink.written, sink.dropped), (0, 2));
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
    fn null_sink_ignores_everything() {
        const { assert!(!NullSink::WANTS_BRANCHES) };
        const { assert!(!<&mut NullSink as EventSink>::WANTS_BRANCHES) };
        const { assert!(<&mut JsonlSink<Vec<u8>> as EventSink>::WANTS_BRANCHES) };
        NullSink.on_branch(&branch(1, true));
    }
}
