//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded around calls into the library's public entry points
//! (the benchmark's own code, not the library's) and kept in memory until
//! the run ends; counts recorded at the same boundaries (steps, events,
//! tokens) turn span time into per-unit rates.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One timed call.
#[derive(Debug)]
pub struct Span {
    /// 1-based, in the order spans were opened.
    pub id: u32,
    /// The enclosing span, `None` for a root.
    pub parent: Option<u32>,
    /// The round the span belongs to; `None` for set-up and layer probes.
    pub round: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans and counts; a disabled tracer records nothing, so set-up
/// code can take a tracer unconditionally.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    round: Option<u64>,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: None,
            counts: BTreeMap::new(),
        }
    }

    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Tags every span opened from now on with `round`.
    pub fn set_round(&mut self, round: Option<u64>) {
        self.round = round;
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32 + 1;
        let parent = self.open.last().map(|&i| self.spans[i].id);
        self.open.push(self.spans.len());
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            round: self.round,
            name,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end_ns = end_ns;
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Adds `n` to the count `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.enabled {
            *self.counts.entry(name).or_default() += n;
        }
    }

    pub fn counts(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the durations of its
    /// direct children (children never overlap: the benchmark records from
    /// one thread).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let p = parent as usize - 1;
                own[p] = own[p].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Writes one JSON object per span, in id order.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"round\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                opt(s.parent.map(u64::from)),
                opt(s.round),
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new();
        t.enter("root");
        t.enter("child");
        t.time("grandchild", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit();
        t.exit();
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(1));
        assert_eq!(spans[2].parent, Some(2));
        let own = t.self_ns();
        assert_eq!(own[0], spans[0].duration_ns() - spans[1].duration_ns());
        assert_eq!(own[1], spans[1].duration_ns() - spans[2].duration_ns());
        assert_eq!(own[2], spans[2].duration_ns());
        assert!(own[2] >= 2_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        t.time("x", || ());
        t.count("n", 3);
        assert!(t.spans().is_empty());
        assert_eq!(t.counts("n"), 0);
    }
}
